//! The run's telemetry report — not a paper artefact, but the
//! reproduction's own accounting: every metric the pipeline recorded
//! (stage-labelled counters and histograms), plus the
//! derived-layer memoization tally. Like every other experiment it is
//! byte-identical across runs of one config.

use crate::report::{fmt_int, TextTable};
use crate::Derived;
use telemetry::Value;

/// Renders the deterministic metrics table.
pub fn render(study: &Derived) -> String {
    let mut t = TextTable::new(vec!["metric", "value"]);
    for (key, value) in study.telemetry.iter() {
        let v = match value {
            Value::Counter(n) => fmt_int(*n),
            Value::Hist(h) => format!(
                "n={} mean={:.1} min={} max={}",
                fmt_int(h.count()),
                h.mean(),
                fmt_int(h.min()),
                fmt_int(h.max()),
            ),
        };
        t.row(vec![key.render(), v]);
    }
    // Builds only: each cell builds at most once per study, so this line
    // is the same on every render of the study, through any view.
    format!(
        "== Run telemetry (deterministic metrics) ==\n{}\nderived memoization: {} artifact builds\n",
        t.render(),
        study.memo_misses(),
    )
}
