//! The run's telemetry report — not a paper artefact, but the
//! reproduction's own accounting: every metric the pipeline recorded
//! (stage-labelled counters, gauges, and histograms), plus the
//! derived-layer memoization tally. Like every other experiment it is
//! byte-identical across runs of one config.

use crate::report::{fmt_int, TextTable};
use crate::Derived;
use telemetry::Value;

/// Renders the deterministic metrics table.
pub fn render(study: &Derived) -> String {
    let mut t = TextTable::new(vec!["metric", "value"]);
    for (key, entry) in study.telemetry.iter() {
        let v = match &entry.value {
            Value::Counter(n) => fmt_int(*n),
            Value::Gauge(n) => format!("max {}", fmt_int(*n)),
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
    // is stable across repeated renders (hit counts keep growing, which
    // is why `Derived::memo_hits` is not printed here).
    format!(
        "== Run telemetry (deterministic metrics) ==\n{}\nderived memoization: {} artifact builds\n",
        t.render(),
        study.memo_misses(),
    )
}
