//! The run's telemetry report — not a paper artefact, but the
//! reproduction's own accounting: every deterministic metric the
//! pipeline recorded (stage-labelled counters, gauges, and histograms),
//! plus the derived-layer memoization tally.
//!
//! Only the *deterministic* snapshot is rendered, so this section — like
//! every other experiment — is byte-identical across runs of one config.

use crate::report::{fmt_int, TextTable};
use crate::Derived;
use telemetry::Value;

/// Renders the deterministic metrics table.
pub fn render(study: &Derived) -> String {
    let snap = study.telemetry.deterministic();
    let mut t = TextTable::new(vec!["metric", "value"]);
    for (key, entry) in snap.iter() {
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
    // is stable across repeated renders (hit counts keep growing — they
    // are exported as volatile metrics via `Derived::export_into`).
    format!(
        "== Run telemetry (deterministic metrics) ==\n{}\nderived memoization: {} artifact builds\n",
        t.render(),
        study.memo_misses(),
    )
}
