//! Robustness of `RunReport::from_json`, the reader the service's report
//! queries and the benchmark's round-trip probe rely on: a report cut at
//! every length or with any byte flipped is either refused or read as a
//! report that re-serializes to itself — never a panic. Two member names
//! that parse to one metric key are refused rather than folded together.

use telemetry::{Key, OwnedKey, Registry, RunReport};

const MASKS: [u8; 3] = [0x01, 0x80, 0xff];
const POLLS: Key = Key::bare("ntp_polls");
const ATTEMPTS: Key = Key::new("scan_attempts", &[("protocol", "HTTP")]);
const RTT: Key = Key::bare("transport_rtt_seconds");

/// Every metric shape a study report carries: a bare counter, a counter
/// with static labels, a dynamically-labelled one, a histogram holding
/// both extremes, each stamped with a stage label, and metadata.
fn fixture() -> RunReport {
    let mut reg = Registry::new();
    reg.add(POLLS, 7);
    reg.inc(ATTEMPTS);
    reg.add_dyn(
        OwnedKey::with_labels("telescope_actor_hits", &[("actor", "research")]),
        3,
    );
    reg.observe(RTT, 0);
    reg.observe(RTT, u64::MAX);
    RunReport::new(
        &[("fault", "congested"), ("seed", "23")],
        &reg.snapshot_with(&[("stage", "ntp_scan")]),
    )
}

/// Holds one reader result to the contract: refused, or a report whose
/// canonical form reads back to itself.
fn check(input: &str) {
    if let Some(report) = RunReport::from_json(input) {
        assert_eq!(
            RunReport::from_json(&report.to_json()).as_ref(),
            Some(&report),
            "accepted {input:?} but its canonical form does not read back"
        );
    }
}

#[test]
fn every_cut_and_flip_is_refused_or_roundtrips() {
    let json = fixture().to_json();
    assert_eq!(RunReport::from_json(&json), Some(fixture()));
    let bytes = json.as_bytes();
    for cut in 0..bytes.len() {
        check(&String::from_utf8_lossy(&bytes[..cut]));
    }
    for i in 0..bytes.len() {
        for mask in MASKS {
            let mut bad = bytes.to_vec();
            bad[i] ^= mask;
            check(&String::from_utf8_lossy(&bad));
        }
    }
}

#[test]
fn member_names_that_are_not_canonical_keys_are_refused() {
    let report = |metrics: &str| format!(r#"{{"meta":{{}},"metrics":{{{metrics}}}}}"#);
    let counter = r#"{"type":"counter","value":1}"#;
    let hist = r#"{"type":"hist","buckets":[],"count":0,"sum":0,"min":0,"max":0}"#;
    for metrics in [
        // One key in two label orders, as two kinds: used to abort.
        format!(r#""a{{x=1,y=2}}":{counter},"a{{y=2,x=1}}":{hist}"#),
        // The same as two counters: used to fold into one entry.
        format!(r#""a{{x=1,y=2}}":{counter},"a{{y=2,x=1}}":{counter}"#),
        // A repeated label: used to collapse to `a{x=2}`.
        format!(r#""a{{x=1,x=2}}":{counter}"#),
        // Braces around no labels.
        format!(r#""a{{}}":{counter}"#),
        // A kind no snapshot holds.
        r#""a":{"type":"gauge","value":1}"#.to_string(),
    ] {
        assert_eq!(RunReport::from_json(&report(&metrics)), None, "{metrics}");
    }
    // The canonical spelling of the same entries is read.
    let canonical = report(&format!(r#""a{{x=1,y=2}}":{counter}"#));
    assert!(RunReport::from_json(&canonical).is_some());
}
