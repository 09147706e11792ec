//! The metrics registry must stay a rounding error next to the study it
//! instruments: replaying a study's per-event registry traffic costs
//! under 5 % of running that study. Reads a wall clock, so it is a
//! workspace test and not part of Tier-1.

use scanner::metrics;
use scanner::result::{FailureCause, Protocol};
use std::hint::black_box;
use std::time::Instant;
use telemetry::{Registry, Value};
use timetoscan::{Study, StudyConfig};

#[test]
fn registry_traffic_costs_under_five_percent_of_the_study() {
    let started = Instant::now();
    let study = Study::run(StudyConfig::tiny(2024));
    let study_time = started.elapsed();

    // Only the scanner's `scan_*` metrics and the per-KoD backoff samples
    // go through the Registry API once per event. Everything else in the
    // snapshot arrives in bulk — `transport_*` is one `TransportTotals`
    // exported per stage, the `ntp_*` poll counters are loop locals
    // flushed once per run, collector/telescope/span entries are single
    // adds at stage boundaries — and costs O(1) calls at any volume.
    let ops: u64 = study
        .telemetry
        .iter()
        .filter(|(key, _)| key.name.starts_with("scan_") || key.name == "ntp_kod_backoff_seconds")
        .map(|(_, value)| match value {
            Value::Counter(n) => *n,
            Value::Hist(h) => h.count(),
        })
        .sum();
    assert!(ops > 0, "the study recorded no per-event metrics");

    // The measured scan mix: mostly attempt/failure counter bumps, an RTT
    // sample and a target bump every ~30 operations.
    let started = Instant::now();
    let mut reg = Registry::new();
    for i in 1..=ops {
        match i & 31 {
            0 => reg.observe(metrics::rtt_seconds(Protocol::Https), i),
            1 => reg.inc(metrics::SCAN_TARGETS),
            j if j & 1 == 0 => reg.inc(metrics::attempts(Protocol::Http)),
            _ => reg.inc(metrics::failures(Protocol::Http, FailureCause::Timeout)),
        }
    }
    black_box(reg.counter(metrics::SCAN_TARGETS));
    let replay_time = started.elapsed();

    let pct = 100.0 * replay_time.as_secs_f64() / study_time.as_secs_f64();
    assert!(
        pct < 5.0,
        "{ops} registry operations took {replay_time:?}, {pct:.2}% of the \
         {study_time:?} study they instrument (budget 5%)"
    );
}
