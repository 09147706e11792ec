//! Adversarial-ecosystem scenarios: every actor roster's study is held
//! to its golden digest (plus a fault-profile cross-check), and the
//! blind attribution pass must separate the archetypes it saw.
//!
//! The ecosystem runs after collection on its own tick clock, a pure
//! function of `(config, world)` — the goldens were checked at 1 and 4
//! collection shards while a sharded loop existed, so nothing about how
//! collection is executed leaks into a single deterministic bit of its
//! capture, its telemetry, or the attribution table.

mod golden;

use actors::ActorRoster;
use netsim::transport::FaultProfile;
use std::sync::OnceLock;
use telemetry::OwnedKey;
use timetoscan::{Study, StudyConfig};

const SEED: u64 = 31;

/// The rosters each scenario pins: the paper's pair, the full
/// ecosystem, and nobody.
const ROSTERS: [(ActorRoster, &str); 3] = [
    (ActorRoster::BASELINE, "baseline"),
    (ActorRoster::ALL, "all"),
    (ActorRoster::NONE, "none"),
];

fn cfg(roster: ActorRoster) -> StudyConfig {
    StudyConfig::tiny(SEED).with_actors(roster)
}

/// The ideal-transport study of a pinned roster, run once for all the
/// tests below.
fn study(roster: ActorRoster) -> &'static Study {
    static STUDIES: [OnceLock<Study>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let at = ROSTERS.iter().position(|(r, _)| *r == roster);
    STUDIES[at.expect("a pinned roster")].get_or_init(|| Study::run(cfg(roster)))
}

#[test]
fn reports_are_byte_identical_across_engine_shapes() {
    for (roster, name) in ROSTERS {
        golden::check_study(&format!("tiny/{SEED}/ideal/{name}"), study(roster));
    }
}

#[test]
fn reports_are_byte_identical_under_faults() {
    let lossy = Study::run(cfg(ActorRoster::ALL).with_fault(FaultProfile::Lossy1Pct));
    golden::check_study(&format!("tiny/{SEED}/lossy_1pct/all"), &lossy);
}

#[test]
fn attribution_separates_the_full_roster() {
    let study = study(ActorRoster::ALL);
    let table = study.attribution.as_ref().expect("telescope ran");
    let cm = &table.confusion;

    // Every rostered archetype landed probes and got its own cluster
    // verdict somewhere in the table.
    for (_, label) in ActorRoster::ALL.flags() {
        let row: u64 = cm.labels().iter().map(|p| cm.count(label, p)).sum();
        assert!(row > 0, "archetype {label} captured nothing");
        let recall = cm.recall(label).expect("archetype {label} has a row");
        assert!(recall >= 0.9, "recall for {label} is {recall}");
    }
    let acc = cm.accuracy().expect("non-empty matrix");
    assert!(acc >= 0.9, "attribution accuracy {acc} below 0.9");

    // The same numbers are exported into the run report's telemetry as
    // labelled counters: the confusion diagonal dominates.
    let snap = &study.telemetry;
    let mut diagonal = 0;
    for (_, label) in ActorRoster::ALL.flags() {
        diagonal += snap.counter(&OwnedKey::with_labels(
            "attribution_probes",
            &[
                ("predicted", label),
                ("stage", "telescope"),
                ("truth", label),
            ],
        ));
    }
    let total = snap.counter_total("attribution_probes");
    assert!(total > 0, "no attribution counters exported");
    assert!(
        diagonal as f64 / total as f64 >= 0.9,
        "telemetry confusion diagonal {diagonal}/{total} below 0.9"
    );
    assert_eq!(
        snap.counter_total("actor_captures"),
        total,
        "capture counters disagree with the attribution total"
    );
}

#[test]
fn baseline_roster_matches_the_legacy_telescope() {
    // The default roster is the paper's pair — the legacy §5 matcher
    // must still fully attribute the primary telescope's capture.
    let study = study(ActorRoster::BASELINE);
    let report = study.telescope.as_ref().expect("telescope ran");
    assert_eq!(report.unmatched_packets, 0);
    assert_eq!(report.actors.len(), 2);
    let table = study.attribution.as_ref().expect("attribution ran");
    assert_eq!(
        table.confusion.accuracy(),
        Some(1.0),
        "the pair must separate cleanly:\n{}",
        table.render()
    );
}

#[test]
fn empty_roster_yields_an_empty_capture() {
    let study = study(ActorRoster::NONE);
    let report = study.telescope.as_ref().expect("telescope ran");
    assert_eq!(report.matched_packets, 0);
    assert_eq!(report.unmatched_packets, 0);
    let table = study.attribution.as_ref().expect("attribution ran");
    assert!(table.clusters.is_empty());
    assert_eq!(table.confusion.accuracy(), None);
}
