//! Adversarial-ecosystem scenarios: every actor roster must produce a
//! **byte-identical** canonical run report across shard counts (plus a
//! fault-profile cross-check), and the blind attribution pass must
//! separate the archetypes it saw.
//!
//! The ecosystem runs after collection on its own tick clock, a pure
//! function of `(config, world)` — nothing about engine shape or
//! worker fan-out may leak into a single deterministic bit of its
//! capture, its telemetry, or the attribution table.

use actors::ActorRoster;
use netsim::transport::FaultProfile;
use telemetry::OwnedKey;
use timetoscan::{Study, StudyConfig};

const SEED: u64 = 31;

/// The rosters each scenario pins: the paper's pair, each ecosystem
/// archetype alone on top of it, and the full ecosystem.
const ROSTERS: [ActorRoster; 3] = [ActorRoster::BASELINE, ActorRoster::ALL, ActorRoster::NONE];

fn cfg(roster: ActorRoster, shards: usize) -> StudyConfig {
    StudyConfig::tiny(SEED)
        .with_actors(roster)
        .with_collection_shards(shards)
}

#[test]
fn reports_are_byte_identical_across_engine_shapes() {
    for roster in ROSTERS {
        let base = Study::run(cfg(roster, 1));
        let sharded = Study::run(cfg(roster, 4));
        assert_eq!(
            sharded.run_report().to_json(),
            base.run_report().to_json(),
            "roster {roster}: 4 shards diverged"
        );
    }
}

#[test]
fn reports_are_byte_identical_under_faults() {
    let lossy = |shards: usize| cfg(ActorRoster::ALL, shards).with_fault(FaultProfile::Lossy1Pct);
    let base = Study::run(lossy(1));
    let other = Study::run(lossy(4));
    assert_eq!(
        other.run_report().to_json(),
        base.run_report().to_json(),
        "lossy full-roster run diverged across engine shapes"
    );
}

#[test]
fn attribution_separates_the_full_roster() {
    let study = Study::run(cfg(ActorRoster::ALL, 1));
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
    let study = Study::run(cfg(ActorRoster::BASELINE, 1));
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
    let study = Study::run(cfg(ActorRoster::NONE, 1));
    let report = study.telescope.as_ref().expect("telescope ran");
    assert_eq!(report.matched_packets, 0);
    assert_eq!(report.unmatched_packets, 0);
    let table = study.attribution.as_ref().expect("attribution ran");
    assert!(table.clusters.is_empty());
    assert_eq!(table.confusion.accuracy(), None);
}
