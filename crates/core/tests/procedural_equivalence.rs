//! The procedural world backend is an exact stand-in for the
//! materialized one: on a shared config, every combination of shard
//! count and fault profile produces **byte-identical**
//! first-sight feeds, run statistics, and canonical JSON run reports
//! regardless of which backend derived the devices.
//!
//! This is the acceptance test for the on-demand world refactor: the
//! materialized table is kept purely as an equivalence oracle, and this
//! matrix pins the two backends together across the engine variants
//! that exercise different traversal orders and RNG interleavings.

use netsim::transport::FaultProfile;
use netsim::world::WorldBackend;
use timetoscan::{Study, StudyConfig};

/// Run the shared tiny config once per backend with the given engine
/// knobs and require bit-identical outputs.
fn assert_backends_agree(shards: usize, fault: FaultProfile) {
    let base = StudyConfig::tiny(23)
        .with_collection_shards(shards)
        .with_fault(fault);

    let mut materialized_cfg = base.clone();
    materialized_cfg.world.backend = WorldBackend::Materialized;
    let mut procedural_cfg = base;
    procedural_cfg.world.backend = WorldBackend::Procedural;

    let materialized = Study::run(materialized_cfg);
    let procedural = Study::run(procedural_cfg);

    let tag = format!("shards={shards} fault={fault:?}");
    assert_eq!(
        materialized.feed, procedural.feed,
        "first-sight feed diverged ({tag})"
    );
    assert_eq!(
        materialized.run_stats, procedural.run_stats,
        "run stats diverged ({tag})"
    );
    assert_eq!(
        materialized.run_report().to_json(),
        procedural.run_report().to_json(),
        "canonical run report diverged ({tag})"
    );
}

#[test]
fn flat_ideal() {
    assert_backends_agree(1, FaultProfile::Ideal);
}

#[test]
fn flat_lossy() {
    assert_backends_agree(1, FaultProfile::Lossy1Pct);
}

#[test]
fn sharded_ideal() {
    assert_backends_agree(4, FaultProfile::Ideal);
}

#[test]
fn sharded_lossy() {
    assert_backends_agree(4, FaultProfile::Lossy1Pct);
}
