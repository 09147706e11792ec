//! Sharded-collection equivalence: the prefix-sharded engine
//! (`StudyConfig::collection_shards` ≥ 2) must be **bit-identical** to
//! the flat sequential engine — same first-sight feed in the same
//! order, same `RunStats`, same KoD-backoff histogram, and a
//! byte-identical canonical-JSON run report — across shard counts and
//! fault profiles. Shards move work across threads and merge
//! cross-shard state only at bucket boundaries; none of that may touch
//! a deterministic bit.
//!
//! Also covers the sharded checkpoint/resume path (including a stop
//! that lands mid-bucket, off the engine's bucket grid) and the typed
//! shard-count-mismatch error on resume.

use netsim::time::Duration;
use netsim::transport::FaultProfile;
use timetoscan::checkpoint;
use timetoscan::{StoreError, Study, StudyConfig};

const SEED: u64 = 23;
const SHARDS: [usize; 3] = [2, 4, 8];

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ttscan-shard-{tag}-{}", std::process::id()))
}

/// Runs a study per shard count and asserts everything deterministic
/// matches the flat sequential baseline.
fn assert_shard_equivalence(fault: FaultProfile) {
    let cfg = |shards: usize| {
        StudyConfig::tiny(SEED)
            .with_fault(fault)
            .with_collection_shards(shards)
    };
    let base = Study::run(cfg(1));
    let base_report = base.run_report().to_json();
    let base_det = base.telemetry.deterministic();
    for shards in SHARDS {
        let study = Study::run(cfg(shards));
        let ctx = format!("{} @ {shards} shards", fault.name());
        assert_eq!(study.feed, base.feed, "{ctx}: feed differs");
        assert_eq!(study.run_stats, base.run_stats, "{ctx}: stats differ");
        assert_eq!(
            study.ntp_scan.records(),
            base.ntp_scan.records(),
            "{ctx}: scan records differ"
        );
        assert_eq!(
            study.collector.global().len(),
            base.collector.global().len(),
            "{ctx}: collected set differs"
        );
        // The whole deterministic bank — poll counters and the
        // KoD-backoff histogram — matches; shard-dependent metrics
        // are confined to the volatile bank.
        assert_eq!(
            study.telemetry.deterministic(),
            base_det,
            "{ctx}: deterministic telemetry differs"
        );
        assert_eq!(
            study.run_report().to_json(),
            base_report,
            "{ctx}: run report differs"
        );
    }
}

#[test]
fn study_run_report_is_shard_and_mode_invariant_ideal() {
    assert_shard_equivalence(FaultProfile::Ideal);
}

#[test]
fn study_run_report_is_shard_and_mode_invariant_lossy() {
    assert_shard_equivalence(FaultProfile::Lossy1Pct);
}

#[test]
fn study_run_report_is_shard_and_mode_invariant_congested() {
    assert_shard_equivalence(FaultProfile::Congested);
}

/// A sharded run checkpointed at an instant that is *not* a bucket
/// boundary (half the window plus an odd 13 s) and resumed from disk is
/// bit-identical to the uninterrupted sharded run — and to the flat
/// baseline, by the invariance tests above.
#[test]
fn sharded_checkpoint_mid_bucket_resumes_bit_identically() {
    let cfg = StudyConfig::tiny(SEED)
        .with_fault(FaultProfile::Lossy1Pct)
        .with_collection_shards(4);
    let at = Duration::secs(cfg.collection.as_secs() / 2 + 13);
    let dir = ckpt_dir("midbucket");
    Study::checkpoint(cfg.clone(), at, &dir).expect("checkpoint writes");
    let resumed = Study::resume(&dir).expect("checkpoint resumes");
    let baseline = Study::run(cfg);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(resumed.feed, baseline.feed, "feed diverged");
    assert_eq!(resumed.run_stats, baseline.run_stats, "stats diverged");
    assert_eq!(
        resumed.collector.global().len(),
        baseline.collector.global().len(),
        "collected set diverged"
    );
    assert_eq!(
        resumed.run_report().to_json(),
        baseline.run_report().to_json(),
        "run report diverged"
    );
}

/// Resuming a checkpoint whose config was re-pointed at a different
/// shard count is a typed [`StoreError::ShardMismatch`] — never a panic
/// and never a silent re-homing of dedup state onto the wrong shards.
#[test]
fn resume_rejects_shard_count_mismatch_with_typed_error() {
    let cfg = StudyConfig::tiny(SEED)
        .with_fault(FaultProfile::Ideal)
        .with_collection_shards(4);
    let at = Duration::secs(cfg.collection.as_secs() / 2);
    let dir = ckpt_dir("mismatch");
    Study::checkpoint(cfg, at, &dir).expect("checkpoint writes");

    // Rewrite the same checkpoint claiming a different shard count; the
    // per-shard section still carries four archives.
    let mut data = checkpoint::read(&dir).expect("clean checkpoint reads");
    data.config.collection_shards = 2;
    checkpoint::write(&data, &dir).expect("tampered checkpoint writes");
    match Study::resume(&dir) {
        Err(StoreError::ShardMismatch { expected, found }) => {
            assert_eq!((expected, found), (2, 4));
        }
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("mismatched checkpoint resumed"),
    }

    // A flat config over a sharded section is equally rejected.
    data.config.collection_shards = 1;
    checkpoint::write(&data, &dir).expect("tampered checkpoint writes");
    assert!(matches!(
        Study::resume(&dir),
        Err(StoreError::ShardMismatch {
            expected: 1,
            found: 4
        })
    ));
    std::fs::remove_dir_all(&dir).ok();
}
