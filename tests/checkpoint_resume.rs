//! Checkpoint/resume equivalence: a study checkpointed mid-collection
//! and resumed from disk must be **bit-identical** to an uninterrupted
//! run — same first-sight feed, same `RunStats`, same collected set,
//! and a byte-identical canonical-JSON run report — across fault
//! profiles.

use netsim::time::Duration;
use netsim::transport::FaultProfile;
use netsim::DeviceId;
use timetoscan::{checkpoint, StoreError, Study, StudyConfig};

const SEED: u64 = 31;
const FAULTS: [FaultProfile; 2] = [FaultProfile::Ideal, FaultProfile::Lossy1Pct];

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ttscan-ckpt-{tag}-{}", std::process::id()))
}

/// Per fault profile: checkpoint at half the window, resume, and compare
/// every observable against the uninterrupted run of the same config.
#[test]
fn resume_matches_uninterrupted_across_modes_shards_faults() {
    for fault in FAULTS {
        let cfg = StudyConfig::tiny(SEED).with_fault(fault);
        let half = Duration::secs(cfg.collection.as_secs() / 2);
        let tag = fault.name();
        let dir = ckpt_dir(tag);
        Study::checkpoint(cfg.clone(), half, &dir).expect("checkpoint writes");
        let resumed = Study::resume(&dir).expect("checkpoint resumes");
        let baseline = Study::run(cfg);
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(resumed.feed, baseline.feed, "feed diverged [{tag}]");
        assert_eq!(
            resumed.run_stats, baseline.run_stats,
            "run stats diverged [{tag}]"
        );
        assert_eq!(
            resumed.collector.global().len(),
            baseline.collector.global().len(),
            "collected set diverged [{tag}]"
        );
        assert_eq!(
            resumed.ntp_scan.records().len(),
            baseline.ntp_scan.records().len(),
            "scan records diverged [{tag}]"
        );
        assert_eq!(
            resumed.run_report().to_json(),
            baseline.run_report().to_json(),
            "run report diverged [{tag}]"
        );
    }
}

/// A checkpoint taken past the end of the window clamps: resuming is a
/// no-op replay and still matches the plain run.
#[test]
fn checkpoint_past_end_clamps() {
    let cfg = StudyConfig::tiny(SEED + 1);
    let dir = ckpt_dir("clamp");
    let beyond = Duration::secs(cfg.collection.as_secs() * 3);
    Study::checkpoint(cfg.clone(), beyond, &dir).expect("checkpoint writes");
    let resumed = Study::resume(&dir).expect("checkpoint resumes");
    let baseline = Study::run(cfg);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(resumed.feed, baseline.feed);
    assert_eq!(
        resumed.run_report().to_json(),
        baseline.run_report().to_json()
    );
}

/// Resuming from a directory with no checkpoint is a typed error.
#[test]
fn resume_missing_checkpoint_is_io_error() {
    let dir = ckpt_dir("missing");
    std::fs::remove_dir_all(&dir).ok();
    let err = Study::resume(&dir).err().expect("resume must fail");
    assert!(matches!(err, StoreError::Io(_)), "{err:?}");
}

/// A sealed, well-formed checkpoint whose engine state does not fit the
/// pool and world its own config rebuilds — an RPS table shorter than
/// the pool, a pending event for a device past the world — is a typed
/// [`StoreError::Corrupt`] on resume, never an index panic in the poll
/// loop.
#[test]
fn resume_rejects_engine_state_that_does_not_fit_pool_or_world() {
    let cfg = StudyConfig::tiny(SEED + 2);
    let half = Duration::secs(cfg.collection.as_secs() / 2);
    let dir = ckpt_dir("unfit");
    Study::checkpoint(cfg, half, &dir).expect("checkpoint writes");

    let mut data = checkpoint::read(&dir).expect("clean checkpoint reads");
    let slot = data.collection.rps.pop().expect("pool has servers");
    checkpoint::write(&data, &dir).expect("tampered checkpoint writes");
    match Study::resume(&dir) {
        Err(StoreError::Corrupt(_)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("short rps table resumed"),
    }

    data.collection.rps.push(slot);
    data.collection.pending[0].1 = DeviceId(u32::MAX);
    checkpoint::write(&data, &dir).expect("tampered checkpoint writes");
    match Study::resume(&dir) {
        Err(StoreError::Corrupt(_)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("out-of-world pending event resumed"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
