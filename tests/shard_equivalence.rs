//! What is left of the sharded-collection equivalence suite now that
//! there is one collection loop: each fault profile's `tiny` study is
//! held to its golden digest (goldens that were checked at 1, 2, 4 and 8
//! shards while a sharded loop existed), a checkpoint taken at an
//! instant off every grid resumes bit-identically, and a checkpoint
//! stamped with the last format that carried a shard section is refused
//! with the typed version error.

mod golden;

use netsim::time::Duration;
use netsim::transport::FaultProfile;
use store::codec::Writer;
use timetoscan::checkpoint::CHECKPOINT_FILE;
use timetoscan::{StoreError, Study, StudyConfig};

const SEED: u64 = 23;

fn ckpt_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ttscan-shard-{tag}-{}", std::process::id()))
}

fn config(fault: FaultProfile) -> StudyConfig {
    StudyConfig::tiny(SEED).with_fault(fault)
}

#[test]
fn study_run_report_is_shard_and_mode_invariant_ideal() {
    golden::check_study("tiny/23/ideal", &Study::run(config(FaultProfile::Ideal)));
}

#[test]
fn study_run_report_is_shard_and_mode_invariant_lossy() {
    let study = Study::run(config(FaultProfile::Lossy1Pct));
    golden::check_study("tiny/23/lossy_1pct", &study);
}

#[test]
fn study_run_report_is_shard_and_mode_invariant_congested() {
    let study = Study::run(config(FaultProfile::Congested));
    golden::check_study("tiny/23/congested", &study);
}

/// Resume at any instant: a run checkpointed half the window plus an
/// odd 13 s in — on no calendar-slot edge, poll interval or second a
/// slice scheduler would pick — and resumed from disk digests as the
/// uninterrupted run's golden.
#[test]
fn sharded_checkpoint_mid_bucket_resumes_bit_identically() {
    let cfg = config(FaultProfile::Lossy1Pct);
    let at = Duration::secs(cfg.collection.as_secs() / 2 + 13);
    let dir = ckpt_dir("midbucket");
    Study::checkpoint(cfg, at, &dir).expect("checkpoint writes");
    let resumed = Study::resume(&dir).expect("checkpoint resumes");
    std::fs::remove_dir_all(&dir).ok();
    golden::check_study("tiny/23/lossy_1pct", &resumed);
}

/// A v7 checkpoint carried the engine's shard count in its config block
/// and a per-shard section behind the transport totals; this build
/// reads neither. A file stamped 7 — otherwise intact and sealed — is
/// the typed [`StoreError::BadVersion`], never a mis-parse of the bytes
/// behind the header.
#[test]
fn resume_rejects_shard_count_mismatch_with_typed_error() {
    let cfg = config(FaultProfile::Ideal);
    let at = Duration::secs(cfg.collection.as_secs() / 2);
    let dir = ckpt_dir("mismatch");
    Study::checkpoint(cfg, at, &dir).expect("checkpoint writes");

    let path = dir.join(CHECKPOINT_FILE);
    let clean = std::fs::read(&path).expect("checkpoint reads");
    // Magic (8), then the little-endian version.
    let mut payload = clean[..clean.len() - 8].to_vec();
    payload[8..10].copy_from_slice(&7u16.to_le_bytes());
    let mut w = Writer::new();
    w.put_raw(&payload);
    w.seal();
    std::fs::write(&path, w.into_bytes()).expect("stamped checkpoint writes");
    match Study::resume(&dir) {
        Err(StoreError::BadVersion(7)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("a v7-stamped checkpoint resumed"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
