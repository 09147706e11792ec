//! Golden digests: each configuration runs once and its
//! [`Study::digest`] is compared with the committed
//! `tests/golden/digests.json` (see `tests/golden/mod.rs`), instead of
//! running a second implementation next to it.

mod golden;

use netsim::time::Duration;
use store::codec::fnv1a;
use timetoscan::{FaultProfile, Study, StudyConfig};

#[test]
fn tiny_ideal_matches_its_golden_at_1_and_4_shards() {
    golden::check_study("tiny/23/ideal", &Study::run(StudyConfig::tiny(23)));
}

#[test]
fn tiny_lossy_matches_its_golden_at_1_and_4_shards() {
    let config = StudyConfig::tiny(23).with_fault(FaultProfile::Lossy1Pct);
    golden::check_study("tiny/23/lossy_1pct", &Study::run(config));
}

#[test]
fn small_matches_its_golden() {
    golden::check_study("small/42/ideal", &Study::run(StudyConfig::small(42)));
}

/// The checkpoint file is a format other builds must read back, so its
/// bytes are pinned too: length and FNV-1a of the `study.ckpt` a
/// three-day `tiny` prefix writes. A layout change re-blesses this
/// together with a `checkpoint::VERSION` bump, never on its own (v8:
/// the shard count left the config block and the shard section went).
#[test]
fn tiny_checkpoint_bytes_match_their_goldens_at_1_2_and_4_shards() {
    let dir = std::env::temp_dir().join(format!("golden-ckpt-{}", std::process::id()));
    let path = Study::checkpoint(StudyConfig::tiny(23), Duration::days(3), &dir)
        .expect("checkpoint writes");
    let bytes = std::fs::read(path).expect("checkpoint reads");
    std::fs::remove_dir_all(&dir).ok();
    let got = [
        ("bytes", bytes.len().to_string()),
        ("fnv1a", format!("{:016x}", fnv1a(&bytes))),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    golden::check_golden("ckpt/tiny/23/3d", &got);
}

/// Every golden in the file is one a test asks for: a key that lost its
/// test (a retired configuration, a renamed key) fails here until it is
/// deleted or re-blessed away.
#[test]
fn golden_file_holds_no_key_no_test_asks_for() {
    let unclaimed: Vec<String> = golden::load()
        .into_keys()
        .filter(|k| !golden::KEYS.contains(&k.as_str()))
        .collect();
    assert!(unclaimed.is_empty(), "stale goldens: {unclaimed:?}");
}
