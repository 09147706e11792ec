//! Golden digests: each configuration runs once and its
//! [`Study::digest`] is compared with the committed
//! `tests/golden/digests.json` (see `tests/golden/mod.rs`), instead of
//! running a second implementation next to it.

mod golden;

use hitlist::{Hitlist, HitlistConfig};
use netsim::time::Duration;
use netsim::World;
use store::codec::fnv1a;
use timetoscan::study::study_start;
use timetoscan::{FaultProfile, Study, StudyConfig};
use v6addr::AddrSet;

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

/// The hitlist itself, not only what the batch scan and Table 1 make of
/// it: the lengths and FNV-1a of the sorted `full` and `public` sets and
/// the aliased prefixes, at the two instants a study builds one — its
/// hitlist time, and its window start (the stale snapshot).
#[test]
fn hitlist_matches_its_golden() {
    let digest = |set: &AddrSet| {
        let bytes: Vec<u8> = set.sorted().iter().flat_map(|a| a.octets()).collect();
        format!("{:016x}", fnv1a(&bytes))
    };
    for (name, config) in [
        ("tiny/23", StudyConfig::tiny(23)),
        ("small/42", StudyConfig::small(42)),
    ] {
        let world = World::generate(config.world.clone());
        let start = study_start(&config);
        for (at, t) in [
            ("hitlist", start + config.hitlist_scan_offset),
            ("start", start),
        ] {
            let h = Hitlist::build(&world, t, &HitlistConfig::for_world(&world));
            let aliased: Vec<String> = h.aliased_prefixes.iter().map(|p| p.to_string()).collect();
            let got = [
                ("full", h.full.len().to_string()),
                ("full_fnv1a", digest(&h.full)),
                ("public", h.public.len().to_string()),
                ("public_fnv1a", digest(&h.public)),
                ("aliased", aliased.join(" ")),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
            golden::check_golden(&format!("hitlist/{name}/{at}"), &got);
        }
    }
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
