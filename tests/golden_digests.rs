//! Golden digests: each configuration runs once and its
//! [`Study::digest`] is compared with the committed
//! `tests/golden/digests.json`, instead of running a second
//! implementation next to it.
//!
//! The goldens were captured from the *materialized* world backend on
//! the last commit that had one; they are what pins the procedural
//! world to the deleted oracle's output. A golden is by definition
//! shard-independent, so the `tiny` cases assert it at 1 and 4 shards.
//!
//! `BLESS=1 cargo test --test golden_digests` rewrites the file; a PR
//! that does so says why in CHANGES.md.

use netsim::time::Duration;
use std::collections::BTreeMap;
use std::sync::Mutex;
use store::codec::fnv1a;
use telemetry::json::{self, Json};
use timetoscan::{FaultProfile, Study, StudyConfig, StudyDigest};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.json");

/// Serializes the read-modify-write of the golden file between the
/// test threads of this binary under `BLESS=1`.
static GOLDEN_FILE: Mutex<()> = Mutex::new(());

type Goldens = BTreeMap<String, BTreeMap<String, String>>;

fn load() -> Goldens {
    let Ok(text) = std::fs::read_to_string(GOLDEN) else {
        return Goldens::new();
    };
    let doc = json::parse(&text).expect("tests/golden/digests.json is not JSON");
    let halves = |v: &Json| {
        let obj = v.as_obj().expect("a golden is an object");
        obj.iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("a string").to_owned()))
            .collect()
    };
    let obj = doc.as_obj().expect("the golden file is an object");
    obj.iter().map(|(k, v)| (k.clone(), halves(v))).collect()
}

/// One golden per line, keys sorted: a re-bless diffs line by line.
fn store(goldens: &Goldens) {
    let lines: Vec<String> = goldens
        .iter()
        .map(|(key, halves)| {
            let fields: Vec<String> = halves
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v}\""))
                .collect();
            format!("  \"{key}\": {{{}}}", fields.join(", "))
        })
        .collect();
    std::fs::write(GOLDEN, format!("{{\n{}\n}}\n", lines.join(",\n"))).unwrap();
}

fn halves_of(d: StudyDigest) -> BTreeMap<String, String> {
    [
        ("combined", d.combined),
        ("report", d.report),
        ("tables", d.tables),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), format!("{v:016x}")))
    .collect()
}

/// Holds every `(label, value)` in `runs` to the one golden under `key`
/// (`BLESS=1` first replaces that golden with the first run's value).
fn check_golden(key: &str, runs: &[(String, BTreeMap<String, String>)]) {
    let _guard = GOLDEN_FILE.lock().unwrap();
    let mut goldens = load();
    if std::env::var_os("BLESS").is_some() {
        goldens.insert(key.to_owned(), runs[0].1.clone());
        store(&goldens);
    }
    let want = goldens
        .get(key)
        .unwrap_or_else(|| panic!("no golden for {key}; run with BLESS=1"));
    for (label, got) in runs {
        let moved: Vec<&String> = got.keys().filter(|k| got.get(*k) != want.get(*k)).collect();
        assert!(
            got == want,
            "{key} at {label}: {moved:?} moved\n got {got:?}\nwant {want:?}"
        );
    }
}

/// Runs `config` once per shard count and holds every run to the one
/// golden under `key`.
fn assert_golden(key: &str, config: StudyConfig, shard_counts: &[usize]) {
    let runs: Vec<(String, BTreeMap<String, String>)> = shard_counts
        .iter()
        .map(|&shards| {
            let study = Study::run(config.clone().with_collection_shards(shards));
            (format!("{shards} shard(s)"), halves_of(study.digest()))
        })
        .collect();
    check_golden(key, &runs);
}

#[test]
fn tiny_ideal_matches_its_golden_at_1_and_4_shards() {
    assert_golden("tiny/23/ideal", StudyConfig::tiny(23), &[1, 4]);
}

#[test]
fn tiny_lossy_matches_its_golden_at_1_and_4_shards() {
    let config = StudyConfig::tiny(23).with_fault(FaultProfile::Lossy1Pct);
    assert_golden("tiny/23/lossy_1pct", config, &[1, 4]);
}

#[test]
fn small_matches_its_golden() {
    assert_golden("small/42/ideal", StudyConfig::small(42), &[1]);
}

/// The checkpoint file is a format other builds must read back, so its
/// bytes are pinned too: length and FNV-1a of the `study.ckpt` a
/// three-day `tiny` prefix writes, per shard count (the shard section
/// differs). Captured at e66004c, before the collector and the session
/// were reshaped; a layout change re-blesses these together with a
/// `checkpoint::VERSION` bump, never on its own.
#[test]
fn tiny_checkpoint_bytes_match_their_goldens_at_1_2_and_4_shards() {
    for shards in [1usize, 2, 4] {
        let dir = std::env::temp_dir().join(format!("golden-ckpt-{shards}-{}", std::process::id()));
        let config = StudyConfig::tiny(23).with_collection_shards(shards);
        let path = Study::checkpoint(config, Duration::days(3), &dir).expect("checkpoint writes");
        let bytes = std::fs::read(path).expect("checkpoint reads");
        std::fs::remove_dir_all(&dir).ok();
        let got = [
            ("bytes", bytes.len().to_string()),
            ("fnv1a", format!("{:016x}", fnv1a(&bytes))),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        check_golden(
            &format!("ckpt/tiny/23/3d/{shards}"),
            &[("the written file".to_owned(), got)],
        );
    }
}
