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

use std::collections::BTreeMap;
use std::sync::Mutex;
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
            .map(|(k, v)| (k.clone(), v.as_str().expect("hex string").to_owned()))
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

/// Runs `config` once per shard count and holds every run to the one
/// golden under `key`.
fn assert_golden(key: &str, config: StudyConfig, shard_counts: &[usize]) {
    let runs: Vec<(usize, BTreeMap<String, String>)> = shard_counts
        .iter()
        .map(|&shards| {
            let study = Study::run(config.clone().with_collection_shards(shards));
            (shards, halves_of(study.digest()))
        })
        .collect();
    let _guard = GOLDEN_FILE.lock().unwrap();
    let mut goldens = load();
    if std::env::var_os("BLESS").is_some() {
        goldens.insert(key.to_owned(), runs[0].1.clone());
        store(&goldens);
    }
    let want = goldens
        .get(key)
        .unwrap_or_else(|| panic!("no golden for {key}; run with BLESS=1"));
    for (shards, got) in &runs {
        let moved: Vec<&str> = ["report", "tables"]
            .into_iter()
            .filter(|half| got[*half] != want[*half])
            .collect();
        assert!(
            got == want,
            "{key} at {shards} shard(s): {moved:?} moved\n got {got:?}\nwant {want:?}"
        );
    }
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
