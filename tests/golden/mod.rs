//! The committed goldens (`digests.json`) and the one way a Tier-1 test
//! holds a value to them. Included as `mod golden;` by every suite that
//! does: a configuration runs once and is compared with its golden,
//! instead of running a second time next to itself.
//!
//! The `tiny/23/*` and `small/42/*` study goldens were captured from the
//! *materialized* world backend on the last commit that had one, and
//! every study golden was checked at 1 and 4 collection shards on the
//! last commit that had a sharded loop; they are what pins the
//! procedural world and the one poll loop to the deleted code's output.
//!
//! `BLESS=1 cargo test --test <suite>` rewrites the goldens that suite
//! asks for and drops any key [`KEYS`] does not list; a PR that does so
//! says why in CHANGES.md.

use std::collections::BTreeMap;
use std::sync::Mutex;
use telemetry::json::{self, Json};
use timetoscan::Study;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/digests.json");

/// Every key a test asks for. [`check_golden`] refuses any other, and
/// `golden_digests::golden_file_holds_no_key_no_test_asks_for` refuses a
/// file holding one, so a re-bless cannot leave a stale golden behind.
pub const KEYS: [&str; 9] = [
    "ckpt/tiny/23/3d",
    "small/42/ideal",
    "tiny/23/congested",
    "tiny/23/ideal",
    "tiny/23/lossy_1pct",
    "tiny/31/ideal/all",
    "tiny/31/ideal/baseline",
    "tiny/31/ideal/none",
    "tiny/31/lossy_1pct/all",
];

/// Serializes the read-modify-write of the golden file between the
/// test threads of one binary under `BLESS=1`.
static GOLDEN_FILE: Mutex<()> = Mutex::new(());

/// One golden: named hex or decimal fields.
pub type Golden = BTreeMap<String, String>;

pub fn load() -> BTreeMap<String, Golden> {
    let Ok(text) = std::fs::read_to_string(GOLDEN) else {
        return BTreeMap::new();
    };
    let doc = json::parse(&text).expect("tests/golden/digests.json is not JSON");
    let fields = |v: &Json| {
        let obj = v.as_obj().expect("a golden is an object");
        obj.iter()
            .map(|(k, v)| (k.clone(), v.as_str().expect("a string").to_owned()))
            .collect()
    };
    let obj = doc.as_obj().expect("the golden file is an object");
    obj.iter().map(|(k, v)| (k.clone(), fields(v))).collect()
}

/// One golden per line, keys sorted: a re-bless diffs line by line.
fn store(goldens: &BTreeMap<String, Golden>) {
    let lines: Vec<String> = goldens
        .iter()
        .map(|(key, golden)| {
            let fields: Vec<String> = golden
                .iter()
                .map(|(k, v)| format!("\"{k}\": \"{v}\""))
                .collect();
            format!("  \"{key}\": {{{}}}", fields.join(", "))
        })
        .collect();
    std::fs::write(GOLDEN, format!("{{\n{}\n}}\n", lines.join(",\n"))).unwrap();
}

/// Holds `got` to the golden under `key` (`BLESS=1` first replaces that
/// golden with `got`).
pub fn check_golden(key: &str, got: &Golden) {
    assert!(KEYS.contains(&key), "{key} is missing from golden::KEYS");
    let _guard = GOLDEN_FILE.lock().unwrap();
    let mut goldens = load();
    if std::env::var_os("BLESS").is_some() {
        goldens.insert(key.to_owned(), got.clone());
        goldens.retain(|k, _| KEYS.contains(&k.as_str()));
        store(&goldens);
    }
    let want = goldens
        .get(key)
        .unwrap_or_else(|| panic!("no golden for {key}; run with BLESS=1"));
    let moved: Vec<&String> = got.keys().filter(|k| got.get(*k) != want.get(*k)).collect();
    assert!(
        got == want,
        "{key}: {moved:?} moved\n got {got:?}\nwant {want:?}"
    );
}

/// Holds a finished study's [`Study::digest`] — run report, rendered
/// tables, and both together — to the golden under `key`.
pub fn check_study(key: &str, study: &Study) {
    let d = study.digest();
    let got = [
        ("combined", d.combined),
        ("report", d.report),
        ("tables", d.tables),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), format!("{v:016x}")))
    .collect();
    check_golden(key, &got);
}
