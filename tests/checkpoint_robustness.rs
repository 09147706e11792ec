//! Robustness of the v8 checkpoint file: whatever happens to the bytes
//! of a valid `study.ckpt` — cut short, a byte flipped, a byte flipped
//! and the seal recomputed, a write interrupted half way — reading it
//! back is a typed [`StoreError`] or a usable value, never a panic,
//! and never the loss of the previous good checkpoint.

use netsim::time::{Duration, SimTime};
use netsim::world::World;
use std::net::Ipv6Addr;
use std::path::PathBuf;
use std::sync::Arc;
use store::codec::fnv1a;
use telemetry::Histogram;
use timetoscan::checkpoint::{self, CHECKPOINT_FILE};
use timetoscan::{StoreError, Study, StudyConfig, StudySession};

const SEED: u64 = 37;

/// Magic (8) + version (2): where the encoded `StudyConfig` starts.
const CONFIG_START: usize = 10;

/// The config is 50 bytes of world and 39 of study: up to here every
/// byte is a field of its own. [`Fixture::new`] checks the offset
/// against the file.
const CONFIG_END: usize = CONFIG_START + 50 + 39;

fn config() -> StudyConfig {
    StudyConfig::tiny(SEED)
}

/// One checkpoint ten minutes into the window — every section is
/// populated, and the file is small enough to mutate at every offset.
struct Fixture {
    dir: PathBuf,
    clean: Vec<u8>,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("ttscan-robust-{tag}-{}", std::process::id()));
        let path = Study::checkpoint(config(), Duration::mins(10), &dir).expect("writes");
        let clean = std::fs::read(path).expect("reads");
        let data = checkpoint::read(&dir).expect("clean checkpoint decodes");
        assert!(!data.feed_prefix.is_empty());
        assert_eq!(
            clean[CONFIG_END..][..8],
            data.collection.cursor.0.to_le_bytes(),
            "the collection section starts where the config ends"
        );
        Fixture { dir, clean }
    }

    /// Replaces the checkpoint file with `bytes` and reads it back.
    fn read(&self, bytes: &[u8]) -> Result<checkpoint::CheckpointData, StoreError> {
        std::fs::write(self.dir.join(CHECKPOINT_FILE), bytes).expect("test file writes");
        checkpoint::read(&self.dir)
    }
}

/// Recomputes the trailing seal over mutated payload bytes.
fn reseal(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let seal = fnv1a(&bytes[..payload_len]).to_le_bytes();
    bytes[payload_len..].copy_from_slice(&seal);
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn truncation_at_every_length_is_a_typed_error() {
    let fx = Fixture::new("cut");
    for cut in 0..fx.clean.len() {
        assert!(
            fx.read(&fx.clean[..cut]).is_err(),
            "truncation to {cut} bytes decoded"
        );
    }
}

#[test]
fn any_flipped_byte_fails_the_seal() {
    let fx = Fixture::new("flip");
    let mut bytes = fx.clean.clone();
    for i in 0..bytes.len() {
        bytes[i] ^= 0x20;
        assert!(
            matches!(fx.read(&bytes), Err(StoreError::Checksum(_))),
            "flip at {i} undetected"
        );
        bytes[i] ^= 0x20;
    }
}

/// With the seal recomputed only the decoder and the session's own
/// checks stand between a mutated field and the engine: each must
/// answer with a value or a typed error. Restoring goes over the
/// world of the *original* config, as the service does for an evicted
/// study — a file that now names another world is refused, not run.
#[test]
fn resealed_mutations_decode_or_fail_typed() {
    let fx = Fixture::new("reseal");
    let world = Arc::new(World::generate(config().world));
    let payload_len = fx.clean.len() - 8;
    let mut bytes = fx.clean.clone();
    let (mut restored, mut refused) = (0, 0);
    for i in (0..CONFIG_END).chain((CONFIG_END..payload_len).step_by(101)) {
        for mask in [0x01u8, 0x80, 0xff] {
            bytes[i] ^= mask;
            reseal(&mut bytes);
            if let Ok(data) = fx.read(&bytes) {
                match StudySession::from_checkpoint(data, Arc::clone(&world)) {
                    Ok(_) => restored += 1,
                    Err(_) => refused += 1,
                }
            }
            bytes[i] ^= mask;
        }
    }
    // Both outcomes occur: a flipped seed names another world, a
    // flipped sample count is a different but runnable study.
    assert!(restored > 0 && refused > 0, "{restored} / {refused}");
}

/// A re-sealed file whose *world* sizes were pushed past what
/// `World::generate` can lay out is refused at decode — the typed
/// error comes back before `Study::resume` generates anything.
#[test]
fn resealed_world_fields_past_their_bounds_are_refused() {
    let fx = Fixture::new("world");
    let world = config().world;
    // Offsets of the `u32` size fields inside the encoded world, which
    // opens with the `u64` seed.
    let [households, servers, routers, eyeball_ases, hosting_ases, nsp_ases] =
        [8, 12, 16, 20, 24, 28].map(|o| CONFIG_START + o);
    let sntp_iot_pct = CONFIG_START + 49;
    let u32s = |fields: &[(usize, u32)]| -> Vec<(usize, Vec<u8>)> {
        fields
            .iter()
            .map(|&(at, v)| (at, v.to_le_bytes().to_vec()))
            .collect()
    };
    let cases = [
        // More than its ASes can hold (12 000 households, 4 × 65 536
        // static hosts per AS), up to a count no world could.
        u32s(&[(households, world.eyeball_ases * 12_000 + 1)]),
        u32s(&[(households, u32::MAX)]),
        u32s(&[(servers, world.hosting_ases * (4 << 16) + 1)]),
        u32s(&[(routers, world.nsp_ases * (4 << 16) + 1)]),
        // No AS for a population to live in.
        u32s(&[(eyeball_ases, 0)]),
        u32s(&[(hosting_ases, 0)]),
        u32s(&[(nsp_ases, 0)]),
        // An AS range that runs into the next type's allocations.
        u32s(&[(eyeball_ases, (1 << 16) + 1)]),
        u32s(&[(hosting_ases, (1 << 16) + 1)]),
        u32s(&[(nsp_ases, u32::MAX)]),
        // Within every per-AS cap, but device ids overflow 32 bits.
        u32s(&[(eyeball_ases, 1 << 16), (households, 600_000_000)]),
        vec![(sntp_iot_pct, vec![101])],
    ];
    for case in &cases {
        let mut bytes = fx.clean.clone();
        for (at, value) in case {
            bytes[*at..][..value.len()].copy_from_slice(value);
        }
        reseal(&mut bytes);
        assert!(
            matches!(fx.read(&bytes), Err(StoreError::Corrupt(_))),
            "{case:?} decoded"
        );
        assert!(matches!(
            Study::resume(&fx.dir),
            Err(StoreError::Corrupt(_))
        ));
    }
    // The same edit inside the bounds is a different, readable world.
    let mut bytes = fx.clean.clone();
    bytes[households..][..4].copy_from_slice(&(world.households + 1).to_le_bytes());
    reseal(&mut bytes);
    let data = fx.read(&bytes).expect("in-bounds world decodes");
    assert_eq!(data.config.world.households, world.households + 1);
}

/// A write that died before its rename leaves a scratch file behind —
/// whole, cut short, or garbage. The checkpoint next to it still reads
/// and resumes as the state it held, and the next successful write
/// clears the scratch file away.
#[test]
fn interrupted_write_keeps_the_previous_checkpoint() {
    let fx = Fixture::new("torn");
    let tmp = fx.dir.join("study.ckpt.tmp");
    let old = checkpoint::read(&fx.dir).expect("reads");
    let baseline = Study::run(config()).run_report().to_json();

    // The state a later write of the same study would have held.
    let later_dir = fx.dir.join("later");
    let later_path = Study::checkpoint(config(), Duration::hours(5), &later_dir).expect("writes");
    let later_bytes = std::fs::read(later_path).expect("reads");
    let later = checkpoint::read(&later_dir).expect("reads");

    for leftover in [
        &later_bytes[..],
        &later_bytes[..later_bytes.len() / 2],
        b"not a checkpoint",
    ] {
        std::fs::write(&tmp, leftover).expect("test file writes");
        let back = checkpoint::read(&fx.dir).expect("the old checkpoint still reads");
        assert_eq!(back.collection.cursor, old.collection.cursor);
        assert_eq!(back.feed_prefix, old.feed_prefix);
        let resumed = Study::resume(&fx.dir).expect("the old checkpoint still resumes");
        assert_eq!(resumed.run_report().to_json(), baseline);
    }

    checkpoint::write(&later, &fx.dir).expect("writes over the leftover");
    assert!(!tmp.exists(), "a finished write left its scratch file");
    let back = checkpoint::read(&fx.dir).expect("reads");
    assert_eq!(back.collection.cursor, later.collection.cursor);
    assert_eq!(back.feed_prefix, later.feed_prefix);
}

/// Three things a sealed file is not taken at its word for. The
/// collector binary-searches its per-server tables, so `read` refuses
/// any that are not strictly ascending by server id; it skips the
/// global archive on a server's own re-sight, so `read` refuses a
/// per-server set holding an address the global set lacks (that
/// address would never be fed); and every run is a
/// session over the window its config spans, so `from_checkpoint`
/// refuses a cursor outside it (past the end it would finish a study
/// that skipped the rest of its collection). Each edit is made on the
/// decoded state and written back, sealed, so only the check under
/// test can object.
#[test]
fn resealed_unsorted_server_tables_and_stray_cursors_are_refused() {
    let fx = Fixture::new("order");
    let world = Arc::new(World::generate(config().world));
    type Edit<'a> = &'a dyn Fn(&mut checkpoint::CheckpointData);
    let rewrite = |edit: Edit| {
        let mut data = fx.read(&fx.clean).expect("clean checkpoint decodes");
        edit(&mut data);
        checkpoint::write(&data, &fx.dir).expect("edited checkpoint writes");
        checkpoint::read(&fx.dir)
    };
    let clean = rewrite(&|_| {}).expect("an unedited rewrite decodes");
    assert!(clean.collector.per_server.len() >= 2 && clean.collector.requests.len() >= 2);

    let tables: [(&str, Edit); 4] = [
        ("one server twice", &|d| {
            d.collector.per_server[1].0 = d.collector.per_server[0].0;
        }),
        ("sets descending", &|d| d.collector.per_server.swap(0, 1)),
        ("counts descending", &|d| d.collector.requests.swap(0, 1)),
        ("a per-server address the global set lacks", &|d| {
            d.collector.per_server[0].1.insert(Ipv6Addr::LOCALHOST);
        }),
    ];
    for (what, edit) in tables {
        assert!(
            matches!(rewrite(edit), Err(StoreError::Corrupt(_))),
            "{what}: decoded"
        );
        assert!(
            matches!(Study::resume(&fx.dir), Err(StoreError::Corrupt(_))),
            "{what}: resumed"
        );
    }

    let (start, end) = StudySession::from_checkpoint(clean, Arc::clone(&world))
        .expect("the clean checkpoint restores")
        .window();
    for (cursor, inside) in [
        (start, true),
        (end, true),
        (SimTime(start.0 - 1), false),
        (SimTime(end.0 + 1), false),
        (SimTime(u64::MAX), false),
    ] {
        let data = rewrite(&|d| d.collection.cursor = cursor).expect("any cursor decodes");
        let restored = StudySession::from_checkpoint(data, Arc::clone(&world));
        match restored {
            Ok(session) => assert!(inside && session.cursor() == cursor, "{cursor} restored"),
            Err(e) => assert!(
                !inside && matches!(e, StoreError::Corrupt(_)),
                "{cursor}: {e}"
            ),
        }
        if !inside {
            assert!(matches!(
                Study::resume(&fx.dir),
                Err(StoreError::Corrupt(_))
            ));
        }
    }
}

/// The collection queue numbers a client's polls in 32 bits: a
/// re-sealed pending poll whose number, or its follow-up's, does not
/// fit is [`StoreError::Corrupt`] at restore and at resume, never a
/// panic in the poll loop. One below that restores.
#[test]
fn resealed_poll_numbers_past_the_queue_are_refused() {
    let fx = Fixture::new("seq");
    let world = Arc::new(World::generate(config().world));
    let rewrite = |seq: u64| {
        let mut data = fx.read(&fx.clean).expect("clean checkpoint decodes");
        assert!(!data.collection.pending.is_empty());
        data.collection.pending[0].2 = seq;
        checkpoint::write(&data, &fx.dir).expect("edited checkpoint writes");
        checkpoint::read(&fx.dir).expect("any poll number decodes")
    };
    let max = u64::from(u32::MAX);
    for (seq, restores) in [
        (max - 1, true),
        (max, false),
        (max + 1, false),
        (u64::MAX, false),
    ] {
        let restored = StudySession::from_checkpoint(rewrite(seq), Arc::clone(&world));
        match restored {
            Ok(_) => assert!(restores, "poll {seq} restored"),
            Err(e) => {
                assert!(
                    !restores && matches!(e, StoreError::Corrupt(_)),
                    "{seq}: {e}"
                );
                assert!(
                    matches!(Study::resume(&fx.dir), Err(StoreError::Corrupt(_))),
                    "poll {seq}: resumed"
                );
            }
        }
    }
}

/// A histogram's bucket indexes are not taken at their word either: a
/// re-sealed KoD-backoff histogram that names bucket 65 (there are 65,
/// numbered from 0) or gives one index twice is
/// [`StoreError::Corrupt`], while moving an index to another free bucket
/// is a different but readable histogram.
#[test]
fn resealed_histogram_buckets_out_of_range_or_repeated_are_refused() {
    let fx = Fixture::new("hist");
    let mut data = fx.read(&fx.clean).expect("clean checkpoint decodes");
    let mut kod = Histogram::new();
    kod.observe(4);
    kod.observe(900);
    data.collection.kod_backoff = kod;
    let path = checkpoint::write(&data, &fx.dir).expect("writes");
    let clean = std::fs::read(path).expect("reads");

    // The collection section: cursor, pending events (20 bytes each),
    // RPS slots (a tag byte, 16 more when occupied), five totals, then
    // the histogram's count, sum, min, max and bucket count before its
    // (index, count) pairs.
    let c = &data.collection;
    let rps: usize = c.rps.iter().map(|s| if s.is_some() { 17 } else { 1 }).sum();
    let hist = CONFIG_END + 8 + 8 + 20 * c.pending.len() + 8 + rps + 5 * 8;
    let first = hist + 8 + 16 + 8 + 8 + 8;
    let second = first + 16;
    assert_eq!(clean[hist..][..8], 2u64.to_le_bytes(), "count");
    assert_eq!(clean[first - 8..][..8], 2u64.to_le_bytes(), "two buckets");
    assert_eq!(clean[first..][..8], 3u64.to_le_bytes(), "bucket of 4");
    assert_eq!(clean[second..][..8], 10u64.to_le_bytes(), "bucket of 900");

    let edit = |at: usize, index: u64| {
        let mut bytes = clean.clone();
        bytes[at..][..8].copy_from_slice(&index.to_le_bytes());
        reseal(&mut bytes);
        fx.read(&bytes)
    };
    for (what, at, index) in [("bucket 65", first, 65), ("index 3 twice", second, 3)] {
        assert!(
            matches!(edit(at, index), Err(StoreError::Corrupt(_))),
            "{what}: decoded"
        );
        assert!(
            matches!(Study::resume(&fx.dir), Err(StoreError::Corrupt(_))),
            "{what}: resumed"
        );
    }
    let moved = edit(second, 64).expect("a free bucket decodes");
    assert_eq!(moved.collection.kod_backoff.bucket(64), 1);
    assert_eq!(moved.collection.kod_backoff.bucket(10), 0);
}
