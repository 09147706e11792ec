//! Robustness of the v1 segment format: whatever happens to the bytes
//! of a valid segment — cut short, a byte flipped, a byte flipped and
//! every checksum recomputed, a whole file planted under another
//! content id — decoding it is a typed [`StoreError`] or a set that
//! works, never a panic; and a [`SegmentPool`] reading the same bytes
//! from its directory answers the same way.

use std::path::PathBuf;
use std::sync::Arc;
use store::codec::fnv1a;
use store::{segment, CompactSet, SegmentId, SegmentPool, StoreError};

/// Magic (8) + version (2) + block count (4) + address count (8).
const HEADER: usize = 22;
/// One fence-table entry: first (16), last (16), count (4), data
/// length (4), block FNV (8) — at these offsets inside it.
const FENCE: usize = 48;
const FENCE_DATA_LEN: usize = 36;
const FENCE_SUM: usize = 40;

/// Three blocks: the 256 even addresses from `::` (every delta the
/// single byte `0x02`), squares (multi-byte varints), and a last block
/// that ends on `ff..ff`, where one more overflows.
fn sample() -> CompactSet {
    let base = 0x2001_0db8_u128 << 96;
    (0..256u128)
        .map(|i| i * 2)
        .chain((0..344).map(|i| base | (i * i * 1000)))
        .chain([u128::MAX])
        .collect()
}

const BLOCKS: usize = 3;

/// Where block `i`'s bytes start in the clean encoding.
fn block_start(bytes: &[u8], i: usize) -> usize {
    let lens = (0..i).map(|b| u32_at(bytes, HEADER + FENCE * b + FENCE_DATA_LEN) as usize);
    HEADER + FENCE * BLOCKS + 8 + lens.sum::<usize>()
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..][..4].try_into().expect("four bytes"))
}

/// Recomputes the trailing seal over mutated payload bytes.
fn reseal(bytes: &mut [u8]) {
    let payload_len = bytes.len() - 8;
    let seal = fnv1a(&bytes[..payload_len]).to_le_bytes();
    bytes[payload_len..].copy_from_slice(&seal);
}

/// Recomputes every block checksum the (possibly mutated) fence table
/// still describes, then the seal: only the decode walk is left to
/// object.
fn reseal_blocks(bytes: &mut [u8]) {
    let mut start = block_start(bytes, 0);
    for fence in (0..BLOCKS).map(|b| HEADER + FENCE * b) {
        let len = u32_at(bytes, fence + FENCE_DATA_LEN) as usize;
        let Some(block) = bytes.get(start..start + len) else {
            break;
        };
        let sum = fnv1a(block).to_le_bytes();
        bytes[fence + FENCE_SUM..][..8].copy_from_slice(&sum);
        start += len;
    }
    reseal(bytes);
}

/// What a decoded set owes its holder, whatever bytes it came from:
/// strictly ascending iteration of `len` addresses it contains, and an
/// encoding that decodes to itself.
fn exercise(set: &CompactSet) {
    let addrs: Vec<u128> = set.iter_u128().collect();
    assert_eq!(addrs.len(), set.len());
    assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    assert!(addrs.iter().all(|&a| set.contains_u128(a)));
    let again = segment::decode(&segment::encode(set)).expect("a decoded set re-encodes");
    assert_eq!(again, *set);
}

/// A pool over a scratch directory, the clean encoding of [`sample`]
/// and the id it is frozen under.
struct Fixture {
    dir: PathBuf,
    pool: SegmentPool,
    clean: Vec<u8>,
    id: SegmentId,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!("ttscan-segment-{tag}-{}", std::process::id()));
        let pool = SegmentPool::new(&dir).expect("pool directory");
        let set = sample();
        let id = pool.freeze(&set).expect("freezes");
        let clean = segment::encode(&set);
        assert_eq!(id, SegmentId(fnv1a(&clean)));
        assert_eq!(u32_at(&clean, 10) as usize, BLOCKS);
        exercise(&segment::decode(&clean).expect("clean segment decodes"));
        Fixture {
            dir,
            pool,
            clean,
            id,
        }
    }

    /// Plants `bytes` as the file of segment `id` and opens it cold.
    fn open(&self, id: SegmentId, bytes: &[u8]) -> Result<Arc<CompactSet>, StoreError> {
        let file = self.dir.join(format!("{:016x}.seg", id.0));
        std::fs::write(file, bytes).expect("test file writes");
        self.pool.evict(id);
        self.pool.open(id)
    }
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
        let cut_short = &fx.clean[..cut];
        assert!(segment::decode(cut_short).is_err(), "{cut} bytes decoded");
        assert!(fx.open(fx.id, cut_short).is_err(), "{cut} bytes opened");
    }
    assert_eq!(*fx.open(fx.id, &fx.clean).expect("whole again"), sample());
}

#[test]
fn any_flipped_byte_fails_the_seal() {
    let fx = Fixture::new("flip");
    let mut bytes = fx.clean.clone();
    for i in 0..bytes.len() {
        bytes[i] ^= 0x20;
        assert!(
            matches!(
                segment::decode(&bytes),
                Err(StoreError::Checksum("segment"))
            ),
            "flip at {i} undetected"
        );
        assert!(
            matches!(fx.open(fx.id, &bytes), Err(StoreError::Checksum("segment"))),
            "flip at {i} opened"
        );
        bytes[i] ^= 0x20;
    }
}

/// With the seal recomputed the header parse and the per-block
/// checksums stand between a mutated byte and the iterators; with the
/// block checksums recomputed too, only the decode walk does. Either
/// way the answer is a typed error or a set that works — and the pool,
/// handed the same bytes under the id they now hash to, gives the
/// answer `decode` gave.
#[test]
fn resealed_mutations_decode_or_fail_typed() {
    let fx = Fixture::new("reseal");
    let payload_len = fx.clean.len() - 8;
    let mut refusals = std::collections::BTreeSet::new();
    for i in 0..payload_len {
        for mask in [0x01u8, 0x80, 0xff] {
            for fix in [reseal, reseal_blocks] {
                let mut bytes = fx.clean.clone();
                bytes[i] ^= mask;
                fix(&mut bytes);
                if bytes == fx.clean {
                    // A flipped block checksum, recomputed.
                    continue;
                }
                let decoded = segment::decode(&bytes);
                let opened = fx.open(SegmentId(fnv1a(&bytes)), &bytes);
                match (&decoded, &opened) {
                    (Ok(a), Ok(b)) => {
                        assert_eq!(*a, **b);
                        exercise(a);
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string());
                        refusals.insert(a.to_string());
                    }
                    _ => panic!("byte {i} ^ {mask:#x}: {decoded:?} decoded, {opened:?} opened"),
                }
                // Under the id of the clean bytes it is another segment.
                assert!(fx.open(fx.id, &bytes).is_err(), "byte {i} ^ {mask:#x}");
            }
        }
    }
    // The walk was reached, not just the header parse.
    for reached in [
        "checksum mismatch in segment block",
        "corrupt data: fence count out of range",
        "corrupt data: fence first disagrees with block",
        "corrupt data: fence last disagrees with block",
        "corrupt data: delta overflows address space",
        "corrupt data: length disagrees with blocks",
    ] {
        assert!(
            refusals.contains(reached),
            "{reached:?} not in {refusals:?}"
        );
    }
}

/// Edits a single flip cannot make, each sealed so that one check
/// alone can object to it.
#[test]
fn resealed_structural_lies_are_refused_by_the_check_that_owns_them() {
    let fx = Fixture::new("lies");
    let put = |bytes: &mut [u8], at: usize, value: &[u8]| {
        bytes[at..][..value.len()].copy_from_slice(value);
    };

    // One address of block 0 moved up by one, its two deltas still
    // summing to what they did: every structural check passes, and
    // only the block checksum knows.
    let mut moved = fx.clean.clone();
    let deltas = block_start(&moved, 0) + 16;
    assert_eq!(moved[deltas..][..2], [2, 2]);
    put(&mut moved, deltas, &[3, 1]);
    reseal(&mut moved);
    assert!(matches!(
        segment::decode(&moved),
        Err(StoreError::Checksum("segment block"))
    ));
    // With that checksum recomputed the bytes are a whole segment of
    // another set.
    reseal_blocks(&mut moved);
    let other = segment::decode(&moved).expect("a consistent segment decodes");
    exercise(&other);
    assert!(other.contains_u128(3) && !other.contains_u128(2));

    // The same address moved onto its successor.
    put(&mut moved, deltas, &[4, 0]);
    reseal_blocks(&mut moved);
    assert!(matches!(
        segment::decode(&moved),
        Err(StoreError::Corrupt("zero delta"))
    ));

    // Block 1 starting where block 0 does — in its fence and its data.
    let mut unordered = fx.clean.clone();
    let first = [0u8; 16];
    put(&mut unordered, HEADER + FENCE, &first);
    let at = block_start(&unordered, 1);
    put(&mut unordered, at, &first);
    reseal_blocks(&mut unordered);
    assert!(matches!(
        segment::decode(&unordered),
        Err(StoreError::Corrupt("blocks out of order"))
    ));
}

/// The pool revalidates an id against its bytes: a whole, sealed
/// segment of *other* content under `<id>.seg` is refused, an id with
/// no file is an i/o error, and neither leaves anything resident.
#[test]
fn a_segment_under_another_id_and_a_missing_file_are_refused() {
    let fx = Fixture::new("id");
    let other: CompactSet = (0..600u128).map(|i| i * 7).collect();
    let other_bytes = segment::encode(&other);
    assert!(matches!(
        fx.open(fx.id, &other_bytes),
        Err(StoreError::Checksum("segment id"))
    ));
    // Under its own id the same file opens.
    let own = SegmentId(fnv1a(&other_bytes));
    assert_eq!(*fx.open(own, &other_bytes).expect("opens"), other);

    std::fs::remove_file(fx.dir.join(format!("{:016x}.seg", fx.id.0))).expect("removes");
    assert!(matches!(fx.pool.open(fx.id), Err(StoreError::Io(_))));
    assert_eq!(fx.pool.stats().resident_segments, 1);
}
