//! Canonical on-disk segment format for a [`CompactSet`].
//!
//! Little-endian throughout:
//!
//! ```text
//! magic    8  b"NTP6SEG\0"
//! version  2  u16 = 1
//! blocks   4  u32 block count
//! len      8  u64 address count
//! fences   blocks × (first u128, last u128, count u32,
//!                    data_len u32, fnv u64)   — fnv is FNV-1a-64 of
//!                                               the block's data bytes
//! data     8 + n  u64 length prefix + concatenated block bytes
//! seal     8  FNV-1a-64 of everything above
//! ```
//!
//! [`decode`] verifies the seal, the magic/version, every per-block
//! checksum, **and** re-walks every block (varint decode, strict
//! ascent, fence agreement) before handing out a set — after a
//! successful decode the in-memory iterators may trust the bytes.
//! Truncation and corruption surface as typed [`StoreError`]s, never
//! panics.

use crate::codec::{fnv1a, Reader, Writer};
use crate::compact::{CompactSet, Fence, SetBytes, BLOCK_CAP};
use crate::error::StoreError;
use crate::mmap::Mmap;
use std::path::Path;
use std::sync::Arc;

/// Segment file magic bytes.
pub const MAGIC: [u8; 8] = *b"NTP6SEG\0";
/// Current segment format version.
pub const VERSION: u16 = 1;

/// Encodes a set into the canonical segment byte form.
pub fn encode(set: &CompactSet) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(&MAGIC);
    w.put_u16(VERSION);
    w.put_u32(set.fences.len() as u32);
    w.put_u64(set.len as u64);
    for (i, f) in set.fences.iter().enumerate() {
        let end = set
            .fences
            .get(i + 1)
            .map_or(set.data.len(), |n| n.offset as usize);
        let block = &set.data[f.offset as usize..end];
        w.put_u128(f.first);
        w.put_u128(f.last);
        w.put_u32(f.count);
        w.put_u32(block.len() as u32);
        w.put_u64(fnv1a(block));
    }
    w.put_bytes(&set.data);
    w.seal();
    w.into_bytes()
}

/// The parsed header of a segment byte stream: everything but the
/// block data, plus the data's byte range within the full file bytes
/// (so a zero-copy backing can window straight into a mapping).
struct Parsed {
    fences: Vec<Fence>,
    /// Per-block `(data_len, fnv)` from the fence table.
    sums: Vec<(usize, u64)>,
    len: usize,
    data_start: usize,
    data_len: usize,
}

/// Verifies the seal and parses the header; block-level validation
/// happens in [`validate`] once a set is constructed over the data.
fn parse(bytes: &[u8]) -> Result<Parsed, StoreError> {
    let payload = Reader::verify_seal(bytes, "segment")?;
    let mut r = Reader::new(payload);
    if r.take(8)? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let blocks = r.u32()? as usize;
    let len = r.u64()? as usize;
    let mut fences = Vec::with_capacity(blocks);
    let mut sums = Vec::with_capacity(blocks);
    let mut offset = 0usize;
    for _ in 0..blocks {
        let first = r.u128()?;
        let last = r.u128()?;
        let count = r.u32()?;
        let data_len = r.u32()? as usize;
        let sum = r.u64()?;
        fences.push(Fence {
            first,
            last,
            count,
            offset: u32::try_from(offset).map_err(|_| StoreError::Corrupt("offset overflow"))?,
        });
        sums.push((data_len, sum));
        offset = offset
            .checked_add(data_len)
            .ok_or(StoreError::Corrupt("offset overflow"))?;
    }
    let data = r.bytes()?;
    if !r.is_done() {
        return Err(StoreError::Corrupt("trailing bytes after segment data"));
    }
    if data.len() != offset {
        return Err(StoreError::Corrupt("data length disagrees with fences"));
    }
    let data_start = data.as_ptr() as usize - bytes.as_ptr() as usize;
    Ok(Parsed {
        fences,
        sums,
        len,
        data_start,
        data_len: data.len(),
    })
}

/// Decodes and fully validates a segment into an owned set.
pub fn decode(bytes: &[u8]) -> Result<CompactSet, StoreError> {
    let p = parse(bytes)?;
    let set = CompactSet {
        fences: p.fences,
        data: SetBytes::Owned(bytes[p.data_start..p.data_start + p.data_len].to_vec()),
        len: p.len,
    };
    validate(&set, &p.sums)?;
    Ok(set)
}

/// Memory-maps a sealed segment file and fully validates it **once at
/// open** (seal, magic/version, every per-block checksum, full decode
/// walk), then hands out a [`CompactSet`] whose block data is served
/// zero-copy from the mapping: resident heap cost is the fence index
/// only, the data pages belong to the page cache. Corruption surfaces
/// here as a typed [`StoreError`] — a set that validates never reads
/// bytes outside its checked window.
pub fn map_file(path: &Path) -> Result<CompactSet, StoreError> {
    let map = Arc::new(Mmap::open(path)?);
    let p = parse(&map)?;
    let set = CompactSet {
        fences: p.fences,
        data: SetBytes::Mapped {
            map,
            offset: p.data_start,
            len: p.data_len,
        },
        len: p.len,
    };
    validate(&set, &p.sums)?;
    Ok(set)
}

/// Structural validation: per-block checksums, then a full decode pass
/// checking strict ascent and fence agreement.
fn validate(set: &CompactSet, sums: &[(usize, u64)]) -> Result<(), StoreError> {
    let mut total = 0usize;
    let mut prev_last: Option<u128> = None;
    for (i, f) in set.fences.iter().enumerate() {
        let (data_len, expect) = sums[i];
        let start = f.offset as usize;
        let block = set
            .data
            .get(start..start + data_len)
            .ok_or(StoreError::Corrupt("block out of bounds"))?;
        if fnv1a(block) != expect {
            return Err(StoreError::Checksum("segment block"));
        }
        if f.count == 0 || f.count as usize > BLOCK_CAP {
            return Err(StoreError::Corrupt("fence count out of range"));
        }
        if block.len() < 16 {
            return Err(StoreError::Corrupt("block shorter than first address"));
        }
        let first = u128::from_le_bytes(block[..16].try_into().unwrap());
        if first != f.first {
            return Err(StoreError::Corrupt("fence first disagrees with block"));
        }
        if let Some(p) = prev_last {
            if first <= p {
                return Err(StoreError::Corrupt("blocks out of order"));
            }
        }
        let mut pos = 16usize;
        let mut cur = first;
        for _ in 1..f.count {
            let delta = crate::codec::read_varint(block, &mut pos)?;
            if delta == 0 {
                return Err(StoreError::Corrupt("zero delta"));
            }
            cur = cur
                .checked_add(delta)
                .ok_or(StoreError::Corrupt("delta overflows address space"))?;
        }
        if pos != block.len() {
            return Err(StoreError::Corrupt("trailing bytes in block"));
        }
        if cur != f.last {
            return Err(StoreError::Corrupt("fence last disagrees with block"));
        }
        prev_last = Some(cur);
        total += f.count as usize;
    }
    if total != set.len {
        return Err(StoreError::Corrupt("length disagrees with blocks"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompactSet {
        let base = 0x2001_0db8_u128 << 96;
        (0..1000u128)
            .map(|i| base | (i * i))
            .chain([0u128, u128::MAX])
            .collect()
    }

    #[test]
    fn roundtrip() {
        for set in [CompactSet::new(), sample()] {
            let bytes = encode(&set);
            let back = decode(&bytes).unwrap();
            assert_eq!(back, set);
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode(&sample());
        for cut in [0, 4, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreError::Truncated { .. } | StoreError::Checksum(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let set = sample();
        let bytes = encode(&set);
        // Flip one bit at a spread of positions across the file; each
        // must yield a typed error (seal, magic, block checksum, …).
        for pos in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let set = sample();
        let mut bytes = encode(&set);
        // Rewrite the magic and re-seal so only the magic is wrong.
        bytes.truncate(bytes.len() - 8);
        bytes[..8].copy_from_slice(b"BOGUS\0\0\0");
        let mut w = Writer::new();
        w.put_raw(&bytes);
        w.seal();
        assert!(matches!(decode(&w.into_bytes()), Err(StoreError::BadMagic)));

        let mut bytes = encode(&set);
        bytes.truncate(bytes.len() - 8);
        bytes[8..10].copy_from_slice(&9u16.to_le_bytes());
        let mut w = Writer::new();
        w.put_raw(&bytes);
        w.seal();
        assert!(matches!(
            decode(&w.into_bytes()),
            Err(StoreError::BadVersion(9))
        ));
    }

    #[test]
    fn map_file_roundtrip_is_zero_copy() {
        let dir = std::env::temp_dir().join("store-segment-map-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mapped.seg");
        let set = sample();
        std::fs::write(&path, encode(&set)).unwrap();
        let mapped = map_file(&path).unwrap();
        // Same observable set, different backing.
        assert_eq!(mapped, set);
        assert_eq!(
            mapped.iter_u128().collect::<Vec<_>>(),
            set.iter_u128().collect::<Vec<_>>()
        );
        for a in set.iter_u128() {
            assert!(mapped.contains_u128(a));
        }
        // On platforms with a real mapping the data bytes cost no heap.
        if mapped.is_mapped() {
            assert!(
                mapped.heap_bytes() < set.heap_bytes(),
                "mapped {} B vs owned {} B",
                mapped.heap_bytes(),
                set.heap_bytes()
            );
            assert_eq!(mapped.data_bytes(), set.data_bytes());
        }
        // Set algebra works straight off the mapping.
        assert_eq!(mapped.overlap_count(&set), set.len());
        // A clone shares the mapping (cheap) and stays equal.
        let clone = mapped.clone();
        drop(mapped);
        assert_eq!(clone, set);
        std::fs::remove_file(&path).unwrap();
    }

    /// The satellite requirement: a corrupted mmap'd segment must yield
    /// a typed [`StoreError`] at open — never a panic or UB later.
    #[test]
    fn corrupted_mapped_segment_is_a_typed_error() {
        let dir = std::env::temp_dir().join("store-segment-map-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let set = sample();
        let bytes = encode(&set);
        // Flip one bit at a spread of positions: seal, magic, fence
        // table, block data, trailing checksum — every one must be
        // caught by the open-time validation pass.
        for (i, pos) in (0..bytes.len()).step_by(101).enumerate() {
            let path = dir.join(format!("bad-{i}.seg"));
            let mut bad = bytes.clone();
            bad[pos] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            let err = map_file(&path).expect_err("corruption must be detected");
            assert!(
                matches!(
                    err,
                    StoreError::Checksum(_)
                        | StoreError::Corrupt(_)
                        | StoreError::Truncated { .. }
                        | StoreError::BadMagic
                        | StoreError::BadVersion(_)
                ),
                "flip at {pos}: unexpected error {err}"
            );
            std::fs::remove_file(&path).unwrap();
        }
        // Truncation (file shorter than the header claims) is typed too.
        let path = dir.join("truncated.seg");
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(map_file(&path).is_err());
        // A missing file surfaces as Io.
        assert!(matches!(
            map_file(&dir.join("missing.seg")),
            Err(StoreError::Io(_))
        ));
    }
}
