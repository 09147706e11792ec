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
//! panics. A segment *file* goes through the same checks: it is read
//! whole and decoded from the buffer.

use crate::codec::{fnv1a, fnv1a_extend, Reader, Writer};
use crate::compact::{CompactSet, Fence, BLOCK_CAP};
use crate::error::StoreError;
use std::ops::Range;
use std::path::Path;

/// Segment file magic bytes.
pub const MAGIC: [u8; 8] = *b"NTP6SEG\0";
/// Current segment format version.
pub const VERSION: u16 = 1;
/// Encoded size of one fence-table entry.
const FENCE_BYTES: usize = 16 + 16 + 4 + 4 + 8;

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
/// block data, which stays where it is at `data`.
struct Header {
    fences: Vec<Fence>,
    /// Per-block `(data_len, fnv)` from the fence table.
    sums: Vec<(usize, u64)>,
    len: usize,
    /// Where the concatenated block bytes sit in the stream.
    data: Range<usize>,
}

/// Verifies the seal and parses the header; block-level validation
/// happens in [`Header::into_set`] once the data is in hand.
fn parse(bytes: &[u8]) -> Result<Header, StoreError> {
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
    // The count sizes two allocations: refuse one the rest of the
    // stream could not hold before making them.
    let needed = blocks.saturating_mul(FENCE_BYTES);
    if needed > r.remaining() {
        return Err(StoreError::Truncated {
            needed,
            available: r.remaining(),
        });
    }
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
    Ok(Header {
        fences,
        sums,
        len,
        // The data is the last thing before the seal.
        data: payload.len() - data.len()..payload.len(),
    })
}

impl Header {
    /// The set over `data` — this header's block bytes — once every
    /// block has passed [`validate`].
    fn into_set(self, data: Vec<u8>) -> Result<CompactSet, StoreError> {
        let set = CompactSet {
            fences: self.fences,
            data,
            len: self.len,
        };
        validate(&set, &self.sums)?;
        Ok(set)
    }
}

/// Decodes and fully validates a segment into a set.
pub fn decode(bytes: &[u8]) -> Result<CompactSet, StoreError> {
    let header = parse(bytes)?;
    let data = bytes[header.data.clone()].to_vec();
    header.into_set(data)
}

/// Reads a sealed segment file and [`decode`]s it — the file's own
/// buffer, cut down to the data section, becomes the set's. Also
/// returns the FNV-1a-64 of the whole file, the content hash a
/// [`SegmentId`](crate::SegmentId) names.
pub(crate) fn read_file(path: &Path) -> Result<(CompactSet, u64), StoreError> {
    let mut bytes = std::fs::read(path)?;
    let header = parse(&bytes)?;
    // The verified seal *is* the hash of everything before it:
    // extending it over its own eight bytes hashes the whole file
    // without a second pass.
    let seal: [u8; 8] = bytes[header.data.end..]
        .try_into()
        .expect("a parsed segment ends in its 8-byte seal");
    let content_hash = fnv1a_extend(u64::from_le_bytes(seal), &seal);
    bytes.truncate(header.data.end);
    bytes.drain(..header.data.start);
    bytes.shrink_to_fit();
    Ok((header.into_set(bytes)?, content_hash))
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
    fn read_file_roundtrip() {
        let dir = std::env::temp_dir().join("store-segment-file-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("whole.seg");
        let set = sample();
        let bytes = encode(&set);
        std::fs::write(&path, &bytes).unwrap();
        let (read, content_hash) = read_file(&path).unwrap();
        assert_eq!(content_hash, fnv1a(&bytes));
        // The same fences over the same bytes at the same cost,
        // whichever way the set was built.
        assert_eq!(read, set);
        assert_eq!(read.heap_bytes(), set.heap_bytes());
        std::fs::remove_file(&path).unwrap();
    }
}
