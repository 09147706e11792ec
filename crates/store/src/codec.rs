//! Little-endian byte codec shared by the segment format and the study
//! checkpoint file: a growable [`Writer`], a bounds-checked [`Reader`],
//! LEB128 varints over `u128`, and FNV-1a-64 checksums.
//!
//! Every `Reader` method returns a typed [`StoreError`] on truncated or
//! malformed input — corruption is a value, not a panic.

use crate::error::StoreError;

/// Longest LEB128 encoding of a `u128`: ⌈128 / 7⌉ bytes.
pub const MAX_VARINT_LEN: usize = 19;

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a hash `h` over `bytes`:
/// `fnv1a_extend(fnv1a(a), b)` is the hash of `a` followed by `b`.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends a LEB128 varint to `out`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint from `buf[*pos..]`, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u128, StoreError> {
    let mut v: u128 = 0;
    for i in 0..MAX_VARINT_LEN {
        let Some(&byte) = buf.get(*pos) else {
            return Err(StoreError::Truncated {
                needed: 1,
                available: 0,
            });
        };
        *pos += 1;
        let shift = 7 * i;
        let payload = u128::from(byte & 0x7f);
        // The 19th byte can only carry the top 128 - 7·18 = 2 bits.
        if shift == 126 && payload > 0x3 {
            return Err(StoreError::Corrupt("varint overflows u128"));
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreError::Corrupt("varint longer than 19 bytes"))
}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The accumulated bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_raw(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a LEB128 varint.
    pub fn put_varint(&mut self, v: u128) {
        put_varint(&mut self.buf, v);
    }

    /// Appends the FNV-1a checksum of everything written so far.
    pub fn seal(&mut self) {
        let sum = fnv1a(&self.buf);
        self.put_u64(sum);
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes and returns the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, StoreError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `u64` length prefix followed by that many bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("length exceeds usize"))?;
        self.take(len)
    }

    /// Reads a LEB128 varint.
    pub fn varint(&mut self) -> Result<u128, StoreError> {
        read_varint(self.buf, &mut self.pos)
    }

    /// Verifies a trailing FNV-1a checksum over `buf[..len-8]` without
    /// moving the read position; returns the payload slice it covers.
    pub fn verify_seal(buf: &'a [u8], what: &'static str) -> Result<&'a [u8], StoreError> {
        if buf.len() < 8 {
            return Err(StoreError::Truncated {
                needed: 8,
                available: buf.len(),
            });
        }
        let (payload, sum) = buf.split_at(buf.len() - 8);
        let expect = u64::from_le_bytes(sum.try_into().unwrap());
        if fnv1a(payload) != expect {
            return Err(StoreError::Checksum(what));
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        let cases = [
            0u128,
            1,
            127,
            128,
            0x7fff,
            u128::from(u64::MAX),
            u128::MAX - 1,
            u128::MAX,
        ];
        for v in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= MAX_VARINT_LEN);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 19 continuation bytes with no terminator.
        let overlong = [0x80u8; MAX_VARINT_LEN];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&overlong, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
        // Final byte carries more than the 2 bits that fit.
        let mut overflow = vec![0x80u8; MAX_VARINT_LEN - 1];
        overflow.push(0x04);
        let mut pos = 0;
        assert!(matches!(
            read_varint(&overflow, &mut pos),
            Err(StoreError::Corrupt(_))
        ));
        // Truncated mid-varint.
        let mut pos = 0;
        assert!(matches!(
            read_varint(&[0x80u8, 0x80], &mut pos),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xbeef);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_u128(u128::MAX / 5);
        w.put_bytes(b"hello");
        w.put_varint(300);
        w.seal();
        let bytes = w.into_bytes();
        let payload = Reader::verify_seal(&bytes, "test").unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 5);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.varint().unwrap(), 300);
        assert!(r.is_done());
    }

    #[test]
    fn seal_detects_flip() {
        let mut w = Writer::new();
        w.put_u64(42);
        w.seal();
        let mut bytes = w.into_bytes();
        bytes[3] ^= 0x10;
        assert!(matches!(
            Reader::verify_seal(&bytes, "test"),
            Err(StoreError::Checksum("test"))
        ));
    }
}
