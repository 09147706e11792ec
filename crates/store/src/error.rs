//! Typed errors for the segment codec and checkpoint files.
//!
//! Every decode path returns one of these instead of panicking: a
//! truncated or bit-flipped file must surface as an error the caller can
//! report, never as an index-out-of-bounds in the middle of a resume.

use std::fmt;

/// What went wrong while reading or writing archive data.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The format version is newer (or older) than this build understands.
    BadVersion(u16),
    /// The input ended before a fixed-size field could be read.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually left.
        available: usize,
    },
    /// An FNV checksum did not match — the named region was corrupted.
    Checksum(&'static str),
    /// The bytes decoded but violate a structural invariant.
    Corrupt(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "bad magic bytes"),
            StoreError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated input: needed {needed} bytes, {available} left"
                )
            }
            StoreError::Checksum(what) => write!(f, "checksum mismatch in {what}"),
            StoreError::Corrupt(what) => write!(f, "corrupt data: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
