//! The address fold: the one hash every address table in the workspace
//! uses.
//!
//! [`fold`] runs both halves of an address's `u128` through splitmix64
//! and combines them — two multiply-xorshift rounds per key instead of
//! SipHash over 16 bytes. [`FoldHasher`] is that fold as a
//! [`std::hash::Hasher`], so [`AddrSet`](crate::AddrSet) and the
//! archive's memtable (`store::archive`) key their hash sets with it,
//! and `store::bloom` derives its probe bits from it.
//!
//! The fold is unkeyed. That suits addresses the simulation generates;
//! a table fed addresses an adversary picks would want SipHash's keyed
//! collision resistance back. The one such input is a checkpoint file,
//! whose per-server sets are read back into `AddrSet`s: colliding
//! addresses there can make the read slow, not wrong. The fold is also
//! fixed across platforms and
//! runs, so bloom filters built from it are pure functions of their
//! keys.

use std::hash::{BuildHasherDefault, Hasher};

/// splitmix64: the 64-bit finalizer behind the fold. Strong avalanche,
/// cheap, and stable across platforms.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The address fold: both halves of the `u128` through splitmix64.
#[inline]
pub fn fold(a: u128) -> u64 {
    splitmix64(a as u64) ^ splitmix64((a >> 64) as u64).rotate_left(32)
}

/// A [`Hasher`] that is the address fold, for `u128`-keyed hash tables.
#[derive(Debug, Default)]
pub struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); a `u128` key only calls `write_u128`.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = fold(v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The `BuildHasher` of a `u128`-keyed table hashed with the fold.
pub type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// A `u128` key hashes to its fold, whatever route `Hash` takes.
    #[test]
    fn a_u128_key_hashes_to_its_fold() {
        for a in [0u128, 1, u128::MAX, (0x2001_0db8 << 96) | 0x42] {
            assert_eq!(FoldBuildHasher::default().hash_one(a), fold(a));
        }
        assert_ne!(fold(1), fold(1 << 64), "the halves do not cancel");
    }
}
