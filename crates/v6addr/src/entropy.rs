//! Entropy over address nybbles, and a per-position nybble model.
//!
//! The paper (following Rye & Levin) buckets non-trivial interface
//! identifiers by their entropy: manually configured or sequential IIDs have
//! low entropy, SLAAC privacy-extension IIDs are near-uniform random and
//! show high entropy. We compute the Shannon entropy of the nybble (4-bit)
//! histogram, normalised to `0.0..=1.0` where `1.0` means all sixteen nybble
//! values are equally frequent.

/// Shannon entropy of the nybble histogram of `data`, normalised to
/// `0.0..=1.0` (log base 16).
///
/// Returns `0.0` for empty input.
pub fn nybble_entropy(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let mut hist = [0usize; 16];
    for &b in data {
        hist[(b >> 4) as usize] += 1;
        hist[(b & 0xf) as usize] += 1;
    }
    let total = (data.len() * 2) as f64;
    let mut h = 0.0;
    for &c in &hist {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    // log2(16) = 4 bits is the maximum per-nybble entropy.
    (h / 4.0).clamp(0.0, 1.0)
}

/// Per-position nybble frequency model over a corpus of equal-length byte
/// strings — the core of the Entropy/IP-style target-generation baseline.
///
/// For each nybble position it tracks how often each of the 16 values
/// occurred, so new strings can be sampled from the empirical marginal
/// distributions.
#[derive(Debug, Clone)]
pub struct NybbleModel {
    /// `counts[pos][value]`
    counts: Vec<[u64; 16]>,
    samples: u64,
}

impl NybbleModel {
    /// Creates a model for strings of `bytes` bytes (`2 * bytes` nybbles).
    pub fn new(bytes: usize) -> Self {
        NybbleModel {
            counts: vec![[0u64; 16]; bytes * 2],
            samples: 0,
        }
    }

    /// Number of strings observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Feeds one observation. `data` must have exactly the `bytes` the
    /// model was created for.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn observe(&mut self, data: &[u8]) {
        assert_eq!(data.len() * 2, self.counts.len(), "length mismatch");
        for (i, &b) in data.iter().enumerate() {
            self.counts[i * 2][(b >> 4) as usize] += 1;
            self.counts[i * 2 + 1][(b & 0xf) as usize] += 1;
        }
        self.samples += 1;
    }

    /// The most frequent value at a position (ties broken by lowest value).
    pub fn mode(&self, pos: usize) -> u8 {
        let hist = &self.counts[pos];
        let mut best = 0u8;
        let mut best_c = 0u64;
        for (v, &c) in hist.iter().enumerate() {
            if c > best_c {
                best_c = c;
                best = v as u8;
            }
        }
        best
    }

    /// Samples a value for `pos` from the empirical distribution using a
    /// caller-provided uniform value in `0.0..1.0`. Deterministic given `u`.
    /// Positions never observed sample as `0`.
    pub fn sample(&self, pos: usize, u: f64) -> u8 {
        let hist = &self.counts[pos];
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (u.clamp(0.0, 0.999_999_9) * total as f64) as u64;
        let mut acc = 0u64;
        for (v, &c) in hist.iter().enumerate() {
            acc += c;
            if target < acc {
                return v as u8;
            }
        }
        15
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(nybble_entropy(&[]), 0.0);
    }

    #[test]
    fn constant_input_is_zero() {
        assert_eq!(nybble_entropy(&[0u8; 8]), 0.0);
    }

    #[test]
    fn uniform_nybbles_are_max() {
        // Bytes 0x01 0x23 0x45 0x67 0x89 0xab 0xcd 0xef hit each nybble once.
        let data = [0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef];
        let h = nybble_entropy(&data);
        assert!((h - 1.0).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn low_entropy_structured_iid() {
        // "::1"-style IID: seven zero bytes + one set byte.
        let data = [0, 0, 0, 0, 0, 0, 0, 1];
        let h = nybble_entropy(&data);
        assert!(h < 0.3, "h = {h}");
    }

    #[test]
    fn entropy_monotone_in_disorder() {
        let ordered = [0u8; 8];
        let mixed = [0, 0, 0, 0, 0x12, 0x34, 0x56, 0x78];
        let random = [0x3a, 0x9f, 0xc4, 0x71, 0x5e, 0xd2, 0x08, 0xb6];
        assert!(nybble_entropy(&ordered) < nybble_entropy(&mixed));
        assert!(nybble_entropy(&mixed) < nybble_entropy(&random));
    }

    #[test]
    fn model_observe_and_mode() {
        let mut m = NybbleModel::new(2);
        m.observe(&[0x12, 0x34]);
        m.observe(&[0x12, 0x3f]);
        assert_eq!(m.samples(), 2);
        // Positions 0..=2 constant, position 3 varies.
        assert_eq!(m.mode(0), 1);
        assert_eq!(m.mode(2), 3);
        assert_eq!(m.mode(3), 4); // ties broken low: 0x4 and 0xf once each
    }

    #[test]
    fn model_sampling_follows_distribution() {
        let mut m = NybbleModel::new(1);
        for _ in 0..9 {
            m.observe(&[0xa0]);
        }
        m.observe(&[0xb0]);
        // First nybble: 90% 'a', 10% 'b'.
        assert_eq!(m.sample(0, 0.0), 0xa);
        assert_eq!(m.sample(0, 0.85), 0xa);
        assert_eq!(m.sample(0, 0.95), 0xb);
        // Unobserved-but-present position samples fine; empty model is 0.
        let empty = NybbleModel::new(1);
        assert_eq!(empty.sample(0, 0.5), 0);
    }

    #[test]
    #[should_panic]
    fn observe_length_mismatch_panics() {
        NybbleModel::new(2).observe(&[0x12]);
    }
}
