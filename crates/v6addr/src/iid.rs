//! Interface-identifier classification (paper Figure 1).
//!
//! Following Rye & Levin, addresses are grouped by the *structure* of their
//! low 64 bits:
//!
//! * **Zero** — `::`-suffixed addresses (typical for routers/servers given
//!   the network's first address),
//! * **LowByte** / **LowTwoBytes** — only the last (two) byte(s) set:
//!   manually numbered "structured" hosts (`…::1`, `…::53`, `…::1:10`),
//! * **Eui64** — MAC-derived SLAAC identifiers (carry the `ff:fe` marker),
//! * **Entropy buckets** — everything else, split by normalised nybble
//!   entropy: low (sequential/patterned), medium, and high (SLAAC privacy
//!   extensions, near-uniform random).
//!
//! The bucket is decided without floats: a fixed-point `Σ c·log2 c` over
//! the nybble histogram against two integer bounds, exactly the bucket
//! of [`nybble_entropy`](crate::entropy::nybble_entropy) (every
//! histogram of 16 nybbles lies clear of both thresholds).
//!
//! The hitlist skews towards Zero/LowByte (infrastructure); NTP-collected
//! client addresses skew towards Eui64 and high entropy.

use std::fmt;
use std::net::Ipv6Addr;

/// A raw 64-bit interface identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iid(pub u64);

impl Iid {
    /// The low 64 bits of an address.
    #[inline]
    pub fn of(addr: Ipv6Addr) -> Iid {
        Iid(u128::from(addr) as u64)
    }

    /// The IID as big-endian bytes.
    #[inline]
    pub fn bytes(&self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

impl fmt::Debug for Iid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Iid({:016x})", self.0)
    }
}

/// Entropy bucket thresholds (normalised nybble entropy).
///
/// * `< LOW` → [`IidClass::LowEntropy`]
/// * `< HIGH` → [`IidClass::MediumEntropy`]
/// * otherwise → [`IidClass::HighEntropy`]
///
/// Calibrated against the empirical distribution for 64-bit IIDs (16
/// nybble samples): uniformly random IIDs have median entropy ≈ 0.80 and
/// 1st percentile ≈ 0.66, so 0.65 cleanly separates "random-looking" from
/// "patterned"; manually structured IIDs measure ≲ 0.2.
pub const LOW_ENTROPY_THRESHOLD: f64 = 0.35;
/// See [`LOW_ENTROPY_THRESHOLD`].
pub const HIGH_ENTROPY_THRESHOLD: f64 = 0.65;

/// Structural class of an interface identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IidClass {
    /// All 64 bits zero.
    Zero,
    /// Only the last byte is non-zero (e.g. `…::1`).
    LowByte,
    /// Only the last two bytes are non-zero (e.g. `…::1:10` is *not* this —
    /// it sets byte 5 — but `…::0110` is).
    LowTwoBytes,
    /// MAC-derived EUI-64 identifier (`ff:fe` marker present).
    Eui64,
    /// Non-trivial but low-entropy pattern (sequential, padded, words).
    LowEntropy,
    /// Mid-range entropy.
    MediumEntropy,
    /// Near-uniform random (SLAAC privacy extensions, RFC 7217).
    HighEntropy,
}

impl IidClass {
    /// All classes in report order (the order of the paper's Figure 1
    /// legend).
    pub const ALL: [IidClass; 7] = [
        IidClass::Zero,
        IidClass::LowByte,
        IidClass::LowTwoBytes,
        IidClass::Eui64,
        IidClass::LowEntropy,
        IidClass::MediumEntropy,
        IidClass::HighEntropy,
    ];

    /// Short human-readable label used in rendered figures.
    pub fn label(&self) -> &'static str {
        match self {
            IidClass::Zero => "zero",
            IidClass::LowByte => "low-byte",
            IidClass::LowTwoBytes => "low-2-bytes",
            IidClass::Eui64 => "EUI-64",
            IidClass::LowEntropy => "entropy<0.35",
            IidClass::MediumEntropy => "entropy 0.35-0.65",
            IidClass::HighEntropy => "entropy>0.65",
        }
    }

    /// "Structured" classes indicate manual configuration (servers,
    /// routers): zero and low-byte(s).
    pub fn is_structured(&self) -> bool {
        matches!(
            self,
            IidClass::Zero | IidClass::LowByte | IidClass::LowTwoBytes
        )
    }
}

impl fmt::Display for IidClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies the interface identifier of `addr`.
pub fn classify_iid(addr: Ipv6Addr) -> IidClass {
    classify_raw(Iid::of(addr))
}

/// Classifies a raw IID. See [`classify_iid`].
pub fn classify_raw(iid: Iid) -> IidClass {
    let v = iid.0;
    if v == 0 {
        return IidClass::Zero;
    }
    if v & !0xff == 0 {
        return IidClass::LowByte;
    }
    if v & !0xffff == 0 {
        return IidClass::LowTwoBytes;
    }
    if crate::eui64::Eui64(v).has_fffe_marker() {
        return IidClass::Eui64;
    }
    entropy_class(v)
}

/// `c·log2 c` for the seventeen counts a bin of a 16-nybble histogram
/// can hold, in units of 2⁻¹⁶ (rounded).
const XLOGX: [u32; 17] = [
    0, 0, 131_072, 311_616, 524_288, 760_849, 1_016_449, 1_287_880, 1_572_864, 1_869_698,
    2_177_059, 2_493_890, 2_819_329, 3_152_656, 3_493_263, 3_840_630, 4_194_304,
];
/// The unit of [`XLOGX`].
const XLOGX_SCALE: f64 = 65_536.0;
/// With bin counts `c` over 16 nybbles, `p = c/16` and the normalised
/// entropy is `h = 1 − Σ c·log2 c / 64`, so `h < t` exactly when the
/// sum exceeds `(1 − t)·64`. In [`XLOGX`] units neither bound is a whole
/// number, so `>` against the truncated bound is that comparison.
const LOW_ENTROPY_SUM: u32 = ((1.0 - LOW_ENTROPY_THRESHOLD) * 64.0 * XLOGX_SCALE) as u32;
/// See [`LOW_ENTROPY_SUM`].
const HIGH_ENTROPY_SUM: u32 = ((1.0 - HIGH_ENTROPY_THRESHOLD) * 64.0 * XLOGX_SCALE) as u32;

/// A one in byte lane `n` of a `u128`, for each nybble value `n`.
const LANE: [u128; 16] = {
    let mut lanes = [0; 16];
    let mut n = 0;
    while n < 16 {
        lanes[n] = 1 << (8 * n);
        n += 1;
    }
    lanes
};

/// The entropy bucket of an IID, without floats: the nybble histogram
/// is built in the byte lanes of a `u128` (a bin holds at most 16; a
/// table lookup instead of a variable 128-bit shift per nybble), and its
/// `Σ c·log2 c` summed from [`XLOGX`]. The table's rounding moves
/// the sum by at most 8 units, while every one of the 231 histograms 16
/// nybbles can form lies at least 0.035 · 2¹⁶ units from either bound,
/// so the bucket is exactly that of
/// [`nybble_entropy`](crate::entropy::nybble_entropy).
fn entropy_class(v: u64) -> IidClass {
    let mut hist = 0u128;
    for shift in (0..64).step_by(4) {
        hist += LANE[(v >> shift & 0xf) as usize];
    }
    let sum = hist
        .to_le_bytes()
        .iter()
        .map(|&c| XLOGX[usize::from(c)])
        .sum();
    class_of_sum(sum)
}

/// The bucket of a histogram whose `Σ c·log2 c` is `sum` [`XLOGX`] units.
fn class_of_sum(sum: u32) -> IidClass {
    if sum > LOW_ENTROPY_SUM {
        IidClass::LowEntropy
    } else if sum > HIGH_ENTROPY_SUM {
        IidClass::MediumEntropy
    } else {
        IidClass::HighEntropy
    }
}

/// A histogram of IID classes over a collection of addresses; the data
/// behind Figure 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IidDistribution {
    counts: [u64; 7],
    total: u64,
}

impl IidDistribution {
    /// Empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one address.
    pub fn add(&mut self, addr: Ipv6Addr) {
        self.add_class(classify_iid(addr));
    }

    /// Adds one pre-classified observation.
    pub fn add_class(&mut self, class: IidClass) {
        self.counts[class as usize] += 1;
        self.total += 1;
    }

    /// Count for one class.
    pub fn count(&self, class: IidClass) -> u64 {
        self.counts[class as usize]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Share of one class in `0.0..=1.0` (0 if empty).
    pub fn share(&self, class: IidClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(class) as f64 / self.total as f64
        }
    }

    /// Share of structured (zero/low-byte) identifiers.
    pub fn structured_share(&self) -> f64 {
        IidClass::ALL
            .iter()
            .filter(|c| c.is_structured())
            .map(|c| self.share(*c))
            .sum()
    }

    /// Iterates `(class, count, share)` in report order.
    pub fn rows(&self) -> impl Iterator<Item = (IidClass, u64, f64)> + '_ {
        IidClass::ALL
            .iter()
            .map(move |&c| (c, self.count(c), self.share(c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::nybble_entropy;
    use crate::eui64::Eui64;
    use crate::mac::Mac;
    use proptest::prelude::*;

    /// The bucket of a normalised entropy, as the thresholds define it.
    fn bucket(h: f64) -> IidClass {
        if h < LOW_ENTROPY_THRESHOLD {
            IidClass::LowEntropy
        } else if h < HIGH_ENTROPY_THRESHOLD {
            IidClass::MediumEntropy
        } else {
            IidClass::HighEntropy
        }
    }

    fn assert_class_is_the_general_definition(v: u64) {
        assert_eq!(
            entropy_class(v),
            bucket(nybble_entropy(&v.to_be_bytes())),
            "{v:016x}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn entropy_class_is_the_nybble_entropy_class(v in any::<u64>()) {
            assert_class_is_the_general_definition(v);
        }
    }

    /// Every partition of 16 into bin counts, largest first.
    fn partitions(n: usize, max: usize, head: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if n == 0 {
            out.push(head.clone());
        }
        for part in (1..=n.min(max)).rev() {
            head.push(part);
            partitions(n - part, part, head, out);
            head.pop();
        }
    }

    /// The class depends on the histogram only, and 16 nybbles form 231
    /// histograms up to relabelling: each, with nybble `i` repeated
    /// `counts[i]` times, lands in the bucket of its `nybble_entropy`,
    /// which lies more than 1e-4 from both thresholds.
    #[test]
    fn entropy_class_is_exact_on_every_partition_of_16() {
        let mut all = Vec::new();
        partitions(16, 16, &mut Vec::new(), &mut all);
        assert_eq!(all.len(), 231);
        for counts in all {
            let v = counts
                .iter()
                .enumerate()
                .flat_map(|(nybble, &c)| std::iter::repeat_n(nybble as u64, c))
                .fold(0u64, |v, nybble| v << 4 | nybble);
            let h = nybble_entropy(&v.to_be_bytes());
            for t in [LOW_ENTROPY_THRESHOLD, HIGH_ENTROPY_THRESHOLD] {
                assert!((h - t).abs() > 1e-4, "{counts:?}: {h} at {t}");
            }
            assert_eq!(entropy_class(v), bucket(h), "{counts:?}");
        }
    }

    /// The table is `c·log2 c` in its unit, and each bound splits the
    /// sums the way the threshold splits `1 − sum / 64`.
    #[test]
    fn sum_table_and_bounds_are_the_thresholds() {
        for (c, &term) in XLOGX.iter().enumerate().skip(1) {
            let exact = c as f64 * (c as f64).log2() * XLOGX_SCALE;
            assert_eq!(f64::from(term), exact.round(), "c = {c}");
        }
        for bound in [LOW_ENTROPY_SUM, HIGH_ENTROPY_SUM] {
            for sum in bound - 2..=bound + 2 {
                let h = 1.0 - f64::from(sum) / (64.0 * XLOGX_SCALE);
                assert_eq!(class_of_sum(sum), bucket(h), "sum {sum}");
            }
        }
    }

    #[test]
    fn entropy_class_on_edge_patterns() {
        assert_class_is_the_general_definition(0);
        assert_class_is_the_general_definition(u64::MAX);
        // One nybble set, every value at every position.
        for pos in 0..16 {
            for nybble in 1..16u64 {
                assert_class_is_the_general_definition(nybble << (4 * pos));
            }
        }
        // One more distinct nybble at a time walks the class up through
        // both buckets.
        let mut v = 0u64;
        let mut seen = Vec::new();
        for nybble in 1..16 {
            v = v << 4 | nybble;
            assert_class_is_the_general_definition(v);
            seen.push(entropy_class(v));
        }
        seen.dedup();
        assert_eq!(
            seen,
            [
                IidClass::LowEntropy,
                IidClass::MediumEntropy,
                IidClass::HighEntropy
            ],
            "patterns straddle both thresholds"
        );
    }

    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn zero_iid() {
        assert_eq!(classify_iid(a("2001:db8:1:2::")), IidClass::Zero);
    }

    #[test]
    fn low_byte() {
        assert_eq!(classify_iid(a("2001:db8::1")), IidClass::LowByte);
        assert_eq!(classify_iid(a("2001:db8::ff")), IidClass::LowByte);
    }

    #[test]
    fn low_two_bytes() {
        assert_eq!(classify_iid(a("2001:db8::100")), IidClass::LowTwoBytes);
        assert_eq!(classify_iid(a("2001:db8::ffff")), IidClass::LowTwoBytes);
        // Three low bytes set is no longer "low-two-bytes".
        assert_ne!(classify_iid(a("2001:db8::1:ffff")), IidClass::LowTwoBytes);
    }

    #[test]
    fn eui64_detected() {
        let mac: Mac = "3c:a6:2f:12:34:56".parse().unwrap();
        let addr = Ipv6Addr::from((0x2001_0db8u128) << 96 | u128::from(Eui64::from_mac(mac).0));
        assert_eq!(classify_iid(addr), IidClass::Eui64);
    }

    #[test]
    fn privacy_extension_is_high_entropy() {
        assert_eq!(
            classify_iid(a("2001:db8::a1f3:9c42:7e5b:d608")),
            IidClass::HighEntropy
        );
    }

    #[test]
    fn patterned_is_low_entropy() {
        // 0x0000000100000002: mostly zero nybbles.
        assert_eq!(classify_iid(a("2001:db8::1:0:2")), IidClass::LowEntropy);
    }

    #[test]
    fn classification_precedence() {
        // EUI-64 wins over entropy buckets even though the marker bytes
        // carry entropy.
        let iid = Iid(0x0200_00ff_fe00_0001);
        assert_eq!(classify_raw(iid), IidClass::Eui64);
        // Zero wins over everything.
        assert_eq!(classify_raw(Iid(0)), IidClass::Zero);
    }

    #[test]
    fn distribution_counts_and_shares() {
        let mut d = IidDistribution::new();
        d.add(a("2001:db8::"));
        d.add(a("2001:db8::1"));
        d.add(a("2001:db8::2"));
        d.add(a("2001:db8::a1f3:9c42:7e5b:d608"));
        assert_eq!(d.total(), 4);
        assert_eq!(d.count(IidClass::Zero), 1);
        assert_eq!(d.count(IidClass::LowByte), 2);
        assert_eq!(d.count(IidClass::HighEntropy), 1);
        assert!((d.share(IidClass::LowByte) - 0.5).abs() < 1e-12);
        assert!((d.structured_share() - 0.75).abs() < 1e-12);
        let shares: f64 = d.rows().map(|(_, _, s)| s).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_distribution() {
        let d = IidDistribution::new();
        assert_eq!(d.total(), 0);
        assert_eq!(d.share(IidClass::Zero), 0.0);
        assert_eq!(d.structured_share(), 0.0);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            IidClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), IidClass::ALL.len());
    }
}
