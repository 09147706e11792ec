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
//! The hitlist skews towards Zero/LowByte (infrastructure); NTP-collected
//! client addresses skew towards Eui64 and high entropy.

use std::fmt;
use std::net::Ipv6Addr;
use std::sync::OnceLock;

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
    let h = iid_entropy(v);
    if h < LOW_ENTROPY_THRESHOLD {
        IidClass::LowEntropy
    } else if h < HIGH_ENTROPY_THRESHOLD {
        IidClass::MediumEntropy
    } else {
        IidClass::HighEntropy
    }
}

/// [`nybble_entropy`](crate::entropy::nybble_entropy) of an IID's eight
/// bytes, bit for bit. Sixteen nybbles leave a histogram bin only the
/// seventeen values `c / 16`, so the `p·log2 p` terms come from a table
/// (filled by the general definition's own expression and subtracted in
/// its bin order) instead of up to sixteen `log2` calls.
fn iid_entropy(v: u64) -> f64 {
    static TERMS: OnceLock<[f64; 17]> = OnceLock::new();
    let terms = TERMS.get_or_init(|| {
        let mut terms = [0.0; 17];
        for (c, term) in terms.iter_mut().enumerate().skip(1) {
            let p = c as f64 / 16.0;
            *term = p * p.log2();
        }
        terms
    });
    let mut hist = [0usize; 16];
    for shift in (0..64).step_by(4) {
        hist[(v >> shift & 0xf) as usize] += 1;
    }
    let mut h = 0.0;
    for &c in &hist {
        if c > 0 {
            h -= terms[c];
        }
    }
    (h / 4.0).clamp(0.0, 1.0)
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

    fn assert_entropy_is_the_general_definition(v: u64) {
        assert_eq!(
            iid_entropy(v).to_bits(),
            nybble_entropy(&v.to_be_bytes()).to_bits(),
            "{v:016x}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn iid_entropy_is_bit_identical_to_nybble_entropy(v in any::<u64>()) {
            assert_entropy_is_the_general_definition(v);
        }
    }

    #[test]
    fn iid_entropy_is_bit_identical_on_edge_patterns() {
        assert_entropy_is_the_general_definition(0);
        assert_entropy_is_the_general_definition(u64::MAX);
        // One nybble set, every value at every position.
        for pos in 0..16 {
            for nybble in 1..16u64 {
                assert_entropy_is_the_general_definition(nybble << (4 * pos));
            }
        }
        // One more distinct nybble at a time walks the entropy up
        // through both bucket thresholds.
        let (mut v, mut prev, mut crossed) = (0u64, 0.0, [false; 2]);
        for nybble in 1..16 {
            v = v << 4 | nybble;
            assert_entropy_is_the_general_definition(v);
            let h = iid_entropy(v);
            crossed[0] |= prev < LOW_ENTROPY_THRESHOLD && LOW_ENTROPY_THRESHOLD <= h;
            crossed[1] |= prev < HIGH_ENTROPY_THRESHOLD && HIGH_ENTROPY_THRESHOLD <= h;
            prev = h;
        }
        assert_eq!(crossed, [true; 2], "patterns straddle both thresholds");
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
