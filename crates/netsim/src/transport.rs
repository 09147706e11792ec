//! The transport layer: every byte exchange with the simulated world
//! goes through a [`Transport`].
//!
//! The seed reproduction reached the world through a perfect oracle —
//! [`crate::world::World::respond`] never dropped, delayed, or truncated
//! anything — while the paper's zgrab2 deployment lives with loss,
//! timeouts, and retries (§4.1). This module inserts the missing layer:
//! callers hand the transport a probe plus a *responder* closure (the
//! destination's protocol stack), and the transport decides what actually
//! crosses the wire.
//!
//! Two implementations:
//!
//! * [`Ideal`] — bit-identical to a direct call: zero RTT, no loss, no
//!   truncation. The default everywhere, so existing results are
//!   unchanged.
//! * [`Faulty`] — loss, latency jitter, and truncation derived from a
//!   **seeded stateless hash** of `(src, dst, port, attempt)`. No
//!   internal state means fault decisions are order-independent:
//!   sliced, resumed and uninterrupted collection stay bit-identical
//!   even under faults, and repeated runs reproduce the same packet
//!   fates.
//!
//! A forward-lost probe never reaches the responder — a collecting NTP
//! server cannot record a client whose packet was dropped — while a
//! response-lost exchange *does* invoke it (the server saw the client;
//! only the answer died). Callers that need the ground-truth distinction
//! observe whether their closure ran.

use crate::mix2;
use crate::time::Duration;
use std::net::Ipv6Addr;

/// One directed exchange: who sends to whom, on which port, which try.
///
/// The `attempt` field is caller-defined: a retrying scanner passes its
/// 0-based retry index, a polling NTP client its poll sequence number —
/// anything that distinguishes repeated sends over the same (src, dst,
/// port) triple so they can meet different fates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Source address of the probe.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Destination port.
    pub port: u16,
    /// Attempt / sequence number (see type docs).
    pub attempt: u64,
}

/// What came back from one exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// A response arrived, `rtt` after the probe was sent.
    Answered {
        /// The response bytes (possibly truncated by the transport).
        bytes: Vec<u8>,
        /// Round-trip time.
        rtt: Duration,
    },
    /// The probe arrived but nothing answered: unrouted space, closed
    /// port, stale address, or a host that rejected the bytes.
    Unanswered,
    /// Lost in the network — forward or reverse — so the caller times
    /// out. The two directions are indistinguishable to the sender, as
    /// on the real Internet.
    Lost,
}

/// The responder side of an exchange: the destination's protocol stack.
/// `None` models a silent destination (no listener).
pub type Responder<'a> = dyn FnMut(&[u8]) -> Option<Vec<u8>> + 'a;

/// Mediates all byte exchanges with the simulated world.
pub trait Transport: Send + Sync {
    /// Carries `probe` over `link`, consulting `respond` for the
    /// destination's answer. Implementations must not call `respond`
    /// when the probe is forward-lost.
    fn exchange(&self, link: Link, probe: &[u8], respond: &mut Responder<'_>) -> Delivery;

    /// Clones this transport behind the trait object (transports are
    /// stateless configuration, so this is cheap).
    fn clone_box(&self) -> Box<dyn Transport>;
}

impl Clone for Box<dyn Transport> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The perfect transport: every probe arrives, every answer returns
/// instantly and intact. Bit-identical to calling the responder directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ideal;

impl Transport for Ideal {
    fn exchange(&self, _link: Link, probe: &[u8], respond: &mut Responder<'_>) -> Delivery {
        match respond(probe) {
            Some(bytes) => Delivery::Answered {
                bytes,
                rtt: Duration::ZERO,
            },
            None => Delivery::Unanswered,
        }
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(*self)
    }
}

/// Fault parameters for a [`Faulty`] transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed all fault decisions derive from. Different seeds give
    /// independent packet fates over the same traffic.
    pub seed: u64,
    /// Per-direction loss probability (applied independently to the
    /// probe and to the response).
    pub loss: f64,
    /// Minimum round-trip time.
    pub min_rtt: Duration,
    /// Maximum round-trip time; actual RTT is hash-uniform in
    /// `[min_rtt, max_rtt]`.
    pub max_rtt: Duration,
    /// Probability a response is truncated in flight (the bytes arrive
    /// cut short, so protocol parsing fails).
    pub truncation: f64,
}

impl FaultConfig {
    /// The `lossy_1pct` preset: 1 % per-direction loss, mild latency,
    /// no truncation — a healthy wide-area path.
    pub fn lossy_1pct(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            loss: 0.01,
            min_rtt: Duration::ZERO,
            max_rtt: Duration::secs(1),
            truncation: 0.0,
        }
    }

    /// The `congested` preset: 10 % per-direction loss, seconds of
    /// jitter, occasional truncation — a path under pressure.
    pub fn congested(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            loss: 0.10,
            min_rtt: Duration::secs(1),
            max_rtt: Duration::secs(4),
            truncation: 0.02,
        }
    }

    /// A loss-only config (used by the ablation sweeps).
    pub fn loss_only(seed: u64, loss: f64) -> FaultConfig {
        FaultConfig {
            seed,
            loss,
            min_rtt: Duration::ZERO,
            max_rtt: Duration::ZERO,
            truncation: 0.0,
        }
    }
}

/// A transport whose faults derive from a seeded stateless hash of the
/// link — order-independent and bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Faulty {
    cfg: FaultConfig,
}

/// Domain separators for the per-link fault draws.
const DOMAIN_FWD_LOSS: u64 = 1;
const DOMAIN_REV_LOSS: u64 = 2;
const DOMAIN_RTT: u64 = 3;
const DOMAIN_TRUNC: u64 = 4;
const DOMAIN_TRUNC_LEN: u64 = 5;

impl Faulty {
    /// A faulty transport with the given parameters.
    pub fn new(cfg: FaultConfig) -> Faulty {
        Faulty { cfg }
    }

    /// The fault parameters.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The stateless per-link hash, domain-separated per decision.
    fn draw(&self, link: &Link, domain: u64) -> u64 {
        let s = u128::from(link.src);
        let d = u128::from(link.dst);
        let a = mix2(self.cfg.seed ^ domain, (s >> 64) as u64 ^ s as u64);
        let b = mix2(a, (d >> 64) as u64 ^ d as u64);
        mix2(b, (u64::from(link.port) << 32) ^ link.attempt)
    }

    /// Maps a hash to `[0, 1)`.
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn lost(&self, link: &Link, domain: u64) -> bool {
        self.cfg.loss > 0.0 && Self::unit(self.draw(link, domain)) < self.cfg.loss
    }

    fn rtt(&self, link: &Link) -> Duration {
        let span = self
            .cfg
            .max_rtt
            .as_secs()
            .saturating_sub(self.cfg.min_rtt.as_secs());
        if span == 0 {
            return self.cfg.min_rtt;
        }
        Duration::secs(self.cfg.min_rtt.as_secs() + self.draw(link, DOMAIN_RTT) % (span + 1))
    }
}

impl Transport for Faulty {
    fn exchange(&self, link: Link, probe: &[u8], respond: &mut Responder<'_>) -> Delivery {
        if self.lost(&link, DOMAIN_FWD_LOSS) {
            return Delivery::Lost;
        }
        let Some(mut bytes) = respond(probe) else {
            return Delivery::Unanswered;
        };
        if self.lost(&link, DOMAIN_REV_LOSS) {
            return Delivery::Lost;
        }
        if self.cfg.truncation > 0.0
            && Self::unit(self.draw(&link, DOMAIN_TRUNC)) < self.cfg.truncation
            && !bytes.is_empty()
        {
            // Cut somewhere strictly inside the response.
            let keep = 1 + (self.draw(&link, DOMAIN_TRUNC_LEN) as usize) % bytes.len().max(2);
            bytes.truncate(keep.min(bytes.len().saturating_sub(1)).max(1));
        }
        Delivery::Answered {
            bytes,
            rtt: self.rtt(&link),
        }
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(*self)
    }
}

/// Named fault presets; the user-facing knob (`StudyConfig::fault`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultProfile {
    /// No faults — the seed repo's perfect oracle.
    #[default]
    Ideal,
    /// 1 % per-direction loss, mild jitter.
    Lossy1Pct,
    /// 10 % per-direction loss, heavy jitter, occasional truncation.
    Congested,
}

impl FaultProfile {
    /// Builds the transport for this profile; `seed` keys the fault
    /// hash (ignored by [`FaultProfile::Ideal`]).
    pub fn build(self, seed: u64) -> Box<dyn Transport> {
        match self {
            FaultProfile::Ideal => Box::new(Ideal),
            FaultProfile::Lossy1Pct => Box::new(Faulty::new(FaultConfig::lossy_1pct(seed))),
            FaultProfile::Congested => Box::new(Faulty::new(FaultConfig::congested(seed))),
        }
    }

    /// The profile's name as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultProfile::Ideal => "ideal",
            FaultProfile::Lossy1Pct => "lossy_1pct",
            FaultProfile::Congested => "congested",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(attempt: u64) -> Link {
        Link {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            port: 443,
            attempt,
        }
    }

    fn echo(resp: &'static [u8]) -> impl FnMut(&[u8]) -> Option<Vec<u8>> {
        move |_| Some(resp.to_vec())
    }

    #[test]
    fn ideal_is_transparent() {
        let mut calls = 0;
        let d = Ideal.exchange(link(0), b"probe", &mut |p| {
            calls += 1;
            assert_eq!(p, b"probe");
            Some(b"reply".to_vec())
        });
        assert_eq!(calls, 1);
        assert_eq!(
            d,
            Delivery::Answered {
                bytes: b"reply".to_vec(),
                rtt: Duration::ZERO
            }
        );
        assert_eq!(
            Ideal.exchange(link(0), b"p", &mut |_| None),
            Delivery::Unanswered
        );
    }

    #[test]
    fn faulty_is_deterministic_and_order_independent() {
        let t = Faulty::new(FaultConfig::congested(7));
        let fates: Vec<Delivery> = (0..64)
            .map(|a| t.exchange(link(a), b"x", &mut echo(b"0123456789")))
            .collect();
        // Same link ⇒ same fate, in any order.
        for a in (0..64).rev() {
            assert_eq!(
                t.exchange(link(a), b"x", &mut echo(b"0123456789")),
                fates[a as usize]
            );
        }
    }

    #[test]
    fn forward_loss_never_reaches_the_responder() {
        let t = Faulty::new(FaultConfig::loss_only(3, 0.5));
        let mut delivered = 0u32;
        let mut lost = 0u32;
        for a in 0..400 {
            let mut saw = false;
            let d = t.exchange(link(a), b"x", &mut |_| {
                saw = true;
                Some(b"y".to_vec())
            });
            if d == Delivery::Lost && !saw {
                lost += 1;
            }
            if saw {
                delivered += 1;
            }
        }
        // 50 % per-direction loss: roughly half the probes arrive.
        assert!(delivered > 120 && delivered < 280, "{delivered}");
        assert!(lost > 120, "{lost}");
    }

    #[test]
    fn loss_rate_close_to_configured() {
        let t = Faulty::new(FaultConfig::loss_only(11, 0.01));
        let mut answered = 0u32;
        for a in 0..10_000 {
            if matches!(
                t.exchange(link(a), b"x", &mut echo(b"y")),
                Delivery::Answered { .. }
            ) {
                answered += 1;
            }
        }
        // p(through both ways) = 0.99² ≈ 0.9801.
        let rate = f64::from(answered) / 10_000.0;
        assert!((rate - 0.9801).abs() < 0.01, "{rate}");
    }

    #[test]
    fn rtt_within_bounds_and_truncation_shortens() {
        let cfg = FaultConfig {
            seed: 5,
            loss: 0.0,
            min_rtt: Duration::secs(1),
            max_rtt: Duration::secs(4),
            truncation: 1.0,
        };
        let t = Faulty::new(cfg);
        for a in 0..200 {
            match t.exchange(link(a), b"x", &mut echo(b"0123456789")) {
                Delivery::Answered { bytes, rtt } => {
                    assert!(rtt >= cfg.min_rtt && rtt <= cfg.max_rtt, "{rtt}");
                    assert!(!bytes.is_empty() && bytes.len() < 10, "{}", bytes.len());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn profiles_build_expected_transports() {
        let mut silent: Box<Responder<'static>> = Box::new(|_| None);
        assert_eq!(
            FaultProfile::Ideal
                .build(1)
                .exchange(link(0), b"x", &mut silent),
            Delivery::Unanswered
        );
        assert_eq!(FaultProfile::default(), FaultProfile::Ideal);
        assert_eq!(FaultProfile::Lossy1Pct.name(), "lossy_1pct");
        // clone_box preserves behaviour.
        let t = FaultProfile::Congested.build(9);
        let c = t.clone();
        for a in 0..32 {
            assert_eq!(
                t.exchange(link(a), b"x", &mut echo(b"abcdef")),
                c.exchange(link(a), b"x", &mut echo(b"abcdef"))
            );
        }
    }
}
