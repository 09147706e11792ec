//! Transport instrumentation: an [`Instrumented`] wrapper that counts
//! every exchange crossing any [`Transport`] without changing its
//! behaviour.
//!
//! The stats sink is an `Arc` of relaxed atomics shared across
//! [`Transport::clone_box`], so threads cloning the transport
//! all account into the same totals — and because every atomic op is
//! commutative (add / min / max), those totals are identical to a
//! sequential run's. Exchange *outcomes* themselves are decided by the
//! wrapped transport's stateless hash, so wrapping never perturbs fates.
//!
//! Truncation is invisible in a [`Delivery`] alone — the sender only
//! sees short bytes. The wrapper recovers it by observing the responder
//! closure: it records how many bytes the destination produced and
//! compares with how many were delivered.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use telemetry::{AtomicHistogram, Key, Registry};

use crate::transport::{Delivery, Link, Responder, Transport};

/// Deterministic: exchanges attempted through the transport.
pub const TRANSPORT_EXCHANGES: Key = Key::bare("transport_exchanges");
/// Deterministic: exchanges that returned an answer.
pub const TRANSPORT_ANSWERED: Key = Key::bare("transport_answered");
/// Deterministic: exchanges that reached a silent destination.
pub const TRANSPORT_UNANSWERED: Key = Key::bare("transport_unanswered");
/// Deterministic: exchanges lost in the network (either direction).
pub const TRANSPORT_LOST: Key = Key::bare("transport_lost");
/// Deterministic: answered exchanges whose response bytes were cut short.
pub const TRANSPORT_TRUNCATED: Key = Key::bare("transport_truncated");
/// Deterministic: responder invocations (ground truth "the probe arrived").
pub const TRANSPORT_DELIVERED: Key = Key::bare("transport_delivered");
/// Deterministic: histogram of injected round-trip times, in sim seconds.
pub const TRANSPORT_RTT_SECONDS: Key = Key::bare("transport_rtt_seconds");

/// Shared exchange totals. All fields are relaxed atomics; see the
/// module docs for why totals stay scheduling-independent.
#[derive(Debug, Default)]
pub struct TransportStats {
    exchanges: AtomicU64,
    answered: AtomicU64,
    unanswered: AtomicU64,
    lost: AtomicU64,
    truncated: AtomicU64,
    delivered: AtomicU64,
    rtt_seconds: AtomicHistogram,
}

impl TransportStats {
    /// A zeroed stats sink.
    pub fn new() -> TransportStats {
        TransportStats::default()
    }

    /// Exchanges attempted so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges.load(Ordering::Relaxed)
    }

    /// Exchanges answered so far.
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::Relaxed)
    }

    /// Exchanges lost so far.
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Answered exchanges whose bytes were truncated in flight.
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Responder invocations (probes that arrived at the destination).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Exports the totals into `registry`'s deterministic bank under
    /// the `transport_*` keys. Call once the recording threads have
    /// quiesced.
    pub fn export_into(&self, registry: &mut Registry) {
        self.totals().export_into(registry);
    }

    /// A plain-value snapshot of the totals, for checkpointing. A saved
    /// snapshot exported alongside a live sink's totals accounts to the
    /// same registry values as one uninterrupted sink would.
    pub fn totals(&self) -> TransportTotals {
        TransportTotals {
            exchanges: self.exchanges.load(Ordering::Relaxed),
            answered: self.answered.load(Ordering::Relaxed),
            unanswered: self.unanswered.load(Ordering::Relaxed),
            lost: self.lost.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            rtt_seconds: self.rtt_seconds.snapshot(),
        }
    }
}

/// Plain-value transport totals, detached from the atomic sink — what a
/// study checkpoint persists for each instrumented stage.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportTotals {
    /// Exchanges attempted.
    pub exchanges: u64,
    /// Exchanges that returned an answer.
    pub answered: u64,
    /// Exchanges that reached a silent destination.
    pub unanswered: u64,
    /// Exchanges lost in the network.
    pub lost: u64,
    /// Answered exchanges cut short in flight.
    pub truncated: u64,
    /// Responder invocations.
    pub delivered: u64,
    /// Round-trip-time histogram, sim seconds.
    pub rtt_seconds: telemetry::Histogram,
}

impl TransportTotals {
    /// Zeroed totals: the identity for [`TransportTotals::merge`].
    pub fn zero() -> TransportTotals {
        TransportTotals {
            exchanges: 0,
            answered: 0,
            unanswered: 0,
            lost: 0,
            truncated: 0,
            delivered: 0,
            rtt_seconds: telemetry::Histogram::new(),
        }
    }

    /// Accumulates `other` into `self`: counters add, the RTT histogram
    /// merges. Merging per-slice totals in any grouping equals one
    /// uninterrupted run's totals, which is what lets a sliced study
    /// carry transport accounting across suspend/resume boundaries.
    pub fn merge(&mut self, other: &TransportTotals) {
        self.exchanges += other.exchanges;
        self.answered += other.answered;
        self.unanswered += other.unanswered;
        self.lost += other.lost;
        self.truncated += other.truncated;
        self.delivered += other.delivered;
        self.rtt_seconds.merge(&other.rtt_seconds);
    }

    /// Exports into `registry`'s deterministic bank under the
    /// `transport_*` keys; counters add and the histogram merges, so
    /// exporting a prefix snapshot plus the remainder equals exporting
    /// one uninterrupted run.
    pub fn export_into(&self, registry: &mut Registry) {
        registry.add(TRANSPORT_EXCHANGES, self.exchanges);
        registry.add(TRANSPORT_ANSWERED, self.answered);
        registry.add(TRANSPORT_UNANSWERED, self.unanswered);
        registry.add(TRANSPORT_LOST, self.lost);
        registry.add(TRANSPORT_TRUNCATED, self.truncated);
        registry.add(TRANSPORT_DELIVERED, self.delivered);
        registry.merge_hist(TRANSPORT_RTT_SECONDS, &self.rtt_seconds);
    }
}

/// Wraps any transport, accounting every exchange into a shared
/// [`TransportStats`]. Behaviour-transparent: the inner transport makes
/// every decision; the wrapper only observes.
pub struct Instrumented {
    inner: Box<dyn Transport>,
    stats: Arc<TransportStats>,
}

impl Instrumented {
    /// Wraps `inner`, returning the wrapper and the shared stats handle
    /// (which survives `clone_box`, so clones share it).
    pub fn new(inner: Box<dyn Transport>) -> (Instrumented, Arc<TransportStats>) {
        let stats = Arc::new(TransportStats::new());
        (
            Instrumented {
                inner,
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl Transport for Instrumented {
    fn exchange(&self, link: Link, probe: &[u8], respond: &mut Responder<'_>) -> Delivery {
        self.stats.exchanges.fetch_add(1, Ordering::Relaxed);
        // Observe the responder to learn (a) whether the probe arrived
        // and (b) how long the un-truncated response was.
        let mut produced: Option<usize> = None;
        let mut wrapped = |probe: &[u8]| {
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            let out = respond(probe);
            produced = out.as_ref().map(Vec::len);
            out
        };
        let delivery = self.inner.exchange(link, probe, &mut wrapped);
        match &delivery {
            Delivery::Answered { bytes, rtt } => {
                self.stats.answered.fetch_add(1, Ordering::Relaxed);
                self.stats.rtt_seconds.observe(rtt.as_secs());
                if produced.is_some_and(|n| bytes.len() < n) {
                    self.stats.truncated.fetch_add(1, Ordering::Relaxed);
                }
            }
            Delivery::Unanswered => {
                self.stats.unanswered.fetch_add(1, Ordering::Relaxed);
            }
            Delivery::Lost => {
                self.stats.lost.fetch_add(1, Ordering::Relaxed);
            }
        }
        delivery
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(Instrumented {
            inner: self.inner.clone_box(),
            stats: Arc::clone(&self.stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;
    use crate::transport::{FaultConfig, Faulty, Ideal};
    use std::net::Ipv6Addr;

    fn link(attempt: u64) -> Link {
        Link {
            src: Ipv6Addr::LOCALHOST,
            dst: "2001:db8::2".parse().unwrap(),
            port: 123,
            attempt,
        }
    }

    #[test]
    fn wrapper_is_behaviour_transparent() {
        let plain = Faulty::new(FaultConfig::congested(21));
        let (wrapped, _stats) = Instrumented::new(Box::new(plain));
        for a in 0..128 {
            let d1 = plain.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
            let d2 = wrapped.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
            assert_eq!(d1, d2);
        }
    }

    #[test]
    fn counts_classify_every_exchange() {
        let (t, stats) = Instrumented::new(Box::new(Faulty::new(FaultConfig::loss_only(5, 0.3))));
        let n = 500;
        let mut silent = 0;
        for a in 0..n {
            // Every third destination is silent.
            if a % 3 == 0 {
                silent += 1;
                t.exchange(link(a), b"x", &mut |_| None);
            } else {
                t.exchange(link(a), b"x", &mut |_| Some(b"y".to_vec()));
            }
        }
        assert_eq!(stats.exchanges(), n);
        // Every exchange lands in exactly one outcome bucket.
        assert_eq!(
            stats.answered() + stats.lost() + stats.unanswered.load(Ordering::Relaxed),
            n
        );
        assert!(stats.lost() > 0);
        assert!(stats.answered() > 0);
        assert!(stats.unanswered.load(Ordering::Relaxed) <= silent);
        // Delivered (responder ran) ≥ answered (response also survived).
        assert!(stats.delivered() >= stats.answered());
    }

    #[test]
    fn truncation_detected_via_responder_observation() {
        let cfg = FaultConfig {
            seed: 9,
            loss: 0.0,
            min_rtt: Duration::ZERO,
            max_rtt: Duration::ZERO,
            truncation: 1.0,
        };
        let (t, stats) = Instrumented::new(Box::new(Faulty::new(cfg)));
        for a in 0..50 {
            t.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
        }
        assert_eq!(stats.truncated(), 50);
        // Ideal never truncates.
        let (t, stats) = Instrumented::new(Box::new(Ideal));
        t.exchange(link(0), b"x", &mut |_| Some(b"0123456789".to_vec()));
        assert_eq!(stats.truncated(), 0);
        assert_eq!(stats.answered(), 1);
    }

    #[test]
    fn clone_box_shares_the_stats_sink() {
        let (t, stats) = Instrumented::new(Box::new(Ideal));
        let c = t.clone_box();
        t.exchange(link(0), b"x", &mut |_| Some(b"y".to_vec()));
        c.exchange(link(1), b"x", &mut |_| None);
        assert_eq!(stats.exchanges(), 2);
        assert_eq!(stats.answered(), 1);
    }

    #[test]
    fn export_writes_deterministic_transport_metrics() {
        let (t, stats) = Instrumented::new(Box::new(Ideal));
        for a in 0..3 {
            t.exchange(link(a), b"x", &mut |_| Some(b"y".to_vec()));
        }
        let mut reg = Registry::new();
        stats.export_into(&mut reg);
        assert_eq!(reg.counter(TRANSPORT_EXCHANGES), 3);
        assert_eq!(reg.counter(TRANSPORT_ANSWERED), 3);
        assert_eq!(reg.hist(TRANSPORT_RTT_SECONDS).unwrap().count(), 3);
        assert!(reg.snapshot().len() >= 7);
    }
}
