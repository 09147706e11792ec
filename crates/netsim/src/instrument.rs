//! Transport instrumentation: an [`Instrumented`] wrapper that counts
//! every exchange crossing any [`Transport`] without changing its
//! behaviour.
//!
//! The sink is one [`TransportTotals`] behind an `Arc<Mutex<_>>`, shared
//! across [`Transport::clone_box`] and locked once per exchange, after
//! the inner exchange has returned. It is the same value a study merges
//! across slices, stores in its checkpoint and exports into a
//! [`Registry`]. Exchange *outcomes* are decided by the wrapped
//! transport's stateless hash, so wrapping never perturbs fates.
//!
//! Truncation is invisible in a [`Delivery`] alone — the sender only
//! sees short bytes. The wrapper recovers it by observing the responder
//! closure: it records how many bytes the destination produced and
//! compares with how many were delivered.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use telemetry::{Histogram, Key, Registry};

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

/// Exchange totals: what an [`Instrumented`] sink accumulates and what a
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
    pub rtt_seconds: Histogram,
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
            rtt_seconds: Histogram::new(),
        }
    }

    /// A copy of the totals a sink from [`Instrumented::new`] holds.
    pub fn snapshot(sink: &Mutex<TransportTotals>) -> TransportTotals {
        lock(sink).clone()
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

/// Locks a sink. Its critical section is plain adds that cannot leave
/// an exchange half-counted, so a lock poisoned by a panic elsewhere is
/// recovered rather than propagated.
fn lock(sink: &Mutex<TransportTotals>) -> MutexGuard<'_, TransportTotals> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wraps any transport, accounting every exchange into a shared
/// [`TransportTotals`]. Behaviour-transparent: the inner transport makes
/// every decision; the wrapper only observes.
pub struct Instrumented {
    inner: Box<dyn Transport>,
    totals: Arc<Mutex<TransportTotals>>,
}

impl Instrumented {
    /// Wraps `inner`, returning the wrapper and the shared sink (which
    /// survives `clone_box`, so clones share it).
    pub fn new(inner: Box<dyn Transport>) -> (Instrumented, Arc<Mutex<TransportTotals>>) {
        let totals = Arc::new(Mutex::new(TransportTotals::zero()));
        (
            Instrumented {
                inner,
                totals: Arc::clone(&totals),
            },
            totals,
        )
    }
}

impl Transport for Instrumented {
    fn exchange(&self, link: Link, probe: &[u8], respond: &mut Responder<'_>) -> Delivery {
        // Observe the responder to learn (a) whether the probe arrived
        // and (b) how long the un-truncated response was.
        let mut delivered = 0;
        let mut produced: Option<usize> = None;
        let mut wrapped = |probe: &[u8]| {
            delivered += 1;
            let out = respond(probe);
            produced = out.as_ref().map(Vec::len);
            out
        };
        let delivery = self.inner.exchange(link, probe, &mut wrapped);
        let mut totals = lock(&self.totals);
        totals.exchanges += 1;
        totals.delivered += delivered;
        match &delivery {
            Delivery::Answered { bytes, rtt } => {
                totals.answered += 1;
                totals.rtt_seconds.observe(rtt.as_secs());
                if produced.is_some_and(|n| bytes.len() < n) {
                    totals.truncated += 1;
                }
            }
            Delivery::Unanswered => totals.unanswered += 1,
            Delivery::Lost => totals.lost += 1,
        }
        delivery
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(Instrumented {
            inner: self.inner.clone_box(),
            totals: Arc::clone(&self.totals),
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
        let (wrapped, _sink) = Instrumented::new(Box::new(plain));
        for a in 0..128 {
            let d1 = plain.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
            let d2 = wrapped.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
            assert_eq!(d1, d2);
        }
    }

    #[test]
    fn counts_classify_every_exchange() {
        let (t, sink) = Instrumented::new(Box::new(Faulty::new(FaultConfig::loss_only(5, 0.3))));
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
        let stats = TransportTotals::snapshot(&sink);
        assert_eq!(stats.exchanges, n);
        // Every exchange lands in exactly one outcome bucket.
        assert_eq!(stats.answered + stats.lost + stats.unanswered, n);
        assert!(stats.lost > 0);
        assert!(stats.answered > 0);
        assert!(stats.unanswered <= silent);
        // Delivered (responder ran) ≥ answered (response also survived).
        assert!(stats.delivered >= stats.answered);
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
        let (t, sink) = Instrumented::new(Box::new(Faulty::new(cfg)));
        for a in 0..50 {
            t.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
        }
        assert_eq!(TransportTotals::snapshot(&sink).truncated, 50);
        // Ideal never truncates.
        let (t, sink) = Instrumented::new(Box::new(Ideal));
        t.exchange(link(0), b"x", &mut |_| Some(b"0123456789".to_vec()));
        let stats = TransportTotals::snapshot(&sink);
        assert_eq!(stats.truncated, 0);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn clone_box_shares_the_stats_sink() {
        let (t, sink) = Instrumented::new(Box::new(Ideal));
        let c = t.clone_box();
        t.exchange(link(0), b"x", &mut |_| Some(b"y".to_vec()));
        c.exchange(link(1), b"x", &mut |_| None);
        let stats = TransportTotals::snapshot(&sink);
        assert_eq!(stats.exchanges, 2);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn export_writes_deterministic_transport_metrics() {
        let (t, sink) = Instrumented::new(Box::new(Ideal));
        for a in 0..3 {
            t.exchange(link(a), b"x", &mut |_| Some(b"y".to_vec()));
        }
        let mut reg = Registry::new();
        TransportTotals::snapshot(&sink).export_into(&mut reg);
        assert_eq!(reg.counter(TRANSPORT_EXCHANGES), 3);
        assert_eq!(reg.counter(TRANSPORT_ANSWERED), 3);
        assert_eq!(reg.hist(TRANSPORT_RTT_SECONDS).unwrap().count(), 3);
        assert!(reg.snapshot().len() >= 7);
    }
}
