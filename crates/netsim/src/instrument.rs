//! Transport accounting: [`TransportTotals`], the plain tally a stage
//! counts its exchanges into, one [`TransportTotals::exchange`] call per
//! exchange.
//!
//! Each stage keeps its tally next to its other counters — the
//! collection engine's checkpoint, a scan's store, a telescope vantage —
//! and exports it once with them into a [`Registry`]. Exchange
//! *outcomes* are decided by the transport's stateless hash, so counting
//! never perturbs fates.
//!
//! Truncation is invisible in a [`Delivery`] alone — the sender only
//! sees short bytes. [`TransportTotals::exchange`] recovers it by
//! observing the responder closure: it records how many bytes the
//! destination produced and compares with how many were delivered.

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

/// Exchange totals of one stage: what [`TransportTotals::exchange`]
/// counts and what a study checkpoint persists for the collection.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Carries `probe` over `link` through `transport` and counts the
    /// exchange. The responder is observed to learn (a) whether the
    /// probe arrived and (b) how long the un-truncated response was; the
    /// transport makes every decision.
    pub fn exchange(
        &mut self,
        transport: &dyn Transport,
        link: Link,
        probe: &[u8],
        respond: &mut Responder<'_>,
    ) -> Delivery {
        let mut delivered = 0;
        let mut produced: Option<usize> = None;
        let mut wrapped = |probe: &[u8]| {
            delivered += 1;
            let out = respond(probe);
            produced = out.as_ref().map(Vec::len);
            out
        };
        let delivery = transport.exchange(link, probe, &mut wrapped);
        self.exchanges += 1;
        self.delivered += delivered;
        match &delivery {
            Delivery::Answered { bytes, rtt } => {
                self.answered += 1;
                self.rtt_seconds.observe(rtt.as_secs());
                if produced.is_some_and(|n| bytes.len() < n) {
                    self.truncated += 1;
                }
            }
            Delivery::Unanswered => self.unanswered += 1,
            Delivery::Lost => self.lost += 1,
        }
        delivery
    }

    /// Exports into `registry`'s deterministic bank under the
    /// `transport_*` keys; counters add and the histogram merges, so two
    /// tallies exported into one registry equal one tally that counted
    /// both.
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
    fn counting_is_behaviour_transparent() {
        let plain = Faulty::new(FaultConfig::congested(21));
        let mut totals = TransportTotals::default();
        for a in 0..128 {
            let d1 = plain.exchange(link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
            let d2 = totals.exchange(&plain, link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
            assert_eq!(d1, d2);
        }
        assert_eq!(totals.exchanges, 128);
    }

    #[test]
    fn counts_classify_every_exchange() {
        let t = Faulty::new(FaultConfig::loss_only(5, 0.3));
        let mut stats = TransportTotals::default();
        let n = 500;
        let mut silent = 0;
        for a in 0..n {
            // Every third destination is silent.
            if a % 3 == 0 {
                silent += 1;
                stats.exchange(&t, link(a), b"x", &mut |_| None);
            } else {
                stats.exchange(&t, link(a), b"x", &mut |_| Some(b"y".to_vec()));
            }
        }
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
        let t = Faulty::new(cfg);
        let mut stats = TransportTotals::default();
        for a in 0..50 {
            stats.exchange(&t, link(a), b"x", &mut |_| Some(b"0123456789".to_vec()));
        }
        assert_eq!(stats.truncated, 50);
        // Ideal never truncates.
        let mut stats = TransportTotals::default();
        stats.exchange(&Ideal, link(0), b"x", &mut |_| Some(b"0123456789".to_vec()));
        assert_eq!(stats.truncated, 0);
        assert_eq!(stats.answered, 1);
    }

    #[test]
    fn export_writes_deterministic_transport_metrics() {
        let mut stats = TransportTotals::default();
        for a in 0..3 {
            stats.exchange(&Ideal, link(a), b"x", &mut |_| Some(b"y".to_vec()));
        }
        let mut reg = Registry::new();
        stats.export_into(&mut reg);
        assert_eq!(reg.counter(TRANSPORT_EXCHANGES), 3);
        assert_eq!(reg.counter(TRANSPORT_ANSWERED), 3);
        assert_eq!(reg.hist(TRANSPORT_RTT_SECONDS).unwrap().count(), 3);
        assert!(reg.snapshot().len() >= 7);
    }
}
