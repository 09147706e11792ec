//! The shared probing core: policy, cooldown, rate limit, probe, record.
//!
//! Both scans — the real-time one replaying the collector's feed and the
//! batch hitlist scan ([`crate::BatchScan`]) — drive one [`Engine`], so
//! cooldown and budget semantics cannot drift between them. Policy knobs follow Appendix
//! A.2.1: a global 100 kpps budget, 10 s to 10 min of spacing between the
//! per-protocol probes of one target, and a 3-day per-address cooldown.
//!
//! Every probe reaches the world through a [`Transport`]
//! (default [`netsim::transport::Ideal`], bit-identical to a direct
//! call). Under a faulty transport the engine behaves like the zgrab2
//! deployment: per-protocol timeouts, a bounded number of retries with
//! exponential backoff, and a typed [`FailureCause`] when a train gives
//! up.

use crate::probers;
use crate::ratelimit::TokenBucket;
use crate::result::{FailureCause, Protocol, ScanRecord};
use crate::store::ScanStore;
use netsim::time::{Duration, SimTime};
use netsim::transport::{Delivery, Ideal, Link, Transport};
use netsim::world::World;
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// The scanner's source address, visible to the transport's fault hash
/// (the study scanned from one measurement prefix).
pub const SCANNER_SRC: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x5ca, 0, 0, 0, 0, 1);

/// Retry/timeout/backoff policy for one probe train, mirroring zgrab2's
/// connection handling: a per-protocol timeout, a bounded number of
/// attempts, and exponential backoff between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per `(target, protocol)` train, including the
    /// first (values < 1 behave as 1).
    pub attempts: u32,
    /// Timeout for plain TCP protocols.
    pub tcp_timeout: Duration,
    /// Timeout for TLS-wrapped protocols (handshake on top).
    pub tls_timeout: Duration,
    /// Timeout for UDP protocols (CoAP).
    pub udp_timeout: Duration,
    /// Backoff after the first failed attempt; doubles per retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            tcp_timeout: Duration::secs(5),
            tls_timeout: Duration::secs(8),
            udp_timeout: Duration::secs(2),
            backoff: Duration::secs(2),
        }
    }
}

impl RetryPolicy {
    /// A single-attempt policy (no retries).
    pub fn single() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A policy with `attempts` total attempts.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            ..RetryPolicy::default()
        }
    }

    /// The per-protocol timeout.
    pub fn timeout_for(&self, p: Protocol) -> Duration {
        if p.is_udp() {
            self.udp_timeout
        } else if p.is_tls() {
            self.tls_timeout
        } else {
            self.tcp_timeout
        }
    }

    /// Backoff after the `attempt`-th failure (0-based): exponential
    /// doubling, `backoff * 2^attempt`.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        Duration::secs(self.backoff.as_secs() << attempt.min(16))
    }
}

/// Scheduling policy.
#[derive(Debug, Clone)]
pub struct ScanPolicy {
    /// Protocols to probe, in probe order.
    pub protocols: Vec<Protocol>,
    /// Delay before the first probe of a target.
    pub base_delay: Duration,
    /// Additional spacing between consecutive protocol probes
    /// (base 10 s + 7 × 85 s ≈ 10 min for the full set).
    pub protocol_spacing: Duration,
    /// Do-not-rescan window per address.
    pub cooldown: Duration,
    /// Outgoing probe budget.
    pub rate_pps: u64,
    /// Retry/timeout/backoff behaviour per probe train.
    pub retry: RetryPolicy,
}

impl Default for ScanPolicy {
    fn default() -> Self {
        ScanPolicy {
            protocols: Protocol::ALL.to_vec(),
            base_delay: Duration::secs(10),
            protocol_spacing: Duration::secs(85),
            cooldown: Duration::days(3),
            rate_pps: crate::ratelimit::STUDY_PPS,
            retry: RetryPolicy::default(),
        }
    }
}

impl ScanPolicy {
    /// The probe time offset of the `i`-th protocol.
    pub fn delay_of(&self, i: usize) -> Duration {
        Duration::secs(self.base_delay.as_secs() + i as u64 * self.protocol_spacing.as_secs())
    }
}

/// The probing core shared by every scan front-end: applies the
/// per-address cooldown, schedules the per-protocol probe train through
/// the token bucket and the transport, and records results.
pub struct Engine {
    policy: ScanPolicy,
    bucket: TokenBucket,
    last_scan: HashMap<u128, SimTime>,
    store: ScanStore,
    transport: Box<dyn Transport>,
    /// Probe bytes are constant per protocol: prebuilt once here instead
    /// of per target (the SNI counterfactual keeps its dynamic path).
    probes: Vec<(Protocol, Vec<u8>)>,
}

impl Engine {
    /// Engine with a policy over the ideal (fault-free) transport.
    pub fn new(policy: ScanPolicy) -> Engine {
        Engine::with_transport(policy, Box::new(Ideal))
    }

    /// Engine probing through an explicit transport.
    pub fn with_transport(policy: ScanPolicy, transport: Box<dyn Transport>) -> Engine {
        let bucket = TokenBucket::new(policy.rate_pps, policy.rate_pps);
        let probes = policy
            .protocols
            .iter()
            .map(|&p| (p, probers::build_probe(p)))
            .collect();
        Engine {
            policy,
            bucket,
            last_scan: HashMap::new(),
            store: ScanStore::new(),
            transport,
            probes,
        }
    }

    /// Probes one target with every configured protocol, unless it is
    /// still in its cooldown window.
    pub fn scan_target(&mut self, world: &World, addr: Ipv6Addr, at: SimTime) {
        let key = u128::from(addr);
        if let Some(&prev) = self.last_scan.get(&key) {
            if at.since(prev) < self.policy.cooldown {
                return;
            }
        }
        self.last_scan.insert(key, at);
        self.store.note_target();
        for i in 0..self.probes.len() {
            let want = at + self.policy.delay_of(i);
            self.probe_train(world, addr, i, want);
        }
    }

    /// Runs one probe train: up to `retry.attempts` sends of protocol
    /// `i`'s prebuilt probe, spaced by timeout + exponential backoff,
    /// recording either a [`ScanRecord`] or a [`FailureCause`].
    fn probe_train(&mut self, world: &World, addr: Ipv6Addr, i: usize, want: SimTime) {
        let (proto, probe) = &self.probes[i];
        let proto = *proto;
        let port = proto.port();
        let timeout = self.policy.retry.timeout_for(proto);
        let attempts = self.policy.retry.attempts.max(1);
        let mut submit = want;
        for attempt in 0..attempts {
            let t = self.bucket.admit(submit);
            self.store.note_attempt(proto);
            let link = Link {
                src: SCANNER_SRC,
                dst: addr,
                port,
                attempt: u64::from(attempt),
            };
            let delivery = self.transport.exchange(link, probe, &mut |bytes| {
                world.respond(addr, port, bytes, t)
            });
            match delivery {
                Delivery::Answered { bytes, rtt } if rtt <= timeout => {
                    match probers::parse_response(proto, &bytes) {
                        Some(result) => self.store.push(ScanRecord {
                            addr,
                            time: t + rtt,
                            protocol: proto,
                            result,
                            attempts: attempt + 1,
                            rtt,
                        }),
                        // Undecodable bytes are a protocol-level failure,
                        // not a network one: zgrab2 does not re-dial.
                        None => self.store.note_failure(proto, FailureCause::Malformed),
                    }
                    return;
                }
                Delivery::Unanswered => {
                    self.store.note_failure(proto, FailureCause::NoListener);
                    return;
                }
                // Lost either way, or answered slower than the timeout:
                // wait out the timeout, back off, try again.
                Delivery::Answered { .. } | Delivery::Lost => {
                    let back = self.policy.retry.backoff_after(attempt);
                    if attempt + 1 < attempts {
                        self.store.note_backoff(proto, back.as_secs());
                    }
                    submit = t + timeout + back;
                }
            }
        }
        self.store.note_failure(proto, FailureCause::Timeout);
    }

    /// The policy the engine runs.
    pub fn policy(&self) -> &ScanPolicy {
        &self.policy
    }

    /// Finishes, returning the accumulated result store.
    pub fn into_store(self) -> ScanStore {
        self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::transport::{FaultConfig, Faulty};
    use netsim::world::{World, WorldConfig};

    #[test]
    fn engine_respects_cooldown_and_counts_targets() {
        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let addr = w.address_of(w.household_members(0)[0], t);
        let mut engine = Engine::new(ScanPolicy::default());
        engine.scan_target(&w, addr, t);
        engine.scan_target(&w, addr, t + Duration::hours(1)); // in cooldown
        engine.scan_target(&w, addr, t + Duration::days(4)); // past cooldown
        let store = engine.into_store();
        assert_eq!(store.targets(), 2);
        assert_eq!(store.attempts(Protocol::Http), 2);
    }

    /// The real-time scan: one `scan_target` per feed observation at its
    /// `seen` instant, in feed order.
    #[test]
    fn realtime_scan_finds_exposed_devices() {
        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let feed: Vec<(Ipv6Addr, SimTime)> =
            w.metas().map(|d| (w.address_of_meta(&d, t), t)).collect();
        let mut engine = Engine::new(ScanPolicy::default());
        for &(addr, seen) in &feed {
            engine.scan_target(&w, addr, seen);
        }
        let store = engine.into_store();
        assert_eq!(store.targets(), feed.len() as u64);
        assert!(!store.records().is_empty());
        // Every record's address belongs to the feed.
        let feed_addrs: std::collections::HashSet<_> = feed.iter().map(|&(a, _)| a).collect();
        assert!(store.records().iter().all(|r| feed_addrs.contains(&r.addr)));
    }

    #[test]
    fn ideal_transport_never_retries_and_every_train_resolves() {
        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let addrs: Vec<Ipv6Addr> = w
            .metas()
            .take(50)
            .map(|d| w.address_of_meta(&d, t))
            .collect();
        let mut engine = Engine::new(ScanPolicy::default());
        for a in &addrs {
            engine.scan_target(&w, *a, t);
        }
        let store = engine.into_store();
        // Exactly one attempt per train under the ideal transport.
        let trains = store.targets() * Protocol::ALL.len() as u64;
        let total_attempts: u64 = Protocol::ALL.iter().map(|p| store.attempts(*p)).sum();
        assert_eq!(total_attempts, trains);
        // Invariant: every train ends as a record or a counted failure.
        assert_eq!(
            store.records().len() as u64 + store.failures_total(),
            trains
        );
        // Ideal transport cannot time out or truncate.
        assert_eq!(store.failures(FailureCause::Timeout), 0);
        assert_eq!(store.failures(FailureCause::Malformed), 0);
        assert!(store.failures(FailureCause::NoListener) > 0);
        // Successes carry first-try attempt counts and zero RTT.
        assert!(store
            .records()
            .iter()
            .all(|r| r.attempts == 1 && r.rtt == Duration::ZERO));
    }

    #[test]
    fn lossy_transport_retries_and_records_attempt_counts() {
        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let addrs: Vec<Ipv6Addr> = w
            .metas()
            .take(120)
            .map(|d| w.address_of_meta(&d, t))
            .collect();
        let run = |loss: f64, attempts: u32| {
            let policy = ScanPolicy {
                retry: RetryPolicy::with_attempts(attempts),
                ..ScanPolicy::default()
            };
            let transport = Box::new(Faulty::new(FaultConfig::loss_only(77, loss)));
            let mut engine = Engine::with_transport(policy, transport);
            for a in &addrs {
                engine.scan_target(&w, *a, t);
            }
            engine.into_store()
        };
        let ideal = run(0.0, 1);
        let lossy_once = run(0.25, 1);
        let lossy_retry = run(0.25, 4);
        // Loss with one attempt drops successes and shows timeouts.
        assert!(lossy_once.records().len() < ideal.records().len());
        assert!(lossy_once.failures(FailureCause::Timeout) > 0);
        // Retries claw most of them back...
        assert!(lossy_retry.records().len() > lossy_once.records().len());
        // ...and the recovered records carry attempt counts > 1.
        assert!(lossy_retry.records().iter().any(|r| r.attempts > 1));
        // Retried attempts appear in the per-protocol counters.
        let trains = lossy_retry.targets() * Protocol::ALL.len() as u64;
        let attempts: u64 = Protocol::ALL.iter().map(|p| lossy_retry.attempts(*p)).sum();
        assert!(attempts > trains);
        // The train invariant holds under faults too.
        assert_eq!(
            lossy_retry.records().len() as u64 + lossy_retry.failures_total(),
            trains
        );
    }

    #[test]
    fn faulty_runs_are_bit_deterministic() {
        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let addrs: Vec<Ipv6Addr> = w
            .metas()
            .take(60)
            .map(|d| w.address_of_meta(&d, t))
            .collect();
        let run = || {
            let transport = Box::new(Faulty::new(FaultConfig::congested(5)));
            let mut engine = Engine::with_transport(ScanPolicy::default(), transport);
            for a in &addrs {
                engine.scan_target(&w, *a, t);
            }
            engine.into_store()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records(), b.records());
        for cause in FailureCause::ALL {
            assert_eq!(a.failures(cause), b.failures(cause));
        }
    }

    #[test]
    fn backoff_doubles_and_timeouts_depend_on_protocol() {
        let r = RetryPolicy::default();
        assert_eq!(r.backoff_after(0), Duration::secs(2));
        assert_eq!(r.backoff_after(1), Duration::secs(4));
        assert_eq!(r.backoff_after(2), Duration::secs(8));
        assert!(r.timeout_for(Protocol::Https) > r.timeout_for(Protocol::Http));
        assert!(r.timeout_for(Protocol::Coap) < r.timeout_for(Protocol::Http));
        assert_eq!(RetryPolicy::single().attempts, 1);
    }
}
