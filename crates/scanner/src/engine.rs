//! The shared probing core: policy, rate limit, probe, record.
//!
//! Both scans — the real-time one replaying the collector's feed and the
//! batch hitlist scan ([`crate::BatchScan`]) — drive one [`Engine`], so
//! budget and retry semantics cannot drift between them. The schedule
//! follows Appendix A.2.1: a global 100 kpps budget and 10 s to 10 min
//! of spacing between the per-protocol probes of one target. Every
//! target handed to the engine is probed: the feed carries first sights
//! only and the hitlist is a set, so the paper's 3-day re-scan cooldown
//! would never fire and the engine keeps none.
//!
//! Every probe reaches the world through a [`Transport`]
//! (default [`netsim::transport::Ideal`], bit-identical to a direct
//! call). Under a faulty transport the engine behaves like the zgrab2
//! deployment: per-protocol timeouts, a bounded number of retries with
//! exponential backoff, and a typed [`FailureCause`] when a train gives
//! up.
//!
//! A target is resolved once per address span, not once per attempt: the
//! engine keeps the [`Resolution`] it got at the first delivered probe
//! and reuses it while it [holds](Resolution::holds_at) at the admitted
//! time. Every attempt still crosses the transport.

use crate::probers;
use crate::ratelimit::{Ledger, STUDY_PPS};
use crate::result::{FailureCause, Protocol, ScanRecord};
use crate::store::ScanStore;
use netsim::time::{Duration, SimTime};
use netsim::transport::{Delivery, Ideal, Link, Transport};
use netsim::world::{Resolution, World};
use std::net::Ipv6Addr;

/// The scanner's source address, visible to the transport's fault hash
/// (the study scanned from one measurement prefix).
pub const SCANNER_SRC: Ipv6Addr = Ipv6Addr::new(0x2001, 0xdb8, 0x5ca, 0, 0, 0, 0, 1);

/// Seconds before the first probe of a target.
const BASE_DELAY: u64 = 10;
/// Additional seconds between consecutive protocol probes (base 10 s +
/// 7 × 85 s ≈ 10 min for the full set).
const PROTOCOL_SPACING: u64 = 85;
/// Timeout for plain TCP protocols, in seconds.
const TCP_TIMEOUT: u64 = 5;
/// Timeout for TLS-wrapped protocols (handshake on top), in seconds.
const TLS_TIMEOUT: u64 = 8;
/// Timeout for UDP protocols (CoAP), in seconds.
const UDP_TIMEOUT: u64 = 2;
/// Backoff after the first failed attempt, in seconds; doubles per retry.
const BACKOFF: u64 = 2;

/// Retry policy for one probe train, mirroring zgrab2's connection
/// handling: a per-protocol timeout, a bounded number of attempts, and
/// exponential backoff between them. Only the attempt count is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per `(target, protocol)` train, including the
    /// first (values < 1 behave as 1).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 3 }
    }
}

impl RetryPolicy {
    /// A policy with `attempts` total attempts.
    pub fn with_attempts(attempts: u32) -> RetryPolicy {
        RetryPolicy { attempts }
    }

    /// The per-protocol timeout.
    pub fn timeout_for(p: Protocol) -> Duration {
        Duration::secs(if p.is_udp() {
            UDP_TIMEOUT
        } else if p.is_tls() {
            TLS_TIMEOUT
        } else {
            TCP_TIMEOUT
        })
    }

    /// Backoff after the `attempt`-th failure (0-based): exponential
    /// doubling, `2 s * 2^attempt`.
    pub fn backoff_after(attempt: u32) -> Duration {
        Duration::secs(BACKOFF << attempt.min(16))
    }
}

/// Scheduling policy: the outgoing budget and the retries. Every target
/// is probed with [`Protocol::ALL`] in that order, protocol `i` at
/// [`ScanPolicy::delay_of`]`(i)` after the target's start.
#[derive(Debug, Clone)]
pub struct ScanPolicy {
    /// Outgoing probe budget.
    pub rate_pps: u64,
    /// Retry behaviour per probe train.
    pub retry: RetryPolicy,
}

impl Default for ScanPolicy {
    fn default() -> Self {
        ScanPolicy {
            rate_pps: STUDY_PPS,
            retry: RetryPolicy::default(),
        }
    }
}

impl ScanPolicy {
    /// The probe time offset of the `i`-th protocol of [`Protocol::ALL`].
    pub fn delay_of(i: usize) -> Duration {
        Duration::secs(BASE_DELAY + i as u64 * PROTOCOL_SPACING)
    }
}

/// The probing core shared by every scan front-end: schedules the
/// per-protocol probe train of each target through the per-second
/// admission ledger and the transport, and records results.
pub struct Engine {
    attempts: u32,
    ledger: Ledger,
    store: ScanStore,
    transport: Box<dyn Transport>,
    /// Probe bytes are constant per protocol: prebuilt once here, in
    /// [`Protocol::ALL`] order, instead of per target.
    probes: [Vec<u8>; 8],
}

impl Engine {
    /// Engine with a policy over the ideal (fault-free) transport.
    pub fn new(policy: ScanPolicy) -> Engine {
        Engine::with_transport(policy, Box::new(Ideal))
    }

    /// Engine probing through an explicit transport.
    pub fn with_transport(policy: ScanPolicy, transport: Box<dyn Transport>) -> Engine {
        Engine {
            attempts: policy.retry.attempts.max(1),
            ledger: Ledger::new(policy.rate_pps),
            store: ScanStore::new(),
            transport,
            probes: Protocol::ALL.map(probers::build_probe),
        }
    }

    /// Probes one target with every protocol; an address handed over
    /// twice is probed, and counted, twice. The target is resolved at the
    /// first probe the transport delivers, and again only at a delivery
    /// its resolution no longer holds at. Targets arrive in `at` order
    /// (the feed by `seen`, a batch all at its start): seconds below `at`
    /// are released.
    pub fn scan_target(&mut self, world: &World, addr: Ipv6Addr, at: SimTime) {
        self.ledger.release_before(at);
        self.store.note_target();
        let mut held = None;
        for i in 0..Protocol::ALL.len() {
            self.probe_train(world, &mut held, addr, i, at + ScanPolicy::delay_of(i));
        }
    }

    /// Runs one probe train: up to `retry.attempts` sends of protocol
    /// `i`'s prebuilt probe, spaced by timeout + exponential backoff,
    /// recording either a [`ScanRecord`] or a [`FailureCause`]. `held` is
    /// the target's last resolution, kept across trains.
    fn probe_train<'w>(
        &mut self,
        world: &'w World,
        held: &mut Option<Resolution<'w>>,
        addr: Ipv6Addr,
        i: usize,
        want: SimTime,
    ) {
        let (proto, probe) = (Protocol::ALL[i], &self.probes[i]);
        let port = proto.port();
        let timeout = RetryPolicy::timeout_for(proto);
        let attempts = self.attempts;
        let transport = self.transport.as_ref();
        let mut submit = want;
        for attempt in 0..attempts {
            let t = self.ledger.admit(submit);
            self.store.note_attempt(proto);
            let link = Link {
                src: SCANNER_SRC,
                dst: addr,
                port,
                attempt: u64::from(attempt),
            };
            let delivery = self
                .store
                .transport
                .exchange(transport, link, probe, &mut |bytes| {
                    // Two-sided: nothing here leans on admitted times
                    // rising from one attempt to the next.
                    let current = match held.take() {
                        Some(r) if r.holds_at(t) => r,
                        _ => world.resolve(addr, t),
                    };
                    held.insert(current).respond(port, bytes)
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
                    let back = RetryPolicy::backoff_after(attempt);
                    if attempt + 1 < attempts {
                        self.store.note_backoff(proto, back.as_secs());
                    }
                    submit = t + timeout + back;
                }
            }
        }
        self.store.note_failure(proto, FailureCause::Timeout);
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

    /// The engine keeps no dedup: callers hand it each address once.
    #[test]
    fn engine_counts_an_address_handed_twice_as_two_targets() {
        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let addr = w.address_of(w.household_members(0)[0], t);
        let mut engine = Engine::new(ScanPolicy::default());
        engine.scan_target(&w, addr, t);
        engine.scan_target(&w, addr, t + Duration::hours(1));
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

    /// Targets whose trains straddle a prefix rotation, scanned at the
    /// address a device has before it and at the one it has after: every
    /// record is what a fresh probe sees at its admitted time, on both
    /// sides. One engine per target, so each train is admitted at the
    /// time it asks for.
    #[test]
    fn trains_straddling_a_rotation_see_what_a_fresh_probe_sees() {
        let w = World::generate(WorldConfig::tiny(33));
        let rotation = SimTime(Duration::days(1).as_secs());
        // HTTP and HTTPS go before the rotation, SSH onwards after it.
        let at = rotation - Duration::secs(100);
        let (mut before, mut after) = (0, 0);
        for meta in w.metas() {
            for addr in [
                w.address_of_meta(&meta, at),
                w.address_of_meta(&meta, rotation),
            ] {
                let mut engine = Engine::new(ScanPolicy::default());
                engine.scan_target(&w, addr, at);
                let fresh: Vec<ScanRecord> = (0..Protocol::ALL.len())
                    .filter_map(|i| {
                        let (protocol, t) = (Protocol::ALL[i], at + ScanPolicy::delay_of(i));
                        let probe = probers::build_probe(protocol);
                        let bytes = w.respond(addr, protocol.port(), &probe, t)?;
                        Some(ScanRecord {
                            addr,
                            time: t,
                            protocol,
                            result: probers::parse_response(protocol, &bytes)?,
                            attempts: 1,
                            rtt: Duration::ZERO,
                        })
                    })
                    .collect();
                assert_eq!(engine.into_store().records(), fresh, "{addr} from {at}");
                before += fresh.iter().filter(|r| r.time < rotation).count();
                after += fresh.iter().filter(|r| r.time >= rotation).count();
            }
        }
        assert!(
            before > 0 && after > 0,
            "{before} records before, {after} after"
        );
    }

    #[test]
    fn backoff_doubles_and_timeouts_depend_on_protocol() {
        assert_eq!(RetryPolicy::backoff_after(0), Duration::secs(2));
        assert_eq!(RetryPolicy::backoff_after(1), Duration::secs(4));
        assert_eq!(RetryPolicy::backoff_after(2), Duration::secs(8));
        let timeout = RetryPolicy::timeout_for;
        assert!(timeout(Protocol::Https) > timeout(Protocol::Http));
        assert!(timeout(Protocol::Coap) < timeout(Protocol::Http));
        assert_eq!(RetryPolicy::with_attempts(1).attempts, 1);
    }
}
