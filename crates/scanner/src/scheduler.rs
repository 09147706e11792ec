//! Scan scheduling front-ends over the shared [`Engine`]: the real-time
//! NTP-fed scanner and the batch hitlist scan.
//!
//! The policy and probing core live in [`crate::engine`]. "Real time"
//! is simulated time: each probe is scheduled relative to its
//! observation's `seen` instant, so replaying a recorded feed probes
//! exactly what a scanner running beside the collector would.

use crate::engine::{Engine, ScanPolicy};
use crate::store::ScanStore;
use netsim::time::SimTime;
use netsim::transport::Transport;
use netsim::world::World;
use ntppool::Observation;
use std::net::Ipv6Addr;

/// The real-time scanner: consumes the collector's first-sight feed.
pub struct RealTimeScanner {
    engine: Engine,
}

impl RealTimeScanner {
    /// Scanner with a policy over the ideal transport.
    pub fn new(policy: ScanPolicy) -> RealTimeScanner {
        RealTimeScanner {
            engine: Engine::new(policy),
        }
    }

    /// Scanner probing through an explicit transport.
    pub fn with_transport(policy: ScanPolicy, transport: Box<dyn Transport>) -> RealTimeScanner {
        RealTimeScanner {
            engine: Engine::with_transport(policy, transport),
        }
    }

    /// Feeds one observation (call in feed order).
    pub fn feed(&mut self, world: &World, obs: Observation) {
        self.engine.scan_target(world, obs.addr, obs.seen);
    }

    /// Runs over a whole feed, in feed order.
    pub fn run(mut self, world: &World, feed: &[Observation]) -> ScanStore {
        for obs in feed {
            self.feed(world, *obs);
        }
        self.finish()
    }

    /// Finishes and returns the result store.
    pub fn finish(self) -> ScanStore {
        self.engine.into_store()
    }
}

/// The batch scanner used for the TUM hitlist (paper §4.1: full list,
/// scanned during the last collection week).
pub struct BatchScan {
    engine: Engine,
}

impl BatchScan {
    /// Batch scanner with a policy over the ideal transport.
    pub fn new(policy: ScanPolicy) -> BatchScan {
        BatchScan {
            engine: Engine::new(policy),
        }
    }

    /// Batch scanner probing through an explicit transport.
    pub fn with_transport(policy: ScanPolicy, transport: Box<dyn Transport>) -> BatchScan {
        BatchScan {
            engine: Engine::with_transport(policy, transport),
        }
    }

    /// Scans every address, nominally starting at `start`. The engine's
    /// token bucket alone paces the batch: every target is *submitted* at
    /// `start` and the bucket pushes actual probe times out as the budget
    /// fills, so batch duration emerges from `rate_pps` rather than any
    /// per-target spacing constant.
    pub fn run(
        mut self,
        world: &World,
        addrs: impl IntoIterator<Item = Ipv6Addr>,
        start: SimTime,
    ) -> ScanStore {
        for addr in addrs {
            self.engine.scan_target(world, addr, start);
        }
        self.engine.into_store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::Protocol;
    use netsim::time::Duration;
    use netsim::world::{World, WorldConfig};
    use ntppool::ServerId;

    fn world() -> World {
        World::generate(WorldConfig::tiny(33))
    }

    fn obs(addr: Ipv6Addr, seen: SimTime) -> Observation {
        Observation {
            addr,
            seen,
            server: ServerId(0),
        }
    }

    #[test]
    fn policy_delays_span_ten_minutes() {
        let p = ScanPolicy::default();
        assert_eq!(p.delay_of(0), Duration::secs(10));
        let last = p.delay_of(p.protocols.len() - 1);
        assert!(last.as_secs() >= 595 && last.as_secs() <= 610, "{last}");
    }

    #[test]
    fn realtime_scan_finds_exposed_devices() {
        let w = world();
        let t = SimTime(1_000);
        let feed: Vec<Observation> = w
            .metas()
            .map(|d| obs(w.address_of_meta(&d, t), t))
            .collect();
        let store = RealTimeScanner::new(ScanPolicy::default()).run(&w, &feed);
        assert_eq!(store.targets(), feed.len() as u64);
        assert!(!store.records().is_empty());
        // Every record's address belongs to the feed.
        let feed_addrs: std::collections::HashSet<_> = feed.iter().map(|o| o.addr).collect();
        assert!(store.records().iter().all(|r| feed_addrs.contains(&r.addr)));
    }

    #[test]
    fn cooldown_suppresses_rescan() {
        let w = world();
        let t = SimTime(1_000);
        let addr = w.address_of(w.household_members(0)[0], t);
        let mut scanner = RealTimeScanner::new(ScanPolicy::default());
        scanner.feed(&w, obs(addr, t));
        scanner.feed(&w, obs(addr, t + Duration::hours(1))); // within cooldown
        scanner.feed(&w, obs(addr, t + Duration::days(4))); // past cooldown
        let store = scanner.finish();
        assert_eq!(store.targets(), 2);
    }

    #[test]
    fn batch_scan_covers_all_targets() {
        let w = world();
        let t = SimTime(500);
        let addrs: Vec<Ipv6Addr> = w
            .metas()
            .take(100)
            .map(|d| w.address_of_meta(&d, t))
            .collect();
        let store = BatchScan::new(ScanPolicy::default()).run(&w, addrs.iter().copied(), t);
        assert_eq!(store.targets(), 100);
        assert_eq!(store.attempts(Protocol::Http), 100);
        assert_eq!(store.attempts(Protocol::Coap), 100);
    }

    #[test]
    fn rate_limit_defers_probes_not_drops() {
        let w = world();
        let t = SimTime(100);
        let policy = ScanPolicy {
            rate_pps: 5,
            ..ScanPolicy::default()
        };
        let addrs: Vec<Ipv6Addr> = w
            .metas()
            .take(20)
            .map(|d| w.address_of_meta(&d, t))
            .collect();
        let store = BatchScan::new(policy).run(&w, addrs, t);
        // All 20×8 probes attempted despite the 5 pps budget.
        let total: u64 = Protocol::ALL.iter().map(|p| store.attempts(*p)).sum();
        assert_eq!(total, 160);
        // Probe timestamps must stretch far beyond the start.
        if let Some(max_t) = store.records().iter().map(|r| r.time).max() {
            assert!(max_t > t + Duration::secs(10));
        }
    }
}
