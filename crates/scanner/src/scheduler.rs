//! The batch front-end over the shared [`Engine`]: the hitlist scan.
//!
//! The policy and probing core live in [`crate::engine`]. The real-time
//! scan needs no front-end of its own: a study replays the collector's
//! first-sight feed through [`Engine::scan_target`], one call per
//! observation at its `seen` instant, so it probes exactly what a
//! scanner running beside the collector would.

use crate::engine::{Engine, ScanPolicy};
use crate::store::ScanStore;
use netsim::time::SimTime;
use netsim::transport::Transport;
use netsim::world::World;
use std::net::Ipv6Addr;

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
    /// admission ledger alone paces the batch: every target is *submitted*
    /// at `start`, and a probe whose second is full goes out in the next
    /// second with room, so batch duration emerges from `rate_pps` rather
    /// than any per-target spacing constant.
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
    use crate::probers::probe;
    use crate::result::Protocol;
    use netsim::time::Duration;
    use netsim::world::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::tiny(33))
    }

    #[test]
    fn policy_delays_span_ten_minutes() {
        assert_eq!(ScanPolicy::delay_of(0), Duration::secs(10));
        let last = ScanPolicy::delay_of(Protocol::ALL.len() - 1);
        assert!(last.as_secs() >= 595 && last.as_secs() <= 610, "{last}");
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
        // Twenty targets that answer some protocol, so records show the
        // admitted times.
        let addrs: Vec<Ipv6Addr> = w
            .metas()
            .map(|d| w.address_of_meta(&d, t))
            .filter(|&a| Protocol::ALL.iter().any(|&p| probe(&w, a, p, t).is_some()))
            .take(20)
            .collect();
        let store = BatchScan::new(policy).run(&w, addrs.iter().copied(), t);
        // All 20×8 probes attempted despite the 5 pps budget.
        let total: u64 = Protocol::ALL.iter().map(|p| store.attempts(*p)).sum();
        assert_eq!(total, 160);
        // Each protocol's 20 probes fill the 4 seconds from its own
        // delay, 5 a second in submission order.
        let mut last_second = 0;
        for r in store.records() {
            let i = Protocol::ALL.iter().position(|&q| q == r.protocol).unwrap();
            let k = addrs.iter().position(|&a| a == r.addr).unwrap() as u64;
            let delay = ScanPolicy::delay_of(i);
            assert_eq!(r.time, t + delay + Duration::secs(k / 5), "{r:?}");
            last_second = last_second.max(k / 5);
        }
        assert_eq!(last_second, 3, "records reach the fourth second");
    }
}
