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

    fn world() -> World {
        World::generate(WorldConfig::tiny(33))
    }

    #[test]
    fn policy_delays_span_ten_minutes() {
        let p = ScanPolicy::default();
        assert_eq!(p.delay_of(0), Duration::secs(10));
        let last = p.delay_of(p.protocols.len() - 1);
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
