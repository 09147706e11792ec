//! Deterministic synthetic BGP feed: announce/withdraw events over the
//! world's routed prefixes.
//!
//! BGP-signal-adaptive scanners (Egloff et al., PAPERS.md) watch route
//! collectors and re-target freshly announced space within minutes.
//! This module gives the adversarial-scanner ecosystem the signal side
//! of that loop: a reproducible event stream derived purely from
//! `(seed, AS, allocation)` coordinates, so every run — at any
//! worker or thread count — sees the same announcements at the same
//! simulated times.
//!
//! The feed covers a *window* of simulated time. A deterministic subset
//! of ASes "flaps" once inside the window: the allocation is withdrawn
//! and re-announced a few hours later. Consumers may also append their
//! own events (e.g. a telescope announcing its dark prefix mid-study)
//! via [`BgpFeed::push`]; [`BgpFeed::seal`] restores time order.

use crate::time::{Duration, SimTime};
use crate::topology::Asn;
use crate::world::World;
use crate::{mix2, mix64};
use v6addr::Prefix;

/// RNG domain separator for the synthesized feed.
const DOM_BGP: u64 = 0x6267_7065_7665;

/// One route event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpEvent {
    /// When the event hits the feed.
    pub time: SimTime,
    /// The affected prefix.
    pub prefix: Prefix,
    /// Originating AS (0 for injected non-topology events).
    pub asn: Asn,
    /// `true` = announce, `false` = withdraw.
    pub announce: bool,
}

/// A time-ordered, deterministic route-event stream.
#[derive(Debug, Clone, Default)]
pub struct BgpFeed {
    events: Vec<BgpEvent>,
}

impl BgpFeed {
    /// An empty feed.
    pub fn new() -> BgpFeed {
        BgpFeed::default()
    }

    /// Synthesizes the window's events from the world's topology: about
    /// one AS in eight flaps one allocation (withdraw, then re-announce
    /// 2–8 hours later), at a time derived from `(seed, asn)`. Pure
    /// function of the world config — no RNG state is consumed.
    pub fn synthesize(world: &World, window: (SimTime, SimTime)) -> BgpFeed {
        let (start, end) = window;
        let span = end.since(start).as_secs().max(1);
        let seed = world.config.seed ^ DOM_BGP;
        let mut events = Vec::new();
        for info in world.topology.ases() {
            let h = mix2(seed, u64::from(info.asn.0));
            if !h.is_multiple_of(8) {
                continue;
            }
            let Some(&alloc) = info.allocations.first() else {
                continue;
            };
            let down = start + Duration::secs(mix64(h) % span);
            let up = down + Duration::hours(2 + mix2(h, 1) % 7);
            events.push(BgpEvent {
                time: down,
                prefix: alloc,
                asn: info.asn,
                announce: false,
            });
            if up < end {
                events.push(BgpEvent {
                    time: up,
                    prefix: alloc,
                    asn: info.asn,
                    announce: true,
                });
            }
        }
        let mut feed = BgpFeed { events };
        feed.seal();
        feed
    }

    /// Appends an event (e.g. a telescope announcing its own dark
    /// prefix). Call [`BgpFeed::seal`] afterwards to restore ordering.
    pub fn push(&mut self, event: BgpEvent) {
        self.events.push(event);
    }

    /// Sorts events into the canonical `(time, asn, prefix, announce)`
    /// order every consumer iterates in.
    pub fn seal(&mut self) {
        self.events
            .sort_by_key(|e| (e.time, e.asn, e.prefix, e.announce));
    }

    /// All events in time order.
    pub fn events(&self) -> &[BgpEvent] {
        &self.events
    }

    /// The events with `a <= time < b` (the feed must be sealed).
    pub fn between(&self, a: SimTime, b: SimTime) -> &[BgpEvent] {
        let lo = self.events.partition_point(|e| e.time < a);
        let hi = self.events.partition_point(|e| e.time < b);
        &self.events[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    #[test]
    fn synthesized_feed_is_deterministic_and_ordered() {
        let w = World::generate(WorldConfig::tiny(5));
        let win = (SimTime(0), SimTime(7 * 86_400));
        let a = BgpFeed::synthesize(&w, win);
        let b = BgpFeed::synthesize(&w, win);
        assert_eq!(a.events(), b.events());
        assert!(!a.events().is_empty(), "some AS should flap");
        for pair in a.events().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        // Every withdraw precedes its re-announce.
        for e in a.events() {
            if e.announce {
                assert!(a
                    .events()
                    .iter()
                    .any(|d| !d.announce && d.prefix == e.prefix && d.time < e.time));
            }
        }
    }

    #[test]
    fn between_slices_the_window() {
        let w = World::generate(WorldConfig::tiny(5));
        let win = (SimTime(0), SimTime(7 * 86_400));
        let feed = BgpFeed::synthesize(&w, win);
        let mid = SimTime(3 * 86_400);
        let n = feed.between(win.0, mid).len() + feed.between(mid, win.1).len();
        assert_eq!(n, feed.events().len());
    }

    #[test]
    fn pushed_events_merge_in_time_order() {
        let w = World::generate(WorldConfig::tiny(5));
        let mut feed = BgpFeed::synthesize(&w, (SimTime(0), SimTime(86_400)));
        let dark: Prefix = "3fff:909::/48".parse().unwrap();
        feed.push(BgpEvent {
            time: SimTime(10),
            prefix: dark,
            asn: Asn(0),
            announce: true,
        });
        feed.seal();
        assert_eq!(feed.events()[0].prefix, dark);
    }
}
