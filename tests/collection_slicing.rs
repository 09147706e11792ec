//! The collection engine's one resumable step, pinned where Tier-1 runs
//! it: on a pool that sheds load (so KoD backoff reschedules clients at
//! 4× their interval), begin → `advance` at uneven stops → finish equals
//! a single `run` in feed, statistics and KoD histogram; and a
//! checkpoint pushed through a zero-length `advance` comes back with
//! its pending events in the same order — the event queue's (time,
//! insertion order) contract seen from its only production caller.

use netsim::country::COLLECTOR_LOCATIONS;
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use ntppool::{AddressCollector, CollectionRun, Operator, Pool, PoolServer};
use telemetry::Registry;

/// Study servers only, each shedding load above one request a second.
fn kod_pool() -> Pool {
    let mut pool = Pool::new();
    for (i, c) in COLLECTOR_LOCATIONS.iter().enumerate() {
        pool.add(PoolServer {
            netspeed: 50_000,
            operator: Operator::Study {
                location_index: i as u8,
            },
            max_rps: 1,
            ..PoolServer::background(*c)
        });
    }
    pool
}

#[test]
fn sliced_advance_equals_run_under_kod() {
    let world = World::generate(WorldConfig::tiny(9));
    let pool = kod_pool();
    let end = SimTime(Duration::days(2).as_secs());
    let run = CollectionRun::new(&world, &pool, SimTime(0), end);

    // Reference: the closure consumer recording into its own collector.
    let mut flat = AddressCollector::new();
    let mut base_feed = Vec::new();
    let base_stats = run.run(|s, a, t| base_feed.extend(flat.record(s, a, t)));
    assert!(base_stats.kod > 0, "the pool sheds no load");
    assert!(!base_feed.is_empty());
    // `run` keeps no registry; the reference histogram is one `advance`
    // over the whole window.
    let mut base_reg = Registry::new();
    let mut whole = run.begin();
    run.advance(
        &mut whole,
        end,
        &mut AddressCollector::new(),
        &mut Vec::new(),
    );
    assert_eq!(whole.finish(&mut base_reg), base_stats);
    let kod_samples = base_reg
        .hist(ntppool::metrics::NTP_KOD_BACKOFF_SECONDS)
        .map_or(0, |h| h.count());
    assert_eq!(kod_samples, base_stats.kod);

    // Off any calendar-slot grid, behind the cursor, mid-window, and
    // past the window end.
    let stops = [
        SimTime(Duration::hours(7).as_secs() + 13),
        SimTime(Duration::hours(3).as_secs()),
        SimTime(Duration::hours(29).as_secs() + 64),
        end + Duration::days(1),
    ];
    let mut feed = Vec::new();
    let mut collector = AddressCollector::new();
    let mut ckpt = run.begin();
    for stop in stops {
        run.advance(&mut ckpt, stop, &mut collector, &mut feed);
    }
    assert_eq!(ckpt.cursor, end);
    let mut reg = Registry::new();
    assert_eq!(ckpt.finish(&mut reg), base_stats);
    assert_eq!(feed, base_feed);
    assert_eq!(reg.snapshot(), base_reg.snapshot());
}

#[test]
fn zero_length_advance_keeps_pending_order() {
    let world = World::generate(WorldConfig::tiny(9));
    let pool = kod_pool();
    let end = SimTime(Duration::days(2).as_secs());
    let run = CollectionRun::new(&world, &pool, SimTime(0), end);
    let begun = run.begin();
    assert!(!begun.pending.is_empty());
    assert!(
        begun
            .pending
            .windows(2)
            .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
        "first polls are scheduled in device order, so pending sorts by (time, device)"
    );
    let mut ckpt = begun.clone();
    let mut feed = Vec::new();
    run.advance(
        &mut ckpt,
        SimTime(0),
        &mut AddressCollector::new(),
        &mut feed,
    );
    assert_eq!(ckpt, begun);
    assert!(feed.is_empty());
}
