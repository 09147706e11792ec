//! The collection engine's one resumable step, pinned where Tier-1 runs
//! it: on a pool that sheds load (so KoD backoff reschedules clients at
//! 4× their interval), begin → `advance` at uneven stops → finish equals
//! a single `run` in feed, statistics and KoD histogram, with no
//! follow-up queued at or past the window end; and a
//! checkpoint pushed through a zero-length `advance` comes back with
//! its pending events in the same order — the event queue's (time,
//! insertion order) contract seen from its only production caller; and
//! a window shorter than the poll interval queues only the first polls
//! it can fire.

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
        // No follow-up is queued that the window could not pop.
        assert!(ckpt.pending().iter().all(|&(t, ..)| t < end), "at {stop}");
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
    let pending = begun.pending();
    assert!(!pending.is_empty());
    assert!(
        pending
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
    assert_eq!(ckpt.cursor, begun.cursor);
    assert_eq!(ckpt.pending(), pending);
    assert_eq!(ckpt.rps, begun.rps);
    assert_eq!(ckpt.totals, begun.totals);
    assert_eq!(ckpt.kod_backoff, begun.kod_backoff);
    assert_eq!(ckpt.transport, begun.transport);
    assert!(feed.is_empty());
}

/// Daemon clients only, and with a share of IoT devices on the
/// one-hour SNTP interval, whose phases hash differently.
#[test]
fn short_window_queues_only_polls_it_can_fire() {
    for sntp_iot_pct in [0, 30] {
        let world = World::generate(WorldConfig {
            sntp_iot_pct,
            ..WorldConfig::tiny(9)
        });
        let pool = kod_pool();
        let start = SimTime(Duration::hours(5).as_secs());
        let end = start + Duration::mins(45);
        let run = CollectionRun::new(&world, &pool, start, end);

        // Exactly the clients whose first poll falls inside the window.
        let begun = run.begin();
        let firing: Vec<_> = world
            .ntp_clients()
            .filter(|(_, cfg)| start + cfg.phase < end)
            .map(|(dev, _)| dev.id)
            .collect();
        let clients = world.ntp_clients().count();
        assert!(!firing.is_empty() && firing.len() < clients / 2);
        let pending = begun.pending();
        let mut queued: Vec<_> = pending.iter().map(|&(_, id, _)| id).collect();
        queued.sort_unstable();
        assert_eq!(
            queued, firing,
            "pct {sntp_iot_pct}: ntp_clients walks in device order"
        );
        assert!(pending.iter().all(|&(t, _, seq)| t < end && seq == 0));

        // Leaving the rest out changes nothing the window produces.
        // Every poll interval is at least an hour, so each queued client
        // polls once.
        let mut flat = AddressCollector::new();
        let mut base_feed = Vec::new();
        let base_stats = run.run(|s, a, t| base_feed.extend(flat.record(s, a, t)));
        assert_eq!(base_stats.polls, firing.len() as u64);
        let mut feed = Vec::new();
        let mut collector = AddressCollector::new();
        let mut ckpt = begun;
        for stop in [start + Duration::mins(17) + Duration::secs(5), end] {
            run.advance(&mut ckpt, stop, &mut collector, &mut feed);
        }
        assert_eq!(ckpt.finish(&mut Registry::new()), base_stats);
        assert_eq!(feed, base_feed);

        // A window of a poll interval or more still queues every client.
        let long = CollectionRun::new(&world, &pool, start, start + Duration::days(2));
        assert_eq!(long.begin().pending_len(), clients);
    }
}
