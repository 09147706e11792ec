//! Scale guard: collecting from the 1:100-of-the-paper world costs
//! memory in proportion to what the window touches, not to the devices
//! the world declares. Its own test binary, and the only test in it, so
//! the process-wide peak it reads belongs to this run alone.

use netsim::country;
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use ntppool::{CollectionRun, Operator, Pool, PoolServer};

/// Ceiling on the process's peak resident set. The two-minute window
/// fires the first polls of a few tens of thousands of clients and the
/// run peaks near a fifth of the bound, because the event queue holds
/// only those. A queue entry per declared NTP client (10.4 M × 32 B)
/// would take five times the bound, and an entry per declared device
/// more still, before the first poll.
const PEAK_RESIDENT_BOUND: u64 = 64 << 20;

/// Peak resident set size of this process in bytes (Linux `VmHWM`), or
/// `None` where `/proc` is unavailable.
fn peak_resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn paper_centi_collection_stays_within_the_peak_resident_bound() {
    let world = World::generate(WorldConfig::paper_centi(2024));
    let devices = world.device_count();
    let small = World::generate(WorldConfig::small(2024)).device_count();
    assert!(
        devices >= 20 * small,
        "the scale world must declare at least 20x the devices of `small` ({devices} vs {small})"
    );

    let mut pool = Pool::with_background();
    for (i, c) in country::COLLECTOR_LOCATIONS.iter().enumerate() {
        pool.add(PoolServer {
            netspeed: 50_000,
            operator: Operator::Study {
                location_index: i as u8,
            },
            ..PoolServer::background(*c)
        });
    }
    let end = SimTime(Duration::mins(2).as_secs());
    let stats = CollectionRun::new(&world, &pool, SimTime(0), end).run(|_, _, _| {});
    assert!(stats.observed > 0, "the window collected nothing");

    if let Some(peak) = peak_resident_bytes() {
        assert!(
            peak < PEAK_RESIDENT_BOUND,
            "peak resident memory {peak} B over a {devices}-device world exceeds \
             the {PEAK_RESIDENT_BOUND} B bound"
        );
    }
}
