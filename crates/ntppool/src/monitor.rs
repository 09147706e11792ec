//! Netspeed tuning (paper §3.1).
//!
//! "After adding the servers, we monitor the number of requests and
//! increase our servers' operator-configurable weight in the NTP Pool
//! until reaching, at peak times, a request rate close to our maximum
//! scanning rate." This module reproduces that control loop: estimate the
//! request rate a collecting server would see from its zone's client
//! population and its netspeed share, then adjust the netspeed until the
//! rate approaches the target.

use crate::pool::{Pool, ServerId};
use netsim::country::Country;
use netsim::world::World;
use std::collections::HashMap;

/// Client poll rate per country (polls per second) derived from the
/// world's NTP client population.
pub fn client_rates(world: &World) -> HashMap<Country, f64> {
    let mut rates: HashMap<Country, f64> = HashMap::new();
    for (dev, cfg) in world.ntp_clients() {
        *rates.entry(dev.country).or_insert(0.0) += 1.0 / cfg.poll_interval.as_secs().max(1) as f64;
    }
    rates
}

/// Expected request rate (requests/second) at `server` given current
/// netspeeds: the zone's client poll rate times the server's zone share.
///
/// Only clients whose zone resolves to the server's own country zone are
/// counted — the dominant term in every realistic configuration.
pub fn expected_rps(pool: &Pool, rates: &HashMap<Country, f64>, server: ServerId) -> f64 {
    let c = pool.server(server).country;
    let zone_rate = rates.get(&c).copied().unwrap_or(0.0);
    zone_rate * pool.zone_share(server)
}

/// Result of tuning one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOutcome {
    /// The tuned server.
    pub server: ServerId,
    /// Final netspeed.
    pub netspeed: u64,
    /// Expected request rate after tuning.
    pub expected_rps: f64,
}

/// Tunes every collecting server's netspeed so its expected request rate
/// approaches `target_rps` (never exceeding a 95 % zone share — a single
/// server cannot absorb a whole zone).
pub fn tune_collecting_servers(
    pool: &mut Pool,
    world: &World,
    target_rps: f64,
) -> Vec<TuneOutcome> {
    let rates = client_rates(world);
    let ids: Vec<ServerId> = pool.collecting_servers().map(|(id, _)| id).collect();
    let mut outcomes = Vec::new();
    for id in ids {
        // Iterate: share depends on our own netspeed.
        for _ in 0..24 {
            let c = pool.server(id).country;
            let zone_rate = rates.get(&c).copied().unwrap_or(0.0);
            if zone_rate <= 0.0 {
                break;
            }
            let wanted_share = (target_rps / zone_rate).clamp(0.0, 0.95);
            let others: u64 = pool.zone_netspeed(c) - pool.server(id).netspeed;
            let new_speed = if wanted_share >= 0.95 && others == 0 {
                pool.server(id).netspeed
            } else {
                ((wanted_share / (1.0 - wanted_share)) * others as f64).ceil() as u64
            };
            let new_speed = new_speed.clamp(250, 2_000_000_000);
            if new_speed == pool.server(id).netspeed {
                break;
            }
            pool.set_netspeed(id, new_speed);
        }
        outcomes.push(TuneOutcome {
            server: id,
            netspeed: pool.server(id).netspeed,
            expected_rps: expected_rps(pool, &rates, id),
        });
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Operator, PoolServer};
    use netsim::country;
    use netsim::world::{World, WorldConfig};

    fn setup() -> (World, Pool, Vec<ServerId>) {
        let world = World::generate(WorldConfig::tiny(3));
        let mut pool = Pool::with_background();
        let mut ids = Vec::new();
        for (i, c) in country::COLLECTOR_LOCATIONS.iter().enumerate() {
            ids.push(pool.add(PoolServer {
                operator: Operator::Study {
                    location_index: i as u8,
                },
                ..PoolServer::background(*c)
            }));
        }
        (world, pool, ids)
    }

    #[test]
    fn client_rates_cover_populated_countries() {
        let (world, ..) = setup();
        let rates = client_rates(&world);
        assert!(!rates.is_empty());
        assert!(rates.values().all(|r| *r > 0.0));
    }

    #[test]
    fn tuning_moves_rate_toward_target() {
        let (world, mut pool, ids) = setup();
        let rates = client_rates(&world);
        // Pick a target below the busiest zone's rate so it's reachable.
        let target = rates.values().cloned().fold(0.0, f64::max) / 4.0;
        let outcomes = tune_collecting_servers(&mut pool, &world, target);
        assert_eq!(outcomes.len(), 11);
        for o in &outcomes {
            let zone_rate = rates
                .get(&pool.server(o.server).country)
                .copied()
                .unwrap_or(0.0);
            let reachable = zone_rate * 0.95;
            let goal = target.min(reachable);
            if goal > 0.0 {
                // Tuning converges to the goal from either direction; the
                // 250-netspeed floor bounds how far down a tiny zone can go.
                assert!(
                    o.expected_rps >= goal * 0.5 || pool.server(o.server).netspeed == 250,
                    "server {:?} rps {} below goal {goal}",
                    o.server,
                    o.expected_rps
                );
            }
        }
        // The busiest zone's collector actually reaches the target.
        let best = outcomes.iter().map(|o| o.expected_rps).fold(0.0, f64::max);
        assert!(best > target * 0.9, "best {best} vs target {target}");
        let _ = ids;
    }

    #[test]
    fn india_server_ends_up_with_dominant_share() {
        let (world, mut pool, ids) = setup();
        tune_collecting_servers(&mut pool, &world, 1e9); // ask for "everything"
        let india = ids[3]; // COLLECTOR_LOCATIONS[3] == IN
        assert_eq!(pool.server(india).country, country::IN);
        assert!(pool.zone_share(india) > 0.9);
    }
}
