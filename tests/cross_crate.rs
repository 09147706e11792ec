//! Cross-crate interoperation: the scanner's probers must round-trip
//! against every service the world can generate, and the hitlist must be
//! consistent with the world it was built from.

use hitlist::{Hitlist, HitlistConfig};
use netsim::time::SimTime;
use netsim::world::{World, WorldConfig};
use scanner::probers;
use scanner::result::{Protocol, ServiceResult};

#[test]
fn every_listening_service_answers_its_prober() {
    let world = World::generate(WorldConfig::tiny(77));
    let t = SimTime(3_600);
    let mut exercised = std::collections::HashSet::new();
    world.for_each_device(|dev| {
        let addr = world.address_of(dev.id, t);
        for proto in Protocol::ALL {
            if dev.services.listens_on(proto.port()) {
                let result = probers::probe(&world, addr, proto, t).unwrap_or_else(|| {
                    panic!("{:?} listens on {} but prober failed", dev.kind, proto)
                });
                // The typed result matches the probed protocol family.
                let ok = matches!(
                    (&result, proto),
                    (ServiceResult::Http { .. }, Protocol::Http)
                        | (ServiceResult::Https { .. }, Protocol::Https)
                        | (ServiceResult::Ssh { .. }, Protocol::Ssh)
                        | (ServiceResult::Mqtt { .. }, Protocol::Mqtt)
                        | (ServiceResult::Mqtts { .. }, Protocol::Mqtts)
                        | (ServiceResult::Amqp { .. }, Protocol::Amqp)
                        | (ServiceResult::Amqps { .. }, Protocol::Amqps)
                        | (ServiceResult::Coap { .. }, Protocol::Coap)
                );
                assert!(ok, "mismatched result {result:?} for {proto}");
                exercised.insert((dev.kind, proto));
            } else {
                assert!(
                    probers::probe(&world, addr, proto, t).is_none(),
                    "{:?} does not listen on {} but answered",
                    dev.kind,
                    proto
                );
            }
        }
    });

    // A healthy world exercises many (kind, protocol) pairs.
    assert!(exercised.len() >= 10, "only {:?}", exercised);
}

#[test]
fn hitlist_public_subset_of_full_and_responsive() {
    let world = World::generate(WorldConfig::tiny(78));
    let t = SimTime(0);
    let h = Hitlist::build(&world, t, &HitlistConfig::for_world(&world));
    for addr in h.public.iter() {
        assert!(h.full.contains(addr), "{addr} public but not full");
        // Responsive via an actual probe on at least one protocol.
        let responsive = Protocol::ALL
            .iter()
            .any(|p| probers::probe(&world, addr, *p, t).is_some());
        assert!(responsive, "{addr} in public list but silent");
    }
}

#[test]
fn collected_addresses_trace_back_to_pool_clients() {
    use ntppool::{AddressCollector, CollectionRun, Operator, Pool, PoolServer};
    let world = World::generate(WorldConfig::tiny(79));
    let mut pool = Pool::with_background();
    pool.add(PoolServer {
        netspeed: 1_000_000,
        operator: Operator::Study { location_index: 0 },
        ..PoolServer::background(netsim::country::IN)
    });
    let run = CollectionRun::new(&world, &pool, SimTime(0), SimTime(86_400));
    let mut collector = AddressCollector::new();
    run.run(|s, a, t| {
        collector.record(s, a, t);
    });
    assert!(collector.global().len() > 50);
    // Every collected address resolves to a pool-client device at some
    // point within the window.
    let mut resolved = 0;
    for addr in collector.global().iter().take(500) {
        for hour in 0..24u64 {
            if let Some(dev) = world.device_at(addr, SimTime(hour * 3600)) {
                assert!(dev.ntp.is_some(), "{:?} is not an NTP client", dev.kind);
                resolved += 1;
                break;
            }
        }
    }
    assert!(resolved > 400, "only {resolved}/500 resolved");
}
