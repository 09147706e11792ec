//! Fixed-count, single-thread probes: nanoseconds per call of the
//! public operation each layer's hot path is made of.
//!
//! The probes are the same on every workload — they measure the code,
//! not the workload — and take their inputs from `--seed` like the
//! workloads do. Counts are fixed so that two builds do equal work;
//! each probe is sized to run for tens of milliseconds.

use crate::harness::{ns_per_op, SplitMix};
use crate::metrics::{put, Metrics};
use crate::workloads::Scale;
use netsim::services::{
    AmqpService, CoapService, HttpService, MqttService, ServiceSet, SshService, TlsEndpoint,
};
use netsim::time::SimTime;
use netsim::transport::{Ideal, Link, Transport};
use netsim::world::{World, WorldConfig};
use netsim::{DeviceId, FaultProfile};
use ntppool::{poll_once, Pool};
use scanner::probers::{build_probe, parse_response};
use scanner::{Engine, Protocol, ScanPolicy};
use std::net::Ipv6Addr;
use store::{Archive, CompactSet};
use telemetry::{Key, Registry, RunReport};
use wire::ntp::{NtpTimestamp, Packet};

const PROBE_KEY: Key = Key::bare("benchmark_probe");

/// A point in simulated time inside every study window.
const T: SimTime = SimTime(100_000);

fn seeded_addr(rng: &mut SplitMix) -> Ipv6Addr {
    Ipv6Addr::from(
        (0x2a00u128 << 112) | (u128::from(rng.next()) << 32) | u128::from(rng.next() >> 40),
    )
}

/// One canonical valid response per protocol, from a fully-featured
/// service stack answering the scanner's own probe.
fn valid_response(proto: Protocol) -> Vec<u8> {
    let tls = TlsEndpoint {
        cert: wire::tls::Certificate {
            subject: "probe.example".into(),
            issuer: "probe.example".into(),
            serial: 7,
            not_before: 0,
            not_after: u64::MAX,
            key_blob: vec![1, 2, 3],
        },
        version: wire::tls::Version::Tls13,
        require_sni: false,
    };
    let set = ServiceSet {
        http: Some(HttpService {
            title: Some("FRITZ!Box 7590".into()),
            status: 200,
            server_header: Some("sim".into()),
            plain: true,
            tls: Some(tls.clone()),
        }),
        ssh: Some(SshService {
            software: "OpenSSH_9.2p1".into(),
            comment: Some("Debian-2+deb12u3".into()),
            host_key_blob: vec![9, 9, 9],
        }),
        mqtt: Some(MqttService {
            require_auth: false,
            plain: true,
            tls: Some(tls.clone()),
        }),
        amqp: Some(AmqpService {
            mechanisms: "PLAIN".into(),
            product: "RabbitMQ".into(),
            plain: true,
            tls: Some(tls),
        }),
        coap: Some(CoapService {
            resources: vec!["/castDeviceSearch".into()],
        }),
    };
    set.respond(proto.port(), &build_probe(proto))
        .expect("a full service stack answers every protocol")
}

/// Runs every probe and records its `*_ns` metric. `mid` is the
/// materialized `mid` world config; the procedural 1:100 world is
/// generated here.
pub fn run(seed: u64, mid: &WorldConfig, scale: Scale, m: &mut Metrics) {
    // Smoke divides every count: same code, a hundredth of the work.
    let n = |full: u64| match scale {
        Scale::Full => full,
        Scale::Smoke => (full / 100).max(10),
    };
    let mut rng = SplitMix(seed ^ 0x7072_6f62);

    // --- netsim, materialized `mid` world ---
    let world = World::generate(mid.clone());
    let ids: Vec<DeviceId> = (0..world.household_count().min(2_000))
        .flat_map(|h| world.household_members(h))
        .collect();
    let pick = |i: u64| ids[i as usize % ids.len()];
    put(
        m,
        "netsim.meta_ns",
        ns_per_op(n(2_000_000), |i| {
            let meta = world.meta(pick(i));
            world.address_of_meta(&meta, T)
        }),
    );
    // A feed-shaped target list: the addresses pool clients hold at T.
    let targets: Vec<Ipv6Addr> = world
        .ntp_clients()
        .take(50_000)
        .map(|(meta, _)| world.address_of_meta(&meta, T))
        .collect();
    let target = |i: u64| targets[i as usize % targets.len()];
    let http = build_probe(Protocol::Http);
    let port = Protocol::Http.port();
    put(
        m,
        "netsim.respond_ns",
        ns_per_op(n(300_000), |i| world.respond(target(i), port, &http, T)),
    );
    let exchange = |transport: &dyn Transport, i: u64| {
        let link = Link {
            src: scanner::engine::SCANNER_SRC,
            dst: target(i),
            port,
            attempt: i / targets.len() as u64,
        };
        transport.exchange(link, &http, &mut |bytes| {
            world.respond(target(i), port, bytes, T)
        })
    };
    put(
        m,
        "netsim.exchange_ideal_ns",
        ns_per_op(n(300_000), |i| exchange(&Ideal, i)),
    );
    let congested = FaultProfile::Congested.build(seed);
    put(
        m,
        "netsim.exchange_faulty_ns",
        ns_per_op(n(300_000), |i| exchange(congested.as_ref(), i)),
    );

    // --- scanner: the full probe train per target, cooldown never hit ---
    let scan_ns = |mut engine: Engine| {
        ns_per_op(targets.len() as u64, |i| {
            engine.scan_target(&world, target(i), T)
        })
    };
    put(
        m,
        "scanner.scan_target_ns",
        scan_ns(Engine::new(ScanPolicy::default())),
    );
    put(
        m,
        "scanner.scan_target_faulty_ns",
        scan_ns(Engine::with_transport(
            ScanPolicy::default(),
            congested.clone_box(),
        )),
    );

    // --- netsim, procedural 1:100 world ---
    let centi = World::generate(WorldConfig::paper_centi(seed));
    // CPE of household h. 20 000 distinct ids is past both banks of the
    // 4 096-entry device cache, so a cyclic walk never hits.
    let cpe = |h: u64| DeviceId((h % 20_000) as u32 * 8);
    put(
        m,
        "netsim.procgen_meta_ns",
        ns_per_op(n(1_000_000), |i| {
            let meta = centi.meta(cpe(i));
            centi.address_of_meta(&meta, T)
        }),
    );
    put(
        m,
        "netsim.device_miss_ns",
        ns_per_op(n(40_000), |i| centi.device(cpe(i))),
    );
    put(
        m,
        "netsim.device_hit_ns",
        ns_per_op(n(2_000_000), |_| centi.device(cpe(0))),
    );

    // --- wire ---
    let request = Packet::client_request(NtpTimestamp::from_unix_secs(T.to_unix()));
    let request_bytes = request.emit();
    put(
        m,
        "wire.ntp_emit_ns",
        ns_per_op(n(1_000_000), |_| request.emit()),
    );
    put(
        m,
        "wire.ntp_parse_ns",
        ns_per_op(n(2_000_000), |_| Packet::parse(&request_bytes)),
    );
    for (metric, proto) in [
        ("wire.ssh_parse_ns", Protocol::Ssh),
        ("wire.tls_parse_ns", Protocol::Https),
        ("wire.http_parse_ns", Protocol::Http),
        ("wire.mqtt_parse_ns", Protocol::Mqtt),
        ("wire.coap_parse_ns", Protocol::Coap),
        ("wire.amqp_parse_ns", Protocol::Amqp),
    ] {
        let response = valid_response(proto);
        put(
            m,
            metric,
            ns_per_op(n(200_000), |_| parse_response(proto, &response)),
        );
    }

    // --- ntppool ---
    let pool = Pool::with_background();
    let clients: Vec<_> = world
        .ntp_clients()
        .take(4_096)
        .map(|(meta, _)| meta)
        .collect();
    let client = |i: u64| &clients[i as usize % clients.len()];
    put(
        m,
        "ntppool.select_ns",
        ns_per_op(n(2_000_000), |i| {
            pool.select(client(i).country, u64::from(client(i).id.0), i)
        }),
    );
    let selected: Vec<_> = (0..clients.len() as u64)
        .filter_map(|i| pool.select(client(i).country, u64::from(client(i).id.0), 0))
        .collect();
    put(
        m,
        "ntppool.poll_once_ns",
        ns_per_op(n(500_000), |i| {
            let id = selected[i as usize % selected.len()];
            poll_once(
                pool.server(id),
                &Ideal,
                target(i),
                ntppool::run::server_addr(id),
                T,
                1,
            )
        }),
    );

    // --- store ---
    let addrs: Vec<Ipv6Addr> = (0..n(400_000)).map(|_| seeded_addr(&mut rng)).collect();
    let absent: Vec<Ipv6Addr> = (0..addrs.len()).map(|_| seeded_addr(&mut rng)).collect();
    let mut archive = Archive::new();
    put(
        m,
        "store.archive_insert_ns",
        ns_per_op(addrs.len() as u64, |i| archive.insert(addrs[i as usize])),
    );
    // Every fourth member: the lookups are spread over all segments.
    let lookups = addrs.len() as u64 / 4;
    put(
        m,
        "store.archive_contains_hit_ns",
        ns_per_op(lookups, |i| archive.contains(addrs[i as usize * 4])),
    );
    put(
        m,
        "store.archive_contains_miss_ns",
        ns_per_op(lookups, |i| archive.contains(absent[i as usize * 4])),
    );
    let sorted = |list: &[Ipv6Addr]| {
        let mut v: Vec<u128> = list.iter().map(|a| u128::from(*a)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    // Two sets sharing half their members.
    let (left, right) = (
        sorted(&addrs),
        sorted(&[&addrs[addrs.len() / 2..], &absent[..absent.len() / 2]].concat()),
    );
    let per_member = |total_ns: f64, members: usize| total_ns / members.max(1) as f64;
    put(
        m,
        "store.compact_build_ns",
        per_member(
            ns_per_op(1, |_| CompactSet::from_sorted(left.iter().copied())),
            left.len(),
        ),
    );
    let a = CompactSet::from_sorted(left.iter().copied());
    let b = CompactSet::from_sorted(right.iter().copied());
    put(
        m,
        "store.overlap_ns",
        per_member(ns_per_op(1, |_| a.overlap_count(&b)), a.len() + b.len()),
    );
    put(
        m,
        "store.union_ns",
        per_member(ns_per_op(1, |_| a.union(&b)), a.len() + b.len()),
    );

    // --- v6addr ---
    put(
        m,
        "v6addr.classify_iid_ns",
        ns_per_op(n(1_000_000), |i| {
            v6addr::classify_iid(addrs[i as usize % addrs.len()]) as usize
        }),
    );

    // --- telemetry ---
    let mut registry = Registry::new();
    put(
        m,
        "telemetry.registry_add_ns",
        ns_per_op(n(4_000_000), |i| registry.add(PROBE_KEY, i & 1)),
    );
    for stage in 0..64u32 {
        registry.add_dyn(
            telemetry::OwnedKey::with_labels(
                "benchmark_probe_dyn",
                &[("stage", &stage.to_string())],
            ),
            u64::from(stage),
        );
    }
    let report = RunReport::new(&[("seed", &seed.to_string())], &registry.snapshot());
    put(
        m,
        "telemetry.report_json_roundtrip_ns",
        ns_per_op(n(400), |_| RunReport::from_json(&report.to_json())),
    );
}
