//! Pipeline-level benchmarks: probe round-trips against the world,
//! collector ingest, and address resolution under churn.

use criterion::{criterion_group, criterion_main, Criterion};
use netsim::time::SimTime;
use netsim::world::{World, WorldConfig};
use ntppool::{AddressCollector, ServerId};
use scanner::probers;
use scanner::result::Protocol;
use std::hint::black_box;

fn bench_probe_roundtrip(c: &mut Criterion) {
    let world = World::generate(WorldConfig::tiny(5));
    let t = SimTime(1000);
    // A responsive HTTPS device (CDN region is always responsive).
    let cdn = world.aliased_regions()[0].prefix.host(7);
    c.bench_function("pipeline/http_probe_cdn", |b| {
        b.iter(|| black_box(probers::probe(&world, black_box(cdn), Protocol::Http, t)))
    });
    // A silent address (the dominant case: 99%+ of probes).
    let phone = world
        .metas()
        .find(|d| d.kind == netsim::DeviceKind::AndroidPhone)
        .unwrap();
    let silent = world.address_of_meta(&phone, t);
    c.bench_function("pipeline/probe_silent_host", |b| {
        b.iter(|| black_box(probers::probe(&world, black_box(silent), Protocol::Http, t)))
    });
}

fn bench_collector(c: &mut Criterion) {
    let addrs: Vec<std::net::Ipv6Addr> = (0..8192u64)
        .map(|i| std::net::Ipv6Addr::from(u128::from(netsim::mix64(i))))
        .collect();
    c.bench_function("pipeline/collector_ingest_8k", |b| {
        b.iter(|| {
            let mut col = AddressCollector::new();
            for (i, a) in addrs.iter().enumerate() {
                col.record(ServerId((i % 11) as u32), *a, SimTime(i as u64));
            }
            black_box(col.global().len())
        })
    });
}

fn bench_address_resolution(c: &mut Criterion) {
    let world = World::generate(WorldConfig::tiny(5));
    let t = SimTime(100_000);
    let addrs: Vec<std::net::Ipv6Addr> = world
        .metas()
        .take(256)
        .map(|d| world.address_of_meta(&d, t))
        .collect();
    c.bench_function("pipeline/device_at_256", |b| {
        b.iter(|| {
            let mut found = 0;
            for a in &addrs {
                if world.device_at(*a, t).is_some() {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
}

criterion_group! {
    name = benches;
    config = bench::criterion();
    targets = bench_probe_roundtrip, bench_collector, bench_address_resolution
}
criterion_main!(benches);
