//! A resolution holds over its span: wherever `resolve(addr, t0)` says
//! it holds at `t`, it gives the answers `device_at(addr, t)` and
//! `respond(addr, …, t)` give, at instants on both sides of every
//! rotation and regeneration boundary near `t0`.
//!
//! Two worlds put the boundaries in either order: rotation 1 d with
//! privacy regeneration every 6 h, and rotation 8 h with regeneration
//! every day. The addresses are every device's at `t0` and one rotation
//! later (so a resolution of nothing is checked too), the aliased
//! region, and unrouted space; the addressing of the devices covers
//! privacy, EUI-64, structured and zero IIDs.

use netsim::device::{Addressing, Attachment, DeviceMeta};
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use std::net::Ipv6Addr;

fn world(rotation: Duration, privacy_regen: Duration) -> World {
    World::generate(WorldConfig {
        rotation,
        privacy_regen,
        ..WorldConfig::tiny(17)
    })
}

/// Every rotation and regeneration boundary within two days of `t0`,
/// each with the instants just before, at and after it, plus `t0`.
fn instants(t0: SimTime, periods: [Duration; 2]) -> Vec<SimTime> {
    let (lo, hi) = (
        t0.as_secs().saturating_sub(2 * 86_400),
        t0.as_secs() + 2 * 86_400,
    );
    let mut out = vec![t0];
    for period in periods.map(|p| p.as_secs()) {
        let mut b = lo / period * period;
        while b <= hi {
            out.extend([b.saturating_sub(1), b, b + 1].map(SimTime));
            b += period;
        }
    }
    out.sort();
    out.dedup();
    out
}

/// How many checked instants held, per kind of answer.
#[derive(Default)]
struct Seen {
    privacy: usize,
    eui64: usize,
    structured: usize,
    zero: usize,
    aliased: usize,
    silent: usize,
    /// Instants the resolution did not hold at.
    outside: usize,
}

fn check(w: &World, addr: Ipv6Addr, t0: SimTime, periods: [Duration; 2], seen: &mut Seen) {
    let http = wire::http::Request::scanner_get("t").emit();
    let r = w.resolve(addr, t0);
    assert!(
        r.holds_at(t0),
        "{addr}: resolved at {t0}, holds over {:?}",
        r.span()
    );
    let aliased = w
        .aliased_regions()
        .iter()
        .any(|region| region.prefix.contains(addr));
    for t in instants(t0, periods) {
        if !r.holds_at(t) {
            seen.outside += 1;
            continue;
        }
        let ctx = format!("{addr} resolved at {t0}, asked at {t}");
        let held = r.device().map(|d| d.id);
        assert_eq!(held, w.device_at(addr, t).map(|d| d.id), "{ctx}");
        assert_eq!(r.respond(80, &http), w.respond(addr, 80, &http, t), "{ctx}");
        match r.device().map(|d| d.addressing) {
            Some(Addressing::Privacy { .. }) => seen.privacy += 1,
            Some(Addressing::Eui64(_)) => seen.eui64 += 1,
            Some(Addressing::Structured(_)) => seen.structured += 1,
            Some(Addressing::Zero) => seen.zero += 1,
            None if aliased => seen.aliased += 1,
            None => seen.silent += 1,
        }
    }
}

#[test]
fn a_resolution_answers_like_a_fresh_one_wherever_it_holds() {
    let cases = [
        (Duration::days(1), Duration::hours(6)),
        (Duration::hours(8), Duration::days(1)),
    ];
    for (rotation, regen) in cases {
        let w = world(rotation, regen);
        let periods = [rotation, regen];
        let mut seen = Seen::default();
        // Just inside a boundary of each kind, and between them.
        let t0s = [
            SimTime(3_600),
            SimTime(2 * 86_400 - 1),
            SimTime(2 * 86_400 + 5 * 3_600 + 1_800),
        ];
        for t0 in t0s {
            for meta in w.metas() {
                for t in [t0, t0 + rotation] {
                    check(&w, w.address_of_meta(&meta, t), t0, periods, &mut seen);
                }
            }
            let cdn = w.aliased_regions()[0].prefix;
            for host in [1u128, 0xdead_beef, 1 << 60] {
                check(&w, cdn.host(host), t0, periods, &mut seen);
            }
            for unrouted in ["9999::1", "2a00:ffff::1", "3fff::53"] {
                check(&w, unrouted.parse().unwrap(), t0, periods, &mut seen);
            }
        }
        let counts = [
            seen.privacy,
            seen.eui64,
            seen.structured,
            seen.zero,
            seen.aliased,
            seen.silent,
            seen.outside,
        ];
        assert!(
            counts.iter().all(|&n| n > 0),
            "rotation {rotation}, regen {regen}: privacy, EUI-64, structured, zero, \
             aliased, silent, outside = {counts:?}"
        );
    }
}

/// The span is as long as the model allows: a static host with a
/// structured IID holds for all time, and a household's privacy address
/// holds exactly over the overlap of its rotation epoch and its
/// regeneration window.
#[test]
fn spans_are_the_epoch_cut_to_the_regeneration_window() {
    let is_static = |m: &DeviceMeta| matches!(m.attachment, Attachment::Static { .. });
    let w = world(Duration::days(1), Duration::hours(6));
    let t0 = SimTime(86_400 + 7 * 3_600);
    let structured = w
        .metas()
        .find(|m| is_static(m) && matches!(m.addressing, Addressing::Structured(_)))
        .expect("a structured static host");
    let r = w.resolve(w.address_of_meta(&structured, t0), t0);
    assert!(r.holds_at(SimTime(0)) && r.holds_at(SimTime(u64::MAX - 1)));
    let privacy = w
        .metas()
        .find(|m| !is_static(m) && matches!(m.addressing, Addressing::Privacy { .. }))
        .expect("a household privacy host");
    let span = w.resolve(w.address_of_meta(&privacy, t0), t0).span();
    assert_eq!(
        (span.from, span.until),
        (SimTime(86_400 + 6 * 3_600), SimTime(86_400 + 12 * 3_600))
    );
    let eui64 = w
        .metas()
        .find(|m| !is_static(m) && matches!(m.addressing, Addressing::Eui64(_)))
        .expect("a household EUI-64 host");
    let span = w.resolve(w.address_of_meta(&eui64, t0), t0).span();
    assert_eq!(
        (span.from, span.until),
        (SimTime(86_400), SimTime(2 * 86_400))
    );
}
