//! Adversarial-ecosystem scenarios: every actor roster's study is held
//! to its golden digest (plus a fault-profile cross-check), every probe
//! of a standalone ecosystem run is held to its own golden, and the
//! blind attribution pass must separate the archetypes it saw.
//!
//! The ecosystem runs after collection on its own tick clock, a pure
//! function of `(config, world)` — the goldens were checked at 1 and 4
//! collection shards while a sharded loop existed, so nothing about how
//! collection is executed leaks into a single deterministic bit of its
//! capture, its telemetry, or the attribution table.

mod golden;

use actors::{covert_actor, ecosystem, gt_actor, ActorRoster};
use netsim::bgp::{BgpEvent, BgpFeed};
use netsim::time::{Duration, SimTime};
use netsim::topology::Asn;
use netsim::transport::FaultProfile;
use ntppool::Pool;
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::sync::OnceLock;
use store::codec::fnv1a;
use telemetry::OwnedKey;
use telescope::{CapturedPacket, Vantage};
use timetoscan::{Study, StudyConfig};

const SEED: u64 = 31;

/// The rosters each scenario pins: the paper's pair, the full
/// ecosystem, and nobody.
const ROSTERS: [(ActorRoster, &str); 3] = [
    (ActorRoster::BASELINE, "baseline"),
    (ActorRoster::ALL, "all"),
    (ActorRoster::NONE, "none"),
];

fn cfg(roster: ActorRoster) -> StudyConfig {
    StudyConfig::tiny(SEED).with_actors(roster)
}

/// The ideal-transport study of a pinned roster, run once for all the
/// tests below.
fn study(roster: ActorRoster) -> &'static Study {
    static STUDIES: [OnceLock<Study>; 3] = [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let at = ROSTERS.iter().position(|(r, _)| *r == roster);
    STUDIES[at.expect("a pinned roster")].get_or_init(|| Study::run(cfg(roster)))
}

#[test]
fn reports_are_byte_identical_across_engine_shapes() {
    for (roster, name) in ROSTERS {
        golden::check_study(&format!("tiny/{SEED}/ideal/{name}"), study(roster));
    }
}

#[test]
fn reports_are_byte_identical_under_faults() {
    let lossy = Study::run(cfg(ActorRoster::ALL).with_fault(FaultProfile::Lossy1Pct));
    golden::check_study(&format!("tiny/{SEED}/lossy_1pct/all"), &lossy);
}

/// Every probe of the full roster, outside any study: the pool's
/// background servers plus the paper's pair, two vantages swept half a
/// day either side of the campaign start (so the walker starts with a
/// backlog and later takes fresh intel), a stale list of eight addresses
/// inside the primary vantage, and a feed that announces both vantage
/// prefixes, once before the start. Every archetype's probes all land
/// inside a vantage, so the capture is the whole campaign; each
/// archetype's count and the FNV-1a of its probes sorted by
/// `(time, dst, src, port)` are held to the golden.
#[test]
fn campaigns_match_their_golden() {
    let mut pool = Pool::with_background();
    let mut gt = gt_actor();
    gt.register(&mut pool);
    let mut covert = covert_actor();
    covert.register(&mut pool);
    let actors = [gt, covert];
    let mut primary = Vantage::new("3fff:909::/48".parse().unwrap());
    primary.query_all(&pool, SimTime(0), Duration::secs(1));
    let mut secondary = Vantage::new("3fff:90a::/48".parse().unwrap());
    secondary.query_all(&pool, SimTime(86_400), Duration::secs(1));
    let start = SimTime(43_200);

    let mut feed = BgpFeed::new();
    for (time, prefix, announce) in [
        (0, primary.prefix, true),
        (50_000, primary.prefix, true),
        (86_400, secondary.prefix, true),
        (90_000, secondary.prefix, false),
    ] {
        feed.push(BgpEvent {
            time: SimTime(time),
            prefix,
            asn: Asn(0),
            announce,
        });
    }
    feed.seal();
    let stale: Vec<Ipv6Addr> = (0..8u128)
        .map(|i| primary.prefix.subnet(64, 0x100 + i).host(1))
        .collect();
    let vantages = [primary, secondary];

    let outcome = ecosystem::run(
        ActorRoster::ALL,
        &actors,
        &vantages,
        &pool,
        &stale,
        &feed,
        start,
    );

    assert_eq!(outcome.emitted.len(), 5, "{:?}", outcome.emitted);
    assert_eq!(
        outcome.captured, outcome.emitted,
        "a probe left the vantages"
    );
    let mut probes: BTreeMap<&str, Vec<CapturedPacket>> = BTreeMap::new();
    for (pkt, label) in &outcome.records {
        probes.entry(label).or_default().push(*pkt);
    }
    let mut got = BTreeMap::new();
    for (label, mut list) in probes {
        list.sort_by_key(|p| (p.time, p.dst, p.src, p.port));
        let bytes: Vec<u8> = list
            .iter()
            .flat_map(|p| {
                let mut b = p.time.as_secs().to_le_bytes().to_vec();
                b.extend(p.dst.octets());
                b.extend(p.src.octets());
                b.extend(p.port.to_le_bytes());
                b
            })
            .collect();
        got.insert(label.to_owned(), list.len().to_string());
        got.insert(format!("{label}_fnv1a"), format!("{:016x}", fnv1a(&bytes)));
    }
    golden::check_golden("eco/fixture/all", &got);
}

#[test]
fn attribution_separates_the_full_roster() {
    let study = study(ActorRoster::ALL);
    let table = study.attribution.as_ref().expect("telescope ran");
    let cm = &table.confusion;

    // Every rostered archetype landed probes and got its own cluster
    // verdict somewhere in the table.
    for (_, label) in ActorRoster::ALL.flags() {
        let row: u64 = cm.labels().iter().map(|p| cm.count(label, p)).sum();
        assert!(row > 0, "archetype {label} captured nothing");
        let recall = cm.count(label, label) as f64 / row as f64;
        assert!(recall >= 0.9, "recall for {label} is {recall}");
    }
    let acc = cm.accuracy().expect("non-empty matrix");
    assert!(acc >= 0.9, "attribution accuracy {acc} below 0.9");

    // The same numbers are exported into the run report's telemetry as
    // labelled counters: the confusion diagonal dominates.
    let snap = &study.telemetry;
    let mut diagonal = 0;
    for (_, label) in ActorRoster::ALL.flags() {
        diagonal += snap.counter(&OwnedKey::with_labels(
            "attribution_probes",
            &[
                ("predicted", label),
                ("stage", "telescope"),
                ("truth", label),
            ],
        ));
    }
    let total = snap.counter_total("attribution_probes");
    assert!(total > 0, "no attribution counters exported");
    assert!(
        diagonal as f64 / total as f64 >= 0.9,
        "telemetry confusion diagonal {diagonal}/{total} below 0.9"
    );
    assert_eq!(
        snap.counter_total("actor_captures"),
        total,
        "capture counters disagree with the attribution total"
    );
}

#[test]
fn baseline_roster_matches_the_legacy_telescope() {
    // The default roster is the paper's pair — the legacy §5 matcher
    // must still fully attribute the primary telescope's capture.
    let study = study(ActorRoster::BASELINE);
    let report = study.telescope.as_ref().expect("telescope ran");
    assert_eq!(report.unmatched_packets, 0);
    assert_eq!(report.actors.len(), 2);
    let table = study.attribution.as_ref().expect("attribution ran");
    assert_eq!(
        table.confusion.accuracy(),
        Some(1.0),
        "the pair must separate cleanly:\n{}",
        table.render()
    );
}

#[test]
fn empty_roster_yields_an_empty_capture() {
    let study = study(ActorRoster::NONE);
    let report = study.telescope.as_ref().expect("telescope ran");
    assert_eq!(report.matched_packets, 0);
    assert_eq!(report.unmatched_packets, 0);
    let table = study.attribution.as_ref().expect("attribution ran");
    assert!(table.clusters.is_empty());
    assert_eq!(table.confusion.accuracy(), None);
}
