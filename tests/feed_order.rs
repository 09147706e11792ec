//! Real-time pipeline ordering guarantees: the collector's first-sight
//! feed is chronological, and scan probes never precede the observation
//! that triggered them.

use std::sync::OnceLock;
use timetoscan::{Study, StudyConfig};

fn study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| Study::run(StudyConfig::tiny(23)))
}

#[test]
fn feed_is_chronological() {
    let s = study();
    assert!(!s.feed.is_empty());
    assert!(
        s.feed.windows(2).all(|w| w[0].seen <= w[1].seen),
        "feed out of order"
    );
    let (start, end) = s.window();
    assert!(s.feed.first().unwrap().seen >= start);
    assert!(s.feed.last().unwrap().seen < end);
}

#[test]
fn feed_has_no_duplicate_addresses() {
    let s = study();
    let mut seen = std::collections::HashSet::new();
    for o in &s.feed {
        assert!(seen.insert(o.addr), "{} fed twice", o.addr);
    }
    assert_eq!(seen.len(), s.collector.global().len());
    // Each scan is handed each address exactly once: the engine keeps
    // no dedup of its own.
    assert_eq!(s.ntp_scan.targets(), s.feed.len() as u64);
    assert_eq!(s.hitlist_scan.targets(), s.hitlist.full.len() as u64);
}

#[test]
fn probes_respect_causality_and_delays() {
    let s = study();
    let by_addr: std::collections::HashMap<_, _> =
        s.feed.iter().map(|o| (o.addr, o.seen)).collect();
    let base_delay = scanner::ScanPolicy::delay_of(0);
    for r in s.ntp_scan.records() {
        if let Some(&seen) = by_addr.get(&r.addr) {
            assert!(
                r.time >= seen + base_delay,
                "{} probed at {} but first seen {}",
                r.addr,
                r.time,
                seen
            );
        }
    }
}

#[test]
fn every_feed_server_is_a_study_server() {
    let s = study();
    let study_ids: std::collections::HashSet<_> =
        s.study_servers.iter().map(|(id, _)| *id).collect();
    for o in &s.feed {
        assert!(
            study_ids.contains(&o.server),
            "feed entry from non-study server {:?}",
            o.server
        );
    }
}
