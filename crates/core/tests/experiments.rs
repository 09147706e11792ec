//! Structural tests for every experiment module: computed data is
//! internally consistent and rendering embeds it faithfully. One tiny
//! study shared across tests.

use std::sync::OnceLock;
use timetoscan::experiments::*;
use timetoscan::{Study, StudyConfig};

fn study() -> &'static Study {
    static S: OnceLock<Study> = OnceLock::new();
    S.get_or_init(|| Study::run(StudyConfig::tiny(31)))
}

/// A fresh (empty-celled) derived view over the shared study.
fn derived() -> timetoscan::Derived<'static> {
    study().derived()
}

#[test]
fn table1_internal_consistency() {
    let t = table1::compute(&derived());
    // Overlaps can never exceed either side.
    for (o, d) in [
        (&t.overlap_rl, &t.rl),
        (&t.overlap_public, &t.public),
        (&t.overlap_full, &t.full),
    ] {
        assert!(o.addresses <= t.ours.addresses.min(d.addresses));
        assert!(o.nets48 <= t.ours.nets48.min(d.nets48));
        assert!(o.ases <= t.ours.ases.min(d.ases));
    }
    // Networks never exceed addresses; ASes never exceed /48s.
    for d in [&t.ours, &t.rl, &t.public, &t.full] {
        assert!(d.nets48 <= d.addresses);
        assert!(d.ases <= d.nets48.max(1));
    }
}

#[test]
fn fig1_shares_sum_to_one() {
    let f = fig1::compute(&derived());
    for s in [&f.ours, &f.rl, &f.public, &f.full] {
        if s.total > 0 {
            let sum: f64 = v6addr::IidClass::ALL.iter().map(|c| s.iid.share(*c)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{sum}");
            assert!((0.0..=1.0).contains(&s.eyeball_as_share));
        }
    }
}

#[test]
fn table2_rows_complete_and_consistent() {
    let rows = table2::compute(&derived());
    assert_eq!(rows.len(), 5);
    for r in &rows {
        if let (Some(tls), addrs) = (r.our_tls, r.our_addrs) {
            assert!(tls <= addrs, "{}: TLS {tls} > addrs {addrs}", r.label);
        }
        if let (Some(k), Some(a), Some(b)) = (r.key_overlap, r.our_keys, r.tum_keys) {
            assert!(k <= a.min(b));
        }
    }
}

#[test]
fn table3_groups_consistent() {
    let t = table3::compute(&derived());
    // Every dual group has at least one member on some side.
    for g in &t.titles {
        assert!(g.our_hosts + g.tum_hosts > 0);
        assert_eq!(g.our_hosts as usize, g.our_addrs.len());
        assert_eq!(g.tum_hosts as usize, g.tum_addrs.len());
    }
    // Distribution counts equal host-list lengths.
    let our_os_total: u64 = t.our_os.iter().map(|(_, n)| n).sum();
    let hosts = analysis::ssh_os::unique_ssh_hosts(&study().ntp_scan);
    assert_eq!(our_os_total, hosts.len() as u64);
}

#[test]
fn fig2_fig5_weights() {
    let f2 = fig2::compute(&derived());
    assert!(f2.ours.outdated <= f2.ours.assessable);
    let f5 = fig5::compute(&derived());
    assert!(f5.ours_by_net.assessable >= f5.ours_by_key.assessable);
    assert!(f5.tum_by_net.assessable >= f5.tum_by_key.assessable);
}

#[test]
fn fig3_fig6_totals() {
    let f3 = fig3::compute(&derived());
    assert!(f3.our_mqtt.controlled <= f3.our_mqtt.total);
    let f6 = fig6::compute(&derived());
    // Plain + TLS partition the address-based population.
    assert_eq!(
        f6.our_mqtt.plain.total + f6.our_mqtt.tls.total,
        f6.our_mqtt.by_addr.total
    );
    assert!(f6.our_mqtt.by_net64.total <= f6.our_mqtt.by_addr.total);
}

#[test]
fn table7_sums_to_collector_totals() {
    let rows = table7::compute(&derived());
    assert_eq!(rows.len(), 11);
    // Rows are sorted descending by address count.
    assert!(rows.windows(2).all(|w| w[0].1 >= w[1].1));
    // Per-server distinct counts are at least the global set size in sum
    // (an address may be seen by several servers).
    let sum: u64 = rows.iter().map(|(_, a, _)| a).sum();
    assert!(sum >= study().collector.global().len() as u64);
}

#[test]
fn table5_counts_monotone() {
    let t = table5::compute(&derived());
    for (p, ours, tum) in &t.rows {
        for c in [ours, tum] {
            assert!(c.nets32 <= c.nets48, "{p}");
            assert!(c.nets48 <= c.nets56, "{p}");
            assert!(c.nets56 <= c.nets64, "{p}");
            assert!(c.nets64 <= c.addrs, "{p}");
            assert!(c.countries <= c.ases.max(1), "{p}");
        }
    }
}

#[test]
fn table6_rows_sorted() {
    let t = table6::compute(&derived());
    for rows in [&t.our_titles, &t.tum_titles, &t.our_os, &t.tum_os] {
        assert!(rows.windows(2).all(|w| w[0].ips >= w[1].ips));
        for r in rows.iter() {
            assert!(r.nets48 <= r.nets56);
            assert!(r.nets56 <= r.nets64);
            assert!(r.nets64 <= r.ips);
        }
    }
}

#[test]
fn eui64_stats_ordering() {
    let a = fig4::compute(&derived());
    assert!(a.stats.eui64_addresses <= a.stats.addresses);
    assert!(a.stats.universal_addresses <= a.stats.eui64_addresses);
    assert!(a.stats.distinct_listed_macs <= a.stats.distinct_universal_macs);
    // Vendor rows: IPs ≥ MACs (each MAC appears at ≥1 address).
    for v in &a.vendors {
        assert!(v.ips >= v.macs, "{}", v.manufacturer);
    }
    assert_eq!(a.per_location.len(), 11);
}

#[test]
fn renders_embed_computed_numbers() {
    let d = derived();
    let s = &d;
    // Table 7's top row value appears in the rendered text.
    let rows = table7::compute(s);
    let rendered = table7::render(s);
    assert!(rendered.contains(&timetoscan::report::fmt_int(rows[0].1)));
    // The security takeaway line carries both percentages.
    let sec = security::compute(s);
    let rendered = security::render(s);
    assert!(rendered.contains(&timetoscan::report::fmt_pct(sec.ours.secure_share())));
    assert!(rendered.contains(&timetoscan::report::fmt_pct(sec.tum.secure_share())));
    // Takeaways block renders and mentions every section.
    let t = takeaways::render(s);
    for needle in ["§3", "§4.3", "§4.4", "§5", "§6"] {
        assert!(t.contains(needle), "takeaways missing {needle}");
    }
}

#[test]
fn render_all_builds_shared_artifacts_once() {
    // A study of its own: the memo cells are study-scoped, so on the
    // shared one another test's view may have filled them.
    let study = Study::run(StudyConfig::tiny(31));
    let d = study.derived();
    let report = render_all(&d);
    assert!(!report.is_empty());
    let first = study.derived_cells.stats();
    // The full report touches every derived artifact; each is built
    // exactly once per study despite its many consumers.
    assert_eq!(first.title_cluster_builds, 1, "dual title clustering");
    assert_eq!(first.ssh_parse_builds, 2, "SSH host parse per store");
    assert_eq!(
        first.network_grouping_builds, 2,
        "network grouping per store"
    );
    assert_eq!(
        first.addr_title_builds, 2,
        "combined title grouping per store"
    );
    assert_eq!(first.coap_builds, 2, "CoAP extraction per store");
    assert_eq!(first.broker_builds, 4, "MQTT+AMQP brokers per store");
    assert_eq!(first.fingerprint_builds, 2, "fingerprint index per store");
    assert_eq!(first.compact_set_builds, 4);
    // Table 1, Figure 1 and the takeaways share one profile per dataset.
    assert_eq!(first.profile_builds, 4, "one decode pass per dataset");
    // A second full render, through a second view, reuses every cell —
    // and reproduces the text, build tally included.
    let again = render_all(&study.derived());
    assert_eq!(report, again);
    assert_eq!(study.derived_cells.stats(), first);
    assert!(report.ends_with("derived memoization: 19 artifact builds\n"));
}
