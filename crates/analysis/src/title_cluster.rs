//! HTML-title clustering (paper §4.3.1, Tables 3/6/8).
//!
//! Input: scan records; method: keep status-200 pages only (to exclude
//! CDN error pages), deduplicate by certificate fingerprint (HTTPS) so
//! each *host* counts once, then cluster titles at normalised Levenshtein
//! distance ≤ 0.25.

use crate::levenshtein::cluster_by_distance;
use scanner::result::{Protocol, ServiceResult};
use scanner::ScanStore;
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// The paper's clustering threshold.
pub const TITLE_THRESHOLD: f64 = 0.25;

/// Label used for pages without a `<title>`.
pub const NO_TITLE: &str = "(no title present)";

/// One title group.
#[derive(Debug, Clone, PartialEq)]
pub struct TitleGroup {
    /// Group label (most frequent member title).
    pub label: String,
    /// Unique hosts (by certificate) in the group.
    pub hosts: u64,
    /// Share of all counted hosts.
    pub share: f64,
    /// Addresses observed with any member title (for the by-network view).
    pub addrs: Vec<Ipv6Addr>,
}

/// Titles of unique HTTPS hosts: status-200 responses, deduplicated by
/// certificate fingerprint (first record per fingerprint wins).
pub fn unique_https_titles(store: &ScanStore) -> Vec<(String, Ipv6Addr)> {
    store
        .unique_by_fingerprint(Protocol::Https)
        .into_iter()
        .filter_map(|r| match &r.result {
            ServiceResult::Https {
                status: Some(200),
                title,
                ..
            } => Some((
                title.clone().unwrap_or_else(|| NO_TITLE.to_string()),
                r.addr,
            )),
            _ => None,
        })
        .collect()
}

/// Titles of plain-HTTP responders (status 200), one per address — used
/// by the by-network views (Table 6) where no certificate exists.
pub fn http_titles_by_addr(store: &ScanStore) -> Vec<(String, Ipv6Addr)> {
    let mut seen = std::collections::HashSet::new();
    store
        .by_protocol(Protocol::Http)
        .filter_map(|r| match &r.result {
            ServiceResult::Http { status: 200, title } => {
                if seen.insert(r.addr) {
                    Some((
                        title.clone().unwrap_or_else(|| NO_TITLE.to_string()),
                        r.addr,
                    ))
                } else {
                    None
                }
            }
            _ => None,
        })
        .collect()
}

/// Clusters `(title, addr)` observations into groups.
pub fn group_titles(observations: Vec<(String, Ipv6Addr)>) -> Vec<TitleGroup> {
    // Collapse identical titles first, keeping their addresses.
    let mut by_title: HashMap<String, Vec<Ipv6Addr>> = HashMap::new();
    for (title, addr) in observations {
        by_title.entry(title).or_default().push(addr);
    }
    let items: Vec<(String, Vec<Ipv6Addr>)> = by_title.into_iter().collect();
    let clusters = cluster_by_distance(items, TITLE_THRESHOLD, |addrs| addrs.len() as u64);
    let total: u64 = clusters
        .iter()
        .flat_map(|c| c.members.iter())
        .map(|(_, a)| a.len() as u64)
        .sum();
    let mut groups: Vec<TitleGroup> = clusters
        .into_iter()
        .map(|c| {
            let addrs: Vec<Ipv6Addr> = c
                .members
                .iter()
                .flat_map(|(_, a)| a.iter().copied())
                .collect();
            TitleGroup {
                label: c.representative,
                hosts: addrs.len() as u64,
                share: if total == 0 {
                    0.0
                } else {
                    addrs.len() as f64 / total as f64
                },
                addrs,
            }
        })
        .collect();
    groups.sort_by(|a, b| b.hosts.cmp(&a.hosts).then_with(|| a.label.cmp(&b.label)));
    groups
}

/// A title group counted per address source. Clustering the *union* of
/// both sources keeps groups aligned across the paper's side-by-side
/// columns even when titles embed per-host variation (vhost numbers, IP
/// literals).
#[derive(Debug, Clone, PartialEq)]
pub struct DualTitleGroup {
    /// Group label (highest-weight member title in the union).
    pub label: String,
    /// Unique hosts in the NTP-sourced dataset.
    pub our_hosts: u64,
    /// Unique hosts in the hitlist dataset.
    pub tum_hosts: u64,
    /// NTP-side addresses.
    pub our_addrs: Vec<Ipv6Addr>,
    /// Hitlist-side addresses.
    pub tum_addrs: Vec<Ipv6Addr>,
}

/// Clusters both sources' observations jointly.
pub fn group_titles_dual(
    ours: Vec<(String, Ipv6Addr)>,
    tum: Vec<(String, Ipv6Addr)>,
) -> Vec<DualTitleGroup> {
    // Collapse identical titles, tracking per-side addresses.
    let mut by_title: HashMap<String, (Vec<Ipv6Addr>, Vec<Ipv6Addr>)> = HashMap::new();
    for (t, a) in ours {
        by_title.entry(t).or_default().0.push(a);
    }
    for (t, a) in tum {
        by_title.entry(t).or_default().1.push(a);
    }
    type DualSide = (Vec<Ipv6Addr>, Vec<Ipv6Addr>);
    let items: Vec<(String, DualSide)> = by_title.into_iter().collect();
    let clusters = cluster_by_distance(items, TITLE_THRESHOLD, |(a, b)| (a.len() + b.len()) as u64);
    let mut groups: Vec<DualTitleGroup> = clusters
        .into_iter()
        .map(|c| {
            let mut our_addrs = Vec::new();
            let mut tum_addrs = Vec::new();
            for (_, (a, b)) in &c.members {
                our_addrs.extend(a.iter().copied());
                tum_addrs.extend(b.iter().copied());
            }
            DualTitleGroup {
                label: c.representative,
                our_hosts: our_addrs.len() as u64,
                tum_hosts: tum_addrs.len() as u64,
                our_addrs,
                tum_addrs,
            }
        })
        .collect();
    groups.sort_by(|a, b| {
        (b.our_hosts + b.tum_hosts)
            .cmp(&(a.our_hosts + a.tum_hosts))
            .then_with(|| a.label.cmp(&b.label))
    });
    groups
}

/// Joint unique-host title groups of two stores (the Table 3/8 view).
pub fn https_title_groups_dual(ours: &ScanStore, tum: &ScanStore) -> Vec<DualTitleGroup> {
    group_titles_dual(unique_https_titles(ours), unique_https_titles(tum))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;
    use scanner::result::{CertMeta, ScanRecord, TlsOutcome};
    use wire::tls::Version;

    fn https_rec(addr: u128, fp: u8, status: u16, title: Option<&str>) -> ScanRecord {
        ScanRecord {
            addr: std::net::Ipv6Addr::from(addr),
            time: SimTime(0),
            attempts: 1,
            rtt: netsim::time::Duration::ZERO,
            protocol: Protocol::Https,
            result: ServiceResult::Https {
                tls: TlsOutcome::Established(CertMeta {
                    fingerprint: [fp; 32],
                    subject: "s".into(),
                    issuer: "s".into(),
                    self_signed: true,
                    version: Version::Tls13,
                }),
                status: Some(status),
                title: title.map(str::to_string),
            },
        }
    }

    #[test]
    fn unique_titles_dedup_by_cert_and_filter_status() {
        let mut store = ScanStore::new();
        store.push(https_rec(1, 1, 200, Some("FRITZ!Box 7590")));
        store.push(https_rec(2, 1, 200, Some("FRITZ!Box 7590"))); // same cert
        store.push(https_rec(3, 2, 200, Some("FRITZ!Box 7530")));
        store.push(https_rec(4, 3, 404, Some("Error"))); // filtered
        store.push(https_rec(5, 4, 200, None)); // no title
        let titles = unique_https_titles(&store);
        assert_eq!(titles.len(), 3);
        assert!(titles.iter().any(|(t, _)| t == NO_TITLE));
    }

    #[test]
    fn grouping_clusters_model_variants() {
        let mut store = ScanStore::new();
        for i in 0..30u8 {
            store.push(https_rec(
                u128::from(i),
                i,
                200,
                Some(if i < 20 {
                    "FRITZ!Box 7590"
                } else {
                    "FRITZ!Box 7530"
                }),
            ));
        }
        for i in 30..34u8 {
            store.push(https_rec(u128::from(i), i, 200, Some("D-LINK")));
        }
        let groups = group_titles(unique_https_titles(&store));
        assert_eq!(groups.len(), 2);
        // Both FRITZ!Box models fall into the first group.
        assert_eq!(groups[0].label, "FRITZ!Box 7590");
        assert_eq!(groups[0].hosts, 30);
        assert!((groups[0].share - 30.0 / 34.0).abs() < 1e-9);
        assert_eq!(groups[1].label, "D-LINK");
        assert_eq!(groups[1].hosts, 4);
    }

    #[test]
    fn http_titles_dedup_by_addr() {
        let mut store = ScanStore::new();
        let plain = |addr: u128, title: &str| ScanRecord {
            addr: std::net::Ipv6Addr::from(addr),
            time: SimTime(0),
            attempts: 1,
            rtt: netsim::time::Duration::ZERO,
            protocol: Protocol::Http,
            result: ServiceResult::Http {
                status: 200,
                title: Some(title.into()),
            },
        };
        store.push(plain(1, "Home"));
        store.push(plain(1, "Home"));
        store.push(plain(2, "Home"));
        assert_eq!(http_titles_by_addr(&store).len(), 2);
    }

    #[test]
    fn empty_store() {
        let store = ScanStore::new();
        assert!(group_titles(unique_https_titles(&store)).is_empty());
        assert!(https_title_groups_dual(&store, &store).is_empty());
    }

    #[test]
    fn dual_clustering_aligns_variant_titles_across_sources() {
        let mut ours = ScanStore::new();
        ours.push(https_rec(1, 1, 200, Some("Host Europe GmbH - vhost1191")));
        ours.push(https_rec(2, 2, 200, Some("Host Europe GmbH - vhost1192")));
        let mut tum = ScanStore::new();
        for i in 10..15u8 {
            tum.push(https_rec(
                u128::from(i),
                i,
                200,
                Some(&format!("Host Europe GmbH - vhost00{i}")),
            ));
        }
        let groups = https_title_groups_dual(&ours, &tum);
        // Per-host vhost numbers collapse into ONE group spanning both
        // sources.
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].our_hosts, 2);
        assert_eq!(groups[0].tum_hosts, 5);
    }

    #[test]
    fn dual_counts_match_single_side_totals() {
        let mut ours = ScanStore::new();
        ours.push(https_rec(1, 1, 200, Some("FRITZ!Box 7590")));
        ours.push(https_rec(2, 2, 200, Some("D-LINK")));
        let tum = ScanStore::new();
        let groups = https_title_groups_dual(&ours, &tum);
        let total: u64 = groups.iter().map(|g| g.our_hosts).sum();
        assert_eq!(total, 2);
        assert!(groups.iter().all(|g| g.tum_hosts == 0));
    }
}
