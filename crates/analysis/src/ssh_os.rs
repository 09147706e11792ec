//! SSH OS extraction (paper §4.3.2, Tables 3/9).
//!
//! SSH identification strings often carry the distribution in the
//! comment: `SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3` → "Debian". Hosts
//! are deduplicated by host key; the OS is whatever precedes the first
//! `-` of the comment (the convention Debian-family and FreeBSD packages
//! follow), `(empty)` when no comment exists.

use scanner::result::{Protocol, ServiceResult};
use scanner::ScanStore;
use std::collections::HashMap;
use std::net::Ipv6Addr;

/// Label for identifications without a comment.
pub const EMPTY_OS: &str = "(empty)";

/// Extracts the OS label from an identification comment.
pub fn os_of_comment(comment: Option<&str>) -> String {
    match comment {
        None => EMPTY_OS.to_string(),
        Some(c) => {
            let head = c.split(['-', ' ']).next().unwrap_or("");
            if head.is_empty() {
                EMPTY_OS.to_string()
            } else {
                head.to_string()
            }
        }
    }
}

/// One unique SSH host (by host key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SshHost {
    /// First address the key was seen at.
    pub addr: Ipv6Addr,
    /// Host-key fingerprint.
    pub fingerprint: [u8; 32],
    /// Software version (e.g. `OpenSSH_9.2p1`).
    pub software: String,
    /// Raw comment.
    pub comment: Option<String>,
    /// Extracted OS label.
    pub os: String,
    /// Every address the key appeared at (for by-network views and key
    /// reuse).
    pub addrs: Vec<Ipv6Addr>,
}

/// Unique SSH hosts of a store, by host-key fingerprint.
pub fn unique_ssh_hosts(store: &ScanStore) -> Vec<SshHost> {
    let mut by_fp: HashMap<[u8; 32], SshHost> = HashMap::new();
    for r in store.by_protocol(Protocol::Ssh) {
        if let ServiceResult::Ssh {
            software,
            comment,
            fingerprint,
        } = &r.result
        {
            by_fp
                .entry(*fingerprint)
                .and_modify(|h| h.addrs.push(r.addr))
                .or_insert_with(|| SshHost {
                    addr: r.addr,
                    fingerprint: *fingerprint,
                    software: software.clone(),
                    comment: comment.clone(),
                    os: os_of_comment(comment.as_deref()),
                    addrs: vec![r.addr],
                });
        }
    }
    let mut hosts: Vec<SshHost> = by_fp.into_values().collect();
    hosts.sort_by_key(|a| a.fingerprint);
    hosts
}

/// OS → unique-host counts, descending.
pub fn os_distribution(hosts: &[SshHost]) -> Vec<(String, u64)> {
    let mut counts: HashMap<&str, u64> = HashMap::new();
    for h in hosts {
        *counts.entry(h.os.as_str()).or_insert(0) += 1;
    }
    let mut v: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(k, n)| (k.to_string(), n))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;
    use scanner::result::ScanRecord;

    fn rec(addr: u128, fp: u8, software: &str, comment: Option<&str>) -> ScanRecord {
        ScanRecord {
            addr: std::net::Ipv6Addr::from(addr),
            time: SimTime(0),
            attempts: 1,
            rtt: netsim::time::Duration::ZERO,
            protocol: Protocol::Ssh,
            result: ServiceResult::Ssh {
                software: software.into(),
                comment: comment.map(str::to_string),
                fingerprint: [fp; 32],
            },
        }
    }

    #[test]
    fn comment_parsing() {
        assert_eq!(os_of_comment(Some("Debian-2+deb12u3")), "Debian");
        assert_eq!(os_of_comment(Some("Ubuntu-3ubuntu0.13")), "Ubuntu");
        assert_eq!(os_of_comment(Some("Raspbian-5+deb11u2")), "Raspbian");
        assert_eq!(os_of_comment(Some("FreeBSD-20240806")), "FreeBSD");
        assert_eq!(os_of_comment(Some("PKIX SSH")), "PKIX");
        assert_eq!(os_of_comment(None), EMPTY_OS);
        assert_eq!(os_of_comment(Some("")), EMPTY_OS);
        assert_eq!(os_of_comment(Some("-oddity")), EMPTY_OS);
    }

    #[test]
    fn dedup_by_key_and_distribution() {
        let mut store = ScanStore::new();
        store.push(rec(1, 1, "OpenSSH_9.2p1", Some("Debian-2+deb12u3")));
        store.push(rec(2, 1, "OpenSSH_9.2p1", Some("Debian-2+deb12u3"))); // reused key
        store.push(rec(3, 2, "OpenSSH_8.4p1", Some("Raspbian-5+deb11u2")));
        store.push(rec(4, 3, "dropbear_2022.83", None));
        let hosts = unique_ssh_hosts(&store);
        assert_eq!(hosts.len(), 3);
        let reused = hosts.iter().find(|h| h.fingerprint == [1; 32]).unwrap();
        assert_eq!(reused.addrs.len(), 2);

        let dist = os_distribution(&hosts);
        let count = |os: &str| dist.iter().find(|(k, _)| k == os).map_or(0, |(_, n)| *n);
        assert_eq!(count("Debian"), 1);
        assert_eq!(count("Raspbian"), 1);
        assert_eq!(count(EMPTY_OS), 1);
        assert_eq!(count("FreeBSD"), 0);
    }

    #[test]
    fn distribution_sorted_descending() {
        let mut store = ScanStore::new();
        for i in 0..5u8 {
            store.push(rec(
                u128::from(i),
                i,
                "OpenSSH_8.9p1",
                Some("Ubuntu-3ubuntu0.13"),
            ));
        }
        store.push(rec(99, 99, "OpenSSH_9.2p1", Some("Debian-2+deb12u3")));
        let dist = os_distribution(&unique_ssh_hosts(&store));
        assert_eq!(dist[0].0, "Ubuntu");
        assert_eq!(dist[0].1, 5);
    }
}
