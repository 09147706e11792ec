//! Secret (key/certificate) reuse analysis (paper §6).
//!
//! A fingerprint is *reused* when it appears in more than two origin ASes
//! (two allows for dual-homed hosts). The paper reports the most-used key
//! (most addresses), the most-widespread key (most ASes), and totals.

use netsim::topology::Topology;
use scanner::result::Protocol;
use scanner::ScanStore;
use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;

/// Reuse threshold: fingerprints in more than this many ASes count as
/// reused.
pub const AS_THRESHOLD: usize = 2;

/// One reused secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReusedKey {
    /// The fingerprint.
    pub fingerprint: [u8; 32],
    /// Addresses presenting it.
    pub addrs: u64,
    /// Origin ASes those addresses span.
    pub ases: u64,
}

/// Aggregate reuse statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseStats {
    /// Reused keys (above the AS threshold).
    pub reused_keys: Vec<ReusedKey>,
    /// Total addresses relying on reused keys.
    pub total_addrs: u64,
}

impl ReuseStats {
    /// The most-used key (by addresses).
    pub fn most_used(&self) -> Option<&ReusedKey> {
        self.reused_keys.iter().max_by_key(|k| k.addrs)
    }

    /// The most-widespread key (by ASes).
    pub fn most_widespread(&self) -> Option<&ReusedKey> {
        self.reused_keys.iter().max_by_key(|k| k.ases)
    }
}

/// Computes reuse over the given protocols of a store. For HTTP(S) the
/// paper restricts itself to status-200 responses; the store only holds
/// successful handshakes, and the status filter is applied here.
pub fn reuse_stats(store: &ScanStore, protocols: &[Protocol], topology: &Topology) -> ReuseStats {
    let mut addrs_per_fp: HashMap<[u8; 32], HashSet<Ipv6Addr>> = HashMap::new();
    for p in protocols {
        for r in store.by_protocol(*p) {
            if let scanner::result::ServiceResult::Https { status, .. } = &r.result {
                if *status != Some(200) {
                    continue;
                }
            }
            if let Some(fp) = r.result.fingerprint() {
                addrs_per_fp.entry(fp).or_default().insert(r.addr);
            }
        }
    }
    let mut reused_keys = Vec::new();
    let mut total_addrs = 0;
    for (fp, addrs) in addrs_per_fp {
        let ases: HashSet<u32> = addrs
            .iter()
            .filter_map(|a| topology.origin(*a))
            .map(|asn| asn.0)
            .collect();
        if ases.len() > AS_THRESHOLD {
            total_addrs += addrs.len() as u64;
            reused_keys.push(ReusedKey {
                fingerprint: fp,
                addrs: addrs.len() as u64,
                ases: ases.len() as u64,
            });
        }
    }
    reused_keys.sort_by(|a, b| {
        b.addrs
            .cmp(&a.addrs)
            .then(a.fingerprint.cmp(&b.fingerprint))
    });
    ReuseStats {
        reused_keys,
        total_addrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::country;
    use netsim::peeringdb::AsType;
    use netsim::time::SimTime;
    use netsim::topology::{AsInfo, Asn};
    use scanner::result::{ScanRecord, ServiceResult};

    fn topo(n: u32) -> Topology {
        let mut t = Topology::new();
        for i in 0..n {
            t.register(AsInfo {
                asn: Asn(i + 1),
                kind: AsType::Hosting,
                country: country::DE,
                allocations: vec![format!("2a{i:02x}::/32").parse().unwrap()],
            });
        }
        t
    }

    fn ssh_rec(as_idx: u32, host: u64, fp: u8) -> ScanRecord {
        let addr: Ipv6Addr = format!("2a{:02x}::{:x}", as_idx, host + 1).parse().unwrap();
        ScanRecord {
            addr,
            time: SimTime(0),
            attempts: 1,
            rtt: netsim::time::Duration::ZERO,
            protocol: Protocol::Ssh,
            result: ServiceResult::Ssh {
                software: "OpenSSH_9.2p1".into(),
                comment: None,
                fingerprint: [fp; 32],
            },
        }
    }

    #[test]
    fn reuse_across_many_ases_detected() {
        let topo = topo(6);
        let mut store = ScanStore::new();
        // Key 1 spans 5 ASes with 8 addresses.
        for as_idx in 0..5 {
            store.push(ssh_rec(as_idx, 0, 1));
        }
        for host in 1..4 {
            store.push(ssh_rec(0, host, 1));
        }
        // Key 2 spans only 2 ASes (dual-homed → not reuse).
        store.push(ssh_rec(0, 10, 2));
        store.push(ssh_rec(1, 10, 2));
        // Key 3 unique.
        store.push(ssh_rec(2, 20, 3));

        let stats = reuse_stats(&store, &[Protocol::Ssh], &topo);
        assert_eq!(stats.reused_keys.len(), 1);
        assert_eq!(stats.total_addrs, 8);
        let k = stats.most_used().unwrap();
        assert_eq!(k.addrs, 8);
        assert_eq!(k.ases, 5);
        assert_eq!(stats.most_widespread().unwrap().fingerprint, k.fingerprint);
    }

    #[test]
    fn https_status_filter() {
        let topo = topo(4);
        let mut store = ScanStore::new();
        let rec = |as_idx: u32, status: Option<u16>| {
            let addr: Ipv6Addr = format!("2a{:02x}::1", as_idx).parse().unwrap();
            ScanRecord {
                addr,
                time: SimTime(0),
                attempts: 1,
                rtt: netsim::time::Duration::ZERO,
                protocol: Protocol::Https,
                result: ServiceResult::Https {
                    tls: scanner::result::TlsOutcome::Established(scanner::result::CertMeta {
                        fingerprint: [9; 32],
                        subject: "s".into(),
                        issuer: "s".into(),
                        self_signed: true,
                        version: wire::tls::Version::Tls13,
                    }),
                    status,
                    title: None,
                },
            }
        };
        // Non-200 responses are excluded, so the key never crosses the
        // threshold.
        store.push(rec(0, Some(200)));
        store.push(rec(1, Some(200)));
        store.push(rec(2, Some(403)));
        store.push(rec(3, Some(403)));
        let stats = reuse_stats(&store, &[Protocol::Https], &topo);
        assert!(stats.reused_keys.is_empty());
    }

    #[test]
    fn empty_store() {
        let stats = reuse_stats(&ScanStore::new(), &[Protocol::Ssh], &topo(1));
        assert!(stats.most_used().is_none());
        assert_eq!(stats.total_addrs, 0);
    }
}
