//! The scan-result store and hit-rate accounting.
//!
//! Counting goes through an embedded [`telemetry::Registry`] — the same
//! accounting path the end-of-run report reads — instead of the
//! parallel `HashMap` bookkeeping the store once kept. The accessor API
//! is unchanged; the counters are now *derived from* the registry, so
//! legacy totals and report totals cannot disagree.

use crate::metrics;
use crate::result::{FailureCause, Protocol, ScanRecord};
use std::collections::HashSet;
use std::net::Ipv6Addr;
use telemetry::Registry;

/// Collected scan results for one address source (NTP feed or hitlist).
#[derive(Debug, Clone, Default)]
pub struct ScanStore {
    records: Vec<ScanRecord>,
    registry: Registry,
}

impl ScanStore {
    /// Empty store.
    pub fn new() -> ScanStore {
        ScanStore::default()
    }

    /// Notes that one target address entered the pipeline.
    pub fn note_target(&mut self) {
        self.registry.inc(metrics::SCAN_TARGETS);
    }

    /// Notes a probe attempt.
    pub fn note_attempt(&mut self, protocol: Protocol) {
        self.registry.inc(metrics::attempts(protocol));
    }

    /// Notes that a whole probe train failed, and why.
    pub fn note_failure(&mut self, protocol: Protocol, cause: FailureCause) {
        self.registry.inc(metrics::failures(protocol, cause));
    }

    /// Notes an exponential-backoff wait of `secs` simulation seconds
    /// applied before retrying a probe.
    pub fn note_backoff(&mut self, protocol: Protocol, secs: u64) {
        self.registry
            .observe(metrics::backoff_seconds(protocol), secs);
    }

    /// Adds a successful record (and its per-protocol counter + RTT
    /// sample).
    pub fn push(&mut self, record: ScanRecord) {
        self.registry.inc(metrics::records(record.protocol));
        self.registry
            .observe(metrics::rtt_seconds(record.protocol), record.rtt.as_secs());
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[ScanRecord] {
        &self.records
    }

    /// Records for one protocol.
    pub fn by_protocol(&self, p: Protocol) -> impl Iterator<Item = &ScanRecord> + '_ {
        self.records.iter().filter(move |r| r.protocol == p)
    }

    /// Distinct responsive addresses for a protocol.
    pub fn addrs(&self, p: Protocol) -> HashSet<Ipv6Addr> {
        self.by_protocol(p).map(|r| r.addr).collect()
    }

    /// Distinct responsive addresses whose TLS handshake succeeded.
    pub fn addrs_with_tls(&self, p: Protocol) -> HashSet<Ipv6Addr> {
        self.by_protocol(p)
            .filter(|r| r.result.tls().is_some_and(|t| t.cert().is_some()))
            .map(|r| r.addr)
            .collect()
    }

    /// Distinct certificate / host-key fingerprints for a protocol.
    pub fn fingerprints(&self, p: Protocol) -> HashSet<[u8; 32]> {
        self.by_protocol(p)
            .filter_map(|r| r.result.fingerprint())
            .collect()
    }

    /// One representative record per fingerprint (first seen), the unit of
    /// the paper's "unique hosts by cert/key" analyses.
    pub fn unique_by_fingerprint(&self, p: Protocol) -> Vec<&ScanRecord> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for r in self.by_protocol(p) {
            if let Some(fp) = r.result.fingerprint() {
                if seen.insert(fp) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Probe attempts per protocol.
    pub fn attempts(&self, p: Protocol) -> u64 {
        self.registry.counter(metrics::attempts(p))
    }

    /// Failed probe trains with the given cause, across protocols.
    pub fn failures(&self, cause: FailureCause) -> u64 {
        Protocol::ALL
            .iter()
            .map(|p| self.failures_for(*p, cause))
            .sum()
    }

    /// Failed probe trains for one `(protocol, cause)` pair.
    pub fn failures_for(&self, protocol: Protocol, cause: FailureCause) -> u64 {
        self.registry.counter(metrics::failures(protocol, cause))
    }

    /// All failed probe trains.
    pub fn failures_total(&self) -> u64 {
        Protocol::ALL
            .iter()
            .flat_map(|p| FailureCause::ALL.iter().map(move |c| (*p, *c)))
            .map(|(p, c)| self.failures_for(p, c))
            .sum()
    }

    /// Target addresses fed into the pipeline.
    pub fn targets(&self) -> u64 {
        self.registry.counter(metrics::SCAN_TARGETS)
    }

    /// Overall hit rate: distinct responsive addresses on any protocol
    /// over targets (the paper reports 0.42 ‰ for NTP-sourced scans).
    pub fn hit_rate(&self) -> f64 {
        let targets = self.targets();
        if targets == 0 {
            return 0.0;
        }
        let responsive: HashSet<Ipv6Addr> = self.records.iter().map(|r| r.addr).collect();
        responsive.len() as f64 / targets as f64
    }

    /// The store's metrics registry (the one accounting path — every
    /// accessor above reads it).
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{CertMeta, ServiceResult, TlsOutcome};
    use netsim::time::{Duration, SimTime};
    use wire::tls::Version;

    fn rec(addr: &str, p: Protocol, result: ServiceResult) -> ScanRecord {
        ScanRecord {
            addr: addr.parse().unwrap(),
            time: SimTime(0),
            protocol: p,
            result,
            attempts: 1,
            rtt: Duration::ZERO,
        }
    }

    fn https_ok(fp: u8) -> ServiceResult {
        ServiceResult::Https {
            tls: TlsOutcome::Established(CertMeta {
                fingerprint: [fp; 32],
                subject: "s".into(),
                issuer: "s".into(),
                self_signed: true,
                version: Version::Tls13,
            }),
            status: Some(200),
            title: Some("T".into()),
        }
    }

    #[test]
    fn dedup_by_fingerprint() {
        let mut s = ScanStore::new();
        s.push(rec("2001:db8::1", Protocol::Https, https_ok(1)));
        s.push(rec("2001:db8::2", Protocol::Https, https_ok(1))); // same key
        s.push(rec("2001:db8::3", Protocol::Https, https_ok(2)));
        assert_eq!(s.addrs(Protocol::Https).len(), 3);
        assert_eq!(s.fingerprints(Protocol::Https).len(), 2);
        let uniq = s.unique_by_fingerprint(Protocol::Https);
        assert_eq!(uniq.len(), 2);
        assert_eq!(uniq[0].addr, "2001:db8::1".parse::<Ipv6Addr>().unwrap());
    }

    #[test]
    fn tls_failures_counted_as_addrs_not_tls() {
        let mut s = ScanStore::new();
        s.push(rec(
            "2001:db8::9",
            Protocol::Https,
            ServiceResult::Https {
                tls: TlsOutcome::Failed(wire::tls::Alert::UnrecognizedName),
                status: None,
                title: None,
            },
        ));
        assert_eq!(s.addrs(Protocol::Https).len(), 1);
        assert_eq!(s.addrs_with_tls(Protocol::Https).len(), 0);
        assert_eq!(s.fingerprints(Protocol::Https).len(), 0);
    }

    #[test]
    fn hit_rate() {
        let mut s = ScanStore::new();
        for _ in 0..1000 {
            s.note_target();
        }
        s.push(rec(
            "2001:db8::1",
            Protocol::Http,
            ServiceResult::Http {
                status: 200,
                title: None,
            },
        ));
        s.push(rec(
            "2001:db8::1",
            Protocol::Ssh,
            ServiceResult::Ssh {
                software: "x".into(),
                comment: None,
                fingerprint: [0; 32],
            },
        ));
        // One distinct responsive address out of 1000 targets.
        assert!((s.hit_rate() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn accessors_and_registry_are_one_accounting_path() {
        // The store's legacy accessors read the embedded registry, so
        // they reconcile with a report snapshot by construction.
        let mut s = ScanStore::new();
        s.note_target();
        s.note_attempt(Protocol::Http);
        s.note_attempt(Protocol::Http);
        s.note_failure(Protocol::Ssh, FailureCause::Timeout);
        s.note_backoff(Protocol::Ssh, 2);
        s.push(rec("2001:db8::1", Protocol::Https, https_ok(1)));
        let snap = s.telemetry().snapshot();
        assert_eq!(snap.counter_total("scan_targets"), s.targets());
        assert_eq!(snap.counter_total("scan_attempts"), 2);
        assert_eq!(snap.counter_total("scan_failures"), s.failures_total());
        assert_eq!(snap.counter_total("scan_records"), s.records().len() as u64);
        let backoff =
            telemetry::OwnedKey::with_labels("scan_backoff_seconds", &[("protocol", "SSH")]);
        assert_eq!(snap.hist(&backoff).unwrap().sum(), 2);
    }

    #[test]
    fn failure_counters_sum_to_unresolved_trains() {
        // The store invariant the engine maintains: every probe train
        // ends as exactly one record or one counted failure, so
        // records + failures == targets × protocols.
        let mut s = ScanStore::new();
        s.note_target();
        s.note_target();
        let protocols = [Protocol::Http, Protocol::Ssh, Protocol::Coap];
        // Target 1: HTTP answers, SSH times out, CoAP has no listener.
        s.push(rec(
            "2001:db8::1",
            Protocol::Http,
            ServiceResult::Http {
                status: 200,
                title: None,
            },
        ));
        s.note_failure(Protocol::Ssh, FailureCause::Timeout);
        s.note_failure(Protocol::Coap, FailureCause::NoListener);
        // Target 2: HTTP truncated, SSH and CoAP silent.
        s.note_failure(Protocol::Http, FailureCause::Malformed);
        s.note_failure(Protocol::Ssh, FailureCause::NoListener);
        s.note_failure(Protocol::Coap, FailureCause::NoListener);
        let trains = s.targets() * protocols.len() as u64;
        assert_eq!(s.records().len() as u64 + s.failures_total(), trains);
        let by_cause: u64 = FailureCause::ALL.iter().map(|c| s.failures(*c)).sum();
        assert_eq!(by_cause, s.failures_total());
    }
}
