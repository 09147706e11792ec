//! The scan-result store and hit-rate accounting.
//!
//! The store counts like every other stage: plain fields per protocol
//! and failure cause, bumped once per event, and exported into a
//! [`telemetry::Registry`] once, by [`ScanStore::export_into`], at the
//! stage's end. The accessors read the same fields, so store totals and
//! report totals cannot disagree.

use crate::result::{FailureCause, Protocol, ScanRecord};
use netsim::TransportTotals;
use std::collections::HashSet;
use std::net::Ipv6Addr;
use telemetry::{Histogram, Key, OwnedKey, Registry};

/// Collected scan results for one address source (NTP feed or hitlist).
/// The per-protocol tallies are indexed in [`Protocol::ALL`] order, the
/// per-cause ones in [`FailureCause::ALL`] order.
#[derive(Debug, Clone, Default)]
pub struct ScanStore {
    records: Vec<ScanRecord>,
    targets: u64,
    attempts: [u64; 8],
    failures: [[u64; 3]; 8],
    backoff: [Histogram; 8],
    /// Every probe attempt's transport exchange, counted by the engine.
    pub(crate) transport: TransportTotals,
}

impl ScanStore {
    /// Empty store.
    pub fn new() -> ScanStore {
        ScanStore::default()
    }

    /// Notes that one target address entered the pipeline.
    pub fn note_target(&mut self) {
        self.targets += 1;
    }

    /// Notes a probe attempt.
    pub fn note_attempt(&mut self, protocol: Protocol) {
        self.attempts[protocol as usize] += 1;
    }

    /// Notes that a whole probe train failed, and why.
    pub fn note_failure(&mut self, protocol: Protocol, cause: FailureCause) {
        self.failures[protocol as usize][cause as usize] += 1;
    }

    /// Notes an exponential-backoff wait of `secs` simulation seconds
    /// applied before retrying a probe.
    pub fn note_backoff(&mut self, protocol: Protocol, secs: u64) {
        self.backoff[protocol as usize].observe(secs);
    }

    /// Adds a successful record. Its per-protocol count and RTT sample
    /// are derived from the records at export.
    pub fn push(&mut self, record: ScanRecord) {
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
        self.attempts[p as usize]
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
        self.failures[protocol as usize][cause as usize]
    }

    /// All failed probe trains.
    #[cfg(test)]
    pub(crate) fn failures_total(&self) -> u64 {
        self.failures.iter().flatten().sum()
    }

    /// Target addresses fed into the pipeline.
    pub fn targets(&self) -> u64 {
        self.targets
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

    /// Exports the store's metrics into `registry`: `scan_targets`,
    /// per-protocol `scan_attempts`, `scan_records`,
    /// `scan_backoff_seconds` and `scan_rtt_seconds`, and
    /// `scan_failures` per `(cause, protocol)`. Zero counters and empty
    /// histograms are left out, except the `transport_*` keys, which
    /// are written whole.
    pub fn export_into(&self, registry: &mut Registry) {
        self.transport.export_into(registry);
        if self.targets > 0 {
            registry.add(Key::bare("scan_targets"), self.targets);
        }
        let mut records = [0u64; 8];
        let mut rtt: [Histogram; 8] = Default::default();
        for r in &self.records {
            records[r.protocol as usize] += 1;
            rtt[r.protocol as usize].observe(r.rtt.as_secs());
        }
        for (i, p) in Protocol::ALL.into_iter().enumerate() {
            let key = |name: &str| OwnedKey::with_labels(name, &[("protocol", p.name())]);
            for (name, n) in [
                ("scan_attempts", self.attempts[i]),
                ("scan_records", records[i]),
            ] {
                if n > 0 {
                    registry.add_dyn(key(name), n);
                }
            }
            for (name, h) in [
                ("scan_backoff_seconds", &self.backoff[i]),
                ("scan_rtt_seconds", &rtt[i]),
            ] {
                if !h.is_empty() {
                    registry.merge_hist(key(name), h);
                }
            }
            for (c, &n) in FailureCause::ALL.into_iter().zip(&self.failures[i]) {
                if n > 0 {
                    let labels = [("cause", c.name()), ("protocol", p.name())];
                    registry.add_dyn(OwnedKey::with_labels("scan_failures", &labels), n);
                }
            }
        }
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

    fn exported(s: &ScanStore) -> telemetry::Snapshot {
        let mut reg = Registry::new();
        s.export_into(&mut reg);
        reg.snapshot()
    }

    #[test]
    fn accessors_and_registry_are_one_accounting_path() {
        // The accessors and the export read the same tallies, so they
        // reconcile with a report snapshot by construction.
        let mut s = ScanStore::new();
        s.note_target();
        s.note_attempt(Protocol::Http);
        s.note_attempt(Protocol::Http);
        s.note_failure(Protocol::Ssh, FailureCause::Timeout);
        s.note_backoff(Protocol::Ssh, 2);
        s.push(rec("2001:db8::1", Protocol::Https, https_ok(1)));
        let snap = exported(&s);
        assert_eq!(snap.counter_total("scan_targets"), s.targets());
        assert_eq!(snap.counter_total("scan_attempts"), 2);
        assert_eq!(snap.counter_total("scan_failures"), s.failures_total());
        assert_eq!(snap.counter_total("scan_records"), s.records().len() as u64);
        let backoff = OwnedKey::with_labels("scan_backoff_seconds", &[("protocol", "SSH")]);
        assert_eq!(snap.hist(&backoff).unwrap().sum(), 2);
    }

    #[test]
    fn congested_export_matches_the_accessors_and_holds_no_empty_entry() {
        use crate::engine::{Engine, ScanPolicy};
        use netsim::transport::{FaultConfig, Faulty};
        use netsim::world::{World, WorldConfig};

        let w = World::generate(WorldConfig::tiny(33));
        let t = SimTime(1_000);
        let transport = Box::new(Faulty::new(FaultConfig::congested(5)));
        let mut engine = Engine::with_transport(ScanPolicy::default(), transport);
        for d in w.metas().take(200) {
            engine.scan_target(&w, w.address_of_meta(&d, t), t);
        }
        let s = engine.into_store();
        assert!(!s.records().is_empty() && s.failures_total() > 0);
        let snap = exported(&s);
        for (key, value) in snap.iter() {
            match value {
                telemetry::Value::Counter(n) => assert!(*n > 0, "zero counter {key}"),
                telemetry::Value::Hist(h) => assert!(!h.is_empty(), "empty histogram {key}"),
            }
        }
        assert_eq!(snap.counter_total("scan_targets"), s.targets());
        assert_eq!(snap.counter_total("scan_records"), s.records().len() as u64);
        assert_eq!(snap.counter_total("scan_failures"), s.failures_total());
        for p in Protocol::ALL {
            let key = |name: &str| OwnedKey::with_labels(name, &[("protocol", p.name())]);
            assert_eq!(snap.counter(&key("scan_attempts")), s.attempts(p));
            let records = s.by_protocol(p).count() as u64;
            assert_eq!(snap.counter(&key("scan_records")), records);
            let rtt = snap.hist(&key("scan_rtt_seconds"));
            assert_eq!(rtt.map_or(0, |h| h.count()), records, "{p}");
            for c in FailureCause::ALL {
                let labels = [("cause", c.name()), ("protocol", p.name())];
                let key = OwnedKey::with_labels("scan_failures", &labels);
                assert_eq!(snap.counter(&key), s.failures_for(p, c));
            }
        }
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
