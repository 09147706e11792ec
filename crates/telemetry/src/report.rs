//! Run reports: run metadata plus the metric snapshot.

use std::collections::BTreeMap;

use crate::json;
use crate::snapshot::Snapshot;

/// The end-of-run artifact: string metadata describing the run (seed,
/// fault profile, scale) and the merged metric snapshot.
///
/// Serializes to canonical JSON — two equal reports are byte-identical,
/// which is what the golden-digest and resume tests compare.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Run metadata, sorted by key.
    pub meta: BTreeMap<String, String>,
    /// Every metric of the run.
    pub metrics: Snapshot,
}

impl RunReport {
    /// Builds a report from metadata pairs and a snapshot.
    pub fn new(meta: &[(&str, &str)], snapshot: &Snapshot) -> RunReport {
        RunReport {
            meta: meta
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metrics: snapshot.clone(),
        }
    }

    /// Canonical JSON: `{"meta":{...},"metrics":{...}}`, sorted keys,
    /// no whitespace.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"meta\":{");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(k, &mut out);
            out.push(':');
            json::write_str(v, &mut out);
        }
        out.push_str("},\"metrics\":");
        out.push_str(&self.metrics.to_json());
        out.push('}');
        out
    }

    /// Parses the form produced by [`RunReport::to_json`].
    pub fn from_json(s: &str) -> Option<RunReport> {
        let parsed = json::parse(s)?;
        let obj = parsed.as_obj()?;
        let mut meta = BTreeMap::new();
        for (k, v) in obj.get("meta")?.as_obj()? {
            meta.insert(k.clone(), v.as_str()?.to_string());
        }
        let metrics = json::snapshot_from_value(obj.get("metrics")?)?;
        Some(RunReport { meta, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::key::OwnedKey;
    use crate::snapshot::Value;

    #[test]
    fn report_roundtrips() {
        let mut snap = Snapshot::new();
        snap.record(
            OwnedKey::with_labels("scan_attempts", &[("protocol", "NTP")]),
            Value::Counter(9),
        );
        let mut rtt = Histogram::new();
        rtt.observe(4);
        snap.record(
            OwnedKey::with_labels("rtt", &[]),
            Value::Hist(Box::new(rtt)),
        );
        let report = RunReport::new(&[("seed", "2024"), ("fault", "lossy_1pct")], &snap);
        assert_eq!(report.metrics.len(), 2);

        let json = report.to_json();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_report_roundtrips() {
        let report = RunReport::new(&[], &Snapshot::new());
        let json = report.to_json();
        assert_eq!(json, "{\"meta\":{},\"metrics\":{}}");
        assert_eq!(RunReport::from_json(&json), Some(report));
    }

    #[test]
    fn equal_reports_serialize_byte_identically() {
        let mut a = Snapshot::new();
        let mut b = Snapshot::new();
        // Record in different orders; BTreeMap canonicalizes.
        a.record(OwnedKey::with_labels("x", &[]), Value::Counter(1));
        a.record(OwnedKey::with_labels("y", &[]), Value::Counter(2));
        b.record(OwnedKey::with_labels("y", &[]), Value::Counter(2));
        b.record(OwnedKey::with_labels("x", &[]), Value::Counter(1));
        let ra = RunReport::new(&[("seed", "1")], &a);
        let rb = RunReport::new(&[("seed", "1")], &b);
        assert_eq!(ra.to_json(), rb.to_json());
    }
}
