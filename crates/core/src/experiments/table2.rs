//! Table 2: successful scans by protocol — responsive addresses, TLS
//! adoption, unique certificates/keys, and the cert/key overlap between
//! the two address sources.

use crate::report::{fmt_int, fmt_pct, TextTable};
use crate::{Derived, Source};
use scanner::result::Protocol;
use scanner::ScanStore;
use std::collections::HashSet;

/// One row of Table 2 (a protocol family: plain + TLS variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Family label, e.g. `HTTP (80, 443)`.
    pub label: String,
    /// NTP side: responsive addresses (plain + TLS ports).
    pub our_addrs: u64,
    /// NTP side: addresses with a successful TLS handshake.
    pub our_tls: Option<u64>,
    /// NTP side: unique certificates / keys.
    pub our_keys: Option<u64>,
    /// Hitlist side: responsive addresses.
    pub tum_addrs: u64,
    /// Hitlist side: TLS handshakes.
    pub tum_tls: Option<u64>,
    /// Hitlist side: unique certificates / keys.
    pub tum_keys: Option<u64>,
    /// Certificates / keys seen from both sources.
    pub key_overlap: Option<u64>,
}

/// A protocol family of Table 2.
struct Family {
    label: &'static str,
    plain: Protocol,
    tls: Option<Protocol>,
    key_source: &'static [Protocol],
}

const FAMILIES: [Family; 5] = [
    Family {
        label: "HTTP (80, 443)",
        plain: Protocol::Http,
        tls: Some(Protocol::Https),
        key_source: &[Protocol::Https],
    },
    Family {
        label: "SSH (22)",
        plain: Protocol::Ssh,
        tls: None,
        key_source: &[Protocol::Ssh],
    },
    Family {
        label: "MQTT (1883, 8883)",
        plain: Protocol::Mqtt,
        tls: Some(Protocol::Mqtts),
        key_source: &[Protocol::Mqtts],
    },
    Family {
        label: "AMQP (5672, 5671)",
        plain: Protocol::Amqp,
        tls: Some(Protocol::Amqps),
        key_source: &[Protocol::Amqps],
    },
    Family {
        label: "CoAP (5683 (UDP))",
        plain: Protocol::Coap,
        tls: None,
        key_source: &[],
    },
];

fn family_addrs(store: &ScanStore, f: &Family) -> u64 {
    let mut addrs = store.addrs(f.plain);
    if let Some(tls) = f.tls {
        addrs.extend(store.addrs(tls));
    }
    addrs.len() as u64
}

fn family_keys(study: &Derived, src: Source, f: &Family) -> Option<HashSet<[u8; 32]>> {
    if f.key_source.is_empty() {
        return None;
    }
    let mut keys = HashSet::new();
    for p in f.key_source {
        keys.extend(study.fingerprints(src, *p));
    }
    Some(keys)
}

fn row(study: &Derived, f: &Family) -> Row {
    let our_keys_set = family_keys(study, Source::Ntp, f);
    let tum_keys_set = family_keys(study, Source::Hitlist, f);
    let key_overlap = match (&our_keys_set, &tum_keys_set) {
        (Some(a), Some(b)) => Some(a.intersection(b).count() as u64),
        _ => None,
    };
    Row {
        label: f.label.to_string(),
        our_addrs: family_addrs(&study.ntp_scan, f),
        our_tls: f.tls.map(|t| study.ntp_scan.addrs_with_tls(t).len() as u64),
        our_keys: our_keys_set.map(|s| s.len() as u64),
        tum_addrs: family_addrs(&study.hitlist_scan, f),
        tum_tls: f
            .tls
            .map(|t| study.hitlist_scan.addrs_with_tls(t).len() as u64),
        tum_keys: tum_keys_set.map(|s| s.len() as u64),
        key_overlap,
    }
}

/// Computes Table 2.
pub fn compute(study: &Derived) -> Vec<Row> {
    FAMILIES.iter().map(|f| row(study, f)).collect()
}

/// Table 2's CoAP row alone — the one family the takeaways quote.
pub fn coap_row(study: &Derived) -> Row {
    let coap = FAMILIES
        .iter()
        .find(|f| f.plain == Protocol::Coap)
        .expect("Table 2 has a CoAP family");
    row(study, coap)
}

fn opt(v: Option<u64>) -> String {
    v.map(fmt_int).unwrap_or_else(|| "-".into())
}

fn opt_with_share(v: Option<u64>, of: u64) -> String {
    match v {
        None => "-".into(),
        Some(n) if of > 0 => format!("{} ({})", fmt_int(n), fmt_pct(n as f64 / of as f64)),
        Some(n) => fmt_int(n),
    }
}

/// The §4.2 CoAP dedup check: `(devices with embedded MAC, distinct
/// MACs)` for the NTP-side CoAP population.
pub fn coap_mac_dedup(study: &Derived) -> (u64, u64) {
    analysis::coap_groups::mac_dedup(study.coap_devices(Source::Ntp))
}

/// Renders Table 2, plus the NTP-side hit rate the paper discusses in §6
/// and the CoAP MAC-dedup check of §4.2.
pub fn render(study: &Derived) -> String {
    let rows = compute(study);
    let (coap_macs, coap_distinct) = coap_mac_dedup(study);
    let mut out = TextTable::new(vec![
        "Protocol (Ports)",
        "Our #Addrs",
        "Our w/ TLS",
        "Our #Certs/Keys",
        "TUM #Addrs",
        "TUM w/ TLS",
        "TUM #Certs/Keys",
        "#Overlap",
    ]);
    for r in &rows {
        out.row(vec![
            r.label.clone(),
            fmt_int(r.our_addrs),
            opt_with_share(r.our_tls, r.our_addrs),
            opt(r.our_keys),
            fmt_int(r.tum_addrs),
            opt_with_share(r.tum_tls, r.tum_addrs),
            opt(r.tum_keys),
            opt(r.key_overlap),
        ]);
    }
    format!(
        "== Table 2: successful scans by protocol ==\n{}\nNTP-sourced overall hit rate: {} \
         ({} responsive of {} targets)\nCoAP MAC dedup (§4.2): {} distinct MACs among {} \
         EUI-64 CoAP responders ({})\n",
        out.render(),
        crate::report::fmt_permille(study.ntp_scan.hit_rate()),
        fmt_int((study.ntp_scan.hit_rate() * study.ntp_scan.targets() as f64).round() as u64),
        fmt_int(study.ntp_scan.targets()),
        fmt_int(coap_distinct),
        fmt_int(coap_macs),
        fmt_pct(if coap_macs > 0 {
            coap_distinct as f64 / coap_macs as f64
        } else {
            0.0
        }),
    )
}
