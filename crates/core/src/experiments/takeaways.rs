//! The paper's five takeaway boxes, re-stated with this run's measured
//! numbers — the one-screen summary of the whole reproduction.

use crate::report::fmt_pct;
use crate::Derived;

/// Renders every takeaway with measured values.
pub fn render(study: &Derived) -> String {
    let f1 = super::fig1::compute(study);
    let coap = super::table2::coap_row(study);
    let sec = super::security::compute(study);
    let t3 = super::table3::compute(study);

    let new_devices = super::table3::new_device_count(study);
    let fritz = super::table3::our_title_count(&t3.titles, "FRITZ!Box 7590");
    let our_certs: u64 = t3.titles.iter().map(|g| g.our_hosts).sum();

    let mut out = String::from("== Takeaways (measured) ==\n");
    out.push_str(&format!(
        "§3: NTP-sourced addresses skew to end-user devices: {} sit in Cable/DSL/ISP ASes \
         (hitlist: {}), {} structured IIDs (hitlist: {}).\n",
        fmt_pct(f1.ours.eyeball_as_share),
        fmt_pct(f1.full.eyeball_as_share),
        fmt_pct(f1.ours.iid.structured_share()),
        fmt_pct(f1.full.iid.structured_share()),
    ));
    out.push_str(&format!(
        "§4.3: hitlist-based scans miss whole device classes: {} underrepresented devices \
         found via NTP; FRITZ! products are {} of NTP-side HTTPS hosts; CoAP finds {}x \
         more endpoints via NTP ({} vs {}).\n",
        new_devices,
        fmt_pct(fritz as f64 / our_certs.max(1) as f64),
        coap.our_addrs
            .checked_div(coap.tum_addrs)
            .unwrap_or(coap.our_addrs),
        coap.our_addrs,
        coap.tum_addrs,
    ));
    out.push_str(&format!(
        "§4.4: the secure share drops from {} (hitlist, {} hosts) to {} (NTP-sourced, {} hosts).\n",
        fmt_pct(sec.tum.secure_share()),
        sec.tum.total_hosts(),
        fmt_pct(sec.ours.secure_share()),
        sec.ours.total_hosts(),
    ));
    if let Some(t) = &study.telescope {
        let research = t
            .actors
            .iter()
            .filter(|a| a.character() == ::actors::ActorCharacter::Research)
            .count();
        let covert = t.actors.len() - research;
        out.push_str(&format!(
            "§5: NTP-sourcing is already used by others: {} research actor(s) and {} covert \
             actor(s) detected; every captured packet traced to an NTP query.\n",
            research, covert
        ));
    }
    out.push_str(&format!(
        "§6: NTP-sourced addresses decay with prefix rotation (hit rate {}), so live \
         sourcing beats static lists for end-user measurements.\n",
        crate::report::fmt_permille(study.ntp_scan.hit_rate()),
    ));
    out
}
