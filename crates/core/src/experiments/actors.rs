//! §5: NTP-sourcing by others — the telescope's actor findings.

use crate::report::{fmt_int, TextTable};
use crate::Derived;
use ::actors::{ActorCharacter, TelescopeReport};

/// Computes (returns) the telescope report.
pub fn compute<'a>(study: &'a Derived<'_>) -> Option<&'a TelescopeReport> {
    study.telescope.as_ref()
}

/// Renders the §5 findings.
pub fn render(study: &Derived) -> String {
    let Some(report) = compute(study) else {
        return "== §5: telescope disabled for this run ==\n".to_string();
    };
    let mut out = format!(
        "== §5: NTP-sourcing by others ==\nmatched packets: {}   unmatched: {}   scatter: {}\n",
        fmt_int(report.matched_packets),
        fmt_int(report.unmatched_packets),
        fmt_int(report.scatter_packets),
    );
    let mut t = TextTable::new(vec![
        "Actor",
        "servers",
        "ports",
        "reaction (min..max)",
        "campaign",
        "coverage",
        "sources",
        "verdict",
    ]);
    for a in &report.actors {
        t.row(vec![
            a.identification
                .clone()
                .unwrap_or_else(|| format!("(anonymous actor {})", a.actor_id)),
            fmt_int(a.matched_servers.len() as u64),
            fmt_int(a.ports.len() as u64),
            format!("{}..{}", a.min_reaction, a.max_reaction),
            a.campaign_span.to_string(),
            format!("{:.0}%", a.port_coverage * 100.0),
            a.source_orgs
                .iter()
                .map(|o| o.name())
                .collect::<Vec<_>>()
                .join("+"),
            match a.character() {
                ActorCharacter::Research => "research".to_string(),
                ActorCharacter::Covert => "covert".to_string(),
            },
        ]);
    }
    out.push_str(&t.render());
    out
}
