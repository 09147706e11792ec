//! Which scanner archetypes a scenario runs.

use std::fmt;

/// Bit set selecting the adversarial-scanner archetypes active in a
/// study scenario.
///
/// The roster is part of the study configuration and of the checkpoint
/// format (one byte), so the flag values are frozen: adding an
/// archetype appends a new bit, never renumbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorRoster(u8);

impl ActorRoster {
    /// No actors at all (the telescope sees only scatter).
    pub const NONE: ActorRoster = ActorRoster(0);
    /// The paper's identified research scanner (§5.2).
    pub const RESEARCH: ActorRoster = ActorRoster(1);
    /// The paper's covert cloud-hosted scanner (§5.2).
    pub const COVERT: ActorRoster = ActorRoster(1 << 1);
    /// Prefix-walking actor expanding sourced addresses into /64 sweeps.
    pub const PREFIX_WALK: ActorRoster = ActorRoster(1 << 2);
    /// Hitlist-reuse actor replaying a stale public-hitlist snapshot.
    pub const HITLIST_REUSE: ActorRoster = ActorRoster(1 << 3);
    /// BGP-signal-adaptive actor re-targeting on route announcements.
    pub const BGP_ADAPTIVE: ActorRoster = ActorRoster(1 << 4);
    /// The two actors every pre-ecosystem study ran: research + covert.
    pub const BASELINE: ActorRoster = ActorRoster(ActorRoster::RESEARCH.0 | ActorRoster::COVERT.0);
    /// Every archetype.
    pub const ALL: ActorRoster = ActorRoster(
        ActorRoster::BASELINE.0
            | ActorRoster::PREFIX_WALK.0
            | ActorRoster::HITLIST_REUSE.0
            | ActorRoster::BGP_ADAPTIVE.0,
    );

    /// The raw bits (checkpoint encoding).
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// Decodes roster bits; `None` if any unknown bit is set (a
    /// checkpoint from a future format).
    pub fn from_bits(bits: u8) -> Option<ActorRoster> {
        (bits & !ActorRoster::ALL.0 == 0).then_some(ActorRoster(bits))
    }

    /// Is every flag of `other` set in `self`?
    pub fn contains(&self, other: ActorRoster) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two rosters.
    #[cfg(test)]
    pub(crate) fn with(&self, other: ActorRoster) -> ActorRoster {
        ActorRoster(self.0 | other.0)
    }

    /// The single-flag rosters set in `self`, with their attribution
    /// labels, in bit order.
    pub fn flags(&self) -> impl Iterator<Item = (ActorRoster, &'static str)> + '_ {
        FLAG_LABELS
            .iter()
            .copied()
            .filter(move |(f, _)| self.contains(*f))
    }
}

/// Every archetype flag with its canonical attribution label. Labels
/// double as telemetry label values, so they avoid `{`, `}`, `,`, `=`.
pub const FLAG_LABELS: [(ActorRoster, &str); 5] = [
    (ActorRoster::RESEARCH, "research"),
    (ActorRoster::COVERT, "covert"),
    (ActorRoster::PREFIX_WALK, "prefix-walk"),
    (ActorRoster::HITLIST_REUSE, "hitlist-reuse"),
    (ActorRoster::BGP_ADAPTIVE, "bgp-adaptive"),
];

impl fmt::Display for ActorRoster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<&str> = self.flags().map(|(_, l)| l).collect();
        if labels.is_empty() {
            write!(f, "(none)")
        } else {
            write!(f, "{}", labels.join("+"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        for r in [
            ActorRoster::NONE,
            ActorRoster::RESEARCH,
            ActorRoster::BASELINE,
            ActorRoster::ALL,
            ActorRoster::BASELINE.with(ActorRoster::PREFIX_WALK),
        ] {
            assert_eq!(ActorRoster::from_bits(r.bits()), Some(r));
        }
        assert_eq!(ActorRoster::from_bits(0b1110_0000), None);
    }

    #[test]
    fn baseline_is_the_paper_pair() {
        assert!(ActorRoster::BASELINE.contains(ActorRoster::RESEARCH));
        assert!(ActorRoster::BASELINE.contains(ActorRoster::COVERT));
        assert!(!ActorRoster::BASELINE.contains(ActorRoster::PREFIX_WALK));
        assert_eq!(ActorRoster::BASELINE.flags().count(), 2);
        assert_eq!(ActorRoster::ALL.flags().count(), 5);
        assert_eq!(ActorRoster::BASELINE.to_string(), "research+covert");
        assert_eq!(ActorRoster::NONE.to_string(), "(none)");
    }
}
