//! Lazily-memoized derived analyses shared across experiments.
//!
//! Several expensive artifacts — HTTPS title clustering, SSH host-key
//! parsing, broker extraction, fingerprint indexes, network groupings,
//! the four [`CompactSet`]s and the [`SetProfile`] next to each (the
//! per-/48, per-AS, AS-type and IID group-bys of one decode pass, which
//! Table 1, Figure 1 and the takeaways are arithmetic on) — are consumed
//! by more than one experiment module. Recomputing them per table/figure
//! dominated `render_all`'s runtime. Every one of them lives in a
//! [`OnceLock`] cell of the study's own [`DerivedCells`] and is computed
//! **exactly once per study**, on first use, through whichever
//! [`Derived`] view asks first; every experiment's `compute`/`render`
//! takes `&Derived`, which [derefs](std::ops::Deref) to `&Study` for raw
//! access.
//!
//! The exactly-once contract is observable: [`DerivedCells::stats`]
//! returns the build counters, and `crates/core/tests/experiments.rs`
//! asserts that rendering the full report twice, through two views,
//! still builds each artifact once.

use crate::Study;
use analysis::access_control::{amqp_brokers, mqtt_brokers, Broker};
use analysis::coap_groups::{coap_devices, CoapDevice};
use analysis::network_groups::{network_counts, NetworkCounts};
use analysis::set_profile::SetProfile;
use analysis::ssh_os::{unique_ssh_hosts, SshHost};
use analysis::title_cluster::{
    group_titles, http_titles_by_addr, https_title_groups_dual, unique_https_titles, DualTitleGroup,
};
use scanner::result::Protocol;
use scanner::ScanStore;
use std::collections::{HashMap, HashSet};
use std::net::Ipv6Addr;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use store::CompactSet;

/// Which address source a per-store artifact is derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The real-time scan over NTP-collected addresses ("Our Data").
    Ntp,
    /// The batch scan over the TUM-style hitlist.
    Hitlist,
}

impl Source {
    /// Both sources, in the paper's our-then-hitlist order.
    pub const BOTH: [Source; 2] = [Source::Ntp, Source::Hitlist];

    fn idx(self) -> usize {
        match self {
            Source::Ntp => 0,
            Source::Hitlist => 1,
        }
    }
}

/// Which of the study's address sets to materialize as a
/// [`CompactSet`] (sorted delta-block form, the representation every
/// overlap/structure analysis consumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetKind {
    /// Addresses our 11 collecting servers sourced ("Our Data").
    Ours,
    /// The Rye & Levin emulation set.
    Rl,
    /// The full TUM-style hitlist.
    HitlistFull,
    /// The public (responsive-source) hitlist subset.
    HitlistPublic,
}

impl SetKind {
    /// All four kinds, in Table 1 row order.
    pub const ALL: [SetKind; 4] = [
        SetKind::Ours,
        SetKind::Rl,
        SetKind::HitlistFull,
        SetKind::HitlistPublic,
    ];

    fn idx(self) -> usize {
        match self {
            SetKind::Ours => 0,
            SetKind::Rl => 1,
            SetKind::HitlistFull => 2,
            SetKind::HitlistPublic => 3,
        }
    }
}

/// One memoization cell per source.
type PerSource<T> = [OnceLock<T>; 2];

/// Build counters: how many times each artifact kind was computed for
/// one study, snapshot via [`DerivedCells::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DerivedStats {
    /// Dual (our vs hitlist) HTTPS title clusterings. At most 1.
    pub title_cluster_builds: u32,
    /// Per-store combined HTTP+HTTPS title groupings (Appendix C view).
    pub addr_title_builds: u32,
    /// Per-store SSH host-key parses/dedups.
    pub ssh_parse_builds: u32,
    /// Per-store CoAP device extractions.
    pub coap_builds: u32,
    /// Per-store-and-protocol broker extractions (MQTT, AMQP).
    pub broker_builds: u32,
    /// Per-store fingerprint index builds.
    pub fingerprint_builds: u32,
    /// Per-store network groupings (per-protocol /32../64, AS, country).
    pub network_grouping_builds: u32,
    /// Per-[`SetKind`] compact sets materialized from study data. At
    /// most 4.
    pub compact_set_builds: u32,
    /// [`SetProfile`]s computed (one decode pass each). At most 4; not
    /// counted by [`Derived::memo_misses`].
    pub profile_builds: u32,
    /// Set cells pre-populated with an already-materialized set (e.g. one
    /// reopened from a shared segment pool) instead of being built.
    pub seeded: u32,
}

#[derive(Default)]
struct Counters {
    title_cluster: AtomicU32,
    addr_title: AtomicU32,
    ssh_parse: AtomicU32,
    coap: AtomicU32,
    broker: AtomicU32,
    fingerprint: AtomicU32,
    network_grouping: AtomicU32,
    compact_set: AtomicU32,
    profile: AtomicU32,
    seeded: AtomicU32,
}

fn bump(counter: &AtomicU32) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Every derived-artifact memo cell of one [`Study`], owned by the study
/// itself (behind an `Arc`) and shared by every [`Derived`] view of it,
/// so an artifact one view built is never built again by another. A
/// serving layer can also [`seed`](DerivedCells::seed) the set cells from
/// its shared segment cache.
#[derive(Default)]
pub struct DerivedCells {
    sets: [OnceLock<Arc<CompactSet>>; 4],
    profiles: [OnceLock<SetProfile>; 4],
    titles: OnceLock<Vec<DualTitleGroup>>,
    addr_titles: PerSource<Vec<(String, Vec<Ipv6Addr>)>>,
    ssh_hosts: PerSource<Vec<SshHost>>,
    coap: PerSource<Vec<CoapDevice>>,
    mqtt: PerSource<Vec<Broker>>,
    amqp: PerSource<Vec<Broker>>,
    fingerprints: PerSource<HashMap<Protocol, HashSet<[u8; 32]>>>,
    networks: PerSource<Vec<(Protocol, NetworkCounts)>>,
    counters: Counters,
}

impl DerivedCells {
    /// Empty cells.
    pub fn new() -> DerivedCells {
        DerivedCells::default()
    }

    /// Pre-populates `kind` with an already-materialized set. Returns
    /// `true` (and counts a seed) if the cell was empty; a cell that
    /// already holds a set is left untouched.
    pub fn seed(&self, kind: SetKind, set: Arc<CompactSet>) -> bool {
        let seeded = self.sets[kind.idx()].set(set).is_ok();
        if seeded {
            bump(&self.counters.seeded);
        }
        seeded
    }

    /// Snapshot of the build counters.
    pub fn stats(&self) -> DerivedStats {
        let c = &self.counters;
        let load = |a: &AtomicU32| a.load(Ordering::Relaxed);
        DerivedStats {
            title_cluster_builds: load(&c.title_cluster),
            addr_title_builds: load(&c.addr_title),
            ssh_parse_builds: load(&c.ssh_parse),
            coap_builds: load(&c.coap),
            broker_builds: load(&c.broker),
            fingerprint_builds: load(&c.fingerprint),
            network_grouping_builds: load(&c.network_grouping),
            compact_set_builds: load(&c.compact_set),
            profile_builds: load(&c.profile),
            seeded: load(&c.seeded),
        }
    }
}

/// A view of a [`Study`] whose accessors return its memoized derived
/// analyses, built on first use into the study's [`DerivedCells`].
///
/// Construct with [`Study::derived`] (or [`Derived::new`]); pass
/// `&Derived` to every experiment. Direct `Study` fields remain
/// reachable through `Deref`: `derived.ntp_scan`, `derived.world`, …
pub struct Derived<'a> {
    study: &'a Study,
}

impl<'a> Deref for Derived<'a> {
    type Target = Study;

    fn deref(&self) -> &Study {
        self.study
    }
}

impl<'a> Derived<'a> {
    /// A view of `study`.
    pub fn new(study: &'a Study) -> Derived<'a> {
        Derived { study }
    }

    fn cells(&self) -> &'a DerivedCells {
        &self.study.derived_cells
    }

    /// The scan store behind a [`Source`].
    pub fn store(&self, src: Source) -> &'a ScanStore {
        match src {
            Source::Ntp => &self.study.ntp_scan,
            Source::Hitlist => &self.study.hitlist_scan,
        }
    }

    /// Dual HTTPS title clusters over both sources (Tables 3 and 8).
    pub fn title_clusters(&self) -> &'a [DualTitleGroup] {
        let c = self.cells();
        c.titles.get_or_init(|| {
            bump(&c.counters.title_cluster);
            https_title_groups_dual(&self.study.ntp_scan, &self.study.hitlist_scan)
        })
    }

    /// Combined HTTP+HTTPS title groups with their addresses — the
    /// Appendix C (Table 6) per-network view, where plain-HTTP hosts
    /// (no certificate to dedup on) count too.
    pub fn addr_title_groups(&self, src: Source) -> &'a [(String, Vec<Ipv6Addr>)] {
        let c = self.cells();
        c.addr_titles[src.idx()].get_or_init(|| {
            bump(&c.counters.addr_title);
            let store = self.store(src);
            let mut obs = unique_https_titles(store);
            obs.extend(http_titles_by_addr(store));
            group_titles(obs)
                .into_iter()
                .map(|g| (g.label, g.addrs))
                .collect()
        })
    }

    /// Unique SSH hosts (deduped by host key) for one source.
    pub fn ssh_hosts(&self, src: Source) -> &'a [SshHost] {
        let c = self.cells();
        c.ssh_hosts[src.idx()].get_or_init(|| {
            bump(&c.counters.ssh_parse);
            unique_ssh_hosts(self.store(src))
        })
    }

    /// CoAP devices (parsed resource lists) for one source.
    pub fn coap_devices(&self, src: Source) -> &'a [CoapDevice] {
        let c = self.cells();
        c.coap[src.idx()].get_or_init(|| {
            bump(&c.counters.coap);
            coap_devices(self.store(src))
        })
    }

    /// MQTT brokers (plain + TLS listeners) for one source.
    pub fn mqtt_brokers(&self, src: Source) -> &'a [Broker] {
        let c = self.cells();
        c.mqtt[src.idx()].get_or_init(|| {
            bump(&c.counters.broker);
            mqtt_brokers(self.store(src))
        })
    }

    /// AMQP brokers (plain + TLS listeners) for one source.
    pub fn amqp_brokers(&self, src: Source) -> &'a [Broker] {
        let c = self.cells();
        c.amqp[src.idx()].get_or_init(|| {
            bump(&c.counters.broker);
            amqp_brokers(self.store(src))
        })
    }

    /// Certificate/host-key fingerprints per protocol for one source.
    pub fn fingerprints(&self, src: Source, p: Protocol) -> &'a HashSet<[u8; 32]> {
        let c = self.cells();
        let map = c.fingerprints[src.idx()].get_or_init(|| {
            bump(&c.counters.fingerprint);
            let store = self.store(src);
            Protocol::ALL
                .iter()
                .map(|p| (*p, store.fingerprints(*p)))
                .collect()
        });
        &map[&p]
    }

    /// Per-protocol network/AS/country counts for one source (Table 5).
    pub fn network_counts(&self, src: Source) -> &'a [(Protocol, NetworkCounts)] {
        let c = self.cells();
        c.networks[src.idx()].get_or_init(|| {
            bump(&c.counters.network_grouping);
            let store = self.store(src);
            let topo = &self.study.world.topology;
            Protocol::ALL
                .iter()
                .map(|p| {
                    let addrs = store.by_protocol(*p).map(|r| r.addr);
                    (*p, network_counts(addrs, topo))
                })
                .collect()
        })
    }

    /// One of the study's address sets in sorted delta-block form,
    /// shared by every overlap/structure analysis (Table 1, Figures 1
    /// and 4).
    pub fn compact_set(&self, kind: SetKind) -> &'a CompactSet {
        self.compact_set_cell(kind)
    }

    /// [`Derived::compact_set`] returning the shared handle — what a
    /// long-lived cache (the study service) holds so the set outlives
    /// this view and even the study itself.
    pub fn compact_set_shared(&self, kind: SetKind) -> Arc<CompactSet> {
        Arc::clone(self.compact_set_cell(kind))
    }

    fn compact_set_cell(&self, kind: SetKind) -> &'a Arc<CompactSet> {
        let c = self.cells();
        c.sets[kind.idx()].get_or_init(|| {
            bump(&c.counters.compact_set);
            Arc::new(match kind {
                SetKind::Ours => self.study.collector.global().to_compact(),
                SetKind::Rl => self.study.rl_set.iter().collect(),
                SetKind::HitlistFull => self.study.hitlist.full.iter().collect(),
                SetKind::HitlistPublic => self.study.hitlist.public.iter().collect(),
            })
        })
    }

    /// The per-/48, per-AS, AS-type and IID group-bys of one address set
    /// — what Table 1, Figure 1 and the takeaways are arithmetic on —
    /// from one decode pass over [`Derived::compact_set`] (built or
    /// seeded).
    pub fn set_profile(&self, kind: SetKind) -> &'a SetProfile {
        let c = self.cells();
        c.profiles[kind.idx()].get_or_init(|| {
            bump(&c.counters.profile);
            SetProfile::build(self.compact_set(kind), &self.study.world.topology)
        })
    }

    /// Total artifact builds of the study (every accessor call that
    /// found an empty cell), [`SetProfile`]s and seeded sets excepted.
    pub fn memo_misses(&self) -> u64 {
        let s = self.cells().stats();
        u64::from(
            s.title_cluster_builds
                + s.addr_title_builds
                + s.ssh_parse_builds
                + s.coap_builds
                + s.broker_builds
                + s.fingerprint_builds
                + s.network_grouping_builds
                + s.compact_set_builds,
        )
    }
}

impl Study {
    /// A [`Derived`] view of this study. Its cells are the study's own
    /// [`DerivedCells`], so a second view (or a service re-wrapping a
    /// resident study) never rebuilds an artifact an earlier one built.
    pub fn derived(&self) -> Derived<'_> {
        Derived::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyConfig;

    #[test]
    fn cells_memoize_and_count_once() {
        let study = Study::run(StudyConfig::tiny(3));
        let d = study.derived();
        assert_eq!(study.derived_cells.stats(), DerivedStats::default());

        let first = d.title_clusters().len();
        let again = d.title_clusters().len();
        assert_eq!(first, again);
        for src in Source::BOTH {
            let hosts = d.ssh_hosts(src).len();
            assert_eq!(d.ssh_hosts(src).len(), hosts);
            d.coap_devices(src);
            d.mqtt_brokers(src);
            d.amqp_brokers(src);
            d.network_counts(src);
            d.addr_title_groups(src);
            for p in Protocol::ALL {
                d.fingerprints(src, p);
            }
        }
        for kind in SetKind::ALL {
            let n = d.compact_set(kind).len();
            assert_eq!(d.compact_set(kind).len(), n);
        }
        let s = study.derived_cells.stats();
        assert_eq!(s.title_cluster_builds, 1);
        assert_eq!(s.addr_title_builds, 2);
        assert_eq!(s.ssh_parse_builds, 2);
        assert_eq!(s.coap_builds, 2);
        assert_eq!(s.broker_builds, 4);
        assert_eq!(s.fingerprint_builds, 2);
        assert_eq!(s.network_grouping_builds, 2);
        assert_eq!(s.compact_set_builds, 4);
        assert_eq!(d.memo_misses(), 19);
    }

    /// One memo scope: what an earlier view built is neither built again
    /// nor missing from the tally a later view prints, so the rendered
    /// tables do not depend on which views came before.
    #[test]
    fn digest_does_not_depend_on_earlier_views() {
        let fresh = Study::run(StudyConfig::tiny(3));
        let want = fresh.digest();
        let built = fresh.derived_cells.stats();
        // `digest` rendered every table through a view of its own; a
        // second full render through another view builds nothing.
        assert_eq!(fresh.digest(), want);
        assert_eq!(fresh.derived_cells.stats(), built);
        assert_eq!(fresh.derived().memo_misses(), 19);

        let touched = Study::run(StudyConfig::tiny(3));
        touched.derived().compact_set(SetKind::Ours);
        assert_eq!(touched.digest(), want);
        assert_eq!(touched.derived_cells.stats(), built);
    }

    #[test]
    fn seeded_cells_skip_builds() {
        let study = Study::run(StudyConfig::tiny(3));
        let shared = study.derived().compact_set_shared(SetKind::HitlistFull);

        // A second study (same config, fresh cells) seeded with the
        // already-materialized set never rebuilds it.
        let other = Study::run(StudyConfig::tiny(3));
        assert!(other.derived_cells.seed(SetKind::HitlistFull, shared));
        let d = other.derived();
        assert_eq!(d.compact_set(SetKind::HitlistFull).len(), {
            other.hitlist.full.len()
        });
        let cells = other.derived_cells.stats();
        assert_eq!(cells.seeded, 1);
        assert_eq!(cells.compact_set_builds, 0);
        // Seeding an occupied cell is a no-op.
        assert!(!other.derived_cells.seed(
            SetKind::HitlistFull,
            d.compact_set_shared(SetKind::HitlistFull)
        ));
        assert_eq!(other.derived_cells.stats().seeded, 1);
    }

    #[test]
    fn derived_matches_direct_computation() {
        let study = Study::run(StudyConfig::tiny(5));
        let d = study.derived();
        assert_eq!(
            d.ssh_hosts(Source::Ntp),
            analysis::ssh_os::unique_ssh_hosts(&study.ntp_scan).as_slice()
        );
        assert_eq!(
            d.fingerprints(Source::Hitlist, Protocol::Https),
            &study.hitlist_scan.fingerprints(Protocol::Https)
        );
        // Deref exposes the raw study.
        assert_eq!(d.ntp_scan.targets(), study.ntp_scan.targets());
        // Compact sets hold exactly the source sets' addresses.
        assert_eq!(
            d.compact_set(SetKind::Ours).len(),
            study.collector.global().len()
        );
        for addr in study.rl_set.iter().take(64) {
            assert!(d.compact_set(SetKind::Rl).contains(addr));
        }
    }
}
