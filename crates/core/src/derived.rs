//! Lazily-memoized derived analyses shared across experiments.
//!
//! Several expensive artifacts — HTTPS title clustering, SSH host-key
//! parsing, broker extraction, fingerprint indexes, network groupings —
//! are consumed by more than one experiment module. Recomputing them per
//! table/figure dominated `render_all`'s runtime. [`Derived`] wraps a
//! [`Study`] and computes each artifact **exactly once**, on first use,
//! via [`OnceLock`] cells; every experiment's `compute`/`render` takes
//! `&Derived`, which [derefs](std::ops::Deref) to `&Study` for raw
//! access.
//!
//! Two kinds of cell are not the wrapper's but the study's own
//! ([`DerivedCells`], shared by every wrapper): the four [`CompactSet`]s
//! and, next to each, its [`SetProfile`] — the per-/48, per-AS, AS-type
//! and IID group-bys of one decode pass, which Table 1, Figure 1 and the
//! takeaways are arithmetic on.
//!
//! The exactly-once contract is observable: [`Derived::stats`] and
//! [`DerivedCells::stats`] return build counters, and
//! `crates/core/tests/experiments.rs` asserts that rendering the full
//! report twice still builds each artifact once.

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
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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

fn cells<T>() -> PerSource<T> {
    [OnceLock::new(), OnceLock::new()]
}

/// Build counters (how many times each artifact kind was computed).
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
    /// Per-[`SetKind`] compact-set materializations. At most 4.
    pub compact_set_builds: u32,
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
    /// Total accessor calls across all memoized artifacts; accesses
    /// minus builds = cache hits.
    accesses: AtomicU32,
}

impl Counters {
    fn bump(counter: &AtomicU32) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Study-scoped counters for the compact-set and profile cells,
/// snapshot via [`DerivedCells::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DerivedCellStats {
    /// Sets materialized from study data.
    pub builds: u32,
    /// [`SetProfile`]s computed (one decode pass each). At most 4.
    pub profile_builds: u32,
    /// Cells pre-populated with an already-materialized set (e.g. one
    /// reopened from a shared segment pool) instead of being rebuilt.
    pub seeded: u32,
    /// Builds of a kind that was already built in a previous life of
    /// this study (marked via [`DerivedCells::mark_prior_built`]) —
    /// work the memo layer failed to carry across a restore.
    pub rebuilds: u32,
}

/// The four [`SetKind`] compact-set memo cells and, next to each, the
/// [`SetProfile`] that is a pure function of it — owned by the [`Study`]
/// itself rather than by any one [`Derived`] wrapper.
///
/// Historically the cells lived inside `Derived`, so every
/// `study.derived()` call started empty and silently re-materialized
/// sets an earlier wrapper had already built — invisible except as lost
/// time, and unavoidable for a study restored from a checkpoint. Owning
/// them here (behind an `Arc`, shared by every wrapper) makes the
/// exactly-once contract study-scoped, lets a service seed cells from
/// its shared segment cache, and counts any rebuild that does happen.
///
/// A profile is filled on first use by [`Derived::set_profile`] from
/// whatever set its cell holds (built or seeded). Being study-scoped it
/// is not a wrapper artifact: it appears in [`DerivedCellStats`], never
/// in [`DerivedStats`] or [`Derived::memo_misses`].
#[derive(Default)]
pub struct DerivedCells {
    sets: [OnceLock<Arc<CompactSet>>; 4],
    profiles: [OnceLock<SetProfile>; 4],
    builds: AtomicU32,
    profile_builds: AtomicU32,
    seeded: AtomicU32,
    rebuilds: AtomicU32,
    prior_built: [AtomicBool; 4],
}

impl DerivedCells {
    /// Empty cells.
    pub fn new() -> DerivedCells {
        DerivedCells::default()
    }

    /// Whether `kind` is currently materialized.
    pub fn built(&self, kind: SetKind) -> bool {
        self.sets[kind.idx()].get().is_some()
    }

    /// Records that `kind` was built in a previous life of this study —
    /// before a checkpoint/restore or an eviction — so a later build of
    /// it is counted as a rebuild rather than a first build.
    pub fn mark_prior_built(&self, kind: SetKind) {
        self.prior_built[kind.idx()].store(true, Ordering::Relaxed);
    }

    /// Pre-populates `kind` with an already-materialized set. Returns
    /// `true` (and counts a seed) if the cell was empty; a cell that
    /// already holds a set is left untouched.
    pub fn seed(&self, kind: SetKind, set: Arc<CompactSet>) -> bool {
        let seeded = self.sets[kind.idx()].set(set).is_ok();
        if seeded {
            self.seeded.fetch_add(1, Ordering::Relaxed);
        }
        seeded
    }

    fn get_or_build(&self, kind: SetKind, build: impl FnOnce() -> CompactSet) -> &Arc<CompactSet> {
        self.sets[kind.idx()].get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            if self.prior_built[kind.idx()].load(Ordering::Relaxed) {
                self.rebuilds.fetch_add(1, Ordering::Relaxed);
            }
            Arc::new(build())
        })
    }

    /// Snapshot of the study-scoped cell counters.
    pub fn stats(&self) -> DerivedCellStats {
        DerivedCellStats {
            builds: self.builds.load(Ordering::Relaxed),
            profile_builds: self.profile_builds.load(Ordering::Relaxed),
            seeded: self.seeded.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// A [`Study`] plus its memoized derived analyses.
///
/// Construct with [`Study::derived`] (or [`Derived::new`]); pass
/// `&Derived` to every experiment. Direct `Study` fields remain
/// reachable through `Deref`: `derived.ntp_scan`, `derived.world`, …
pub struct Derived<'a> {
    study: &'a Study,
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

impl<'a> Deref for Derived<'a> {
    type Target = Study;

    fn deref(&self) -> &Study {
        self.study
    }
}

impl<'a> Derived<'a> {
    /// Wraps a study with empty (not-yet-computed) cells.
    pub fn new(study: &'a Study) -> Derived<'a> {
        Derived {
            study,
            titles: OnceLock::new(),
            addr_titles: cells(),
            ssh_hosts: cells(),
            coap: cells(),
            mqtt: cells(),
            amqp: cells(),
            fingerprints: cells(),
            networks: cells(),
            counters: Counters::default(),
        }
    }

    /// The scan store behind a [`Source`].
    pub fn store(&self, src: Source) -> &ScanStore {
        match src {
            Source::Ntp => &self.study.ntp_scan,
            Source::Hitlist => &self.study.hitlist_scan,
        }
    }

    /// Dual HTTPS title clusters over both sources (Tables 3 and 8).
    pub fn title_clusters(&self) -> &[DualTitleGroup] {
        Counters::bump(&self.counters.accesses);
        self.titles.get_or_init(|| {
            Counters::bump(&self.counters.title_cluster);
            https_title_groups_dual(&self.study.ntp_scan, &self.study.hitlist_scan)
        })
    }

    /// Combined HTTP+HTTPS title groups with their addresses — the
    /// Appendix C (Table 6) per-network view, where plain-HTTP hosts
    /// (no certificate to dedup on) count too.
    pub fn addr_title_groups(&self, src: Source) -> &[(String, Vec<Ipv6Addr>)] {
        Counters::bump(&self.counters.accesses);
        self.addr_titles[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.addr_title);
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
    pub fn ssh_hosts(&self, src: Source) -> &[SshHost] {
        Counters::bump(&self.counters.accesses);
        self.ssh_hosts[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.ssh_parse);
            unique_ssh_hosts(self.store(src))
        })
    }

    /// CoAP devices (parsed resource lists) for one source.
    pub fn coap_devices(&self, src: Source) -> &[CoapDevice] {
        Counters::bump(&self.counters.accesses);
        self.coap[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.coap);
            coap_devices(self.store(src))
        })
    }

    /// MQTT brokers (plain + TLS listeners) for one source.
    pub fn mqtt_brokers(&self, src: Source) -> &[Broker] {
        Counters::bump(&self.counters.accesses);
        self.mqtt[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.broker);
            mqtt_brokers(self.store(src))
        })
    }

    /// AMQP brokers (plain + TLS listeners) for one source.
    pub fn amqp_brokers(&self, src: Source) -> &[Broker] {
        Counters::bump(&self.counters.accesses);
        self.amqp[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.broker);
            amqp_brokers(self.store(src))
        })
    }

    /// Certificate/host-key fingerprints per protocol for one source.
    pub fn fingerprints(&self, src: Source, p: Protocol) -> &HashSet<[u8; 32]> {
        Counters::bump(&self.counters.accesses);
        let map = self.fingerprints[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.fingerprint);
            let store = self.store(src);
            Protocol::ALL
                .iter()
                .map(|p| (*p, store.fingerprints(*p)))
                .collect()
        });
        &map[&p]
    }

    /// Per-protocol network/AS/country counts for one source (Table 5).
    pub fn network_counts(&self, src: Source) -> &[(Protocol, NetworkCounts)] {
        Counters::bump(&self.counters.accesses);
        self.networks[src.idx()].get_or_init(|| {
            Counters::bump(&self.counters.network_grouping);
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
    /// materialized once **per study** (the cells live on the study,
    /// see [`DerivedCells`]) and shared by every overlap/structure
    /// analysis (Table 1, Figures 1 and 4).
    pub fn compact_set(&self, kind: SetKind) -> &CompactSet {
        Counters::bump(&self.counters.accesses);
        self.study
            .derived_cells
            .get_or_build(kind, || self.build_set(kind))
    }

    /// [`Derived::compact_set`] returning the shared handle — what a
    /// long-lived cache (the study service) holds so the set outlives
    /// this wrapper and even the study itself.
    pub fn compact_set_shared(&self, kind: SetKind) -> Arc<CompactSet> {
        Counters::bump(&self.counters.accesses);
        Arc::clone(
            self.study
                .derived_cells
                .get_or_build(kind, || self.build_set(kind)),
        )
    }

    /// The per-/48, per-AS, AS-type and IID group-bys of one address set
    /// — what Table 1, Figure 1 and the takeaways are arithmetic on —
    /// from one decode pass over [`Derived::compact_set`], computed once
    /// **per study** like the set itself.
    pub fn set_profile(&self, kind: SetKind) -> &SetProfile {
        let cells = &self.study.derived_cells;
        cells.profiles[kind.idx()].get_or_init(|| {
            Counters::bump(&cells.profile_builds);
            SetProfile::build(self.compact_set(kind), &self.study.world.topology)
        })
    }

    fn build_set(&self, kind: SetKind) -> CompactSet {
        Counters::bump(&self.counters.compact_set);
        match kind {
            SetKind::Ours => self.study.collector.global().to_compact(),
            SetKind::Rl => self.study.rl_set.iter().collect(),
            SetKind::HitlistFull => self.study.hitlist.full.iter().collect(),
            SetKind::HitlistPublic => self.study.hitlist.public.iter().collect(),
        }
    }

    /// Total memoized-accessor calls served from an already-built cell.
    pub fn memo_hits(&self) -> u64 {
        let accesses = self.counters.accesses.load(Ordering::Relaxed) as u64;
        accesses.saturating_sub(self.memo_misses())
    }

    /// Total artifact builds (accessor calls that found an empty cell).
    pub fn memo_misses(&self) -> u64 {
        let s = self.stats();
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

    /// Snapshot of the build counters.
    pub fn stats(&self) -> DerivedStats {
        let c = &self.counters;
        DerivedStats {
            title_cluster_builds: c.title_cluster.load(Ordering::Relaxed),
            addr_title_builds: c.addr_title.load(Ordering::Relaxed),
            ssh_parse_builds: c.ssh_parse.load(Ordering::Relaxed),
            coap_builds: c.coap.load(Ordering::Relaxed),
            broker_builds: c.broker.load(Ordering::Relaxed),
            fingerprint_builds: c.fingerprint.load(Ordering::Relaxed),
            network_grouping_builds: c.network_grouping.load(Ordering::Relaxed),
            compact_set_builds: c.compact_set.load(Ordering::Relaxed),
        }
    }
}

impl Study {
    /// Wraps this study in a fresh [`Derived`] cache. Scan-artifact
    /// cells start empty per wrapper; the compact-set cells are the
    /// study's own [`DerivedCells`], so a second wrapper (or a service
    /// re-wrapping a resident study) never rebuilds an
    /// already-materialized set.
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
        assert_eq!(d.stats(), DerivedStats::default());

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
        let s = d.stats();
        assert_eq!(s.title_cluster_builds, 1);
        assert_eq!(s.addr_title_builds, 2);
        assert_eq!(s.ssh_parse_builds, 2);
        assert_eq!(s.coap_builds, 2);
        assert_eq!(s.broker_builds, 4);
        assert_eq!(s.fingerprint_builds, 2);
        assert_eq!(s.network_grouping_builds, 2);
        assert_eq!(s.compact_set_builds, 4);
    }

    /// The bug this layer fixes: a second wrapper over the same study
    /// (or a service re-wrapping a resident one) used to rebuild every
    /// compact set from scratch. The cells now live on the study.
    #[test]
    fn second_wrapper_reuses_study_scoped_compact_sets() {
        let study = Study::run(StudyConfig::tiny(3));
        {
            let d1 = study.derived();
            for kind in SetKind::ALL {
                d1.compact_set(kind);
            }
            assert_eq!(d1.stats().compact_set_builds, 4);
        }
        let d2 = study.derived();
        for kind in SetKind::ALL {
            d2.compact_set(kind);
        }
        // No wrapper-local builds: every access hit the study's cells.
        assert_eq!(d2.stats().compact_set_builds, 0);
        assert_eq!(d2.memo_misses(), 0);
        assert_eq!(d2.memo_hits(), 4);
        let cells = study.derived_cells.stats();
        assert_eq!(cells.builds, 4);
        assert_eq!(cells.rebuilds, 0);
    }

    #[test]
    fn seeded_cells_skip_builds_and_rebuilds_are_counted() {
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
        assert_eq!(cells.builds, 0);
        // Seeding an occupied cell is a no-op.
        assert!(!other.derived_cells.seed(
            SetKind::HitlistFull,
            d.compact_set_shared(SetKind::HitlistFull)
        ));
        assert_eq!(other.derived_cells.stats().seeded, 1);

        // A kind known built in a previous life that gets built again
        // counts as a rebuild — the silent-rebuild telemetry signal.
        other.derived_cells.mark_prior_built(SetKind::Ours);
        assert!(!other.derived_cells.built(SetKind::Ours));
        d.compact_set(SetKind::Ours);
        let cells = other.derived_cells.stats();
        assert_eq!(cells.seeded, 1);
        assert_eq!(cells.rebuilds, 1);
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
