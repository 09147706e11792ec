//! Study configuration.

use actors::ActorRoster;
use netsim::time::Duration;
use netsim::transport::FaultProfile;
use netsim::world::WorldConfig;

/// Full configuration of one study run.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// Length of the address-collection window (paper: four weeks).
    pub collection: Duration,
    /// When, within the collection window, the hitlist is built and its
    /// scan starts (paper: the last week).
    pub hitlist_scan_offset: Duration,
    /// When, within the window, the telescope queries the pool.
    pub telescope_offset: Duration,
    /// Target request rate for netspeed tuning, requests/second. The
    /// paper tunes to its 100 kpps scan budget; scaled worlds use a
    /// proportionally scaled target.
    pub target_rps: f64,
    /// Address samples per client for the R&L comparison set.
    pub rl_samples: u32,
    /// Run the telescope + actor experiment.
    pub telescope: bool,
    /// Network fault model every byte exchange crosses. The default
    /// [`FaultProfile::Ideal`] is bit-identical to direct calls; the
    /// presets degrade the path for robustness experiments.
    pub fault: FaultProfile,
    /// Which scanner archetypes the telescope experiment runs. The
    /// default [`ActorRoster::BASELINE`] is the paper's pair
    /// (research + covert); extended rosters add the ecosystem
    /// archetypes and feed the attribution pass. Ignored when
    /// `telescope` is off.
    pub actors: ActorRoster,
}

impl StudyConfig {
    fn base(world: WorldConfig, target_rps: f64, rl_samples: u32) -> StudyConfig {
        StudyConfig {
            world,
            collection: Duration::days(28),
            hitlist_scan_offset: Duration::days(21),
            telescope_offset: Duration::days(7),
            target_rps,
            rl_samples,
            telescope: true,
            fault: FaultProfile::default(),
            actors: ActorRoster::BASELINE,
        }
    }

    /// Minimal study for unit tests (seconds in debug builds). Uses a
    /// shortened one-week collection.
    pub fn tiny(seed: u64) -> StudyConfig {
        StudyConfig {
            collection: Duration::days(7),
            hitlist_scan_offset: Duration::days(5),
            telescope_offset: Duration::days(2),
            ..StudyConfig::base(WorldConfig::tiny(seed), 0.05, 8)
        }
    }

    /// Small study for integration tests.
    pub fn small(seed: u64) -> StudyConfig {
        StudyConfig {
            collection: Duration::days(14),
            hitlist_scan_offset: Duration::days(10),
            telescope_offset: Duration::days(3),
            ..StudyConfig::base(WorldConfig::small(seed), 0.5, 10)
        }
    }

    /// Bench-scale study (≈ 1:10 000 of the paper).
    pub fn medium(seed: u64) -> StudyConfig {
        StudyConfig::base(WorldConfig::medium(seed), 5.0, 14)
    }

    /// The largest preset (≈ 1:1 000 of the paper's *household*
    /// population; the EXPERIMENTS.md reference run uses `medium`).
    pub fn paper_milli(seed: u64) -> StudyConfig {
        StudyConfig::base(WorldConfig::paper_milli(seed), 40.0, 14)
    }

    /// The bench/CI scale preset (≈ 1:100 of the paper's household
    /// population, ~13 M devices). Like every preset it stores no
    /// device: the world costs O(observed) memory regardless of its
    /// nominal size.
    pub fn paper_centi(seed: u64) -> StudyConfig {
        StudyConfig::base(WorldConfig::paper_centi(seed), 400.0, 14)
    }

    /// The same config with a different fault profile.
    pub fn with_fault(mut self, fault: FaultProfile) -> StudyConfig {
        self.fault = fault;
        self
    }

    /// The config unchanged, under the signature the frozen benchmark
    /// calls. The argument is ignored: there is one collection loop,
    /// and the sharded one this used to select never measured faster.
    pub fn with_collection_shards(self, _shards: usize) -> StudyConfig {
        self
    }

    /// The same config with a different actor roster for the telescope
    /// experiment.
    pub fn with_actors(mut self, actors: ActorRoster) -> StudyConfig {
        self.actors = actors;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_ordered() {
        for cfg in [
            StudyConfig::tiny(1),
            StudyConfig::small(1),
            StudyConfig::medium(1),
            StudyConfig::paper_milli(1),
        ] {
            assert!(cfg.hitlist_scan_offset < cfg.collection);
            assert!(cfg.telescope_offset < cfg.collection);
        }
    }

    #[test]
    fn ideal_is_the_default_fault_profile() {
        assert_eq!(StudyConfig::tiny(1).fault, FaultProfile::Ideal);
        assert_eq!(StudyConfig::paper_milli(1).fault, FaultProfile::Ideal);
        let lossy = StudyConfig::tiny(1).with_fault(FaultProfile::Lossy1Pct);
        assert_eq!(lossy.fault, FaultProfile::Lossy1Pct);
        // Everything but the fault profile is untouched.
        assert_eq!(lossy.collection, StudyConfig::tiny(1).collection);
    }

    #[test]
    fn with_collection_shards_changes_nothing() {
        let cfg = StudyConfig::tiny(1);
        assert_eq!(cfg.clone().with_collection_shards(4), cfg);
    }

    #[test]
    fn baseline_roster_is_the_default() {
        assert_eq!(StudyConfig::tiny(1).actors, ActorRoster::BASELINE);
        assert_eq!(StudyConfig::paper_milli(1).actors, ActorRoster::BASELINE);
        let eco = StudyConfig::tiny(1).with_actors(ActorRoster::ALL);
        assert_eq!(eco.actors, ActorRoster::ALL);
        // Everything but the roster is untouched.
        assert_eq!(eco.collection, StudyConfig::tiny(1).collection);
    }

    #[test]
    fn presets_scale_up() {
        assert!(StudyConfig::small(1).world.households > StudyConfig::tiny(1).world.households);
        assert!(StudyConfig::medium(1).world.households > StudyConfig::small(1).world.households);
        assert!(
            StudyConfig::paper_milli(1).world.households > StudyConfig::medium(1).world.households
        );
        assert!(
            StudyConfig::paper_centi(1).world.households
                > StudyConfig::paper_milli(1).world.households
        );
    }
}
