//! Quickstart: run a small end-to-end study and print every reproduced
//! table and figure.
//!
//! ```sh
//! cargo run --release --example quickstart [seed] [tiny|small|medium|paper-milli]
//! ```

use timetoscan::{experiments, Study, StudyConfig};
use timetoscan_repro::{exit_usage, seed_arg};

fn main() {
    let mut args = std::env::args().skip(1);
    let seed = seed_arg(args.next(), 42).unwrap_or_else(|e| exit_usage(&e));
    let config = match args.next().as_deref().unwrap_or("tiny") {
        "tiny" => StudyConfig::tiny(seed),
        "small" => StudyConfig::small(seed),
        "medium" => StudyConfig::medium(seed),
        "paper-milli" => StudyConfig::paper_milli(seed),
        other => exit_usage(&format!(
            "unknown preset {other:?}; accepted presets: tiny, small, medium, paper-milli"
        )),
    };

    eprintln!(
        "generating world ({} households, {} servers) and running the study…",
        config.world.households, config.world.servers
    );
    let study = Study::run(config);
    eprintln!(
        "collection: {} polls, {} observed, {} distinct addresses; scans: {} NTP targets, {} hitlist targets",
        study.run_stats.polls,
        study.run_stats.observed,
        study.collector.global().len(),
        study.ntp_scan.targets(),
        study.hitlist_scan.targets(),
    );
    // The derived layer memoizes shared artifacts (title clusters, SSH
    // parses, network groupings) across the experiments below.
    println!("{}", experiments::render_all(&study.derived()));
}
