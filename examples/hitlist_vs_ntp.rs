//! Dataset comparison: how do NTP-sourced addresses differ structurally
//! from a TUM-style hitlist over the same Internet? (Paper §3.2 /
//! Table 1 / Figure 1, plus the §6 staleness argument.)
//!
//! ```sh
//! cargo run --release --example hitlist_vs_ntp [seed]
//! ```

use netsim::time::Duration;
use scanner::probers;
use scanner::result::Protocol;
use timetoscan::experiments::{fig1, table1};
use timetoscan::{Study, StudyConfig};
use timetoscan_repro::{exit_usage, seed_arg};

fn main() {
    let seed = seed_arg(std::env::args().nth(1), 3).unwrap_or_else(|e| exit_usage(&e));
    let study = Study::run(StudyConfig::small(seed));
    let derived = study.derived();

    println!("{}", table1::render(&derived));
    println!("{}", fig1::render(&derived));

    // The structural story in three sentences.
    let f = fig1::compute(&derived);
    println!("reading:");
    println!(
        "- hitlist addresses are {:.0}% structured (manually numbered servers/routers); NTP-sourced only {:.1}%",
        f.full.iid.structured_share() * 100.0,
        f.ours.iid.structured_share() * 100.0
    );
    println!(
        "- {:.0}% of NTP-sourced addresses sit in Cable/DSL/ISP (eyeball) ASes vs {:.0}% of the full hitlist",
        f.ours.eyeball_as_share * 100.0,
        f.full.eyeball_as_share * 100.0
    );

    // Staleness: why aggregating NTP-sourced addresses into a list is
    // futile (§6).
    let sample: Vec<_> = study.feed.iter().take(1_000).collect();
    let responsive_at = |delay: Duration| -> f64 {
        let n = sample
            .iter()
            .filter(|o| {
                Protocol::ALL
                    .iter()
                    .any(|p| probers::probe(&study.world, o.addr, *p, o.seen + delay).is_some())
            })
            .count();
        n as f64 / sample.len().max(1) as f64
    };
    println!(
        "- a *list* of NTP-sourced addresses decays: {:.1}% respond when scanned within a minute, {:.1}% after 3 days",
        responsive_at(Duration::secs(30)) * 100.0,
        responsive_at(Duration::days(3)) * 100.0
    );
}
