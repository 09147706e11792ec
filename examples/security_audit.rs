//! Security audit: the paper's §4.4 — how does the security posture of
//! NTP-sourced hosts compare to hitlist-sourced ones?
//!
//! ```sh
//! cargo run --release --example security_audit [seed]
//! ```

use analysis::outdated::{assess, PatchStatus};
use timetoscan::experiments::{fig2, fig3, keyreuse, security};
use timetoscan::{Study, StudyConfig};
use timetoscan_repro::{exit_usage, seed_arg};

fn main() {
    let seed = seed_arg(std::env::args().nth(1), 11).unwrap_or_else(|e| exit_usage(&e));
    let study = Study::run(StudyConfig::small(seed));
    let derived = study.derived();

    println!("{}", fig2::render(&derived));
    println!("{}", fig3::render(&derived));
    println!("{}", keyreuse::render(&derived));
    println!("{}", security::render(&derived));

    // Bonus: the patch-lag distribution for NTP-found Debian-derived
    // hosts — how far behind are they? Reuses the SSH parse the renders
    // above already cached.
    let mut lags = [0u64; 4];
    for h in derived.ssh_hosts(timetoscan::Source::Ntp) {
        match assess(h) {
            PatchStatus::UpToDate => lags[0] += 1,
            PatchStatus::Outdated { lag } => lags[(lag as usize).min(3)] += 1,
            PatchStatus::NotAssessable => {}
        }
    }
    println!("NTP-found Debian-derived hosts by patch lag:");
    println!("  current: {}", lags[0]);
    for (i, n) in lags.iter().enumerate().skip(1) {
        println!("  {} level(s) behind: {}", i, n);
    }
}
