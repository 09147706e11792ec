//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Dedup key** — unique certs/keys (paper's lower bound) vs per-/64
//!    network counting (Appendix C): how much does the host estimate move?
//! 2. **Title-cluster threshold** — sweep the normalised Levenshtein
//!    threshold around the paper's 0.25.
//! 3. **Netspeed** — collection volume as a function of the operator
//!    weight (the §3.1 tuning loop's lever).
//! 4. **Staleness** — responsiveness of NTP-sourced addresses when
//!    scanned with increasing delay (motivates §6's "static lists of
//!    end-user addresses go stale immediately").
//! 5. **Faults × retries** — sweep transport loss rate against the retry
//!    budget: how much of the success-rate gap do retries claw back?
//!
//! ```sh
//! cargo run --release --example ablations [seed]
//! ```

use netsim::time::Duration;
use netsim::transport::{FaultConfig, Faulty};
use ntppool::monitor;
use scanner::probers;
use scanner::result::Protocol;
use scanner::{RetryPolicy, ScanPolicy};
use std::collections::HashSet;
use timetoscan::{Study, StudyConfig};
use timetoscan_repro::{exit_usage, seed_arg};

fn ablation_dedup(study: &timetoscan::Study) {
    println!("== Ablation: dedup key (SSH hosts) ==");
    for (label, store) in [
        ("Our Data", &study.ntp_scan),
        ("TUM Hitlist", &study.hitlist_scan),
    ] {
        let keys = store.fingerprints(Protocol::Ssh).len();
        let addrs = store.addrs(Protocol::Ssh);
        let nets64: HashSet<u128> = addrs
            .iter()
            .map(|a| u128::from(*a) & v6addr::Prefix::netmask(64))
            .collect();
        println!(
            "{label:16} unique keys {keys:6}   addresses {:6}   /64 networks {:6}   (addresses overcount keys by {:.1}x)",
            addrs.len(),
            nets64.len(),
            addrs.len() as f64 / keys.max(1) as f64,
        );
    }
    println!();
}

fn ablation_cluster_threshold(study: &timetoscan::Study) {
    println!("== Ablation: title-cluster threshold sweep ==");
    let obs = analysis::title_cluster::unique_https_titles(&study.ntp_scan);
    for thr in [0.0, 0.1, 0.25, 0.4, 0.5] {
        let items: Vec<(String, Vec<std::net::Ipv6Addr>)> = {
            let mut m: std::collections::HashMap<String, Vec<std::net::Ipv6Addr>> =
                Default::default();
            for (t, a) in &obs {
                m.entry(t.clone()).or_default().push(*a);
            }
            m.into_iter().collect()
        };
        let clusters = analysis::levenshtein::cluster_by_distance(items, thr, |v| v.len() as u64);
        let biggest = clusters
            .iter()
            .map(|c| c.members.iter().map(|(_, v)| v.len()).sum::<usize>())
            .max()
            .unwrap_or(0);
        println!(
            "threshold {thr:4.2}: {:4} groups, largest group {biggest:5} hosts",
            clusters.len(),
        );
    }
    println!("(paper threshold: 0.25 — below it, model variants split; above it, distinct products merge)\n");
}

fn ablation_netspeed(study: &timetoscan::Study) {
    println!("== Ablation: netspeed vs expected request rate ==");
    let rates = monitor::client_rates(&study.world);
    let mut pool = ntppool::Pool::with_background();
    let id = pool.add(ntppool::PoolServer {
        operator: ntppool::Operator::Study { location_index: 3 },
        ..ntppool::PoolServer::background(netsim::country::IN)
    });
    for netspeed in [250u64, 1_000, 10_000, 100_000, 1_000_000] {
        pool.set_netspeed(id, netspeed);
        println!(
            "netspeed {netspeed:8}: zone share {:6.2}%  expected {:9.3} req/s (India zone)",
            pool.zone_share(id) * 100.0,
            monitor::expected_rps(&pool, &rates, id),
        );
    }
    println!();
}

fn ablation_staleness(study: &timetoscan::Study) {
    println!("== Ablation: NTP-sourced address staleness ==");
    let sample: Vec<_> = study.feed.iter().take(2_000).collect();
    for delay in [
        Duration::secs(30),
        Duration::hours(1),
        Duration::hours(6),
        Duration::days(1),
        Duration::days(3),
        Duration::days(7),
    ] {
        let mut responsive = 0usize;
        for obs in &sample {
            let t = obs.seen + delay;
            if Protocol::ALL
                .iter()
                .any(|p| probers::probe(&study.world, obs.addr, *p, t).is_some())
            {
                responsive += 1;
            }
        }
        println!(
            "scan delay {:>4}: {:5.2}% of sourced addresses still respond",
            delay.to_string(),
            100.0 * responsive as f64 / sample.len().max(1) as f64,
        );
    }
    println!("(daily prefix rotation wipes most end-user addresses within a day — §6)\n");
}

/// §6 future work, answered: does a target-generation algorithm trained
/// on NTP-sourced addresses find anything? Compare a TGA seeded with the
/// NTP feed against one seeded with the (server-heavy) public hitlist.
fn ablation_tga_on_ntp(study: &timetoscan::Study) {
    println!("== Ablation: TGA trained on NTP-sourced addresses (paper §6 future work) ==");
    let scan_t = study.hitlist.built_at;
    let run = |label: &str, seeds: Vec<std::net::Ipv6Addr>| {
        let tga = hitlist::sources::TgaSource {
            seeds,
            budget: 4_000,
            seed: 99,
        };
        let candidates = tga.generate();
        let responsive = candidates
            .iter()
            .filter(|a| {
                Protocol::ALL
                    .iter()
                    .any(|p| probers::probe(&study.world, *a, *p, scan_t).is_some())
            })
            .count();
        println!(
            "{label:22} {:5} candidates, {responsive:4} responsive ({:.2}%)",
            candidates.len(),
            100.0 * responsive as f64 / candidates.len().max(1) as f64,
        );
    };
    run(
        "seeds: public hitlist",
        study
            .hitlist
            .public
            .sorted()
            .into_iter()
            .take(2_000)
            .collect(),
    );
    run(
        "seeds: NTP feed",
        study.feed.iter().take(2_000).map(|o| o.addr).collect(),
    );
    println!(
        "(structured server seeds extrapolate to live neighbours; NTP-sourced seeds are \
         random IIDs in rotated prefixes — generators inherit their seeds' decay, \
         supporting §6's 'finding other live sources remains future work')\n"
    );
}

/// Transport-fault ablation: loss rate × retry budget. Success is the
/// number of scan records over a fixed NTP-sourced sample; "recovered"
/// is the share of the (ideal − no-retry) gap the retry budget wins
/// back. Loss decisions re-hash per attempt, so each retry is an
/// independent draw — recovery should approach 100% geometrically.
fn ablation_faults_vs_retries(study: &timetoscan::Study) {
    println!("== Ablation: transport loss rate x retry budget ==");
    let sample: Vec<(std::net::Ipv6Addr, netsim::SimTime)> = study
        .feed
        .iter()
        .take(1_500)
        .map(|o| (o.addr, o.seen))
        .collect();
    let run = |loss: f64, attempts: u32| -> u64 {
        let policy = ScanPolicy {
            retry: RetryPolicy::with_attempts(attempts),
            ..ScanPolicy::default()
        };
        let transport = Box::new(Faulty::new(FaultConfig::loss_only(0xab1a7e, loss)));
        let mut engine = scanner::Engine::with_transport(policy, transport);
        for (addr, seen) in &sample {
            engine.scan_target(&study.world, *addr, *seen);
        }
        engine.into_store().records().len() as u64
    };
    let ideal = run(0.0, 1);
    println!(
        "ideal transport: {ideal} records over {} sourced addresses",
        sample.len()
    );
    for loss in [0.01, 0.05, 0.10] {
        let baseline = run(loss, 1);
        let gap = ideal.saturating_sub(baseline);
        print!("loss {:4.1}%: 1 attempt {baseline:6}", loss * 100.0);
        for attempts in [2u32, 3, 4] {
            let got = run(loss, attempts);
            let recovered = if gap == 0 {
                100.0
            } else {
                100.0 * got.saturating_sub(baseline) as f64 / gap as f64
            };
            print!("   {attempts} attempts {got:6} ({recovered:5.1}% of gap)");
        }
        println!();
    }
    println!("(retries re-draw the loss hash per attempt; a 3-attempt budget recovers nearly the whole gap at 1% loss)\n");
}

fn main() {
    // 2024 is the seed EXPERIMENTS.md's ablation numbers were taken at.
    let seed = seed_arg(std::env::args().nth(1), 2024).unwrap_or_else(|e| exit_usage(&e));
    let study = Study::run(StudyConfig::small(seed));
    ablation_dedup(&study);
    ablation_cluster_threshold(&study);
    ablation_netspeed(&study);
    ablation_staleness(&study);
    ablation_tga_on_ntp(&study);
    ablation_faults_vs_retries(&study);
}
