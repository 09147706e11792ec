//! Consumer-device census: what does NTP-based address sourcing surface
//! that a hitlist misses?
//!
//! Runs the collection + scan pipeline and breaks down the NTP-found
//! deployments by device family (HTML titles, CoAP resources) and by
//! EUI-64 vendor — the paper's §4.3 / Appendix B angle.
//!
//! ```sh
//! cargo run --release --example consumer_census [seed]
//! ```

use timetoscan::experiments::{fig4, table3};
use timetoscan::{Study, StudyConfig};
use timetoscan_repro::{exit_usage, seed_arg};

fn main() {
    let seed = seed_arg(std::env::args().nth(1), 7).unwrap_or_else(|e| exit_usage(&e));
    let study = Study::run(StudyConfig::small(seed));
    let derived = study.derived();

    let t3 = table3::compute(&derived);
    println!("=== Consumer deployments unveiled via NTP sourcing ===\n");
    println!("HTML title groups found via NTP but (nearly) absent from the hitlist:");
    for g in &t3.titles {
        if g.our_hosts > 0 && g.our_hosts >= 10 * g.tum_hosts.max(1) {
            println!(
                "  {:55} {:>6} via NTP   vs {:>6} via hitlist",
                g.label, g.our_hosts, g.tum_hosts
            );
        }
    }

    println!("\nCoAP device families (paper: castdevice is invisible to hitlists):");
    for (group, n) in &t3.our_coap {
        let tum = t3
            .tum_coap
            .iter()
            .find(|(g, _)| g == group)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        println!("  {group:12} {n:>6} via NTP   vs {tum:>6} via hitlist");
    }

    let headline = table3::new_device_count(&derived);
    println!("\nheadline: {headline} devices of underrepresented types found via NTP sourcing");

    println!("\nTop EUI-64 vendors among collected addresses (Appendix B):");
    let eui = fig4::compute(&derived);
    for v in eui.vendors.iter().take(10) {
        println!(
            "  {:55} {:>6} MACs {:>7} IPs",
            v.manufacturer, v.macs, v.ips
        );
    }
}
