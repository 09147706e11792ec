//! Covert-actor hunt: a standalone §5 telescope experiment without the
//! full study — deploy vantage addresses, query every pool server from a
//! distinct source, capture what scans those sources, attribute.
//!
//! ```sh
//! cargo run --release --example covert_actor_hunt
//! ```

use actors::{covert_actor, ecosystem, gt_actor, match_captures, ActorCharacter, ActorRoster};
use netsim::bgp::BgpFeed;
use netsim::time::{Duration, SimTime};
use ntppool::Pool;
use telescope::Vantage;

fn main() {
    // A pool with the world's background servers plus two NTP-sourcing
    // actors hiding among them.
    let mut pool = Pool::with_background();
    let mut gt = gt_actor();
    gt.register(&mut pool);
    let mut covert = covert_actor();
    covert.register(&mut pool);
    let actors = vec![gt, covert];
    let total_servers = pool.servers().count();

    // Query every server from its own source address.
    let mut vantage = Vantage::new("3fff:909::/48".parse().unwrap());
    let answered = vantage.query_all(&pool, SimTime(0), Duration::secs(7));
    println!(
        "queried {total_servers} pool servers from {} distinct vantage addresses ({answered} answered)",
        vantage.queried()
    );

    // The actors scan whatever they sourced; the telescope captures it.
    let vantages = [vantage];
    let vantage = &vantages[0];
    let feed = BgpFeed::new();
    let capture = ecosystem::run(
        ActorRoster::BASELINE,
        &actors,
        &vantages,
        &pool,
        &[],
        &feed,
        SimTime(0),
    )
    .capture_within(vantage.prefix);
    println!(
        "captured {} scan packets at the vantage prefix",
        capture.len()
    );

    let report = match_captures(vantage, &pool, &capture, &actors);
    assert_eq!(
        report.unmatched_packets, 0,
        "every packet must trace to a query"
    );
    println!(
        "matched {} packets to NTP queries; scatter on monitored addresses: {}\n",
        report.matched_packets, report.scatter_packets
    );

    for a in &report.actors {
        println!(
            "actor: {}",
            a.identification.as_deref().unwrap_or("(no identification)")
        );
        println!("  NTP servers traced: {}", a.matched_servers.len());
        println!("  ports scanned: {} distinct", a.ports.len());
        println!("  reaction: {} .. {}", a.min_reaction, a.max_reaction);
        println!("  campaign span per address: {}", a.campaign_span);
        println!("  port coverage: {:.0}%", a.port_coverage * 100.0);
        println!(
            "  scan sources: {}",
            a.source_orgs
                .iter()
                .map(|o| o.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        match a.character() {
            ActorCharacter::Research => {
                println!("  verdict: research scanner (identifies itself, fast, brief)\n")
            }
            ActorCharacter::Covert => println!(
                "  verdict: covert actor (anonymous, cloud-hosted, slow partial scanning)\n"
            ),
        }
    }
}
