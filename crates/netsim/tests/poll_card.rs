//! A poll card stands in for its client's meta: for every pool client,
//! `poll_view(id, poll_card(&meta), t)` gives the country, the address
//! `address_of_meta(&meta, t)` and the poll interval the meta gives, at
//! instants on both sides of every prefix rotation and privacy-IID
//! regeneration in the first two days.
//!
//! Three worlds: the `tiny` preset, a `small` world whose IoT devices
//! run bare SNTP at 30 % (so both poll intervals occur), and a world
//! that rotates prefixes every 8 h and regenerates privacy IIDs every
//! 6 h (so the two boundaries fall apart). Every household member gets
//! a card that holds it; static hosts get one that derives the meta, and
//! both paths are checked.

use netsim::device::{Attachment, DeviceId};
use netsim::procgen::SNTP_POLL_INTERVAL;
use netsim::time::{Duration, SimTime};
use netsim::world::{World, WorldConfig};
use netsim::PollCard;

/// Every rotation and regeneration boundary in `[0, 2 days]`, each with
/// the instants just before, at and after it.
fn instants(cfg: &WorldConfig) -> Vec<SimTime> {
    let horizon: u64 = 2 * 86_400;
    let mut out = Vec::new();
    for period in [cfg.rotation, cfg.privacy_regen].map(|p| p.as_secs()) {
        for b in (0..=horizon).step_by(period as usize) {
            out.extend([b.saturating_sub(1), b, b + 1].map(SimTime));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Checks every client of `world` and returns how many clients took
/// the derive-meta path and how many polled on the SNTP interval.
fn check(world: &World, name: &str) -> (usize, usize) {
    let at = instants(&world.config);
    let (mut derived, mut sntp, mut clients) = (0, 0, 0);
    for (meta, cfg) in world.ntp_clients() {
        clients += 1;
        let card = world.poll_card(&meta);
        match meta.attachment {
            Attachment::Household { .. } => assert!(
                !card.derives_meta(),
                "{name}: household client {} got a card that derives its meta",
                meta.id
            ),
            Attachment::Static { .. } => {
                assert!(card.derives_meta(), "{name}: static client {}", meta.id);
                derived += 1;
            }
        }
        if cfg.poll_interval == SNTP_POLL_INTERVAL {
            sntp += 1;
        }
        for &t in &at {
            let want = (
                meta.country,
                world.address_of_meta(&meta, t),
                cfg.poll_interval,
            );
            assert_eq!(
                world.poll_view(meta.id, card, t),
                want,
                "{name}: {} ({:?}) at {t}",
                meta.id,
                meta.addressing
            );
        }
    }
    assert!(clients > 500, "{name}: only {clients} clients");
    (derived, sntp)
}

#[test]
fn the_card_gives_what_the_meta_gives() {
    let tiny = WorldConfig::tiny(9);
    let (derived, sntp) = check(&World::generate(tiny.clone()), "tiny");
    assert!(derived > 0, "tiny: no static client to take the meta path");
    assert_eq!(sntp, 0, "tiny: SNTP clients without the knob");

    let small = World::generate(WorldConfig {
        sntp_iot_pct: 30,
        ..WorldConfig::small(4)
    });
    let (derived, sntp) = check(&small, "small, 30 % SNTP");
    assert!(
        derived > 0 && sntp > 0,
        "small: {derived} derived, {sntp} SNTP"
    );

    let split = World::generate(WorldConfig {
        rotation: Duration::hours(8),
        privacy_regen: Duration::hours(6),
        ..tiny
    });
    check(&split, "rotation 8 h, regeneration 6 h");
}

/// The collection queue's payload — client, poll number, card — fits
/// the 16 bytes a `(DeviceId, u64)` payload took with its padding.
#[test]
fn a_queued_poll_fits_sixteen_bytes() {
    assert_eq!(std::mem::size_of::<PollCard>(), 8);
    assert!(std::mem::size_of::<(DeviceId, u32, PollCard)>() <= 16);
}
