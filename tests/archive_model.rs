//! Model test for `store::Archive`: random interleavings of `insert`,
//! `contains`, `freeze`, clone and checkpoint restore,
//! checked after every step against a `BTreeSet<u128>`.
//!
//! The archive's observable state (membership, `len`, ordered
//! iteration) must not depend on where the memtable spilled, how the
//! size tiers compacted, or whether the archive came back from encoded
//! segments. Every cap doubles after a few spills, so spills alone
//! seldom fill a size class; a step that freezes after each key of a
//! short burst makes one-key runs, which fill the lowest class and
//! cascade, and every case ends with `DEFAULT_FANOUT` one-key freezes
//! that must merge. Keys are dense inside a few /64s (the
//! shape a collection feed has), plus both ends of the address space
//! and uniform draws. A filter that rules out a stored key shows up as
//! a `contains` or `insert` answer the model disagrees with.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;
use store::archive::DEFAULT_FANOUT;
use store::{segment, Archive, CompactSet};

/// The /64s dense draws land in: two neighbours, one far away, and the
/// last /64 of the space.
const PREFIXES: [u128; 4] = [
    0x2001_0db8_0000_0001,
    0x2001_0db8_0000_0002,
    0x2a02_1234_5678_9abc,
    0xffff_ffff_ffff_ffff,
];

/// A key from two random words: mostly dense inside a /64, sometimes
/// 0, `u128::MAX`, or uniform.
fn pick_key(a: u64, b: u64) -> u128 {
    match a % 8 {
        0 => 0,
        1 => u128::MAX,
        2 => (u128::from(a) << 64) | u128::from(b),
        _ => (PREFIXES[(b % 4) as usize] << 64) | u128::from(a % 97),
    }
}

/// The starting memtable cap a draw selects: 0 is `Archive::new()`.
fn archive_with(cap: u64) -> Archive {
    match cap {
        0 => Archive::new(),
        c => Archive::with_memtable_cap(c as usize),
    }
}

/// The archive as a checkpoint writes and reads it back: frozen, every
/// segment (or the whole archive as one, the way `core::checkpoint`
/// stores it) through `segment::encode` → `decode`, then
/// `Archive::from_segments`.
fn restore(archive: &mut Archive, whole: bool) -> Archive {
    archive.freeze();
    let sets: Vec<CompactSet> = if whole {
        vec![archive.to_compact()]
    } else {
        archive.segments().to_vec()
    };
    let decoded = sets
        .iter()
        .map(|s| segment::decode(&segment::encode(s)).expect("a fresh encoding decodes"))
        .collect();
    Archive::from_segments(decoded)
}

/// A key `model` does not hold, picked by `b`.
fn absent_key(model: &BTreeSet<u128>, b: u64) -> u128 {
    (0..)
        .map(|i| pick_key(b.rotate_left(i), b ^ u64::from(i)).wrapping_add(u128::from(i)))
        .find(|k| !model.contains(k))
        .expect("the model holds few keys")
}

/// Every observable of `archive` against `model`, plus one stored and
/// one absent key picked by `b`.
fn check(archive: &Archive, model: &BTreeSet<u128>, b: u64, ctx: &str) {
    assert_eq!(archive.len(), model.len(), "{ctx}: len");
    assert_eq!(archive.is_empty(), model.is_empty(), "{ctx}: is_empty");
    if !model.is_empty() {
        let present = *model
            .iter()
            .nth((b % model.len() as u64) as usize)
            .expect("index below len");
        assert!(
            archive.contains(Ipv6Addr::from(present)),
            "{ctx}: stored key {present:#x} reported absent"
        );
    }
    let absent = absent_key(model, b);
    assert!(
        !archive.contains(Ipv6Addr::from(absent)),
        "{ctx}: absent key {absent:#x} reported present"
    );
    assert!(
        archive.iter().map(u128::from).eq(model.iter().copied()),
        "{ctx}: iteration differs from the model"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn archive_matches_the_btreeset_model(
        cap in 0u64..9,
        ops in proptest::collection::vec((0u8..12, any::<u64>(), any::<u64>()), 1..300),
    ) {
        let mut archive = archive_with(cap);
        let mut model = BTreeSet::new();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            let ctx = format!("cap {cap}, step {step}, op {op}");
            match op {
                0..=4 => {
                    let k = pick_key(a, b);
                    assert_eq!(
                        archive.insert(Ipv6Addr::from(k)),
                        model.insert(k),
                        "{ctx}: insert {k:#x}"
                    );
                }
                5 => {
                    // A run of neighbours: the dense shape that fills
                    // one segment's block with small deltas.
                    let base = pick_key(a, b);
                    for i in 0..1 + a % 24 {
                        let k = base.wrapping_add(u128::from(i));
                        assert_eq!(
                            archive.insert(Ipv6Addr::from(k)),
                            model.insert(k),
                            "{ctx}: run insert {k:#x}"
                        );
                    }
                }
                6 => {
                    let k = pick_key(a, b);
                    assert_eq!(
                        archive.contains(Ipv6Addr::from(k)),
                        model.contains(&k),
                        "{ctx}: contains {k:#x}"
                    );
                }
                7 => archive.freeze(),
                8 => {
                    let copy = archive.clone();
                    check(&copy, &model, b, &format!("{ctx}: clone"));
                    archive = copy;
                }
                9 => archive = restore(&mut archive, a % 2 == 0),
                10 => {
                    // A burst of one-key runs, each frozen on its own:
                    // they share the lowest size class, fill it and
                    // cascade.
                    for i in 0..1 + a % 8 {
                        let k = pick_key(a.rotate_left(i as u32), b ^ i);
                        assert_eq!(
                            archive.insert(Ipv6Addr::from(k)),
                            model.insert(k),
                            "{ctx}: burst insert {k:#x}"
                        );
                        archive.freeze();
                    }
                }
                _ => {
                    // Re-inserting a stored key is never a first sight.
                    if let Some(&k) = model.iter().nth((a % (model.len() as u64).max(1)) as usize) {
                        assert!(!archive.insert(Ipv6Addr::from(k)), "{ctx}: re-insert {k:#x}");
                    }
                }
            }
            check(&archive, &model, b, &ctx);
        }
        // One-key runs fill the lowest size class: its eighth run
        // merges the class, so the count ends below one per run.
        archive.freeze();
        let before = archive.segments().len();
        for i in 0..DEFAULT_FANOUT as u64 {
            let k = absent_key(&model, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert!(archive.insert(Ipv6Addr::from(k)), "tail: insert {k:#x}");
            model.insert(k);
            archive.freeze();
            check(&archive, &model, i, &format!("cap {cap}, tail {i}"));
        }
        assert!(
            archive.segments().len() < before + DEFAULT_FANOUT,
            "cap {cap}: {DEFAULT_FANOUT} one-key runs merged nothing"
        );
        // Every stored key, once more, wherever it ended up.
        for &k in &model {
            assert!(archive.contains(Ipv6Addr::from(k)), "final: {k:#x} absent");
        }
        assert_eq!(archive.to_compact().len(), model.len());
    }
}
