//! Model test for `netsim::engine::EventQueue`: random interleavings of
//! every public operation, checked after each step against a reference
//! that is nothing but a `Vec` kept sorted by `(time, insertion seq)` —
//! which is also what `in_pop_order` must list, and `iter` must hold
//! in any order.
//!
//! The queue's order contract — time, then insertion order — is what
//! `CollectionCheckpoint::pending`, the first-sight feed and every
//! byte-identity test rest on; its calendar layout (slot width, ring
//! length) is private, so the times below are picked to land on both
//! sides of every power-of-two second boundary a slot edge could sit on,
//! a whole ring lap apart, at the end of time, and at or before whatever
//! was popped last.

use netsim::engine::EventQueue;
use netsim::time::SimTime;
use proptest::prelude::*;

/// The reference: pending events sorted by `(time, seq)`.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, u64, u32)>,
    seq: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, event: u32) {
        self.pending.push((at, self.seq, event));
        self.seq += 1;
        self.pending.sort_by_key(|&(t, s, _)| (t, s));
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        if self.pending.is_empty() {
            return None;
        }
        let (t, _, e) = self.pending.remove(0);
        Some((t, e))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.first().map(|&(t, _, _)| t)
    }
}

/// A time (or horizon) from two random words. Most draws cluster where
/// order is hard: a handful of seconds around small powers of two
/// (equal times, both sides of any slot edge, a horizon inside a slot),
/// the same a ring lap or many laps out, the last second of `u64`, and
/// the neighbourhood of the event popped last (at it, before it, just
/// after it).
fn pick_time(a: u64, b: u64, last_popped: SimTime) -> SimTime {
    let jitter = b % 5;
    let edge = 1u64 << (4 + b % 6); // 16 s ..= 512 s
    SimTime(match a % 8 {
        0 => b % 8,
        1 => (edge * (1 + b % 3) + jitter).saturating_sub(2),
        2 => ((1 << 17) * (1 + b % 4) + edge + jitter).saturating_sub(2), // 36 h laps
        3 => last_popped.as_secs(),
        4 => last_popped.as_secs().saturating_sub(b % 200),
        5 => last_popped.as_secs().saturating_add(b % 200),
        6 => u64::MAX - b % 2,
        _ => b,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_matches_the_sorted_vec_model(
        ops in proptest::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..300),
    ) {
        let mut queue: EventQueue<u32> = EventQueue::new();
        let mut model = Model::default();
        let mut next_event = 0u32;
        let mut last_popped = SimTime(0);
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    let at = pick_time(a, b, last_popped);
                    queue.schedule(at, next_event);
                    model.schedule(at, next_event);
                    next_event += 1;
                }
                3 => {
                    let batch: Vec<(SimTime, u32)> = (0..1 + a % 12)
                        .map(|i| {
                            let at = pick_time(a.rotate_left(i as u32 * 7), b ^ i, last_popped);
                            next_event += 1;
                            (at, next_event - 1)
                        })
                        .collect();
                    for &(at, event) in &batch {
                        model.schedule(at, event);
                    }
                    queue.schedule_batch(batch);
                }
                4 | 5 => {
                    let popped = queue.pop();
                    assert_eq!(popped, model.pop(), "step {step}: pop");
                    if let Some((t, _)) = popped {
                        last_popped = t;
                    }
                }
                6 | 7 => {
                    // The collection loop's stop rule: pop while the
                    // head is before a horizon.
                    let horizon = pick_time(a, b, last_popped);
                    while queue.peek_time().is_some_and(|t| t < horizon) {
                        let popped = queue.pop();
                        assert_eq!(popped, model.pop(), "step {step}: pop before {horizon}");
                        last_popped = popped.expect("peeked event pops").0;
                    }
                }
                8 => {
                    assert_eq!(queue.peek_time(), model.peek_time(), "step {step}: peek");
                }
                _ => {
                    // Drain to empty; the steps after this reuse the queue.
                    if a % 4 == 0 {
                        while let Some(want) = model.pop() {
                            assert_eq!(queue.pop(), Some(want), "step {step}: drain");
                            last_popped = want.0;
                        }
                        assert_eq!(queue.pop(), None, "step {step}: drained");
                    }
                }
            }
            assert_eq!(queue.len(), model.pending.len(), "step {step}: len");
            assert_eq!(queue.is_empty(), model.pending.is_empty(), "step {step}: is_empty");
            assert_eq!(queue.peek_time(), model.peek_time(), "step {step}: peek after op {op}");
            let listed: Vec<(SimTime, u32)> =
                queue.in_pop_order().into_iter().map(|(t, &e)| (t, e)).collect();
            let want: Vec<(SimTime, u32)> = model.pending.iter().map(|&(t, _, e)| (t, e)).collect();
            assert_eq!(listed, want, "step {step}: in_pop_order after op {op}");
            let mut unordered: Vec<(SimTime, u32)> = queue.iter().map(|(t, &e)| (t, e)).collect();
            unordered.sort_unstable();
            let mut want = want;
            want.sort_unstable();
            assert_eq!(unordered, want, "step {step}: iter after op {op}");
        }
        // Whatever is left comes out in model order.
        while let Some(want) = model.pop() {
            assert_eq!(queue.pop(), Some(want), "final drain");
        }
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.peek_time(), None);
        assert!(queue.is_empty());
    }
}
