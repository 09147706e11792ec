//! Discrete-event queue.
//!
//! A calendar-queue scheduler used to drive the NTP polling population
//! chronologically: the pool simulation pushes each client's next poll
//! as an event and processes the queue in time order, which is what lets
//! the scanner consume collected addresses "in real time" (paper §3.1)
//! while prefixes churn underneath it.
//!
//! Time is cut into slots of `SLOT_SECS` seconds. Only the events of
//! the current slot are kept ordered (a binary heap small enough to stay
//! in cache); an event of a later slot is appended, unsorted, to that
//! slot's bucket in a ring indexed by `slot % RING`, and a bucket is
//! heapified when the slots before it have run dry. Pool clients poll on
//! a fixed interval of an hour or more, so a run orders each event once,
//! among the few thousand that share its minute, instead of sifting it
//! through one heap the size of the client population.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of a calendar slot in seconds. At 64 s a bucket of the 1:100
/// world (10.4 M clients spread over a 6 h poll interval) holds ~31 k
/// events ≈ 1 MB, which heapifies and pops inside L2; a `small` study
/// puts ~6 events in a bucket, so narrower slots would only add empty
/// buckets to step over.
const SLOT_SECS: u64 = 64;

/// Buckets in the ring: one lap is 36 h of simulated time, past the
/// furthest a pool client ever schedules ahead (a KoD'd 6 h client
/// waits 24 h). Events beyond a lap share a bucket with a nearer slot
/// and are left behind when that slot is taken.
const RING: u64 = 2048;

fn slot_of(at: SimTime) -> u64 {
    at.as_secs() / SLOT_SECS
}

/// One scheduled event. Ordered by `(at, seq)` *reversed*, so the
/// max-heap surfaces the earliest; the payload never takes part
/// (`(at, seq)` is unique), so `E` needs no `Ord`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// An event queue over an arbitrary payload type. Events with equal
/// timestamps pop in insertion order (a monotonic sequence number breaks
/// ties), so simulation runs are fully deterministic.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The ordered part: every pending event of slot `cur` or earlier.
    due: BinaryHeap<Scheduled<E>>,
    /// The slot `due` covers. Only ever moves forward.
    cur: u64,
    /// `ring[s % RING]` holds, unordered, the pending events of every
    /// slot `s > cur` that maps there.
    ring: Vec<Vec<Scheduled<E>>>,
    /// Emptied bucket allocations, handed to the next bucket that opens
    /// so a steady run neither allocates per bucket nor strands capacity
    /// behind the cursor.
    spare: Vec<Vec<Scheduled<E>>>,
    seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            due: BinaryHeap::new(),
            cur: 0,
            ring: (0..RING).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            seq: 0,
            len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let entry = Scheduled {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.len += 1;
        let slot = slot_of(at);
        // At or before the current slot (a caller scheduling into the
        // past included): straight into the ordered part, which is what
        // pops next.
        if slot <= self.cur {
            self.due.push(entry);
            return;
        }
        let bucket = &mut self.ring[(slot % RING) as usize];
        if bucket.capacity() == 0 {
            if let Some(recycled) = self.spare.pop() {
                *bucket = recycled;
            }
        }
        bucket.push(entry);
    }

    /// Schedules a batch of `(at, event)` pairs in iteration order —
    /// equivalent to calling [`schedule`](EventQueue::schedule) per pair
    /// (same sequence numbers, same FIFO ties): how a run queues every
    /// client's first poll and re-queues a checkpoint's pending events.
    pub fn schedule_batch(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        for (at, event) in events {
            self.schedule(at, event);
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.refill();
        let entry = self.due.pop()?;
        self.len -= 1;
        Some((entry.at, entry.event))
    }

    /// Timestamp of the earliest pending event. Takes `&mut self`
    /// because the answer may sit in a bucket that has not been ordered
    /// yet.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.refill();
        self.due.peek().map(|entry| entry.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// When the ordered part has run dry and events remain, moves the
    /// cursor to the earliest pending slot and orders that slot.
    fn refill(&mut self) {
        if !self.due.is_empty() || self.len == 0 {
            return;
        }
        // One lap visits every bucket once, in slot order, so the first
        // bucket whose earliest resident belongs to the visited slot is
        // the earliest pending slot. A lap without one has looked at
        // every pending event and knows where the earliest is.
        let mut earliest = u64::MAX;
        for slot in self.cur + 1..=self.cur + RING {
            let bucket = &self.ring[(slot % RING) as usize];
            let Some(first) = bucket.iter().map(|entry| slot_of(entry.at)).min() else {
                continue;
            };
            if first == slot {
                earliest = slot;
                break;
            }
            earliest = earliest.min(first);
        }
        self.take_slot(earliest);
    }

    /// Makes `slot` the current one: its bucket becomes the ordered part
    /// in place (heapified in its own allocation), residents of a later
    /// lap stay behind.
    fn take_slot(&mut self, slot: u64) {
        let bucket = &mut self.ring[(slot % RING) as usize];
        let mut due = std::mem::take(bucket);
        let mut i = 0;
        while i < due.len() {
            if slot_of(due[i].at) == slot {
                i += 1;
            } else {
                bucket.push(due.swap_remove(i));
            }
        }
        let drained = std::mem::replace(&mut self.due, BinaryHeap::from(due)).into_vec();
        if drained.capacity() > 0 {
            self.spare.push(drained);
        }
        self.cur = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn schedule_batch_matches_sequential_schedules() {
        let mut batched = EventQueue::new();
        let mut seq = EventQueue::new();
        let events = [(SimTime(9), 1u32), (SimTime(2), 2), (SimTime(9), 3)];
        batched.schedule_batch(events);
        for (t, e) in events {
            seq.schedule(t, e);
        }
        // FIFO ties and ordering are identical between the two paths.
        while let Some(a) = seq.pop() {
            assert_eq!(batched.pop(), Some(a));
        }
        assert!(batched.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        q.schedule(SimTime(5), 2);
        q.schedule(SimTime(15), 3);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
        assert_eq!(q.pop(), Some((SimTime(15), 3)));
        assert!(q.is_empty());
    }

    /// Slots a lap apart share a bucket: taking the nearer one leaves
    /// the further one queued, and a lap that finds nothing jumps to the
    /// earliest pending slot instead of stepping there.
    #[test]
    fn slots_sharing_a_bucket_pop_a_lap_apart() {
        let lap = SLOT_SECS * RING;
        let mut q = EventQueue::new();
        q.schedule(SimTime(3 * lap + 70), "third lap");
        q.schedule(SimTime(70), "first lap");
        q.schedule(SimTime(u64::MAX), "end of time");
        q.schedule(SimTime(lap + 70), "second lap");
        assert_eq!(q.pop(), Some((SimTime(70), "first lap")));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(lap + 70), "second lap")));
        assert_eq!(q.peek_time(), Some(SimTime(3 * lap + 70)));
        // Behind the cursor now: ordered ahead of everything pending.
        q.schedule(SimTime(0), "past");
        assert_eq!(q.pop(), Some((SimTime(0), "past")));
        assert_eq!(q.pop(), Some((SimTime(3 * lap + 70), "third lap")));
        assert_eq!(q.pop(), Some((SimTime(u64::MAX), "end of time")));
        assert_eq!(q.pop(), None);
    }

    /// A drained bucket's allocation is reused by the next bucket that
    /// opens, so a steady run of reschedules allocates nothing.
    #[test]
    fn drained_buckets_are_recycled() {
        let mut q = EventQueue::new();
        for i in 0..8 {
            q.schedule(SimTime(SLOT_SECS * (i + 1)), i);
        }
        for round in 0..100u64 {
            let (t, e) = q.pop().expect("eight events circulate");
            q.schedule(SimTime(t.as_secs() + SLOT_SECS * 8), e);
            assert!(q.spare.len() <= 2, "round {round}: {}", q.spare.len());
        }
        let live = q.ring.iter().filter(|b| b.capacity() > 0).count();
        assert!(live + q.spare.len() <= 9, "{live} + {}", q.spare.len());
    }
}
