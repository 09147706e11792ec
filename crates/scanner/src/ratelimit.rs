//! Per-second probe admission in simulation time.
//!
//! The study caps its scanners at 100 000 outgoing packets per second
//! (Appendix A.2.1). A probe goes out at the first second at or after the
//! one it asks for that still has room: each target keeps its own
//! schedule, and the shared budget caps only what one second carries, so
//! the order the probes are asked for in does not change which seconds
//! fill.

use netsim::time::SimTime;
use std::collections::VecDeque;

/// The study's packet budget.
pub(crate) const STUDY_PPS: u64 = 100_000;

/// Probes admitted per second from `base` on. A `want` below `base` is
/// admitted at `base` or later. No second admits more than `rate_pps`
/// probes; a `rate_pps` of 0 behaves as 1.
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    rate_pps: u32,
    base: u64,
    used: VecDeque<u32>,
}

impl Ledger {
    pub(crate) fn new(rate_pps: u64) -> Ledger {
        Ledger {
            rate_pps: rate_pps.clamp(1, u32::MAX.into()) as u32,
            base: 0,
            used: VecDeque::new(),
        }
    }

    /// Admits one probe at the first second ≥ `want` with room left.
    pub(crate) fn admit(&mut self, want: SimTime) -> SimTime {
        let mut i = want.as_secs().saturating_sub(self.base) as usize;
        while self.used.get(i).is_some_and(|&n| n >= self.rate_pps) {
            i += 1;
        }
        if i >= self.used.len() {
            self.used.resize(i + 1, 0);
        }
        self.used[i] += 1;
        SimTime(self.base + i as u64)
    }

    /// Forgets the seconds below `t`.
    pub(crate) fn release_before(&mut self, t: SimTime) {
        let gone = t.as_secs().saturating_sub(self.base);
        self.used.drain(..gone.min(self.used.len() as u64) as usize);
        self.base += gone;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admits every want in order and returns the admitted seconds.
    fn admit_all(ledger: &mut Ledger, wants: &[u64]) -> Vec<u64> {
        wants
            .iter()
            .map(|&w| ledger.admit(SimTime(w)).as_secs())
            .collect()
    }

    #[test]
    fn burst_then_throttle() {
        let mut ledger = Ledger::new(10);
        // A full second at t=0...
        assert_eq!(admit_all(&mut ledger, &[0; 10]), [0; 10]);
        // ...pushes the next probe into the next second.
        assert_eq!(ledger.admit(SimTime(0)), SimTime(1));
    }

    #[test]
    fn refill_restores_budget() {
        let mut ledger = Ledger::new(10);
        admit_all(&mut ledger, &[0; 10]);
        // The next second has its full capacity.
        assert_eq!(admit_all(&mut ledger, &[1; 10]), [1; 10]);
        assert_eq!(ledger.admit(SimTime(1)), SimTime(2));
    }

    #[test]
    fn sustained_rate_is_bounded() {
        let mut ledger = Ledger::new(100);
        let mut last = SimTime(0);
        let n = 5_000u64;
        for _ in 0..n {
            last = ledger.admit(last);
        }
        // 5000 probes at 100 pps fill exactly seconds 0..50.
        assert_eq!(last.as_secs(), n / 100 - 1, "finished at {last}");
    }

    #[test]
    fn admission_is_monotone() {
        let mut ledger = Ledger::new(7);
        let mut prev = SimTime(0);
        for i in 0..500 {
            let t = ledger.admit(SimTime(i / 10));
            assert!(t >= prev, "time went backwards: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn capacity_never_exceeded_per_second() {
        let rate_pps = 50;
        let mut ledger = Ledger::new(rate_pps);
        let mut admitted_per_sec = std::collections::HashMap::new();
        let mut want = SimTime(0);
        for i in 0..1000 {
            let t = ledger.admit(want);
            *admitted_per_sec.entry(t.as_secs()).or_insert(0u64) += 1;
            // Every third probe asks for a second already passed.
            want = if i % 3 == 0 {
                SimTime(t.as_secs() / 2)
            } else {
                t
            };
        }
        for (sec, n) in admitted_per_sec {
            assert!(n <= rate_pps, "second {sec} admitted {n}");
        }
    }

    /// Each target keeps its own schedule: which seconds fill does not
    /// depend on the order the wants arrive in.
    #[test]
    fn admitted_seconds_do_not_depend_on_want_order() {
        let mut wants: Vec<u64> = (0..400u64).map(|i| (i * 37) % 90 + (i % 7) * 3).collect();
        wants.sort_unstable();
        let mut ascending = admit_all(&mut Ledger::new(3), &wants);
        wants.reverse();
        let mut descending = admit_all(&mut Ledger::new(3), &wants);
        ascending.sort_unstable();
        descending.sort_unstable();
        assert_eq!(ascending, descending);
        // The wants overflow their seconds, so the order had work to do.
        assert!(ascending.last() > wants.iter().max());
    }

    #[test]
    fn released_seconds_and_a_zero_rate() {
        let mut ledger = Ledger::new(0);
        assert_eq!(admit_all(&mut ledger, &[5, 5]), [5, 6]);
        ledger.release_before(SimTime(6));
        // Second 6 is full; a want below the base goes at the base or later.
        assert_eq!(admit_all(&mut ledger, &[2, 2, 9]), [7, 8, 9]);
        // Releasing past every counted second starts afresh.
        ledger.release_before(SimTime(100));
        assert_eq!(admit_all(&mut ledger, &[0, 100]), [100, 101]);
    }
}
