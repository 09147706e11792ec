//! Token-bucket rate limiting in simulation time.
//!
//! The study caps its scanners at 100 000 outgoing packets per second
//! (Appendix A.2.1). The limiter answers the scheduling question directly:
//! *given the probes already admitted, when may the next probe go out?*

use netsim::time::SimTime;

/// The study's packet budget.
pub const STUDY_PPS: u64 = 100_000;

/// A token bucket over simulation time with 1-second granularity of
/// refill accounting and fractional carry, deterministic by construction.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_pps: u64,
    burst: u64,
    tokens: f64,
    updated: SimTime,
}

impl TokenBucket {
    /// A bucket refilled at `rate_pps` with `burst` capacity.
    pub fn new(rate_pps: u64, burst: u64) -> TokenBucket {
        TokenBucket {
            rate_pps: rate_pps.max(1),
            burst: burst.max(1),
            tokens: burst as f64,
            updated: SimTime(0),
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.updated {
            let dt = (now.as_secs() - self.updated.as_secs()) as f64;
            self.tokens = (self.tokens + dt * self.rate_pps as f64).min(self.burst as f64);
            self.updated = now;
        }
    }

    /// Admits one probe at the earliest time ≥ `want`; consumes a token
    /// and returns the admission time.
    pub fn admit(&mut self, want: SimTime) -> SimTime {
        self.refill(want);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return want.max(self.updated);
        }
        // Need to wait for the deficit to refill.
        let deficit = 1.0 - self.tokens;
        let wait_secs = (deficit / self.rate_pps as f64).ceil() as u64;
        let at = SimTime(self.updated.as_secs() + wait_secs.max(1));
        self.refill(at);
        self.tokens = (self.tokens - 1.0).max(0.0);
        at
    }

    /// Tokens currently available (after refilling to `now`).
    pub fn available(&mut self, now: SimTime) -> u64 {
        self.refill(now);
        self.tokens as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle() {
        let mut tb = TokenBucket::new(10, 10);
        // 10 immediate admissions at t=0.
        for _ in 0..10 {
            assert_eq!(tb.admit(SimTime(0)), SimTime(0));
        }
        // The 11th is pushed into the future.
        let t = tb.admit(SimTime(0));
        assert!(t > SimTime(0));
    }

    #[test]
    fn refill_restores_budget() {
        let mut tb = TokenBucket::new(10, 10);
        for _ in 0..10 {
            tb.admit(SimTime(0));
        }
        assert_eq!(tb.available(SimTime(0)), 0);
        assert_eq!(tb.available(SimTime(1)), 10);
    }

    #[test]
    fn sustained_rate_is_bounded() {
        let mut tb = TokenBucket::new(100, 100);
        let mut last = SimTime(0);
        let n = 5_000u64;
        for _ in 0..n {
            last = tb.admit(last);
        }
        // 5000 probes at 100 pps need ≥ ~49 seconds.
        assert!(
            last.as_secs() >= (n / 100).saturating_sub(2),
            "finished at {last}"
        );
    }

    #[test]
    fn admission_is_monotone() {
        let mut tb = TokenBucket::new(7, 3);
        let mut prev = SimTime(0);
        for i in 0..500 {
            let t = tb.admit(SimTime(i / 10));
            assert!(t >= prev, "time went backwards: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn capacity_never_exceeded_per_second() {
        let mut tb = TokenBucket::new(50, 50);
        let mut admitted_per_sec = std::collections::HashMap::new();
        let mut want = SimTime(0);
        for _ in 0..1000 {
            let t = tb.admit(want);
            *admitted_per_sec.entry(t.as_secs()).or_insert(0u64) += 1;
            want = t;
        }
        for (sec, n) in admitted_per_sec {
            assert!(n <= 100, "second {sec} admitted {n}"); // 50 + burst carryover bound
        }
    }
}
