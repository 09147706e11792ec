//! Simulation time.
//!
//! The study window is four weeks of wall-clock time (July 20 – August 16,
//! 2024 in the paper). [`SimTime`] counts seconds since the *study epoch*
//! (the moment the pool configuration was finalised); negative times never
//! occur. Conversions to Unix time use [`STUDY_EPOCH_UNIX`] so NTP
//! timestamps on the simulated wire are era-correct. A [`Span`] is the
//! stretch of time over which some time-dependent answer holds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Unix timestamp of the study epoch: 2024-07-20 00:00:00 UTC.
pub const STUDY_EPOCH_UNIX: u64 = 1_721_433_600;

/// A point in simulated time, seconds since the study epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Seconds.
    pub const fn secs(s: u64) -> Duration {
        Duration(s)
    }

    /// Minutes.
    pub const fn mins(m: u64) -> Duration {
        Duration(m * 60)
    }

    /// Hours.
    pub const fn hours(h: u64) -> Duration {
        Duration(h * 3600)
    }

    /// Days.
    pub const fn days(d: u64) -> Duration {
        Duration(d * 86_400)
    }

    /// Whole seconds.
    pub const fn as_secs(&self) -> u64 {
        self.0
    }
}

impl SimTime {
    /// The study epoch itself.
    pub const EPOCH: SimTime = SimTime(0);

    /// Seconds since the epoch.
    pub const fn as_secs(&self) -> u64 {
        self.0
    }

    /// Unix seconds of this instant.
    pub const fn to_unix(&self) -> u64 {
        STUDY_EPOCH_UNIX + self.0
    }

    /// Days (truncated) since the epoch.
    pub const fn day(&self) -> u64 {
        self.0 / 86_400
    }

    /// Elapsed time since `earlier` (saturating).
    pub fn since(&self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// A half-open stretch of simulated time `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First instant inside.
    pub from: SimTime,
    /// First instant past the end.
    pub until: SimTime,
}

impl Span {
    /// Every instant a study can name (`SimTime(u64::MAX)` aside).
    pub const ALL: Span = Span {
        from: SimTime(0),
        until: SimTime(u64::MAX),
    };

    /// The window of length `len` (taken as at least 1 s) that contains
    /// `t`, aligned to multiples of `len`: the instants `t'` with
    /// `t' / len == t / len`.
    pub fn window(t: SimTime, len: Duration) -> Span {
        let len = len.as_secs().max(1);
        let from = t.as_secs() / len * len;
        Span {
            from: SimTime(from),
            until: SimTime(from.saturating_add(len)),
        }
    }

    /// Whether `t` lies inside.
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }

    /// The instants inside both (empty, `from >= until`, when they do
    /// not overlap).
    pub fn intersect(&self, other: Span) -> Span {
        Span {
            from: self.from.max(other.from),
            until: self.until.min(other.until),
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day();
        let rem = self.0 % 86_400;
        write!(
            f,
            "d{:02}+{:02}:{:02}:{:02}",
            d,
            rem / 3600,
            (rem % 3600) / 60,
            rem % 60
        )
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(86_400) && self.0 > 0 {
            write!(f, "{}d", self.0 / 86_400)
        } else if self.0.is_multiple_of(3600) && self.0 > 0 {
            write!(f, "{}h", self.0 / 3600)
        } else {
            write!(f, "{}s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::EPOCH + Duration::days(1) + Duration::hours(2);
        assert_eq!(t.as_secs(), 93_600);
        assert_eq!(t.day(), 1);
        assert_eq!(t.since(SimTime::EPOCH), Duration(93_600));
        assert_eq!(SimTime::EPOCH.since(t), Duration::ZERO); // saturates
        assert_eq!(t - Duration::days(2), SimTime::EPOCH); // saturates
    }

    #[test]
    fn unix_conversion() {
        assert_eq!(SimTime::EPOCH.to_unix(), STUDY_EPOCH_UNIX);
        assert_eq!(
            (SimTime::EPOCH + Duration::secs(5)).to_unix(),
            STUDY_EPOCH_UNIX + 5
        );
    }

    #[test]
    fn duration_constructors() {
        assert_eq!(Duration::mins(2).as_secs(), 120);
        assert_eq!(Duration::hours(1).as_secs(), 3600);
        assert_eq!(Duration::days(28).as_secs(), 2_419_200);
        assert_eq!(Duration::secs(1) + Duration::secs(2), Duration(3));
    }

    #[test]
    fn spans_are_half_open_aligned_windows() {
        let w = Span::window(SimTime(90_061), Duration::days(1));
        assert_eq!((w.from, w.until), (SimTime(86_400), SimTime(172_800)));
        assert!(w.contains(SimTime(86_400)) && w.contains(SimTime(172_799)));
        assert!(!w.contains(SimTime(86_399)) && !w.contains(SimTime(172_800)));
        // A zero length is one second, and the last window saturates.
        assert_eq!(Span::window(SimTime(7), Duration::ZERO).until, SimTime(8));
        assert_eq!(
            Span::window(SimTime(u64::MAX - 1), Duration::days(1)).until,
            SimTime(u64::MAX)
        );
        let six = Span::window(SimTime(90_061), Duration::hours(6));
        assert_eq!(w.intersect(six), six);
        assert_eq!(Span::ALL.intersect(w), w);
        let next = Span::window(SimTime(172_800), Duration::days(1));
        assert!(!(0..4).any(|s| w.intersect(next).contains(SimTime(172_798 + s))));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime(90_061)), "d01+01:01:01");
        assert_eq!(format!("{}", Duration::days(3)), "3d");
        assert_eq!(format!("{}", Duration::hours(2)), "2h");
        assert_eq!(format!("{}", Duration::secs(90)), "90s");
    }
}
