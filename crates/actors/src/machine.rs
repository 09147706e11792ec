//! The per-tick state-machine contract every archetype implements.

use netsim::bgp::BgpFeed;
use netsim::time::{Duration, SimTime};
use telescope::CapturedPacket;

/// Where an actor's campaign currently is. Every archetype cycles
/// through the same four phases (some re-enter `Sweep` from `Cooldown`
/// for multi-pass campaigns):
///
/// * `Sourcing` — acquiring targets (waiting for NTP-sourced intel, a
///   stale hitlist read, or the first BGP signal);
/// * `Dwell` — targets in hand, deliberately waiting before probing;
/// * `Sweep` — actively emitting probes this tick;
/// * `Cooldown` — between passes, or done.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Acquiring targets.
    Sourcing,
    /// Waiting out a deliberate delay before probing.
    Dwell,
    /// Actively probing.
    Sweep,
    /// Between passes or finished.
    Cooldown,
}

/// One simulation tick handed to every machine.
pub struct TickCtx<'a> {
    /// Tick window start (inclusive).
    pub now: SimTime,
    /// Tick length; the machine owns `[now, now + tick)`.
    pub tick: Duration,
    /// The route-event feed (already sealed); machines slice it with
    /// [`BgpFeed::between`]`(now, now + tick)`.
    pub feed: &'a BgpFeed,
}

impl TickCtx<'_> {
    /// Exclusive end of this tick's window.
    pub fn end(&self) -> SimTime {
        self.now + self.tick
    }
}

/// A per-tick scanner state machine. The ecosystem driver calls
/// [`Machine::tick`] once per simulated tick, in fixed machine order, so
/// every emission is a pure function of `(construction inputs, tick
/// clock)`.
pub trait Machine {
    /// The archetype's canonical attribution label (ground truth).
    fn label(&self) -> &'static str;
    /// The phase the machine is in *entering* this instant.
    fn phase(&self) -> Phase;
    /// Advances one tick, appending any probes emitted during
    /// `[ctx.now, ctx.end())` (probe timestamps may spill slightly past
    /// the window for reaction delays; they never precede `ctx.now`).
    fn tick(&mut self, ctx: &TickCtx<'_>, out: &mut Vec<CapturedPacket>);
    /// Has the machine reached its terminal `Cooldown` (no future
    /// emissions possible)?
    fn finished(&self) -> bool;
}
