//! The event-driven collection simulation.
//!
//! Every NTP client in the world polls the pool on its own schedule; each
//! poll is a real RFC 5905 exchange: the client emits a mode-3 packet via
//! [`wire::ntp`], the selected pool server parses it, and — if it is one of
//! the collecting servers — the client's source address is recorded. The
//! event queue interleaves the whole population chronologically, which is
//! what allows a scanner to consume the feed "in real time" while
//! prefixes rotate underneath it.
//!
//! Every poll crosses a [`Transport`]: under the default
//! [`Ideal`] transport the exchange is bit-identical to calling the
//! server directly; a faulty transport loses or delays polls, and the
//! run distinguishes what the *server* saw (ground truth for collection)
//! from what the *client* got back. Clients honor `RATE` Kiss-o'-Death
//! responses by backing off their next poll.
//!
//! # One resumable step
//!
//! A run is driven through one entry point and its two ends:
//! [`CollectionRun::begin`] captures the engine state at the window
//! start as a [`CollectionCheckpoint`], [`CollectionRun::advance`] moves
//! a checkpoint forward to any stop inside the window, recording into an
//! [`AddressCollector`] and appending first sights to the caller's feed,
//! and [`CollectionCheckpoint::finish`] accounts the whole window into a
//! registry. Any slicing of the window into
//! `advance` calls — including suspending the checkpoint to disk in
//! between — yields the same feed, totals and KoD histogram as one call
//! to the window end. [`CollectionRun::run`] is the same three stages
//! for a caller that consumes raw observations through a closure. Both
//! run the one poll loop there is: single-threaded, one pop per event.
//!
//! A queued poll carries its client's [`PollCard`], so a poll reads its
//! client's country, address and interval through [`World::poll_view`]
//! and draws no RNG: a run derives a client's meta once per slice, when
//! [`CollectionRun::begin`] walks the clients or a slice thaws the
//! pending queue, not once per poll.
//!
//! The only order-dependent state of that loop is the per-server RPS
//! ordinal that decides a `RATE` KoD: it is assigned in per-server
//! event order, and transport fates are stateless hashes of the link.
//! A future split across processes has to preserve exactly that
//! (DESIGN.md, "One collection engine").

use crate::collector::{AddressCollector, Observation};
use crate::metrics;
use crate::pool::{Pool, ServerId};
use crate::server::PoolServer;
use netsim::engine::EventQueue;
use netsim::time::{Duration, SimTime};
use netsim::transport::{Delivery, Ideal, Link, Transport};
use netsim::world::World;
use netsim::{DeviceId, PollCard, TransportTotals};
use std::net::Ipv6Addr;
use telemetry::{Histogram, Registry};
use wire::ntp::{NtpTimestamp, Packet};

/// The NTP service port.
pub const NTP_PORT: u16 = 123;

/// KoD backoff factor: a client that receives `RATE` multiplies its poll
/// interval by this for the next poll (RFC 5905 §7.4 mandates *increasing*
/// the interval; 4× mirrors ntpd jumping two poll-exponent steps).
pub const KOD_BACKOFF_FACTOR: u64 = 4;

/// Synthetic address of a pool server, for the transport's fault hash
/// (servers are not world devices; they live in a dedicated /48).
pub fn server_addr(id: ServerId) -> Ipv6Addr {
    Ipv6Addr::new(0x2001, 0xdb8, 0x7e0, 0, 0, 0, 0, id.0 as u16 + 1)
}

/// What came back to the polling client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollReply {
    /// A valid time response.
    Time,
    /// A `RATE` Kiss-o'-Death: the server shed load; back off.
    RateKod,
    /// Nothing: the poll or its answer was lost, or the request was
    /// invalid.
    None,
}

/// Outcome of one poll exchange, separating the server-side ground truth
/// from the client-side view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollOutcome {
    /// The server parsed a valid client request — what a collecting
    /// server records, KoD or not, reply lost or not.
    pub server_saw: bool,
    /// The client-side view of the exchange.
    pub reply: PollReply,
}

/// One client poll against one pool server through a transport.
///
/// `current_rps` is the server's request rate as of this request (used
/// by [`PoolServer::handle_at_rate`] to decide whether to shed load).
pub fn poll_once(
    server: &PoolServer,
    transport: &dyn Transport,
    src: Ipv6Addr,
    dst: Ipv6Addr,
    t: SimTime,
    current_rps: u64,
) -> PollOutcome {
    let request = Packet::client_request(NtpTimestamp::from_unix_secs(t.to_unix())).emit();
    let link = Link {
        src,
        dst,
        port: NTP_PORT,
        attempt: 0,
    };
    let mut totals = TransportTotals::default();
    poll_once_with_request(
        server,
        transport,
        &mut totals,
        link,
        t,
        current_rps,
        &request,
    )
}

/// [`poll_once`] with pre-encoded request bytes, counting the exchange
/// into `totals`. The request depends only on the transmit timestamp,
/// so callers polling many clients in the same simulated second (see
/// [`RequestMemo`]) emit it once and reuse the bytes — the exchange is
/// bit-identical to [`poll_once`].
pub fn poll_once_with_request(
    server: &PoolServer,
    transport: &dyn Transport,
    totals: &mut TransportTotals,
    link: Link,
    t: SimTime,
    current_rps: u64,
    request: &[u8],
) -> PollOutcome {
    let mut server_saw = false;
    let delivery = totals.exchange(transport, link, request, &mut |bytes| {
        let r = server.handle_at_rate(bytes, t, current_rps);
        server_saw = r.is_some();
        r
    });
    let reply = match delivery {
        Delivery::Answered { bytes, .. } => match Packet::parse(&bytes) {
            Ok(resp) => {
                // Client-side sanity check of the exchange, as a real
                // SNTP client performs it (KoDs echo the origin too).
                debug_assert_eq!(
                    resp.origin_ts,
                    NtpTimestamp::from_unix_secs(t.to_unix()),
                    "server failed to echo origin timestamp"
                );
                if resp.kiss_code() == Some("RATE") {
                    PollReply::RateKod
                } else {
                    PollReply::Time
                }
            }
            // A truncated/garbled reply is a non-answer to the client.
            Err(_) => PollReply::None,
        },
        Delivery::Unanswered | Delivery::Lost => PollReply::None,
    };
    PollOutcome { server_saw, reply }
}

/// When the client polls next: `poll_interval` after a normal exchange,
/// [`KOD_BACKOFF_FACTOR`]× that after a `RATE` KoD.
pub fn next_poll(t: SimTime, poll_interval: Duration, reply: PollReply) -> SimTime {
    match reply {
        PollReply::RateKod => t + Duration::secs(poll_interval.as_secs() * KOD_BACKOFF_FACTOR),
        PollReply::Time | PollReply::None => t + poll_interval,
    }
}

/// Statistics from one collection run: the five poll-outcome counters.
///
/// This is the run's one tally. The poll loop — the hottest path in the
/// study — counts into it as plain fields, a [`CollectionCheckpoint`]
/// carries it between slices, and [`CollectionCheckpoint::finish`]
/// exports it to the `ntp_*` registry keys once and returns it, so report
/// totals and these fields cannot disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Client polls simulated.
    pub polls: u64,
    /// Polls answered by a pool server with time.
    pub responses: u64,
    /// Polls that reached a collecting server.
    pub observed: u64,
    /// Polls answered with a `RATE` Kiss-o'-Death.
    pub kod: u64,
    /// Polls with no usable reply at the client (transport loss, or a
    /// garbled answer).
    pub lost: u64,
}

impl RunStats {
    fn count_reply(&mut self, reply: PollReply) {
        match reply {
            PollReply::Time => self.responses += 1,
            PollReply::RateKod => self.kod += 1,
            PollReply::None => self.lost += 1,
        }
    }
}

/// Memoizes the emitted mode-3 client request for the current timestamp
/// second: polls sharing a second reuse one encoded packet instead of
/// re-emitting 48 bytes per event. The request depends only on the
/// transmit timestamp, so the cached bytes are identical to a fresh
/// `Packet::client_request(t).emit()`.
#[derive(Debug, Default)]
pub struct RequestMemo {
    second: Option<u64>,
    bytes: Vec<u8>,
}

impl RequestMemo {
    /// An empty memo.
    pub fn new() -> RequestMemo {
        RequestMemo::default()
    }

    /// The encoded request for transmit time `t`, re-emitting only when
    /// the second changes.
    pub fn request(&mut self, t: SimTime) -> &[u8] {
        let second = t.to_unix();
        if self.second != Some(second) {
            self.bytes = Packet::client_request(NtpTimestamp::from_unix_secs(second)).emit();
            self.second = Some(second);
        }
        &self.bytes
    }
}

/// Per-server request counts over the current simulated second, feeding
/// the servers' KoD load shedding. Indexed by `ServerId.0` (pool ids
/// are dense), with `None` until a server first sees traffic — no
/// sentinel second needed.
struct RpsWindows {
    windows: Vec<Option<(u64, u64)>>,
}

impl RpsWindows {
    fn for_pool(pool: &Pool) -> RpsWindows {
        RpsWindows {
            windows: vec![None; pool.len()],
        }
    }

    /// The server's 1-based request ordinal within second `sec`,
    /// advancing the window (and resetting it when the second moves).
    fn ordinal(&mut self, server: ServerId, sec: u64) -> u64 {
        let slot = &mut self.windows[server.0 as usize];
        match slot {
            Some((s, n)) if *s == sec => {
                *n += 1;
                *n
            }
            _ => {
                *slot = Some((sec, 1));
                1
            }
        }
    }
}

/// The collection engine's state at an instant of the window: what
/// [`CollectionRun::begin`] produces, [`CollectionRun::advance`] moves
/// forward, and a study checkpoint persists.
///
/// `pending` holds the event queue drained **in pop order**: the next
/// `advance` re-schedules it as a batch, which assigns the pending
/// events lower tie-break sequence numbers than any follow-up scheduled
/// afterwards — exactly the relative order an uninterrupted run would
/// have used, so a sliced feed is bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionCheckpoint {
    /// The stop bound the prefix ran to (every processed event was
    /// strictly before it).
    pub cursor: SimTime,
    /// Unprocessed events `(fire time, device, poll seq)` in pop order.
    pub pending: Vec<(SimTime, DeviceId, u64)>,
    /// Per-server RPS windows (`(second, count)` per pool slot).
    pub rps: Vec<Option<(u64, u64)>>,
    /// Outcome counters so far.
    pub totals: RunStats,
    /// KoD-backoff observations so far.
    pub kod_backoff: Histogram,
    /// Transport exchanges so far, one per poll that selected a server.
    pub transport: TransportTotals,
}

impl CollectionCheckpoint {
    /// Ends the run: accounts every poll outcome since
    /// [`CollectionRun::begin`] into `registry` under the `ntp_*` keys —
    /// all five counters, zeros included so a report keeps every key,
    /// plus the KoD-backoff histogram — and the poll exchanges under
    /// the `transport_*` keys, and returns the poll counts.
    /// Nothing is exported before this call, so a run sliced and
    /// suspended any number of times leaves the same registry as an
    /// uninterrupted one.
    pub fn finish(self, registry: &mut Registry) -> RunStats {
        let t = self.totals;
        registry.add(metrics::NTP_POLLS, t.polls);
        registry.add(metrics::NTP_RESPONSES, t.responses);
        registry.add(metrics::NTP_KOD, t.kod);
        registry.add(metrics::NTP_LOST, t.lost);
        registry.add(metrics::NTP_OBSERVED, t.observed);
        if !self.kod_backoff.is_empty() {
            registry.merge_hist(metrics::NTP_KOD_BACKOFF_SECONDS, &self.kod_backoff);
        }
        self.transport.export_into(registry);
        t
    }

    /// Checks a checkpoint that came from outside the program against
    /// the world and pool it is about to be advanced over: the engine
    /// indexes `rps` by server id, expects every pending device to be a
    /// pool client of the world, and queues a poll number in 32 bits,
    /// so a mismatch must be refused here, not met as a panic inside
    /// the poll loop. A real run numbers at most one poll per
    /// [`netsim::procgen::SNTP_POLL_INTERVAL`] of its window per client;
    /// a pending poll whose follow-up would not fit is refused.
    pub fn validate(&self, world: &World, pool: &Pool) -> Result<(), &'static str> {
        if self.rps.len() != pool.len() {
            return Err("rps table does not match the pool");
        }
        if self
            .pending
            .iter()
            .any(|&(_, _, seq)| seq >= u64::from(u32::MAX))
        {
            return Err("pending poll number past what the queue holds");
        }
        let is_client = |id| world.try_meta(id).is_some_and(|dev| dev.ntp.is_some());
        if !self.pending.iter().all(|&(_, id, _)| is_client(id)) {
            return Err("pending event names no pool client of the world");
        }
        Ok(())
    }
}

/// One queued poll: the client, its poll number and its [`PollCard`]
/// — 16 bytes, so an event-queue entry stays the 32 bytes a
/// `(DeviceId, u64)` payload with its padding took. The card is what
/// lets a poll skip deriving the client's meta.
type Poll = (DeviceId, u32, PollCard);

/// The live form of a [`CollectionCheckpoint`]: the event queue,
/// per-server RPS windows, the [`RunStats`] tally, the KoD histogram
/// and the transport tally.
/// Everything else the engine touches (the request memo) is
/// recomputable and lives on the stack of one `drive` call.
struct EngineState {
    queue: EventQueue<Poll>,
    rps: RpsWindows,
    totals: RunStats,
    kod_backoff: Histogram,
    transport: TransportTotals,
}

impl EngineState {
    /// Takes the engine state out of `ckpt` (the caller writes the
    /// advanced state back with [`EngineState::into_checkpoint`]). A
    /// checkpoint holds no cards: each pending client's is derived here,
    /// one meta per client per slice.
    fn thaw(ckpt: &mut CollectionCheckpoint, world: &World) -> EngineState {
        let mut queue = EventQueue::new();
        queue.schedule_batch(
            std::mem::take(&mut ckpt.pending)
                .into_iter()
                .map(|(t, id, seq)| {
                    let seq =
                        u32::try_from(seq).expect("a validated checkpoint's poll number fits");
                    (t, (id, seq, world.poll_card(&world.meta(id))))
                }),
        );
        EngineState {
            queue,
            rps: RpsWindows {
                windows: std::mem::take(&mut ckpt.rps),
            },
            totals: ckpt.totals,
            kod_backoff: std::mem::take(&mut ckpt.kod_backoff),
            transport: std::mem::take(&mut ckpt.transport),
        }
    }

    fn into_checkpoint(mut self, cursor: SimTime) -> CollectionCheckpoint {
        let mut pending = Vec::with_capacity(self.queue.len());
        while let Some((t, (id, seq, _))) = self.queue.pop() {
            pending.push((t, id, u64::from(seq)));
        }
        CollectionCheckpoint {
            cursor,
            pending,
            rps: self.rps.windows,
            totals: self.totals,
            kod_backoff: self.kod_backoff,
            transport: self.transport,
        }
    }
}

/// A collection run over a time window.
pub struct CollectionRun<'w> {
    world: &'w World,
    pool: &'w Pool,
    start: SimTime,
    end: SimTime,
    transport: Box<dyn Transport>,
}

impl<'w> CollectionRun<'w> {
    /// A run over `[start, end)` on the ideal (fault-free) transport.
    pub fn new(world: &'w World, pool: &'w Pool, start: SimTime, end: SimTime) -> Self {
        CollectionRun::with_transport(world, pool, start, end, Box::new(Ideal))
    }

    /// A run whose polls cross an explicit transport.
    pub fn with_transport(
        world: &'w World,
        pool: &'w Pool,
        start: SimTime,
        end: SimTime,
        transport: Box<dyn Transport>,
    ) -> Self {
        CollectionRun {
            world,
            pool,
            start,
            end,
            transport,
        }
    }

    /// Engine state at the start of the window: the first poll of every
    /// client whose first poll falls before `end` queued, fresh RPS
    /// windows, zero totals.
    ///
    /// A first poll at or past `end` could never pop. Leaving it out
    /// keeps the `(time, seq)` order of every event that stays, so runs
    /// and checkpoints are unchanged, and the queue holds what the
    /// window can fire rather than one entry per declared client: a
    /// 45-minute window of the 1:100 world queues 1.3 M of its 10.4 M
    /// clients, and [`World::ntp_clients_within`] derives little more
    /// than those. A window of a poll interval or longer queues them all.
    /// Each client's card comes from the meta that walk derived.
    fn fresh_state(&self) -> EngineState {
        let mut queue = EventQueue::new();
        queue.schedule_batch(
            self.world
                .ntp_clients_within(self.end.since(self.start))
                .map(|(dev, cfg)| {
                    (
                        self.start + cfg.phase,
                        (dev.id, 0, self.world.poll_card(&dev)),
                    )
                }),
        );
        EngineState {
            queue,
            rps: RpsWindows::for_pool(self.pool),
            totals: RunStats::default(),
            kod_backoff: Histogram::new(),
            transport: TransportTotals::default(),
        }
    }

    /// The engine state at the window start, nothing processed yet:
    /// cursor = `start`, every first poll before `end` pending.
    pub fn begin(&self) -> CollectionCheckpoint {
        self.fresh_state().into_checkpoint(self.start)
    }

    /// Moves `ckpt` forward until every event before `stop` has been
    /// processed; `stop` is clamped into `[ckpt.cursor, end]`, so a stop
    /// behind the cursor or past the window is a no-op or a run to the
    /// end. Observations at the study's own servers are recorded into
    /// `collector` (actor servers collect too, but only their scans of
    /// the telescope's vantage addresses are analysed, §5), and global
    /// first sights are appended to `feed`, in event order.
    ///
    /// Any sequence of stops composes to the same feed, totals and KoD
    /// histogram as a single call to the window end — which is what
    /// lets a scheduler interleave many studies in slices, and a
    /// checkpoint file resume, without perturbing any of them. No
    /// metric is written before [`CollectionCheckpoint::finish`].
    pub fn advance(
        &self,
        ckpt: &mut CollectionCheckpoint,
        stop: SimTime,
        collector: &mut AddressCollector,
        feed: &mut Vec<Observation>,
    ) {
        let stop = stop.min(self.end).max(ckpt.cursor);
        let mut st = EngineState::thaw(ckpt, self.world);
        self.drive(&mut st, stop, &mut |server, addr, t| {
            if self.pool.server(server).operator.is_study() {
                feed.extend(collector.record(server, addr, t));
            }
        });
        *ckpt = st.into_checkpoint(stop);
    }

    /// Drives the whole window for a closure consumer:
    /// `observe(server, addr, t)` fires for every request that reaches a
    /// *collecting* server, and the caller routes study vs actor
    /// observations. The same begin → advance → finish as above,
    /// minus the checkpoint in between: a closure cannot be
    /// suspended, and a checkpoint nobody reads would put every pending
    /// event of the world through the queue's ordered part twice more
    /// (`begin` and `advance` each drain it into pop order).
    pub fn run<F: FnMut(ServerId, Ipv6Addr, SimTime)>(&self, mut observe: F) -> RunStats {
        let mut st = self.fresh_state();
        self.drive(&mut st, self.end, &mut observe);
        st.totals
    }

    /// The poll loop: one pop per event, everything inline. A poll reads
    /// its client through the queued card ([`World::poll_view`]), not a
    /// derived meta.
    fn drive<F: FnMut(ServerId, Ipv6Addr, SimTime)>(
        &self,
        st: &mut EngineState,
        stop: SimTime,
        observe: &mut F,
    ) {
        let EngineState {
            queue,
            rps,
            totals,
            kod_backoff,
            transport,
        } = st;
        let mut memo = RequestMemo::new();
        // The queue pops in time order, so the first event at or past
        // `stop` means every remaining event is too — they stay queued
        // (for a checkpoint) instead of being drained.
        while queue.peek_time().is_some_and(|t0| t0 < stop) {
            let (t, (id, seq, card)) = queue.pop().expect("peeked event pops");
            let (country, addr, poll_interval) = self.world.poll_view(id, card, t);
            totals.polls += 1;

            let mut reply = PollReply::None;
            if let Some(server_id) = self.pool.select(country, u64::from(id.0), u64::from(seq)) {
                let server = self.pool.server(server_id);
                let current_rps = rps.ordinal(server_id, t.as_secs());
                let link = Link {
                    src: addr,
                    dst: server_addr(server_id),
                    port: NTP_PORT,
                    attempt: 0,
                };
                let outcome = poll_once_with_request(
                    server,
                    self.transport.as_ref(),
                    transport,
                    link,
                    t,
                    current_rps,
                    memo.request(t),
                );
                reply = outcome.reply;
                totals.count_reply(reply);
                // Collection is ground truth on the server: a request
                // that arrived is recorded even if the reply is a KoD or
                // never makes it back.
                if outcome.server_saw && server.operator.collects() {
                    totals.observed += 1;
                    observe(server_id, addr, t);
                }
            } else {
                totals.lost += 1;
            }
            let next = next_poll(t, poll_interval, reply);
            if reply == PollReply::RateKod {
                // The extra sim-time wait KoD imposed beyond the normal
                // interval.
                kod_backoff.observe(next.since(t).as_secs() - poll_interval.as_secs());
            }
            // A follow-up at or past `end` never pops, in this slice or
            // any later one; dropping it keeps the order of the rest.
            if next < self.end {
                queue.schedule(next, (id, seq + 1, card));
            }
        }
    }
}

/// Analytic address sampling for the Rye & Levin comparison run.
///
/// R&L's seven-month 2022 collection only enters the study as a *set* to
/// overlap against (Table 1, "R&L" column); replaying 7 months of polls
/// through the event queue would dominate runtime without exercising any
/// additional code path. Instead we sample each client's address at
/// `samples` points across the window — the same distinct-address set a
/// sparse poll schedule would produce (documented in DESIGN.md).
pub fn sample_addresses(
    world: &World,
    start: SimTime,
    end: SimTime,
    samples: u32,
) -> v6addr::AddrSet {
    let mut set = v6addr::AddrSet::new();
    let span = end.as_secs().saturating_sub(start.as_secs()).max(1);
    for (dev, _) in world.ntp_clients() {
        for k in 0..samples {
            let jitter = netsim::mix2(u64::from(dev.id.0), u64::from(k))
                % (span / u64::from(samples).max(1)).max(1);
            let t =
                SimTime(start.as_secs() + u64::from(k) * span / u64::from(samples).max(1) + jitter);
            set.insert(world.address_of_meta(&dev, t));
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::AddressCollector;
    use crate::server::{Operator, PoolServer};
    use netsim::country;
    use netsim::world::{World, WorldConfig};

    fn study_pool() -> Pool {
        let mut pool = Pool::with_background();
        for (i, c) in country::COLLECTOR_LOCATIONS.iter().enumerate() {
            pool.add(PoolServer {
                netspeed: 50_000,
                operator: Operator::Study {
                    location_index: i as u8,
                },
                ..PoolServer::background(*c)
            });
        }
        pool
    }

    #[test]
    fn collection_observes_addresses() {
        let world = World::generate(WorldConfig::tiny(9));
        let pool = study_pool();
        let run = CollectionRun::new(
            &world,
            &pool,
            SimTime(0),
            SimTime(Duration::days(2).as_secs()),
        );
        let mut collector = AddressCollector::new();
        let stats = run.run(|s, a, t| {
            collector.record(s, a, t);
        });
        assert!(stats.polls > 0);
        assert_eq!(stats.polls, stats.responses);
        assert!(stats.observed > 0);
        assert!(stats.observed < stats.polls);
        assert!(collector.global().len() > 100);
        // Multiple collecting servers saw traffic.
        assert!(collector.servers().count() >= 3);
    }

    #[test]
    fn deterministic_runs() {
        let world = World::generate(WorldConfig::tiny(9));
        let pool = study_pool();
        let collect = || {
            let run = CollectionRun::new(
                &world,
                &pool,
                SimTime(0),
                SimTime(Duration::hours(30).as_secs()),
            );
            let mut c = AddressCollector::new();
            run.run(|s, a, t| {
                c.record(s, a, t);
            });
            c.global().to_compact()
        };
        let a = collect();
        let b = collect();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.overlap_count(&b), a.len());
    }

    #[test]
    fn longer_windows_collect_more_distinct_addresses() {
        // Prefix churn + privacy IIDs ⇒ new addresses every day.
        let world = World::generate(WorldConfig::tiny(9));
        let pool = study_pool();
        let sizes: Vec<usize> = [2u64, 6]
            .iter()
            .map(|days| {
                let run = CollectionRun::new(
                    &world,
                    &pool,
                    SimTime(0),
                    SimTime(Duration::days(*days).as_secs()),
                );
                let mut c = AddressCollector::new();
                run.run(|s, a, t| {
                    c.record(s, a, t);
                });
                c.global().len()
            })
            .collect();
        assert!(
            sizes[1] as f64 > sizes[0] as f64 * 1.8,
            "no churn growth: {sizes:?}"
        );
    }

    #[test]
    fn sampled_rl_set_overlaps_networks_not_addresses() {
        let world = World::generate(WorldConfig::tiny(9));
        let pool = study_pool();
        // R&L window: days 0..14 (scaled), study window after it.
        let rl = sample_addresses(&world, SimTime(0), SimTime(Duration::days(14).as_secs()), 6);
        let run = CollectionRun::new(
            &world,
            &pool,
            SimTime(Duration::days(20).as_secs()),
            SimTime(Duration::days(24).as_secs()),
        );
        let mut c = AddressCollector::new();
        run.run(|s, a, t| {
            c.record(s, a, t);
        });
        let ours = c.global().to_compact();
        let rl: store::CompactSet = rl.iter().collect();
        // Same world ⇒ heavy /32 (AS-level) overlap…
        let nets32 = |s: &store::CompactSet| -> std::collections::BTreeSet<u128> {
            s.iter_u128().map(|a| a >> 96).collect()
        };
        assert!(nets32(&ours).intersection(&nets32(&rl)).next().is_some());
        // …but dynamic prefixes+IIDs make address-level overlap tiny.
        let addr_overlap_rate = ours.overlap_count(&rl) as f64 / ours.len().max(1) as f64;
        assert!(addr_overlap_rate < 0.2, "rate {addr_overlap_rate}");
    }

    #[test]
    fn ideal_transport_run_matches_direct_run() {
        let world = World::generate(WorldConfig::tiny(9));
        let pool = study_pool();
        let window = SimTime(Duration::days(2).as_secs());
        let collect = |run: CollectionRun| {
            let mut c = AddressCollector::new();
            let stats = run.run(|s, a, t| {
                c.record(s, a, t);
            });
            (stats, c.global().to_compact())
        };
        let (direct_stats, direct) = collect(CollectionRun::new(&world, &pool, SimTime(0), window));
        let (ideal_stats, ideal) = collect(CollectionRun::with_transport(
            &world,
            &pool,
            SimTime(0),
            window,
            Box::new(netsim::Ideal),
        ));
        assert_eq!(direct_stats, ideal_stats);
        assert_eq!(direct.len(), ideal.len());
        assert_eq!(direct.overlap_count(&ideal), direct.len());
        assert_eq!(ideal_stats.kod, 0);
        assert_eq!(ideal_stats.lost, 0);
    }

    #[test]
    fn lossy_transport_drops_polls_deterministically() {
        use netsim::transport::{FaultConfig, Faulty};
        let world = World::generate(WorldConfig::tiny(9));
        let pool = study_pool();
        let window = SimTime(Duration::days(2).as_secs());
        let collect = || {
            let run = CollectionRun::with_transport(
                &world,
                &pool,
                SimTime(0),
                window,
                Box::new(Faulty::new(FaultConfig::loss_only(3, 0.2))),
            );
            let mut c = AddressCollector::new();
            let stats = run.run(|s, a, t| {
                c.record(s, a, t);
            });
            (stats, c.global().to_compact())
        };
        let (stats, addrs) = collect();
        assert!(stats.lost > 0);
        assert!(stats.responses < stats.polls);
        // Observations require the poll to *arrive*: strictly fewer than
        // an ideal run would record.
        let ideal_run = CollectionRun::new(&world, &pool, SimTime(0), window);
        let ideal_stats = ideal_run.run(|_, _, _| {});
        assert!(stats.observed < ideal_stats.observed);
        // And the loss pattern is a stateless hash: bit-deterministic.
        let (stats2, addrs2) = collect();
        assert_eq!(stats, stats2);
        assert_eq!(addrs.len(), addrs2.len());
        assert_eq!(addrs.overlap_count(&addrs2), addrs.len());
    }

    #[test]
    fn kod_client_is_collected_exactly_once_at_first_sight() {
        // A collecting study server that sheds load above 1 rps.
        let server = PoolServer {
            netspeed: 50_000,
            operator: Operator::Study { location_index: 0 },
            max_rps: 1,
            ..PoolServer::background(country::DE)
        };
        let sid = ServerId(7);
        let client: Ipv6Addr = "2001:db8:1::42".parse().unwrap();
        let mut collector = AddressCollector::new();
        let mut seen = Vec::new();
        let mut record_if_saw = |outcome: PollOutcome, t: SimTime| {
            if outcome.server_saw && server.operator.collects() {
                seen.extend(collector.record(sid, client, t));
            }
        };
        // Poll under load: the client is KoD'd, but the request arrived —
        // the collecting server records the address.
        let t0 = SimTime(100);
        let kod = poll_once(&server, &netsim::Ideal, client, server_addr(sid), t0, 5);
        assert_eq!(kod.reply, PollReply::RateKod);
        assert!(kod.server_saw);
        record_if_saw(kod, t0);
        // The client backs off, then re-polls under normal load.
        let t1 = next_poll(t0, Duration::mins(10), kod.reply);
        let ok = poll_once(&server, &netsim::Ideal, client, server_addr(sid), t1, 1);
        assert_eq!(ok.reply, PollReply::Time);
        record_if_saw(ok, t1);
        // First sight fired exactly once, at the KoD'd poll.
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].addr, client);
        assert_eq!(seen[0].seen, t0);
        assert_eq!(collector.global().len(), 1);
    }

    #[test]
    fn kod_backoff_holds_off_requery_for_the_full_window() {
        let interval = Duration::mins(10);
        let t0 = SimTime(1_000);
        // Normal exchange: next poll one interval later.
        assert_eq!(next_poll(t0, interval, PollReply::Time), t0 + interval);
        assert_eq!(next_poll(t0, interval, PollReply::None), t0 + interval);
        // KoD: the client must not re-query before the widened window.
        let after_kod = next_poll(t0, interval, PollReply::RateKod);
        let window_end = t0 + Duration::secs(interval.as_secs() * KOD_BACKOFF_FACTOR);
        assert_eq!(after_kod, window_end);
        assert!(after_kod.since(t0) >= Duration::secs(interval.as_secs() * 2));
        // A backoff-honoring client under sustained load: consecutive
        // KoD'd polls stay at least one widened window apart.
        let server = PoolServer {
            max_rps: 1,
            ..PoolServer::background(country::DE)
        };
        let client: Ipv6Addr = "2001:db8:1::43".parse().unwrap();
        let mut t = t0;
        let mut times = Vec::new();
        for _ in 0..3 {
            let out = poll_once(
                &server,
                &netsim::Ideal,
                client,
                server_addr(ServerId(0)),
                t,
                9,
            );
            assert_eq!(out.reply, PollReply::RateKod);
            times.push(t);
            t = next_poll(t, interval, out.reply);
        }
        for pair in times.windows(2) {
            assert!(
                pair[1].since(pair[0]) >= Duration::secs(interval.as_secs() * KOD_BACKOFF_FACTOR)
            );
        }
    }

    #[test]
    fn request_memo_matches_fresh_emit() {
        let mut memo = RequestMemo::new();
        for t in [
            SimTime(0),
            SimTime(0),
            SimTime(1),
            SimTime(86_400),
            SimTime(1),
        ] {
            let fresh = Packet::client_request(NtpTimestamp::from_unix_secs(t.to_unix())).emit();
            assert_eq!(memo.request(t), &fresh[..], "at {t}");
        }
    }

    #[test]
    fn rps_windows_count_per_server_per_second() {
        let mut pool = Pool::new();
        for _ in 0..3 {
            pool.add(PoolServer::background(country::DE));
        }
        let mut rps = RpsWindows::for_pool(&pool);
        let (a, b) = (ServerId(0), ServerId(2));
        assert_eq!(rps.ordinal(a, 10), 1);
        assert_eq!(rps.ordinal(a, 10), 2);
        assert_eq!(rps.ordinal(b, 10), 1);
        // The window resets when the second moves — including *backwards*
        // (a fresh second is a fresh window either way).
        assert_eq!(rps.ordinal(a, 11), 1);
        assert_eq!(rps.ordinal(a, 10), 1);
    }

    /// A pool whose collecting servers shed load aggressively, so the
    /// KoD path is exercised end to end.
    fn kod_pool() -> Pool {
        let mut pool = Pool::new();
        for (i, c) in country::COLLECTOR_LOCATIONS.iter().enumerate() {
            pool.add(PoolServer {
                netspeed: 50_000,
                operator: Operator::Study {
                    location_index: i as u8,
                },
                max_rps: 1,
                ..PoolServer::background(*c)
            });
        }
        pool
    }

    /// The one resumable step, with and without KoD traffic: begin →
    /// `advance` at uneven stops → finish equals a single `run` in
    /// feed, stats and KoD histogram.
    #[test]
    fn sliced_advance_equals_a_single_run() {
        let world = World::generate(WorldConfig::tiny(9));
        let end = SimTime(Duration::days(2).as_secs());
        for (pool, sheds) in [(study_pool(), false), (kod_pool(), true)] {
            let run = CollectionRun::new(&world, &pool, SimTime(0), end);
            // The reference feed and stats: a closure consumer
            // recording into a collector of its own.
            let mut flat = AddressCollector::new();
            let mut base_feed = Vec::new();
            let base_stats = run.run(|s, a, t| base_feed.extend(flat.record(s, a, t)));
            assert_eq!(base_stats.kod > 0, sheds, "KoD traffic");
            // `run` keeps no registry; the reference histogram is one
            // `advance` over the whole window.
            let mut base_reg = Registry::new();
            let mut whole = run.begin();
            run.advance(
                &mut whole,
                end,
                &mut AddressCollector::new(),
                &mut Vec::new(),
            );
            assert_eq!(whole.finish(&mut base_reg), base_stats);
            let kod_samples = base_reg
                .hist(metrics::NTP_KOD_BACKOFF_SECONDS)
                .map_or(0, |h| h.count());
            assert_eq!(kod_samples, base_stats.kod);

            // Off any grid, behind the cursor, mid-window, and past the
            // window end.
            let stops = [
                SimTime(Duration::hours(7).as_secs() + 13),
                SimTime(Duration::hours(3).as_secs()),
                SimTime(Duration::hours(29).as_secs()),
                end + Duration::days(1),
            ];
            let ctx = format!("sheds {sheds}");
            let mut feed = Vec::new();
            let mut collector = AddressCollector::new();
            let mut ckpt = run.begin();
            assert_eq!(ckpt.cursor, SimTime(0));
            for stop in stops {
                let (cursor, fed) = (ckpt.cursor, feed.len());
                run.advance(&mut ckpt, stop, &mut collector, &mut feed);
                assert_eq!(ckpt.cursor, stop.clamp(cursor, end), "{ctx}");
                if stop < cursor {
                    assert_eq!(feed.len(), fed, "{ctx}: fed while stopped");
                }
            }
            assert_eq!(collector.global.len(), base_feed.len(), "{ctx}");
            let mut reg = Registry::new();
            assert_eq!(ckpt.finish(&mut reg), base_stats, "{ctx}");
            assert_eq!(feed, base_feed, "{ctx}");
            assert_eq!(reg.snapshot(), base_reg.snapshot(), "{ctx}");
        }
    }

    #[test]
    fn poll_once_separates_server_view_from_client_view() {
        use netsim::transport::{FaultConfig, Faulty};
        let server = PoolServer::background(country::DE);
        let dst = server_addr(ServerId(2));
        // Heavy loss: scan attempts until we see both one-sided cases.
        let transport = Faulty::new(FaultConfig::loss_only(11, 0.5));
        let mut saw_arrived_but_reply_lost = false;
        let mut saw_forward_lost = false;
        for i in 0..400u16 {
            let client = Ipv6Addr::new(0x2001, 0xdb8, 9, 0, 0, 0, 0, i);
            let out = poll_once(&server, &transport, client, dst, SimTime(50), 1);
            match (out.server_saw, out.reply) {
                (true, PollReply::None) => saw_arrived_but_reply_lost = true,
                (false, PollReply::None) => saw_forward_lost = true,
                (false, _) => panic!("reply without the request arriving"),
                _ => {}
            }
        }
        assert!(
            saw_arrived_but_reply_lost,
            "no reverse-path loss in 400 polls"
        );
        assert!(saw_forward_lost, "no forward-path loss in 400 polls");
    }
}
