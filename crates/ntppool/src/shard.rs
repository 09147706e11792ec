//! The prefix-sharded collection loop.
//!
//! [`CollectionRun::advance`] runs this loop when the collector it is
//! handed carries two or more shard-local archives. The world is
//! sharded by dense [`ServerId`] range: shard `w` of `S` owns every
//! server with `id % S == w`, and with it that server's RPS window, its
//! per-server address sets, its request counters, and a shard-local
//! first-sight [`store::Archive`] — for the length of one drive, a flat
//! [`AddressCollector`] of its own. Each shard runs its plan → execute →
//! apply loop on a persistent worker thread; the main thread only
//! routes events and merges results at bucket boundaries.
//!
//! # Why server-sharding preserves bit-determinism
//!
//! The engine's only order-dependent input is the per-server RPS
//! ordinal (it drives KoD shedding). Routing an event by its selected
//! server means each server's events land on exactly one shard, and the
//! main thread routes them in popped (global event) order, so every
//! server sees its events in the same relative order the sequential
//! loop would process them — the ordinals, and therefore every KoD
//! decision, are identical.
//!
//! # Hierarchical dedup and the bucket-boundary merge
//!
//! A device re-selects its server every poll, so one address surfaces
//! through servers on *many* shards — no shard can decide global first
//! sight alone. Instead each shard's local archive filters its own
//! re-sights and emits surviving observations as **candidates** tagged
//! with their global event index. At the bucket boundary the main
//! thread replays all candidates in event-index order through the
//! authoritative global archive and appends the survivors to the feed.
//! The global first occurrence of an address is necessarily also
//! its shard-local first occurrence, so it is always a candidate, and
//! it carries the smallest event index for that address — the feed is
//! bit-identical to the sequential loop's, in order and content.
//!
//! Cross-shard state reconciles the same way, only at bucket
//! boundaries: outcome totals are summed (commutative), the KoD-backoff
//! histogram merges per-bucket counts (commutative), and next-poll
//! reschedules are scattered back into event order before the batch
//! re-schedule, so queue tie-breaking matches the sequential loop.
//! Per-worker registries carry only volatile metrics and merge in shard
//! order at the end of the drive.
//!
//! The bucket horizon is the minimum poll interval over scheduled
//! clients: every follow-up scheduled from inside a bucket lands at
//! least one interval later (KoD *widens* the gap), so no bucket can
//! schedule into itself and the merge sees the complete bucket.

use crate::collector::{AddressCollector, Observation};
use crate::metrics;
use crate::pool::ServerId;
use crate::run::{
    next_poll, poll_once_with_request, server_addr, CollectionRun, EngineState, PollReply,
    RequestMemo, RpsWindows, Totals,
};
use netsim::time::{Duration, SimTime};
use netsim::DeviceId;
use std::net::Ipv6Addr;
use std::sync::mpsc::{channel, Receiver, Sender};
use telemetry::{Histogram, Registry};

/// The sharded collector for the duration of one drive. Each worker
/// gets a flat [`AddressCollector`] of its own holding the state of the
/// servers it owns (`id % shard_count == index`): their per-server
/// tables, and as its `global` the shard-local first-sight filter — an
/// address the shard has already seen (through any of its servers) is
/// never re-proposed to the global merge. The authoritative global
/// archive and the feed stay borrowed from the caller; only the main
/// thread touches them (at bucket boundaries, in event order).
pub(crate) struct ShardSet<'a> {
    shards: Vec<AddressCollector>,
    collector: &'a mut AddressCollector,
    feed: &'a mut Vec<Observation>,
}

impl<'a> ShardSet<'a> {
    /// Moves `collector`'s per-server state onto one shard per
    /// shard-local archive — the same partition that produced it.
    pub(crate) fn split(
        collector: &'a mut AddressCollector,
        feed: &'a mut Vec<Observation>,
    ) -> ShardSet<'a> {
        let mut shards: Vec<AddressCollector> = std::mem::take(&mut collector.shards)
            .into_iter()
            .map(|global| AddressCollector {
                global,
                ..AddressCollector::default()
            })
            .collect();
        // Draining in id order keeps every shard's tables sorted.
        let count = shards.len();
        for (s, set) in collector.per_server.drain(..) {
            shards[s.0 as usize % count].per_server.push((s, set));
        }
        for (s, n) in collector.requests.drain(..) {
            shards[s.0 as usize % count].requests.push((s, n));
        }
        ShardSet {
            shards,
            collector,
            feed,
        }
    }

    /// Moves the shards' state back into the collector, shard-local
    /// archives in shard order — shards own disjoint servers, so the
    /// tables concatenate without conflicts.
    pub(crate) fn rejoin(self) {
        for shard in self.shards {
            self.collector.per_server.extend(shard.per_server);
            self.collector.requests.extend(shard.requests);
            self.collector.shards.push(shard.global);
        }
        self.collector.per_server.sort_by_key(|(s, _)| *s);
        self.collector.requests.sort_by_key(|(s, _)| *s);
    }

    /// Publishes a candidate through the authoritative global archive;
    /// appends it to the feed on global first sight. Main-thread only,
    /// called in event-index order at bucket boundaries.
    fn publish(&mut self, obs: Observation) {
        if self.collector.global.insert(obs.addr) {
            self.feed.push(obs);
        }
    }
}

/// One bucket event on its way through a shard worker.
#[derive(Debug, Clone, Copy)]
struct Planned {
    /// Position within the popped bucket — the global event order the
    /// per-shard results are scattered back into.
    idx: usize,
    t: SimTime,
    id: DeviceId,
    seq: u64,
    /// Filled by the pre-plan round.
    interval: Duration,
    addr: Ipv6Addr,
    server: Option<ServerId>,
}

/// Work sent to a shard worker.
#[derive(Debug)]
enum ToWorker {
    /// A contiguous slice of the popped bucket for the pure pre-plan
    /// phase (device lookup, address resolution, server selection).
    PrePlan(Vec<Planned>),
    /// The events routed to this shard's servers, in global event
    /// order, for the plan + execute + apply phases.
    Execute(Vec<Planned>),
}

/// One shard's results for one bucket, every per-event output tagged
/// with its global event index so the main thread can scatter them back
/// into sequential order.
#[derive(Default)]
struct ShardOut {
    totals: Totals,
    kod_backoff: Histogram,
    resched: Vec<(usize, SimTime, DeviceId, u64)>,
    candidates: Vec<(usize, Observation)>,
}

/// A shard worker's replies, in the order the work arrived. The
/// executed payload is boxed so the enum stays channel-message sized
/// regardless of [`ShardOut`]'s inline histograms.
enum FromWorker {
    PrePlanned(Vec<Planned>),
    Executed(Box<ShardOut>),
}

/// The persistent worker loop: alternates pre-plan and execute rounds
/// until the main thread hangs up, then returns its state for merging.
fn shard_worker(
    run: &CollectionRun<'_>,
    mut shard: AddressCollector,
    mut rps: RpsWindows,
    to_rx: Receiver<ToWorker>,
    from_tx: Sender<FromWorker>,
) -> (AddressCollector, RpsWindows, Registry) {
    let mut resolver = run.world.shard_resolver();
    let mut memo = RequestMemo::new();
    let mut reg = Registry::new();
    while let Ok(msg) = to_rx.recv() {
        match msg {
            ToWorker::PrePlan(mut chunk) => {
                for p in &mut chunk {
                    let dev = run.world.meta(p.id);
                    let cfg = dev.ntp.expect("scheduled device has NTP config");
                    p.interval = cfg.poll_interval;
                    p.addr = resolver.address_of_meta(&dev, p.t);
                    p.server = run.pool.select(dev.country, u64::from(p.id.0), p.seq);
                }
                let _ = from_tx.send(FromWorker::PrePlanned(chunk));
            }
            ToWorker::Execute(mine) => {
                reg.vol_observe(metrics::NTP_SHARD_EVENTS, mine.len() as u64);
                let mut out = ShardOut::default();
                for p in mine {
                    let server_id = p.server.expect("routed events have a server");
                    // Plan: the RPS ordinal. The shard owns every event
                    // of its servers and receives them in global event
                    // order, so this matches the sequential loop.
                    let current_rps = rps.ordinal(server_id, p.t.as_secs());
                    let server = run.pool.server(server_id);
                    let outcome = poll_once_with_request(
                        server,
                        run.transport.as_ref(),
                        p.addr,
                        server_addr(server_id),
                        p.t,
                        current_rps,
                        memo.request(p.t),
                    );
                    out.totals.count_reply(outcome.reply);
                    if outcome.server_saw && server.operator.collects() {
                        out.totals.observed += 1;
                        if server.operator.is_study() {
                            // A shard-local first sight is a candidate
                            // for the global one.
                            let first = shard.record(server_id, p.addr, p.t);
                            out.candidates.extend(first.map(|obs| (p.idx, obs)));
                        }
                    }
                    let next = next_poll(p.t, p.interval, outcome.reply);
                    if outcome.reply == PollReply::RateKod {
                        out.kod_backoff
                            .observe(next.since(p.t).as_secs() - p.interval.as_secs());
                    }
                    out.resched.push((p.idx, next, p.id, p.seq + 1));
                }
                reg.vol_add(metrics::NTP_SHARD_CANDIDATES, out.candidates.len() as u64);
                let _ = from_tx.send(FromWorker::Executed(Box::new(out)));
            }
        }
    }
    (shard, rps, reg)
}

impl<'w> CollectionRun<'w> {
    /// The sharded drive loop: persistent workers, two channel round
    /// trips per bucket (pre-plan on contiguous slices, then execute on
    /// shard-routed events), and the event-order merge at each bucket
    /// boundary (module docs).
    pub(crate) fn drive_sharded(
        &self,
        st: &mut EngineState,
        stop: SimTime,
        set: &mut ShardSet<'_>,
        local: &mut Registry,
    ) {
        let count = set.shards.len();
        local.vol_gauge_max(metrics::NTP_COLLECTION_SHARDS, count as u64);
        let horizon = self.bucket_horizon();
        let shards = std::mem::take(&mut set.shards);

        let results: Vec<(AddressCollector, RpsWindows, Registry)> = std::thread::scope(|scope| {
            let mut to_txs: Vec<Sender<ToWorker>> = Vec::with_capacity(count);
            let mut from_rxs: Vec<Receiver<FromWorker>> = Vec::with_capacity(count);
            let mut handles = Vec::with_capacity(count);
            for shard in shards {
                let (to_tx, to_rx) = channel();
                let (from_tx, from_rx) = channel();
                // Each worker advances only its own servers' slots of a
                // full-size window table, so indexing never remaps.
                let rps = RpsWindows::from_parts(st.rps.windows.clone());
                handles.push(scope.spawn(move || shard_worker(self, shard, rps, to_rx, from_tx)));
                to_txs.push(to_tx);
                from_rxs.push(from_rx);
            }

            let mut bucket: Vec<(SimTime, (DeviceId, u64))> = Vec::new();
            let mut routed: Vec<Vec<Planned>> = vec![Vec::new(); count];
            // Per-event outputs scattered by global index before the
            // batch re-schedule / publish — the event-order merge.
            let mut slots: Vec<Option<(SimTime, DeviceId, u64)>> = Vec::new();
            let mut cands: Vec<Option<Observation>> = Vec::new();
            while let Some(t0) = st.queue.peek_time() {
                if t0 >= stop {
                    break; // every remaining event is past the bound
                }
                let bucket_end = SimTime(t0.as_secs().saturating_add(horizon)).min(stop);
                bucket.clear();
                st.queue.pop_bucket(bucket_end, &mut bucket);
                let n = bucket.len();
                local.vol_add(metrics::NTP_COLLECTION_BUCKETS, 1);
                local.vol_observe(metrics::NTP_BUCKET_EVENTS, n as u64);
                st.totals.polls += n as u64;

                // Round trip A — pre-plan on contiguous slices.
                let chunk = n.div_ceil(count).max(1);
                let active = n.div_ceil(chunk);
                for (w, part) in bucket.chunks(chunk).enumerate() {
                    let planned: Vec<Planned> = part
                        .iter()
                        .enumerate()
                        .map(|(i, &(t, (id, seq)))| Planned {
                            idx: w * chunk + i,
                            t,
                            id,
                            seq,
                            interval: Duration::ZERO,
                            addr: Ipv6Addr::UNSPECIFIED,
                            server: None,
                        })
                        .collect();
                    to_txs[w]
                        .send(ToWorker::PrePlan(planned))
                        .expect("worker alive");
                }

                // Route by selected server, preserving event order
                // (chunks return in worker order = bucket order).
                slots.clear();
                slots.resize(n, None);
                cands.clear();
                cands.resize(n, None);
                for rx in from_rxs.iter().take(active) {
                    let FromWorker::PrePlanned(part) = rx.recv().expect("worker alive") else {
                        unreachable!("worker replies in request order");
                    };
                    for p in part {
                        match p.server {
                            Some(s) => routed[s.0 as usize % count].push(p),
                            None => {
                                // No reachable server: lost, reschedule
                                // on the main thread.
                                st.totals.lost += 1;
                                slots[p.idx] = Some((
                                    next_poll(p.t, p.interval, PollReply::None),
                                    p.id,
                                    p.seq + 1,
                                ));
                            }
                        }
                    }
                }

                // Round trip B — plan/execute/apply on every shard
                // (empty sends keep the request/reply cadence uniform).
                for (w, mine) in routed.iter_mut().enumerate() {
                    to_txs[w]
                        .send(ToWorker::Execute(std::mem::take(mine)))
                        .expect("worker alive");
                }
                for rx in &from_rxs {
                    let FromWorker::Executed(out) = rx.recv().expect("worker alive") else {
                        unreachable!("worker replies in request order");
                    };
                    st.totals.responses += out.totals.responses;
                    st.totals.kod += out.totals.kod;
                    st.totals.lost += out.totals.lost;
                    st.totals.observed += out.totals.observed;
                    if !out.kod_backoff.is_empty() {
                        st.kod_backoff.merge(&out.kod_backoff);
                    }
                    for (idx, next, id, seq) in out.resched {
                        slots[idx] = Some((next, id, seq));
                    }
                    for (idx, obs) in out.candidates {
                        cands[idx] = Some(obs);
                    }
                }

                // Bucket-boundary merge, both in global event order:
                // re-schedule (queue tie-breaks match the sequential
                // engine) and candidate publish through the
                // authoritative global archive.
                st.queue
                    .schedule_batch(slots.drain(..).flatten().map(|(t, id, seq)| (t, (id, seq))));
                for obs in cands.drain(..).flatten() {
                    set.publish(obs);
                }
            }

            drop(to_txs);
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        // Merge worker state back in shard order: owned RPS slots into
        // the dense table, shards into the set, volatile registries.
        for (w, (shard, rps, reg)) in results.into_iter().enumerate() {
            debug_assert!(
                shard.servers().all(|s| s.0 as usize % count == w),
                "shard {w} recorded a server it does not own"
            );
            for (sid, slot) in rps.windows.into_iter().enumerate() {
                if sid % count == w {
                    st.rps.windows[sid] = slot;
                }
            }
            set.shards.push(shard);
            local.merge(&reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::Pool;
    use crate::server::{Operator, PoolServer};
    use netsim::country;
    use netsim::world::{World, WorldConfig};

    /// Rejoining the shard set and splitting it again keeps every
    /// shard's dedup state: replaying the whole feed against the rebuilt
    /// set proposes nothing new. (Feed, stats and histogram identity with
    /// the sequential loop is pinned in `run.rs`, over both loops.)
    #[test]
    fn parts_roundtrip_rehomes_state() {
        let world = World::generate(WorldConfig::tiny(5));
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
        let end = SimTime(0) + Duration::days(1);
        let run = CollectionRun::new(&world, &pool, SimTime(0), end);
        let mut feed = Vec::new();
        let mut collector = AddressCollector::with_shards(4);
        run.advance(
            &mut run.begin(),
            end,
            &mut collector,
            &mut feed,
            &mut Registry::new(),
        );
        assert_eq!(collector.shards.len(), 4);
        assert!(!feed.is_empty());
        let servers: Vec<ServerId> = collector.servers().collect();
        assert!(servers.windows(2).all(|w| w[0] < w[1]), "{servers:?}");

        let mut replay = Vec::new();
        let mut set = ShardSet::split(&mut collector, &mut replay);
        for obs in &feed {
            set.publish(*obs);
        }
        // Every shard got back the servers it owns, and only those.
        for (w, shard) in set.shards.iter().enumerate() {
            assert!(shard.servers().all(|s| s.0 as usize % 4 == w));
            assert_eq!(shard.per_server.len(), shard.requests.len());
        }
        set.rejoin();
        assert!(replay.is_empty(), "restored dedup re-fed");
        assert_eq!(collector.servers().collect::<Vec<_>>(), servers);
        assert_eq!(collector.global.len(), feed.len());
        let local: usize = collector.shards.iter().map(|a| a.len()).sum();
        assert!(local >= feed.len(), "shard-local archives lost addresses");
    }
}
