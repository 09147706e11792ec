//! The streaming scan stage: a scanner thread fed through a channel.
//!
//! The paper's defining mechanism is that NTP-collected addresses are
//! probed **minutes after first sight** (§4.1) — under dynamic prefixes a
//! day-old address already points at nobody. This module runs the
//! real-time scanner on its own thread, consuming a bounded channel of
//! [`Observation`]s while the collection run produces them, instead of
//! buffering the whole feed and scanning after the fact.
//!
//! Determinism contract: observations are processed strictly in channel
//! (= emission) order by a single consumer, so the resulting
//! [`ScanStore`] is **bit-identical** to a buffered
//! [`RealTimeScanner::run`](crate::RealTimeScanner::run) over the same
//! feed — thread scheduling only changes *when* work happens, never its
//! order. The equivalence is enforced by tests here and at the study
//! level.
//!
//! The producer side upholds the same contract for any
//! `StudyConfig::collection_shards`: the inline loop emits first sights
//! as it processes events, and the sharded loop publishes candidates
//! through its global archive in event-index order at bucket boundaries
//! — either way, first sights enter this channel in the same event
//! order. A streaming scanner therefore never needs to know — or care —
//! how many shards fed it (`tests/shard_equivalence.rs` crosses both
//! pipeline modes with shard counts to pin this).

use crate::engine::ScanPolicy;
use crate::scheduler::RealTimeScanner;
use crate::store::ScanStore;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use netsim::transport::Transport;
use netsim::world::World;
use ntppool::Observation;
use std::sync::Arc;
use std::thread;
use std::time::Instant;
use telemetry::PipelineMonitor;

/// Default bound for the producer→scanner channel: deep enough that the
/// collector rarely blocks, small enough to keep memory flat when the
/// scanner falls behind.
pub const FEED_CHANNEL_BOUND: usize = 1024;

/// A bounded observation channel pair for wiring a producer (e.g. an
/// `AddressCollector` first-sight sink) to a [`StreamingScanner`].
pub fn feed_channel(capacity: usize) -> (Sender<Observation>, Receiver<Observation>) {
    bounded(capacity)
}

/// A feed sender that reports channel depth and producer stalls to a
/// shared [`PipelineMonitor`]. Delivery semantics are identical to the
/// plain [`Sender`] — a full channel still blocks until space frees up
/// — the monitor only *observes* (as volatile metrics; blocking time is
/// wall-clock and scheduling-dependent).
#[derive(Debug, Clone)]
pub struct MonitoredSender {
    tx: Sender<Observation>,
    monitor: Arc<PipelineMonitor>,
}

impl MonitoredSender {
    /// Wraps `tx`, reporting into `monitor`.
    pub fn new(tx: Sender<Observation>, monitor: Arc<PipelineMonitor>) -> MonitoredSender {
        MonitoredSender { tx, monitor }
    }

    /// Sends an observation, blocking while the channel is full; notes
    /// the observation, the post-send depth, and any stall.
    pub fn send(&self, obs: Observation) -> Result<(), crossbeam::channel::SendError<Observation>> {
        match self.tx.try_send(obs) {
            Ok(()) => {}
            Err(TrySendError::Full(obs)) => {
                let stall = Instant::now();
                self.tx.send(obs)?;
                self.monitor
                    .note_producer_stall(stall.elapsed().as_nanos() as u64);
            }
            Err(TrySendError::Disconnected(obs)) => {
                return Err(crossbeam::channel::SendError(obs));
            }
        }
        self.monitor.note_fed();
        self.monitor.note_depth(self.tx.len() as u64);
        Ok(())
    }
}

impl ntppool::collector::FeedSink for MonitoredSender {
    fn on_first_sight(&mut self, obs: Observation) {
        // As with `ChannelSink`: a disconnected consumer just means
        // collection outlives scanning.
        let _ = self.send(obs);
    }
}

/// A real-time scanner running on its own scoped thread, consuming a
/// channel of first-sight observations as they are produced.
///
/// Spawn inside [`std::thread::scope`], drop every `Sender` once
/// production ends (disconnecting the channel), then [`join`] to collect
/// the scan results and the replayed feed.
///
/// [`join`]: StreamingScanner::join
pub struct StreamingScanner<'scope> {
    handle: thread::ScopedJoinHandle<'scope, (ScanStore, Vec<Observation>)>,
}

impl<'scope> StreamingScanner<'scope> {
    /// Starts the scanner thread inside `scope`, probing through
    /// `transport`. The thread drains `rx` in order until every sender
    /// is dropped, reporting the time it spends waiting on an empty
    /// channel to `monitor` — volatile stall metrics only; consumption
    /// order, and therefore the resulting [`ScanStore`], does not depend
    /// on them.
    pub fn spawn<'env>(
        scope: &'scope thread::Scope<'scope, 'env>,
        policy: ScanPolicy,
        world: &'env World,
        rx: Receiver<Observation>,
        transport: Box<dyn Transport>,
        monitor: Arc<PipelineMonitor>,
    ) -> StreamingScanner<'scope> {
        let handle = scope.spawn(move || {
            let mut scanner = RealTimeScanner::with_transport(policy, transport);
            let mut feed = Vec::new();
            loop {
                let obs = match rx.try_recv() {
                    Ok(obs) => obs,
                    Err(TryRecvError::Empty) => {
                        // The producer is behind: block, timing the stall.
                        let stall = Instant::now();
                        match rx.recv() {
                            Ok(obs) => {
                                monitor.note_consumer_stall(stall.elapsed().as_nanos() as u64);
                                obs
                            }
                            Err(_) => break,
                        }
                    }
                    Err(TryRecvError::Disconnected) => break,
                };
                scanner.feed(world, obs);
                feed.push(obs);
            }
            (scanner.finish(), feed)
        });
        StreamingScanner { handle }
    }

    /// Waits for the channel to drain and returns the scan results plus
    /// the feed in consumption order.
    pub fn join(self) -> (ScanStore, Vec<Observation>) {
        self.handle.join().expect("streaming scanner panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;
    use netsim::transport::Ideal;
    use netsim::world::{World, WorldConfig};
    use ntppool::ServerId;

    fn feed_for(w: &World) -> Vec<Observation> {
        let t = SimTime(1_000);
        w.devices()
            .iter()
            .map(|d| Observation {
                addr: w.address_of(d.id, t),
                seen: t,
                server: ServerId(0),
            })
            .collect()
    }

    /// The streamed store equals the buffered one over the same feed,
    /// and everything the monitor exports is volatile: the
    /// deterministic report is untouched by the stall accounting.
    #[test]
    fn streaming_matches_buffered_run_and_reports_volatile_only() {
        let w = World::generate(WorldConfig::tiny(21));
        let feed = feed_for(&w);
        let buffered = RealTimeScanner::new(ScanPolicy::default()).run(&w, &feed);
        let monitor = Arc::new(PipelineMonitor::new());
        let (streamed, replay) = std::thread::scope(|scope| {
            let (tx, rx) = feed_channel(4);
            let scanner = StreamingScanner::spawn(
                scope,
                ScanPolicy::default(),
                &w,
                rx,
                Box::new(Ideal),
                Arc::clone(&monitor),
            );
            let tx = MonitoredSender::new(tx, Arc::clone(&monitor));
            for obs in &feed {
                tx.send(*obs).expect("scanner alive");
            }
            drop(tx);
            scanner.join()
        });
        assert_eq!(replay, feed);
        assert_eq!(streamed.records(), buffered.records());
        assert_eq!(streamed.targets(), buffered.targets());
        for p in crate::result::Protocol::ALL {
            assert_eq!(streamed.attempts(p), buffered.attempts(p));
        }
        assert_eq!(monitor.fed(), feed.len() as u64);
        let mut reg = telemetry::Registry::new();
        monitor.export_into(&mut reg);
        assert!(reg.snapshot().deterministic().is_empty());
    }

    #[test]
    fn empty_channel_yields_empty_store() {
        let w = World::generate(WorldConfig::tiny(21));
        let (store, feed) = std::thread::scope(|scope| {
            let (tx, rx) = feed_channel(1);
            let scanner = StreamingScanner::spawn(
                scope,
                ScanPolicy::default(),
                &w,
                rx,
                Box::new(Ideal),
                Arc::new(PipelineMonitor::new()),
            );
            drop(tx);
            scanner.join()
        });
        assert!(feed.is_empty());
        assert_eq!(store.targets(), 0);
        assert!(store.records().is_empty());
    }
}
