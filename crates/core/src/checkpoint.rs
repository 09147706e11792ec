//! Study checkpoint persistence: everything a long-horizon collection
//! run needs to stop mid-window and later resume to a **bit-identical**
//! [`crate::Study::run_report`].
//!
//! One sealed file (`study.ckpt`, [`CHECKPOINT_FILE`]) holds:
//!
//! * the full [`StudyConfig`] — a resumed run re-derives the world, the
//!   pool, tuning, and every post-collection stage from it;
//! * the collection engine's [`CollectionCheckpoint`] — cursor, pending
//!   events in pop order, per-server RPS windows, outcome counters, and
//!   the KoD-backoff histogram;
//! * the [`AddressCollector`] itself — the global [`store::Archive`]
//!   and per-server dedup sets, serialized as compact segments;
//! * the first-sight feed so far, which the rest of the window is
//!   appended to and the scanner replays whole;
//! * the instrumented transport's [`TransportTotals`], exported next to
//!   the post-resume remainder so `transport_*` metrics add up exactly.
//!
//! [`write()`] replaces the file atomically (scratch file, then rename),
//! so an interrupted write never costs the previous checkpoint.
//!
//! There is one format version (8); a file with any other number fails
//! with the typed [`StoreError::BadVersion`] (nothing outside this
//! repository ever wrote an older one). Nothing in the file describes
//! how the run was executed, so any build that reads the version can
//! resume it. Per-server tables whose
//! server ids are not strictly ascending are [`StoreError::Corrupt`]:
//! the collector binary-searches them. What a file cannot be checked
//! against by itself — the pool and world its engine state indexes
//! into, the window its cursor must lie in — is checked when a session
//! is restored from it ([`crate::StudySession::from_checkpoint`]).
//!
//! The format reuses the [`store::codec`] writer/reader and the
//! [`store::segment`] set encoding, so every corruption mode — flipped
//! byte, truncation, wrong magic — surfaces as a typed
//! [`StoreError`], never a panic.

use crate::config::StudyConfig;
use actors::ActorRoster;
use netsim::transport::FaultProfile;
use netsim::world::WorldConfig;
use netsim::{DeviceId, Duration, SimTime, TransportTotals};
use ntppool::{AddressCollector, CollectionCheckpoint, Observation, ServerId};
use std::fs::File;
use std::io::Write;
use std::net::Ipv6Addr;
use std::path::{Path, PathBuf};
use store::codec::{Reader, Writer};
use store::{segment, Archive, CompactSet, StoreError};
use telemetry::Histogram;
use v6addr::AddrSet;

/// File name of the checkpoint inside its directory.
pub const CHECKPOINT_FILE: &str = "study.ckpt";

/// Name a checkpoint is written under before it replaces
/// [`CHECKPOINT_FILE`]. Nothing ever reads it.
const CHECKPOINT_TMP: &str = "study.ckpt.tmp";

const MAGIC: &[u8; 8] = b"TTSCKPT\0";
/// The one format version this build reads and writes.
const VERSION: u16 = 8;

/// Longest collection window a checkpoint may name (a century; the
/// paper's is four weeks). [`crate::study::study_start`] places the
/// window some 27 window lengths after the epoch, so the bound keeps
/// every instant derived from a decoded config clear of `u64` overflow.
const MAX_COLLECTION: Duration = Duration::days(36_500);

/// Everything [`crate::Study::checkpoint`] persists and
/// [`crate::Study::resume`] restores — and, resident, the whole state a
/// [`crate::StudySession`] moves forward.
#[derive(Clone)]
pub struct CheckpointData {
    /// The study configuration the prefix ran under.
    pub config: StudyConfig,
    /// The collection engine's frozen state.
    pub collection: CollectionCheckpoint,
    /// The collector: global archive and per-server sets.
    pub collector: AddressCollector,
    /// First-sight observations emitted before the stop, in feed order.
    pub feed_prefix: Vec<Observation>,
    /// Transport counters/histograms accumulated before the stop.
    pub transport: TransportTotals,
}

/// Writes `data` to `dir/study.ckpt`, creating `dir` if needed.
/// Returns the file path.
///
/// The bytes are made durable under a scratch name in `dir` and then
/// renamed over `study.ckpt`, so a crash at any step leaves that name
/// holding either the previous checkpoint or this one, whole.
pub fn write(data: &CheckpointData, dir: &Path) -> Result<PathBuf, StoreError> {
    let mut w = Writer::new();
    w.put_raw(MAGIC);
    w.put_u16(VERSION);
    put_config(&mut w, &data.config);
    put_collection(&mut w, &data.collection);
    put_collector(&mut w, &data.collector);
    w.put_u64(data.feed_prefix.len() as u64);
    for obs in &data.feed_prefix {
        w.put_u128(u128::from(obs.addr));
        w.put_u64(obs.seen.0);
        w.put_u32(obs.server.0);
    }
    put_transport(&mut w, &data.transport);
    w.seal();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(CHECKPOINT_FILE);
    let tmp = dir.join(CHECKPOINT_TMP);
    let mut file = File::create(&tmp)?;
    file.write_all(&w.into_bytes())?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &path)?;
    // The rename is durable once the directory entry is.
    File::open(dir)?.sync_all()?;
    Ok(path)
}

/// Reads a checkpoint back from `dir/study.ckpt`.
pub fn read(dir: &Path) -> Result<CheckpointData, StoreError> {
    let bytes = std::fs::read(dir.join(CHECKPOINT_FILE))?;
    let payload = Reader::verify_seal(&bytes, "checkpoint")?;
    let mut r = Reader::new(payload);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let config = read_config(&mut r)?;
    let collection = read_collection(&mut r)?;
    let collector = read_collector(&mut r)?;
    let n = r.u64()?;
    let mut feed_prefix = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        feed_prefix.push(Observation {
            addr: Ipv6Addr::from(r.u128()?),
            seen: SimTime(r.u64()?),
            server: ServerId(r.u32()?),
        });
    }
    let transport = read_transport(&mut r)?;
    if !r.is_done() {
        return Err(StoreError::Corrupt("trailing bytes after checkpoint"));
    }
    Ok(CheckpointData {
        config,
        collection,
        collector,
        feed_prefix,
        transport,
    })
}

fn put_config(w: &mut Writer, cfg: &StudyConfig) {
    let wc = &cfg.world;
    w.put_u64(wc.seed);
    w.put_u32(wc.households);
    w.put_u32(wc.servers);
    w.put_u32(wc.routers);
    w.put_u32(wc.eyeball_ases);
    w.put_u32(wc.hosting_ases);
    w.put_u32(wc.nsp_ases);
    w.put_u64(wc.rotation.as_secs());
    w.put_u64(wc.privacy_regen.as_secs());
    w.put_u8(u8::from(wc.cdn));
    w.put_u8(wc.sntp_iot_pct);
    w.put_u64(cfg.collection.as_secs());
    w.put_u64(cfg.hitlist_scan_offset.as_secs());
    w.put_u64(cfg.telescope_offset.as_secs());
    w.put_u64(cfg.target_rps.to_bits());
    w.put_u32(cfg.rl_samples);
    w.put_u8(u8::from(cfg.telescope));
    w.put_u8(match cfg.fault {
        FaultProfile::Ideal => 0,
        FaultProfile::Lossy1Pct => 1,
        FaultProfile::Congested => 2,
    });
    w.put_u8(cfg.actors.bits());
}

fn read_config(r: &mut Reader<'_>) -> Result<StudyConfig, StoreError> {
    let world = WorldConfig {
        seed: r.u64()?,
        households: r.u32()?,
        servers: r.u32()?,
        routers: r.u32()?,
        eyeball_ases: r.u32()?,
        hosting_ases: r.u32()?,
        nsp_ases: r.u32()?,
        rotation: Duration::secs(r.u64()?),
        privacy_regen: Duration::secs(r.u64()?),
        cdn: r.u8()? != 0,
        sntp_iot_pct: r.u8()?,
    };
    // `Study::resume` generates whatever world the file names.
    world.validate().map_err(StoreError::Corrupt)?;
    let collection = Duration::secs(r.u64()?);
    let hitlist_scan_offset = Duration::secs(r.u64()?);
    let telescope_offset = Duration::secs(r.u64()?);
    if collection > MAX_COLLECTION {
        return Err(StoreError::Corrupt("collection window out of range"));
    }
    if hitlist_scan_offset > collection || telescope_offset > collection {
        return Err(StoreError::Corrupt(
            "stage offset past the collection window",
        ));
    }
    Ok(StudyConfig {
        world,
        collection,
        hitlist_scan_offset,
        telescope_offset,
        target_rps: f64::from_bits(r.u64()?),
        rl_samples: r.u32()?,
        telescope: r.u8()? != 0,
        fault: match r.u8()? {
            0 => FaultProfile::Ideal,
            1 => FaultProfile::Lossy1Pct,
            2 => FaultProfile::Congested,
            _ => return Err(StoreError::Corrupt("unknown fault profile")),
        },
        actors: ActorRoster::from_bits(r.u8()?)
            .ok_or(StoreError::Corrupt("unknown actor roster bits"))?,
    })
}

fn put_collection(w: &mut Writer, c: &CollectionCheckpoint) {
    w.put_u64(c.cursor.0);
    w.put_u64(c.pending.len() as u64);
    for (t, dev, seq) in &c.pending {
        w.put_u64(t.0);
        w.put_u32(dev.0);
        w.put_u64(*seq);
    }
    w.put_u64(c.rps.len() as u64);
    for slot in &c.rps {
        match slot {
            Some((sec, count)) => {
                w.put_u8(1);
                w.put_u64(*sec);
                w.put_u64(*count);
            }
            None => w.put_u8(0),
        }
    }
    for v in c.totals {
        w.put_u64(v);
    }
    put_hist(w, &c.kod_backoff);
}

fn read_collection(r: &mut Reader<'_>) -> Result<CollectionCheckpoint, StoreError> {
    let cursor = SimTime(r.u64()?);
    let n = r.u64()?;
    let mut pending = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        pending.push((SimTime(r.u64()?), DeviceId(r.u32()?), r.u64()?));
    }
    let n = r.u64()?;
    let mut rps = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        rps.push(match r.u8()? {
            0 => None,
            1 => Some((r.u64()?, r.u64()?)),
            _ => return Err(StoreError::Corrupt("unknown rps slot tag")),
        });
    }
    let mut totals = [0u64; 5];
    for v in &mut totals {
        *v = r.u64()?;
    }
    Ok(CollectionCheckpoint {
        cursor,
        pending,
        rps,
        totals,
        kod_backoff: read_hist(r)?,
    })
}

fn put_collector(w: &mut Writer, collector: &AddressCollector) {
    w.put_bytes(&segment::encode(&collector.global.to_compact()));
    w.put_u64(collector.per_server.len() as u64);
    for (server, set) in &collector.per_server {
        w.put_u32(server.0);
        let compact: CompactSet = set.iter().collect();
        w.put_bytes(&segment::encode(&compact));
    }
    w.put_u64(collector.requests.len() as u64);
    for (server, n) in &collector.requests {
        w.put_u32(server.0);
        w.put_u64(*n);
    }
}

/// Refuses a per-server table the collector's binary search would
/// mis-read: ids out of order, or one id twice.
fn strictly_ascending<T>(table: &[(ServerId, T)]) -> Result<(), StoreError> {
    if table.windows(2).all(|w| w[0].0 < w[1].0) {
        Ok(())
    } else {
        Err(StoreError::Corrupt(
            "per-server table not strictly ascending by server id",
        ))
    }
}

fn read_collector(r: &mut Reader<'_>) -> Result<AddressCollector, StoreError> {
    let global = segment::decode(r.bytes()?)?;
    let global = Archive::from_segments(vec![global], store::archive::DEFAULT_MEMTABLE_CAP);
    let n = r.u64()?;
    let mut per_server = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        let server = ServerId(r.u32()?);
        let set: AddrSet = segment::decode(r.bytes()?)?.iter().collect();
        per_server.push((server, set));
    }
    let n = r.u64()?;
    let mut requests = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        requests.push((ServerId(r.u32()?), r.u64()?));
    }
    strictly_ascending(&per_server)?;
    strictly_ascending(&requests)?;
    Ok(AddressCollector {
        global,
        per_server,
        requests,
    })
}

fn put_transport(w: &mut Writer, t: &TransportTotals) {
    for v in [
        t.exchanges,
        t.answered,
        t.unanswered,
        t.lost,
        t.truncated,
        t.delivered,
    ] {
        w.put_u64(v);
    }
    put_hist(w, &t.rtt_seconds);
}

fn read_transport(r: &mut Reader<'_>) -> Result<TransportTotals, StoreError> {
    Ok(TransportTotals {
        exchanges: r.u64()?,
        answered: r.u64()?,
        unanswered: r.u64()?,
        lost: r.u64()?,
        truncated: r.u64()?,
        delivered: r.u64()?,
        rtt_seconds: read_hist(r)?,
    })
}

fn put_hist(w: &mut Writer, h: &Histogram) {
    w.put_u64(h.count());
    w.put_u128(h.sum());
    w.put_u64(h.min());
    w.put_u64(h.max());
    let buckets: Vec<(usize, u64)> = h.nonzero_buckets().collect();
    w.put_u64(buckets.len() as u64);
    for (i, c) in buckets {
        w.put_u64(i as u64);
        w.put_u64(c);
    }
}

fn read_hist(r: &mut Reader<'_>) -> Result<Histogram, StoreError> {
    let count = r.u64()?;
    let sum = r.u128()?;
    let min = r.u64()?;
    let max = r.u64()?;
    let n = r.u64()?;
    let mut buckets = Vec::with_capacity(n.min(1 << 10) as usize);
    for _ in 0..n {
        let i = usize::try_from(r.u64()?)
            .map_err(|_| StoreError::Corrupt("bucket index exceeds usize"))?;
        buckets.push((i, r.u64()?));
    }
    Ok(Histogram::from_parts(buckets, count, sum, min, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        let mut collector = AddressCollector::sized_for(None, 64);
        for i in 0..600u32 {
            let addr = Ipv6Addr::from(0x2001_0db8_u128 << 96 | u128::from(i));
            collector.record(ServerId(i % 4), addr, SimTime(u64::from(i)));
        }
        let mut kod = Histogram::new();
        kod.observe(4);
        kod.observe(900);
        let mut rtt = Histogram::new();
        rtt.observe(0);
        rtt.observe(3);
        CheckpointData {
            config: StudyConfig::tiny(77).with_fault(FaultProfile::Lossy1Pct),
            collection: CollectionCheckpoint {
                cursor: SimTime(12_345),
                pending: vec![
                    (SimTime(12_400), DeviceId(9), 3),
                    (SimTime(12_401), DeviceId(2), 7),
                ],
                rps: vec![None, Some((12, 40)), Some((13, 2))],
                totals: [100, 90, 3, 7, 88],
                kod_backoff: kod,
            },
            collector,
            feed_prefix: vec![Observation {
                addr: "2001:db8::5".parse().unwrap(),
                seen: SimTime(60),
                server: ServerId(1),
            }],
            transport: TransportTotals {
                exchanges: 100,
                answered: 90,
                unanswered: 2,
                lost: 8,
                truncated: 1,
                delivered: 95,
                rtt_seconds: rtt,
            },
        }
    }

    /// Seals a tampered payload again, so that only the check under
    /// test can object to it.
    fn resealed(payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(payload);
        w.seal();
        w.into_bytes()
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let dir = std::env::temp_dir().join(format!("ckpt-rt-{}", std::process::id()));
        let data = sample();
        write(&data, &dir).unwrap();
        let back = read(&dir).unwrap();
        assert_eq!(back.config, data.config);
        assert_eq!(back.collection.cursor, data.collection.cursor);
        assert_eq!(back.collection.pending, data.collection.pending);
        assert_eq!(back.collection.rps, data.collection.rps);
        assert_eq!(back.collection.totals, data.collection.totals);
        assert_eq!(back.collection.kod_backoff, data.collection.kod_backoff);
        assert_eq!(back.collector.global.len(), data.collector.global.len());
        assert_eq!(
            back.collector.global.to_compact(),
            data.collector.global.to_compact()
        );
        assert_eq!(back.collector.per_server.len(), 4);
        for ((sa, seta), (sb, setb)) in data
            .collector
            .per_server
            .iter()
            .zip(back.collector.per_server.iter())
        {
            assert_eq!(sa, sb);
            assert_eq!(seta.len(), setb.len());
            assert!(seta.iter().all(|x| setb.contains(x)));
        }
        assert_eq!(back.collector.requests, data.collector.requests);
        assert_eq!(back.feed_prefix, data.feed_prefix);
        assert_eq!(back.transport, data.transport);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One format: the header of every version this repository ever
    /// wrote before (1–7), of none (0) and of the next (9) is refused
    /// with the typed error, on an otherwise valid, sealed file.
    #[test]
    fn any_other_version_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("ckpt-ver-{}", std::process::id()));
        let path = write(&sample(), &dir).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let payload = &clean[..clean.len() - 8];
        assert_eq!(payload[MAGIC.len()..][..2], VERSION.to_le_bytes());
        for version in [0u16, 1, 2, 3, 4, 5, 6, 7, 9] {
            let mut bad = payload.to_vec();
            bad[MAGIC.len()..][..2].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, resealed(&bad)).unwrap();
            assert!(
                matches!(read(&dir), Err(StoreError::BadVersion(v)) if v == version),
                "version {version} not refused"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_knobs_survive_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ckpt-knobs-{}", std::process::id()));
        let mut data = sample();
        data.config.world.sntp_iot_pct = 40;
        data.config.actors = ActorRoster::ALL;
        write(&data, &dir).unwrap();
        let back = read(&dir).unwrap();
        assert_eq!(back.config.world.sntp_iot_pct, 40);
        assert_eq!(back.config.actors, ActorRoster::ALL);
        assert_eq!(back.config, data.config);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A window no run could finish, or a stage scheduled after it, is
    /// refused at decode: the study's instants are sums and multiples
    /// of these fields.
    #[test]
    fn out_of_range_window_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("ckpt-window-{}", std::process::id()));
        let mut data = sample();
        data.config.telescope_offset = data.config.collection + Duration::secs(1);
        write(&data, &dir).unwrap();
        assert!(matches!(read(&dir), Err(StoreError::Corrupt(_))));
        data.config.collection = MAX_COLLECTION + Duration::secs(1);
        write(&data, &dir).unwrap();
        assert!(matches!(read(&dir), Err(StoreError::Corrupt(_))));
        data.config.collection = MAX_COLLECTION;
        write(&data, &dir).unwrap();
        assert_eq!(read(&dir).unwrap().config, data.config);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_a_typed_error_never_a_panic() {
        let dir = std::env::temp_dir().join(format!("ckpt-corrupt-{}", std::process::id()));
        write(&sample(), &dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let clean = std::fs::read(&path).unwrap();

        // Any single flipped byte fails the seal.
        for i in (0..clean.len()).step_by(97) {
            let mut bad = clean.clone();
            bad[i] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(read(&dir), Err(StoreError::Checksum(_))),
                "flip at {i} undetected"
            );
        }

        // Truncation at any prefix is typed.
        for cut in [0, 5, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(read(&dir).is_err(), "truncation to {cut} undetected");
        }

        // Wrong magic (re-sealed so only the magic check can object).
        let mut bad = clean[..clean.len() - 8].to_vec();
        bad[0] = b'X';
        std::fs::write(&path, resealed(&bad)).unwrap();
        assert!(matches!(read(&dir), Err(StoreError::BadMagic)));

        // Missing file is an Io error.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read(&dir), Err(StoreError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
