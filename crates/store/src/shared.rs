//! A shared pool of sealed, read-only segments.
//!
//! Completed collections freeze their [`CompactSet`]s here; studies that
//! reference the same content — the same study submitted twice, or a
//! hitlist baseline shared by every study against one world — open it
//! **once** and share the decoded set behind an `Arc`. Segments are
//! content-addressed: a [`SegmentId`] is
//! the FNV-1a-64 of the canonical [`segment`] encoding, so identical
//! sets frozen by different studies land on one file and one resident
//! copy, and an id can be revalidated against its bytes on every open.
//!
//! The pool is a cache, not a store of record: dropping it (or calling
//! [`SegmentPool::evict`]) loses only resident copies, never files, and
//! a later [`SegmentPool::open`] re-reads and re-validates from disk.
//!
//! A resident copy is an ordinary heap-owned [`CompactSet`]: a freeze
//! caches the set it was handed, an open reads the file whole and
//! validates it once (seal, content id, every block), and
//! [`PoolStats::resident_bytes`] counts data and fence index alike.

use crate::compact::CompactSet;
use crate::error::StoreError;
use crate::{codec, segment};
use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Content hash of a sealed segment: FNV-1a-64 over its canonical
/// encoded bytes. Equal sets always produce equal ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u64);

impl SegmentId {
    /// The pool file name for this id.
    fn file_name(&self) -> String {
        format!("{:016x}.seg", self.0)
    }

    /// The name this id's bytes are written under before they become
    /// [`SegmentId::file_name`]. Nothing ever reads it.
    fn scratch_name(&self) -> String {
        format!("{:016x}.seg.tmp", self.0)
    }
}

/// Usage counters for one [`SegmentPool`], snapshot via
/// [`SegmentPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `open` calls served from the resident cache.
    pub cache_hits: u64,
    /// `open` calls that read and validated a file.
    pub file_opens: u64,
    /// `freeze` calls deduplicated onto an already-frozen segment.
    pub freeze_dedups: u64,
    /// Segments currently resident.
    pub resident_segments: usize,
    /// Heap bytes of the resident segments — block data and fence
    /// index — shared, counted once each.
    pub resident_bytes: usize,
    /// Always 0: every resident segment is heap-owned. Kept because the
    /// frozen benchmark reads the field.
    pub mapped_bytes: usize,
}

/// A directory of content-addressed sealed segments plus a resident
/// cache of decoded [`CompactSet`]s shared behind `Arc`s.
pub struct SegmentPool {
    dir: PathBuf,
    cache: Mutex<HashMap<SegmentId, Arc<CompactSet>>>,
    /// Held while a segment file is written: scratch names are per
    /// content, so two freezes of equal content must not interleave.
    writing: Mutex<()>,
    cache_hits: AtomicU64,
    file_opens: AtomicU64,
    freeze_dedups: AtomicU64,
}

impl SegmentPool {
    /// Opens (creating if needed) a pool rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<SegmentPool, StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SegmentPool {
            dir,
            cache: Mutex::new(HashMap::new()),
            writing: Mutex::new(()),
            cache_hits: AtomicU64::new(0),
            file_opens: AtomicU64::new(0),
            freeze_dedups: AtomicU64::new(0),
        })
    }

    /// The pool's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Freezes `set` into the pool: encodes it, derives its content id,
    /// writes the file if this content was never frozen before, and
    /// caches a copy of `set` as the resident one. Freezing equal sets —
    /// from any number of studies — converges on one file and one `Arc`.
    ///
    /// The bytes are made durable under a scratch name in the pool
    /// directory and then renamed to the content-addressed one, so a
    /// freeze cut short at any step leaves that name absent or holding
    /// the whole segment — never a torn file that every later freeze of
    /// equal content would take for already written. (The directory is
    /// not synced: the pool is a cache, and a rename lost to a crash is
    /// a segment frozen again.)
    pub fn freeze(&self, set: &CompactSet) -> Result<SegmentId, StoreError> {
        let bytes = segment::encode(set);
        let id = SegmentId(codec::fnv1a(&bytes));
        let path = self.dir.join(id.file_name());
        {
            let _writing = self.writing.lock().expect("segment pool writer poisoned");
            if path.exists() {
                self.freeze_dedups.fetch_add(1, Ordering::Relaxed);
            } else {
                let scratch = self.dir.join(id.scratch_name());
                let mut file = File::create(&scratch)?;
                file.write_all(&bytes)?;
                file.sync_all()?;
                drop(file);
                std::fs::rename(&scratch, &path)?;
            }
        }
        self.cache
            .lock()
            .expect("segment pool cache poisoned")
            .entry(id)
            .or_insert_with(|| Arc::new(set.clone()));
        Ok(id)
    }

    /// The shared resident copy of segment `id`: from cache if resident,
    /// otherwise read from the pool directory, fully validated and
    /// checked to hash to `id`.
    pub fn open(&self, id: SegmentId) -> Result<Arc<CompactSet>, StoreError> {
        Ok(self.open_with_hit(id)?.0)
    }

    /// [`SegmentPool::open`], plus whether the resident cache served it
    /// — this call's own hit, which a before/after comparison of
    /// [`SegmentPool::stats`] cannot tell from another thread's.
    pub fn open_with_hit(&self, id: SegmentId) -> Result<(Arc<CompactSet>, bool), StoreError> {
        if let Some(set) = self
            .cache
            .lock()
            .expect("segment pool cache poisoned")
            .get(&id)
        {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(set), true));
        }
        let (set, content_hash) = segment::read_file(&self.dir.join(id.file_name()))?;
        if content_hash != id.0 {
            return Err(StoreError::Checksum("segment id"));
        }
        self.file_opens.fetch_add(1, Ordering::Relaxed);
        let set = Arc::clone(
            self.cache
                .lock()
                .expect("segment pool cache poisoned")
                .entry(id)
                .or_insert(Arc::new(set)),
        );
        Ok((set, false))
    }

    /// Drops the resident copy of `id` (the file stays). Returns `true`
    /// when a copy was resident. Outstanding `Arc`s keep their data.
    pub fn evict(&self, id: SegmentId) -> bool {
        self.cache
            .lock()
            .expect("segment pool cache poisoned")
            .remove(&id)
            .is_some()
    }

    /// Current usage counters and resident footprint.
    pub fn stats(&self) -> PoolStats {
        let cache = self.cache.lock().expect("segment pool cache poisoned");
        PoolStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            file_opens: self.file_opens.load(Ordering::Relaxed),
            freeze_dedups: self.freeze_dedups.load(Ordering::Relaxed),
            resident_segments: cache.len(),
            resident_bytes: cache.values().map(|s| s.heap_bytes()).sum(),
            mapped_bytes: 0,
        }
    }
}

impl std::fmt::Debug for SegmentPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SegmentPool")
            .field("dir", &self.dir)
            .field("resident_segments", &stats.resident_segments)
            .field("resident_bytes", &stats.resident_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(name: &str) -> SegmentPool {
        let dir = std::env::temp_dir().join(format!("store-shared-test-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        SegmentPool::new(dir).unwrap()
    }

    fn sample(n: u128, stride: u128) -> CompactSet {
        CompactSet::from_sorted((0..n).map(|i| i * stride))
    }

    #[test]
    fn freeze_is_content_addressed() {
        let p = pool("content");
        let a = sample(1000, 97);
        let id1 = p.freeze(&a).unwrap();
        // Equal content — even a separately constructed set — dedups.
        let id2 = p.freeze(&sample(1000, 97)).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(p.stats().freeze_dedups, 1);
        // Different content gets a different id and file.
        let id3 = p.freeze(&sample(1000, 101)).unwrap();
        assert_ne!(id1, id3);
        assert_eq!(p.stats().resident_segments, 2);
    }

    #[test]
    fn open_shares_one_resident_copy() {
        let p = pool("share");
        let id = p.freeze(&sample(500, 7)).unwrap();
        let a = p.open(id).unwrap();
        let b = p.open(id).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(p.stats().cache_hits, 2);
        assert_eq!(p.stats().file_opens, 0);
    }

    #[test]
    fn evicted_segment_reopens_from_disk() {
        let p = pool("evict");
        let set = sample(500, 13);
        let id = p.freeze(&set).unwrap();
        assert!(p.evict(id));
        assert!(!p.evict(id));
        let back = p.open(id).unwrap();
        assert_eq!(*back, set);
        assert_eq!(p.stats().file_opens, 1);
        // A second pool over the same directory sees the file too.
        let p2 = SegmentPool::new(p.dir()).unwrap();
        assert_eq!(*p2.open(id).unwrap(), set);
    }

    #[test]
    fn resident_bytes_count_data_and_fences() {
        let p = pool("resident");
        let set = sample(4000, 31);
        let id = p.freeze(&set).unwrap();
        // The frozen copy and the one read back cost what the set does.
        let check = || {
            assert_eq!(*p.open(id).unwrap(), set);
            let stats = p.stats();
            assert_eq!(stats.resident_bytes, set.heap_bytes());
            assert_eq!(stats.mapped_bytes, 0);
        };
        check();
        assert!(p.evict(id));
        check();
    }

    /// A freeze that died before its rename leaves a scratch file behind
    /// — whole, cut short, or garbage — and nothing under the segment's
    /// own name: the id is unknown, not corrupt. The next freeze of that
    /// content is a first freeze like any other, and clears the scratch
    /// file away.
    #[test]
    fn interrupted_freeze_never_poisons_its_content_id() {
        let set = sample(800, 53);
        let bytes = segment::encode(&set);
        let id = SegmentId(codec::fnv1a(&bytes));
        for (i, leftover) in [&bytes[..], &bytes[..bytes.len() / 2], b"not a segment"]
            .into_iter()
            .enumerate()
        {
            let p = pool(&format!("torn-{i}"));
            // Spelled out: the name is a contract with what an earlier
            // build may have left in the directory.
            let scratch = p.dir().join(format!("{:016x}.seg.tmp", id.0));
            std::fs::write(&scratch, leftover).unwrap();
            assert!(!p.dir().join(id.file_name()).exists());
            assert!(matches!(p.open(id), Err(StoreError::Io(_))));

            assert_eq!(p.freeze(&set).unwrap(), id);
            assert!(!scratch.exists(), "a finished freeze left its scratch file");
            assert_eq!(std::fs::read(p.dir().join(id.file_name())).unwrap(), bytes);
            assert_eq!(p.stats().freeze_dedups, 0);
            assert!(p.evict(id));
            assert_eq!(*p.open(id).unwrap(), set);
            // A second pool over the directory dedups onto the whole file.
            let p2 = SegmentPool::new(p.dir()).unwrap();
            assert_eq!(p2.freeze(&set).unwrap(), id);
            assert_eq!(p2.stats().freeze_dedups, 1);
        }
    }

    #[test]
    fn open_of_unknown_id_is_a_typed_error() {
        let p = pool("unknown");
        assert!(matches!(
            p.open(SegmentId(0xdead_beef)),
            Err(StoreError::Io(_))
        ));
    }
}
