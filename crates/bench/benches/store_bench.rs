//! Store subsystem benchmark: insert throughput, resident bytes per
//! address, and overlap speed of the delta-block [`store`] types against
//! the `HashSet<u128>` baseline they replaced.
//!
//! Besides the criterion samples, this bench *always* (including
//! `--test` smoke mode) builds both representations over the same
//! synthetic feed, asserts the ISSUE's memory target — the
//! [`CompactSet`] stays within **a quarter** of the hash set's resident
//! bytes — and writes the measurements to
//! `target/bench-reports/BENCH_store.json` as a CI artifact.
//!
//! The feed mimics the paper's collected population, which Figure 1
//! shows is dominated by *structured* IIDs: ≈30% privacy addresses
//! (random 64-bit IIDs), ≈20% EUI-64 with MACs drawn from a handful of
//! vendor OUIs (the Table 4 ranking is AVM-heavy), ≈50% small-integer
//! IIDs (CPE/infrastructure), spread over a bounded set of /64s so
//! sorted deltas cluster the way real per-network populations do.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashSet;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;
use store::{Archive, CompactSet};

/// The `i`-th address of the deterministic synthetic feed over
/// `nets * nets` distinct /64s.
fn synthetic_addr(i: u64, nets: u128, seed: u64) -> u128 {
    let r = netsim::mix2(seed, i);
    let net = ((0x2a00 + (u128::from(r) % nets)) << 112) | (((u128::from(r >> 8)) % nets) << 64);
    // A few dominant vendor OUIs, as in the paper's Table 4 ranking.
    const OUIS: [u64; 8] = [
        0x3c_a62f, 0xcc_ce1e, 0x98_9bcb, 0x00_1f3f, 0xb8_27eb, 0x28_9e97, 0x74_42a1, 0x5c_4979,
    ];
    let iid = match r % 10 {
        // Privacy extension: uniform 64-bit IID.
        0..=2 => u128::from(netsim::mix2(seed ^ 0x7072_6976, i)),
        // EUI-64: vendor OUI + random NIC with ff:fe stuffing and
        // the u-bit flipped.
        3 | 4 => {
            let nic = netsim::mix2(seed ^ 0x6d61_6331, i) & 0xff_ffff;
            let upper = OUIS[(r >> 4) as usize % OUIS.len()] ^ 0x02_0000;
            u128::from((upper << 40) | (0xfffe << 24) | nic)
        }
        // Structured CPE/infrastructure: small-integer IIDs.
        _ => u128::from((r >> 16) & 0x0fff),
    };
    net | iid
}

/// Deterministic synthetic feed of `n` addresses (may contain
/// duplicates, like a real first-sight feed replayed across prefix
/// rotations).
fn synthetic_feed(n: usize, nets: u128, seed: u64) -> Vec<u128> {
    (0..n as u64)
        .map(|i| synthetic_addr(i, nets, seed))
        .collect()
}

fn time<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_nanos())
}

/// Spill fanout of the compaction-schedule reconstruction, matching
/// [`store::archive::DEFAULT_FANOUT`].
const SPILL_FANOUT: usize = 8;

/// The archive's size-tiered schedule: segments bucket into
/// power-of-two size classes, and a class is k-way merged only once it
/// holds `fanout` segments (cascading upward), so each address is
/// re-encoded once per tier level instead of every `fanout`-th spill.
fn tiered_compaction(runs: &[CompactSet]) -> Vec<CompactSet> {
    let size_class = |len: usize| len.max(1).next_power_of_two().trailing_zeros();
    let mut segments: Vec<CompactSet> = Vec::new();
    for run in runs {
        segments.push(run.clone());
        loop {
            let mut counts = std::collections::BTreeMap::<u32, usize>::new();
            for s in &segments {
                *counts.entry(size_class(s.len())).or_insert(0) += 1;
            }
            let Some(class) = counts
                .into_iter()
                .find(|&(_, n)| n >= SPILL_FANOUT)
                .map(|(c, _)| c)
            else {
                break;
            };
            let idxs: Vec<usize> = (0..segments.len())
                .filter(|&i| size_class(segments[i].len()) == class)
                .collect();
            let refs: Vec<&CompactSet> = idxs.iter().map(|&i| &segments[i]).collect();
            let merged = CompactSet::union_all(&refs);
            for &i in idxs.iter().rev() {
                segments.remove(i);
            }
            segments.push(merged);
        }
    }
    segments
}

/// Resident bytes of the `HashSet<u128>` baseline: 16 bytes per slot
/// plus one control byte, over the allocated capacity.
fn hashset_bytes(set: &HashSet<u128>) -> usize {
    set.capacity() * (std::mem::size_of::<u128>() + 1)
}

fn store_bench(c: &mut Criterion) {
    let smoke = c.is_test_mode();
    let (n, nets) = if smoke {
        (100_000, 16)
    } else {
        (1_000_000, 64)
    };
    let feed = synthetic_feed(n, nets, 0x0053_544f_5245_u64); // "STORE"

    // --- Insert throughput: HashSet vs Archive (memtable + freezes). ---
    let (hash, hash_ns) = time(|| {
        let mut s: HashSet<u128> = HashSet::new();
        for &a in &feed {
            s.insert(a);
        }
        s
    });
    let (archive, archive_ns) = time(|| {
        let mut ar = Archive::new();
        for &a in &feed {
            ar.insert(Ipv6Addr::from(a));
        }
        ar
    });
    assert_eq!(archive.len(), hash.len(), "archive dedup diverged");
    // The spill path on its own: ~256 pre-sorted, globally
    // deduplicated runs (a memtable 1/256 of the feed — a long study
    // spills *many* times) pushed through the size-tiered schedule,
    // which re-encodes each address O(log spills) times. Insert probes
    // are excluded on purpose — they would drown the freeze cost.
    let spill_cap = (feed.len() / 256).max(64);
    let runs: Vec<CompactSet> = {
        let mut seen: HashSet<u128> = HashSet::new();
        let mut runs = Vec::new();
        let mut cur: Vec<u128> = Vec::with_capacity(spill_cap);
        for &a in &feed {
            if seen.insert(a) {
                cur.push(a);
                if cur.len() >= spill_cap {
                    cur.sort_unstable();
                    runs.push(CompactSet::from_sorted(cur.drain(..)));
                }
            }
        }
        if !cur.is_empty() {
            cur.sort_unstable();
            runs.push(CompactSet::from_sorted(cur.drain(..)));
        }
        runs
    };
    let (tiered, tiered_ns) = time(|| tiered_compaction(&runs));
    let seg_total = |segs: &[CompactSet]| segs.iter().map(CompactSet::len).sum::<usize>();
    assert_eq!(
        seg_total(&tiered),
        hash.len(),
        "tiered schedule lost addresses"
    );

    // --- K-way merge ingest: one `union_all` across every spilled run
    // is the compaction schedule's inner loop, a `BinaryHeap`
    // min-merge (O(log k) per element). Recorded so the artifact tracks
    // the merge's ingest rate across any future rewrite.
    let (kway_merged, kway_ns) = time(|| {
        let refs: Vec<&CompactSet> = runs.iter().collect();
        CompactSet::union_all(&refs)
    });
    assert_eq!(kway_merged.len(), hash.len(), "k-way merge lost addresses");

    // --- Resident bytes: the tentpole's stated memory target. ---
    let compact = archive.to_compact();
    assert_eq!(compact.len(), hash.len());
    let hs_bytes = hashset_bytes(&hash);
    let cs_bytes = compact.heap_bytes();
    assert!(
        cs_bytes * 4 <= hs_bytes,
        "CompactSet {cs_bytes} B exceeds 1/4 of the HashSet baseline {hs_bytes} B"
    );

    // --- Overlap speed: sorted streaming vs hash-probing. ---
    let split = feed.len() * 3 / 5;
    let a_compact: CompactSet = feed[..split].iter().map(|&a| Ipv6Addr::from(a)).collect();
    let b_compact: CompactSet = feed[feed.len() - split..]
        .iter()
        .map(|&a| Ipv6Addr::from(a))
        .collect();
    let a_hash: HashSet<u128> = feed[..split].iter().copied().collect();
    let b_hash: HashSet<u128> = feed[feed.len() - split..].iter().copied().collect();
    let (compact_overlap, compact_overlap_ns) = time(|| a_compact.overlap_count(&b_compact));
    let (hash_overlap, hash_overlap_ns) = time(|| a_hash.intersection(&b_hash).count());
    assert_eq!(compact_overlap, hash_overlap, "overlap counts diverged");

    // --- Bloom prune effectiveness: membership probes against the
    // frozen archive, half present (the feed itself) and half absent
    // (a disjoint seed) — the absent half is where the per-segment
    // blooms should rule segments out before any fence search. ---
    let bloom_before = archive.bloom_stats();
    let probes = feed.len();
    let (present_hits, lookup_present_ns) = time(|| {
        feed.iter()
            .filter(|&&a| archive.contains(Ipv6Addr::from(a)))
            .count()
    });
    assert_eq!(present_hits, probes, "archive lost inserted addresses");
    let (absent_hits, lookup_absent_ns) = time(|| {
        (0..probes as u64)
            .filter(|&i| {
                archive.contains(Ipv6Addr::from(synthetic_addr(
                    i,
                    nets,
                    0x0061_6273_656e_u64, // "absen": disjoint feed
                )))
            })
            .count()
    });
    let bloom_after = archive.bloom_stats();
    let bloom = store::BloomStats {
        candidates: bloom_after.candidates - bloom_before.candidates,
        pruned: bloom_after.pruned - bloom_before.pruned,
    };
    assert!(
        bloom.prune_ratio() > 0.5,
        "bloom pruned only {:.3} of bounds-surviving probes",
        bloom.prune_ratio()
    );

    // --- Sustained ingest: a first-sight feed an order of magnitude
    // past the criterion samples, streamed straight into the archive,
    // holding the tentpole's bound — resident bytes stay within a
    // quarter of the tightest possible `HashSet<u128>` (17 B/slot at
    // 100% load; real tables resize earlier). ---
    let sustained_n: u64 = if smoke { 1_000_000 } else { 10_000_000 };
    let (mut sustained, sustained_ns) = time(|| {
        let mut ar = Archive::new();
        for i in 0..sustained_n {
            ar.insert(Ipv6Addr::from(synthetic_addr(i, 64, 0x0073_7573_7461_u64)));
        }
        ar
    });
    let sustained_distinct = sustained.len();
    let fragmented_bytes = sustained.heap_bytes();
    // Adaptive cap: sustained ingest grew the memtable (bounded), so
    // the 1/4 bound below is exercised at the grown cap, not the
    // default.
    let adaptive_cap = sustained.memtable_cap();
    assert!(
        adaptive_cap > store::archive::DEFAULT_MEMTABLE_CAP
            && adaptive_cap <= store::archive::MAX_MEMTABLE_CAP,
        "sustained ingest should grow the adaptive cap within bounds: {adaptive_cap}"
    );
    let (_, optimize_ns) = time(|| sustained.optimize());
    let sustained_bytes = sustained.heap_bytes();
    // Post-optimize bloom: one filter over every distinct address. The
    // old power-of-two table rounded this worst case nearly 2x up
    // (9.3M keys -> 16.8 MiB); the blocked layout must track ~8
    // bits/key within one cache line.
    let bloom_table_bytes = sustained.bloom_bytes();
    let pow2_baseline_bytes = (sustained_distinct * 8).next_power_of_two().max(64) / 8;
    let bloom_bits_per_key = bloom_table_bytes as f64 * 8.0 / sustained_distinct.max(1) as f64;
    assert!(
        bloom_table_bytes <= pow2_baseline_bytes,
        "blocked bloom {bloom_table_bytes} B regressed past the pow2 baseline {pow2_baseline_bytes} B"
    );
    assert!(
        bloom_bits_per_key < 9.0,
        "blocked bloom overshoots the 8 bits/key target: {bloom_bits_per_key:.2}"
    );
    // The honest baseline: the `HashSet<u128>` this archive replaced,
    // actually materialized over the same distinct addresses.
    let sustained_hash: HashSet<u128> = sustained.iter().map(u128::from).collect();
    let sustained_hs_bytes = hashset_bytes(&sustained_hash);
    drop(sustained_hash);
    assert!(
        sustained_bytes * 4 <= sustained_hs_bytes,
        "optimized sustained archive {sustained_bytes} B exceeds 1/4 of the \
         {sustained_hs_bytes} B HashSet baseline over {sustained_distinct} addresses"
    );

    let distinct = hash.len();
    let per_addr_of = |bytes: usize, n: usize| bytes as f64 / n.max(1) as f64;
    let per_addr = |bytes: usize| per_addr_of(bytes, distinct);
    let per_sec = |count: usize, ns: u128| (count as f64 * 1e9 / ns.max(1) as f64) as u64;
    println!(
        "store/memory: {distinct} distinct — hashset {hs_bytes} B ({:.1} B/addr), compact {cs_bytes} B ({:.1} B/addr), {:.1}x smaller",
        per_addr(hs_bytes),
        per_addr(cs_bytes),
        hs_bytes as f64 / cs_bytes.max(1) as f64,
    );
    println!(
        "store/insert: hashset {} addr/s, archive {} addr/s",
        per_sec(feed.len(), hash_ns),
        per_sec(feed.len(), archive_ns),
    );
    println!(
        "store/spill ({} runs of {spill_cap}): tiered {} ns",
        runs.len(),
        tiered_ns,
    );
    println!(
        "store/kway-merge: {} streams -> {} addresses in {} ns ({} addr/s)",
        runs.len(),
        kway_merged.len(),
        kway_ns,
        per_sec(kway_merged.len(), kway_ns),
    );
    println!(
        "store/overlap: {compact_overlap} shared — compact {compact_overlap_ns} ns, hashset {hash_overlap_ns} ns",
    );
    println!(
        "store/bloom: {} candidates, {} pruned ({:.3} ratio), {} of {probes} disjoint-seed probes were genuinely present",
        bloom.candidates,
        bloom.pruned,
        bloom.prune_ratio(),
        absent_hits,
    );
    println!(
        "store/sustained: {sustained_n} addresses ({sustained_distinct} distinct) in {sustained_ns} ns \
         ({} addr/s) — {fragmented_bytes} B tiered, {sustained_bytes} B optimized \
         ({:.2} B/addr) vs {sustained_hs_bytes} B HashSet baseline, adaptive cap {adaptive_cap}",
        per_sec(sustained_n as usize, sustained_ns),
        per_addr_of(sustained_bytes, sustained_distinct),
    );
    println!(
        "store/bloom-table: post-optimize {bloom_table_bytes} B ({bloom_bits_per_key:.2} bits/key) \
         vs pow2 baseline {pow2_baseline_bytes} B ({:.2}x smaller)",
        pow2_baseline_bytes as f64 / bloom_table_bytes.max(1) as f64,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"store\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"feed_addresses\": {},\n",
            "  \"distinct_addresses\": {},\n",
            "  \"hashset_bytes\": {},\n",
            "  \"compact_bytes\": {},\n",
            "  \"bytes_per_addr\": {{\"hashset\": {:.2}, \"compact\": {:.2}}},\n",
            "  \"compression_ratio\": {:.3},\n",
            "  \"insert_ns\": {{\"hashset\": {}, \"archive\": {}}},\n",
            "  \"inserts_per_sec\": {{\"hashset\": {}, \"archive\": {}}},\n",
            "  \"spill\": {{\"memtable_cap\": {}, \"runs\": {}, \"tiered_ns\": {}}},\n",
            "  \"kway_merge\": {{\"streams\": {}, \"addresses\": {}, \"union_all_ns\": {}, \"addresses_per_sec\": {}}},\n",
            "  \"overlap_shared\": {},\n",
            "  \"overlap_ns\": {{\"compact\": {}, \"hashset\": {}}},\n",
            "  \"bloom\": {{\"candidates\": {}, \"pruned\": {}, \"prune_ratio\": {:.4}, \"absent_probes\": {}, \"absent_hits\": {}, \"lookup_ns\": {{\"present\": {}, \"absent\": {}}}, \"post_optimize_table_bytes\": {}, \"pow2_baseline_bytes\": {}, \"bits_per_key\": {:.2}}},\n",
            "  \"sustained_ingest\": {{\"addresses\": {}, \"distinct\": {}, \"ingest_ns\": {}, \"addresses_per_sec\": {}, \"tiered_bytes\": {}, \"optimize_ns\": {}, \"optimized_bytes\": {}, \"bytes_per_addr\": {:.2}, \"hashset_bytes\": {}, \"adaptive_memtable_cap\": {}, \"quarter_bound_ok\": true}}\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        feed.len(),
        distinct,
        hs_bytes,
        cs_bytes,
        per_addr(hs_bytes),
        per_addr(cs_bytes),
        hs_bytes as f64 / cs_bytes.max(1) as f64,
        hash_ns,
        archive_ns,
        per_sec(feed.len(), hash_ns),
        per_sec(feed.len(), archive_ns),
        spill_cap,
        runs.len(),
        tiered_ns,
        runs.len(),
        kway_merged.len(),
        kway_ns,
        per_sec(kway_merged.len(), kway_ns),
        compact_overlap,
        compact_overlap_ns,
        hash_overlap_ns,
        bloom.candidates,
        bloom.pruned,
        bloom.prune_ratio(),
        probes,
        absent_hits,
        lookup_present_ns,
        lookup_absent_ns,
        bloom_table_bytes,
        pow2_baseline_bytes,
        bloom_bits_per_key,
        sustained_n,
        sustained_distinct,
        sustained_ns,
        per_sec(sustained_n as usize, sustained_ns),
        fragmented_bytes,
        optimize_ns,
        sustained_bytes,
        per_addr_of(sustained_bytes, sustained_distinct),
        sustained_hs_bytes,
        adaptive_cap,
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/bench-reports");
    std::fs::create_dir_all(&dir).expect("create target/bench-reports");
    let path = dir.join("BENCH_store.json");
    std::fs::write(&path, &json).expect("write store bench artifact");
    println!("store/artifact: {} bytes -> {}", json.len(), path.display());

    // Criterion samples on a slice, guarding against regressions in the
    // hot paths (dedup insert, streaming overlap).
    let slice = &feed[..feed.len() / 10];
    c.bench_function("store/archive_insert", |b| {
        b.iter(|| {
            let mut ar = Archive::new();
            for &a in slice {
                ar.insert(Ipv6Addr::from(a));
            }
            black_box(ar.len())
        })
    });
    c.bench_function("store/compact_overlap", |b| {
        b.iter(|| black_box(a_compact.overlap_count(&b_compact)))
    });
}

criterion_group! {
    name = benches;
    config = bench::criterion();
    targets = store_bench
}
criterion_main!(benches);
