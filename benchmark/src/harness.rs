//! Host-side measurement primitives: the CPU pin, clocks, `/proc`
//! readers, the calibration kernel, the counting allocator, and the
//! digest.
//!
//! Everything here measures the *host* (seconds this process spent,
//! bytes it kept resident). Simulated time never appears in a metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. `USER_HZ` is 100 on every Linux ABI this runs on;
/// there is no libc here to ask `sysconf`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process so far, all threads
/// (including ones that already exited), or 0 where `/proc` is absent.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` already links; masks are the kernel's
    // 1024-bit `cpu_set_t`.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts this process — and every thread it starts later — to the
/// highest-numbered CPU it is allowed on, and returns that CPU; `None`
/// where the affinity calls are absent or refused.
///
/// Why: on the 2-vCPU reference host a study hands work between its
/// collector and scanner threads about 100 000 times, and every wake-up
/// of a halted vCPU is a VM exit whose latency is the hypervisor's.
/// Identical repetitions took 6.2–8.4 s unpinned and 6.45–6.98 s
/// pinned (README.md, "Noise"). Pinned, `wall_s` is the work of all
/// threads laid end to end: a cost, with no credit for overlap.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of `bytes` bytes and
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let bit = 63 - bits.leading_zeros() as usize;
        let mut one = [0u64; 16];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of `bytes` bytes that the call
        // only reads.
        if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restarts the kernel's peak-RSS watermark (`VmHWM`) at the current
/// resident size, so that the next [`peak_rss_bytes`] is the peak since
/// this call. Where the kernel refuses, the watermark keeps counting
/// from process start.
pub fn reset_peak_rss() {
    // "5" clears the watermark only (proc(5)); nothing to do on failure.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) in bytes, or 0
/// where `/proc` is absent.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Wall and CPU seconds of one call.
pub struct Timed<T> {
    pub value: T,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` once, timing it on the wall clock and the process CPU clock.
pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed {
        value,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
    }
}

/// Nanoseconds per operation of a fixed-count single-thread probe:
/// `f(i)` is called for `i` in `0..n` and its results are kept alive.
pub fn ns_per_op<T>(n: u64, mut f: impl FnMut(u64) -> T) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        std::hint::black_box(f(std::hint::black_box(i)));
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// The calibration kernel: a fixed count of dependent integer mixes
/// that touches no memory and calls nothing in the repository, so its
/// time depends on the host alone. Run before and after the
/// repetitions, it says whether both ends of a run — and two sets of
/// runs — saw an equally fast host.
pub fn calibrate() -> f64 {
    const ROUNDS: u64 = 60_000_000;
    let t0 = Instant::now();
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..ROUNDS {
        x = (x ^ (x >> 30))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// FNV-1a over byte strings, for `sim_digest`.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// splitmix64 — the benchmark's own input generator, so the inputs a
/// seed produces cannot change when the repository's RNG does.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// Global allocator wrapper that counts calls and bytes while armed.
/// Disarmed (every untraced run) it costs one relaxed load per call.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    fn note(size: usize) {
        // Relaxed: these are statistics and publish no other data.
        if ARMED.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // `System`, as the caller guarantees for this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // `System`; `new_size` is passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with the allocation counters armed and returns
/// `(result, allocations, bytes requested)`.
pub fn counting_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOC_COUNT.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let value = f();
    ARMED.store(false, Ordering::Relaxed);
    (
        value,
        ALLOC_COUNT.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
