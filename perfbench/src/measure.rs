//! Process-level probes: live-heap accounting, process CPU time, clock
//! cost and a fixed reference loop, plus the order statistics every
//! reported figure goes through.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator with a live-byte count and a resettable
/// high-water mark. The counters publish no other data, so `Relaxed`
/// suffices; the engine's steady state does not allocate, so the two
/// atomic updates per allocation stay off its packet path.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(size: usize) {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards the caller's layout and pointer to
// `System` unchanged, so `System`'s guarantees carry over; the counters
// are side bookkeeping that never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, as the
        // caller guarantees, and every allocation was made by `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

/// Live heap bytes right now.
pub fn heap_live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restart the heap high-water mark at the current live size.
pub fn heap_reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap size since the last [`heap_reset_peak`].
pub fn heap_peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub rest: [i64; 14],
    }

    pub const RUSAGE_SELF: i32 = 0;

    extern "C" {
        /// `getrusage(2)`.
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
}

/// User + system CPU time of the whole process (all threads), in ns.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    let mut r = ffi::Rusage::default();
    // SAFETY: `r` is a live, writable `struct rusage` of the kernel's
    // layout for this target; the kernel fills it and returns.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &ffi::Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    (us(&r.utime) + us(&r.stime)) * 1_000
}

/// Process CPU time is Linux-only here; elsewhere the figure is absent.
#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

/// Median cost of one `Instant::now()` read, in ns.
pub fn clock_ns() -> f64 {
    const READS: u32 = 200_000;
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&mut runs)
}

/// Median time of a fixed reference computation: 1000 dependent
/// splitmix64 steps. It never changes with the program, so a shift in
/// it between runs is the machine, not the code.
pub fn calib_ns() -> f64 {
    const BLOCKS: u32 = 2_000;
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            let t0 = Instant::now();
            for _ in 0..BLOCKS {
                for _ in 0..1000 {
                    x = smartwatch_net::hash::splitmix64(x);
                }
                x = black_box(x);
            }
            t0.elapsed().as_nanos() as f64 / f64::from(BLOCKS)
        })
        .collect();
    median(&mut runs)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn heap_peak_tracks_a_live_allocation() {
        heap_reset_peak();
        let v = black_box(vec![0u8; 8 << 20]);
        assert!(heap_live() >= 8 << 20);
        assert!(heap_peak() >= heap_live());
        drop(v);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut x = 1u64;
        let start = Instant::now();
        while start.elapsed().as_millis() < 50 {
            x = black_box(smartwatch_net::hash::splitmix64(x));
        }
        assert!(process_cpu_ns() > t0);
    }
}
