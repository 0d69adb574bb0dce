//! Exact-count collectors that live in the benchmark binary: a counting
//! global allocator and `getrusage(2)`. Counts (allocations, context
//! switches) repeat far better than times on a shared host, so a later
//! change can rest a claim on them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus two relaxed counters. Installed as the
/// `#[global_allocator]` of the `benchmark` binary; identical on every
/// commit measured, so its ~1 ns per call cancels in comparisons.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Process-wide counters at one instant; subtract two to bracket a
/// region. Zero everywhere when the probe is unavailable (non-Linux, or
/// a binary without the counting allocator).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Usage {
    /// Heap allocations (alloc + alloc_zeroed + realloc calls).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
    /// User + system CPU time of all threads, microseconds.
    pub cpu_us: u64,
    /// Voluntary context switches (blocking waits: futex parks, sleeps).
    pub vol_switches: u64,
    /// Peak resident set, KiB. A high-water mark, not a difference.
    pub max_rss_kb: u64,
}

impl Usage {
    /// Snapshot the calling process.
    pub fn now() -> Usage {
        let ru = rusage_self();
        Usage {
            allocs: ALLOCS.load(Ordering::Relaxed),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            cpu_us: ru.0,
            vol_switches: ru.1,
            max_rss_kb: ru.2,
        }
    }

    /// Two bracketed regions added up (`max_rss_kb`: the higher mark).
    pub fn plus(&self, other: &Usage) -> Usage {
        Usage {
            allocs: self.allocs + other.allocs,
            alloc_bytes: self.alloc_bytes + other.alloc_bytes,
            cpu_us: self.cpu_us + other.cpu_us,
            vol_switches: self.vol_switches + other.vol_switches,
            max_rss_kb: self.max_rss_kb.max(other.max_rss_kb),
        }
    }

    /// Counters accumulated since `earlier` (`max_rss_kb` stays the
    /// later high-water mark).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            allocs: self.allocs - earlier.allocs,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            cpu_us: self.cpu_us - earlier.cpu_us,
            vol_switches: self.vol_switches - earlier.vol_switches,
            max_rss_kb: self.max_rss_kb,
        }
    }
}

/// `(cpu_us, voluntary switches, max_rss_kb)` of this process.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn rusage_self() -> (u64, u64, u64) {
    /// `struct timeval` on LP64 Linux.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }
    /// `struct rusage` on LP64 Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        ru_utime: Timeval,
        ru_stime: Timeval,
        ru_maxrss: i64,
        _unused_a: [i64; 10],
        _ru_nsignals: i64,
        ru_nvcsw: i64,
        _ru_nivcsw: i64,
    }
    const RUSAGE_SELF: i32 = 0;
    // std already links libc; declared by hand like
    // `converse-wire/src/futex.rs`, the crate stays dependency-free.
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the LP64 Linux
    // layout (144 bytes); the call writes it and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return (0, 0, 0);
    }
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    (
        us(&ru.ru_utime) + us(&ru.ru_stime),
        ru.ru_nvcsw as u64,
        ru.ru_maxrss as u64,
    )
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn rusage_self() -> (u64, u64, u64) {
    (0, 0, 0)
}

/// Pin the calling thread — and every thread and process it starts from
/// now on, which inherit the mask — to one hardware thread: the `nth`
/// highest-numbered one it may run on, wrapping around (housekeeping
/// tends to sit on CPU 0, so `nth = 0` is the quietest choice). Returns
/// the CPU, or `None` where the call is unavailable or fails.
///
/// Every process of the benchmark runs like this. Threads left to float
/// over the vCPUs of a shared host measure where the two schedulers —
/// the guest's and the hypervisor's — happened to put them: the same
/// 2-PE exchange ran at 0.37 or 1.0 µs per message from one second to
/// the next, which no estimator repairs.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn pin_to_cpu(nth: usize) -> Option<usize> {
    const WORDS: usize = 16; // a 1024-CPU `cpu_set_t`
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread; the kernel writes at most `cpusetsize` bytes.
    if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed: Vec<usize> = (0..WORDS * 64)
        .rev()
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let cpu = *allowed.get(nth % allowed.len().max(1))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of the size passed and is only read.
    (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn pin_to_cpu(_nth: usize) -> Option<usize> {
    None
}
