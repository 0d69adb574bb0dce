//! The counts tests pin: the one place where they are kept.
//!
//! The runtime's costs are pinned as counts, not times — lock pairs per
//! message, owner-cell openings per thread wake, allocator calls per
//! edge or per task — and every such count is kept here:
//!
//! * **per thread, in builds with `debug_assertions` only:** lock
//!   acquisitions ([`locks`]; every [`Mutex`](crate::Mutex) /
//!   [`RwLock`](crate::RwLock) acquisition of this shim) and owner-cell
//!   openings ([`openings`]; `converse_machine::OwnerCell` reports each
//!   through [`note_opening`]). Release builds compile none of it, and
//!   reading either there is a compile error, not a silent 0;
//! * **per thread, with [`Counting`] installed:** allocator calls
//!   ([`allocs`]: allocations *and* frees) and bytes requested
//!   ([`alloc_bytes`]);
//! * **process-wide, with [`Counting`] installed:** the same calls and
//!   bytes summed over every thread ([`process_allocs`],
//!   [`process_alloc_bytes`]) and the bytes live ([`process_live_bytes`]),
//!   for checks whose work runs on threads the test does not own.
//!
//! A test binary that counts allocator calls installs the one counting
//! allocator with a single item, and a thread reads its own delta around
//! the operation it measures. What the test harness's threads allocate
//! meanwhile lands in their own counts, so no thread needs to be marked
//! as counted.
//!
//! ```
//! use parking_lot::census;
//!
//! #[global_allocator]
//! static GLOBAL: census::Counting = census::Counting;
//!
//! let before = census::allocs();
//! drop(std::hint::black_box(vec![0u8; 32]));
//! assert_eq!(census::allocs() - before, 2, "an allocation and its free");
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(debug_assertions)]
thread_local! {
    static ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
    static OPENINGS: Cell<u64> = const { Cell::new(0) };
}

// Const-initialized and without destructors: reading them allocates
// nothing, and `try_with` still reaches them while the thread's other
// thread-locals are torn down.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static PROCESS_FREED: AtomicU64 = AtomicU64::new(0);

/// Add `n` to a per-thread count; a no-op once the thread-local is gone.
#[inline(always)]
fn bump(count: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    let _ = count.try_with(|c| c.set(c.get() + n));
}

/// Count one lock acquisition by the calling thread (debug builds only).
#[inline(always)]
pub(crate) fn note_acquisition() {
    #[cfg(debug_assertions)]
    bump(&ACQUISITIONS, 1);
}

/// Lock acquisitions (`Mutex::lock`, a successful `Mutex::try_lock`,
/// `RwLock::read`, `RwLock::write`) the calling thread has made so far.
#[cfg(debug_assertions)]
pub fn locks() -> u64 {
    ACQUISITIONS.with(Cell::get)
}

/// Count one owner-cell opening by the calling thread.
#[cfg(debug_assertions)]
#[inline(always)]
pub fn note_opening() {
    bump(&OPENINGS, 1);
}

/// Owner-cell openings the calling thread has made so far.
#[cfg(debug_assertions)]
pub fn openings() -> u64 {
    OPENINGS.with(Cell::get)
}

/// Allocator calls — allocations and frees — the calling thread has
/// made so far. A `realloc` is one of each (see [`Counting`]).
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has asked the allocator for so far.
pub fn alloc_bytes() -> u64 {
    ALLOC_BYTES.with(Cell::get)
}

/// Allocator calls made so far by every thread of the process.
pub fn process_allocs() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}

/// Bytes asked of the allocator so far by every thread of the process.
pub fn process_alloc_bytes() -> u64 {
    PROCESS_ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet freed, over the whole process.
pub fn process_live_bytes() -> i64 {
    process_alloc_bytes() as i64 - PROCESS_FREED.load(Ordering::Relaxed) as i64
}

/// The counting allocator: [`System`], plus the allocator counts above.
/// `realloc` and `alloc_zeroed` keep their defaults, which go through
/// `alloc` and `dealloc` here, so a `realloc` counts as one allocation
/// of the new size and one free of the old.
pub struct Counting;

// SAFETY: every request is forwarded unchanged to `System`; the counters
// touch no memory the allocator hands out, and updating them allocates
// nothing (atomics, and const thread-locals without destructors).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as u64;
        bump(&ALLOCS, 1);
        bump(&ALLOC_BYTES, size);
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        PROCESS_ALLOCATED.fetch_add(size, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&ALLOCS, 1);
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        PROCESS_FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// This thread's (allocator calls, bytes, locks, openings) so far;
    /// the last two read 0 without `debug_assertions`.
    fn mine() -> [u64; 4] {
        #[cfg(debug_assertions)]
        let (locks, openings) = (locks(), openings());
        #[cfg(not(debug_assertions))]
        let (locks, openings) = (0, 0);
        [allocs(), alloc_bytes(), locks, openings]
    }

    fn since(before: [u64; 4]) -> [u64; 4] {
        let now = mine();
        std::array::from_fn(|i| now[i] - before[i])
    }

    /// One allocation of 24 bytes, one lock and one opening.
    fn one_of_each(lock: &crate::Mutex<u32>) -> Box<[u8; 24]> {
        *lock.lock() += 1;
        #[cfg(debug_assertions)]
        note_opening();
        std::hint::black_box(Box::new([0u8; 24]))
    }

    #[test]
    fn a_count_lands_on_the_thread_that_made_it_and_in_the_process_total() {
        let lock = crate::Mutex::new(0);
        let one = u64::from(cfg!(debug_assertions));
        let (process, start) = (process_allocs(), mine());
        let kept = one_of_each(&lock);
        assert_eq!(
            since(start),
            [1, 24, one, one],
            "[allocs, bytes, locks, openings]"
        );

        let before = mine();
        let theirs = std::thread::scope(|s| {
            s.spawn(|| {
                let before = mine();
                drop(one_of_each(&lock));
                since(before)
            })
            .join()
            .unwrap()
        });
        assert_eq!(
            theirs,
            [2, 24, one, one],
            "counted on the thread that made them"
        );
        // Spawning and joining allocate here, but the other thread's
        // lock and opening are its own.
        assert_eq!(
            since(before)[2..],
            [0, 0],
            "another thread's counts are its own"
        );

        // The process total saw both threads' calls (and whatever the
        // harness made meanwhile).
        drop(kept);
        let here = since(start)[0];
        assert!(process_allocs() - process >= here + theirs[0]);
    }

    #[test]
    fn a_realloc_counts_as_an_allocation_and_a_free() {
        let mut v: Vec<u8> = Vec::with_capacity(8);
        let freed = PROCESS_FREED.load(Ordering::Relaxed);
        let before = mine();
        v.reserve_exact(64);
        assert_eq!(since(before)[..2], [2, 64], "a realloc from 8 to 64 bytes");
        assert!(PROCESS_FREED.load(Ordering::Relaxed) - freed >= 8);
        drop(v);
    }
}
