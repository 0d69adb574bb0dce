//! The per-PE message-chunk pool — the `CmiAlloc`/`CmiFree` analogue.
//!
//! Real Converse routes message memory through `CmiAlloc` so the machine
//! layer, the scheduler, and the language runtimes can hand the *same*
//! block across layers and eventually `CmiFree` it back cheaply. This
//! module reproduces that with **size-classed thread-local free lists**
//! of raw chunks: each PE is one OS thread, so the thread-local pool
//! *is* the per-PE pool, uncontended by construction.
//!
//! A chunk is one allocation laid out the way `CmiAlloc` lays it out —
//! a small header in front of the bytes the caller sees:
//!
//! ```text
//! offset 0..4    refcount        (AtomicU32)
//! offset 4..8    capacity class  (u32; UNPOOLED for oversized chunks)
//! offset 8..16   length in bytes (usize)
//! offset 16..    the message bytes, 16-byte aligned
//! ```
//!
//! Capacity classes are powers of two from [`MIN_CLASS`] to
//! [`MAX_CLASS`] bytes *of message*, the header not counted; larger
//! chunks bypass the pool and go straight to the global allocator. A
//! chunk freed on a PE other than its allocator joins the *freeing*
//! PE's free list — the same receiver-side recycling real Converse gets
//! when the receiving processor calls `CmiFree` on a delivered message.
//! Chunks a thread still retains when it exits are returned to the
//! global allocator by the free lists' destructor; a chunk freed after
//! that destructor ran is deallocated on the spot.
//!
//! **Retention is bounded by bytes, with a floor in chunks.** A class
//! keeps up to `CLASS_BYTES_CAP` (64 KiB) of message bytes and never
//! fewer than `MIN_PER_CLASS` (64) chunks: 1 024 chunks of the 64-byte
//! class, 512 / 256 / 128 of the next three, and 64 of every class from
//! 1 KiB up — where 64 chunks already exceed 64 KiB. A count alone fits
//! no traffic shape: a windowed exchange of 64 small messages has two
//! windows in flight, so each turn frees 128 chunks into one list, and a
//! cap of 64 sent every other message back to the allocator for the
//! sake of 8 KiB. The bound is deliberately not larger: a chunk joins
//! the *freeing* thread's list, so a one-way flow (a transport's reader
//! thread allocates, the PE frees) fills the PE's classes to the brim
//! and keeps them there — with 1 MiB per class the 2-process shm-ring
//! exchange held 3.4 MB (18 %) more resident for nothing. The worst
//! case a thread can retain, every class full, is **≈ 8.2 MiB** (it was
//! ≈ 8.0 MiB with 64 chunks per class; the four classes below 1 KiB
//! account for the 222 KiB). A thread retains only what it has itself
//! freed.
//!
//! Every take is counted as a **hit** (served from a free list) or a
//! **miss** (touched the global allocator); `hits + misses` is therefore
//! the number of message buffers this thread materialized, which is what
//! the zero-copy tests assert on (a broadcast to P PEs must cost exactly
//! one). Counters are monotonic and per-thread; the machine layer
//! surfaces them through `converse-trace` at PE teardown.

use std::alloc::{self, Layout};
use std::cell::{Cell, RefCell};
use std::ptr::NonNull;
use std::sync::atomic::AtomicU32;

/// Smallest pooled capacity class in bytes.
pub const MIN_CLASS: usize = 64;
/// Largest pooled capacity class in bytes; bigger chunks bypass the
/// pool entirely.
pub const MAX_CLASS: usize = 64 * 1024;
/// Message bytes a class retains before further frees are dropped.
const CLASS_BYTES_CAP: usize = 64 * 1024;
/// Chunks every class may retain, however large they are.
const MIN_PER_CLASS: usize = 64;
/// Number of power-of-two classes between `MIN_CLASS` and `MAX_CLASS`.
const NUM_CLASSES: usize = (MAX_CLASS / MIN_CLASS).ilog2() as usize + 1;
/// `ChunkHeader::class` of a chunk too large for any class.
const UNPOOLED: u32 = u32::MAX;

/// The header in front of every chunk's bytes. See the module docs.
#[repr(C, align(16))]
pub(crate) struct ChunkHeader {
    /// Handles sharing the chunk; the chunk is freed when it reaches 0.
    pub(crate) refs: AtomicU32,
    /// Index of the capacity class, or [`UNPOOLED`]. With `len` this
    /// fixes the allocation's size, so no capacity is stored.
    class: u32,
    /// Bytes in use after the header; fixed from take to give.
    pub(crate) len: usize,
}

/// Bytes the header occupies in front of the message bytes.
pub(crate) const CHUNK_HEADER_BYTES: usize = std::mem::size_of::<ChunkHeader>();
const _: () = assert!(CHUNK_HEADER_BYTES == 16);

/// Monotonic counters of this thread's (this PE's) pool activity.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a free list (no allocator touch).
    pub hits: u64,
    /// Takes that had to allocate.
    pub misses: u64,
    /// Freed chunks recycled into a free list.
    pub recycled: u64,
    /// Freed chunks returned to the allocator instead (class full, or
    /// not poolable).
    pub discarded: u64,
}

impl PoolStats {
    /// Buffers materialized by this thread (`hits + misses`) — the
    /// "payload allocation" count the zero-copy assertions use.
    pub fn takes(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One thread's free chunks, by class. Every pointer in a list is a
/// chunk of that class with no handle left, owned by the list.
struct FreeLists([Vec<NonNull<ChunkHeader>>; NUM_CLASSES]);

impl Drop for FreeLists {
    fn drop(&mut self) {
        for (class, list) in self.0.iter_mut().enumerate() {
            for chunk in list.drain(..) {
                // SAFETY: the list owned this chunk, and every chunk in
                // list `class` was allocated with that class's layout.
                unsafe { alloc::dealloc(chunk.as_ptr().cast(), chunk_layout(class_size(class))) };
            }
        }
    }
}

thread_local! {
    static FREE: RefCell<FreeLists> =
        RefCell::new(FreeLists(std::array::from_fn(|_| Vec::new())));
    static STATS: Cell<PoolStats> = const { Cell::new(PoolStats {
        hits: 0,
        misses: 0,
        recycled: 0,
        discarded: 0,
    }) };
}

/// Capacity of class `i`.
#[inline]
fn class_size(i: usize) -> usize {
    MIN_CLASS << i
}

/// Free chunks class `i` retains before further frees are dropped.
#[inline]
fn class_cap(i: usize) -> usize {
    (CLASS_BYTES_CAP / class_size(i)).max(MIN_PER_CLASS)
}

/// Smallest class that can hold `len` bytes, if one exists.
#[inline]
fn class_for_len(len: usize) -> Option<usize> {
    if len > MAX_CLASS {
        return None;
    }
    let c = len.max(MIN_CLASS).next_power_of_two();
    Some((c / MIN_CLASS).ilog2() as usize)
}

/// Layout of a chunk holding `cap` message bytes.
#[inline]
fn chunk_layout(cap: usize) -> Layout {
    CHUNK_HEADER_BYTES
        .checked_add(cap)
        .and_then(|size| Layout::from_size_align(size, std::mem::align_of::<ChunkHeader>()).ok())
        .expect("message length overflows the address space")
}

/// Message bytes the chunk behind `header` was allocated for.
#[inline]
fn capacity(header: &ChunkHeader) -> usize {
    if header.class == UNPOOLED {
        header.len
    } else {
        class_size(header.class as usize)
    }
}

/// Obtain a chunk for `len` message bytes, preferring this thread's
/// free lists (`CmiAlloc`). The header is initialized with a refcount
/// of 1; the `len` bytes behind it are **not** initialized.
pub(crate) fn take(len: usize) -> NonNull<ChunkHeader> {
    let class = class_for_len(len);
    // `try_with`: a take after this thread's free lists were destroyed
    // (thread teardown) goes to the allocator.
    let recycled =
        class.and_then(|ci| FREE.try_with(|f| f.borrow_mut().0[ci].pop()).ok().flatten());
    let mut s = STATS.get();
    let chunk = match recycled {
        Some(chunk) => {
            s.hits += 1;
            chunk
        }
        None => {
            s.misses += 1;
            let layout = chunk_layout(class.map_or(len, class_size));
            // SAFETY: the layout's size is at least the header's, never 0.
            let raw = unsafe { alloc::alloc(layout) };
            NonNull::new(raw.cast::<ChunkHeader>())
                .unwrap_or_else(|| alloc::handle_alloc_error(layout))
        }
    };
    STATS.set(s);
    let header = ChunkHeader {
        refs: AtomicU32::new(1),
        class: class.map_or(UNPOOLED, |ci| ci as u32),
        len,
    };
    // SAFETY: the chunk came off a free list or from the allocator, so
    // nothing else refers to it; it is aligned for and at least as
    // large as a header.
    unsafe { chunk.as_ptr().write(header) };
    chunk
}

/// Return a chunk to this thread's free lists (`CmiFree`). Unpoolable
/// chunks — or ones arriving when their class is full, or after this
/// thread's free lists were destroyed — go back to the allocator.
///
/// # Safety
/// `chunk` must have come from [`take`], and the caller must hold the
/// only remaining reference to it; the chunk must not be used again.
pub(crate) unsafe fn give(chunk: NonNull<ChunkHeader>) {
    // SAFETY: per the contract the header is initialized and ours alone.
    let (class, cap) = unsafe {
        let header = chunk.as_ref();
        (header.class, capacity(header))
    };
    let kept = class != UNPOOLED
        && FREE
            .try_with(|f| {
                let list = &mut f.borrow_mut().0[class as usize];
                let room = list.len() < class_cap(class as usize);
                if room {
                    list.push(chunk);
                }
                room
            })
            .unwrap_or(false);
    let mut s = STATS.get();
    if kept {
        s.recycled += 1;
    } else {
        s.discarded += 1;
        // SAFETY: `take` allocated the chunk with exactly this layout,
        // and no reference to it remains.
        unsafe { alloc::dealloc(chunk.as_ptr().cast(), chunk_layout(cap)) };
    }
    STATS.set(s);
}

/// This thread's pool counters. Each PE is one OS thread, so calling
/// this from a PE's own execution context yields that PE's counters.
pub fn stats() -> PoolStats {
    STATS.get()
}

/// Free chunks currently retained by this thread's pool.
pub fn retained() -> usize {
    FREE.with(|f| f.borrow().0.iter().map(|c| c.len()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_range() {
        assert_eq!(class_for_len(0), Some(0));
        assert_eq!(class_for_len(64), Some(0));
        assert_eq!(class_for_len(65), Some(1));
        assert_eq!(class_for_len(MAX_CLASS), Some(NUM_CLASSES - 1));
        assert_eq!(class_for_len(MAX_CLASS + 1), None);
    }

    #[test]
    fn take_give_take_reuses_the_chunk() {
        let before = stats();
        let c = take(100);
        // SAFETY: `c` is ours alone and not used after the give.
        unsafe { give(c) };
        let c2 = take(80); // same 128-byte class
        assert_eq!(c2, c, "pool must hand back the same chunk");
        // SAFETY: `take` initialized the header.
        assert_eq!(unsafe { c2.as_ref() }.len, 80);
        let after = stats();
        assert_eq!(after.hits - before.hits, 1);
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.recycled - before.recycled, 1);
        // SAFETY: as above.
        unsafe { give(c2) };
    }

    #[test]
    fn oversized_chunks_bypass_pool() {
        let before = stats();
        let kept = retained();
        let c = take(MAX_CLASS + 1);
        // SAFETY: `c` is ours alone and not used after the give.
        unsafe { give(c) };
        let after = stats();
        assert_eq!(after.misses - before.misses, 1);
        assert_eq!(after.discarded - before.discarded, 1);
        assert_eq!(after.recycled, before.recycled);
        assert_eq!(retained(), kept);
    }

    #[test]
    fn a_full_class_discards() {
        let cap = class_cap(class_for_len(2048).unwrap());
        let chunks: Vec<_> = (0..cap + 3).map(|_| take(2048)).collect();
        let before = stats();
        for c in chunks {
            // SAFETY: each chunk is ours alone and given exactly once.
            unsafe { give(c) };
        }
        let after = stats();
        assert_eq!(
            (after.recycled - before.recycled) + (after.discarded - before.discarded),
            cap as u64 + 3
        );
        assert!(after.discarded - before.discarded >= 3);
    }

    #[test]
    fn retention_is_bounded_by_bytes_with_a_floor_of_64_chunks() {
        for class in 0..NUM_CLASSES {
            let cap = class_cap(class);
            assert!(
                cap >= MIN_PER_CLASS,
                "class {class} retains less than before"
            );
            assert!(
                cap == MIN_PER_CLASS || cap * class_size(class) <= CLASS_BYTES_CAP,
                "class {class} retains more than the byte bound"
            );
        }
        // Two 64-message windows of 80-byte messages fit their class.
        assert!(class_cap(class_for_len(80).unwrap()) >= 128);
        // The worst case the module docs state.
        let worst: usize = (0..NUM_CLASSES)
            .map(|c| class_cap(c) * (class_size(c) + CHUNK_HEADER_BYTES))
            .sum();
        let before: usize = (0..NUM_CLASSES)
            .map(|c| MIN_PER_CLASS * (class_size(c) + CHUNK_HEADER_BYTES))
            .sum();
        assert_eq!(worst - before, 222 * 1024);
    }

    #[test]
    fn two_windows_in_flight_are_all_recycled() {
        // The exchange shape: 128 chunks of one small class freed in a
        // burst, then taken again.
        let chunks: Vec<_> = (0..128).map(|_| take(80)).collect();
        let before = stats();
        for c in chunks {
            // SAFETY: each chunk is ours alone and given exactly once.
            unsafe { give(c) };
        }
        let again: Vec<_> = (0..128).map(|_| take(80)).collect();
        let after = stats();
        assert_eq!(after.discarded, before.discarded);
        assert_eq!(after.hits - before.hits, 128);
        for c in again {
            // SAFETY: as above.
            unsafe { give(c) };
        }
    }
}
