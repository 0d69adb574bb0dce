//! The steady-state message path makes no allocator call, and leaks
//! nothing.
//!
//! This binary installs a counting `#[global_allocator]` and holds one
//! test, so nothing else in the process allocates while it counts.

use converse_msg::{BitVecPrio, HandlerId, Message, Priority};
use converse_queue::{CsdQueue, QueueingMode, SchedulingQueue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`; the counters
// touch no memory the allocator hands out. `realloc` and `alloc_zeroed`
// keep their defaults, which go through `alloc` and `dealloc` here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated and not yet freed.
fn outstanding() -> i64 {
    ALLOCATED.load(Ordering::Relaxed) as i64 - FREED.load(Ordering::Relaxed) as i64
}

/// `n` trips of one message: made, shared, retargeted (a copy-on-write
/// into a second pooled chunk while the share lives), queued, dequeued,
/// dropped.
fn trips(q: &mut CsdQueue, prio: &Priority, mode: QueueingMode, n: usize) {
    let payload = [7u8; 16];
    for i in 0..n {
        let mut m = Message::with_priority(HandlerId(1), prio, &payload);
        let shared = m.share();
        m.set_handler(HandlerId(2));
        q.enqueue(m, mode);
        let back = q.dequeue().expect("the message just queued");
        assert_eq!(back.handler(), HandlerId(2));
        assert_eq!(shared.handler(), HandlerId(1));
        assert_eq!(back.payload()[i % 16], 7);
    }
}

/// The three priority kinds the path distinguishes; the bit vector fits
/// the queue's inline prefix.
fn kinds() -> [(Priority, QueueingMode); 3] {
    let bits: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
    [
        (Priority::None, QueueingMode::Fifo),
        (Priority::Int(-7), QueueingMode::PrioFifo),
        (
            Priority::BitVec(BitVecPrio::from_bits(&bits)),
            QueueingMode::PrioFifo,
        ),
    ]
}

/// One thread's share of the leak check: messages made here, some
/// dropped here and some handed to the caller to drop elsewhere.
fn churn(kinds: &[(Priority, QueueingMode)]) -> Vec<Message> {
    let mut q = CsdQueue::new();
    let mut keep = Vec::new();
    for (prio, mode) in kinds {
        trips(&mut q, prio, *mode, 200);
        for len in [0usize, 100, 5000, 70_000] {
            keep.push(Message::with_priority(HandlerId(3), prio, &vec![1u8; len]));
        }
    }
    keep
}

#[test]
fn message_path_is_allocation_free_and_leak_free() {
    let n = if cfg!(miri) { 200 } else { 10_000 };
    let kinds = kinds();

    // Steady state: after a warm-up that fills the pool and sizes the
    // queue, no trip calls the allocator, for any kind.
    let mut q = CsdQueue::new();
    for (prio, mode) in &kinds {
        trips(&mut q, prio, *mode, 64);
    }
    let before = CALLS.load(Ordering::Relaxed);
    for (prio, mode) in &kinds {
        trips(&mut q, prio, *mode, n);
    }
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(calls, 0, "{calls} allocator calls in {} trips", 3 * n);

    // Leaks: threads make messages, recycle them, pass some to another
    // thread to free, and exit with chunks still in their pools. Once
    // all are joined every byte they allocated is freed again. The first
    // round absorbs what the runtime allocates once per process.
    for round in 0..2 {
        let base = outstanding();
        {
            let makers: Vec<_> = (0..4)
                .map(|_| {
                    let kinds = kinds.clone();
                    thread::spawn(move || churn(&kinds))
                })
                .collect();
            let made: Vec<Vec<Message>> = makers
                .into_iter()
                .map(|t| t.join().expect("maker thread"))
                .collect();
            // Freed on a thread that allocated none of them.
            thread::spawn(move || drop(made))
                .join()
                .expect("freeing thread");
        }
        if round == 1 {
            assert_eq!(
                outstanding(),
                base,
                "bytes allocated by the threads and not freed"
            );
        }
    }
}
