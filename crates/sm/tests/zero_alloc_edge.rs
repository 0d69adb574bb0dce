//! One tSM edge — send, ingest, a blocked receiver handed the message
//! and woken through the scheduler, its receive returning — makes no
//! allocator call once the pools are warm: the mailbox holds the
//! arriving message itself, the receiver is posted in it once, and the
//! thread object's wake-up is a pooled generalized message. (On the
//! fiber backend: on the hand-off backend sender and receiver are two OS
//! threads, each with a message pool of its own, and a chunk freed by
//! one is not there for the other to take.)
//!
//! This binary installs a counting `#[global_allocator]` and holds one
//! test, so nothing else in the process allocates while it counts.

use converse_core::csd_scheduler;
use converse_machine::MachineConfig;
use converse_sm::{tsm, Sm};
use converse_threads::CthBackend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every request is forwarded unchanged to `System`; the counter
// touches no memory the allocator hands out. `realloc` and
// `alloc_zeroed` keep their defaults, which go through `alloc` and
// `dealloc` here.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_tsm_edge_to_a_blocked_receiver_allocates_nothing() {
    if !CthBackend::fiber_supported() {
        return;
    }
    let cfg = MachineConfig::new(1).thread_backend(CthBackend::Fiber.to_config());
    converse_machine::run_with(cfg, |pe| {
        Sm::install(pe);
        let received = Arc::new(AtomicU64::new(0));
        let r = received.clone();
        tsm::create(pe, move |pe| loop {
            let m = tsm::receive(pe, 5);
            r.fetch_add(m.data.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(csd_scheduler(pe, 1), 1); // the thread runs and blocks
        let edge = || {
            tsm::send(pe, 0, 5, &[7u8; 16]);
            // The data message, then the ready-entry its handler left.
            assert_eq!(csd_scheduler(pe, 2), 2);
        };
        (0..100).for_each(|_| edge());
        const EDGES: u64 = 1_000;
        let before = CALLS.load(Ordering::Relaxed);
        (0..EDGES).for_each(|_| edge());
        let calls = CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(received.load(Ordering::Relaxed), (100 + EDGES) * 16);
        assert_eq!(calls, 0, "allocator calls over {EDGES} tSM edges");
    });
}
