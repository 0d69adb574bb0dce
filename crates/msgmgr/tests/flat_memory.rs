//! One tag per task, each used once — the tSM case: the message
//! manager's memory is flat over any number of fresh tags.
//!
//! This binary installs a counting `#[global_allocator]` and holds one
//! test, so nothing else in the process allocates while it counts.

use converse_msgmgr::MsgManager;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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
fn fresh_tags_leave_nothing_behind() {
    let mut mm = MsgManager::new();
    // Three messages to a tag (a stencil task's edges), sixteen tags in
    // flight at once.
    let pass = |mm: &mut MsgManager<u64>, tags: std::ops::Range<i32>| {
        for tag in tags {
            for src in 0..3 {
                mm.put(&[tag, src], tag as u64);
            }
            if tag >= 16 {
                let done = tag - 16;
                for _ in 0..3 {
                    assert_eq!(
                        mm.get(&[done, converse_msgmgr::WILDCARD]).unwrap().item,
                        done as u64
                    );
                }
            }
            assert!(mm.tags_in_use() <= 17);
        }
    };
    pass(&mut mm, 0..1_000);
    let before = CALLS.load(Ordering::Relaxed);
    pass(&mut mm, 1_000..101_000);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(calls, 0, "allocator calls over 100 000 fresh tags");
    assert_eq!(mm.len(), 16 * 3);
}
