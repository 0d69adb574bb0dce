//! One tag per task, each used once — the tSM case: the message
//! manager's memory is flat over any number of fresh tags.
//!
//! This binary installs the census's counting `#[global_allocator]`;
//! allocator calls count on the test's own thread (the harness's thread
//! allocates while a test runs).

use converse_msgmgr::MsgManager;
use parking_lot::census;

#[global_allocator]
static GLOBAL: census::Counting = census::Counting;

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
    let before = census::allocs();
    pass(&mut mm, 1_000..101_000);
    let calls = census::allocs() - before;
    assert_eq!(calls, 0, "allocator calls over 100 000 fresh tags");
    assert_eq!(mm.len(), 16 * 3);
}
