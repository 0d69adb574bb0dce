//! A thread's slot is re-used once it exits. Whatever still names the
//! old occupant — a Csd resume message left on the queue, a handle the
//! user kept — must fail exactly as it did when a thread object was a
//! heap object of its own, and must not reach the slot's new occupant.
//! On each backend.

use converse_core::csd::csd_scheduler;
use converse_machine::Pe;
use converse_msg::Priority;
use converse_threads::table::index_of;
use converse_threads::{
    cth_awaken, cth_create, cth_resume, run_on_each_backend, set_csd_strategy, CthRuntime, Thread,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The message `f` panics with.
fn panic_of(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("must panic");
    let text = payload.downcast_ref::<String>().cloned();
    text.unwrap_or_else(|| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default()
    })
}

/// A thread that exits at once, and the next one created: in the same
/// slot, under another id, counting its runs.
fn an_exited_thread_and_its_slots_next_occupant(pe: &Pe) -> (Thread, Thread, Arc<AtomicU64>) {
    let old = cth_create(pe, |_pe| {});
    cth_resume(pe, &old);
    assert!(old.is_exited());
    let runs = Arc::new(AtomicU64::new(0));
    let r = runs.clone();
    let new = cth_create(pe, move |_pe| {
        r.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        index_of(new.id()),
        index_of(old.id()),
        "the slot is re-used"
    );
    assert_ne!(new.id(), old.id(), "under another generation");
    (old, new, runs)
}

/// The new occupant was neither started nor made ready, and still runs
/// exactly once when asked to.
fn assert_untouched(pe: &Pe, new: &Thread, runs: &AtomicU64) {
    assert!(!new.is_exited());
    assert_eq!(runs.load(Ordering::Relaxed), 0);
    assert_eq!(CthRuntime::get(pe).ready_len(pe), 0);
    assert_eq!(CthRuntime::get(pe).live_len(pe), 1);
    cth_resume(pe, new);
    assert!(new.is_exited());
    assert_eq!(runs.load(Ordering::Relaxed), 1);
}

#[test]
fn a_resume_message_that_outlived_its_thread_finds_no_one() {
    run_on_each_backend(1, |pe| {
        // Awakened twice: the first ready-entry runs the thread to its
        // exit, the second is left naming a thread that is gone.
        let old = cth_create(pe, |_pe| {});
        set_csd_strategy(pe, &old, Priority::None);
        cth_awaken(pe, &old);
        cth_awaken(pe, &old);
        assert_eq!(csd_scheduler(pe, 1), 1);
        assert!(old.is_exited());
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        let new = cth_create(pe, move |_pe| {
            r.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            index_of(new.id()),
            index_of(old.id()),
            "the slot is re-used"
        );
        let said = panic_of(|| {
            csd_scheduler(pe, 1);
        });
        let expect = format!("PE 0: resume message for unknown thread {}", old.id());
        assert_eq!(said, expect);
        assert_untouched(pe, &new, &runs);
    });
}

#[test]
fn awaken_through_a_stale_handle_panics_as_before() {
    run_on_each_backend(1, |pe| {
        let (old, new, runs) = an_exited_thread_and_its_slots_next_occupant(pe);
        let said = panic_of(|| cth_awaken(pe, &old));
        assert_eq!(said, format!("PE 0: awaken of exited thread {}", old.id()));
        assert_untouched(pe, &new, &runs);
    });
}

#[test]
fn resume_through_a_stale_handle_panics_as_before() {
    run_on_each_backend(1, |pe| {
        let (old, new, runs) = an_exited_thread_and_its_slots_next_occupant(pe);
        let said = panic_of(|| cth_resume(pe, &old));
        assert_eq!(said, format!("PE 0: resume of exited thread {}", old.id()));
        assert_untouched(pe, &new, &runs);
    });
}

#[test]
fn a_dropped_handle_is_re_used_and_a_kept_one_is_not() {
    run_on_each_backend(1, |pe| {
        // Kept: the old handle goes on saying what it said.
        let (old, new, runs) = an_exited_thread_and_its_slots_next_occupant(pe);
        assert!(old.is_exited() && old != new);
        assert_untouched(pe, &new, &runs);
        // Dropped: ids still never repeat.
        let mut seen = vec![old.id(), new.id()];
        for _ in 0..100 {
            let t = cth_create(pe, |_pe| {});
            assert!(!seen.contains(&t.id()), "id {} handed out twice", t.id());
            seen.push(t.id());
            cth_resume(pe, &t);
        }
    });
}
