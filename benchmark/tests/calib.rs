//! The calibration kernel: its allocations are the exact counts the
//! segment totals are cleared of, and a batch clock accounts for every
//! slice it runs.

use converse_benchmark::collect::{CountingAlloc, Usage};
use converse_benchmark::harness::{calib_slice, BatchTime, SLICE_ALLOCS, SLICE_ALLOC_BYTES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocator's counters are process-wide: one test at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn a_slice_allocates_exactly_what_the_constants_say() {
    let _alone = alone();
    // The test harness's own threads may allocate while this one counts;
    // that only ever adds, so the smallest of a few counts is the
    // kernel's. The first slices build the thread's queue.
    for _ in 0..4 {
        calib_slice();
    }
    let count = || {
        let before = Usage::now();
        for _ in 0..100 {
            calib_slice();
        }
        let used = Usage::now().since(&before);
        (used.allocs, used.alloc_bytes)
    };
    let least = (0..8).map(|_| count()).min().expect("eight counts");
    assert_eq!(least, (100 * SLICE_ALLOCS, 100 * SLICE_ALLOC_BYTES));
}

#[test]
fn a_batch_clock_times_both_halves_of_every_slice() {
    let _alone = alone();
    let (mut alu_only, mut path_only, mut even) = (
        BatchTime::new(64, 1.0),
        BatchTime::new(64, 0.0),
        BatchTime::new(64, 0.5),
    );
    for t in [&mut alu_only, &mut path_only, &mut even] {
        t.calibrate(64);
        assert_eq!(t.slices(), 64);
        assert!(t.slice_min_ns() > 0);
        assert!(t.calib_wall_ns >= t.slice_min_ns() * 64);
    }
    let (a, p, e) = (alu_only.slowdown(), path_only.slowdown(), even.slowdown());
    for s in [a, p, e] {
        assert!(s.is_finite() && s > 0.0, "slowdown {s}");
    }
    even.ops_ns = 1_000_000;
    assert!((even.reference_ns() - 1e6 / even.slowdown()).abs() < 1e-6);
}

#[test]
#[should_panic(expected = "alu share")]
fn a_share_outside_the_unit_interval_is_refused() {
    let _alone = alone();
    let _ = BatchTime::new(8, 1.5);
}
