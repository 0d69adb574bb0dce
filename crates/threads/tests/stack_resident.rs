//! A thread object costs the pages its stack touches. Blocked in its
//! first suspend, a thread with a 64 KiB stack keeps about one page of
//! it resident, not the whole stack nor an allocator header page on top
//! of the one it runs in; and once the machine is gone, so are the
//! stacks' mappings.
//!
//! Alone in its test binary: the resident set is the whole process's.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use converse_machine::{run_with, MachineConfig, Pe, ThreadBackend};
use converse_threads::{cth_create_of_size, cth_resume, cth_suspend, CthRuntime};

const LIVE: usize = 256;
const STACK: usize = 64 * 1024;
/// Stack pages a thread touches before it blocks: an optimized build's
/// frames fit in one, an unoptimized build's take two.
const PAGES_TOUCHED: usize = if cfg!(debug_assertions) { 2 } else { 1 };
/// Those pages, and the thread's share of the slot table, with room to
/// spare. A heap-carved stack read ≈ 9 KiB (≈ 13.4 KiB unoptimized): an
/// allocator header page besides the ones touched.
const MAX_RESIDENT_PER_THREAD: usize = PAGES_TOUCHED * 4096 + 2048;

fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<usize>().ok())
        .expect("VmRSS in kB");
    kib * 1024
}

fn mappings() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
    maps.lines().count()
}

/// Start `n` threads that block in their first suspend; return the
/// resident bytes that added and the mappings it made. Then let them
/// exit.
fn block(pe: &Pe, n: usize) -> (usize, usize) {
    let (rss, maps) = (resident_bytes(), mappings());
    let threads: Vec<_> = (0..n)
        .map(|_| cth_create_of_size(pe, cth_suspend, STACK))
        .collect();
    for t in &threads {
        cth_resume(pe, t); // starts, blocks
    }
    assert_eq!(CthRuntime::get(pe).live_len(pe), n);
    let grown = (resident_bytes().saturating_sub(rss), mappings() - maps);
    for t in &threads {
        cth_resume(pe, t); // woken, exits
    }
    grown
}

#[test]
fn a_thread_costs_the_pages_it_touches() {
    let machine = || MachineConfig::new(1).thread_backend(ThreadBackend::Fiber);
    // A first machine brings up what any machine leaves behind (the PE
    // thread's stack, its allocator arena), so that the second one is
    // measured alone.
    run_with(machine(), |pe| {
        block(pe, 1);
    });
    let before = mappings();
    run_with(machine(), |pe| {
        let (resident, mapped) = block(pe, LIVE);
        let per_thread = resident / LIVE;
        println!("{per_thread} B resident and {mapped} mappings for {LIVE} blocked threads");
        assert!(
            per_thread <= MAX_RESIDENT_PER_THREAD,
            "a blocked thread with a {STACK} B stack keeps {per_thread} B resident"
        );
        assert!(
            mapped >= 2 * LIVE,
            "each stack is a mapping of its own below a guard page: {mapped} new for {LIVE}"
        );
    });
    assert_eq!(
        mappings(),
        before,
        "the dropped contexts left mappings behind"
    );
}
