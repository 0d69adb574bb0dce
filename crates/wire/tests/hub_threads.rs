//! The hub routes every worker from the thread that runs it. A worker
//! body reads this process's threads after GO, once a frame from every
//! rank has crossed the hub, and finds none of the hub's: the test
//! thread (the hub's), the workers and their endpoints' readers.
//!
//! Its own test binary, so no other test's threads are counted.

use converse_net::{Channel, CmiTransport, DeliveryMode};
use converse_trace::NullSink;
use converse_wire::{WireEndpoint, WireHub, WorkerReport};
use std::sync::Arc;
use std::time::Duration;

/// The names of this process's threads.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .map(|t| {
            let comm = t.expect("a task").path().join("comm");
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_string()
        })
        .collect()
}

#[test]
fn the_hub_runs_no_thread_per_worker() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return;
    }
    let n = 3;
    let before = threads().len();
    let hub = WireHub::bind(n).expect("bind hub");
    let addr = hub.addr().to_string();
    let workers: Vec<_> = (0..n)
        .map(|rank| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let ep = WireEndpoint::connect(
                    rank,
                    n,
                    &addr,
                    DeliveryMode::Fifo,
                    None,
                    Arc::new(NullSink),
                    None,
                )
                .expect("connect");
                let mut seen = None;
                if rank == 0 {
                    for _ in 1..n {
                        let p = ep.local().recv_timeout(0, Duration::from_secs(10));
                        assert!(p.is_some(), "a frame from every other rank");
                    }
                    seen = Some(threads());
                } else {
                    ep.send_on(rank, 0, b"here".as_slice().into(), Channel::DEFAULT);
                }
                let report = WorkerReport {
                    rank,
                    traffic: ep.local().traffic(rank),
                    faults: ep.fault_stats(),
                    output: Vec::new(),
                };
                ep.send_exit(&report.encode());
                assert!(ep.wait_fin(Duration::from_secs(20)), "rank {rank}: no FIN");
                seen
            })
        })
        .collect();
    hub.run(|| None).expect("hub run");
    let seen = workers
        .into_iter()
        .filter_map(|w| w.join().expect("worker thread"))
        .next()
        .expect("rank 0 counted");
    let hub_threads: Vec<_> = seen.iter().filter(|t| t.starts_with("wire-hub")).collect();
    assert!(hub_threads.is_empty(), "hub threads {hub_threads:?}");
    // Each worker is a thread of this test and has its endpoint's reader.
    assert_eq!(
        seen.len(),
        before + 2 * n,
        "{} threads before the machine, then {seen:?}",
        before
    );
}
