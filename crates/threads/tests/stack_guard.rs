//! A fiber's stack ends in a guard page: a run that outgrows its stack
//! dies by `SIGSEGV` at the guard, as on an OS thread's stack, before it
//! can write over the memory below the stack and carry on.
//!
//! Each overflow runs in a child: the test binary re-executes itself
//! with [`CHILD`] naming what to overflow — a bare 16 KiB fiber, then a
//! thread object with a 16 KiB stack on the fiber backend — and the
//! parent checks how the child ended and what it printed.

#![cfg(all(target_arch = "x86_64", unix))]

use converse_fiber::Fiber;
use converse_machine::{run_with, MachineConfig, ThreadBackend};
use converse_threads::{cth_create_of_size, cth_resume};
use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

/// Set in the child: what it overflows (`fiber` or `thread`).
const CHILD: &str = "CONVERSE_STACK_OVERFLOW_CHILD";
const STACK: usize = 16 * 1024;
/// Frames of more than 1 KiB each: about twice the stack.
const DEPTH: usize = 32;
const SIGSEGV: i32 = 11;

/// Recurse `depth` frames, each writing a 1 KiB array of its own.
#[inline(never)]
fn deep(depth: usize) -> u64 {
    let mut frame = [depth as u8; 1024];
    black_box(&mut frame);
    if depth == 0 {
        return u64::from(frame[0]);
    }
    deep(depth - 1) + u64::from(black_box(&frame)[depth])
}

/// Bytes of a buffer allocated just before the stack, so that a stack
/// carved out of the heap lies right above it.
const NEIGHBOUR: usize = 64 * 1024;

/// The child's side: overflow `what`, printing a line before and one
/// after, which reports what became of the neighbour buffer (before the
/// stack is freed: a heap-carved stack's own chunk header is overwritten
/// too). The second line must never appear.
fn overflow(what: &str) {
    match what {
        "fiber" => {
            let neighbour = vec![0xA5u8; NEIGHBOUR];
            let mut fiber = Fiber::new(STACK, |_| {
                black_box(deep(DEPTH));
            });
            println!("overflowing a fiber");
            fiber.resume();
            survived("fiber", &neighbour);
        }
        "thread" => {
            let cfg = MachineConfig::new(1).thread_backend(ThreadBackend::Fiber);
            run_with(cfg, move |pe| {
                let t = cth_create_of_size(
                    pe,
                    |_| {
                        black_box(deep(DEPTH));
                    },
                    STACK,
                );
                // Allocated on the PE's thread, like the stack.
                let neighbour = vec![0xA5u8; NEIGHBOUR];
                println!("overflowing a thread");
                cth_resume(pe, &t);
                survived("thread", &neighbour);
            });
        }
        _ => unreachable!("unknown child {what}"),
    }
}

fn survived(what: &str, neighbour: &[u8]) {
    let overwritten = neighbour.iter().filter(|&&b| b != 0xA5).count();
    println!("survived the overflow of a {what}: {overwritten} bytes of its neighbour overwritten");
}

#[test]
fn an_overflow_faults_at_the_guard() {
    if let Ok(what) = std::env::var(CHILD) {
        return overflow(&what);
    }
    let exe = std::env::current_exe().expect("test binary path");
    for what in ["fiber", "thread"] {
        // Through a shell only to turn core dumps off for the child.
        let out = Command::new("sh")
            .args(["-c", "ulimit -c 0; exec \"$0\" \"$@\""])
            .arg(&exe)
            .args([
                "an_overflow_faults_at_the_guard",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(CHILD, what)
            .output()
            .expect("re-execute the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let report = format!(
            "{what}: {:?}\n--- stdout\n{stdout}--- stderr\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains(&format!("overflowing a {what}")),
            "the child reached the overflow: {report}"
        );
        assert!(
            !stdout.contains("survived"),
            "nothing runs past the overflow: {report}"
        );
        assert_eq!(out.status.signal(), Some(SIGSEGV), "{report}");
    }
}
