//! The binary end to end, in its quick shape.

use std::process::Command;
use std::time::{Duration, Instant};

/// Parse the driver-contract line: returns `(correct, attempted, failed,
/// metric count)`.
fn parse_result(line: &str) -> (bool, u64, u64, usize) {
    let field = |key: &str| -> &str {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        let rest = &line[at..];
        &rest[..rest.find([',', '}']).expect("field end")]
    };
    (
        field("\"correct\": ") == "true",
        field("\"attempted\": ").parse().expect("attempted"),
        field("\"failed\": ").parse().expect("failed"),
        line.matches("\"value\": ").count(),
    )
}

#[test]
fn smoke_runs_every_workload_quickly_and_validates() {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .expect("run benchmark --smoke");
    let took = t0.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "--smoke failed:\n{stdout}");
    for w in [
        "core_1pe",
        "exchange_inproc",
        "exchange_shmring",
        "taskgraph_inproc",
    ] {
        assert!(
            stdout.contains(&format!("{w}: ")) && stdout.contains(", 0 failed"),
            "{w} missing from:\n{stdout}"
        );
    }
    // The budget is for the optimized build a CI job would use.
    if !cfg!(debug_assertions) {
        assert!(took < Duration::from_secs(20), "--smoke took {took:?}");
    }
}

#[test]
fn the_driver_shape_prints_one_result_object_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "core_1pe", "--seed", "7", "--seconds", "1"])
        .args(["--trace", "0"])
        .output()
        .expect("run benchmark");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    let (correct, attempted, failed, metrics) = parse_result(last);
    assert!(correct && attempted > 0 && failed == 0, "{last}");
    assert_eq!(metrics, converse_benchmark::schema::END_TO_END.len());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "pingpong"][..],
        &["--workload", "core_1pe", "--trace", "2"],
        &["--workload", "core_1pe", "--seconds", "0"],
        // Repetition counts are the contract's, not options.
        &["--workload", "core_1pe", "--seconds", "1", "--reps", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("run benchmark");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
