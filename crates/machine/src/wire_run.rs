//! The socket-transport run harness: self-exec launcher and worker.
//!
//! [`Transport::Socket`] splits one logical machine across OS
//! processes, but the program is still *one* binary calling
//! [`crate::run_with`]: the launcher re-executes itself once per rank
//! (the `rusty-fork` idiom) with a `CONVERSE_WORKER` environment role.
//! Each worker process runs the *same* code path up to the same
//! `run_with` call — guaranteed by determinism of the code before the
//! call — then, instead of launching, connects a
//! [`converse_wire::WireEndpoint`] to the hub and runs the entry
//! function as its assigned rank. The launcher routes frames and
//! aggregates worker reports into the same [`RunReport`] shape the
//! in-process transport produces.
//!
//! Because one process (a test, say) may perform several socket runs in
//! sequence, every socket-transport `run_with` call is numbered by a
//! process-wide counter and the target call index rides the worker
//! environment: a worker re-running the earlier calls executes them
//! **in-process** (they are complete, self-contained machines, so the
//! replay is semantically identical), and only the call it was spawned
//! for goes to the wire. The worker exits the process when that call
//! completes — code after it never runs in the worker.
//!
//! Test binaries are handled by the thread-name trick: libtest names
//! each test's thread after the test, so the worker re-invocation is
//! `<exe> <test-name> --exact --nocapture`, re-running exactly one
//! test. Binaries running on the main thread re-use their own argv.
//! Caveat (documented in docs/API.md): under `--test-threads=1`
//! libtest runs tests on the main thread, where the test's name is not
//! recoverable — socket-transport tests need the default threaded
//! harness.

use crate::pe::{MachineShared, Pe, PeerAbort};
use crate::run::{run_in_process, spawn_pe, MachineConfig, RunError, RunReport, Transport};
use converse_net::CmiTransport;
use converse_wire::{
    HubFailure, ShmPlane, ShmRegion, WireEndpoint, WireHub, WorkerReport, GRACE, RING_BYTES,
};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Per-thread count of socket-transport runs; pairs a worker with
    /// the launcher call that spawned it (see the module docs).
    /// Thread-local, not process-global: a test binary runs many tests
    /// concurrently, but a worker re-runs exactly one of them
    /// (`--exact`), so the call index must count only the calls *this*
    /// test makes — which, under the thread-name trick, means calls
    /// from this thread.
    static SOCKET_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Worker exit codes (distinct from 101, the Rust panic code, so a
/// crash report can tell infrastructure failures from program panics).
const EXIT_BAD_ENV: i32 = 81;
const EXIT_CONNECT_FAILED: i32 = 82;

/// True when this process is a socket-transport *worker* (spawned by a
/// launcher, `CONVERSE_WORKER` role) rather than the original program.
///
/// Workers re-execute the program up to the `run_with` call they were
/// spawned for, replaying earlier socket runs in-process — and an
/// earlier run that *failed* in the launcher (worker crash, bootstrap
/// timeout) succeeds in the replay. Code between socket runs that
/// depends on such an outcome (asserting on a crashed run's error,
/// say) must gate itself on this predicate.
pub fn in_socket_worker() -> bool {
    std::env::var_os("CONVERSE_WORKER").is_some()
}

struct WorkerEnv {
    rank: usize,
    npes: usize,
    addr: String,
    call: usize,
    /// Inherited `memfd` of the shared ring region — present exactly
    /// when the call this worker was spawned for is a
    /// [`Transport::ShmRing`] run.
    shm_fd: Option<i32>,
}

fn worker_env() -> Option<WorkerEnv> {
    let rank = std::env::var("CONVERSE_WORKER").ok()?;
    let parse = |k: &str| -> usize {
        std::env::var(k)
            .unwrap_or_default()
            .parse()
            .unwrap_or_else(|_| {
                eprintln!("converse worker: bad or missing {k}");
                std::process::exit(EXIT_BAD_ENV);
            })
    };
    Some(WorkerEnv {
        rank: rank.parse().unwrap_or_else(|_| {
            eprintln!("converse worker: bad CONVERSE_WORKER rank {rank:?}");
            std::process::exit(EXIT_BAD_ENV);
        }),
        npes: parse("CONVERSE_WIRE_NPES"),
        addr: std::env::var("CONVERSE_WIRE_ADDR").unwrap_or_else(|_| {
            eprintln!("converse worker: missing CONVERSE_WIRE_ADDR");
            std::process::exit(EXIT_BAD_ENV);
        }),
        call: parse("CONVERSE_WIRE_CALL"),
        shm_fd: std::env::var("CONVERSE_SHM_FD").ok().map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("converse worker: bad CONVERSE_SHM_FD {s:?}");
                std::process::exit(EXIT_BAD_ENV);
            })
        }),
    })
}

/// Dispatch one `Transport::Socket` / `Transport::ShmRing` run:
/// launcher, worker, or in-process replay of an earlier call inside a
/// worker. Both transports share the hub bootstrap and the self-exec
/// machinery; `ShmRing` additionally maps a shared ring region into
/// every process and routes data frames through it.
pub(crate) fn run_socket<F>(cfg: MachineConfig, entry: F) -> Result<RunReport, RunError>
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    debug_assert!(matches!(
        cfg.transport,
        Transport::Socket | Transport::ShmRing
    ));
    let call = SOCKET_CALLS.with(|c| {
        let v = c.get();
        c.set(v + 1);
        v
    });
    match worker_env() {
        None => run_launcher(cfg, call),
        Some(w) if call < w.call => {
            // An earlier socket run replayed inside a worker process:
            // run it in-process — complete and semantically identical,
            // without recursive process fan-out.
            Ok(run_in_process(cfg, entry))
        }
        Some(w) if call == w.call => run_worker(cfg, entry, w),
        Some(w) => panic!(
            "nested Transport::Socket run (call {call}) inside worker rank {} \
             (spawned for call {}): socket machines cannot launch from worker \
             processes",
            w.rank, w.call
        ),
    }
}

// ---- launcher -----------------------------------------------------------

/// Compute the argv a worker re-invocation needs to reach the same
/// `run_with` call. Inside a test harness the current thread carries
/// the test's name; otherwise re-use this process's own arguments.
fn worker_args() -> Vec<String> {
    match std::thread::current().name() {
        Some(name) if name != "main" && !name.is_empty() => vec![
            name.to_string(),
            "--exact".to_string(),
            "--nocapture".to_string(),
        ],
        _ => std::env::args().skip(1).collect(),
    }
}

fn spawn_worker(
    rank: usize,
    n: usize,
    addr: &str,
    call: usize,
    args: &[String],
    shm_fd: Option<i32>,
) -> std::io::Result<Child> {
    let exe = std::env::current_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args(args)
        .env("CONVERSE_WORKER", rank.to_string())
        .env("CONVERSE_WIRE_NPES", n.to_string())
        .env("CONVERSE_WIRE_ADDR", addr)
        .env("CONVERSE_WIRE_CALL", call.to_string())
        .stdin(Stdio::null());
    if let Some(fd) = shm_fd {
        // The memfd is created without CLOEXEC so the raw descriptor
        // survives into the child; the number rides the environment.
        cmd.env("CONVERSE_SHM_FD", fd.to_string());
    } else {
        // A worker replaying earlier calls must not see a stale fd
        // from an enclosing run's environment.
        cmd.env_remove("CONVERSE_SHM_FD");
    }
    cmd.spawn()
}

fn exit_signal(status: &std::process::ExitStatus) -> Option<i32> {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        status.signal()
    }
    #[cfg(not(unix))]
    {
        None
    }
}

/// Reap every child (indexed by rank): poll for `grace`, then kill and
/// wait the rest. Returns each child's exit status, indexed by rank
/// (always present — kill + wait cannot fail to produce one short of
/// host trouble).
fn reap_children(children: &mut [Child], grace: Duration) -> Vec<Option<std::process::ExitStatus>> {
    let deadline = Instant::now() + grace;
    let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; children.len()];
    loop {
        let mut all = true;
        for (i, child) in children.iter_mut().enumerate() {
            if statuses[i].is_none() {
                match child.try_wait() {
                    Ok(Some(st)) => statuses[i] = Some(st),
                    _ => all = false,
                }
            }
        }
        if all || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for (i, child) in children.iter_mut().enumerate() {
        if statuses[i].is_none() {
            let _ = child.kill();
            statuses[i] = child.wait().ok();
        }
    }
    statuses
}

fn run_launcher(cfg: MachineConfig, call: usize) -> Result<RunReport, RunError> {
    assert!(cfg.num_pes > 0, "a machine needs at least one PE");
    if !cfg.services.is_empty() {
        return Err(RunError::Bootstrap(
            "attached services (CCS etc.) are not supported on Transport::Socket; \
             run them on the in-process transport"
                .into(),
        ));
    }
    if let Some(p) = &cfg.faults {
        p.validate(cfg.num_pes);
    }
    let n = cfg.num_pes;
    let started = Instant::now();
    let hub =
        WireHub::bind(n).map_err(|e| RunError::Bootstrap(format!("bind hub listener: {e}")))?;
    let addr = hub.addr().to_string();
    let args = worker_args();

    // ShmRing: build the ring region up front so every worker inherits
    // its memfd. A 1-PE ring machine has no remote pair, but the region
    // layout assumes n >= 2 — fall back to pure hub routing there.
    let shm_region = if cfg.transport == Transport::ShmRing && n >= 2 {
        Some(
            ShmRegion::create(n, RING_BYTES)
                .map_err(|e| RunError::Bootstrap(format!("create shm ring region: {e}")))?,
        )
    } else {
        None
    };
    let shm_fd = shm_region.as_ref().and_then(|r| r.fd());

    // Indexed by rank.
    let mut children: Vec<Child> = Vec::with_capacity(n);
    for rank in 0..n {
        match spawn_worker(rank, n, &addr, call, &args, shm_fd) {
            Ok(c) => children.push(c),
            Err(e) => {
                reap_children(&mut children, Duration::ZERO);
                return Err(RunError::Bootstrap(format!(
                    "spawn worker process for PE {rank}: {e}"
                )));
            }
        }
    }
    // Every child now holds an inherited copy of the memfd; dropping
    // the launcher's region (close + unmap) leaves the kernel to free
    // the memory when the last worker's mapping goes away.
    drop(shm_region);

    let outcome = {
        // While waiting for HELLOs, notice a child that died before
        // connecting so the bootstrap fails fast instead of timing out.
        let kids = &mut children;
        hub.run(|| {
            for (rank, child) in kids.iter_mut().enumerate() {
                if let Ok(Some(st)) = child.try_wait() {
                    return Some((
                        Some(rank),
                        format!("worker for PE {rank} exited during bootstrap: {st}"),
                    ));
                }
            }
            None
        })
    };

    match outcome {
        Ok(reports) => {
            reap_children(&mut children, GRACE);
            Ok(RunReport {
                traffic: reports.iter().map(|r| r.traffic).collect(),
                fault_stats: reports.iter().map(|r| r.faults).sum(),
                // Cross-process capture interleaves by rank, not by
                // time: each worker's lines arrive as one block.
                output: reports.into_iter().flat_map(|r| r.output).collect(),
                elapsed: started.elapsed(),
            })
        }
        Err(HubFailure::Panicked { rank, msg }) => {
            reap_children(&mut children, GRACE);
            // A PE panic propagates as a panic, matching the
            // in-process transport.
            panic!("PE {rank} (worker process) panicked: {msg}");
        }
        Err(HubFailure::Crashed { rank }) => {
            let status = reap_children(&mut children, GRACE)[rank];
            Err(RunError::WorkerCrashed {
                rank,
                code: status.and_then(|s| s.code()),
                signal: status.as_ref().and_then(exit_signal),
                detail: format!(
                    "connection to PE {rank} hit EOF before EXIT/ABORT; exit status {status:?}"
                ),
            })
        }
        Err(HubFailure::Bootstrap { rank, detail }) => {
            let statuses = reap_children(&mut children, Duration::from_secs(1));
            if let Some(rank) = rank {
                if let Some(st) = statuses[rank] {
                    if !st.success() {
                        return Err(RunError::WorkerCrashed {
                            rank,
                            code: st.code(),
                            signal: exit_signal(&st),
                            detail,
                        });
                    }
                }
            }
            Err(RunError::Bootstrap(detail))
        }
    }
    // `cfg.faults`/`cfg.trace` intentionally unused here: the launcher
    // hosts no PE — each worker rebuilds them from its own replay of
    // the program.
}

// ---- worker -------------------------------------------------------------

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if p.is::<PeerAbort>() {
        "the machine was aborted; no PE panicked".to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The worker role: connect this process's single rank to the hub, run
/// the entry function against the wire endpoint, then speak the
/// teardown protocol. Never returns — the process exits when the run
/// it was spawned for completes.
fn run_worker<F>(mut cfg: MachineConfig, entry: F, w: WorkerEnv) -> Result<RunReport, RunError>
where
    F: Fn(&Pe) + Send + Sync + 'static,
{
    if cfg.num_pes != w.npes {
        eprintln!(
            "converse worker rank {}: config says {} PEs but launcher says {} — \
             the code before run_with diverged between processes",
            w.rank, cfg.num_pes, w.npes
        );
        std::process::exit(EXIT_BAD_ENV);
    }
    if cfg.transport == Transport::ShmRing && w.npes >= 2 && w.shm_fd.is_none() {
        eprintln!(
            "converse worker rank {}: Transport::ShmRing but no CONVERSE_SHM_FD \
             in the environment",
            w.rank
        );
        std::process::exit(EXIT_BAD_ENV);
    }
    let shm_plane = match w.shm_fd {
        Some(fd) if cfg.transport == Transport::ShmRing => {
            // Map the inherited memfd (validating the header) and close
            // the descriptor: the mapping alone keeps the region alive.
            match ShmRegion::adopt(fd, w.npes) {
                Ok(region) => Some(ShmPlane::new(Arc::new(region), w.rank, cfg.idle_spin)),
                Err(e) => {
                    eprintln!("converse worker rank {}: map shm ring region: {e}", w.rank);
                    std::process::exit(EXIT_CONNECT_FAILED);
                }
            }
        }
        _ => None,
    };
    let shared = MachineShared::new(&cfg, 1);
    let endpoint = match WireEndpoint::connect(
        w.rank,
        w.npes,
        &w.addr,
        cfg.delivery,
        cfg.faults.take(),
        cfg.trace.clone(),
        shm_plane,
    ) {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("converse worker rank {}: connect failed: {e}", w.rank);
            std::process::exit(EXIT_CONNECT_FAILED);
        }
    };
    {
        // A peer failure (panic elsewhere, hub loss) unwinds this
        // worker's blocked contexts through the same `check_abort`
        // path the in-process transport uses.
        let shared = shared.clone();
        endpoint.set_abort_hook(Box::new(move |_msg| {
            shared.panicked.store(true, Ordering::Release);
        }));
    }

    let rank = w.rank;
    let net: Arc<dyn CmiTransport> = endpoint.clone();
    let joined = spawn_pe(rank, net, &cfg, &shared, &Arc::new(entry)).join();
    if let Err(p) = joined.and_then(|returned| returned) {
        if endpoint.aborted().is_some() {
            // This worker unwound *because* a peer already failed; the
            // hub has the authoritative first failure.
            std::process::exit(0);
        }
        endpoint.send_abort(&panic_message(p.as_ref()));
        std::process::exit(101);
    }

    // Clean completion. Every remote send has left this process: a
    // socket write returns once written, a ring push once published.
    let report = WorkerReport {
        rank,
        traffic: endpoint.local().traffic(rank),
        faults: endpoint.fault_stats(),
        output: shared.console.captured(),
    };
    endpoint.send_exit(&report.encode());
    // FIN arrives when the *slowest* rank exits — unbounded program
    // time. The wait is still hang-proof: losing the hub (launcher
    // death included) aborts the endpoint and ends the loop.
    loop {
        if endpoint.wait_fin(Duration::from_secs(1)) {
            std::process::exit(0);
        }
        if endpoint.aborted().is_some() {
            std::process::exit(0);
        }
    }
}
