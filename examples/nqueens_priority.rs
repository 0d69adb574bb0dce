//! State-space search with **bit-vector priorities** and seed load
//! balancing — the §2.3 motivation: "state space search problems, where
//! bit-vector priorities are needed to ensure consistent and monotonic
//! speedups".
//!
//! N-queens: every partial placement is a *seed* (a generalized message)
//! deposited with the load balancer; its priority is the path from the
//! root of the search tree encoded as a bit vector, so the global
//! execution order approximates the sequential depth-first order no
//! matter where a seed lands. Quiescence detection announces completion.
//!
//! Seeds forwarded by the balancer are board prefixes and carry the
//! stealable flag, so with `--steal` an idle PE additionally pulls
//! staged seeds from a backlogged peer (idle-PE work stealing rides on
//! top of the balancer's push policy); every PE prints its steal
//! counters. `--transport` picks where the PEs live — threads, socket
//! processes, or processes over shared-memory rings — and the solution
//! total is aggregated from captured per-PE output, which works across
//! process boundaries where shared counters cannot.
//!
//! ```sh
//! cargo run --example nqueens_priority
//! cargo run --example nqueens_priority -- --steal
//! cargo run --example nqueens_priority -- --steal --transport shmring
//! ```

use converse::ldb::{Ldb, LdbPolicy};
use converse::machine::Transport;
use converse::prelude::*;
use converse_trace::MemorySink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const N: usize = 8;
const PES: usize = 4;
/// Bits per tree level in the priority encoding (⌈log2 N⌉).
const LEVEL_BITS: u32 = 3;

fn safe(rows: &[u8], col: u8) -> bool {
    let r = rows.len();
    rows.iter()
        .enumerate()
        .all(|(i, &c)| c != col && (r - i) as i64 != (col as i64 - c as i64).abs())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steal = args.iter().any(|a| a == "--steal");
    let transport = match args.iter().position(|a| a == "--transport") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("socket") => Transport::Socket,
            Some("shmring") => Transport::ShmRing,
            Some("inproc") | None => Transport::InProcess,
            Some(other) => {
                eprintln!("unknown transport {other:?} (want socket|shmring|inproc)");
                std::process::exit(2);
            }
        },
        None => Transport::InProcess,
    };

    // The sink clone captured by the entry closure is the same sink the
    // machine records into — in a worker process, the worker's own.
    let sink = MemorySink::new(PES, 2_000_000);
    let entry_sink = sink.clone();

    let mut cfg = MachineConfig::new(PES)
        .transport(transport)
        .trace(sink.clone())
        .capture_output();
    if steal {
        cfg = cfg.steal(true);
    }

    let report = run_with(cfg, move |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(
            pe,
            LdbPolicy::Spray {
                threshold: 4,
                max_hops: 3,
            },
        );
        // Per-PE counters, created inside the entry: on process-per-PE
        // transports nothing is shared, so each PE counts and prints
        // its own share and the launcher sums the captured lines.
        let sols = Arc::new(AtomicU64::new(0));
        let exps = Arc::new(AtomicU64::new(0));
        let (s2, e2) = (sols.clone(), exps.clone());
        let slot = pe.local(|| parking_lot::Mutex::new(None::<HandlerId>));
        let slot2 = slot.clone();
        let qd2 = qd.clone();

        // A node message: payload = the placed rows so far; priority =
        // the root-to-node path, so siblings expand left-to-right and
        // parents before (deeper) strangers.
        let expand = pe.register_handler(move |pe, msg| {
            let rows = msg.payload().to_vec();
            e2.fetch_add(1, Ordering::Relaxed);
            if rows.len() == N {
                s2.fetch_add(1, Ordering::Relaxed);
            } else {
                let prio = match msg.priority() {
                    Priority::BitVec(bv) => bv,
                    _ => BitVecPrio::root(),
                };
                let h = slot2.lock().unwrap();
                let ldb = Ldb::get(pe);
                for col in 0..N as u8 {
                    if safe(&rows, col) {
                        let mut child = rows.clone();
                        child.push(col);
                        let cprio = prio.child_n(col as u32, LEVEL_BITS);
                        qd2.msg_created(1);
                        ldb.deposit(
                            pe,
                            Message::with_priority(h, &Priority::BitVec(cprio), &child),
                        );
                    }
                }
            }
            qd2.msg_processed(1);
        });
        *slot.lock() = Some(expand);
        let done = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();

        if pe.my_pe() == 0 {
            qd.msg_created(1);
            ldb.deposit(
                pe,
                Message::with_priority(expand, &Priority::BitVec(BitVecPrio::root()), &[]),
            );
            qd.start(pe, Message::new(done, b""));
            csd_scheduler(pe, -1);
            pe.sync_broadcast(&Message::new(done, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
        let me = pe.my_pe();
        let (dep, rooted, fwd) = ldb.stats.snapshot();
        let sum = entry_sink.summary();
        let (steals, stolen) = sum
            .pes
            .get(me)
            .map(|p| (p.steals, p.stolen_msgs))
            .unwrap_or((0, 0));
        pe.cmi_printf(format!(
            "PE {me}: solutions={} expansions={} deposited={dep} rooted={rooted} \
             forwarded={fwd} steals={steals} stolen={stolen}",
            sols.load(Ordering::Relaxed),
            exps.load(Ordering::Relaxed),
        ));
    });

    // Aggregate from the captured lines: the only channel that spans
    // worker processes.
    let field = |line: &str, key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let (mut solutions, mut expansions, mut steals, mut stolen) = (0, 0, 0, 0);
    for line in &report.output {
        println!("{line}");
        solutions += field(line, "solutions=");
        expansions += field(line, "expansions=");
        steals += field(line, "steals=");
        stolen += field(line, "stolen=");
    }
    let tname = match transport {
        Transport::Socket => "socket",
        Transport::ShmRing => "shmring",
        Transport::InProcess => "inproc",
    };
    println!(
        "{N}-queens over {tname}{}: {solutions} solutions, {expansions} nodes expanded, \
         {steals} steals relocating {stolen} seeds, {} messages on the wire, {:?}",
        if steal { " with stealing" } else { "" },
        report.total_msgs(),
        report.elapsed,
    );
    assert_eq!(solutions, 92, "8-queens has 92 solutions");
}
