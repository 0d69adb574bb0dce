//! Pub-sub ticker: one publisher, in-machine subscribers, and one
//! external CCS subscriber, all over a chosen delivery guarantee.
//!
//! PE 0 publishes a monotonically increasing tick on the `"ticker"`
//! topic while PEs 1..3 subscribe local callbacks and an external
//! client subscribes through the CCS server (`pubsub.subscribe`),
//! consuming the stream of [`STREAM`]-status reply frames with
//! `CcsClient::stream_each`. The interconnect runs under a drop-0.2
//! fault plan so the guarantee actually matters:
//!
//! * `--guarantee exactly-once` — every tick reaches every subscriber,
//!   in order (drops are retransmitted).
//! * `--guarantee at-most-once` — dropped ticks are shed; subscribers
//!   see gaps but never duplicates or reordering.
//! * `--guarantee latest` — a fresh tick supersedes a stale one still
//!   queued or in flight; subscribers may skip ticks but always
//!   converge on the newest value.
//!
//! ```sh
//! cargo run --example pubsub_ticker -- --guarantee latest
//! ```
//!
//! [`STREAM`]: converse::ccs::status::STREAM

use converse::ccs::{self, pubsub, CcsClient, CcsRegistry, CcsServer, CcsServerConfig};
use converse::machine::{Delivery, FaultPlan};
use converse::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PES: usize = 4;
/// Frames the external client consumes before asking for shutdown.
const CLIENT_FRAMES: usize = 8;
/// The external subscription lands on this PE.
const SUB_PE: usize = 2;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let guarantee = match args.iter().position(|a| a == "--guarantee") {
        Some(i) => match args.get(i + 1).and_then(|s| Delivery::parse(s)) {
            Some(d) => d,
            _ => {
                eprintln!("--guarantee wants exactly-once|at-most-once|latest");
                std::process::exit(2);
            }
        },
        None => Delivery::ExactlyOnce,
    };
    println!("ticker topic guarantee: {}", guarantee.label());

    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    // The external subscriber: a plain TCP client outside the machine.
    let client = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut sub = CcsClient::connect(addr).expect("connect");
        sub.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Subscribe (retrying the races while PEs register names). Each
        // published tick then arrives as one STREAM frame; stop after
        // CLIENT_FRAMES by returning false and dropping the connection.
        let mut ticks: Vec<u64> = Vec::new();
        loop {
            let ticket = sub.submit("pubsub.subscribe", SUB_PE, b"ticker").unwrap();
            match sub.stream_each(ticket, |frame| {
                ticks.push(u64::from_le_bytes(frame.try_into().expect("8-byte tick")));
                ticks.len() < CLIENT_FRAMES
            }) {
                Ok(_) if ticks.len() >= CLIENT_FRAMES => break,
                Ok(_) | Err(ccs::CcsError::Status { .. }) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("subscribe failed: {e}"),
            }
        }
        drop(sub); // abandons the stream; the server sheds the dead sink
        println!("client: streamed ticks {ticks:?}");
        assert!(
            ticks.windows(2).all(|w| w[0] < w[1]),
            "per-channel floor: streamed ticks must be strictly increasing"
        );

        // Fresh connection for the shutdown call — the subscription
        // socket may still hold in-flight stream frames.
        let mut ctl = CcsClient::connect(addr).expect("connect");
        ctl.set_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(ctl.call("shutdown", 0, b"").unwrap(), b"bye");
        println!("client: done, machine asked to exit");
    });

    // Lossy wire, so the chosen guarantee shows its character.
    let plan = FaultPlan::lossy(7, 0.2, 0.0, 0.0, 0);

    let stop = Arc::new(AtomicBool::new(false));
    let report = converse::core::run_with(
        MachineConfig::new(PES)
            .faults(plan)
            .attach(Box::new(server))
            .capture_output(),
        move |pe| {
            pubsub::init(pe, Some(&registry));
            pubsub::assert_topic(pe, "ticker", guarantee);
            let stop = stop.clone();
            let exit = {
                let stop = stop.clone();
                pe.register_handler(move |pe, _msg| {
                    stop.store(true, Ordering::SeqCst);
                    csd_exit_scheduler(pe);
                })
            };
            registry.register(pe, "shutdown", move |pe, _msg| {
                if let Some(token) = ccs::current_token(pe) {
                    ccs::send_reply(pe, token, b"bye");
                }
                for dst in 0..pe.num_pes() {
                    pe.sync_send_and_free(dst, Message::new(exit, &[]));
                }
            });

            // Every PE but the publisher subscribes a counting callback.
            let seen = Arc::new(AtomicU64::new(0));
            let last = Arc::new(AtomicU64::new(0));
            if pe.my_pe() != 0 {
                let (seen, last) = (seen.clone(), last.clone());
                pubsub::subscribe(pe, "ticker", move |_pe, value| {
                    let tick = u64::from_le_bytes(value.try_into().expect("8-byte tick"));
                    seen.fetch_add(1, Ordering::SeqCst);
                    // The per-channel floor delivers monotonically.
                    assert!(last.swap(tick + 1, Ordering::SeqCst) <= tick);
                });
            }
            pe.barrier();

            if pe.my_pe() == 0 {
                // Publish until the external client asks for shutdown,
                // interleaving with the scheduler so announcements, the
                // CCS subscription, and the exit broadcast all dispatch.
                let t0 = Instant::now();
                let mut tick = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    assert!(
                        t0.elapsed() < Duration::from_secs(30),
                        "client never asked for shutdown"
                    );
                    if pubsub::known_subscriber_pes(pe, "ticker") >= PES - 1 {
                        pubsub::publish(pe, "ticker", &tick.to_le_bytes());
                        tick += 1;
                    }
                    csd_scheduler_until_idle(pe);
                    std::thread::sleep(Duration::from_micros(300));
                }
                pe.cmi_printf(format!("PE 0: published {tick} ticks"));
            } else {
                csd_scheduler(pe, -1);
                pe.cmi_printf(format!(
                    "PE {}: {} ticks delivered, last value {}",
                    pe.my_pe(),
                    seen.load(Ordering::SeqCst),
                    last.load(Ordering::SeqCst).saturating_sub(1),
                ));
            }
            pe.barrier();
        },
    );

    client.join().expect("client thread");
    for line in &report.output {
        println!("{line}");
    }
    println!(
        "machine ran: {} messages, {} bytes, {:?}",
        report.total_msgs(),
        report.total_bytes(),
        report.elapsed
    );
}
