//! Load generation against the CCS front-end: boots a machine with an
//! echo handler exported over CCS, then drives it with real TCP clients.
//! Driven by the `ccs_throughput` binary.

use converse_ccs::{self as ccs, CcsClient, CcsRegistry, CcsServer, CcsServerConfig};
use converse_core::{csd_exit_scheduler, csd_scheduler, run_with, MachineConfig, Message, Pe};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One benchmark configuration.
pub struct CcsBenchConfig {
    /// PEs in the machine.
    pub pes: usize,
    /// Request payload bytes (the reply echoes them back).
    pub payload: usize,
    /// Closed-loop requests for the latency pass.
    pub latency_reqs: usize,
    /// Concurrent clients in the throughput pass.
    pub throughput_clients: usize,
    /// Pipelined requests per throughput client.
    pub reqs_per_client: usize,
    /// In-flight window per throughput client.
    pub window: usize,
}

/// Measured result of one configuration.
pub struct CcsBenchResult {
    /// PEs in the machine.
    pub pes: usize,
    /// Request payload bytes.
    pub payload: usize,
    /// Pipelined completions per second across all clients.
    pub reqs_per_sec: f64,
    /// Closed-loop median round trip, µs.
    pub p50_us: f64,
    /// Closed-loop 99th-percentile round trip, µs.
    pub p99_us: f64,
    /// Total requests completed in the throughput pass.
    pub throughput_reqs: usize,
}

/// Register the bench's CCS names on a PE — identical order everywhere.
fn register_bench_handlers(pe: &Pe, registry: &CcsRegistry) {
    registry.register(pe, "echo", |pe, msg| {
        let token = ccs::current_token(pe).expect("gateway dispatch");
        ccs::send_reply(pe, token, msg.payload());
    });
    let exit_exec = pe.register_handler(|pe, _msg| csd_exit_scheduler(pe));
    registry.register(pe, "exit", move |pe, _msg| {
        pe.sync_broadcast_all(&Message::new(exit_exec, b""));
    });
}

/// Boot a `pes`-PE machine serving "echo" over CCS and run `driver`
/// with a connected, warmed-up client. The driver must NOT send "exit";
/// teardown is handled here.
fn with_echo_machine<R: Send + 'static>(
    pes: usize,
    server_cfg: CcsServerConfig,
    driver: impl FnOnce(std::net::SocketAddr, &mut CcsClient) -> R + Send + 'static,
) -> R {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), server_cfg);
    let handle = server.handle();

    let worker = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        // Warm up until every PE answers (registration races settle).
        for pe in 0..pes {
            loop {
                match c.call("echo", pe, b"warmup") {
                    Ok(_) => break,
                    Err(ccs::CcsError::Status { .. }) => {
                        std::thread::sleep(Duration::from_millis(2))
                    }
                    Err(e) => panic!("warmup failed: {e}"),
                }
            }
        }
        let out = driver(addr, &mut c);
        let _ = c.submit("exit", 0, b"");
        out
    });

    run_with(
        MachineConfig::new(pes).attach(Box::new(server)),
        move |pe| {
            register_bench_handlers(pe, &registry);
            pe.barrier();
            csd_scheduler(pe, -1);
        },
    );
    worker.join().expect("bench driver thread")
}

/// Run both passes of one configuration.
pub fn run_config(cfg: &CcsBenchConfig) -> CcsBenchResult {
    let pes = cfg.pes;
    let payload = vec![0x5au8; cfg.payload];
    let latency_reqs = cfg.latency_reqs;
    let clients = cfg.throughput_clients;
    let per_client = cfg.reqs_per_client;
    let window = cfg.window;
    let server_cfg = CcsServerConfig {
        max_inflight: window.max(32),
        request_timeout: Duration::from_secs(60),
        ..CcsServerConfig::default()
    };

    let (p50_us, p99_us, reqs_per_sec, total) =
        with_echo_machine(pes, server_cfg, move |addr, c| {
            // Pass 1: closed loop — one request in flight, each timed.
            let mut samples_us: Vec<f64> = Vec::with_capacity(latency_reqs);
            for i in 0..latency_reqs {
                let t0 = Instant::now();
                c.call("echo", i % pes, &payload).expect("latency echo");
                samples_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            samples_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let pct = |p: f64| samples_us[((samples_us.len() - 1) as f64 * p) as usize];

            // Pass 2: pipelined clients, windowed in-flight.
            let total = clients * per_client;
            let t0 = Instant::now();
            let workers: Vec<_> = (0..clients)
                .map(|_| {
                    let payload = payload.clone();
                    std::thread::spawn(move || {
                        let mut c = CcsClient::connect(addr).expect("connect");
                        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
                        let mut inflight = VecDeque::with_capacity(window);
                        for i in 0..per_client {
                            if inflight.len() == window {
                                let t = inflight.pop_front().unwrap();
                                c.wait_ok(t).expect("echo reply");
                            }
                            inflight.push_back(c.submit("echo", i % pes, &payload).unwrap());
                        }
                        for t in inflight {
                            c.wait_ok(t).expect("echo reply");
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().expect("throughput client");
            }
            let elapsed = t0.elapsed();
            (
                pct(0.5),
                pct(0.99),
                total as f64 / elapsed.as_secs_f64(),
                total,
            )
        });

    CcsBenchResult {
        pes: cfg.pes,
        payload: cfg.payload,
        reqs_per_sec,
        p50_us,
        p99_us,
        throughput_reqs: total,
    }
}
