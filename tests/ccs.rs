//! CCS integration tests: external clients over real TCP driving a
//! running multi-PE machine.

use converse::ccs::{self, CcsClient, CcsError, CcsRegistry, CcsServer, CcsServerConfig, Reply};
use converse::charm::{Chare, ChareId, Charm};
use converse::ldb::LdbPolicy;
use converse::machine::DeliveryMode;
use converse::prelude::*;
use std::time::Duration;

const COUNTER_KEY: u32 = 77;
const EP_ADD: u32 = 1;

/// Call with retry: early requests race PE-side registration (the
/// listener is up before the PEs have registered handlers or the chare
/// has published its id), so name-resolution failures retry briefly.
fn call_retry(c: &mut CcsClient, name: &str, pe: usize, payload: &[u8]) -> Vec<u8> {
    for _ in 0..400 {
        match c.call(name, pe, payload) {
            Ok(bytes) => return bytes,
            Err(CcsError::Status { code, .. }) if code == ccs::status::UNKNOWN_HANDLER => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("ccs call {name:?} failed: {e}"),
        }
    }
    panic!("ccs call {name:?} still unresolved after retries");
}

/// A chare accumulating u64 increments, exported over CCS.
struct Counter {
    total: u64,
}

impl Chare for Counter {
    fn new(pe: &Pe, self_id: ChareId, _payload: &[u8]) -> Self {
        Charm::get(pe).publish_readonly(pe, COUNTER_KEY, &self_id.encode());
        Counter { total: 0 }
    }

    fn entry(&mut self, pe: &Pe, _id: ChareId, ep: u32, payload: &[u8]) {
        assert_eq!(ep, EP_ADD);
        let (token, body) = ccs::entry_request(payload).expect("bridged payload");
        self.total += u64::from_le_bytes(body.try_into().expect("u64 increment"));
        ccs::send_reply(pe, token, &self.total.to_le_bytes());
    }
}

/// Per-PE setup shared by the tests. Registration order is identical on
/// every PE, as the handler-table discipline requires.
fn serve(pe: &Pe, registry: &CcsRegistry) {
    let charm = Charm::install(pe, LdbPolicy::Direct);
    let kind = charm.register::<Counter>(pe);

    // "echo": immediate reply from the handler itself, tagged with the
    // PE it ran on so tests can assert dest-PE routing.
    registry.register(pe, "echo", |pe, msg| {
        let token = ccs::current_token(pe).expect("dispatched via gateway");
        let mut out = vec![pe.my_pe() as u8];
        out.extend_from_slice(msg.payload());
        ccs::send_reply(pe, token, &out);
    });

    // "exit": fire-and-forget machine shutdown (no reply — under
    // Reorder delivery a reply could legally be outrun by the exit).
    registry.register(pe, "exit", |pe, _msg| {
        Charm::get(pe).exit_all(pe);
    });

    ccs::export_chare_entry(pe, registry, "counter.add", COUNTER_KEY, EP_ADD);

    pe.barrier();
    if pe.my_pe() == 0 {
        charm.create(pe, kind, &[], Priority::None);
    }
    // Every PE can resolve the chare before serving.
    charm.readonly_wait(pe, COUNTER_KEY);
    pe.barrier();
    csd_scheduler(pe, -1);
}

#[test]
fn client_invokes_handler_and_chare_entry_end_to_end() {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    let driver = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(20))).unwrap();

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // A registered handler on every PE of the 4-PE machine.
            for pe in 0..4 {
                let r = call_retry(&mut c, "echo", pe, b"ping");
                assert_eq!(
                    r[0] as usize, pe,
                    "reply tagged by the PE that ran the handler"
                );
                assert_eq!(&r[1..], b"ping");
            }
            // A chare entry method, via the Charm bridge; replies carry
            // the running total, so ordering is observable.
            let mut expected = 0u64;
            for inc in [5u64, 7, 30] {
                expected += inc;
                let r = call_retry(&mut c, "counter.add", 0, &inc.to_le_bytes());
                assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), expected);
            }
            // Unknown names are rejected by the server without entering
            // the machine.
            match c.call("no-such-handler", 0, b"") {
                Err(CcsError::Status { code, .. }) => {
                    assert_eq!(code, ccs::status::UNKNOWN_HANDLER)
                }
                other => panic!("expected UNKNOWN_HANDLER, got {other:?}"),
            }
            // Out-of-range PEs likewise.
            match c.call("echo", 99, b"") {
                Err(CcsError::Status { code, .. }) => assert_eq!(code, ccs::status::BAD_PE),
                other => panic!("expected BAD_PE, got {other:?}"),
            }
        }));
        // Always bring the machine down, pass or fail.
        let _ = c.submit("exit", 0, b"");
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    });

    let reg2 = registry.clone();
    converse::core::run_with(MachineConfig::new(4).attach(Box::new(server)), move |pe| {
        serve(pe, &reg2)
    });
    driver.join().expect("driver thread");
}

#[test]
fn concurrent_clients_get_their_own_replies_under_reorder() {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    const CLIENTS: usize = 4;
    const REQS: u64 = 48;

    let driver = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        // Warm up: wait until the machine is serving.
        let mut warm = CcsClient::connect(addr).expect("connect");
        warm.set_timeout(Some(Duration::from_secs(20))).unwrap();
        call_retry(&mut warm, "echo", 0, b"warmup");

        let workers: Vec<_> = (0..CLIENTS)
            .map(|k| {
                std::thread::spawn(move || {
                    let mut c = CcsClient::connect(addr).expect("connect");
                    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
                    // Pipeline everything, spread across all PEs, then
                    // collect in reverse order: replies must be matched
                    // by sequence number, not arrival order.
                    let tickets: Vec<_> = (0..REQS)
                        .map(|i| {
                            let payload = format!("client{k}-req{i}");
                            (
                                i,
                                c.submit("echo", (i as usize) % 4, payload.as_bytes())
                                    .expect("submit"),
                            )
                        })
                        .collect();
                    for (i, t) in tickets.into_iter().rev() {
                        let r = c.wait_ok(t).expect("reply");
                        assert_eq!(
                            r[0] as usize,
                            (i as usize) % 4,
                            "handler ran on the addressed PE"
                        );
                        assert_eq!(
                            &r[1..],
                            format!("client{k}-req{i}").as_bytes(),
                            "reply matches this client's request"
                        );
                    }
                })
            })
            .collect();
        let mut failed = None;
        for w in workers {
            if let Err(p) = w.join() {
                failed.get_or_insert(p);
            }
        }
        let _ = warm.submit("exit", 0, b"");
        if let Some(p) = failed {
            std::panic::resume_unwind(p);
        }
    });

    let reg2 = registry.clone();
    converse::core::run_with(
        MachineConfig::new(4)
            .delivery(DeliveryMode::Reorder {
                seed: 23,
                window: 8,
            })
            .attach(Box::new(server)),
        move |pe| serve(pe, &reg2),
    );
    driver.join().expect("driver thread");
}

#[test]
fn dest_pe_less_requests_avoid_a_hot_pe() {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    const HOT: usize = 2;
    const NAP: Duration = Duration::from_millis(400);

    let driver = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(20))).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            call_retry(&mut c, "whoami", 0, b"");
            // Pin PE 2: one sleep to occupy it, then — once it is
            // certainly inside the handler — two more that sit in its
            // mailbox, keeping its queue depth visibly nonzero.
            let s1 = c.submit("sleep", HOT, b"").expect("submit");
            std::thread::sleep(NAP / 3);
            let s2 = c.submit("sleep", HOT, b"").expect("submit");
            let s3 = c.submit("sleep", HOT, b"").expect("submit");

            // Destination-less requests must route around the hot PE.
            let mut used = std::collections::HashSet::new();
            for _ in 0..6 {
                let r = c.call_any("whoami", b"").expect("routed call");
                let pe = r[0] as usize;
                assert_ne!(pe, HOT, "ANY_PE request landed on the hot PE");
                used.insert(pe);
            }
            assert!(
                used.len() >= 2,
                "load routing should spread across idle PEs, used {used:?}"
            );
            for t in [s1, s2, s3] {
                assert_eq!(c.wait_ok(t).expect("sleep reply"), b"woke");
            }
        }));
        let _ = c.submit("exit", 0, b"");
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    });

    let reg2 = registry.clone();
    converse::core::run_with(MachineConfig::new(4).attach(Box::new(server)), move |pe| {
        let _charm = Charm::install(pe, LdbPolicy::Direct);
        reg2.register(pe, "whoami", |pe, _msg| {
            let token = ccs::current_token(pe).expect("gateway dispatch");
            ccs::send_reply(pe, token, &[pe.my_pe() as u8]);
        });
        reg2.register(pe, "sleep", move |pe, _msg| {
            let token = ccs::current_token(pe).expect("gateway dispatch");
            std::thread::sleep(NAP);
            ccs::send_reply(pe, token, b"woke");
        });
        reg2.register(pe, "exit", |pe, _msg| {
            Charm::get(pe).exit_all(pe);
        });
        pe.barrier();
        csd_scheduler(pe, -1);
    });
    driver.join().expect("driver thread");
}

#[test]
fn pe_panic_tears_down_server_port_and_threads() {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry, CcsServerConfig::default());
    let handle = server.handle();

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        converse::core::run_with(MachineConfig::new(2).attach(Box::new(server)), |pe| {
            pe.barrier();
            if pe.my_pe() == 0 {
                panic!("deliberate PE failure");
            }
            csd_scheduler(pe, -1); // aborted by the panic propagation
        });
    }));
    assert!(
        result.is_err(),
        "the PE panic must propagate out of run_with"
    );

    // The listener must be gone: a fresh connection attempt fails (the
    // CCS service was stopped on the panic path, releasing the port).
    let addr = handle
        .wait_addr(Duration::from_secs(5))
        .expect("server had bound");
    let refused = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2));
    assert!(
        refused.is_err(),
        "CCS port should be closed after PE panic, got {refused:?}"
    );
}

#[test]
fn request_timeout_produces_timeout_status() {
    let registry = CcsRegistry::new();
    let server = CcsServer::new(
        registry.clone(),
        CcsServerConfig {
            request_timeout: Duration::from_millis(150),
            ..CcsServerConfig::default()
        },
    );
    let handle = server.handle();

    let driver = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut c = CcsClient::connect(addr).expect("connect");
        c.set_timeout(Some(Duration::from_secs(20))).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            call_retry(&mut c, "echo", 0, b"up?");
            // "black-hole" never replies → the sweeper must.
            let t = c.submit("black-hole", 0, b"").expect("submit");
            let Reply { status, .. } = c.wait(t).expect("a server-generated reply");
            assert_eq!(status, ccs::status::TIMEOUT);
            // The connection stays usable afterwards.
            let r = call_retry(&mut c, "echo", 1, b"still-alive");
            assert_eq!(&r[1..], b"still-alive");
        }));
        let _ = c.submit("exit", 0, b"");
        if let Err(p) = result {
            std::panic::resume_unwind(p);
        }
    });

    let reg2 = registry.clone();
    converse::core::run_with(MachineConfig::new(2).attach(Box::new(server)), move |pe| {
        let charm = Charm::install(pe, LdbPolicy::Direct);
        let _ = charm;
        registry_basic(pe, &reg2);
        pe.barrier();
        csd_scheduler(pe, -1);
    });
    driver.join().expect("driver thread");
}

/// Minimal registration set for the timeout test (same order everywhere).
fn registry_basic(pe: &Pe, registry: &CcsRegistry) {
    registry.register(pe, "echo", |pe, msg| {
        let token = ccs::current_token(pe).expect("gateway dispatch");
        let mut out = vec![pe.my_pe() as u8];
        out.extend_from_slice(msg.payload());
        ccs::send_reply(pe, token, &out);
    });
    registry.register(pe, "exit", |pe, _msg| {
        Charm::get(pe).exit_all(pe);
    });
    registry.register(pe, "black-hole", |_pe, _msg| {
        // Deliberately never replies; the server's timeout must answer.
    });
}

/// The pub-sub facade end to end: an external client subscribes to a
/// topic through the CCS server, the machine publishes over the
/// topic's delivery channel, and the updates arrive as STREAM reply
/// frames consumed by `stream_each` — plus the error reply for an
/// unasserted topic.
#[test]
fn pubsub_subscription_streams_to_external_client() {
    use converse::ccs::pubsub;
    use converse::machine::Delivery;
    use std::time::Instant;

    const TICKS: u64 = 5;
    let registry = CcsRegistry::new();
    let server = CcsServer::new(registry.clone(), CcsServerConfig::default());
    let handle = server.handle();

    let client = std::thread::spawn(move || {
        let addr = handle
            .wait_addr(Duration::from_secs(10))
            .expect("server bound");
        let mut sub = CcsClient::connect(addr).expect("connect");
        sub.set_timeout(Some(Duration::from_secs(10))).unwrap();

        // Subscribe on PE 1, retrying the registration race. The
        // publisher holds its ticks until the subscription's announce
        // reaches it, so the stream starts at tick 0.
        let mut got: Vec<u64> = Vec::new();
        loop {
            let t = sub.submit("pubsub.subscribe", 1, b"metrics").unwrap();
            match sub.stream_each(t, |frame| {
                got.push(u64::from_le_bytes(frame.try_into().expect("u64 tick")));
                (got.len() as u64) < TICKS
            }) {
                Ok(_) if got.len() as u64 >= TICKS => break,
                Ok(_) | Err(CcsError::Status { .. }) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Err(e) => panic!("subscribe failed: {e}"),
            }
        }
        // Exactly-once topic on a clean wire: the exact tick sequence.
        assert_eq!(got, (0..TICKS).collect::<Vec<_>>());

        // A topic nobody asserted is a clean application-level error.
        let mut ctl = CcsClient::connect(addr).expect("connect");
        ctl.set_timeout(Some(Duration::from_secs(10))).unwrap();
        match ctl.call("pubsub.subscribe", 0, b"no-such-topic") {
            Err(CcsError::Status { code, .. }) => {
                assert_eq!(code, ccs::status::UNKNOWN_HANDLER)
            }
            other => panic!("unasserted topic: expected status error, got {other:?}"),
        }
        assert_eq!(call_retry(&mut ctl, "shutdown", 0, b""), b"bye");
    });

    converse::core::run_with(
        MachineConfig::new(2)
            .attach(Box::new(server))
            .capture_output(),
        move |pe| {
            pubsub::init(pe, Some(&registry));
            pubsub::assert_topic(pe, "metrics", Delivery::ExactlyOnce);
            let exit = pe.register_handler(|pe, _msg| csd_exit_scheduler(pe));
            registry.register(pe, "shutdown", move |pe, _msg| {
                if let Some(token) = ccs::current_token(pe) {
                    ccs::send_reply(pe, token, b"bye");
                }
                for dst in 0..pe.num_pes() {
                    pe.sync_send_and_free(dst, Message::new(exit, &[]));
                }
            });
            pe.barrier();

            if pe.my_pe() == 0 {
                // Publish only after the external subscription (made on
                // PE 1) has announced itself machine-wide.
                let t0 = Instant::now();
                while pubsub::known_subscriber_pes(pe, "metrics") == 0 {
                    assert!(t0.elapsed() < Duration::from_secs(20), "no subscriber");
                    csd_scheduler_until_idle(pe);
                    std::thread::sleep(Duration::from_micros(200));
                }
                for i in 0..TICKS {
                    pubsub::publish(pe, "metrics", &i.to_le_bytes());
                }
            }
            csd_scheduler(pe, -1);
        },
    );
    client.join().expect("client thread");
}
