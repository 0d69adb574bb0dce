//! Protocol tests with hub and endpoints in one process (threads stand
//! in for worker processes). The real multi-process path is exercised
//! by `converse-machine`'s socket transport tests; these pin the frame
//! protocol itself — bootstrap barrier, routing, a fault plan applied
//! where a message enters its rank, teardown — without the exec
//! machinery.

use converse_net::{Channel, CmiTransport, DeliveryMode, FaultPlan, LinkFaults};
use converse_trace::NullSink;
use converse_wire::{WireEndpoint, WireHub, WorkerReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_exit(ep: &Arc<WireEndpoint>, rank: usize) {
    let report = WorkerReport {
        rank,
        traffic: ep.local().traffic(rank),
        faults: ep.fault_stats(),
        output: Vec::new(),
    };
    ep.send_exit(&report.encode());
    assert!(ep.wait_fin(Duration::from_secs(20)), "rank {rank}: no FIN");
}

/// Run `n` endpoint bodies against a hub, all in this process.
fn run_machine(
    n: usize,
    plan: Option<FaultPlan>,
    body: impl Fn(Arc<WireEndpoint>, usize) + Send + Sync + 'static,
) -> Vec<WorkerReport> {
    let hub = WireHub::bind(n).expect("bind hub");
    let addr = hub.addr().to_string();
    let body = Arc::new(body);
    let mut joins = Vec::new();
    for rank in 0..n {
        let addr = addr.clone();
        let plan = plan.clone();
        let body = body.clone();
        joins.push(std::thread::spawn(move || {
            let ep = WireEndpoint::connect(
                rank,
                n,
                &addr,
                DeliveryMode::Fifo,
                plan,
                Arc::new(NullSink),
                None,
            )
            .expect("connect");
            body(ep.clone(), rank);
            worker_exit(&ep, rank);
        }));
    }
    let reports = hub.run(|| None).expect("hub run");
    for j in joins {
        j.join().expect("worker thread");
    }
    reports
}

#[test]
fn two_ranks_exchange_messages_and_exit_cleanly() {
    let reports = run_machine(2, None, |ep, rank| {
        let peer = 1 - rank;
        ep.send_on(
            rank,
            peer,
            format!("hi from {rank}").into_bytes().into(),
            Channel::DEFAULT,
        );
        let p = ep
            .local()
            .recv_timeout(rank, Duration::from_secs(10))
            .expect("peer message");
        assert_eq!(p.src, peer);
        assert_eq!(p.bytes(), format!("hi from {peer}").as_bytes());
    });
    assert_eq!(reports.len(), 2);
    for (rank, r) in reports.iter().enumerate() {
        assert_eq!(r.rank, rank);
        assert_eq!(r.traffic.msgs_sent, 1);
        assert_eq!(r.traffic.msgs_recv, 1);
    }
}

#[test]
fn lossy_wire_delivers_exactly_once_in_order() {
    let n = 3;
    let per_link = 120u64;
    let plan = FaultPlan::new(1996).faults(LinkFaults {
        drop: 0.25,
        dup: 0.2,
        delay: 0.2,
        max_delay_slots: 3,
    });
    let reports = run_machine(n, Some(plan), move |ep, rank| {
        // Every rank streams a numbered sequence to every other rank.
        for dst in 0..n {
            if dst == rank {
                continue;
            }
            for i in 0..per_link {
                let mut payload = vec![rank as u8];
                payload.extend_from_slice(&i.to_le_bytes());
                ep.send_on(rank, dst, payload.into(), Channel::DEFAULT);
            }
        }
        // Expect exactly per_link messages from each peer, in order.
        let mut next = vec![0u64; n];
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut remaining = per_link * (n as u64 - 1);
        while remaining > 0 {
            assert!(Instant::now() < deadline, "rank {rank}: timed out");
            let Some(p) = ep.local().recv_timeout(rank, Duration::from_millis(200)) else {
                continue;
            };
            let src = p.bytes()[0] as usize;
            let i = u64::from_le_bytes(p.bytes()[1..9].try_into().unwrap());
            assert_eq!(
                i, next[src],
                "rank {rank}: out-of-order or duplicated delivery from {src}"
            );
            next[src] += 1;
            remaining -= 1;
        }
    });
    let total_faults: u64 = reports
        .iter()
        .map(|r| r.faults.dropped + r.faults.duplicated + r.faults.delayed)
        .sum();
    assert!(
        total_faults > 0,
        "the fault plane injected nothing — the test proved nothing"
    );
    for r in &reports {
        assert_eq!(r.traffic.msgs_recv, per_link * (n as u64 - 1));
    }
}

#[test]
fn broadcast_reaches_every_rank_as_copies() {
    let reports = run_machine(3, None, |ep, rank| {
        assert!(!ep.shared_memory());
        assert_eq!(ep.name(), "socket");
        if rank == 0 {
            ep.broadcast(0, b"fanout".as_slice().into(), false);
        } else {
            let p = ep
                .local()
                .recv_timeout(rank, Duration::from_secs(10))
                .expect("broadcast arrival");
            assert_eq!(p.src, 0);
            assert_eq!(p.bytes(), b"fanout");
        }
    });
    assert_eq!(reports[0].traffic.msgs_sent, 2);
}

#[test]
fn remote_stall_routes_over_the_wire() {
    run_machine(2, None, |ep, rank| {
        if rank == 0 {
            ep.stall_for(1, Duration::from_millis(300));
            ep.send_on(0, 1, b"after stall".as_slice().into(), Channel::DEFAULT);
        } else {
            // Give the STALL frame time to arrive and arm.
            std::thread::sleep(Duration::from_millis(100));
            let armed = ep.local().stalled(1);
            let t0 = Instant::now();
            let p = ep
                .local()
                .recv_timeout(1, Duration::from_secs(10))
                .expect("message after stall");
            assert_eq!(p.bytes(), b"after stall");
            if armed {
                assert!(
                    t0.elapsed() >= Duration::from_millis(100),
                    "stall window did not hold delivery"
                );
            }
        }
    });
}

#[test]
fn worker_abort_fans_out_to_peers() {
    let n = 2;
    let hub = WireHub::bind(n).expect("bind hub");
    let addr = hub.addr().to_string();
    let mut joins = Vec::new();
    for rank in 0..n {
        let addr = addr.clone();
        joins.push(std::thread::spawn(move || {
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
            if rank == 0 {
                ep.send_abort("entry panicked: boom");
                false
            } else {
                // The peer must be woken out of a blocking receive.
                let p = ep.local().recv_timeout(rank, Duration::from_secs(20));
                assert!(p.is_none(), "no message was ever sent");
                assert!(ep.local().is_closed(), "abort must close the mailbox");
                ep.aborted().is_some()
            }
        }));
    }
    let err = hub.run(|| None).expect_err("hub must report the panic");
    match err {
        converse_wire::HubFailure::Panicked { rank, msg } => {
            assert_eq!(rank, 0);
            assert!(msg.contains("boom"), "lost the panic message: {msg}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let saw: Vec<bool> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    assert!(saw[1], "rank 1 never observed the abort");
}

/// Rank 0 is a real endpoint under `plan`, rank 1 a raw socket that
/// says HELLO and then whatever `peer` writes; `shm` gives rank 0 a ring
/// data plane. Returns rank 0's abort message once it has one, and what
/// the hub made of the run.
fn run_against_raw_peer(
    plan: Option<FaultPlan>,
    shm: Option<converse_wire::ShmPlane>,
    peer: impl FnOnce(&mut std::net::TcpStream) + Send + 'static,
) -> (String, converse_wire::HubFailure) {
    use converse_msg::{write_frame, FrameHeader};
    use converse_wire::kind;
    let hub = WireHub::bind(2).expect("bind hub");
    let addr = hub.addr().to_string();
    let raw_addr = addr.clone();
    // The peer writes only once rank 0 has its abort hook installed.
    let (hooked_tx, hooked_rx) = std::sync::mpsc::channel::<()>();
    let raw = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(raw_addr).expect("raw connect");
        write_frame(&mut s, FrameHeader::new(kind::HELLO, 1, 0, 0), b"").expect("hello");
        let go = converse_msg::read_frame(&mut s).expect("read GO");
        assert_eq!(go.expect("GO frame").0.kind, kind::GO);
        hooked_rx.recv().expect("rank 0 connected");
        peer(&mut s);
        // Hold the connection until the hub tears it down, so the only
        // failure it can report is the one rank 0 raises.
        while let Ok(Some(_)) = converse_msg::read_frame(&mut s) {}
    });
    let real = std::thread::spawn(move || {
        let ep = WireEndpoint::connect(
            0,
            2,
            &addr,
            DeliveryMode::Fifo,
            plan,
            Arc::new(NullSink),
            shm,
        )
        .expect("connect");
        let hooked = Arc::new(std::sync::Mutex::new(None));
        let h = hooked.clone();
        ep.set_abort_hook(Box::new(move |m| *h.lock().unwrap() = Some(m.to_string())));
        hooked_tx.send(()).expect("raw peer is waiting");
        let deadline = Instant::now() + Duration::from_secs(2);
        while ep.aborted().is_none() {
            if Instant::now() >= deadline {
                // Fail the run at the hub too, so a missing abort fails
                // the test instead of leaving the hub waiting forever.
                ep.send_abort("no abort within 2 s");
                panic!("no abort within 2 s");
            }
            // Waiting on the mailbox sweeps the rings, as a PE does.
            ep.local().recv_timeout(0, Duration::from_millis(5));
        }
        assert!(
            ep.local().is_closed(),
            "a failed machine closes the mailbox"
        );
        let msg = ep.aborted().unwrap();
        assert_eq!(hooked.lock().unwrap().as_deref(), Some(msg.as_str()));
        msg
    });
    let failure = hub.run(|| None).expect_err("the run failed");
    let msg = real
        .join()
        .expect("no thread of the endpoint's owner panicked");
    raw.join().expect("raw peer");
    (msg, failure)
}

#[test]
fn a_frame_from_a_rank_outside_the_machine_fails_the_run_not_the_reader() {
    use converse_msg::{write_frame, FrameHeader};
    use converse_wire::kind;
    let (msg, failure) = run_against_raw_peer(Some(FaultPlan::new(1)), None, |s| {
        // `src` indexes the endpoint's link tables; 7 is not a rank of
        // a 2-PE machine. A valid frame follows it.
        write_frame(s, FrameHeader::new(kind::DATA, 7, 0, 1), b"bad").expect("bad frame");
        write_frame(s, FrameHeader::new(kind::DATA, 1, 0, 1), b"good").expect("good frame");
    });
    assert!(msg.contains("DATA frame from rank 7 of 2"), "{msg}");
    match failure {
        converse_wire::HubFailure::Panicked { rank: 0, msg } => {
            assert!(msg.contains("DATA frame from rank 7 of 2"), "{msg}")
        }
        other => panic!("the launcher must hear what failed, got {other:?}"),
    }
}

#[test]
fn a_misaddressed_or_short_control_frame_fails_the_run_too() {
    use converse_msg::{write_frame, FrameHeader};
    use converse_wire::kind;
    // The hub routes by `dst`, so a misaddressed frame can only reach a
    // rank over a ring; over the socket the bad field is `src` again.
    // A well-addressed STALL (kind byte 5) must carry its 8-byte window
    // length, and a DATA frame must name a delivery guarantee (0, 1 or
    // 2). A well-formed STALL fails nothing, under a plan or not: only
    // the bad frame behind it does.
    let stall = |src| FrameHeader::new(5, src, 0, 0);
    type Frames = Vec<(FrameHeader, &'static [u8])>;
    let cases: [(Frames, &str); 4] = [
        (
            vec![(stall(u32::MAX), &[1, 0, 0, 0, 0, 0, 0, 0])],
            "STALL frame from rank 4294967295 of 2",
        ),
        (
            vec![(stall(1), &[1, 2, 3])],
            "STALL frame from rank 1 carries 3 payload bytes, not 8",
        ),
        (
            vec![(FrameHeader::new(kind::DATA, 1, 0, 0).on_channel(0, 3), b"x")],
            "DATA frame from rank 1 carries guarantee byte 3",
        ),
        (
            vec![
                (stall(1), &[2, 0, 0, 0, 0, 0, 0, 0]),
                (FrameHeader::new(kind::DATA, 7, 0, 1), b"bad"),
            ],
            "DATA frame from rank 7 of 2",
        ),
    ];
    for plan in [Some(FaultPlan::new(1)), None] {
        for (frames, named) in &cases {
            let frames = frames.clone();
            let (msg, _) = run_against_raw_peer(plan.clone(), None, move |s| {
                for (header, payload) in frames {
                    write_frame(s, header, payload).expect("frame");
                }
            });
            assert!(msg.contains(named), "{msg}");
        }
    }
}

#[test]
fn a_ring_record_is_checked_like_a_socket_frame() {
    use converse_msg::FrameHeader;
    use converse_wire::{kind, PushOutcome, ShmPlane, ShmRegion};
    if !converse_wire::SHM_SUPPORTED {
        return;
    }
    let region = Arc::new(ShmRegion::create(2, 1 << 16).expect("shm region"));
    let peer_plane = ShmPlane::new(region.clone(), 1, 0);
    let (msg, _) = run_against_raw_peer(
        Some(FaultPlan::new(1)),
        Some(ShmPlane::new(region, 0, 0)),
        move |_| {
            // The ring hands the record's header to the endpoint verbatim:
            // pushed into ring 1 → 0, but addressed to (and from) nobody.
            let never = std::sync::atomic::AtomicBool::new(false);
            let h = FrameHeader::new(kind::DATA, 9, 5, 1);
            assert_eq!(
                peer_plane.push(0, h, b"x", false, &never),
                PushOutcome::Sent
            );
        },
    );
    assert!(
        msg.contains("DATA frame from rank 9 of 2 addressed to rank 5"),
        "{msg}"
    );
}

#[test]
fn an_exit_report_naming_another_rank_fails_the_run() {
    let hub = WireHub::bind(2).expect("bind hub");
    let addr = hub.addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|rank| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let ep = WireEndpoint::connect(
                    rank,
                    2,
                    &addr,
                    DeliveryMode::Fifo,
                    None,
                    Arc::new(NullSink),
                    None,
                )
                .expect("connect");
                // Both reports say rank 0: rank 1's is filed under a
                // rank it does not name.
                ep.send_exit(&WorkerReport::default().encode());
                ep.wait_fin(Duration::from_secs(5));
            })
        })
        .collect();
    match hub.run(|| None) {
        Err(converse_wire::HubFailure::Bootstrap {
            rank: Some(1),
            detail,
        }) => assert!(
            detail.contains("malformed EXIT report: it names rank 0"),
            "{detail}"
        ),
        other => panic!("a misfiled report must fail the run, got {other:?}"),
    }
    for w in workers {
        w.join().expect("worker thread");
    }
}

#[test]
fn a_frame_addressed_outside_the_machine_fails_the_run_naming_its_sender() {
    use converse_msg::{write_frame, FrameHeader};
    use converse_wire::kind;
    let (msg, failure) = run_against_raw_peer(Some(FaultPlan::new(1)), None, |s| {
        // The hub routes by `dst`, and 5 is not a rank of a 2-PE
        // machine: no worker can ever receive this frame.
        write_frame(s, FrameHeader::new(kind::DATA, 1, 5, 1), b"lost").expect("frame");
    });
    assert!(msg.contains("aborted by peer"), "{msg}");
    match failure {
        converse_wire::HubFailure::Bootstrap {
            rank: Some(1),
            detail,
        } => assert!(
            detail.contains("DATA frame addressed to rank 5 of 2"),
            "{detail}"
        ),
        other => panic!("the hub must fail the run and name the sender, got {other:?}"),
    }
}

#[test]
fn a_silent_connection_does_not_hold_the_bootstrap() {
    use std::io::Read;
    let hub = WireHub::bind(2).expect("bind hub");
    let addr = hub.addr().to_string();
    // Accepted ahead of both workers, and then says nothing.
    let mut silent = std::net::TcpStream::connect(&addr).expect("connect");
    let t0 = Instant::now();
    let workers: Vec<_> = (0..2)
        .map(|rank| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let ep = WireEndpoint::connect(
                    rank,
                    2,
                    &addr,
                    DeliveryMode::Fifo,
                    None,
                    Arc::new(NullSink),
                    None,
                )
                .expect("connect");
                worker_exit(&ep, rank);
            })
        })
        .collect();
    let reports = hub
        .run(|| None)
        .expect("the machine assembles around a silent connection");
    assert_eq!(reports.len(), 2);
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "the silent connection held the bootstrap for {:?}",
        t0.elapsed()
    );
    for w in workers {
        w.join().expect("worker thread");
    }
    // Dropped at GO: the end of its stream, with nothing before it.
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut got = Vec::new();
    silent.read_to_end(&mut got).expect("the hub closed it");
    assert!(
        got.is_empty(),
        "a connection that said no HELLO got {got:?}"
    );
}

#[test]
fn a_stranger_whose_first_frame_is_not_a_hello_fails_the_bootstrap() {
    use converse_msg::{write_frame, FrameHeader};
    use converse_wire::kind;
    let hub = WireHub::bind(2).expect("bind hub");
    let mut stranger = std::net::TcpStream::connect(hub.addr()).expect("connect");
    write_frame(&mut stranger, FrameHeader::new(kind::DATA, 0, 1, 0), b"hi").expect("frame");
    let t0 = Instant::now();
    match hub.run(|| None) {
        Err(converse_wire::HubFailure::Bootstrap { rank: None, detail }) => {
            assert!(detail.contains("expected HELLO"), "{detail}")
        }
        other => panic!("a stranger's frame must fail the bootstrap, got {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "{:?}", t0.elapsed());
}
