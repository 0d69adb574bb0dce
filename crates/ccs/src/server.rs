//! The CCS server: a [`MachineService`] that accepts TCP connections
//! and feeds their requests into the machine.
//!
//! Thread structure (all owned by the service, all joined in `stop`):
//!
//! * one **accept** thread on the listening socket;
//! * one **reader** thread per connection, decoding request frames,
//!   resolving names, enforcing the per-connection in-flight bound, and
//!   injecting each request at its destination PE;
//! * one **sweeper** thread expiring requests that outlive the
//!   configured timeout (the handler's late reply, if any, is dropped
//!   at the gateway because the sequence number is no longer in
//!   flight).
//!
//! Replies are written by whichever PE thread runs the gateway's
//! `exo_reply` handler, through the installed reply sink; a per-
//! connection write lock keeps frames intact. `stop` is idempotent,
//! runs on the panic path of `Machine::run`, and releases the port and
//! every thread before returning.

use crate::protocol::{self, Reply, ANY_PE};
use crate::registry::CcsRegistry;
use converse_machine::exo::status;
use converse_machine::{ExoReply, MachineHandle, MachineService};
use converse_net::PeLoad;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`CcsServer`].
#[derive(Debug, Clone)]
pub struct CcsServerConfig {
    /// Bind address; port 0 picks a free port (read it back through
    /// [`CcsServerHandle::wait_addr`]).
    pub bind: String,
    /// Per-connection in-flight request bound: a connection's reader
    /// stops pulling frames off the socket while this many of its
    /// requests are unanswered (TCP then pushes back on the client).
    pub max_inflight: usize,
    /// Server-side deadline per request; expiry produces a
    /// [`status::TIMEOUT`] reply and drops the eventual real reply.
    pub request_timeout: Duration,
}

impl Default for CcsServerConfig {
    fn default() -> Self {
        CcsServerConfig {
            bind: "127.0.0.1:0".to_string(),
            max_inflight: 32,
            request_timeout: Duration::from_secs(10),
        }
    }
}

/// Shared cell resolving to the bound address once the listener is up.
#[derive(Default)]
struct AddrCell {
    slot: Mutex<Option<SocketAddr>>,
    cv: Condvar,
}

/// Cloneable handle for code outside the machine (clients, tests) to
/// discover where the server is listening.
#[derive(Clone)]
pub struct CcsServerHandle {
    addr: Arc<AddrCell>,
}

impl CcsServerHandle {
    /// Block until the listener is bound and return its address, or
    /// `None` if `timeout` elapses first.
    pub fn wait_addr(&self, timeout: Duration) -> Option<SocketAddr> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.addr.slot.lock();
        while slot.is_none() {
            if self.addr.cv.wait_until(&mut slot, deadline).timed_out() {
                return *slot;
            }
        }
        *slot
    }
}

/// One live client connection.
struct Conn {
    id: u64,
    /// Write side; replies come from PE threads and the sweeper, so
    /// frame writes are serialized here.
    writer: Mutex<TcpStream>,
    /// In-flight requests: sequence number → expiry deadline.
    inflight: Mutex<HashMap<u64, Instant>>,
    /// Signalled when in-flight count drops (backpressure release).
    cv: Condvar,
}

impl Conn {
    /// Atomically retire `seq`. Exactly one caller — gateway reply,
    /// timeout sweeper, or shutdown — wins; the others see `false` and
    /// must not write a reply.
    fn complete(&self, seq: u64) -> bool {
        let won = self.inflight.lock().remove(&seq).is_some();
        if won {
            self.cv.notify_all();
        }
        won
    }

    /// A streamed (non-final) reply frame for `seq`: keep the request
    /// open but push its expiry deadline out by `timeout`, so a live
    /// subscription outlasts the per-request timeout while an
    /// abandoned one is still swept. Returns false when `seq` is no
    /// longer in flight (timed out or completed — the frame loses).
    fn touch(&self, seq: u64, timeout: Duration) -> bool {
        match self.inflight.lock().get_mut(&seq) {
            Some(deadline) => {
                *deadline = Instant::now() + timeout;
                true
            }
            None => false,
        }
    }

    fn write_reply(&self, seq: u64, status_code: u8, payload: &[u8]) -> io::Result<()> {
        let body = protocol::encode_reply(&Reply {
            seq,
            status: status_code,
            payload: payload.to_vec(),
        });
        let mut w = self.writer.lock();
        protocol::write_frame(&mut *w, &body)
    }
}

/// Everything that exists only while the service is started.
struct Running {
    machine: MachineHandle,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, Arc<Conn>>>>,
    accept_thread: JoinHandle<()>,
    sweeper_thread: JoinHandle<()>,
    /// Reader threads, appended by the accept loop.
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// The CCS front-end. Attach to a machine with
/// `MachineConfig::attach(Box::new(server))`; the run harness starts it
/// before the PEs boot and stops it after they exit — panics included.
pub struct CcsServer {
    registry: Arc<CcsRegistry>,
    config: CcsServerConfig,
    addr: Arc<AddrCell>,
    running: Option<Running>,
}

impl CcsServer {
    /// A server resolving names through `registry`.
    pub fn new(registry: Arc<CcsRegistry>, config: CcsServerConfig) -> CcsServer {
        CcsServer {
            registry,
            config,
            addr: Arc::new(AddrCell::default()),
            running: None,
        }
    }

    /// Handle for discovering the bound address (usable before start).
    pub fn handle(&self) -> CcsServerHandle {
        CcsServerHandle {
            addr: self.addr.clone(),
        }
    }
}

impl MachineService for CcsServer {
    fn name(&self) -> &str {
        "ccs-server"
    }

    fn start(&mut self, machine: &MachineHandle) {
        assert!(self.running.is_none(), "CcsServer started twice");
        let listener = TcpListener::bind(&self.config.bind)
            .unwrap_or_else(|e| panic!("ccs: cannot bind {}: {e}", self.config.bind));
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");

        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, Arc<Conn>>>> = Arc::new(Mutex::new(HashMap::new()));
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        // Replies from the machine: retire the sequence number and, if
        // this reply won (no timeout beat it), write the frame.
        let sink_conns = conns.clone();
        let sink_timeout = self.config.request_timeout;
        machine.install_reply_sink(Arc::new(move |rep: ExoReply| {
            let conn = sink_conns.lock().get(&rep.conn).cloned();
            if let Some(c) = conn {
                if rep.status == status::STREAM {
                    // Non-final frame: the request stays open (its
                    // deadline refreshed) and only a still-live
                    // subscription gets the frame written.
                    if c.touch(rep.seq, sink_timeout) {
                        let _ = c.write_reply(rep.seq, rep.status, &rep.payload);
                    }
                } else if c.complete(rep.seq) {
                    let _ = c.write_reply(rep.seq, rep.status, &rep.payload);
                }
            }
        }));

        // Accept loop.
        let accept_thread = {
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            let readers = readers.clone();
            let registry = self.registry.clone();
            let machine = machine.clone();
            let cfg = self.config.clone();
            let next_conn = AtomicU64::new(1);
            std::thread::Builder::new()
                .name("ccs-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let stream = match stream {
                            Ok(s) => s,
                            Err(_) => continue,
                        };
                        // Replies are small frames; leaving Nagle on
                        // costs a delayed-ACK round trip per request.
                        let _ = stream.set_nodelay(true);
                        let id = next_conn.fetch_add(1, Ordering::Relaxed);
                        let writer = match stream.try_clone() {
                            Ok(w) => w,
                            Err(_) => continue,
                        };
                        let conn = Arc::new(Conn {
                            id,
                            writer: Mutex::new(writer),
                            inflight: Mutex::new(HashMap::new()),
                            cv: Condvar::new(),
                        });
                        conns.lock().insert(id, conn.clone());
                        let h = {
                            let shutdown = shutdown.clone();
                            let conns = conns.clone();
                            let registry = registry.clone();
                            let machine = machine.clone();
                            let cfg = cfg.clone();
                            std::thread::Builder::new()
                                .name(format!("ccs-conn{id}"))
                                .spawn(move || {
                                    reader_loop(
                                        stream, &conn, &registry, &machine, &cfg, &shutdown,
                                    );
                                    conns.lock().remove(&conn.id);
                                })
                                .expect("spawn ccs reader")
                        };
                        readers.lock().push(h);
                    }
                })
                .expect("spawn ccs accept")
        };

        // Timeout sweeper.
        let sweeper_thread = {
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            std::thread::Builder::new()
                .name("ccs-sweeper".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(20));
                        let snapshot: Vec<Arc<Conn>> = conns.lock().values().cloned().collect();
                        let now = Instant::now();
                        for c in snapshot {
                            let expired: Vec<u64> = c
                                .inflight
                                .lock()
                                .iter()
                                .filter(|(_, dl)| **dl <= now)
                                .map(|(seq, _)| *seq)
                                .collect();
                            for seq in expired {
                                if c.complete(seq) {
                                    let _ =
                                        c.write_reply(seq, status::TIMEOUT, b"request timed out");
                                }
                            }
                        }
                    }
                })
                .expect("spawn ccs sweeper")
        };

        self.running = Some(Running {
            machine: machine.clone(),
            addr,
            shutdown,
            conns,
            accept_thread,
            sweeper_thread,
            readers,
        });

        // Publish the address last: whoever observes it can connect.
        let mut slot = self.addr.slot.lock();
        *slot = Some(addr);
        self.addr.cv.notify_all();
    }

    fn stop(&mut self) {
        let Some(run) = self.running.take() else {
            return; // idempotent
        };
        run.shutdown.store(true, Ordering::Release);
        // Late replies have nowhere to go now.
        run.machine.clear_reply_sink();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(run.addr);
        // Fail outstanding requests and unblock every reader.
        let snapshot: Vec<Arc<Conn>> = run.conns.lock().values().cloned().collect();
        for c in snapshot {
            let pending: Vec<u64> = c.inflight.lock().keys().copied().collect();
            for seq in pending {
                if c.complete(seq) {
                    let _ = c.write_reply(seq, status::SHUTDOWN, b"server shutting down");
                }
            }
            let _ = c.writer.lock().shutdown(std::net::Shutdown::Both);
        }
        let _ = run.accept_thread.join();
        let _ = run.sweeper_thread.join();
        loop {
            let h = run.readers.lock().pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

impl Drop for CcsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Choose the target for an [`ANY_PE`] request: any non-stalled PE
/// before any stalled one (a stalled PE is not retrieving messages, so
/// routing to it guarantees a timeout), then the shallowest *backlog* —
/// inbox plus staged mailbox plus published run-queue depth — breaking
/// ties by lightest lifetime inbound volume (native + injected), then
/// by lowest PE id for determinism. Backlog leads among live PEs
/// because it is the live signal — a PE stuck inside a long handler
/// accumulates undelivered and staged-but-undispatched packets, while
/// cumulative counters only say who was busy in the past.
pub(crate) fn pick_least_loaded(loads: &[PeLoad]) -> usize {
    assert!(!loads.is_empty(), "a machine has at least one PE");
    loads
        .iter()
        .min_by_key(|l| {
            (
                l.stalled,
                l.backlog() + l.staged,
                l.traffic.msgs_recv + l.traffic.msgs_injected,
                l.pe,
            )
        })
        .expect("non-empty")
        .pe
}

/// Per-connection reader: frames off the socket, requests into the
/// machine.
fn reader_loop(
    mut stream: TcpStream,
    conn: &Arc<Conn>,
    registry: &CcsRegistry,
    machine: &MachineHandle,
    cfg: &CcsServerConfig,
    shutdown: &AtomicBool,
) {
    loop {
        let body = match protocol::read_frame(&mut stream) {
            Ok(Some(b)) => b,
            Ok(None) | Err(_) => return, // client closed / socket torn down
        };
        if shutdown.load(Ordering::Acquire) {
            let seq = protocol::peek_seq(&body).unwrap_or(0);
            let _ = conn.write_reply(seq, status::SHUTDOWN, b"server shutting down");
            return;
        }
        let req = match protocol::decode_request(&body) {
            Some(r) => r,
            None => {
                let seq = protocol::peek_seq(&body).unwrap_or(0);
                let _ = conn.write_reply(seq, status::MALFORMED, b"unparseable request frame");
                continue;
            }
        };
        // Resolve before admitting to the in-flight window: rejects are
        // answered by the server itself and never enter the machine.
        let Some(target) = registry.resolve(&req.name) else {
            let _ = conn.write_reply(
                req.seq,
                status::UNKNOWN_HANDLER,
                format!("no handler named {:?}", req.name).as_bytes(),
            );
            continue;
        };
        // Destination-less requests: route to the least loaded PE as of
        // this instant. The snapshot races with the machine, which is
        // fine — this is load balancing, not placement correctness.
        let dest_pe = if req.dest_pe == ANY_PE {
            pick_least_loaded(&machine.load_snapshot())
        } else {
            req.dest_pe
        };
        if dest_pe >= machine.num_pes() {
            let _ = conn.write_reply(
                req.seq,
                status::BAD_PE,
                format!(
                    "PE {} out of range (machine has {})",
                    dest_pe,
                    machine.num_pes()
                )
                .as_bytes(),
            );
            continue;
        }
        // Backpressure: hold this reader (and via TCP, the client) while
        // the connection's in-flight window is full.
        {
            let mut inf = conn.inflight.lock();
            while inf.len() >= cfg.max_inflight && !shutdown.load(Ordering::Acquire) {
                conn.cv.wait_for(&mut inf, Duration::from_millis(50));
            }
            if shutdown.load(Ordering::Acquire) {
                drop(inf);
                let _ = conn.write_reply(req.seq, status::SHUTDOWN, b"server shutting down");
                return;
            }
            inf.insert(req.seq, Instant::now() + cfg.request_timeout);
        }
        if !machine.inject_request(dest_pe, conn.id, req.seq, target, &req.payload) {
            // Machine already closed underneath us.
            if conn.complete(req.seq) {
                let _ = conn.write_reply(req.seq, status::SHUTDOWN, b"machine is down");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converse_net::PeTraffic;

    fn load(pe: usize, queued: usize, recv: u64, injected: u64) -> PeLoad {
        PeLoad {
            pe,
            queued,
            staged: 0,
            run_queue: 0,
            stalled: false,
            traffic: PeTraffic {
                msgs_recv: recv,
                msgs_injected: injected,
                ..Default::default()
            },
        }
    }

    #[test]
    fn least_loaded_prefers_shallow_queue() {
        let loads = [load(0, 5, 0, 0), load(1, 0, 900, 0), load(2, 2, 0, 0)];
        assert_eq!(pick_least_loaded(&loads), 1);
    }

    #[test]
    fn least_loaded_ties_break_by_inbound_volume_then_pe() {
        let loads = [load(0, 1, 10, 5), load(1, 1, 3, 2), load(2, 1, 3, 2)];
        assert_eq!(pick_least_loaded(&loads), 1);
        let even = [load(0, 0, 0, 0), load(1, 0, 0, 0)];
        assert_eq!(pick_least_loaded(&even), 0);
    }

    #[test]
    fn least_loaded_counts_staged_and_run_queue_depth() {
        // PE 0's inbox is shallow but its staged mailbox is deep; PE 1
        // carries run-queue depth; PE 2's total backlog is smallest and
        // must win even though its raw `queued` is the largest.
        let mut loads = [load(0, 1, 0, 0), load(1, 1, 0, 0), load(2, 3, 0, 0)];
        loads[0].staged = 9;
        loads[1].run_queue = 7;
        assert_eq!(pick_least_loaded(&loads), 2);
        // Staged depth alone breaks an inbox tie.
        let mut tie = [load(0, 2, 0, 0), load(1, 2, 0, 0)];
        tie[0].staged = 1;
        assert_eq!(pick_least_loaded(&tie), 1);
    }

    #[test]
    fn least_loaded_routes_around_stalled_pes() {
        // PE 0 has the shallowest queue but is stalled: any live PE,
        // however deep, must win over it.
        let mut loads = [load(0, 0, 0, 0), load(1, 40, 900, 30), load(2, 50, 10, 0)];
        loads[0].stalled = true;
        assert_eq!(pick_least_loaded(&loads), 1);
        // With every PE stalled, the normal ordering still yields a
        // deterministic (if doomed) choice rather than a panic.
        loads[1].stalled = true;
        loads[2].stalled = true;
        assert_eq!(pick_least_loaded(&loads), 0);
    }
}
