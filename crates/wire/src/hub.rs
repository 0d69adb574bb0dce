//! The launcher-side frame router.
//!
//! The hub owns the machine's listener and, once every worker has said
//! HELLO, becomes a star router: one reader thread per worker pulls
//! frames off that worker's connection and forwards worker-addressed
//! frames (`DATA`/`ACK`/`STALL`/`INJECT`) to the destination rank's
//! connection, under a per-connection write lock so concurrent
//! forwarders interleave at frame granularity.
//!
//! The hub is also the failure detector: a connection reaching EOF
//! before its worker sent `EXIT` or `ABORT` means the process died
//! (crash, kill -9). The first failure wins, is fanned out to the
//! survivors as `ABORT`, and the hub returns so the launcher can reap
//! children and report.

use crate::report::WorkerReport;
use crate::{kind, ACCEPT_TIMEOUT};
use converse_msg::{read_frame, write_frame, FrameHeader};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a hub run did not produce `n` clean exits.
#[derive(Debug)]
pub enum HubFailure {
    /// The machine never fully assembled (a worker failed to connect or
    /// speak HELLO in time). The detail may name a rank that died
    /// before connecting.
    Bootstrap {
        /// Rank known to have failed, when identifiable.
        rank: Option<usize>,
        /// Human-readable cause.
        detail: String,
    },
    /// A connected worker's socket hit EOF before EXIT/ABORT — its
    /// process died out from under the machine.
    Crashed {
        /// The dead worker's rank.
        rank: usize,
    },
    /// A worker reported a panic in its entry function.
    Panicked {
        /// The panicking rank.
        rank: usize,
        /// The panic message it sent in the ABORT frame.
        msg: String,
    },
}

struct HubState {
    n: usize,
    /// Per-rank write halves; a forwarded frame takes exactly one lock.
    writers: Vec<Mutex<TcpStream>>,
    reports: Mutex<Vec<Option<WorkerReport>>>,
    /// How many ranks have sent EXIT.
    exited: AtomicUsize,
    failure: Mutex<Option<HubFailure>>,
    /// Set once the outcome is decided; later EOFs are expected, not
    /// crashes.
    settled: AtomicBool,
    done: Mutex<bool>,
    cv: Condvar,
}

impl HubState {
    fn forward(&self, h: FrameHeader, payload: &[u8]) {
        let dst = h.dst as usize;
        if dst >= self.n {
            return;
        }
        // A write error means the destination died; its own reader's
        // EOF is the authoritative failure signal, so drop the frame.
        let _ = write_frame(&mut *self.writers[dst].lock(), h, payload);
    }

    fn broadcast(&self, h: FrameHeader, payload: &[u8], except: Option<usize>) {
        for r in 0..self.n {
            if Some(r) == except {
                continue;
            }
            let _ = write_frame(
                &mut *self.writers[r].lock(),
                FrameHeader { dst: r as u32, ..h },
                payload,
            );
        }
    }

    fn fail(&self, f: HubFailure) {
        if self.settled.swap(true, Ordering::AcqRel) {
            return;
        }
        *self.failure.lock() = Some(f);
        // Wake the survivors out of blocking receives so they exit
        // during the grace period instead of being killed.
        self.broadcast(
            FrameHeader::new(kind::ABORT, u32::MAX, 0, 0),
            b"a worker process failed",
            None,
        );
        let mut d = self.done.lock();
        *d = true;
        self.cv.notify_all();
    }
}

/// The launcher's end of the machine: listener + router. See the
/// module docs.
pub struct WireHub {
    n: usize,
    listener: TcpListener,
    addr: String,
}

impl WireHub {
    /// Bind the machine's loopback listener for `n` workers. Returns the
    /// hub; [`WireHub::addr`] is the bootstrap address workers connect
    /// to.
    pub fn bind(n: usize) -> io::Result<WireHub> {
        assert!(n > 0, "a machine needs at least one PE");
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        listener.set_nonblocking(true)?;
        Ok(WireHub { n, listener, addr })
    }

    /// The bootstrap address (`host:port`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn accept_one(&self) -> io::Result<Option<TcpStream>> {
        match self.listener.accept() {
            Ok((s, _)) => {
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Some(s))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Assemble the machine and route until it finishes: accept `n`
    /// connections, pair each with its HELLO rank, broadcast GO, then
    /// forward frames until every rank EXITs (broadcast FIN, return the
    /// reports, indexed by rank) or a failure settles the outcome first.
    ///
    /// `early_fail` is polled while waiting for connections; returning
    /// `Some((rank, detail))` (e.g. a child process already dead) fails
    /// the bootstrap immediately instead of waiting out the timeout.
    pub fn run(
        self,
        mut early_fail: impl FnMut() -> Option<(Option<usize>, String)>,
    ) -> Result<Vec<WorkerReport>, HubFailure> {
        let n = self.n;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let boot = |detail: String| HubFailure::Bootstrap { rank: None, detail };
        let mut conns: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
        let mut connected = 0usize;
        while connected < n {
            if let Some((rank, detail)) = early_fail() {
                return Err(HubFailure::Bootstrap { rank, detail });
            }
            if Instant::now() >= deadline {
                let waited = format!("{connected}/{n} workers connected within {ACCEPT_TIMEOUT:?}");
                return Err(boot(format!("only {waited}")));
            }
            let accepted = self.accept_one();
            let Some(stream) = accepted.map_err(|e| boot(format!("accept failed: {e}")))? else {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            // The HELLO must arrive promptly; bound the read so a rogue
            // connection cannot stall the whole bootstrap.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let clone = stream.try_clone();
            let mut reader = clone.map_err(|e| boot(format!("clone worker stream: {e}")))?;
            let rank = match read_frame(&mut reader) {
                Ok(Some((h, _))) if h.kind == kind::HELLO => h.src as usize,
                other => return Err(boot(format!("expected HELLO, got {other:?}"))),
            };
            if rank >= n || conns[rank].is_some() {
                return Err(boot(format!("bad or duplicate HELLO rank {rank}")));
            }
            let _ = stream.set_read_timeout(None);
            conns[rank] = Some(stream);
            connected += 1;
        }

        let state = Arc::new(HubState {
            n,
            writers: conns
                .into_iter()
                .map(|c| Mutex::new(c.expect("all ranks connected")))
                .collect(),
            reports: Mutex::new((0..n).map(|_| None).collect()),
            exited: AtomicUsize::new(0),
            failure: Mutex::new(None),
            settled: AtomicBool::new(false),
            done: Mutex::new(false),
            cv: Condvar::new(),
        });

        // The startup barrier: every rank is connected, release them.
        state.broadcast(FrameHeader::new(kind::GO, u32::MAX, 0, 0), b"", None);

        let mut readers = Vec::with_capacity(n);
        for rank in 0..n {
            let st = state.clone();
            let stream = st.writers[rank].lock().try_clone();
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    state.fail(HubFailure::Bootstrap {
                        rank: Some(rank),
                        detail: format!("clone worker stream: {e}"),
                    });
                    break;
                }
            };
            readers.push(
                std::thread::Builder::new()
                    .name(format!("wire-hub-r{rank}"))
                    .spawn(move || hub_reader(rank, stream, st))
                    .expect("spawn hub reader"),
            );
        }

        // Wait for the outcome: all ranks exited, or a settled failure.
        {
            let mut d = state.done.lock();
            while !*d {
                state.cv.wait(&mut d);
            }
        }

        let failed = state.failure.lock().take();
        if failed.is_none() {
            // Clean completion: release the workers, then tear down.
            state.broadcast(FrameHeader::new(kind::FIN, u32::MAX, 0, 0), b"", None);
        }
        // Shut every connection down so reader threads (ours and the
        // workers') unblock; FIN is already queued ahead of the TCP FIN.
        for w in state.writers.iter() {
            let _ = w.lock().shutdown(Shutdown::Both);
        }
        for r in readers {
            let _ = r.join();
        }
        match failed {
            Some(f) => Err(f),
            None => Ok(state
                .reports
                .lock()
                .iter_mut()
                .map(|r| r.take().expect("every rank exited"))
                .collect()),
        }
    }
}

/// One worker's reader loop: route frames until EXIT-then-EOF, ABORT,
/// or an unexpected EOF (a crash).
fn hub_reader(rank: usize, mut stream: TcpStream, st: Arc<HubState>) {
    let mut exited = false;
    loop {
        match read_frame(&mut stream) {
            Ok(Some((h, payload))) => match h.kind {
                kind::DATA
                | kind::ACK
                | kind::STALL
                | kind::INJECT
                | kind::STEAL_REQ
                | kind::DONATE => {
                    st.forward(h, payload.as_slice());
                }
                kind::EXIT => {
                    if exited {
                        continue;
                    }
                    exited = true;
                    // A report is filed under the connection's rank, so
                    // it must name that rank itself.
                    let report = WorkerReport::decode(payload.as_slice())
                        .map_err(|e| format!("{e:?}"))
                        .and_then(|rep| {
                            if rep.rank == rank {
                                Ok(rep)
                            } else {
                                Err(format!("it names rank {}", rep.rank))
                            }
                        });
                    match report {
                        Ok(rep) => st.reports.lock()[rank] = Some(rep),
                        Err(e) => {
                            st.fail(HubFailure::Bootstrap {
                                rank: Some(rank),
                                detail: format!("rank {rank}: malformed EXIT report: {e}"),
                            });
                            return;
                        }
                    }
                    if st.exited.fetch_add(1, Ordering::AcqRel) + 1 == st.n
                        && !st.settled.swap(true, Ordering::AcqRel)
                    {
                        let mut d = st.done.lock();
                        *d = true;
                        st.cv.notify_all();
                    }
                    // Keep reading: this worker still ACKs late
                    // arrivals from slower peers until FIN.
                }
                kind::ABORT => {
                    let msg = String::from_utf8_lossy(payload.as_slice()).into_owned();
                    st.fail(HubFailure::Panicked { rank, msg });
                    return;
                }
                _ => {}
            },
            Ok(None) | Err(_) => {
                // EOF. Expected once the worker exited or the outcome
                // is settled; otherwise the process died mid-run.
                if !exited && !st.settled.load(Ordering::Acquire) {
                    st.fail(HubFailure::Crashed { rank });
                }
                return;
            }
        }
    }
}
