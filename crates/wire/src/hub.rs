//! The launcher-side frame router and the hub half of the wire control
//! plane.
//!
//! The hub owns the machine's listener and, once every worker has said
//! HELLO, becomes a star router: one reader thread per worker pulls
//! frames off that worker's connection and forwards worker-addressed
//! frames (`DATA`/`ACK`/`STALL`/`INJECT`/`STEAL_REQ`/`DONATE`) to the
//! destination rank's connection, under a per-connection write lock so
//! concurrent forwarders interleave at frame granularity. Forwarding
//! takes no other lock.
//!
//! Everything else is the control plane, and one sans-IO state machine
//! decides it: `Protocol::on(rank, input)`. It owns no thread, lock or
//! socket, so the same calls can be driven without sockets
//! (`hub/explore.rs` checks every order of them exhaustively).
//!
//! * **Input** — `Input::Hello` (a connection's first frame named its
//!   rank), `Input::Frame` (any frame a reader does not forward) or
//!   `Input::Eof` (the connection ended).
//! * **Output** — the control frame for every rank, if any: GO once all
//!   ranks said HELLO, ABORT on the first failure, FIN on the n-th
//!   valid EXIT. A reader stops at its connection's end or once there
//!   is a verdict, so the verdict also says when reading ends.
//! * **Side effects** — the protocol's own record of who said HELLO,
//!   each rank's EXIT report, and the verdict.
//! * **Job** — be the failure detector, with faults as the normal case.
//!   A connection that ends before its worker sent `EXIT` (a crash,
//!   kill -9), an `ABORT` (a panic), an `EXIT` whose report is malformed
//!   or names another rank, and a frame addressed outside the machine
//!   each fail the run, naming the sending rank. The first failure wins
//!   (`Protocol::settle` is the only place a verdict is written); an EOF
//!   after `EXIT` or after the verdict is expected, and a repeated
//!   `EXIT` counts once.
//!
//! The threads only move bytes: the bootstrap loop reads each
//! connection's HELLO, each reader thread feeds its rank's inputs to the
//! protocol under one mutex and writes the frame it returns before the
//! mutex drops, and [`WireHub::run`] waits on one condvar for the
//! verdict, then shuts every connection down so the launcher can reap
//! children and report. What fails before the machine exists — the
//! accept deadline, a child that died before connecting, a first frame
//! that is not a HELLO — ends `run` directly: no frame of an assembled
//! machine was decided.

use crate::report::WorkerReport;
use crate::{kind, ACCEPT_TIMEOUT};
use converse_msg::{read_frame, write_frame, FrameHeader};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a hub run did not produce `n` clean exits.
#[derive(Debug)]
pub enum HubFailure {
    /// The machine never fully assembled (a worker failed to connect or
    /// speak HELLO in time), or a worker broke the protocol (a malformed
    /// EXIT report, a frame addressed outside the machine). The detail
    /// may name a rank that died before connecting.
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

/// What one worker's connection gave the hub.
pub(crate) enum Input<'a> {
    /// The connection's first frame: a HELLO naming this rank.
    Hello,
    /// A frame the reader did not forward.
    Frame(FrameHeader, &'a [u8]),
    /// The connection ended (EOF or a read error).
    Eof,
}

/// The hub's control plane. See the module docs.
pub(crate) struct Protocol {
    /// Which ranks said HELLO.
    connected: Vec<bool>,
    /// Each rank's report, once it sent a valid EXIT.
    reports: Vec<Option<WorkerReport>>,
    /// How many valid EXITs came in.
    exits: usize,
    /// `Ok` once every rank exited, or the first failure.
    verdict: Option<Result<(), HubFailure>>,
}

/// The payload of the ABORT the hub fans out.
const ABORT_MSG: &[u8] = b"a worker process failed";

/// True for the kinds one worker addresses to another: the readers
/// forward them by `dst` without the protocol.
fn routed(k: u8) -> bool {
    matches!(
        k,
        kind::DATA | kind::ACK | kind::STALL | kind::INJECT | kind::STEAL_REQ | kind::DONATE
    )
}

impl Protocol {
    pub(crate) fn new(n: usize) -> Protocol {
        Protocol {
            connected: vec![false; n],
            reports: vec![None; n],
            exits: 0,
            verdict: None,
        }
    }

    /// Decide one input from the connection of `rank` (a rank of the
    /// machine, except for the rank a HELLO claims). Returns the frame
    /// every rank gets: GO, ABORT or FIN.
    pub(crate) fn on(&mut self, rank: usize, input: Input) -> Option<u8> {
        let n = self.connected.len();
        let exited = rank < n && self.reports[rank].is_some();
        let bad = |detail: String| {
            let detail = format!("rank {rank}: {detail}");
            Err(HubFailure::Bootstrap {
                rank: Some(rank),
                detail,
            })
        };
        let verdict = match input {
            Input::Hello if rank < n && !self.connected[rank] => {
                self.connected[rank] = true;
                return self.connected.iter().all(|&c| c).then_some(kind::GO);
            }
            Input::Hello => Err(HubFailure::Bootstrap {
                rank: None,
                detail: format!("bad or duplicate HELLO rank {rank}"),
            }),
            Input::Eof if !exited => Err(HubFailure::Crashed { rank }),
            Input::Frame(h, _) if routed(h.kind) && h.dst as usize >= n => {
                let name = kind::name(h.kind).to_uppercase();
                bad(format!("{name} frame addressed to rank {} of {n}", h.dst))
            }
            // A report is filed under the connection's rank, so it must
            // name that rank itself.
            Input::Frame(h, payload) if h.kind == kind::EXIT && !exited => {
                match WorkerReport::decode(payload) {
                    Ok(rep) if rep.rank == rank => {
                        self.reports[rank] = Some(rep);
                        self.exits += 1;
                        if self.exits < n {
                            return None;
                        }
                        Ok(())
                    }
                    Ok(rep) => bad(format!("malformed EXIT report: it names rank {}", rep.rank)),
                    Err(e) => bad(format!("malformed EXIT report: {e:?}")),
                }
            }
            Input::Frame(h, payload) if h.kind == kind::ABORT => Err(HubFailure::Panicked {
                rank,
                msg: String::from_utf8_lossy(payload).into_owned(),
            }),
            // An EOF after EXIT, a frame the reader forwarded, a repeated
            // EXIT, or a kind no worker sends: nothing to decide.
            _ => return None,
        };
        self.settle(verdict)
    }

    /// Record `verdict` unless one stands — the first wins — and return
    /// the frame that tells every rank.
    fn settle(&mut self, verdict: Result<(), HubFailure>) -> Option<u8> {
        if self.verdict.is_some() {
            return None;
        }
        let frame = if verdict.is_ok() {
            kind::FIN
        } else {
            kind::ABORT
        };
        self.verdict = Some(verdict);
        Some(frame)
    }

    /// The settled verdict, with the reports (indexed by rank) of a
    /// clean run.
    fn outcome(self) -> Result<Vec<WorkerReport>, HubFailure> {
        self.verdict.expect("the protocol settled")?;
        Ok(self.reports.into_iter().flatten().collect())
    }
}

struct HubState {
    /// Per-rank write halves; a forwarded frame takes exactly one lock.
    writers: Vec<Mutex<TcpStream>>,
    protocol: Mutex<Protocol>,
    /// Signalled once the protocol has a verdict.
    settled: Condvar,
}

impl HubState {
    fn broadcast(&self, k: u8) {
        let payload = if k == kind::ABORT { ABORT_MSG } else { b"" };
        for (r, w) in self.writers.iter().enumerate() {
            let h = FrameHeader::new(k, u32::MAX, r as u32, 0);
            let _ = write_frame(&mut *w.lock(), h, payload);
        }
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
        let mut protocol = Protocol::new(n);
        // Each rank's stream and the clone its reader takes.
        let mut conns: Vec<Option<(TcpStream, TcpStream)>> = (0..n).map(|_| None).collect();
        loop {
            if let Some((rank, detail)) = early_fail() {
                return Err(HubFailure::Bootstrap { rank, detail });
            }
            if Instant::now() >= deadline {
                let connected = conns.iter().flatten().count();
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
            let frame = protocol.on(rank, Input::Hello);
            if frame == Some(kind::ABORT) {
                return protocol.outcome();
            }
            let _ = stream.set_read_timeout(None);
            conns[rank] = Some((stream, reader));
            if frame == Some(kind::GO) {
                break;
            }
        }

        let (writers, readers): (Vec<_>, Vec<_>) = conns.into_iter().flatten().unzip();
        let state = Arc::new(HubState {
            writers: writers.into_iter().map(Mutex::new).collect(),
            protocol: Mutex::new(protocol),
            settled: Condvar::new(),
        });
        // The startup barrier: every rank is connected, release them.
        state.broadcast(kind::GO);
        let readers: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(rank, stream)| {
                let st = state.clone();
                std::thread::Builder::new()
                    .name(format!("wire-hub-r{rank}"))
                    .spawn(move || hub_reader(rank, stream, st))
                    .expect("spawn hub reader")
            })
            .collect();

        {
            let mut p = state.protocol.lock();
            while p.verdict.is_none() {
                state.settled.wait(&mut p);
            }
        }
        // Shut every connection down so reader threads (ours and the
        // workers') unblock; the verdict's FIN or ABORT is already
        // queued ahead of the TCP FIN.
        for w in state.writers.iter() {
            let _ = w.lock().shutdown(Shutdown::Both);
        }
        for r in readers {
            let _ = r.join();
        }
        let state = Arc::into_inner(state).expect("every reader joined");
        state.protocol.into_inner().outcome()
    }
}

/// One worker's reader: forward what is routed to a rank of the
/// machine, hand everything else to the protocol, and stop at the
/// connection's end or at the verdict.
fn hub_reader(rank: usize, mut stream: TcpStream, st: Arc<HubState>) {
    loop {
        let frame = read_frame(&mut stream).ok().flatten();
        let input = match &frame {
            Some((h, payload)) if routed(h.kind) && (h.dst as usize) < st.writers.len() => {
                // A write error means the destination died; its own
                // reader's EOF is the authoritative failure signal, so
                // drop the frame.
                let _ = write_frame(
                    &mut *st.writers[h.dst as usize].lock(),
                    *h,
                    payload.as_slice(),
                );
                continue;
            }
            Some((h, payload)) => Input::Frame(*h, payload.as_slice()),
            None => Input::Eof,
        };
        // The frame the protocol returns is written before its lock
        // drops, so `run` cannot shut the connections down ahead of a
        // FIN or an ABORT.
        let mut p = st.protocol.lock();
        if let Some(k) = p.on(rank, input) {
            st.broadcast(k);
            st.settled.notify_all();
        }
        if frame.is_none() || p.verdict.is_some() {
            return;
        }
    }
}

#[cfg(test)]
mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Whom a verdict names: the clean run names nobody.
    fn named(verdict: &Option<Result<(), HubFailure>>) -> Option<Option<usize>> {
        Some(match verdict.as_ref()? {
            Ok(()) => None,
            Err(HubFailure::Crashed { rank } | HubFailure::Panicked { rank, .. }) => Some(*rank),
            Err(HubFailure::Bootstrap { rank, .. }) => *rank,
        })
    }

    proptest! {
        /// Any frame, of any kind byte, with random `src` / `dst` and up
        /// to 256 payload bytes, from any rank of an assembled machine:
        /// the protocol does not panic, and the verdict stays as it was
        /// or becomes a failure that names the sending rank.
        #[test]
        fn any_frame_leaves_the_verdict_or_fails_naming_its_sender(
            frames in collection::vec(
                (
                    0usize..3,
                    prop_oneof![0u8..=13, any::<u8>()],
                    any::<u32>(),
                    prop_oneof![0u32..4, any::<u32>()],
                    collection::vec(any::<u8>(), 0..=256),
                ),
                1..=12,
            )
        ) {
            let mut p = Protocol::new(3);
            for rank in 0..3 {
                p.on(rank, Input::Hello);
            }
            for (rank, k, src, dst, payload) in frames {
                let before = format!("{:?}", p.verdict);
                p.on(rank, Input::Frame(FrameHeader::new(k, src, dst, 0), &payload));
                if p.verdict.is_some() && format!("{:?}", p.verdict) != before {
                    prop_assert!(before == "None", "{before} became {:?}", p.verdict);
                    prop_assert_eq!(named(&p.verdict), Some(Some(rank)), "{:?}", p.verdict);
                }
            }
        }
    }

    #[test]
    fn a_bad_or_repeated_hello_fails_the_bootstrap() {
        for hellos in [[0, 0], [0, 2]] {
            let mut p = Protocol::new(2);
            assert_eq!(p.on(hellos[0], Input::Hello), None);
            assert_eq!(p.on(hellos[1], Input::Hello), Some(kind::ABORT));
            match p.outcome() {
                Err(HubFailure::Bootstrap { rank: None, detail }) => {
                    assert_eq!(detail, format!("bad or duplicate HELLO rank {}", hellos[1]))
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_frame_addressed_outside_the_machine_fails_the_run() {
        let mut p = Protocol::new(2);
        assert_eq!(p.on(0, Input::Hello), None);
        assert_eq!(p.on(1, Input::Hello), Some(kind::GO));
        let lost = FrameHeader::new(kind::STALL, 1, 2, 0);
        assert_eq!(p.on(1, Input::Frame(lost, &[0; 8])), Some(kind::ABORT));
        match p.outcome() {
            Err(HubFailure::Bootstrap {
                rank: Some(1),
                detail,
            }) => assert_eq!(detail, "rank 1: STALL frame addressed to rank 2 of 2"),
            other => panic!("{other:?}"),
        }
    }
}
