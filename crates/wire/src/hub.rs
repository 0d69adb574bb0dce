//! The launcher-side frame router and the hub half of the wire control
//! plane.
//!
//! The hub owns the machine's listener and, once every worker has said
//! HELLO, becomes a star router: it forwards worker-addressed frames
//! (`DATA`/`STALL`/`INJECT`/`STEAL_REQ`/`DONATE`) from each worker's
//! connection to the destination rank's, in the order it read them.
//!
//! Everything else is the control plane, and one sans-IO state machine
//! decides it: `Protocol::on(rank, input)`. It owns no thread, lock or
//! socket, so the same calls can be driven without sockets
//! (`hub/explore.rs` checks every order of them exhaustively).
//!
//! * **Input** — `Input::Hello` (a connection's first frame named its
//!   rank), `Input::Frame` (any frame the hub does not forward),
//!   `Input::Eof` (the connection ended) or `Input::Deadline` (the
//!   machine cannot assemble: the bootstrap deadline passed, a child died
//!   before connecting, accepting failed, or a connection's first frame
//!   was not a HELLO; after GO it decides nothing).
//! * **Output** — the control frame for every connection, if any: GO
//!   once all ranks said HELLO, ABORT on the first failure, FIN on the
//!   n-th valid EXIT. Once there is a verdict the hub reads no more, so
//!   the verdict also says when reading ends.
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
//! The loop around it only moves bytes, all on the thread that calls
//! [`WireHub::run`]: one `poll(2)` waits on the listener and every
//! non-blocking connection, and each connection holds a frame decoder
//! and the bytes queued for it. A connection is read only while no frame
//! it forwarded still waits in another's queue, so the hub holds at most
//! one forwarded frame per worker (plus control frames), and frames
//! from one rank to another keep their order. Until GO the wait wakes
//! every 5 ms to ask `early_fail` and check the deadline; after GO it
//! sleeps until a socket is ready. A connection that never says HELLO
//! holds nothing up, and is dropped at GO. Once there is a verdict the
//! hub flushes what it queued, for at most [`crate::GRACE`], and shuts
//! every connection down so the launcher can reap children and report.

use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::report::WorkerReport;
use crate::{kind, ACCEPT_TIMEOUT, GRACE};
use converse_msg::frame::Decoder;
use converse_msg::{FrameHeader, FRAME_HEADER_BYTES};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
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
    /// The machine cannot assemble, for this reason. See the module docs.
    Deadline(String),
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

/// The rank of an input that names none (a [`Input::Deadline`] no rank
/// caused).
const NOBODY: usize = usize::MAX;

/// How often the bootstrap asks `early_fail` and checks its deadline.
const BOOT_TICK: Duration = Duration::from_millis(5);

/// True for the kinds one worker addresses to another: the hub forwards
/// them by `dst` without the protocol.
fn routed(k: u8) -> bool {
    matches!(
        k,
        kind::DATA | kind::STALL | kind::INJECT | kind::STEAL_REQ | kind::DONATE
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

    /// Every rank said HELLO: the machine is assembled.
    fn assembled(&self) -> bool {
        self.connected.iter().all(|&c| c)
    }

    /// Decide one input from the connection of `rank` (a rank of the
    /// machine, except for the rank a HELLO claims and that of a
    /// deadline, which is out of range when it names none). Returns the
    /// frame every connection gets: GO, ABORT or FIN.
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
                return (self.assembled() && self.verdict.is_none()).then_some(kind::GO);
            }
            Input::Deadline(detail) if !self.assembled() => Err(HubFailure::Bootstrap {
                rank: (rank < n).then_some(rank),
                detail,
            }),
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
            // An EOF after EXIT, a frame the hub forwarded, a repeated
            // EXIT, a kind no worker sends, or a deadline after GO:
            // nothing to decide.
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

/// One accepted connection: what the hub reads from it and what it
/// queued for it.
struct Conn {
    stream: TcpStream,
    frames: Decoder,
    /// The rank its HELLO named, once it said one.
    rank: Option<usize>,
    /// False once it ended or failed a read.
    reading: bool,
    /// A frame it sent waits in another connection's `out`.
    held: bool,
    /// Bytes queued for it, and how many of them are written.
    out: Vec<u8>,
    sent: usize,
    /// Where each forwarded frame in `out` ends, and the connection it
    /// came from.
    forwarded: VecDeque<(usize, usize)>,
}

impl Conn {
    /// Append one frame to `out`.
    fn queue(&mut self, h: FrameHeader, payload: &[u8]) {
        let body = (FRAME_HEADER_BYTES + payload.len()) as u32;
        self.out.extend_from_slice(&body.to_le_bytes());
        self.out.extend_from_slice(&h.to_bytes());
        self.out.extend_from_slice(payload);
    }
}

/// The loop's state: the protocol, and every connection it accepted.
struct Router {
    protocol: Protocol,
    conns: Vec<Conn>,
    /// The connection of each rank that said HELLO.
    by_rank: Vec<usize>,
}

impl Router {
    /// Write what connection `i` has queued until its socket would
    /// block, and let each connection whose forwarded frame is now
    /// written be read again. A write error means the destination died:
    /// its own EOF is the failure signal, so what it was sent is dropped.
    fn flush(&mut self, i: usize) {
        let c = &mut self.conns[i];
        while c.sent < c.out.len() {
            match c.stream.write(&c.out[c.sent..]) {
                Ok(n) if n > 0 => c.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => c.sent = c.out.len(),
            }
        }
        while let Some(&(end, src)) = self.conns[i].forwarded.front() {
            if end > self.conns[i].sent {
                break;
            }
            self.conns[i].forwarded.pop_front();
            self.conns[src].held = false;
        }
        let c = &mut self.conns[i];
        if c.sent == c.out.len() {
            c.sent = 0;
            c.out.clear();
        }
    }

    /// Hand one input to the protocol, and queue the frame it returns
    /// for every connection.
    fn decide(&mut self, rank: usize, input: Input) {
        let Some(k) = self.protocol.on(rank, input) else {
            return;
        };
        let payload = if k == kind::ABORT { ABORT_MSG } else { b"" };
        for i in 0..self.conns.len() {
            let rank = self.conns[i].rank;
            if k == kind::GO && rank.is_none() {
                continue; // never said HELLO: dropped at GO
            }
            let dst = rank.map_or(u32::MAX, |r| r as u32);
            self.conns[i].queue(FrameHeader::new(k, u32::MAX, dst, 0), payload);
            self.flush(i);
        }
    }

    /// True while connection `i` is read: before GO for its HELLO,
    /// after GO for every frame, and never once it is held, has ended or
    /// the run has a verdict.
    fn reads(&self, i: usize) -> bool {
        let c = &self.conns[i];
        let p = &self.protocol;
        c.reading && !c.held && p.verdict.is_none() && c.rank.is_some() == p.assembled()
    }

    /// Read connection `i` while it [`Router::reads`] and has a whole
    /// frame: its HELLO, or after GO each frame, forwarded or decided.
    fn read(&mut self, i: usize) {
        let n = self.by_rank.len();
        while self.reads(i) {
            let c = &mut self.conns[i];
            let frame = match c.frames.read(&mut c.stream) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Ok(frame) => frame,
                Err(_) => None,
            };
            c.reading = frame.is_some();
            match (c.rank, frame) {
                (None, Some((h, _))) if h.kind == kind::HELLO => {
                    let rank = h.src as usize;
                    self.conns[i].rank = Some(rank);
                    if rank < n {
                        self.by_rank[rank] = i;
                    }
                    return self.decide(rank, Input::Hello);
                }
                (None, frame) => {
                    self.conns[i].reading = false;
                    let got =
                        frame.map_or("the end of the stream".into(), |(h, _)| format!("{h:?}"));
                    self.decide(
                        NOBODY,
                        Input::Deadline(format!("expected HELLO, got {got}")),
                    );
                }
                (Some(_), Some((h, payload))) if routed(h.kind) && (h.dst as usize) < n => {
                    let d = self.by_rank[h.dst as usize];
                    let dst = &mut self.conns[d];
                    dst.queue(h, payload.as_slice());
                    dst.forwarded.push_back((dst.out.len(), i));
                    self.conns[i].held = true;
                    self.flush(d);
                }
                (Some(rank), Some((h, payload))) => {
                    self.decide(rank, Input::Frame(h, payload.as_slice()))
                }
                (Some(rank), None) => self.decide(rank, Input::Eof),
            }
        }
    }

    /// What connection `i` waits for: to be read, written, both or
    /// neither (0).
    fn events(&self, i: usize) -> i16 {
        let write = if self.conns[i].out.is_empty() {
            0
        } else {
            POLLOUT
        };
        if self.reads(i) {
            POLLIN | write
        } else {
            write
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

    /// Accept every connection that is waiting.
    fn accept(&self, router: &mut Router) {
        loop {
            let accepted = self.listener.accept().and_then(|(stream, _)| {
                stream.set_nonblocking(true)?;
                stream.set_nodelay(true)?;
                Ok(stream)
            });
            let stream = match accepted {
                Ok(stream) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    return router.decide(NOBODY, Input::Deadline(format!("accept failed: {e}")))
                }
            };
            router.conns.push(Conn {
                stream,
                frames: Decoder::default(),
                rank: None,
                reading: true,
                held: false,
                out: Vec::new(),
                sent: 0,
                forwarded: VecDeque::new(),
            });
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
        let mut hub = Router {
            protocol: Protocol::new(n),
            conns: Vec::new(),
            by_rank: vec![usize::MAX; n],
        };
        // Set at the verdict: when the flush ends at the latest.
        let mut flush_by = None;
        let mut fds = Vec::new();
        loop {
            let now = Instant::now();
            let assembled = hub.protocol.assembled();
            let timeout = if hub.protocol.verdict.is_some() {
                let by = *flush_by.get_or_insert(now + GRACE);
                if now >= by || hub.conns.iter().all(|c| c.out.is_empty()) {
                    break;
                }
                Some(by - now)
            } else if !assembled {
                let failure = early_fail().or_else(|| {
                    let connected = hub.conns.iter().filter(|c| c.rank.is_some()).count();
                    let waited =
                        format!("{connected}/{n} workers connected within {ACCEPT_TIMEOUT:?}");
                    (now >= deadline).then(|| (None, format!("only {waited}")))
                });
                if let Some((rank, detail)) = failure {
                    hub.decide(rank.unwrap_or(NOBODY), Input::Deadline(detail));
                    continue;
                }
                Some(BOOT_TICK.min(deadline - now))
            } else {
                None
            };
            let accepting = hub.protocol.verdict.is_none() && !assembled;
            fds.clear();
            fds.push(PollFd::new(
                self.listener.as_raw_fd(),
                if accepting { POLLIN } else { 0 },
            ));
            for (i, c) in hub.conns.iter().enumerate() {
                fds.push(PollFd::new(c.stream.as_raw_fd(), hub.events(i)));
            }
            poll::wait(&mut fds, timeout).expect("poll the hub's sockets");
            if fds[0].revents != 0 {
                self.accept(&mut hub);
            }
            for (i, fd) in fds[1..].iter().enumerate() {
                if fd.revents != 0 {
                    hub.flush(i);
                    hub.read(i);
                }
            }
            if !assembled && hub.protocol.assembled() {
                // GO: drop the connections that never said HELLO.
                hub.conns.retain(|c| c.rank.is_some());
                for (i, c) in hub.conns.iter().enumerate() {
                    hub.by_rank[c.rank.expect("said HELLO")] = i;
                }
            }
        }
        for c in &hub.conns {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        hub.protocol.outcome()
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
