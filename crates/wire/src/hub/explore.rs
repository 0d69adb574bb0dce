//! An exhaustive check of the wire control plane: the hub's real
//! `Protocol` and `n` real endpoint `Phase`s, driven together without
//! sockets or threads.
//!
//! Each connection is two FIFO queues (worker → hub, hub → worker). A
//! breadth-first search with a visited set walks every interleaving of
//! these moves:
//!
//! * a worker says HELLO, and after GO, until its phase is final, may at
//!   any point finish cleanly (flush → EXIT), ABORT (a panic: ABORT, then
//!   its connection ends) or crash (its connection ends) — and, as its
//!   one misbehaviour, repeat its EXIT, send a malformed EXIT or one
//!   naming another rank, or send a data frame addressed outside the
//!   machine;
//! * a worker reads the next frame the hub sent it;
//! * the hub reads the next frame of a connection: it hands it to
//!   `Protocol::on` and fans out the frame that returns (no frame the
//!   model sends is forwarded). Before GO it reads only HELLOs. It stops
//!   reading a connection at its end, and at the verdict, after at most
//!   one more frame: a superset of the hub's loop, which reads nothing
//!   once there is a verdict;
//! * once, at any point before the teardown, the hub's deadline passes
//!   (`early_fail` is the same input): `Input::Deadline`;
//! * once there is a verdict, the hub tears every connection down.
//!
//! An oracle that shares no code with `Protocol` replays what the hub
//! read and states the expected verdict. Checked in every reachable
//! state:
//!
//! * the verdict is the first failure in the order the hub read it, and
//!   `Ok` exactly when every rank sent a valid EXIT first — so a clean
//!   run is never reported failed, and an EOF after EXIT or after the
//!   verdict is not a crash;
//! * a deadline before every HELLO was read is a bootstrap failure
//!   (when it is the first failure), and one after GO has no effect;
//! * FIN goes out only after `n` valid EXITs;
//! * once the hub is torn down and a surviving worker has read what it
//!   was sent, its phase is Fin (clean run) or Aborted by the hub's
//!   ABORT (failed run): no worker is left waiting, and none learns the
//!   outcome only from the hub vanishing;
//! * the search ends only in states where the hub has a verdict.
//!
//! Test-only variants of the protocol, each wrapping the real one from
//! here, show that the search finds a duplicate EXIT counted twice, an
//! EOF after EXIT taken for a crash, a later failure replacing the
//! first, an ABORT fan-out that skips one rank, and a deadline after GO
//! that fails the run.

use super::{HubFailure, Input, Protocol, NOBODY};
use crate::endpoint::Phase;
use crate::{kind, WorkerReport};
use converse_msg::FrameHeader;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// A frame (or the end) a worker puts on its connection to the hub.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Up {
    Hello,
    Exit(Report),
    Abort,
    Data { dst: usize },
    Eof,
}

/// What an EXIT frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Report {
    Valid,
    Malformed,
    NamesAnotherRank,
}

/// What the hub puts on a worker's connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Down {
    /// GO, ABORT or FIN.
    Control(u8),
    /// The hub tore the connection down.
    Eof,
}

/// The verdict, as far as the checks care.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Verdict {
    Clean,
    Crashed(usize),
    Panicked(usize),
    /// A protocol violation by this rank (`HubFailure::Bootstrap`).
    Broke(Option<usize>),
}

impl Verdict {
    fn of(v: &Option<Result<(), HubFailure>>) -> Option<Verdict> {
        Some(match v.as_ref()? {
            Ok(()) => Verdict::Clean,
            Err(HubFailure::Crashed { rank }) => Verdict::Crashed(*rank),
            Err(HubFailure::Panicked { rank, .. }) => Verdict::Panicked(*rank),
            Err(HubFailure::Bootstrap { rank, .. }) => Verdict::Broke(*rank),
        })
    }
}

/// The endpoint's phase after the hub's ABORT, and after the hub vanished.
const BY_PEER: &str = "aborted by peer";
const HUB_LOST: &str = "hub connection lost";

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Worker {
    phase: Phase,
    said_hello: bool,
    /// GO arrived.
    started: bool,
    alive: bool,
    /// Misbehaviours left: a repeated or bad EXIT, or a frame addressed
    /// outside the machine.
    faults: u8,
    up: VecDeque<Up>,
    down: VecDeque<Down>,
}

/// The specification's account of what the hub has read. It shares no
/// code with `Protocol`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Oracle {
    /// Ranks whose HELLO the hub read.
    hello: Vec<bool>,
    /// Ranks whose valid EXIT the hub read.
    exited: Vec<bool>,
    verdict: Option<Verdict>,
}

impl Oracle {
    /// The deadline passed: a bootstrap failure until every HELLO was
    /// read, nothing after.
    fn deadline(&mut self) {
        if self.verdict.is_none() && !self.hello.iter().all(|&h| h) {
            self.verdict = Some(Verdict::Broke(None));
        }
    }

    fn observe(&mut self, rank: usize, up: Up) {
        let n = self.exited.len();
        let exited = self.exited[rank];
        match up {
            Up::Hello => self.hello[rank] = true,
            Up::Exit(Report::Valid) => self.exited[rank] = true,
            _ => {}
        }
        if self.verdict.is_some() {
            return;
        }
        self.verdict = match up {
            Up::Eof if !exited => Some(Verdict::Crashed(rank)),
            Up::Abort => Some(Verdict::Panicked(rank)),
            Up::Exit(Report::Valid) if !exited => {
                self.exited.iter().all(|&e| e).then_some(Verdict::Clean)
            }
            Up::Exit(_) if !exited => Some(Verdict::Broke(Some(rank))),
            Up::Data { dst } if dst >= n => Some(Verdict::Broke(Some(rank))),
            _ => None,
        };
    }
}

/// A protocol under test: the real one, or the real one with one rule
/// broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Variant {
    Real,
    /// Forgets that a rank exited, so a repeated EXIT counts again.
    CountsDuplicateExit,
    /// Forgets that a rank exited when its connection ends.
    CrashAfterExit,
    /// Lets a later failure replace the verdict.
    LaterFailureWins,
    /// Fans ABORT out to every rank but the last.
    AbortSkipsOneRank,
    /// Lets a deadline after GO fail the run.
    DeadlineAfterGo,
}

impl Variant {
    fn on(self, p: &mut Protocol, rank: usize, input: Input) -> Option<u8> {
        let exit = matches!(input, Input::Frame(h, _) if h.kind == kind::EXIT);
        let eof = matches!(input, Input::Eof);
        match self {
            Variant::CountsDuplicateExit if exit => p.reports[rank] = None,
            Variant::CrashAfterExit if eof => {
                let report = p.reports[rank].take();
                let frame = p.on(rank, input);
                p.reports[rank] = report;
                return frame;
            }
            Variant::DeadlineAfterGo if matches!(input, Input::Deadline(_)) && p.assembled() => {
                p.connected[0] = false;
                let frame = p.on(rank, input);
                p.connected[0] = true;
                return frame;
            }
            Variant::LaterFailureWins if matches!(p.verdict, Some(Err(_))) => {
                let first = p.verdict.take();
                let frame = p.on(rank, input);
                if !matches!(p.verdict, Some(Err(_))) {
                    p.verdict = first;
                }
                return frame;
            }
            _ => {}
        }
        p.on(rank, input)
    }
}

struct State {
    protocol: Protocol,
    workers: Vec<Worker>,
    /// Which connections the hub still reads.
    reading: Vec<bool>,
    /// The deadline passed.
    deadline: bool,
    torn_down: bool,
    oracle: Oracle,
}

impl State {
    fn new(n: usize, faults: u8) -> State {
        let worker = Worker {
            phase: Phase::Running,
            said_hello: false,
            started: false,
            alive: true,
            faults,
            up: VecDeque::new(),
            down: VecDeque::new(),
        };
        State {
            protocol: Protocol::new(n),
            workers: vec![worker; n],
            reading: vec![true; n],
            deadline: false,
            torn_down: false,
            oracle: Oracle {
                hello: vec![false; n],
                exited: vec![false; n],
                verdict: None,
            },
        }
    }

    /// A 128-bit digest of everything that decides the future.
    fn key(&self) -> u128 {
        let p = &self.protocol;
        let exited: Vec<bool> = p.reports.iter().map(Option::is_some).collect();
        let parts = (
            (&p.connected, exited, p.exits, Verdict::of(&p.verdict)),
            (
                &self.workers,
                &self.reading,
                (self.deadline, self.torn_down),
                &self.oracle,
            ),
        );
        let digest = |salt: u64| {
            let mut h = DefaultHasher::new();
            salt.hash(&mut h);
            parts.hash(&mut h);
            h.finish() as u128
        };
        digest(1) << 64 | digest(2)
    }

    fn n(&self) -> usize {
        self.workers.len()
    }

    /// Every state one move away, each checked as it is made.
    fn successors(&self, v: Variant) -> Result<Vec<State>, String> {
        let mut next = Vec::new();
        for r in 0..self.n() {
            for up in self.worker_moves(r) {
                let mut s = self.clone();
                s.worker_sends(r, up);
                next.push(s);
            }
            let w = &self.workers[r];
            if w.alive && !w.down.is_empty() {
                let mut s = self.clone();
                s.worker_reads(r);
                next.push(s);
            }
            if self.hub_may_read(r) {
                let mut s = self.clone();
                s.hub_reads(r, v)?;
                next.push(s);
            }
        }
        if !self.torn_down && !self.deadline {
            let mut s = self.clone();
            s.deadline_passes(v)?;
            next.push(s);
        }
        if !self.torn_down && self.protocol.verdict.is_some() {
            let mut s = self.clone();
            s.torn_down = true;
            for w in s.workers.iter_mut().filter(|w| w.alive) {
                w.down.push_back(Down::Eof);
            }
            next.push(s);
        }
        Ok(next)
    }

    /// What worker `r` may write next (`Up::Eof` is a crash). A worker
    /// whose phase is final writes nothing more.
    fn worker_moves(&self, r: usize) -> Vec<Up> {
        let (w, n) = (&self.workers[r], self.n());
        if !w.alive {
            return vec![];
        }
        if !w.said_hello {
            return vec![Up::Hello];
        }
        if !w.started {
            return vec![];
        }
        if w.phase.over() {
            return vec![];
        }
        let mut moves = vec![Up::Abort, Up::Eof];
        if w.phase == Phase::Running || w.faults > 0 {
            moves.push(Up::Exit(Report::Valid));
        }
        if w.faults > 0 {
            moves.extend([
                Up::Exit(Report::Malformed),
                Up::Exit(Report::NamesAnotherRank),
                Up::Data { dst: n },
            ]);
        }
        moves
    }

    fn worker_sends(&mut self, r: usize, up: Up) {
        let w = &mut self.workers[r];
        match up {
            Up::Hello => w.said_hello = true,
            Up::Exit(Report::Valid) if w.phase == Phase::Running => {
                assert!(w.phase.to(Phase::Finishing));
            }
            Up::Exit(_) | Up::Data { .. } => w.faults -= 1,
            Up::Abort => {
                // A panicking worker's process exits after its ABORT.
                w.up.push_back(Up::Abort);
                return self.worker_sends(r, Up::Eof);
            }
            Up::Eof => {
                w.alive = false;
                w.down.clear();
            }
        }
        w.up.push_back(up);
    }

    /// Worker `r` reads a frame, as the endpoint's reader does.
    fn worker_reads(&mut self, r: usize) {
        let w = &mut self.workers[r];
        match w.down.pop_front().expect("a frame to read") {
            Down::Control(kind::GO) => w.started = true,
            Down::Control(kind::FIN) => _ = w.phase.to(Phase::Fin),
            Down::Control(_) => _ = w.phase.to(Phase::Aborted(BY_PEER.into())),
            Down::Eof => _ = w.phase.to(Phase::Aborted(HUB_LOST.into())),
        }
    }

    /// Before GO the hub reads only HELLOs; after the teardown nothing.
    fn hub_may_read(&self, r: usize) -> bool {
        let front = self.workers[r].up.front();
        let go = self.protocol.connected.iter().all(|&c| c);
        !self.torn_down && self.reading[r] && front.is_some_and(|&up| go || up == Up::Hello)
    }

    /// The hub's deadline passes (or `early_fail` names a dead child).
    fn deadline_passes(&mut self, v: Variant) -> Result<(), String> {
        self.deadline = true;
        let frame = v.on(
            &mut self.protocol,
            NOBODY,
            Input::Deadline("deadline".into()),
        );
        self.oracle.deadline();
        self.fan_out(frame, v)?;
        self.check_verdict("the deadline passed")
    }

    /// Send the frame the protocol returned to every live worker.
    fn fan_out(&mut self, frame: Option<u8>, v: Variant) -> Result<(), String> {
        let n = self.n();
        if let Some(k) = frame {
            if k == kind::FIN && !self.oracle.exited.iter().all(|&e| e) {
                return Err(format!("FIN after {:?} valid EXITs", self.oracle.exited));
            }
            for (rank, w) in self.workers.iter_mut().enumerate() {
                let skipped = v == Variant::AbortSkipsOneRank && k == kind::ABORT && rank == n - 1;
                if w.alive && !skipped {
                    w.down.push_back(Down::Control(k));
                }
            }
        }
        Ok(())
    }

    /// The protocol's verdict is the oracle's, after `what`.
    fn check_verdict(&self, what: &str) -> Result<(), String> {
        let verdict = Verdict::of(&self.protocol.verdict);
        if verdict != self.oracle.verdict {
            return Err(format!(
                "verdict {verdict:?} where the first failure in event order is {:?} ({what})",
                self.oracle.verdict
            ));
        }
        Ok(())
    }

    /// The hub reads one frame of connection `r`.
    fn hub_reads(&mut self, r: usize, v: Variant) -> Result<(), String> {
        let up = self.workers[r].up.pop_front().expect("a frame to read");
        let frame =
            |k, dst: usize, payload| Some((FrameHeader::new(k, r as u32, dst as u32, 0), payload));
        let report = |rank| WorkerReport {
            rank,
            ..WorkerReport::default()
        };
        let frame = match up {
            Up::Hello | Up::Eof => None,
            Up::Abort => frame(kind::ABORT, 0, b"boom".to_vec()),
            Up::Exit(Report::Valid) => frame(kind::EXIT, 0, report(r).encode()),
            Up::Exit(Report::NamesAnotherRank) => frame(kind::EXIT, 0, report(r + 1).encode()),
            Up::Exit(Report::Malformed) => frame(kind::EXIT, 0, vec![1, 2, 3]),
            Up::Data { dst } => frame(kind::DATA, dst, vec![7]),
        };
        let input = match &frame {
            Some((h, payload)) => Input::Frame(*h, payload),
            None if up == Up::Hello => Input::Hello,
            None => Input::Eof,
        };
        let eof = up == Up::Eof;
        let frame = v.on(&mut self.protocol, r, input);
        self.oracle.observe(r, up);
        self.fan_out(frame, v)?;
        if eof || self.protocol.verdict.is_some() {
            self.reading[r] = false;
        }
        self.check_verdict(&format!("rank {r} sent {up:?}"))
    }

    /// Once the hub is torn down, a surviving worker that has read
    /// everything it was sent knows the verdict from the hub itself.
    fn check_workers(&self) -> Result<(), String> {
        if !self.torn_down {
            return Ok(());
        }
        let clean = Verdict::of(&self.protocol.verdict) == Some(Verdict::Clean);
        for (r, w) in self.workers.iter().enumerate() {
            if !w.alive || !w.down.is_empty() {
                continue;
            }
            let heard = match &w.phase {
                Phase::Fin => clean,
                Phase::Aborted(msg) => !clean && msg == BY_PEER,
                _ => false,
            };
            if !heard {
                return Err(format!(
                    "worker {r} ends {:?} after the hub settled {:?}",
                    w.phase,
                    Verdict::of(&self.protocol.verdict)
                ));
            }
        }
        Ok(())
    }
}

impl Clone for State {
    fn clone(&self) -> State {
        let verdict = self.protocol.verdict.as_ref().map(|v| {
            v.as_ref().map(|_| ()).map_err(|f| match f {
                HubFailure::Bootstrap { rank, detail } => HubFailure::Bootstrap {
                    rank: *rank,
                    detail: detail.clone(),
                },
                HubFailure::Crashed { rank } => HubFailure::Crashed { rank: *rank },
                HubFailure::Panicked { rank, msg } => HubFailure::Panicked {
                    rank: *rank,
                    msg: msg.clone(),
                },
            })
        });
        State {
            protocol: Protocol {
                connected: self.protocol.connected.clone(),
                reports: self.protocol.reports.clone(),
                exits: self.protocol.exits,
                verdict,
            },
            workers: self.workers.clone(),
            reading: self.reading.clone(),
            deadline: self.deadline,
            torn_down: self.torn_down,
            oracle: self.oracle.clone(),
        }
    }
}

/// What a search saw.
#[derive(Debug, Default)]
struct Stats {
    states: usize,
    transitions: usize,
    /// States with no move left, and how each one's run ended.
    terminal: usize,
    clean: usize,
    crashed: usize,
    panicked: usize,
    broke: usize,
}

/// Search every state reachable with `n` ranks and `faults`
/// misbehaviours per worker; the first violated check is the error.
fn explore(n: usize, faults: u8, v: Variant) -> Result<Stats, String> {
    let start = State::new(n, faults);
    let mut seen = HashSet::from([start.key()]);
    let mut queue = VecDeque::from([start]);
    let mut stats = Stats::default();
    while let Some(s) = queue.pop_front() {
        stats.states += 1;
        s.check_workers()?;
        let next = s.successors(v)?;
        stats.transitions += next.len();
        if next.is_empty() {
            stats.terminal += 1;
            match Verdict::of(&s.protocol.verdict) {
                None => return Err("the search ended with the hub still waiting".into()),
                Some(Verdict::Clean) => stats.clean += 1,
                Some(Verdict::Crashed(_)) => stats.crashed += 1,
                Some(Verdict::Panicked(_)) => stats.panicked += 1,
                Some(Verdict::Broke(_)) => stats.broke += 1,
            }
        }
        for t in next {
            if seen.insert(t.key()) {
                queue.push_back(t);
            }
        }
    }
    Ok(stats)
}

fn explore_all_checks(n: usize, faults: u8) {
    let t0 = std::time::Instant::now();
    let stats = explore(n, faults, Variant::Real).unwrap_or_else(|e| panic!("{n} ranks: {e}"));
    println!(
        "{n} ranks, {faults} misbehaviour(s) each: {stats:?} in {:?}",
        t0.elapsed()
    );
    for (verdict, count) in [
        ("clean", stats.clean),
        ("crashed", stats.crashed),
        ("panicked", stats.panicked),
        ("protocol violation", stats.broke),
    ] {
        assert!(count > 0, "no run ended {verdict}: {stats:?}");
    }
}

#[test]
fn one_rank_every_order() {
    explore_all_checks(1, 1);
}

#[test]
fn two_ranks_every_order() {
    explore_all_checks(2, 1);
}

#[test]
#[ignore = "the 3-rank search is CI's: cargo test -p converse-wire -- --ignored"]
fn three_ranks_every_order() {
    explore_all_checks(3, 1);
}

#[test]
fn the_search_finds_each_seeded_bug() {
    for (variant, found) in [
        (Variant::CountsDuplicateExit, "FIN after"),
        (
            Variant::CrashAfterExit,
            "where the first failure in event order is None",
        ),
        (
            Variant::LaterFailureWins,
            "where the first failure in event order is Some(",
        ),
        (
            Variant::AbortSkipsOneRank,
            "worker 1 ends Aborted(\"hub connection lost\")",
        ),
        (
            Variant::DeadlineAfterGo,
            "where the first failure in event order is None (the deadline passed)",
        ),
    ] {
        match explore(2, 1, variant) {
            Err(e) => assert!(e.contains(found), "{variant:?}: {e}"),
            Ok(stats) => panic!("{variant:?} went unnoticed over {stats:?}"),
        }
    }
}
