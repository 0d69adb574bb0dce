//! The socket transport: PEs as OS processes on a real wire.
//!
//! The in-process [`converse_net::Interconnect`] puts every PE in one
//! address space — mailboxes are memory, "wire time" is a model. This
//! crate is the second implementation of the machine interface's
//! transport contract ([`converse_net::CmiTransport`]), where each PE
//! is its own OS process and messages cross an actual socket:
//!
//! * A **hub** ([`WireHub`]) in the launcher process binds a loopback
//!   TCP listener and routes frames between workers in a star topology:
//!   worker → hub → worker, all from the thread that runs it (one
//!   `poll(2)` loop, no lock). One listener address is the whole
//!   machine's bootstrap configuration.
//! * Each worker holds a [`WireEndpoint`]: its end of the hub
//!   connection plus a private `Interconnect` as the transport's *local
//!   half* — the rank's mailbox, clock, stall windows, load cell and
//!   counters, which the PE calls directly; the endpoint implements
//!   only what crosses the wire.
//! * Frames are the length-prefixed encoding in `converse_msg::frame` —
//!   the payload is the generalized message verbatim, so everything
//!   above the transport is bit-identical across wires — and are read by
//!   its one decoder, which a non-blocking reader resumes mid-frame.
//! * The wire is a plain reliable pipe, FIFO per ordered pair of
//!   ranks, and carries no link protocol. A [`converse_net::FaultPlan`]
//!   acts where a message enters its PE: the local half runs link
//!   `src → rank` for every arrival, with the one link-protocol driver
//!   the in-process machine uses — same decision streams, so a seed
//!   reproduces the same adversity on every transport. Control frames
//!   (bootstrap, teardown, stall arming, steal requests) are never
//!   faulted: the plan models the data channel.
//!
//! Bootstrap handshake: worker connects, sends `HELLO(rank)`; once the
//! hub has all `n` hellos it broadcasts `GO` — the collective startup
//! barrier. Teardown: each worker sends `EXIT` carrying a
//! [`WorkerReport`] once its PE is done, and waits for the hub's `FIN`;
//! a panicking worker sends `ABORT` instead, which the hub fans out so
//! surviving workers stop promptly. A worker that dies without `EXIT`
//! or `ABORT` (e.g. kill -9) is detected as an EOF on its hub
//! connection and surfaces as [`HubFailure::Crashed`].
//!
//! That control plane is two small sans-IO state machines. The hub's
//! protocol decides every verdict from (rank, HELLO / frame / EOF)
//! inputs, the first failure winning; each endpoint's lifecycle is one
//! phase (Running → Finishing → Fin | Aborted). The loops around them
//! (the hub's poll loop, each endpoint's reader thread) only move bytes,
//! and a unit test drives both together over every interleaving of a
//! small machine (`hub/explore.rs`).
//!
//! The **shared-memory ring data plane** (`Transport::ShmRing`, Linux
//! x86-64/aarch64) reuses all of the above but demotes the hub socket
//! to a control plane: data frames travel through lock-free SPSC byte
//! rings — one per ordered PE pair — in a `memfd_create`-backed region
//! ([`ShmRegion`]) every worker maps, with per-PE futex doorbells for
//! the idle path ([`ShmPlane`]). Bootstrap, teardown, crash detection,
//! and oversized or overflow frames stay on the hub socket, so the
//! protocol above is unchanged and the two wires differ only in who
//! carries `DATA`. The rings have no receive thread: each PE sweeps its
//! own inbound rings, as the paper's scheduler pulls from the network.

mod endpoint;
// Elsewhere every shared-memory syscall fails, so no region (and no
// ring) ever exists.
#[cfg_attr(
    not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )),
    path = "futex_unsupported.rs"
)]
mod futex;
mod hub;
#[cfg(unix)]
mod poll;
mod region;
mod report;
mod shm;

pub use endpoint::WireEndpoint;
pub use hub::{HubFailure, WireHub};
pub use region::ShmRegion;
pub use report::WorkerReport;
pub use shm::{PushOutcome, ShmPlane};

use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// True when this build can run the shared-memory ring transport
/// (Linux on x86-64 or aarch64 — the targets with hand-declared
/// `memfd_create`/`futex` bindings).
pub const SHM_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// Grace period between the hub's verdict (every rank exited, or the
/// first failure) and forceful teardown of the workers still running.
pub const GRACE: Duration = Duration::from_secs(5);

/// Shared-memory transport: data bytes per directed SPSC ring. Frames
/// larger than one ring fall back to the hub socket.
pub const RING_BYTES: usize = 1 << 20;

/// How long the hub waits for every worker to connect and say HELLO
/// before declaring the bootstrap failed.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a worker retries connecting to the hub.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Frame kinds of the wire protocol (the `kind` byte of
/// [`converse_msg::FrameHeader`]).
pub mod kind {
    /// Worker → hub: "rank `src` is connected" (bootstrap).
    pub const HELLO: u8 = 1;
    /// Hub → workers: all ranks connected, start (the startup barrier).
    pub const GO: u8 = 2;
    /// A generalized message from PE `src` to PE `dst`.
    pub const DATA: u8 = 3;
    /// Remote stall arming: payload is the window length in ns.
    pub(crate) const STALL: u8 = 5;
    /// External injection (CCS-style): like DATA but counted as
    /// injected traffic at the destination.
    pub(crate) const INJECT: u8 = 6;
    /// Worker → hub: clean completion, payload is a [`crate::WorkerReport`].
    pub(crate) const EXIT: u8 = 7;
    /// Worker → hub → workers: a PE panicked, payload is the message.
    pub(crate) const ABORT: u8 = 8;
    /// Hub → workers: every rank exited, tear down.
    pub(crate) const FIN: u8 = 9;
    /// Thief → victim: an idle PE asks the most-loaded rank to donate
    /// stealable work it has not drained yet; payload is the batch cap,
    /// exactly 8 bytes (a u64 LE) — any other length fails the machine.
    pub(crate) const STEAL_REQ: u8 = 10;
    /// Victim → thief: one donated message. `src` carries the donated
    /// message's *original* sender, payload is the message bytes; the
    /// receiver delivers it as it does a DATA frame.
    pub(crate) const DONATE: u8 = 11;
    /// Ring only: holds the place of `src`'s next frame that is too big
    /// for a ring and goes over the hub; the consumer reads nothing
    /// behind this record until that frame has come in.
    pub(crate) const HELD: u8 = 12;

    /// Human-readable frame-kind label for traces and errors.
    pub(crate) fn name(k: u8) -> &'static str {
        match k {
            HELLO => "hello",
            GO => "go",
            DATA => "data",
            STALL => "stall",
            INJECT => "inject",
            EXIT => "exit",
            ABORT => "abort",
            FIN => "fin",
            STEAL_REQ => "steal_req",
            DONATE => "donate",
            HELD => "held",
            _ => "unknown",
        }
    }
}

/// Connect to the hub at `addr` (`host:port`) with `TCP_NODELAY` set,
/// retrying for [`CONNECT_TIMEOUT`] — the hub's listener is bound
/// before workers spawn, but a busy host may still race us.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let deadline = std::time::Instant::now() + CONNECT_TIMEOUT;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) if std::time::Instant::now() >= deadline => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("wire: connect to {addr} timed out: {e}"),
                ));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}
