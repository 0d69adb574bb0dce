//! The socket transport: PEs as OS processes on a real wire.
//!
//! The in-process [`converse_net::Interconnect`] puts every PE in one
//! address space — mailboxes are memory, "wire time" is a model. This
//! crate is the second implementation of the machine interface's
//! transport contract ([`converse_net::CmiTransport`]), where each PE
//! is its own OS process and messages cross an actual socket:
//!
//! * A **hub** ([`WireHub`]) in the launcher process binds a loopback
//!   TCP or Unix-domain listener and routes frames between workers in a
//!   star topology: worker → hub → worker. One listener address is the
//!   whole machine's bootstrap configuration.
//! * Each worker holds a [`WireEndpoint`]: its end of the hub
//!   connection plus a private `Interconnect` as the transport's *local
//!   half* — the rank's mailbox, clock, stall windows, load cell and
//!   counters, which the PE calls directly; the endpoint implements
//!   only what crosses the wire.
//! * Frames are the length-prefixed encoding in `converse_msg::frame` —
//!   the payload is the generalized message verbatim, so everything
//!   above the transport is bit-identical across wires.
//! * When a [`converse_net::FaultPlan`] is installed, the
//!   seq/ack/retransmit reliability sublayer runs **over the real
//!   socket**. It is the one [`converse_net::link`] protocol the
//!   in-process machine drives too — same decision streams, so a seed
//!   reproduces the same adversity on every transport: the sender half
//!   injects deterministic drops/duplicates/delays before the socket
//!   and masks them with retransmission, the receiver half sequences
//!   and dedups — exactly-once, in-order delivery on a wire that is
//!   genuinely asynchronous. Control frames (ACK/bootstrap/teardown)
//!   ride the socket un-faulted: the plan models the data channel.
//!
//! Bootstrap handshake: worker connects, sends `HELLO(rank)`; once the
//! hub has all `n` hellos it broadcasts `GO` — the collective startup
//! barrier. Teardown: each worker flushes its retransmit buffer, sends
//! `EXIT` carrying a [`WorkerReport`], and waits for the hub's `FIN`;
//! a panicking worker sends `ABORT` instead, which the hub fans out so
//! surviving workers stop promptly. A worker that dies without `EXIT`
//! or `ABORT` (e.g. kill -9) is detected as an EOF on its hub
//! connection and surfaces as [`HubFailure::Crashed`].
//!
//! The **shared-memory ring data plane** (`Transport::ShmRing`, Linux
//! x86-64/aarch64) reuses all of the above but demotes the hub socket
//! to a control plane: data frames travel through lock-free SPSC byte
//! rings — one per ordered PE pair — in a `memfd_create`-backed region
//! ([`ShmRegion`]) every worker maps, with per-PE futex doorbells for
//! the idle path ([`ShmPlane`]). Bootstrap, teardown, crash detection,
//! and oversized or overflow frames stay on the hub socket, so the
//! protocol above is unchanged and the two wires differ only in who
//! carries `DATA`.

mod endpoint;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod futex;
mod hub;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod region;
mod report;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod shm;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod shm_stub;

pub use endpoint::WireEndpoint;
pub use hub::{HubFailure, HubOutcome, WireHub};
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use region::ShmRegion;
pub use report::WorkerReport;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub use shm::{PushOutcome, ShmPlane};
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub use shm_stub::{PushOutcome, ShmPlane, ShmRegion};

/// True when this build can run the shared-memory ring transport
/// (Linux on x86-64 or aarch64 — the targets with hand-declared
/// `memfd_create`/`futex` bindings).
pub const SHM_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

use std::io::{self, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Frame kinds of the wire protocol (the `kind` byte of
/// [`converse_msg::FrameHeader`]).
pub mod kind {
    /// Worker → hub: "rank `src` is connected" (bootstrap).
    pub const HELLO: u8 = 1;
    /// Hub → workers: all ranks connected, start (the startup barrier).
    pub const GO: u8 = 2;
    /// A generalized message from PE `src` to PE `dst`.
    pub const DATA: u8 = 3;
    /// Reliability acknowledgment: `seq` selectively acked, payload
    /// carries the cumulative watermark (all lower seqs delivered).
    pub const ACK: u8 = 4;
    /// Remote stall arming: payload is the window length in ns.
    pub const STALL: u8 = 5;
    /// External injection (CCS-style): like DATA but counted as
    /// injected traffic at the destination.
    pub const INJECT: u8 = 6;
    /// Worker → hub: clean completion, payload is a [`crate::WorkerReport`].
    pub const EXIT: u8 = 7;
    /// Worker → hub → workers: a PE panicked, payload is the message.
    pub const ABORT: u8 = 8;
    /// Hub → workers: every rank exited, tear down.
    pub const FIN: u8 = 9;
    /// Thief → victim: an idle PE asks the most-loaded rank to donate
    /// stealable staged work; payload is a u32 LE batch cap.
    pub const STEAL_REQ: u8 = 10;
    /// Victim → thief: one donated message. `src` carries the donated
    /// message's *original* sender, payload is the message bytes; the
    /// receiver delivers it through the unsequenced mailbox path (the
    /// donation already cleared the reliability sublayer at the victim,
    /// and TCP carries it exactly once).
    pub const DONATE: u8 = 11;

    /// Human-readable frame-kind label for traces and errors.
    pub fn name(k: u8) -> &'static str {
        match k {
            HELLO => "hello",
            GO => "go",
            DATA => "data",
            ACK => "ack",
            STALL => "stall",
            INJECT => "inject",
            EXIT => "exit",
            ABORT => "abort",
            FIN => "fin",
            STEAL_REQ => "steal_req",
            DONATE => "donate",
            _ => "unknown",
        }
    }
}

/// Which socket family carries the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireKind {
    /// TCP over loopback (`127.0.0.1`), `TCP_NODELAY` set — portable
    /// default.
    #[default]
    Tcp,
    /// Unix-domain socket in the temp directory (Unix hosts only).
    #[cfg(unix)]
    Unix,
}

/// Tunables of the socket transport.
#[derive(Debug, Clone)]
pub struct WireOptions {
    /// Socket family (default TCP loopback).
    pub kind: WireKind,
    /// How long the hub waits for all workers to connect and say HELLO
    /// before declaring the bootstrap failed.
    pub accept_timeout: Duration,
    /// How long a worker retries connecting to the hub.
    pub connect_timeout: Duration,
    /// Grace period between a detected failure and forceful teardown of
    /// the survivors.
    pub grace: Duration,
    /// Shared-memory transport only: data bytes per directed SPSC ring
    /// (power of two, ≥ 4096). Frames larger than one ring fall back
    /// to the control-plane socket.
    pub ring_bytes: usize,
}

impl Default for WireOptions {
    fn default() -> Self {
        WireOptions {
            kind: WireKind::default(),
            accept_timeout: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(10),
            grace: Duration::from_secs(5),
            ring_bytes: 1 << 20,
        }
    }
}

/// One connected socket of either family. Cloned handles share the
/// underlying descriptor (reader and writer halves of one connection).
pub enum WireStream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl WireStream {
    /// Another handle to the same connection.
    pub fn try_clone(&self) -> io::Result<WireStream> {
        Ok(match self {
            WireStream::Tcp(s) => WireStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            WireStream::Unix(s) => WireStream::Unix(s.try_clone()?),
        })
    }

    /// Shut down both directions; blocked reads on any clone return EOF.
    pub fn shutdown(&self) {
        let _ = match self {
            WireStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            WireStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Bound the next blocking reads (`None` = block forever).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            WireStream::Unix(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// Connect to a hub address (`"tcp:127.0.0.1:PORT"` or
/// `"unix:/path"`), retrying until `timeout` — the hub's listener is
/// bound before workers spawn, but a busy host may still race us.
pub fn connect(addr: &str, timeout: Duration) -> io::Result<WireStream> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let attempt = connect_once(addr);
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) => {
                if std::time::Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("wire: connect to {addr} timed out: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn connect_once(addr: &str) -> io::Result<WireStream> {
    if let Some(hostport) = addr.strip_prefix("tcp:") {
        let s = TcpStream::connect(hostport)?;
        s.set_nodelay(true)?;
        return Ok(WireStream::Tcp(s));
    }
    #[cfg(unix)]
    if let Some(path) = addr.strip_prefix("unix:") {
        return Ok(WireStream::Unix(UnixStream::connect(path)?));
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("wire: unrecognized hub address {addr:?}"),
    ))
}
