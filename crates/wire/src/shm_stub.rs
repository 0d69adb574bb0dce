//! Stub types for targets without the shared-memory ring transport
//! (anything that is not Linux on x86-64/aarch64). The machine layer
//! refuses `Transport::ShmRing` before any of this is reachable; the
//! stubs only exist so the endpoint compiles unchanged.

use converse_msg::{FrameHeader, MsgBlock};
use std::io;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const UNSUPPORTED: &str = "shm ring transport is only available on Linux x86-64/aarch64";

/// See `region::ShmRegion` on supported targets.
pub struct ShmRegion {
    _private: (),
}

impl ShmRegion {
    pub fn create(_n: usize, _ring_cap: usize) -> io::Result<ShmRegion> {
        Err(io::Error::new(io::ErrorKind::Unsupported, UNSUPPORTED))
    }

    pub fn adopt(_fd: i32, _expect_n: usize) -> io::Result<ShmRegion> {
        Err(io::Error::new(io::ErrorKind::Unsupported, UNSUPPORTED))
    }

    pub fn fd(&self) -> Option<i32> {
        unreachable!("{UNSUPPORTED}")
    }
}

/// See `shm::PushOutcome` on supported targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    Sent,
    TooBig,
    Full,
    Shutdown,
}

/// See `shm::ShmPlane` on supported targets.
pub struct ShmPlane {
    _private: (),
}

impl ShmPlane {
    pub fn new(_region: Arc<ShmRegion>, _rank: usize, _idle_spin: u32) -> ShmPlane {
        unreachable!("{UNSUPPORTED}")
    }

    pub fn push(
        &self,
        _dst: usize,
        _header: FrameHeader,
        _payload: &[u8],
        _block: bool,
        _shutdown: &AtomicBool,
    ) -> PushOutcome {
        unreachable!("{UNSUPPORTED}")
    }

    pub fn poll_loop(&self, _shutdown: &AtomicBool, _on_frame: impl FnMut(FrameHeader, MsgBlock)) {
        unreachable!("{UNSUPPORTED}")
    }

    pub(crate) fn poll_sweeps(
        &self,
        _shutdown: &AtomicBool,
        _on_frame: impl FnMut(FrameHeader, MsgBlock),
        _wake: impl FnMut(),
        _on_corrupt: impl FnMut(&str),
    ) {
        unreachable!("{UNSUPPORTED}")
    }
}
