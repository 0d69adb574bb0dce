//! A hand-declared `poll(2)`, the hub's one wait. std already links
//! libc, so the call is declared here instead of through a bindings
//! crate, as `futex.rs` declares its syscalls. It builds for the Unix
//! targets `converse-fiber` builds for: `nfds_t` is `unsigned long` on
//! Linux and `unsigned int` on macOS, Android and the BSDs.

use std::io;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// Readable (or at its end).
pub(crate) const POLLIN: c_short = 0x1;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x4;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    pub(crate) revents: c_short,
}

impl PollFd {
    /// Wait on `fd` for `events`; with none, `poll` skips it.
    pub(crate) fn new(fd: c_int, events: c_short) -> PollFd {
        let fd = if events == 0 { -1 } else { fd };
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Wait until one of `fds` is ready or `timeout` (rounded up to a whole
/// millisecond; `None` waits for good) has passed. A wait a signal
/// interrupted returns as a timeout does.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| {
        t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int
    });
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`s, which is all `poll` reads and writes.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}
