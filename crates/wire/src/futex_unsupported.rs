//! `futex.rs` where its syscalls are not declared: creating or mapping a
//! segment fails with `Unsupported`, so no region (no ring) ever exists.

use std::io;
use std::sync::atomic::AtomicU32;
use std::time::Duration;

fn unsupported<T>() -> io::Result<T> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "shm ring transport is only available on Linux x86-64/aarch64",
    ))
}

pub(crate) fn memfd_create(_name: &str) -> io::Result<i32> {
    unsupported()
}

pub(crate) fn set_len(_fd: i32, _len: usize) -> io::Result<()> {
    unsupported()
}

pub(crate) fn map_shared(_fd: i32, _len: usize) -> io::Result<*mut u8> {
    unsupported()
}

pub(crate) fn unmap(_addr: *mut u8, _len: usize) {}

pub(crate) fn close_fd(_fd: i32) {}

pub(crate) fn futex_wait(_word: &AtomicU32, _expect: u32, _timeout: Duration) {}

pub(crate) fn futex_wake_all(_word: &AtomicU32) {}
