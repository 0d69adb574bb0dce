//! Hand-declared Linux syscall bindings for the shared-memory data
//! plane: `memfd_create(2)` mints the anonymous shared segment,
//! `mmap(2)` maps it into each worker, and `futex(2)` backs the
//! cross-process doorbells the ring consumers sleep on.
//!
//! The crate stays dependency-free on purpose (same spirit as
//! `converse-fiber`'s hand-written context-switch asm): std already
//! links libc, so the variadic `syscall` entry point and the handful of
//! POSIX calls we need are declared directly instead of pulling in a
//! bindings crate. Everything here is Linux-only and compiled out on
//! other targets.

#![allow(non_camel_case_types)]

use std::io;
use std::sync::atomic::AtomicU32;
use std::time::Duration;

type c_int = i32;
type c_uint = u32;
type c_long = i64;

#[cfg(target_arch = "x86_64")]
const SYS_MEMFD_CREATE: c_long = 319;
#[cfg(target_arch = "x86_64")]
const SYS_FUTEX: c_long = 202;
#[cfg(target_arch = "aarch64")]
const SYS_MEMFD_CREATE: c_long = 279;
#[cfg(target_arch = "aarch64")]
const SYS_FUTEX: c_long = 98;

/// Block while `*uaddr == val`.
const FUTEX_WAIT: c_int = 0;
/// Wake up to `val` waiters on `uaddr`.
const FUTEX_WAKE: c_int = 1;
// No FUTEX_PRIVATE_FLAG: the word lives in a MAP_SHARED segment and
// the waiter/waker are different processes.

const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 1;

/// `struct timespec` on LP64 Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
    fn mmap(
        addr: *mut u8,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut u8;
    fn munmap(addr: *mut u8, len: usize) -> c_int;
    fn ftruncate(fd: c_int, len: i64) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// Create an anonymous shared-memory file. Deliberately **without**
/// `MFD_CLOEXEC`: the descriptor must survive the exec into worker
/// processes — inheriting the open fd *is* the bootstrap handoff. The
/// kernel frees the segment when the last fd and mapping are gone, so
/// there is nothing on any filesystem to unlink.
pub(crate) fn memfd_create(name: &str) -> io::Result<i32> {
    let mut cname = Vec::with_capacity(name.len() + 1);
    cname.extend_from_slice(name.as_bytes());
    cname.push(0);
    let fd = unsafe { syscall(SYS_MEMFD_CREATE, cname.as_ptr(), 0 as c_uint) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd as i32)
}

/// Size the segment (`ftruncate`).
pub(crate) fn set_len(fd: i32, len: usize) -> io::Result<()> {
    if unsafe { ftruncate(fd, len as i64) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Map `len` bytes of the segment read-write, shared.
pub(crate) fn map_shared(fd: i32, len: usize) -> io::Result<*mut u8> {
    let p = unsafe {
        mmap(
            std::ptr::null_mut(),
            len,
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            fd,
            0,
        )
    };
    if p.is_null() || p as isize == -1 {
        return Err(io::Error::last_os_error());
    }
    Ok(p)
}

/// Unmap a region mapped with [`map_shared`].
pub(crate) fn unmap(addr: *mut u8, len: usize) {
    unsafe {
        munmap(addr, len);
    }
}

/// Close a descriptor (the mapping, if any, survives).
pub(crate) fn close_fd(fd: i32) {
    unsafe {
        close(fd);
    }
}

/// Sleep until `word` changes from `expect` or `timeout` elapses. The
/// kernel re-checks the word under its own lock, so a producer that
/// bumps the word *before* this call turns it into an immediate
/// `EAGAIN` return — no lost-wakeup window.
pub(crate) fn futex_wait(word: &AtomicU32, expect: u32, timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: timeout.subsec_nanos() as i64,
    };
    unsafe {
        syscall(
            SYS_FUTEX,
            word.as_ptr(),
            FUTEX_WAIT,
            expect as c_uint,
            &ts as *const Timespec,
        );
    }
}

/// Wake every sleeper on `word`.
pub(crate) fn futex_wake_all(word: &AtomicU32) {
    unsafe {
        syscall(SYS_FUTEX, word.as_ptr(), FUTEX_WAKE, i32::MAX as c_uint);
    }
}
