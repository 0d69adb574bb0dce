//! A frame's length prefix is a claim, not a reservation: a peer that
//! announces a large body and then stops must not make the reader
//! allocate what it announced.
//!
//! Its own test binary because it installs a counting global allocator.
//! Only the test thread's allocations are counted, so the fake server's
//! thread and the harness do not disturb the figure.

use converse_ccs::{CcsClient, CcsError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpListener;

struct Counting;

thread_local! {
    /// Bytes this thread has requested since counting began; `None`
    /// while it is not counting.
    static COUNTED: Cell<Option<usize>> = const { Cell::new(None) };
}

fn count(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count.
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + size)));
}

/// Only `alloc` is overridden: the default `alloc_zeroed` and `realloc`
/// go through it, so every byte requested is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest frame body the protocol admits (`protocol::MAX_FRAME`).
const MAX_FRAME: u32 = 1024 * 1024;

#[test]
fn a_truncated_frame_fails_without_allocating_its_claim() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        // Take the request's length prefix, then answer with a prefix
        // claiming the largest admissible body, 16 bytes of it, and EOF.
        let mut prefix = [0u8; 4];
        s.read_exact(&mut prefix).unwrap();
        let mut reply = MAX_FRAME.to_le_bytes().to_vec();
        reply.extend_from_slice(&[0xab; 16]);
        s.write_all(&reply).unwrap();
    });

    let mut c = CcsClient::connect(addr).unwrap();
    let ticket = c.submit("echo", 0, b"").unwrap();
    // Everything is in the client's socket buffer before the count starts.
    server.join().unwrap();

    COUNTED.with(|c| c.set(Some(0)));
    let res = c.wait(ticket);
    let bytes = COUNTED.with(Cell::take).unwrap();

    assert!(
        matches!(res, Err(CcsError::Io(_))),
        "a frame cut short is an I/O error, got {res:?}"
    );
    assert!(
        bytes < 64 * 1024,
        "reading 16 bytes of a {MAX_FRAME}-byte claim allocated {bytes} bytes"
    );
}
