//! A frame's length prefix is a claim, not a reservation: a peer that
//! announces a large body and then stops must not make the reader
//! allocate what it announced.
//!
//! Its own test binary because it installs the census's counting global
//! allocator. Only the test thread's bytes are read, so the fake
//! server's thread and the harness do not disturb the figure.

use converse_ccs::{CcsClient, CcsError};
use parking_lot::census;
use std::io::{Read, Write};
use std::net::TcpListener;

#[global_allocator]
static GLOBAL: census::Counting = census::Counting;

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

    let before = census::alloc_bytes();
    let res = c.wait(ticket);
    let bytes = census::alloc_bytes() - before;

    assert!(
        matches!(res, Err(CcsError::Io(_))),
        "a frame cut short is an I/O error, got {res:?}"
    );
    assert!(
        bytes < 64 * 1024,
        "reading 16 bytes of a {MAX_FRAME}-byte claim allocated {bytes} bytes"
    );
}
