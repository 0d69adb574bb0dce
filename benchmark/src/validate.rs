//! What every benchmark message carries and how a receiver checks it.
//!
//! A payload starts with a 16-byte header `(seq, src, len, check)`; the
//! rest is a seed-drawn body the receiver can regenerate. In the timed
//! region the check is O(1) — header fields, the checksum word, and the
//! body's last word (which a truncated payload cannot have) — so the
//! validator's cost is a few nanoseconds and not a payload hash. The
//! untimed final round compares every byte.

use crate::stats::{mix, SplitMix};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Bytes of `(seq, src, len, check)`, each a little-endian `u32`.
pub const HEADER_BYTES: usize = 16;

/// A counter written by one thread (the PE that owns it) and read by
/// others only after the run's final barrier. `Relaxed` load + store is
/// enough for that and keeps a locked instruction out of the timed path.
#[derive(Debug, Default)]
pub struct Tally(AtomicU64);

impl Tally {
    /// Add `n` (single writer).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }
    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The checksum word binding a header to the run's seed.
#[inline]
fn check_word(seed: u64, src: u32, seq: u32, len: u32) -> u32 {
    mix(seed ^ ((src as u64) << 32 | seq as u64) ^ ((len as u64) << 20)) as u32
}

/// The payload `src` sends at length `len`: header space (zeroed, filled
/// per message by [`stamp`]) followed by a body drawn from the seed.
pub fn template(seed: u64, src: usize, len: usize) -> Vec<u8> {
    assert!(len >= HEADER_BYTES, "payload must hold the header");
    let mut rng = SplitMix(mix(seed ^ (src as u64 + 1)));
    let mut v = vec![0u8; len];
    for chunk in v[HEADER_BYTES..].chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    v
}

/// Write message `seq` of `src`'s header into `payload` (a [`template`]).
#[inline]
pub fn stamp(payload: &mut [u8], seed: u64, src: usize, seq: u32) {
    let len = payload.len() as u32;
    payload[0..4].copy_from_slice(&seq.to_le_bytes());
    payload[4..8].copy_from_slice(&(src as u32).to_le_bytes());
    payload[8..12].copy_from_slice(&len.to_le_bytes());
    payload[12..16].copy_from_slice(&check_word(seed, src as u32, seq, len).to_le_bytes());
}

/// The `seq` field of a payload, unvalidated (for routing before the
/// check); `None` when the payload cannot hold a header.
#[inline]
pub fn peek_seq(payload: &[u8]) -> Option<u32> {
    payload
        .get(0..4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Why a delivery failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Shorter than the header, or `len` field ≠ delivered length, or
    /// delivered length ≠ the segment's length, or the body's last word
    /// differs (a truncated or padded payload).
    Length,
    /// Header fields do not hash to the checksum word, or (full check)
    /// a body byte differs.
    Checksum,
    /// Source rank outside the machine.
    Source,
    /// `seq` below the next expected one: delivered twice or late.
    Duplicate,
    /// `seq` above the next expected one: `n` messages were skipped
    /// (lost, or overtaken on a link that promises FIFO).
    Gap(u32),
}

/// Per-receiver exactly-once, in-order, intact-payload check over every
/// source link.
#[derive(Debug)]
pub struct Validator {
    seed: u64,
    next: Vec<AtomicU32>,
    /// Deliveries that passed.
    pub ok: Tally,
    /// Ops that failed: one per bad delivery, plus one per skipped seq.
    pub failed: Tally,
}

impl Validator {
    /// A validator for a machine of `num_pes` sources.
    pub fn new(seed: u64, num_pes: usize) -> Validator {
        Validator {
            seed,
            next: (0..num_pes).map(|_| AtomicU32::new(0)).collect(),
            ok: Tally::default(),
            failed: Tally::default(),
        }
    }

    /// Check one delivery against `expect` (the sender's [`template`] at
    /// this segment's length). `full` compares every body byte.
    pub fn check(&self, payload: &[u8], expect: &[u8], full: bool) -> Result<(), Fault> {
        let r = self.classify(payload, expect, full);
        match r {
            Ok(()) => self.ok.add(1),
            Err(Fault::Gap(n)) => {
                // The delivery itself is intact; the skipped ones failed.
                self.ok.add(1);
                self.failed.add(n as u64);
            }
            Err(_) => self.failed.add(1),
        }
        r
    }

    fn classify(&self, payload: &[u8], expect: &[u8], full: bool) -> Result<(), Fault> {
        if payload.len() < HEADER_BYTES || payload.len() != expect.len() {
            return Err(Fault::Length);
        }
        let word = |i: usize| u32::from_le_bytes(payload[i..i + 4].try_into().expect("4 bytes"));
        let (seq, src, len, check) = (word(0), word(4), word(8), word(12));
        if len as usize != payload.len() {
            return Err(Fault::Length);
        }
        if check != check_word(self.seed, src, seq, len) {
            return Err(Fault::Checksum);
        }
        let Some(next) = self.next.get(src as usize) else {
            return Err(Fault::Source);
        };
        let n = payload.len();
        if full {
            if payload[HEADER_BYTES..] != expect[HEADER_BYTES..] {
                return Err(Fault::Checksum);
            }
        } else if n >= HEADER_BYTES + 4 && payload[n - 4..] != expect[n - 4..] {
            return Err(Fault::Length);
        }
        let want = next.load(Ordering::Relaxed);
        if seq < want {
            return Err(Fault::Duplicate);
        }
        next.store(seq + 1, Ordering::Relaxed);
        if seq > want {
            return Err(Fault::Gap(seq - want));
        }
        Ok(())
    }

    /// Close the books: every source should have delivered exactly
    /// `sent[src]` messages; what never arrived counts as failed.
    pub fn finish(&self, sent: &[u32]) {
        for (next, &sent) in self.next.iter().zip(sent) {
            let got = next.load(Ordering::Relaxed);
            self.failed.add(sent.saturating_sub(got) as u64);
        }
    }
}
