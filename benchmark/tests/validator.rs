//! The validator must catch what it exists to catch: a dropped, a
//! duplicated and a truncated message (and a corrupted one).

use converse_benchmark::validate::{stamp, template, Fault, Validator, HEADER_BYTES};

const SEED: u64 = 1996;
const SRC: usize = 1;

fn message(len: usize, seq: u32) -> Vec<u8> {
    let mut p = template(SEED, SRC, len);
    stamp(&mut p, SEED, SRC, seq);
    p
}

#[test]
fn an_intact_in_order_stream_passes() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 64);
    for seq in 0..100 {
        assert_eq!(v.check(&message(64, seq), &expect, seq % 2 == 0), Ok(()));
    }
    v.finish(&[0, 100]);
    assert_eq!((v.ok.get(), v.failed.get()), (100, 0));
}

#[test]
fn a_dropped_message_is_counted_once() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 16);
    assert_eq!(v.check(&message(16, 0), &expect, false), Ok(()));
    // seq 1 never arrives.
    assert_eq!(v.check(&message(16, 2), &expect, false), Err(Fault::Gap(1)));
    assert_eq!(v.check(&message(16, 3), &expect, false), Ok(()));
    v.finish(&[0, 4]);
    assert_eq!((v.ok.get(), v.failed.get()), (3, 1));
}

#[test]
fn messages_lost_at_the_tail_are_counted_when_the_books_close() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 16);
    for seq in 0..5 {
        v.check(&message(16, seq), &expect, false).unwrap();
    }
    v.finish(&[0, 8]);
    assert_eq!((v.ok.get(), v.failed.get()), (5, 3));
}

#[test]
fn a_duplicated_message_fails() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 16);
    v.check(&message(16, 0), &expect, false).unwrap();
    v.check(&message(16, 1), &expect, false).unwrap();
    assert_eq!(
        v.check(&message(16, 1), &expect, false),
        Err(Fault::Duplicate)
    );
    // Out of order on a FIFO link reads the same: 0 after 1.
    assert_eq!(
        v.check(&message(16, 0), &expect, false),
        Err(Fault::Duplicate)
    );
    assert_eq!((v.ok.get(), v.failed.get()), (2, 2));
}

#[test]
fn a_truncated_message_fails_the_o1_check() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 16 * 1024);
    let whole = message(16 * 1024, 0);
    // Cut short: delivered length differs from the segment's.
    assert_eq!(v.check(&whole[..8000], &expect, false), Err(Fault::Length));
    // Shorter than a header.
    assert_eq!(
        v.check(&whole[..HEADER_BYTES - 1], &expect, false),
        Err(Fault::Length)
    );
    // Right length, tail zeroed (a short copy into a full-size buffer):
    // the last-word check catches it without hashing the payload.
    let mut padded = whole.clone();
    let n = padded.len();
    padded[n - 100..].fill(0);
    assert_eq!(v.check(&padded, &expect, false), Err(Fault::Length));
    assert_eq!((v.ok.get(), v.failed.get()), (0, 3));
    // Nothing above consumed seq 0.
    assert_eq!(v.check(&whole, &expect, false), Ok(()));
}

#[test]
fn corruption_fails_header_by_checksum_and_body_by_full_compare() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 256);
    let mut bad_header = message(256, 0);
    bad_header[0] ^= 1; // seq no longer matches the checksum word
    assert_eq!(v.check(&bad_header, &expect, false), Err(Fault::Checksum));
    let mut bad_body = message(256, 0);
    bad_body[100] ^= 0x40;
    // The O(1) check cannot see a mid-body flip …
    let quick = Validator::new(SEED, 2);
    assert_eq!(quick.check(&bad_body, &expect, false), Ok(()));
    // … the untimed full-payload round does.
    assert_eq!(v.check(&bad_body, &expect, true), Err(Fault::Checksum));
}

#[test]
fn a_message_from_another_run_or_rank_fails() {
    let v = Validator::new(SEED, 2);
    let expect = template(SEED, SRC, 16);
    let mut other_seed = template(7, SRC, 16);
    stamp(&mut other_seed, 7, SRC, 0);
    assert_eq!(v.check(&other_seed, &expect, false), Err(Fault::Checksum));
    let mut rank9 = template(SEED, 9, 16);
    stamp(&mut rank9, SEED, 9, 0);
    assert_eq!(v.check(&rank9, &expect, false), Err(Fault::Source));
}
