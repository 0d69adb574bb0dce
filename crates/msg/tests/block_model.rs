//! `MsgBlock` against a reference model, and its behaviour across
//! threads.
//!
//! The model of a block is an `Arc<Vec<u8>>`: `share` is `Arc::clone`,
//! `make_mut` is `Arc::make_mut`, `into_vec` is a copy of the contents.
//! Random operation sequences must leave every live handle with the same
//! contents, reference count and uniqueness as its model, which is also
//! what copy-on-write isolation means: an edit through one handle is
//! visible through exactly the handles the model says share its storage.

use converse_msg::{pool, MsgBlock};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;

#[derive(Clone, Debug)]
enum Op {
    /// New zero-filled block of this length.
    Alloc(usize),
    /// New block holding these bytes.
    CopyFrom(Vec<u8>),
    /// Another handle to the block at this slot.
    Share(usize),
    /// Write `byte` at `at` (both reduced modulo what exists).
    Edit { slot: usize, at: usize, byte: u8 },
    /// Consume the handle, keeping the bytes as a new block.
    IntoVec(usize),
    /// Drop the handle.
    Drop(usize),
}

fn arb_len() -> impl Strategy<Value = usize> {
    // Empty, inside one class, across classes, and past the largest.
    prop_oneof![
        4 => 0usize..200,
        1 => 4000usize..4200,
        1 => (pool::MAX_CLASS - 2)..(pool::MAX_CLASS + 3),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => arb_len().prop_map(Op::Alloc),
        2 => proptest::collection::vec(any::<u8>(), 0..150).prop_map(Op::CopyFrom),
        4 => any::<usize>().prop_map(Op::Share),
        4 => (any::<usize>(), any::<usize>(), any::<u8>())
            .prop_map(|(slot, at, byte)| Op::Edit { slot, at, byte }),
        1 => any::<usize>().prop_map(Op::IntoVec),
        3 => any::<usize>().prop_map(Op::Drop),
    ]
}

fn check(live: &[(MsgBlock, Arc<Vec<u8>>)]) -> Result<(), TestCaseError> {
    for (block, model) in live {
        prop_assert_eq!(block.as_slice(), &model[..]);
        prop_assert_eq!(block.len(), model.len());
        prop_assert_eq!(block.is_empty(), model.is_empty());
        prop_assert_eq!(block.ref_count(), Arc::strong_count(model));
        prop_assert_eq!(block.is_unique(), Arc::strong_count(model) == 1);
    }
    // Two handles alias exactly when their models do.
    for (i, (a, ma)) in live.iter().enumerate() {
        for (b, mb) in &live[i + 1..] {
            prop_assert_eq!(a.as_ptr() == b.as_ptr(), Arc::ptr_eq(ma, mb));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 256 }))]

    #[test]
    fn block_matches_arc_vec_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let mut live: Vec<(MsgBlock, Arc<Vec<u8>>)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(len) => live.push((MsgBlock::alloc(len), Arc::new(vec![0; len]))),
                Op::CopyFrom(bytes) => {
                    live.push((MsgBlock::copy_from(&bytes), Arc::new(bytes)));
                }
                Op::Share(slot) if !live.is_empty() => {
                    let (block, model) = &live[slot % live.len()];
                    let pair = (block.share(), Arc::clone(model));
                    live.push(pair);
                }
                Op::Edit { slot, at, byte } if !live.is_empty() => {
                    let n = live.len();
                    let (block, model) = &mut live[slot % n];
                    let bytes = block.make_mut();
                    let reference = Arc::make_mut(model);
                    prop_assert_eq!(bytes.len(), reference.len());
                    if !bytes.is_empty() {
                        let at = at % bytes.len();
                        bytes[at] = byte;
                        reference[at] = byte;
                    }
                }
                Op::IntoVec(slot) if !live.is_empty() => {
                    let (block, model) = live.swap_remove(slot % live.len());
                    let v = block.into_vec();
                    prop_assert_eq!(&v, &*model);
                    drop(model);
                    live.push((MsgBlock::from(v.clone()), Arc::new(v)));
                }
                Op::Drop(slot) if !live.is_empty() => {
                    live.swap_remove(slot % live.len());
                }
                _ => {}
            }
            check(&live)?;
        }
    }
}

/// A block allocated on thread A whose last reference drops on thread B
/// lands in B's pool: B's `recycled` rises by one, A's does not move,
/// and B's next block of that class reuses the chunk.
#[test]
fn last_drop_on_another_thread_recycles_there() {
    let a_before = pool::stats();
    let block = MsgBlock::copy_from(&[0xAB; 300]);
    let ptr = block.as_ptr() as usize;
    let keep = block.share();
    let b = thread::spawn(move || {
        assert_eq!(block.as_slice(), &[0xAB; 300]);
        let before = pool::stats();
        drop(block);
        assert_eq!(pool::stats(), before, "not the last reference yet");
        before
    });
    let b_before = b.join().expect("thread B, first half");
    assert_eq!(b_before.recycled, 0);

    let b = thread::spawn(move || {
        let before = pool::stats();
        drop(keep);
        let after = pool::stats();
        assert_eq!(after.recycled - before.recycled, 1);
        assert_eq!(after.discarded, before.discarded);
        assert_eq!(pool::retained(), 1);
        let again = MsgBlock::alloc(400); // the same 512-byte class
        assert_eq!(
            again.as_ptr() as usize,
            ptr,
            "B reuses the chunk A allocated"
        );
        assert_eq!(pool::stats().hits - after.hits, 1);
    });
    b.join().expect("thread B, second half");

    let a_after = pool::stats();
    assert_eq!(a_after.recycled, a_before.recycled, "A's pool saw no free");
    assert_eq!(a_after.misses - a_before.misses, 1);
}

/// Eight threads race `share` and `drop` on one block: the contents stay
/// intact, the count returns to one, and the chunk is freed exactly once
/// (a double free would hand the same chunk out twice below, or trip the
/// allocator under Miri).
#[test]
fn racing_share_and_drop_frees_once() {
    const THREADS: usize = 8;
    let rounds = if cfg!(miri) { 50 } else { 20_000 };
    let root = MsgBlock::copy_from(&[0x5A; 96]);
    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let mine = root.share();
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..rounds {
                    let extra = mine.share();
                    assert!(!extra.is_unique());
                    assert_eq!(extra.as_slice()[i % 96], 0x5A);
                    drop(extra);
                }
                // `mine` drops here, on this thread.
            })
        })
        .collect();
    for w in workers {
        w.join().expect("racing thread");
    }
    assert!(root.is_unique());
    assert_eq!(root.ref_count(), 1);
    assert_eq!(root.as_slice(), &[0x5A; 96]);

    // The last reference goes; the chunk comes back exactly once.
    let ptr = root.as_ptr();
    let before = pool::stats();
    drop(root);
    assert_eq!(pool::stats().recycled - before.recycled, 1);
    let first = MsgBlock::alloc(96);
    let second = MsgBlock::alloc(96);
    assert_eq!(first.as_ptr(), ptr);
    assert_ne!(
        second.as_ptr(),
        ptr,
        "one chunk must not be handed out twice"
    );
}

/// Eight threads race to drop the last references: whichever of them is
/// last, exactly one recycles the chunk.
#[test]
fn racing_last_drop_recycles_exactly_once() {
    const THREADS: usize = 8;
    let rounds = if cfg!(miri) { 10 } else { 300 };
    for _ in 0..rounds {
        let root = MsgBlock::alloc(64);
        let start = Arc::new(Barrier::new(THREADS + 1));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let mine = root.share();
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    let before = pool::stats();
                    start.wait();
                    drop(mine);
                    let after = pool::stats();
                    (after.recycled - before.recycled) + (after.discarded - before.discarded)
                })
            })
            .collect();
        // Gone before any worker passes the barrier, so the last
        // reference is always one of theirs.
        drop(root);
        start.wait();
        let freed: u64 = workers
            .into_iter()
            .map(|w| w.join().expect("racing thread"))
            .sum();
        assert_eq!(freed, 1);
    }
}

/// A block that outlives its thread's free lists — held by another
/// thread-local whose destructor runs later — is still freed exactly
/// once: recycled if the lists are alive, deallocated on the spot if
/// they are gone. (Destructor order is the platform's; either way the
/// chunk must not leak or be pushed onto a dead list.)
#[test]
fn drop_during_thread_teardown_frees_the_chunk() {
    use std::cell::RefCell;
    use std::sync::mpsc::{channel, Sender};

    struct Held(Option<MsgBlock>, Sender<(pool::PoolStats, pool::PoolStats)>);
    impl Drop for Held {
        fn drop(&mut self) {
            let before = pool::stats();
            self.0.take();
            // The receiver may be gone if the test already failed.
            let _ = self.1.send((before, pool::stats()));
        }
    }
    thread_local! {
        static HOLD: RefCell<Option<Held>> = const { RefCell::new(None) };
    }

    let (tx, rx) = channel();
    thread::spawn(move || {
        // Register HOLD's destructor before the pool's is, so that on
        // platforms running them last-registered-first the pool goes
        // first.
        HOLD.with(|h| *h.borrow_mut() = Some(Held(None, tx)));
        let block = MsgBlock::copy_from(&[3u8; 1000]);
        drop(MsgBlock::alloc(10)); // a retained chunk for the pool to free
        HOLD.with(|h| h.borrow_mut().as_mut().expect("set above").0 = Some(block));
    })
    .join()
    .expect("thread with a held block");
    let (before, after) = rx.recv().expect("the destructor reported");
    let freed = (after.recycled - before.recycled) + (after.discarded - before.discarded);
    assert_eq!(freed, 1);
}
