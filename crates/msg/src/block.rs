//! The refcounted, pool-backed message block.
//!
//! The paper's generalized message (§3.1.1) is *one block of memory that
//! is never copied* as it moves from the machine layer through the
//! scheduler to a handler. [`MsgBlock`] is that block for this runtime:
//! a pointer to a single chunk from the per-PE pool in [`crate::pool`],
//! whose inline header `{refcount, class, len}` sits in front of the
//! bytes — `CmiAlloc`'s layout. Making, sharing and freeing a block
//! never touches the global allocator once the pool is warm.
//!
//! * [`MsgBlock::share`] is a refcount bump — broadcasting one message
//!   to P destinations is one chunk plus P bumps, never P copies.
//! * [`MsgBlock::make_mut`] is copy-on-write: a uniquely held block
//!   (the common case for a freshly received message) is edited in
//!   place; a shared block is first copied into a fresh pooled chunk.
//!   This is what lets the §3.3 retarget idiom (`CmiSetHandler` on a
//!   message you were just handed) stay zero-copy.
//! * Dropping the last reference returns the chunk to the dropping
//!   thread's pool (`CmiFree`).
//!
//! A block's length is fixed when it is made. Conversions from and to
//! `Vec<u8>` ([`MsgBlock::adopt`], `From<Vec<u8>>`,
//! [`MsgBlock::into_vec`]) copy the bytes once; no hot path uses them.

use crate::pool::{self, ChunkHeader, CHUNK_HEADER_BYTES};
use std::fmt;
use std::ptr::NonNull;
use std::sync::atomic::{fence, Ordering};

/// A refcounted contiguous message buffer. See the module docs.
pub struct MsgBlock {
    /// A chunk from [`pool::take`] on which this handle holds one
    /// reference; its `len` bytes are initialized (see [`BlockWriter`]).
    chunk: NonNull<ChunkHeader>,
}

// SAFETY: the chunk is heap memory shared by its handles. The refcount
// is atomic, `len` and `class` are never written between take and give,
// and the bytes are written only through `&mut self` of the one handle
// left (`make_mut`), so handles may move to and be used from any thread.
unsafe impl Send for MsgBlock {}
// SAFETY: as above; `&MsgBlock` gives read access and `share` only.
unsafe impl Sync for MsgBlock {}

/// Fills a fresh chunk front to back, so that no byte of a [`MsgBlock`]
/// is ever read before it was written.
pub(crate) struct BlockWriter {
    /// Only the first `filled` bytes are initialized.
    block: MsgBlock,
    filled: usize,
}

impl BlockWriter {
    /// A writer for a block of exactly `len` bytes from the pool.
    pub(crate) fn new(len: usize) -> BlockWriter {
        BlockWriter {
            block: MsgBlock {
                chunk: pool::take(len),
            },
            filled: 0,
        }
    }

    /// Append `bytes`.
    #[inline]
    pub(crate) fn put(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len() <= self.block.len() - self.filled,
            "block writer overrun"
        );
        // SAFETY: the destination range was just checked to lie inside
        // the chunk's `len` bytes, and `bytes` cannot overlap a chunk no
        // one else refers to.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.block.data().add(self.filled),
                bytes.len(),
            );
        }
        self.filled += bytes.len();
    }

    /// Append `n` zero bytes.
    pub(crate) fn put_zeros(&mut self, n: usize) {
        assert!(n <= self.block.len() - self.filled, "block writer overrun");
        // SAFETY: as in `put`.
        unsafe { self.block.data().add(self.filled).write_bytes(0, n) };
        self.filled += n;
    }

    /// The finished block; every byte must have been written.
    #[inline]
    pub(crate) fn finish(self) -> MsgBlock {
        assert_eq!(self.filled, self.block.len(), "block not fully written");
        self.block
    }
}

impl MsgBlock {
    /// A zero-filled block of `len` bytes from the pool (`CmiAlloc`).
    pub fn alloc(len: usize) -> MsgBlock {
        let mut w = BlockWriter::new(len);
        w.put_zeros(len);
        w.finish()
    }

    /// A block holding a pooled copy of `bytes`.
    pub fn copy_from(bytes: &[u8]) -> MsgBlock {
        let mut w = BlockWriter::new(bytes.len());
        w.put(bytes);
        w.finish()
    }

    /// A block holding the contents of `buf`: one copy into a pooled
    /// chunk, after which `buf` is freed. Prefer building the message in
    /// place ([`MsgBlock::alloc`] + [`MsgBlock::make_mut`]) on hot paths.
    pub fn adopt(buf: Vec<u8>) -> MsgBlock {
        MsgBlock::copy_from(&buf)
    }

    #[inline]
    fn header(&self) -> &ChunkHeader {
        // SAFETY: this handle's reference keeps the chunk, and with it
        // the header `pool::take` wrote, alive.
        unsafe { self.chunk.as_ref() }
    }

    /// Start of the bytes behind the header.
    #[inline]
    fn data(&self) -> *mut u8 {
        // SAFETY: every chunk is allocated with room for the header.
        unsafe { self.chunk.as_ptr().cast::<u8>().add(CHUNK_HEADER_BYTES) }
    }

    /// Another handle to the same block: a refcount bump, no copy.
    #[inline]
    pub fn share(&self) -> MsgBlock {
        // Relaxed, as in `Arc::clone`: the new handle is made from an
        // existing one, which already orders it after the block's
        // construction.
        let prev = self.header().refs.fetch_add(1, Ordering::Relaxed);
        if prev > u32::MAX / 2 {
            // Only leaking handles gets here; wrapping would free a
            // block still in use.
            std::process::abort();
        }
        MsgBlock { chunk: self.chunk }
    }

    /// The block's bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: the chunk holds `len` initialized bytes behind the
        // header, and none is written while a `&self` is live.
        unsafe { std::slice::from_raw_parts(self.data(), self.len()) }
    }

    /// Address of the backing storage — lets tests observe aliasing
    /// (shared blocks) and pool reuse (recycled allocations).
    #[inline]
    pub fn as_ptr(&self) -> *const u8 {
        self.data()
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.header().len
    }

    /// True when the block holds no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when this handle is the only reference.
    #[inline]
    pub fn is_unique(&self) -> bool {
        // Acquire pairs with the Release decrement in `drop`: once this
        // reads 1, whatever the other handles did with the bytes has
        // happened before. A new handle can only be made from this one.
        self.header().refs.load(Ordering::Acquire) == 1
    }

    /// Number of handles sharing this block.
    #[inline]
    pub fn ref_count(&self) -> usize {
        self.header().refs.load(Ordering::Relaxed) as usize
    }

    /// Mutable access, copy-on-write: in place when uniquely held,
    /// otherwise the contents move to a fresh pooled chunk first (so
    /// other holders never observe the edit). The length is fixed.
    #[inline]
    pub fn make_mut(&mut self) -> &mut [u8] {
        if !self.is_unique() {
            *self = MsgBlock::copy_from(self.as_slice());
        }
        // SAFETY: this is the only handle (checked or just made), so no
        // other reference to the bytes exists, and `&mut self` keeps it
        // that way for the returned lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.data(), self.len()) }
    }

    /// The bytes as a `Vec`: always one copy, since the chunk's header
    /// rules out handing its storage to a `Vec`.
    pub fn into_vec(self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Clone for MsgBlock {
    #[inline]
    fn clone(&self) -> MsgBlock {
        self.share()
    }
}

impl Drop for MsgBlock {
    #[inline]
    fn drop(&mut self) {
        let refs = &self.header().refs;
        // A uniquely held block is freed after a plain load: no one else
        // can raise the count. Otherwise give up our reference; Release
        // orders our reads of the bytes before it, and whoever sees the
        // count reach zero acquires all of them before recycling.
        if refs.load(Ordering::Acquire) != 1 {
            if refs.fetch_sub(1, Ordering::Release) != 1 {
                return;
            }
            fence(Ordering::Acquire);
        }
        // SAFETY: the chunk came from `pool::take`, and ours was the
        // last reference to it.
        unsafe { pool::give(self.chunk) };
    }
}

impl From<Vec<u8>> for MsgBlock {
    fn from(v: Vec<u8>) -> MsgBlock {
        MsgBlock::adopt(v)
    }
}

impl From<&[u8]> for MsgBlock {
    fn from(v: &[u8]) -> MsgBlock {
        MsgBlock::copy_from(v)
    }
}

impl PartialEq for MsgBlock {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for MsgBlock {}

impl fmt::Debug for MsgBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MsgBlock")
            .field("len", &self.len())
            .field("refs", &self.ref_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_aliases_same_storage() {
        let a = MsgBlock::copy_from(b"hello");
        let b = a.share();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.ref_count(), 2);
        assert_eq!(b.as_slice(), b"hello");
    }

    #[test]
    fn share_costs_no_allocation() {
        let a = MsgBlock::copy_from(&[7u8; 256]);
        let takes = pool::stats().takes();
        let handles: Vec<MsgBlock> = (0..32).map(|_| a.share()).collect();
        assert_eq!(pool::stats().takes(), takes, "share must not allocate");
        assert_eq!(a.ref_count(), 33);
        drop(handles);
        assert!(a.is_unique());
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut a = MsgBlock::copy_from(b"abc");
        let ptr = a.as_ptr();
        a.make_mut()[0] = b'x';
        assert_eq!(a.as_ptr(), ptr, "unique block edits in place");
        assert_eq!(a.as_slice(), b"xbc");
    }

    #[test]
    fn make_mut_copies_when_shared() {
        let mut a = MsgBlock::copy_from(b"abc");
        let b = a.share();
        a.make_mut()[0] = b'x';
        assert_eq!(a.as_slice(), b"xbc");
        assert_eq!(b.as_slice(), b"abc", "other holder unaffected");
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert!(a.is_unique() && b.is_unique());
    }

    #[test]
    fn into_vec_copies_once_and_recycles_the_chunk() {
        let a = MsgBlock::copy_from(b"copy me");
        let ptr = a.as_ptr();
        let before = pool::stats();
        let v = a.into_vec();
        assert_ne!(v.as_ptr(), ptr, "a Vec cannot take over a chunk");
        assert_eq!(v, b"copy me");
        let after = pool::stats();
        assert_eq!(after.takes(), before.takes(), "the copy is not pooled");
        assert_eq!(after.recycled - before.recycled, 1);
    }

    #[test]
    fn adopt_and_from_vec_copy_into_a_pooled_chunk() {
        let before = pool::stats().takes();
        let a = MsgBlock::adopt(vec![5u8; 300]);
        let b: MsgBlock = vec![5u8; 300].into();
        assert_eq!(pool::stats().takes() - before, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 300);
    }

    #[test]
    fn empty_and_oversized_blocks() {
        let e = MsgBlock::alloc(0);
        assert!(e.is_empty());
        assert_eq!(e.as_slice(), b"");
        let mut big = MsgBlock::alloc(pool::MAX_CLASS + 1);
        big.make_mut()[pool::MAX_CLASS] = 9;
        assert_eq!(big.len(), pool::MAX_CLASS + 1);
        assert_eq!(big.as_slice()[pool::MAX_CLASS], 9);
        assert!(big.as_slice()[..pool::MAX_CLASS].iter().all(|&b| b == 0));
    }

    #[test]
    fn into_vec_copies_when_shared() {
        let a = MsgBlock::copy_from(b"shared");
        let b = a.share();
        let v = a.into_vec();
        assert_eq!(v, b"shared");
        assert_eq!(b.as_slice(), b"shared");
    }

    #[test]
    fn drop_recycles_into_pool() {
        let before = pool::stats();
        let a = MsgBlock::alloc(128);
        let ptr = a.as_ptr();
        drop(a);
        let after = pool::stats();
        assert_eq!(after.recycled - before.recycled, 1);
        // The very next block of the same class reuses the storage.
        let b = MsgBlock::alloc(128);
        assert_eq!(b.as_ptr(), ptr);
    }

    #[test]
    fn shared_block_recycles_only_once() {
        let a = MsgBlock::alloc(64);
        let b = a.share();
        let before = pool::stats();
        drop(a);
        assert_eq!(pool::stats().recycled, before.recycled);
        drop(b);
        assert_eq!(pool::stats().recycled, before.recycled + 1);
    }
}
