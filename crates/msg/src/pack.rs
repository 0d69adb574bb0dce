//! Tiny payload packing helpers.
//!
//! Language runtimes built on Converse (Charm, SM, DP, …) assemble small
//! binary payloads — ids, tags, scalars, byte slices — without wanting a
//! general serialization framework on the message fast path. [`Packer`]
//! writes fields little-endian; [`Unpacker`] reads them back in order.
//! All reads are checked: malformed payloads yield [`PackError`] rather
//! than panics, so a handler can reject a corrupt message gracefully.

use std::fmt;

/// Error produced when an [`Unpacker`] runs out of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackError {
    /// Bytes requested by the failing read.
    pub needed: usize,
    /// Bytes that remained.
    pub remaining: usize,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload underrun: needed {} bytes, {} remaining",
            self.needed, self.remaining
        )
    }
}

impl std::error::Error for PackError {}

/// Sequential little-endian payload writer into a growable buffer — for
/// cold paths and variable-shape bodies. A send path whose header has a
/// fixed size uses a [`StackPacker`] and `Message::gather` instead.
#[derive(Debug, Clone)]
pub struct Packer {
    buf: Vec<u8>,
}

impl Default for Packer {
    fn default() -> Self {
        Self::new()
    }
}

impl Packer {
    /// New empty packer, with room for a typical small body so that
    /// packing a few scalars and a short slice allocates once.
    pub fn new() -> Self {
        Self::with_capacity(64)
    }

    /// New packer with capacity for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Packer {
            buf: Vec::with_capacity(n),
        }
    }

    /// Finish and take the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current payload length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a `u8`.
    pub fn u8(mut self, v: u8) -> Self {
        self.buf.push(v);
        self
    }

    /// Append a `u32`.
    pub fn u32(mut self, v: u32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i32`.
    pub fn i32(mut self, v: i32) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `i64`.
    pub fn i64(mut self, v: i64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64`.
    pub fn f64(mut self, v: f64) -> Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `usize` as `u64` (portable across word sizes).
    pub fn usize(self, v: usize) -> Self {
        self.u64(v as u64)
    }

    /// Append a length-prefixed byte slice.
    pub fn bytes(mut self, v: &[u8]) -> Self {
        self.buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(self, v: &str) -> Self {
        self.bytes(v.as_bytes())
    }

    /// Append raw bytes with no length prefix (reader must know the size).
    pub fn raw(mut self, v: &[u8]) -> Self {
        self.buf.extend_from_slice(v);
        self
    }
}

/// [`Packer`]'s scalar writers over a fixed array on the stack: the
/// header a runtime puts in front of a caller's bytes when it gathers
/// both into one message (`Message::gather`). Writing past `N` bytes
/// panics — a header's size is known where it is written.
///
/// ```
/// use converse_msg::pack::{Packer, StackPacker};
///
/// let body = b"caller's bytes";
/// let head = StackPacker::<12>::new().u64(9).len_prefix(body.len());
/// let whole = [head.as_slice(), body].concat();
/// assert_eq!(whole, Packer::new().u64(9).bytes(body).finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StackPacker<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Default for StackPacker<N> {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> StackPacker<N> {
    /// New empty header of at most `N` bytes.
    #[inline]
    pub fn new() -> Self {
        StackPacker {
            buf: [0; N],
            len: 0,
        }
    }

    /// The bytes written so far.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Append raw bytes.
    #[inline]
    pub fn raw(mut self, v: &[u8]) -> Self {
        self.buf[self.len..self.len + v.len()].copy_from_slice(v);
        self.len += v.len();
        self
    }

    /// Append a `u32`.
    #[inline]
    pub fn u32(self, v: u32) -> Self {
        self.raw(&v.to_le_bytes())
    }

    /// Append an `i32`.
    #[inline]
    pub fn i32(self, v: i32) -> Self {
        self.raw(&v.to_le_bytes())
    }

    /// Append a `u64`.
    #[inline]
    pub fn u64(self, v: u64) -> Self {
        self.raw(&v.to_le_bytes())
    }

    /// Append a `usize` as `u64`, like [`Packer::usize`].
    #[inline]
    pub fn usize(self, v: usize) -> Self {
        self.u64(v as u64)
    }

    /// Append the length prefix [`Packer::bytes`] writes, for `n` bytes
    /// that follow the header as gather parts of their own.
    #[inline]
    pub fn len_prefix(self, n: usize) -> Self {
        self.u32(u32::try_from(n).expect("length-prefixed bytes fit a u32"))
    }
}

/// Sequential little-endian payload reader.
pub struct Unpacker<'a> {
    buf: &'a [u8],
}

impl<'a> Unpacker<'a> {
    /// Read from `payload` (typically `msg.payload()`).
    #[inline]
    pub fn new(payload: &'a [u8]) -> Self {
        Unpacker { buf: payload }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn need(&self, n: usize) -> Result<(), PackError> {
        if self.buf.len() < n {
            Err(PackError {
                needed: n,
                remaining: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Consume the next `N` bytes as a fixed-size array.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], PackError> {
        self.need(N)?;
        let (head, tail) = self.buf.split_at(N);
        self.buf = tail;
        Ok(head.try_into().expect("split_at yields exactly N bytes"))
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, PackError> {
        Ok(u8::from_le_bytes(self.take::<1>()?))
    }

    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, PackError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    /// Read an `i32`.
    #[inline]
    pub fn i32(&mut self) -> Result<i32, PackError> {
        Ok(i32::from_le_bytes(self.take::<4>()?))
    }

    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, PackError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    /// Read an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, PackError> {
        Ok(i64::from_le_bytes(self.take::<8>()?))
    }

    /// Read an `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, PackError> {
        Ok(f64::from_le_bytes(self.take::<8>()?))
    }

    /// Read a `usize` written with [`Packer::usize`].
    #[inline]
    pub fn usize(&mut self) -> Result<usize, PackError> {
        Ok(self.u64()? as usize)
    }

    /// Read a length-prefixed byte slice (borrowed, zero-copy).
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], PackError> {
        let n = self.u32()? as usize;
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read a length-prefixed UTF-8 string (lossy on invalid UTF-8).
    #[inline]
    pub fn str(&mut self) -> Result<String, PackError> {
        Ok(String::from_utf8_lossy(self.bytes()?).into_owned())
    }

    /// Read `n` raw bytes written with [`Packer::raw`].
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        self.need(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consume everything that remains.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let p = Packer::new()
            .u8(7)
            .u32(0xDEAD_BEEF)
            .i32(-42)
            .u64(u64::MAX)
            .i64(i64::MIN)
            .f64(3.25)
            .usize(123456)
            .finish();
        let mut u = Unpacker::new(&p);
        assert_eq!(u.u8().unwrap(), 7);
        assert_eq!(u.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(u.i32().unwrap(), -42);
        assert_eq!(u.u64().unwrap(), u64::MAX);
        assert_eq!(u.i64().unwrap(), i64::MIN);
        assert_eq!(u.f64().unwrap(), 3.25);
        assert_eq!(u.usize().unwrap(), 123456);
        assert_eq!(u.remaining(), 0);
    }

    #[test]
    fn bytes_and_str_roundtrip() {
        let p = Packer::new()
            .bytes(b"ab")
            .str("héllo")
            .raw(&[9, 9])
            .finish();
        let mut u = Unpacker::new(&p);
        assert_eq!(u.bytes().unwrap(), b"ab");
        assert_eq!(u.str().unwrap(), "héllo");
        assert_eq!(u.raw(2).unwrap(), &[9, 9]);
    }

    #[test]
    fn underrun_is_error_not_panic() {
        let p = Packer::new().u32(1).finish();
        let mut u = Unpacker::new(&p);
        assert_eq!(
            u.u64(),
            Err(PackError {
                needed: 8,
                remaining: 4
            })
        );
        // A failed read consumes nothing.
        assert_eq!(u.u32().unwrap(), 1);
    }

    #[test]
    fn stack_packer_writes_what_packer_writes() {
        let head = StackPacker::<28>::new()
            .u32(7)
            .i32(-7)
            .u64(u64::MAX)
            .usize(5)
            .len_prefix(3);
        let mut whole = head.as_slice().to_vec();
        whole.extend_from_slice(b"abc");
        let packed = Packer::new()
            .u32(7)
            .i32(-7)
            .u64(u64::MAX)
            .usize(5)
            .bytes(b"abc")
            .finish();
        assert_eq!(whole, packed);
    }

    #[test]
    #[should_panic]
    fn stack_packer_overrun_panics() {
        let _ = StackPacker::<4>::new().u32(1).u32(2);
    }

    #[test]
    fn new_packer_does_not_start_empty_handed() {
        assert!(Packer::new().buf.capacity() >= 32);
        assert!(Packer::default().buf.capacity() >= 32);
    }

    #[test]
    fn rest_takes_remainder() {
        let p = Packer::new().u8(1).raw(b"tail").finish();
        let mut u = Unpacker::new(&p);
        u.u8().unwrap();
        assert_eq!(u.rest(), b"tail");
        assert_eq!(u.remaining(), 0);
    }

    #[test]
    fn truncated_length_prefix() {
        let mut bad = Packer::new().bytes(b"abcdef").finish();
        bad.truncate(6); // prefix says 6 bytes but only 2 follow
        let mut u = Unpacker::new(&bad);
        assert!(u.bytes().is_err());
    }
}
