//! The shared segment behind [`crate::ShmPlane`]: one
//! `memfd_create`/`mmap` region holding every ring of the machine plus
//! the per-PE futex doorbells.
//!
//! Layout (all offsets page- or cache-line aligned):
//!
//! ```text
//! [ header page: magic · version · n · ring_cap ]
//! [ doorbells: n × 64 B  (u32 futex counter + u32 waiter flag) ]
//! [ rings: n×n slots, slot(src,dst) = src*n + dst ]
//!     slot = [ head u64 | 56 B pad ]   producer-owned cache line
//!            [ tail u64 | 56 B pad ]   consumer-owned cache line
//!            [ ring_cap data bytes ]   power-of-two byte buffer
//! ```
//!
//! The launcher creates and sizes the segment before spawning workers;
//! each worker inherits the open descriptor across exec, maps it, and
//! closes the fd (the mapping keeps the pages alive). The kernel frees
//! the whole segment when the last mapping drops — crash cleanup needs
//! no unlink step, and a leak shows up as a lingering `memfd:` entry in
//! `/proc/<pid>/fd`, which the crash tests assert against.

use crate::futex;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// "CONVRING" — guards against mapping a stranger's fd.
const MAGIC: u64 = 0x434f_4e56_5249_4e47;
const VERSION: u32 = 1;
const HDR_BYTES: usize = 4096;
const DOORBELL_STRIDE: usize = 64;
/// Producer cache line + consumer cache line.
const RING_CTRL_BYTES: usize = 128;

fn page_up(x: usize) -> usize {
    (x + 4095) & !4095
}

/// One PE's wakeup word pair. `counter` is the futex word: bumped once
/// per published record targeting this PE, slept on while unchanged.
/// `waiters` lets producers skip the wake syscall on the hot path.
pub(crate) struct Doorbell<'a> {
    pub(crate) counter: &'a AtomicU32,
    pub(crate) waiters: &'a AtomicU32,
}

/// The mapped segment. `Send + Sync`: every mutation goes through the
/// atomics at fixed offsets; the raw base pointer itself is immutable.
pub struct ShmRegion {
    base: *mut u8,
    len: usize,
    n: usize,
    ring_cap: usize,
    /// Creator keeps the fd open until workers have spawned (they
    /// inherit it by number); adopters close theirs after mapping.
    fd: Option<i32>,
}

unsafe impl Send for ShmRegion {}
unsafe impl Sync for ShmRegion {}

impl ShmRegion {
    fn rings_off(n: usize) -> usize {
        page_up(HDR_BYTES + n * DOORBELL_STRIDE)
    }

    fn slot_bytes(ring_cap: usize) -> usize {
        RING_CTRL_BYTES + ring_cap
    }

    /// Total segment size for an `n`-PE machine.
    fn byte_len(n: usize, ring_cap: usize) -> usize {
        Self::rings_off(n) + n * n * Self::slot_bytes(ring_cap)
    }

    /// Create the segment for an `n`-PE machine with `ring_cap` data
    /// bytes per directed ring (power of two, ≥ 4096). Launcher-side.
    pub fn create(n: usize, ring_cap: usize) -> io::Result<ShmRegion> {
        assert!(n >= 2, "a ring plane needs at least 2 PEs");
        assert!(
            ring_cap.is_power_of_two() && ring_cap >= 4096,
            "ring capacity must be a power of two >= 4096, got {ring_cap}"
        );
        let len = Self::byte_len(n, ring_cap);
        let fd = futex::memfd_create("converse-ring")?;
        if let Err(e) = futex::set_len(fd, len) {
            futex::close_fd(fd);
            return Err(e);
        }
        let base = match futex::map_shared(fd, len) {
            Ok(p) => p,
            Err(e) => {
                futex::close_fd(fd);
                return Err(e);
            }
        };
        let r = ShmRegion {
            base,
            len,
            n,
            ring_cap,
            fd: Some(fd),
        };
        // Header writes happen-before any worker exists, so plain
        // stores through the atomics are enough.
        r.hdr_u64(0).store(MAGIC, Ordering::Relaxed);
        r.hdr_u32(8).store(VERSION, Ordering::Relaxed);
        r.hdr_u32(12).store(n as u32, Ordering::Relaxed);
        r.hdr_u64(16).store(ring_cap as u64, Ordering::Relaxed);
        Ok(r)
    }

    /// Map an inherited descriptor (worker-side) and validate it
    /// against the advertised geometry. Closes `fd` once mapped.
    pub fn adopt(fd: i32, expect_n: usize) -> io::Result<ShmRegion> {
        // Map just the header first to learn the geometry.
        let hdr = futex::map_shared(fd, HDR_BYTES)?;
        let magic = unsafe { &*(hdr as *const AtomicU64) }.load(Ordering::Relaxed);
        let version = unsafe { &*(hdr.add(8) as *const AtomicU32) }.load(Ordering::Relaxed);
        let n = unsafe { &*(hdr.add(12) as *const AtomicU32) }.load(Ordering::Relaxed) as usize;
        let ring_cap =
            unsafe { &*(hdr.add(16) as *const AtomicU64) }.load(Ordering::Relaxed) as usize;
        futex::unmap(hdr, HDR_BYTES);
        if magic != MAGIC || version != VERSION {
            futex::close_fd(fd);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shm: bad region header (magic {magic:#x}, version {version})"),
            ));
        }
        if n != expect_n || !ring_cap.is_power_of_two() || ring_cap < 4096 {
            futex::close_fd(fd);
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shm: region geometry mismatch (n {n}, ring_cap {ring_cap})"),
            ));
        }
        let len = Self::byte_len(n, ring_cap);
        let base = match futex::map_shared(fd, len) {
            Ok(p) => p,
            Err(e) => {
                futex::close_fd(fd);
                return Err(e);
            }
        };
        futex::close_fd(fd);
        Ok(ShmRegion {
            base,
            len,
            n,
            ring_cap,
            fd: None,
        })
    }

    /// The raw descriptor to advertise to workers (creator only).
    pub fn fd(&self) -> Option<i32> {
        self.fd
    }

    /// Machine size this region was built for.
    pub(crate) fn num_pes(&self) -> usize {
        self.n
    }

    fn hdr_u64(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off + 8 <= HDR_BYTES);
        unsafe { &*(self.base.add(off) as *const AtomicU64) }
    }

    fn hdr_u32(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= HDR_BYTES);
        unsafe { &*(self.base.add(off) as *const AtomicU32) }
    }

    /// PE `pe`'s doorbell words.
    pub(crate) fn doorbell(&self, pe: usize) -> Doorbell<'_> {
        debug_assert!(pe < self.n);
        let off = HDR_BYTES + pe * DOORBELL_STRIDE;
        unsafe {
            Doorbell {
                counter: &*(self.base.add(off) as *const AtomicU32),
                waiters: &*(self.base.add(off + 4) as *const AtomicU32),
            }
        }
    }

    /// Control words + data pointer of ring `src → dst`.
    pub(crate) fn ring(&self, src: usize, dst: usize) -> RingPtrs<'_> {
        debug_assert!(src < self.n && dst < self.n);
        let off = Self::rings_off(self.n) + (src * self.n + dst) * Self::slot_bytes(self.ring_cap);
        unsafe {
            RingPtrs {
                head: &*(self.base.add(off) as *const AtomicU64),
                tail: &*(self.base.add(off + 64) as *const AtomicU64),
                data: self.base.add(off + RING_CTRL_BYTES),
                cap: self.ring_cap,
            }
        }
    }
}

impl Drop for ShmRegion {
    fn drop(&mut self) {
        if let Some(fd) = self.fd {
            futex::close_fd(fd);
        }
        futex::unmap(self.base, self.len);
    }
}

/// Raw view of one directed ring. `head` advances only in the producer
/// process (Release on publish), `tail` only in the consumer (Release
/// on consume); both are monotonic byte counts, masked into `data` by
/// `cap - 1`.
pub(crate) struct RingPtrs<'a> {
    pub(crate) head: &'a AtomicU64,
    pub(crate) tail: &'a AtomicU64,
    data: *mut u8,
    pub(crate) cap: usize,
}

impl RingPtrs<'_> {
    /// Copy `src` into the ring at monotonic position `pos` (wrapping).
    ///
    /// # Safety
    /// Caller must hold the producer role for this ring and have
    /// verified `src.len()` bytes of free space at `pos`.
    pub(crate) unsafe fn write_at(&self, pos: u64, src: &[u8]) {
        let mask = self.cap - 1;
        let off = (pos as usize) & mask;
        let first = src.len().min(self.cap - off);
        std::ptr::copy_nonoverlapping(src.as_ptr(), self.data.add(off), first);
        if first < src.len() {
            std::ptr::copy_nonoverlapping(src.as_ptr().add(first), self.data, src.len() - first);
        }
    }

    /// Copy `dst.len()` bytes out of the ring at monotonic position
    /// `pos` (wrapping).
    ///
    /// # Safety
    /// Caller must hold the consumer role for this ring and have
    /// verified `dst.len()` published bytes at `pos`.
    pub(crate) unsafe fn read_at(&self, pos: u64, dst: &mut [u8]) {
        let mask = self.cap - 1;
        let off = (pos as usize) & mask;
        let first = dst.len().min(self.cap - off);
        std::ptr::copy_nonoverlapping(self.data.add(off), dst.as_mut_ptr(), first);
        if first < dst.len() {
            std::ptr::copy_nonoverlapping(
                self.data,
                dst.as_mut_ptr().add(first),
                dst.len() - first,
            );
        }
    }
}
