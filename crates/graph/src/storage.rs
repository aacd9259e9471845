//! Backing storage for CSR arrays: owned heap vectors or zero-copy views
//! into a memory-mapped container file.
//!
//! The CGPH v3 container (see [`crate::container`]) lays the built CSR
//! arrays out as fixed-width little-endian sections so a warm load is one
//! `mmap` plus validation — no parsing, no `GraphBuilder` re-sort. To let
//! `Dijkstra`, `NeighborSets`, and the engine pool run unchanged on mapped
//! data, every CSR array is a [`Storage<T>`], which derefs to `&[T]`
//! whether the elements live in an owned `Vec<T>` or inside a shared
//! [`MapRegion`].
//!
//! # Safety argument
//!
//! This is the **only** module in the crate (and the workspace's library
//! crates) allowed to contain `unsafe` — the crate root carries
//! `#![deny(unsafe_code)]`, the other library roots forbid it, and
//! `cargo xtask check` (row `unsafe_confined`) fails if any other file
//! opts back in. The two uses are:
//!
//! 1. reinterpreting a validated byte range of a region as `&[T]` for a
//!    sealed set of [`Pod`] element types (`u32`, `NodeId`, `Weight`) that
//!    are `#[repr(transparent)]` over `u32`/`u64`: fixed size, alignment
//!    ≤ 8, no padding, and every bit pattern inhabits the type (semantic
//!    checks — finite weights, in-range ids — happen at load, on top of
//!    this type-level soundness);
//! 2. the `mmap`/`munmap` FFI pair behind [`MapRegion::map_file`], gated
//!    to `unix` and compiled out under Miri (Miri exercises the owned
//!    fallback instead).
//!
//! Alignment holds by construction: a mapped region starts page-aligned,
//! the owned fallback buffer is backed by `Vec<u64>` (8-aligned), and
//! [`Storage::mapped`] rejects any byte offset that is not a multiple of
//! 8, which covers every `Pod` type's alignment requirement.
#![allow(unsafe_code)]

use crate::csr::NodeId;
use crate::weight::Weight;
use std::io;
use std::ops::Deref;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for crate::csr::NodeId {}
    impl Sealed for crate::weight::Weight {}
}

/// Element types that may be viewed directly inside a mapped byte region.
///
/// Sealed: implemented exactly for `u32`, [`NodeId`] (`repr(transparent)`
/// over `u32`), and [`Weight`] (`repr(transparent)` over `u64`). All three
/// have no padding, alignment ≤ 8, and are inhabited by every bit pattern,
/// which is what makes the reinterpret in [`Storage::deref`] sound.
pub trait Pod: sealed::Sealed + Copy + 'static {}

impl Pod for u32 {}
impl Pod for NodeId {}
impl Pod for Weight {}

#[cfg(all(unix, not(miri)))]
mod sys {
    //! Minimal libc surface for read-only private file mappings. `std`
    //! already links libc on unix targets, so declaring the two symbols
    //! here adds no dependency.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// How a [`MapRegion`]'s bytes are held.
enum Backing {
    /// A live read-only `mmap` of a file; unmapped on drop.
    #[cfg(all(unix, not(miri)))]
    Mmap { ptr: *const u8, len: usize },
    /// Heap fallback (non-unix hosts, Miri, or `mmap` failure): the file's
    /// bytes copied into a `Vec<u64>` so the base stays 8-aligned.
    Heap { buf: Vec<u64>, len: usize },
}

/// An immutable, 8-aligned byte region holding a loaded container file.
///
/// Shared via `Arc` between every [`Storage`] view cut from it; the bytes
/// are unmapped/freed when the last view drops.
pub struct MapRegion {
    backing: Backing,
}

// SAFETY: the region is immutable for its whole lifetime (PROT_READ
// private mapping or a never-mutated heap buffer) and has no interior
// mutability, so shared references may cross threads freely.
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

impl MapRegion {
    /// Wraps raw bytes in an 8-aligned heap region (copies once).
    pub fn from_bytes(bytes: &[u8]) -> MapRegion {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: `buf` owns `words * 8 >= bytes.len()` initialized bytes;
        // u64 -> u8 reinterpretation is always valid.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<u8>(), words * 8) };
        dst[..bytes.len()].copy_from_slice(bytes);
        MapRegion {
            backing: Backing::Heap {
                buf,
                len: bytes.len(),
            },
        }
    }

    /// Maps `path` read-only. On unix (outside Miri) this is a zero-copy
    /// `mmap(MAP_PRIVATE)`; elsewhere — or if the mapping fails — the file
    /// is read into an aligned heap buffer instead.
    pub fn map_file(path: &std::path::Path) -> io::Result<MapRegion> {
        #[cfg(all(unix, not(miri)))]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len64 = file.metadata()?.len();
            let Some(len) = crate::weight::try_u64_to_usize(len64) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "file exceeds host address width",
                ));
            };
            if len > 0 {
                // SAFETY: requesting a fresh PROT_READ private mapping of
                // `len` bytes backed by `file`; the kernel either returns a
                // valid page-aligned mapping of exactly `len` bytes (owned
                // by the returned region until `munmap` in drop) or
                // MAP_FAILED, which we check.
                let ptr = unsafe {
                    sys::mmap(
                        std::ptr::null_mut(),
                        len,
                        sys::PROT_READ,
                        sys::MAP_PRIVATE,
                        file.as_raw_fd(),
                        0,
                    )
                };
                if ptr as isize != -1 {
                    return Ok(MapRegion {
                        backing: Backing::Mmap {
                            ptr: ptr.cast_const().cast::<u8>(),
                            len,
                        },
                    });
                }
                // Fall through to the read-into-heap path below.
            }
        }
        Ok(MapRegion::from_bytes(&std::fs::read(path)?))
    }

    /// The region's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, not(miri)))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until this region drops.
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap { buf, len } => {
                // SAFETY: `buf` owns `buf.len() * 8 >= *len` initialized
                // bytes; u64 -> u8 reinterpretation is always valid.
                let all =
                    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), buf.len() * 8) };
                &all[..*len]
            }
        }
    }

    /// Total byte length.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(all(unix, not(miri)))]
            Backing::Mmap { len, .. } => *len,
            Backing::Heap { len, .. } => *len,
        }
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are a live `mmap` (false for the heap fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, not(miri)))]
            Backing::Mmap { .. } => true,
            Backing::Heap { .. } => false,
        }
    }
}

impl Drop for MapRegion {
    fn drop(&mut self) {
        #[cfg(all(unix, not(miri)))]
        if let Backing::Mmap { ptr, len } = &self.backing {
            // SAFETY: `ptr`/`len` came from a successful mmap owned by
            // this region and are unmapped exactly once, here.
            unsafe {
                sys::munmap((*ptr).cast_mut().cast(), *len);
            }
        }
    }
}

impl std::fmt::Debug for MapRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MapRegion({} bytes, {})",
            self.len(),
            if self.is_mapped() { "mmap" } else { "heap" }
        )
    }
}

#[derive(Clone)]
enum Repr<T: Pod> {
    Owned(Vec<T>),
    Mapped {
        region: Arc<MapRegion>,
        byte_offset: usize,
        len: usize,
    },
}

/// A CSR array: an owned `Vec<T>` or a zero-copy `&[T]` view into a shared
/// [`MapRegion`]. Derefs to `&[T]`, so algorithms are oblivious to which.
#[derive(Clone)]
pub struct Storage<T: Pod>(Repr<T>);

impl<T: Pod> Storage<T> {
    /// A view of `len` elements starting `byte_offset` bytes into
    /// `region`. Rejects out-of-bounds ranges and offsets that are not
    /// 8-aligned (the container format aligns every section to 8 bytes,
    /// which covers every `Pod` alignment).
    pub fn mapped(
        region: Arc<MapRegion>,
        byte_offset: usize,
        len: usize,
    ) -> io::Result<Storage<T>> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
        if !byte_offset.is_multiple_of(8) {
            return Err(bad("section byte offset is not 8-aligned"));
        }
        let bytes = len
            .checked_mul(std::mem::size_of::<T>())
            .ok_or_else(|| bad("section length overflows"))?;
        let end = byte_offset
            .checked_add(bytes)
            .ok_or_else(|| bad("section range overflows"))?;
        if end > region.len() {
            return Err(bad("section range exceeds the region"));
        }
        debug_assert_eq!(
            region.bytes()[byte_offset..]
                .as_ptr()
                .align_offset(std::mem::align_of::<T>()),
            0
        );
        Ok(Storage(Repr::Mapped {
            region,
            byte_offset,
            len,
        }))
    }

    /// Whether the elements live in a shared region rather than a `Vec`.
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Repr::Mapped { .. })
    }

    /// Mutable access, converting a mapped view into an owned copy first
    /// (copy-on-write; used by tests that corrupt arrays in place).
    pub fn to_mut(&mut self) -> &mut Vec<T> {
        if let Repr::Mapped { .. } = self.0 {
            self.0 = Repr::Owned(self.as_ref().to_vec());
        }
        match &mut self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped { .. } => unreachable!("storage was just converted to owned"),
        }
    }
}

impl<T: Pod> Deref for Storage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Mapped {
                region,
                byte_offset,
                len,
            } => {
                let bytes =
                    &region.bytes()[*byte_offset..*byte_offset + *len * std::mem::size_of::<T>()];
                // SAFETY: the range was bounds- and alignment-checked in
                // `Storage::mapped`; `T: Pod` is sealed to padding-free
                // types inhabited by every bit pattern, so reinterpreting
                // these initialized bytes as `len` elements is sound. The
                // region is immutable and outlives `self` via the Arc.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), *len) }
            }
        }
    }
}

impl<T: Pod> AsRef<[T]> for Storage<T> {
    #[inline]
    fn as_ref(&self) -> &[T] {
        self
    }
}

impl<T: Pod> Default for Storage<T> {
    fn default() -> Storage<T> {
        Storage(Repr::Owned(Vec::new()))
    }
}

impl<T: Pod> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Storage<T> {
        Storage(Repr::Owned(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_of(bytes: &[u8]) -> Arc<MapRegion> {
        Arc::new(MapRegion::from_bytes(bytes))
    }

    #[test]
    fn heap_region_roundtrips_bytes() {
        let data = [1u8, 2, 3, 4, 5];
        let r = MapRegion::from_bytes(&data);
        assert_eq!(r.bytes(), &data);
        assert_eq!(r.len(), 5);
        assert!(!r.is_mapped());
        assert!(!r.is_empty());
        assert!(MapRegion::from_bytes(&[]).is_empty());
    }

    #[test]
    fn mapped_storage_views_u32s() {
        let mut bytes = Vec::new();
        for v in [7u32, 11, 13] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let s: Storage<u32> = Storage::mapped(region_of(&bytes), 0, 3).unwrap();
        assert_eq!(&*s, &[7, 11, 13]);
        assert!(s.is_mapped());
        let c = s.clone();
        assert_eq!(&*c, &[7, 11, 13]);
    }

    #[test]
    fn mapped_storage_views_weights_and_node_ids() {
        let mut bytes = vec![0u8; 8]; // one alignment pad word
        bytes.extend_from_slice(&2_500_000_000u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        let r = region_of(&bytes);
        let w: Storage<Weight> = Storage::mapped(Arc::clone(&r), 8, 2).unwrap();
        assert_eq!(&*w, &[Weight::new(2.5), Weight::ZERO]);
        let ids: Storage<NodeId> = Storage::mapped(r, 8, 2).unwrap();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn misaligned_or_oversized_views_are_rejected() {
        let r = region_of(&[0u8; 32]);
        assert!(Storage::<u32>::mapped(Arc::clone(&r), 4, 1).is_err());
        assert!(Storage::<u32>::mapped(Arc::clone(&r), 0, 9).is_err());
        assert!(Storage::<u32>::mapped(Arc::clone(&r), 32, 1).is_err());
        assert!(Storage::<u32>::mapped(Arc::clone(&r), usize::MAX - 7, 1).is_err());
        assert!(Storage::<u32>::mapped(r, 0, usize::MAX / 2).is_err());
    }

    #[test]
    fn to_mut_copies_mapped_data_on_write() {
        let mut bytes = Vec::new();
        for v in [1u32, 2] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let mut s: Storage<u32> = Storage::mapped(region_of(&bytes), 0, 2).unwrap();
        s.to_mut()[0] = 99;
        assert!(!s.is_mapped());
        assert_eq!(&*s, &[99, 2]);
        // Owned storage hands out its vec directly.
        let mut o: Storage<u32> = vec![5u32].into();
        o.to_mut().push(6);
        assert_eq!(&*o, &[5, 6]);
        // A graph's clone shares its arrays; writing one copies them first.
        let g = crate::graph_from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        let mut c = g.clone();
        assert!(std::ptr::eq(g.halves.fwd.targets(), c.halves.fwd.targets()));
        Arc::make_mut(&mut c.halves).fwd.targets.to_mut()[0] = NodeId(2);
        assert_eq!(g.halves.fwd.targets(), &[NodeId(1), NodeId(2)]);
        assert_eq!(c.halves.fwd.targets(), &[NodeId(2), NodeId(2)]);
    }

    #[test]
    fn default_is_empty_owned() {
        let s: Storage<u32> = Storage::default();
        assert!(s.is_empty());
        assert!(!s.is_mapped());
    }

    #[cfg(all(unix, not(miri)))]
    #[test]
    fn map_file_is_zero_copy_on_unix() {
        let dir = std::env::temp_dir().join(format!("comm_graph_storage_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.bin");
        let data: Vec<u8> = (0..64u8).collect();
        std::fs::write(&path, &data).unwrap();
        let r = MapRegion::map_file(&path).unwrap();
        assert!(r.is_mapped());
        assert_eq!(r.bytes(), &data[..]);
        drop(r);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn map_file_handles_empty_files() {
        let dir = std::env::temp_dir().join(format!("comm_graph_storage_e_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let r = MapRegion::map_file(&path).unwrap();
        assert!(r.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
