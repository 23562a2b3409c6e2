//! Versioned, self-describing binary snapshots of simulator state.
//!
//! This crate is the persistence layer under `Processor::checkpoint` /
//! `Processor::restore`: a [`Snapshot`] trait (field-exact binary
//! save/load) plus a self-describing container format. A snapshot file
//! is
//!
//! ```text
//! magic "SQSN" | format version (u32 LE) | payload length (u64 LE)
//!             | FNV-1a-64 payload checksum (u64 LE) | payload
//! ```
//!
//! so truncation, corruption, and foreign versions are detected up
//! front — the same discipline as the trace-file format in
//! `sqip-isa::tracefile` — and every failure is a typed [`SnapError`],
//! never a panic.
//!
//! Determinism note: all integers are little-endian and fixed-width;
//! container impls write an explicit length prefix. A type's snapshot
//! bytes are a pure function of its state, which is what makes
//! checkpoint-at-N + resume bit-identical to a straight run.
//!
//! # Example
//!
//! ```
//! use sqip_snapshot::{snapshot_struct, SnapReader, SnapWriter, Snapshot};
//!
//! struct Counter {
//!     ticks: u64,
//!     armed: bool,
//! }
//! snapshot_struct!(Counter { ticks, armed });
//!
//! let before = Counter { ticks: 41, armed: true };
//! let mut w = SnapWriter::new();
//! before.save(&mut w)?;
//! let mut bytes = Vec::new();
//! w.finish(&mut bytes)?;
//!
//! let mut r = SnapReader::new(&mut bytes.as_slice())?;
//! let after = Counter::load(&mut r)?;
//! r.finish()?;
//! assert_eq!(after.ticks, 41);
//! assert!(after.armed);
//! # Ok::<(), sqip_snapshot::SnapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::io::{Read, Write};

use sqip_types::{Addr, AddrSpan, DataSize, Pc, Seq, Ssn};

/// File magic identifying a SQIP snapshot.
pub const SNAP_MAGIC: [u8; 4] = *b"SQSN";

/// Current snapshot format version.
///
/// Version 2 (from version 1): the dependence oracle's page table
/// records its entries per page and pages one 64-B line at a time, the
/// event engine's instruction slab holds one ROB's worth of slots, and
/// in-flight instructions no longer carry a completion cycle.
///
/// Version 3 (from version 2):
/// - a page table saves its pages in slot order, each in its page
///   type's own layout, with no empty value or entries-per-page field;
/// - a memory-image page is its length (4096) and then its bytes;
/// - a dependence-oracle line is its 64 owner bytes (per byte, the
///   1-based slot of its last writer, 0 for never written) and then its
///   writer list, each `(store seq, store ordinal)` once, in slot order
///   and at most 64 long, every writer owned by some byte;
/// - load-queue entries no longer carry the executed value or the
///   older-unknown-store flag.
///
/// Version 4 (from version 3): the event engine's event wheel is its
/// pending events alone, as one list of `(delivery cycle, event)` pairs
/// sorted ascending, with no buckets, overflow heap, drained cycle,
/// earliest cycle, ring length or bucket in drain. A delivery cycle
/// before its event's requested cycle is corrupt.
///
/// Version 5 (from version 4): a memory image and the dependence oracle
/// are each one line store, saved as its line count, its lines in arena
/// order (a memory-image line is its 64 data bytes, with no length
/// prefix; an oracle line keeps its version-3 layout), its frame count,
/// and then each 4 KiB frame in ascending frame number: the number and
/// its 64 `u32` line slots (1-based arena position, 0 for absent). A
/// slot out of range, a line in two slots or in none, a frame with no
/// line, and frames out of order are corrupt. Counts are checked
/// against the payload left before anything is allocated for them.
pub const SNAP_VERSION: u32 = 5;

/// Everything that can go wrong saving, loading, or resuming from a
/// snapshot. No code path in this crate panics on malformed input.
#[derive(Debug)]
pub enum SnapError {
    /// The input does not start with [`SNAP_MAGIC`].
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion {
        /// The version in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The input ended before the declared payload did.
    Truncated {
        /// Bytes the reader needed.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
    /// The payload decoded to an impossible value (bad enum tag,
    /// out-of-range index, trailing bytes, ...).
    Corrupt(String),
    /// The live state cannot be checkpointed (e.g. a custom boxed
    /// policy, or a pending trace-source error).
    Unsupported(String),
    /// The trace source handed to restore does not match the
    /// checkpointed run (exhausted early, or failed while fast-forwarding).
    Source(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic { found } => {
                write!(f, "not a snapshot file (magic {found:02x?})")
            }
            SnapError::UnsupportedVersion { found, supported } => {
                write!(f, "snapshot version {found} (this build reads {supported})")
            }
            SnapError::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, had {available}"
                )
            }
            SnapError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot payload checksum {found:016x} != header {expected:016x}"
            ),
            SnapError::Corrupt(detail) => write!(f, "corrupt snapshot payload: {detail}"),
            SnapError::Unsupported(detail) => write!(f, "state cannot be checkpointed: {detail}"),
            SnapError::Source(detail) => write!(f, "resume source mismatch: {detail}"),
            SnapError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> SnapError {
        SnapError::Io(e)
    }
}

/// FNV-1a 64-bit — the checksum of the snapshot payload (and the digest
/// behind `sqip`'s content-addressed result cache).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The hash as 16 lowercase hex digits.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Accumulates a snapshot payload, then emits the framed container
/// (magic + version + length + checksum + payload) via
/// [`SnapWriter::finish`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty payload buffer.
    #[must_use]
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Appends raw bytes to the payload.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Bytes accumulated so far.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.buf.len()
    }

    /// Writes the framed snapshot (header + payload) to `out`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Io`] if the sink fails.
    pub fn finish(self, out: &mut impl Write) -> Result<(), SnapError> {
        let mut fnv = Fnv::new();
        fnv.update(&self.buf);
        out.write_all(&SNAP_MAGIC)?;
        out.write_all(&SNAP_VERSION.to_le_bytes())?;
        out.write_all(&(self.buf.len() as u64).to_le_bytes())?;
        out.write_all(&fnv.value().to_le_bytes())?;
        out.write_all(&self.buf)?;
        out.flush()?;
        Ok(())
    }
}

/// Parses a framed snapshot up front (magic, version, length, checksum)
/// and then serves typed reads from the verified payload.
#[derive(Debug)]
pub struct SnapReader {
    buf: Vec<u8>,
    pos: usize,
}

impl SnapReader {
    /// Reads and verifies the container header, then buffers and
    /// checksums the whole payload.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::UnsupportedVersion`],
    /// [`SnapError::Truncated`], [`SnapError::ChecksumMismatch`], or
    /// [`SnapError::Io`].
    pub fn new(input: &mut impl Read) -> Result<SnapReader, SnapError> {
        let mut header = [0u8; 4 + 4 + 8 + 8];
        read_exact(input, &mut header, "container header")?;
        let magic: [u8; 4] = header[0..4].try_into().expect("fixed slice");
        if magic != SNAP_MAGIC {
            return Err(SnapError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("fixed slice"));
        if version != SNAP_VERSION {
            return Err(SnapError::UnsupportedVersion {
                found: version,
                supported: SNAP_VERSION,
            });
        }
        let len = u64::from_le_bytes(header[8..16].try_into().expect("fixed slice"));
        let expected = u64::from_le_bytes(header[16..24].try_into().expect("fixed slice"));

        let mut buf = Vec::new();
        input.take(len).read_to_end(&mut buf)?;
        if (buf.len() as u64) < len {
            return Err(SnapError::Truncated {
                needed: len,
                available: buf.len() as u64,
            });
        }
        let mut fnv = Fnv::new();
        fnv.update(&buf);
        if fnv.value() != expected {
            return Err(SnapError::ChecksumMismatch {
                expected,
                found: fnv.value(),
            });
        }
        Ok(SnapReader { buf, pos: 0 })
    }

    /// The next `n` payload bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] if fewer than `n` bytes remain.
    pub fn take_bytes(&mut self, n: usize) -> Result<&[u8], SnapError> {
        let remaining = self.buf.len() - self.pos;
        if remaining < n {
            return Err(SnapError::Truncated {
                needed: n as u64,
                available: remaining as u64,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a length prefix (a little-endian `u64` count) for items of
    /// at least `min_bytes_each` encoded bytes, and checks it against the
    /// payload left **before** the caller allocates anything for it.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] when the remaining payload cannot hold
    /// that many items (an inflated count), or at end of payload.
    pub fn get_len(&mut self, min_bytes_each: usize) -> Result<usize, SnapError> {
        let n = self.get_u64()?;
        let available = (self.buf.len() - self.pos) as u64;
        let needed = n.saturating_mul(min_bytes_each as u64);
        if needed > available {
            return Err(SnapError::Truncated { needed, available });
        }
        usize::try_from(n).map_err(|_| SnapError::Corrupt(format!("usize overflow: {n}")))
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take_bytes(4)?.try_into().expect("fixed slice"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("fixed slice"),
        ))
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] at end of payload.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(
            self.take_bytes(8)?.try_into().expect("fixed slice"),
        ))
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if bytes remain — the payload and the
    /// loader disagree about the state's shape.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.pos != self.buf.len() {
            return Err(SnapError::Corrupt(format!(
                "{} trailing payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn read_exact(input: &mut impl Read, buf: &mut [u8], what: &str) -> Result<(), SnapError> {
    match input.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(SnapError::Truncated {
            needed: buf.len() as u64,
            available: 0,
        }),
        Err(e) => Err(SnapError::Corrupt(format!("reading {what}: {e}"))),
    }
}

/// Field-exact binary persistence: a type's full state, saved and
/// restored bit-identically.
///
/// Implementations must be *lossless and deterministic*: `load(save(x))`
/// must reproduce a value whose future behaviour is indistinguishable
/// from `x`'s. Derived caches may be re-derived on load; everything
/// observable must round-trip.
///
/// For plain named-field structs use [`snapshot_struct!`]; hand-write
/// enums (tag byte + payload) and types with internal invariants.
///
/// # Example
///
/// ```
/// use sqip_snapshot::{SnapReader, SnapWriter, Snapshot};
///
/// let state: Vec<(u64, bool)> = vec![(3, true), (9, false)];
/// let mut w = SnapWriter::new();
/// state.save(&mut w)?;
/// let mut bytes = Vec::new();
/// w.finish(&mut bytes)?;
///
/// let mut r = SnapReader::new(&mut bytes.as_slice())?;
/// let restored = Vec::<(u64, bool)>::load(&mut r)?;
/// assert_eq!(restored, state);
/// # Ok::<(), sqip_snapshot::SnapError>(())
/// ```
pub trait Snapshot: Sized {
    /// Appends this value's state to the payload.
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] when the live state cannot be
    /// persisted (implementations for plain data never fail).
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError>;

    /// Reconstructs a value from the payload.
    ///
    /// # Errors
    ///
    /// [`SnapError::Truncated`] or [`SnapError::Corrupt`] on malformed
    /// payloads.
    fn load(r: &mut SnapReader) -> Result<Self, SnapError>;
}

/// Generates a field-by-field [`Snapshot`] impl for a named-field
/// struct. Expand it in the module that owns the struct so private
/// fields are in scope; fields save and load in the listed order.
///
/// The optional `derived { field: expr, ... }` block names fields that
/// are *not* serialised: they load as the given placeholder expression
/// and the owner is expected to rebuild them from other state after
/// load. Adding a derived field never changes the snapshot format.
#[macro_export]
macro_rules! snapshot_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        $crate::snapshot_struct!($ty { $($field),+ } derived {});
    };
    ($ty:ty { $($field:ident),+ $(,)? }
     derived { $($dfield:ident: $dval:expr),* $(,)? }) => {
        impl $crate::Snapshot for $ty {
            fn save(
                &self,
                w: &mut $crate::SnapWriter,
            ) -> Result<(), $crate::SnapError> {
                $($crate::Snapshot::save(&self.$field, w)?;)+
                Ok(())
            }
            fn load(r: &mut $crate::SnapReader) -> Result<Self, $crate::SnapError> {
                Ok(Self {
                    $($field: $crate::Snapshot::load(r)?,)+
                    $($dfield: $dval,)*
                })
            }
        }
    };
}

impl Snapshot for u8 {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u8(*self);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<u8, SnapError> {
        r.get_u8()
    }
}

impl Snapshot for u32 {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u32(*self);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<u32, SnapError> {
        r.get_u32()
    }
}

impl Snapshot for u64 {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u64(*self);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<u64, SnapError> {
        r.get_u64()
    }
}

impl Snapshot for i64 {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_i64(*self);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<i64, SnapError> {
        r.get_i64()
    }
}

impl Snapshot for usize {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u64(*self as u64);
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<usize, SnapError> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize overflow: {v}")))
    }
}

impl Snapshot for bool {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u8(u8::from(*self));
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<bool, SnapError> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapError::Corrupt(format!("bool tag {t}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save(w)?;
            }
        }
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<Option<T>, SnapError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            t => Err(SnapError::Corrupt(format!("Option tag {t}"))),
        }
    }
}

/// Pre-allocation cap for length-prefixed containers. Every element
/// encodes to at least one byte, so a count is first checked against
/// the payload left ([`SnapReader::get_len`]); the cap then keeps a
/// large but plausible count of wide elements from reserving far more
/// than the bytes that back it.
const PREALLOC_CAP: usize = 4096;

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u64(self.len() as u64);
        for item in self {
            item.save(w)?;
        }
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<Vec<T>, SnapError> {
        let n = r.get_len(1)?;
        let mut out = Vec::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u64(self.len() as u64);
        for item in self {
            item.save(w)?;
        }
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<VecDeque<T>, SnapError> {
        let n = r.get_len(1)?;
        let mut out = VecDeque::with_capacity(n.min(PREALLOC_CAP));
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u64(self.len() as u64);
        w.put_bytes(self.as_bytes());
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<String, SnapError> {
        let n = usize::load(r)?;
        let bytes = r.take_bytes(n)?.to_vec();
        String::from_utf8(bytes).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.0.save(w)?;
        self.1.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<(A, B), SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.0.save(w)?;
        self.1.save(w)?;
        self.2.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<(A, B, C), SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot, D: Snapshot> Snapshot for (A, B, C, D) {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.0.save(w)?;
        self.1.save(w)?;
        self.2.save(w)?;
        self.3.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<(A, B, C, D), SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?, D::load(r)?))
    }
}

impl<T: Snapshot, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        for item in self {
            item.save(w)?;
        }
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<[T; N], SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::load(r)?);
        }
        out.try_into()
            .map_err(|_| SnapError::Corrupt("array length mismatch".into()))
    }
}

macro_rules! snapshot_newtype_u64 {
    ($($ty:ident),+) => {
        $(impl Snapshot for $ty {
            fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
                w.put_u64(self.0);
                Ok(())
            }
            fn load(r: &mut SnapReader) -> Result<$ty, SnapError> {
                Ok($ty(r.get_u64()?))
            }
        })+
    };
}

snapshot_newtype_u64!(Seq, Addr, Pc, Ssn);

impl Snapshot for DataSize {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u8(self.bytes());
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<DataSize, SnapError> {
        let b = r.get_u8()?;
        DataSize::from_bytes(b).ok_or_else(|| SnapError::Corrupt(format!("DataSize of {b} bytes")))
    }
}

impl Snapshot for AddrSpan {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        w.put_u64(self.base().0);
        w.put_u8(self.len());
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<AddrSpan, SnapError> {
        let base = r.get_u64()?;
        let bytes = r.get_u8()?;
        let size = DataSize::from_bytes(bytes)
            .ok_or_else(|| SnapError::Corrupt(format!("AddrSpan of {bytes} bytes")))?;
        Ok(Addr::new(base).span(size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bytes(w: SnapWriter) -> Vec<u8> {
        let mut out = Vec::new();
        w.finish(&mut out).unwrap();
        out
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = SnapWriter::new();
        0xABu8.save(&mut w).unwrap();
        0xDEAD_BEEFu32.save(&mut w).unwrap();
        u64::MAX.save(&mut w).unwrap();
        (-42i64).save(&mut w).unwrap();
        true.save(&mut w).unwrap();
        usize::MAX.save(&mut w).unwrap();
        let bytes = roundtrip_bytes(w);

        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        assert_eq!(u8::load(&mut r).unwrap(), 0xAB);
        assert_eq!(u32::load(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(u64::load(&mut r).unwrap(), u64::MAX);
        assert_eq!(i64::load(&mut r).unwrap(), -42);
        assert!(bool::load(&mut r).unwrap());
        assert_eq!(usize::load(&mut r).unwrap(), usize::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<Option<u64>> = vec![Some(1), None, Some(3)];
        let d: VecDeque<(Seq, usize, Ssn)> =
            VecDeque::from(vec![(Seq(1), 2, Ssn::new(3)), (Seq(4), 5, Ssn::NONE)]);
        let s = String::from("hello snapshot");
        let arr: [Option<Seq>; 4] = [None, Some(Seq(9)), None, Some(Seq(11))];

        let mut w = SnapWriter::new();
        v.save(&mut w).unwrap();
        d.save(&mut w).unwrap();
        s.save(&mut w).unwrap();
        arr.save(&mut w).unwrap();
        let bytes = roundtrip_bytes(w);

        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        assert_eq!(Vec::<Option<u64>>::load(&mut r).unwrap(), v);
        assert_eq!(VecDeque::<(Seq, usize, Ssn)>::load(&mut r).unwrap(), d);
        assert_eq!(String::load(&mut r).unwrap(), s);
        assert_eq!(<[Option<Seq>; 4]>::load(&mut r).unwrap(), arr);
        r.finish().unwrap();
    }

    #[test]
    fn span_and_size_roundtrip() {
        let span = Addr::new(0x104).span(DataSize::Word);
        let mut w = SnapWriter::new();
        span.save(&mut w).unwrap();
        DataSize::Byte.save(&mut w).unwrap();
        let bytes = roundtrip_bytes(w);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        assert_eq!(AddrSpan::load(&mut r).unwrap(), span);
        assert_eq!(DataSize::load(&mut r).unwrap(), DataSize::Byte);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = roundtrip_bytes(SnapWriter::new());
        bytes[0] = b'X';
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::BadMagic { .. }) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn foreign_version_is_typed() {
        let mut bytes = roundtrip_bytes(SnapWriter::new());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::UnsupportedVersion { found: 99, .. }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_1_snapshots_are_refused() {
        // Version 1 laid the oracle out in 4 KiB pages with no page-size
        // field; parsing it as version 2 would misread every page.
        let mut bytes = roundtrip_bytes(SnapWriter::new());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::UnsupportedVersion {
                found: 1,
                supported: SNAP_VERSION,
            }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_2_snapshots_are_refused() {
        // Version 2 stored 16 B per byte of oracle memory and two LQ
        // fields version 3 dropped; parsing it as version 3 would
        // misread every oracle line.
        let mut bytes = roundtrip_bytes(SnapWriter::new());
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::UnsupportedVersion {
                found: 2,
                supported: SNAP_VERSION,
            }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_3_snapshots_are_refused() {
        // Version 3 laid the event wheel out as 512 buckets, an overflow
        // heap and the wheel's cursor fields; parsing it as version 4
        // would read the bucket count as the pending-event count.
        let mut bytes = roundtrip_bytes(SnapWriter::new());
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::UnsupportedVersion {
                found: 3,
                supported: SNAP_VERSION,
            }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_4_snapshots_are_refused() {
        // Version 4 laid memory images out as 4 KiB pages and the oracle
        // as a page table of one-line pages with a separate index;
        // parsing it as version 5 would read page lengths as line bytes.
        let mut bytes = roundtrip_bytes(SnapWriter::new());
        bytes[4..8].copy_from_slice(&4u32.to_le_bytes());
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::UnsupportedVersion {
                found: 4,
                supported: SNAP_VERSION,
            }) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn an_inflated_count_is_refused_before_allocating() {
        let mut w = SnapWriter::new();
        vec![7u64; 3].save(&mut w).unwrap();
        let mut bytes = roundtrip_bytes(w);
        // Re-frame the payload with its count raised past what the 24
        // bytes behind it could hold at 8 bytes an item.
        let mut payload = bytes.split_off(24);
        payload[..8].copy_from_slice(&4u64.to_le_bytes());
        let mut w = SnapWriter::new();
        w.put_bytes(&payload);
        let bytes = roundtrip_bytes(w);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        match r.get_len(8) {
            Err(SnapError::Truncated {
                needed: 32,
                available: 24,
            }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w).unwrap();
        let bytes = roundtrip_bytes(w);
        for cut in [0, 3, 10, bytes.len() - 1] {
            match SnapReader::new(&mut &bytes[..cut]) {
                Err(SnapError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_typed() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w).unwrap();
        let mut bytes = roundtrip_bytes(w);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match SnapReader::new(&mut bytes.as_slice()) {
            Err(SnapError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut w = SnapWriter::new();
        7u64.save(&mut w).unwrap();
        8u64.save(&mut w).unwrap();
        let bytes = roundtrip_bytes(w);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        let _ = u64::load(&mut r).unwrap();
        match r.finish() {
            Err(SnapError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_length_does_not_overallocate() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX); // absurd element count
        let bytes = roundtrip_bytes(w);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        match Vec::<u64>::load(&mut r) {
            Err(SnapError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}
