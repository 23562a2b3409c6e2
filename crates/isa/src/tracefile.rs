//! The compact on-disk trace format: record a workload once, replay it
//! forever — on any machine, without the generator that produced it.
//!
//! # Format
//!
//! A `SQTR` file is an 8-byte header (`b"SQTR"`, a `u16` little-endian
//! version, two reserved bytes) followed by a sequence of
//! variable-length records and a terminator:
//!
//! ```text
//! record := op:u8  flags:u8  [dst:u8] [src0:u8] [src1:u8]
//!           pc:uvarint  imm:svarint  [addr:uvarint]
//!           result:uvarint  next_pc_delta:svarint
//! end    := 0xFF  count:uvarint
//! ```
//!
//! Sequence numbers are implicit (records are stored in fetch order),
//! access widths ride in the opcode, and `next_pc` is encoded as a
//! zig-zag delta from the fall-through PC (`pc + 4`, wrapping at the top
//! of the address space) — so straight-line code costs a single byte for
//! its control-flow fields. The terminator carries the record count,
//! letting the reader distinguish a complete file from a truncated one.
//! The format is frozen: a golden test pins the bytes of a fixed program.
//!
//! # Recording and replaying
//!
//! The two directions mirror each other. [`TraceWriter`] encodes records
//! straight into a 64 KiB chunk and hands its sink one `write_all` per
//! full chunk; [`TraceWriter::finish`] writes the last partial chunk with
//! the terminator. A writer dropped before `finish` leaves the header and
//! its full chunks only, which the reader reports as truncated.
//! [`TraceReader`] decodes block pulls straight out of its `BufRead`
//! buffer. Both sides check the same rules: the writer refuses any
//! record the reader would reject, and a refused record leaves the
//! writer usable. The reader's first error is sticky, and so is the
//! writer's first I/O error.
//!
//! # Example
//!
//! ```
//! use sqip_isa::{trace_program, ProgramBuilder, Reg, TraceReader, TraceSource, TraceWriter};
//!
//! let mut b = ProgramBuilder::new();
//! b.load_imm(Reg::new(1), 42);
//! b.halt();
//! let trace = trace_program(&b.build()?, 100)?;
//!
//! // Record...
//! let mut file = Vec::new();
//! let mut w = TraceWriter::new(&mut file)?;
//! w.write_block(trace.records())?;
//! w.finish()?;
//!
//! // ...replay.
//! let mut r = TraceReader::new(file.as_slice())?;
//! assert_eq!(r.next_record()?, Some(trace.records()[0]));
//! # Ok::<(), sqip_isa::IsaError>(())
//! ```

use std::io::{BufRead, Read, Write};

use sqip_types::{Addr, DataSize, Pc, Seq};

use crate::error::IsaError;
use crate::op::Op;
use crate::reg::Reg;
use crate::source::TraceSource;
use crate::trace::TraceRecord;

/// The trace-file magic bytes.
pub const TRACE_MAGIC: [u8; 4] = *b"SQTR";
/// The trace-file format version this build reads and writes.
pub const TRACE_VERSION: u16 = 1;

const END_MARKER: u8 = 0xFF;

const F_TAKEN: u8 = 1 << 0;
const F_DST: u8 = 1 << 1;
const F_SRC0: u8 = 1 << 2;
const F_SRC1: u8 = 1 << 3;
const F_ADDR: u8 = 1 << 4;

fn io_err(context: &str, e: &std::io::Error) -> IsaError {
    IsaError::TraceIo {
        detail: format!("{context}: {e}"),
    }
}

fn corrupt(detail: impl Into<String>) -> IsaError {
    IsaError::TraceFormat {
        detail: detail.into(),
    }
}

// ---- opcode table ----

const SIZES: [DataSize; 4] = [
    DataSize::Byte,
    DataSize::Half,
    DataSize::Word,
    DataSize::Quad,
];

fn size_code(s: DataSize) -> u8 {
    match s {
        DataSize::Byte => 0,
        DataSize::Half => 1,
        DataSize::Word => 2,
        DataSize::Quad => 3,
    }
}

fn op_code(op: Op) -> u8 {
    match op {
        Op::Add => 0,
        Op::Sub => 1,
        Op::Mul => 2,
        Op::And => 3,
        Op::Or => 4,
        Op::Xor => 5,
        Op::Shl => 6,
        Op::Shr => 7,
        Op::CmpLt => 8,
        Op::CmpEq => 9,
        Op::AddImm => 10,
        Op::MulImm => 11,
        Op::LoadImm => 12,
        Op::FAdd => 13,
        Op::FMul => 14,
        Op::FDiv => 15,
        Op::Load(s) => 16 + size_code(s),
        Op::Store(s) => 20 + size_code(s),
        Op::BranchZ => 24,
        Op::BranchNZ => 25,
        Op::Jump => 26,
        Op::Call => 27,
        Op::Ret => 28,
        Op::Nop => 29,
        Op::Halt => 30,
    }
}

fn op_from_code(code: u8) -> Option<Op> {
    Some(match code {
        0 => Op::Add,
        1 => Op::Sub,
        2 => Op::Mul,
        3 => Op::And,
        4 => Op::Or,
        5 => Op::Xor,
        6 => Op::Shl,
        7 => Op::Shr,
        8 => Op::CmpLt,
        9 => Op::CmpEq,
        10 => Op::AddImm,
        11 => Op::MulImm,
        12 => Op::LoadImm,
        13 => Op::FAdd,
        14 => Op::FMul,
        15 => Op::FDiv,
        16..=19 => Op::Load(SIZES[(code - 16) as usize]),
        20..=23 => Op::Store(SIZES[(code - 20) as usize]),
        24 => Op::BranchZ,
        25 => Op::BranchNZ,
        26 => Op::Jump,
        27 => Op::Call,
        28 => Op::Ret,
        29 => Op::Nop,
        30 => Op::Halt,
        _ => return None,
    })
}

// ---- varints ----

/// Encodes `v` as a uvarint at `out[pos..]`; returns the position after it.
#[inline]
fn put_uv(out: &mut [u8], mut pos: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[pos] = v as u8 | 0x80;
        v >>= 7;
        pos += 1;
    }
    out[pos] = v as u8;
    pos + 1
}

/// Zig-zag: small magnitudes of either sign stay short.
#[inline]
fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---- writer ----

/// The most bytes one record takes: opcode, flags, three registers and
/// five varints of at most 10 bytes each.
const MAX_RECORD_BYTES: usize = 5 + 5 * 10;

/// The writer hands its sink one `write_all` per chunk of this many bytes.
const CHUNK_BYTES: usize = 64 * 1024;

/// Records per [`TraceSource::next_block`] pull in [`record_trace`].
const RECORD_BLOCK: usize = 64;

/// Encodes record `seq` at the front of `out` (at least
/// [`MAX_RECORD_BYTES`] long) and returns the bytes used, or refuses a
/// record the reader would reject. A refused record may leave scratch
/// bytes in `out`.
#[inline]
fn encode_record(rec: &TraceRecord, seq: u64, out: &mut [u8]) -> Result<usize, IsaError> {
    if rec.op.mem_size().is_some() && rec.addr.is_none() {
        return Err(corrupt(format!(
            "record {seq}: memory op `{}` without an address",
            rec.op
        )));
    }
    let mut flags = F_TAKEN * u8::from(rec.taken);
    flags |= F_DST * u8::from(rec.dst.is_some());
    flags |= F_SRC0 * u8::from(rec.srcs[0].is_some());
    flags |= F_SRC1 * u8::from(rec.srcs[1].is_some());
    flags |= F_ADDR * u8::from(rec.addr.is_some());
    out[0] = op_code(rec.op);
    out[1] = flags;
    let mut pos = 2;
    for reg in [rec.dst, rec.srcs[0], rec.srcs[1]].into_iter().flatten() {
        if reg.is_zero() {
            return Err(corrupt(format!("record {seq}: invalid register index 0")));
        }
        out[pos] = reg.index() as u8;
        pos += 1;
    }
    pos = put_uv(out, pos, rec.pc.0);
    pos = put_uv(out, pos, zigzag_encode(rec.imm));
    if let Some(addr) = rec.addr {
        pos = put_uv(out, pos, addr.0);
    }
    pos = put_uv(out, pos, rec.result);
    let delta = rec.next_pc.0.wrapping_sub(rec.pc.next().0) as i64;
    Ok(put_uv(out, pos, zigzag_encode(delta)))
}

/// Streams [`TraceRecord`]s into the compact binary format.
///
/// Records are encoded straight into a 64 KiB chunk buffer, and the sink
/// sees one `write_all` for the header, one per full chunk and one from
/// [`TraceWriter::finish`], which adds the terminator the reader uses to
/// tell a complete file from a truncated one. A writer dropped unfinished
/// leaves the header and its full chunks and nothing more — no terminator
/// — so the reader reports the file as truncated.
///
/// A record the reader would reject (a memory op without an address, a
/// zero register index) is refused with [`IsaError::TraceFormat`] and
/// nothing of it is buffered. The first write error is sticky: every
/// later call returns it again, and no chunk is ever written twice.
pub struct TraceWriter<W: Write> {
    w: W,
    /// The chunk being filled, with room for one record past its end: a
    /// record that crosses the edge is encoded whole, and its tail moves
    /// to the front once the chunk is written.
    buf: Box<[u8]>,
    /// Encoded bytes at the front of `buf`; below `CHUNK_BYTES` between
    /// calls.
    len: usize,
    count: u64,
    error: Option<IsaError>,
}

impl<W: Write + std::fmt::Debug> std::fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceWriter")
            .field("w", &self.w)
            .field("buffered", &self.len)
            .field("count", &self.count)
            .field("error", &self.error)
            .finish()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace file: writes the header.
    ///
    /// # Errors
    ///
    /// [`IsaError::TraceIo`] on write failure.
    pub fn new(mut w: W) -> Result<TraceWriter<W>, IsaError> {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&TRACE_MAGIC);
        header[4..6].copy_from_slice(&TRACE_VERSION.to_le_bytes());
        w.write_all(&header)
            .map_err(|e| io_err("writing header", &e))?;
        Ok(TraceWriter {
            w,
            buf: vec![0; CHUNK_BYTES + MAX_RECORD_BYTES].into_boxed_slice(),
            len: 0,
            count: 0,
            error: None,
        })
    }

    /// Appends one record: a block of one.
    ///
    /// # Errors
    ///
    /// As [`TraceWriter::write_block`].
    pub fn write_record(&mut self, rec: &TraceRecord) -> Result<(), IsaError> {
        self.write_block(std::slice::from_ref(rec))
    }

    /// Appends `recs` in order, exactly as calling
    /// [`TraceWriter::write_record`] on each and stopping at the first
    /// error: the records before a refused one are kept.
    ///
    /// # Errors
    ///
    /// [`IsaError::TraceFormat`] for a record the reader would reject,
    /// [`IsaError::TraceIo`] when writing a full chunk fails (then and on
    /// every later call).
    pub fn write_block(&mut self, recs: &[TraceRecord]) -> Result<(), IsaError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        for rec in recs {
            self.len += encode_record(rec, self.count, &mut self.buf[self.len..])?;
            self.count += 1;
            if self.len >= CHUNK_BYTES {
                self.write_chunk()?;
            }
        }
        Ok(())
    }

    /// Writes the full chunk at the front of `buf` and moves the bytes
    /// past it to the front.
    fn write_chunk(&mut self) -> Result<(), IsaError> {
        if let Err(e) = self.w.write_all(&self.buf[..CHUNK_BYTES]) {
            let e = io_err("writing records", &e);
            self.error = Some(e.clone());
            return Err(e);
        }
        self.buf.copy_within(CHUNK_BYTES..self.len, 0);
        self.len -= CHUNK_BYTES;
        Ok(())
    }

    /// Records accepted so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the buffered records and the terminator (with the record
    /// count), flushes, and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`IsaError::TraceIo`] on write or flush failure, or the sticky
    /// error of an earlier call.
    pub fn finish(mut self) -> Result<W, IsaError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.buf[self.len] = END_MARKER;
        let end = put_uv(&mut self.buf, self.len + 1, self.count);
        self.w
            .write_all(&self.buf[..end])
            .map_err(|e| io_err("writing records and terminator", &e))?;
        self.w.flush().map_err(|e| io_err("flushing trace", &e))?;
        Ok(self.w)
    }
}

/// Drains `source` into `w`, returning the number of records written.
///
/// This is the "record once" half of record/replay: pair it with
/// [`TraceReader`] to capture any source — a generator, an interpreter, a
/// filtered stream — as a portable artifact. Records are pulled in
/// blocks of 64 and encoded a block at a time.
///
/// # Errors
///
/// Propagates source errors, and the [`TraceWriter`]'s refusals and
/// [`IsaError::TraceIo`] write failures.
pub fn record_trace<S: TraceSource + ?Sized>(
    source: &mut S,
    w: impl Write,
) -> Result<u64, IsaError> {
    let mut writer = TraceWriter::new(w)?;
    let mut block = [TraceRecord::default(); RECORD_BLOCK];
    loop {
        match source.next_block(&mut block)? {
            0 => break,
            n => writer.write_block(&block[..n])?,
        }
    }
    let n = writer.count();
    writer.finish()?;
    Ok(n)
}

// ---- reader ----

/// Where the record decoder gets its bytes: a [`BufRead`] buffer slice
/// (the block fast path) or the reader itself, a byte at a time.
trait RecordBytes {
    /// A slice can run dry mid-record; the reader cannot (it reports a
    /// truncated file instead), so each source names its own failure.
    type Err: From<IsaError>;
    fn byte(&mut self) -> Result<u8, Self::Err>;
}

/// Why a slice decode stopped short of a whole record.
enum SliceStop {
    /// The buffered bytes end mid-record: decode it byte-wise instead.
    Short,
    Bad(IsaError),
}

impl From<IsaError> for SliceStop {
    fn from(e: IsaError) -> SliceStop {
        SliceStop::Bad(e)
    }
}

struct SliceBytes<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl RecordBytes for SliceBytes<'_> {
    type Err = SliceStop;
    #[inline]
    fn byte(&mut self) -> Result<u8, SliceStop> {
        let b = *self.buf.get(self.pos).ok_or(SliceStop::Short)?;
        self.pos += 1;
        Ok(b)
    }
}

struct ReaderBytes<'a, R> {
    r: &'a mut R,
    /// Records read so far, for the truncation message.
    records: u64,
}

impl<R: Read> RecordBytes for ReaderBytes<'_, R> {
    type Err = IsaError;
    fn byte(&mut self) -> Result<u8, IsaError> {
        let mut b = [0u8; 1];
        self.r.read_exact(&mut b).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                corrupt(format!(
                    "truncated after {} records (no terminator)",
                    self.records
                ))
            } else {
                io_err("reading record", &e)
            }
        })?;
        Ok(b[0])
    }
}

#[inline]
fn read_uv<B: RecordBytes>(b: &mut B) -> Result<u64, B::Err> {
    let mut v = 0u64;
    for shift in (0..70).step_by(7) {
        let byte = b.byte()?;
        if shift == 63 && byte > 1 {
            return Err(corrupt("varint overflows 64 bits").into());
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(corrupt("varint longer than 10 bytes").into())
}

#[inline]
fn read_reg<B: RecordBytes>(b: &mut B) -> Result<Reg, B::Err> {
    let idx = b.byte()?;
    if usize::from(idx) >= crate::reg::NUM_REGS || idx == 0 {
        return Err(corrupt(format!("invalid register index {idx}")).into());
    }
    Ok(Reg::new(idx))
}

/// Decodes the rest of record `seq` after its (non-terminator) opcode
/// byte `code`. Both byte sources run this one decoder, so they check
/// the same bytes in the same order and fail with the same error.
#[inline]
fn decode_record<B: RecordBytes>(b: &mut B, code: u8, seq: u64) -> Result<TraceRecord, B::Err> {
    let op = op_from_code(code).ok_or_else(|| corrupt(format!("unknown opcode byte {code:#x}")))?;
    let flags = b.byte()?;
    let dst = (flags & F_DST != 0).then(|| read_reg(b)).transpose()?;
    let src0 = (flags & F_SRC0 != 0).then(|| read_reg(b)).transpose()?;
    let src1 = (flags & F_SRC1 != 0).then(|| read_reg(b)).transpose()?;
    let pc = Pc::new(read_uv(b)?);
    let imm = zigzag_decode(read_uv(b)?);
    let addr = (flags & F_ADDR != 0)
        .then(|| read_uv(b).map(Addr::new))
        .transpose()?;
    if op.mem_size().is_some() && addr.is_none() {
        return Err(corrupt(format!("memory op `{op}` without an address")).into());
    }
    let result = read_uv(b)?;
    let next_pc = Pc::new(pc.next().0.wrapping_add(zigzag_decode(read_uv(b)?) as u64));
    Ok(TraceRecord {
        seq: Seq(seq),
        pc,
        op,
        dst,
        srcs: [src0, src1],
        imm,
        addr,
        size: op.mem_size().unwrap_or_default(),
        result,
        taken: flags & F_TAKEN != 0,
        next_pc,
    })
}

/// How a run of slice decodes ended.
enum RunEnd {
    /// `out` is full.
    Full,
    /// The next record straddles the buffer edge, is the terminator, or
    /// there are no buffered bytes: the byte-wise path takes it.
    ByteWise,
    Bad(IsaError),
}

/// Decodes whole records from the front of `buf` into `out`, numbering
/// them from `seq`. Returns the records decoded, the bytes they used and
/// why the run ended.
fn decode_run(buf: &[u8], out: &mut [TraceRecord], seq: u64) -> (usize, usize, RunEnd) {
    let mut bytes = SliceBytes { buf, pos: 0 };
    for (n, slot) in out.iter_mut().enumerate() {
        let start = bytes.pos;
        let end = match bytes.byte() {
            Ok(END_MARKER) | Err(_) => RunEnd::ByteWise,
            Ok(code) => match decode_record(&mut bytes, code, seq + n as u64) {
                Ok(rec) => {
                    *slot = rec;
                    continue;
                }
                Err(SliceStop::Short) => RunEnd::ByteWise,
                Err(SliceStop::Bad(e)) => RunEnd::Bad(e),
            },
        };
        return (n, start, end);
    }
    (out.len(), bytes.pos, RunEnd::Full)
}

/// Streams [`TraceRecord`]s out of the compact binary format.
///
/// Implements [`TraceSource`], so a recorded file drives the simulator
/// exactly like a live generator — in O(1) memory. Block pulls decode
/// straight out of the reader's buffer; only a record that straddles
/// the buffer's edge, and the terminator, are read a byte at a time.
/// The first error is sticky: every later pull returns it again.
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    r: R,
    next_seq: u64,
    done: bool,
    error: Option<IsaError>,
}

impl<R: BufRead> TraceReader<R> {
    /// Opens a trace stream: reads and validates the header.
    ///
    /// # Errors
    ///
    /// [`IsaError::TraceIo`] on read failure, [`IsaError::TraceFormat`]
    /// on bad magic or an unsupported version.
    pub fn new(mut r: R) -> Result<TraceReader<R>, IsaError> {
        let mut header = [0u8; 8];
        r.read_exact(&mut header).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                corrupt("file shorter than the 8-byte header")
            } else {
                io_err("reading header", &e)
            }
        })?;
        if header[..4] != TRACE_MAGIC {
            return Err(corrupt("bad magic (not a SQTR trace file)"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != TRACE_VERSION {
            return Err(corrupt(format!(
                "unsupported trace version {version} (this build reads {TRACE_VERSION})"
            )));
        }
        Ok(TraceReader {
            r,
            next_seq: 0,
            done: false,
            error: None,
        })
    }

    /// The byte-wise path: the next record or the terminator.
    fn read_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        let mut bytes = ReaderBytes {
            r: &mut self.r,
            records: self.next_seq,
        };
        let code = bytes.byte()?;
        if code == END_MARKER {
            let declared = read_uv(&mut bytes)?;
            if declared != self.next_seq {
                return Err(corrupt(format!(
                    "terminator declares {declared} records but {} were read",
                    self.next_seq
                )));
            }
            self.done = true;
            return Ok(None);
        }
        let rec = decode_record(&mut bytes, code, self.next_seq)?;
        self.next_seq += 1;
        Ok(Some(rec))
    }
}

impl<R: BufRead> TraceSource for TraceReader<R> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if self.done {
            return Ok(None);
        }
        self.read_record()
            .inspect_err(|e| self.error = Some(e.clone()))
    }

    /// Decodes runs of whole records straight out of the reader's
    /// buffer; the records and errors are exactly the scalar path's.
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        let mut n = 0;
        while n < out.len() && !self.done && self.error.is_none() {
            // A buffer-fill error is left for the byte-wise path to
            // raise (or retry) exactly as a scalar pull would.
            let (got, used, end) = match self.r.fill_buf() {
                Ok(buf) => decode_run(buf, &mut out[n..], self.next_seq),
                Err(_) => (0, 0, RunEnd::ByteWise),
            };
            self.r.consume(used);
            self.next_seq += got as u64;
            n += got;
            match end {
                RunEnd::Full => {}
                // The scalar pull stores any error it meets.
                RunEnd::ByteWise => {
                    if let Ok(Some(rec)) = self.next_record() {
                        out[n] = rec;
                        n += 1;
                    }
                }
                RunEnd::Bad(e) => self.error = Some(e),
            }
        }
        match &self.error {
            Some(e) if n == 0 => Err(e.clone()),
            _ => Ok(n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::trace::trace_program;

    fn mixed_trace() -> crate::Trace {
        let mut b = ProgramBuilder::new();
        let (ctr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(ctr, 20);
        b.load_imm(v, -7);
        let top = b.label("top");
        b.store(DataSize::Half, v, Reg::ZERO, 0x104);
        b.load(DataSize::Byte, t, Reg::ZERO, 0x105);
        b.fmul(v, v, v);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        trace_program(&b.build().unwrap(), 10_000).unwrap()
    }

    fn encode(trace: &crate::Trace) -> Vec<u8> {
        let mut buf = Vec::new();
        record_trace(&mut trace.stream(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn round_trip_preserves_every_record() {
        let trace = mixed_trace();
        let buf = encode(&trace);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut got = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            got.push(r);
        }
        assert_eq!(got, trace.records());
        assert_eq!(reader.next_record().unwrap(), None, "stays exhausted");
    }

    #[test]
    fn encoding_is_compact() {
        let trace = mixed_trace();
        let buf = encode(&trace);
        assert!(
            buf.len() < trace.len() * 16,
            "{} bytes for {} records",
            buf.len(),
            trace.len()
        );
    }

    #[test]
    fn truncated_file_is_reported() {
        let trace = mixed_trace();
        let buf = encode(&trace);
        // Chop mid-stream: the reader must fail with a format error, not
        // silently yield a short trace.
        let mut reader = TraceReader::new(&buf[..buf.len() / 2]).unwrap();
        let err = loop {
            match reader.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncated file read to a clean end"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, IsaError::TraceFormat { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let err = TraceReader::new(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, IsaError::TraceFormat { .. }), "{err}");

        let mut buf = encode(&mixed_trace());
        buf[4] = 99; // version
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn wrong_terminator_count_is_corrupt() {
        let trace = mixed_trace();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        w.write_record(&trace.records()[0]).unwrap();
        w.count = 2; // lie
        w.finish().unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        let err = reader.next_record().unwrap_err();
        assert!(err.to_string().contains("terminator"), "{err}");
    }

    /// What a pull loop saw: the records, then the error it stopped on
    /// (`None` for a clean end).
    type Outcome = (Vec<TraceRecord>, Option<String>);

    /// The byte-wise reference: scalar pulls until the end or an error.
    fn scalar_outcome(bytes: &[u8]) -> Option<Outcome> {
        let mut reader = TraceReader::new(bytes).ok()?;
        let mut got = Vec::new();
        loop {
            match reader.next_record() {
                Ok(Some(r)) => got.push(r),
                Ok(None) => return Some((got, None)),
                Err(e) => return Some((got, Some(e.to_string()))),
            }
        }
    }

    /// Block pulls of `block` records through a `BufReader` of `cap`
    /// bytes (`None`: the default capacity) until the end or an error.
    fn block_outcome(bytes: &[u8], cap: Option<usize>, block: usize) -> Option<Outcome> {
        let buffered = match cap {
            Some(cap) => std::io::BufReader::with_capacity(cap, bytes),
            None => std::io::BufReader::new(bytes),
        };
        let mut reader = TraceReader::new(buffered).ok()?;
        let mut out = vec![TraceRecord::default(); block];
        let mut got = Vec::new();
        loop {
            match reader.next_block(&mut out) {
                Ok(0) => return Some((got, None)),
                Ok(n) => got.extend_from_slice(&out[..n]),
                Err(e) => return Some((got, Some(e.to_string()))),
            }
        }
    }

    /// Byte offset of each record in an encoded trace.
    fn record_offsets(trace: &crate::Trace) -> Vec<usize> {
        byte_wise_encode(trace.records()).1
    }

    #[test]
    fn errors_are_sticky_on_scalar_and_block_pulls() {
        let trace = mixed_trace();
        let mut buf = encode(&trace);
        buf[record_offsets(&trace)[3]] = 0x7e;
        let want = "unknown opcode byte 0x7e";

        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        for r in &trace.records()[..3] {
            assert_eq!(reader.next_record().unwrap().as_ref(), Some(r));
        }
        for _ in 0..3 {
            let err = reader.next_record().unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
        let mut out = vec![TraceRecord::default(); 8];
        let err = reader.next_block(&mut out).unwrap_err();
        assert!(err.to_string().contains(want), "{err}");

        // A block pull returns the records before the error, then the
        // error on every later pull, scalar or block.
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.next_block(&mut out).unwrap(), 3);
        assert_eq!(&out[..3], &trace.records()[..3]);
        for _ in 0..2 {
            let err = reader.next_block(&mut out).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
            let err = reader.next_record().unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
    }

    #[test]
    fn slice_decoder_matches_the_byte_wise_decoder() {
        let trace = mixed_trace();
        let buf = encode(&trace);
        let want = scalar_outcome(&buf).unwrap();
        assert_eq!(want, (trace.records().to_vec(), None));
        let caps = (1..=64).map(Some).chain([None]);
        for cap in caps {
            for block in [1, 3, 64] {
                assert_eq!(
                    block_outcome(&buf, cap, block).as_ref(),
                    Some(&want),
                    "buffer {cap:?}, block {block}"
                );
            }
        }
    }

    #[test]
    fn slice_decoder_fails_like_the_byte_wise_decoder() {
        let buf = encode(&mixed_trace());
        let check = |bytes: &[u8], what: &str| {
            let want = scalar_outcome(bytes);
            for (cap, block) in [(None, 64), (Some(7), 3), (Some(16), 64), (Some(1), 1)] {
                let got = block_outcome(bytes, cap, block);
                assert_eq!(got, want, "{what}, buffer {cap:?}, block {block}");
            }
            // A plain slice buffers everything: one run to the error.
            let mut reader = match TraceReader::new(bytes) {
                Ok(r) => r,
                Err(_) => return assert!(want.is_none(), "{what}"),
            };
            let mut out = vec![TraceRecord::default(); buf.len()];
            let (records, err) = want.unwrap();
            match reader.next_block(&mut out) {
                Ok(n) => assert_eq!(&out[..n], &records[..], "{what}"),
                Err(e) => assert!(records.is_empty() && err == Some(e.to_string()), "{what}"),
            }
        };
        for cut in 0..buf.len() {
            check(&buf[..cut], &format!("cut at {cut}"));
        }
        for at in 0..buf.len() {
            for flip in [0xFF, 0x80, 0x01] {
                let mut bad = buf.clone();
                bad[at] ^= flip;
                check(&bad, &format!("byte {at} ^ {flip:#x}"));
            }
        }
    }

    // ---- the byte-wise reference encoder ----

    /// The original encoder, one `write_all` per field, kept as the
    /// reference the chunked encoder must match byte for byte.
    fn byte_wise_uv(w: &mut impl Write, mut v: u64) {
        let mut buf = [0u8; 10];
        let mut n = 0;
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            buf[n] = byte | if v == 0 { 0 } else { 0x80 };
            n += 1;
            if v == 0 {
                break;
            }
        }
        w.write_all(&buf[..n]).unwrap();
    }

    fn byte_wise_sv(w: &mut impl Write, v: i64) {
        byte_wise_uv(w, ((v << 1) ^ (v >> 63)) as u64);
    }

    fn byte_wise_record(w: &mut impl Write, rec: &TraceRecord) {
        let mut flags = 0u8;
        flags |= F_TAKEN * u8::from(rec.taken);
        flags |= F_DST * u8::from(rec.dst.is_some());
        flags |= F_SRC0 * u8::from(rec.srcs[0].is_some());
        flags |= F_SRC1 * u8::from(rec.srcs[1].is_some());
        flags |= F_ADDR * u8::from(rec.addr.is_some());
        w.write_all(&[op_code(rec.op), flags]).unwrap();
        for reg in [rec.dst, rec.srcs[0], rec.srcs[1]].into_iter().flatten() {
            w.write_all(&[reg.index() as u8]).unwrap();
        }
        byte_wise_uv(w, rec.pc.0);
        byte_wise_sv(w, rec.imm);
        if let Some(addr) = rec.addr {
            byte_wise_uv(w, addr.0);
        }
        byte_wise_uv(w, rec.result);
        byte_wise_sv(w, rec.next_pc.0.wrapping_sub(rec.pc.next().0) as i64);
    }

    /// The reference encoding of `records` as a whole file, and the byte
    /// offset of each record in it.
    fn byte_wise_encode(records: &[TraceRecord]) -> (Vec<u8>, Vec<usize>) {
        let mut out = Vec::new();
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&[0, 0]);
        let mut offsets = Vec::with_capacity(records.len());
        for rec in records {
            offsets.push(out.len());
            byte_wise_record(&mut out, rec);
        }
        out.push(END_MARKER);
        byte_wise_uv(&mut out, records.len() as u64);
        (out, offsets)
    }

    // ---- seeded inputs ----

    /// SplitMix64: a tiny seeded generator for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A value biased toward varint edges: 0, 127, 128, `u64::MAX` and
    /// its neighbours, and values of every length.
    fn edgy_u64(rng: &mut Rng) -> u64 {
        match rng.below(8) {
            0 => 0,
            1 => 127,
            2 => 128,
            3 => u64::MAX,
            4 => u64::MAX - rng.below(300),
            5 => rng.next(),
            _ => rng.next() >> rng.below(64),
        }
    }

    fn edgy_i64(rng: &mut Rng) -> i64 {
        match rng.below(6) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -(rng.below(200) as i64),
            _ => edgy_u64(rng) as i64,
        }
    }

    /// A record the reader accepts: opcode `code`, with the optional
    /// fields chosen by the `F_*` bits of `flags` (memory ops always
    /// carry an address), and `next_pc` falling through, jumping back,
    /// wrapping round the address space or anywhere.
    fn record(rng: &mut Rng, seq: u64, code: u8, flags: u8) -> TraceRecord {
        let op = op_from_code(code).unwrap();
        let mut reg = |bit: u8| (flags & bit != 0).then(|| Reg::new(1 + rng.below(63) as u8));
        let (dst, src0, src1) = (reg(F_DST), reg(F_SRC0), reg(F_SRC1));
        let pc = Pc::new(edgy_u64(rng));
        let next_pc = match rng.below(4) {
            0 => pc.next(),
            1 => Pc::new(pc.0.wrapping_sub(4 * rng.below(1000))),
            2 => Pc::new(rng.below(64)),
            _ => Pc::new(edgy_u64(rng)),
        };
        let has_addr = flags & F_ADDR != 0 || op.mem_size().is_some();
        TraceRecord {
            seq: Seq(seq),
            pc,
            op,
            dst,
            srcs: [src0, src1],
            imm: edgy_i64(rng),
            addr: has_addr.then(|| Addr::new(edgy_u64(rng))),
            size: op.mem_size().unwrap_or_default(),
            result: edgy_u64(rng),
            taken: flags & F_TAKEN != 0,
            next_pc,
        }
    }

    /// Every opcode (so every access size) with every flag combination,
    /// then `extra` random records.
    fn seeded_records(seed: u64, extra: usize) -> Vec<TraceRecord> {
        let mut rng = Rng(seed);
        let mut records = Vec::new();
        for code in 0..=30 {
            for flags in 0..32 {
                records.push(record(&mut rng, records.len() as u64, code, flags));
            }
        }
        for _ in 0..extra {
            let (code, flags) = (rng.below(31) as u8, rng.below(32) as u8);
            records.push(record(&mut rng, records.len() as u64, code, flags));
        }
        records
    }

    /// A source over a record slice, pulled through the default
    /// [`TraceSource::next_block`].
    struct Records<'a>(std::slice::Iter<'a, TraceRecord>);

    impl TraceSource for Records<'_> {
        fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
            Ok(self.0.next().copied())
        }
    }

    /// A `Write` that logs each call and accepts at most `budget` bytes
    /// in all, failing every call once they are used up.
    #[derive(Debug)]
    struct Sink {
        bytes: Vec<u8>,
        writes: Vec<usize>,
        budget: usize,
    }

    impl Sink {
        fn new(budget: usize) -> Sink {
            Sink {
                bytes: Vec::new(),
                writes: Vec::new(),
                budget,
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.len());
            let n = buf.len().min(self.budget - self.bytes.len());
            if n == 0 && !buf.is_empty() {
                return Err(std::io::Error::other("disk full"));
            }
            self.bytes.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The records of a whole file, pulled by scalar and by block decode,
    /// must be exactly `records`.
    fn assert_round_trips(bytes: &[u8], records: &[TraceRecord]) {
        let want = (records.to_vec(), None);
        assert_eq!(scalar_outcome(bytes), Some(want.clone()), "scalar decode");
        for (cap, block) in [(None, 64), (Some(13), 5)] {
            let got = block_outcome(bytes, cap, block);
            assert_eq!(got.as_ref(), Some(&want), "buffer {cap:?}, block {block}");
        }
    }

    // ---- encoder tests ----

    #[test]
    fn chunked_encoder_matches_the_byte_wise_reference() {
        let records = seeded_records(0x5EED, 12_000);
        let (want, offsets) = byte_wise_encode(&records);

        // The stream crosses several chunk edges, and a record straddles
        // one (the header is written before the first chunk).
        let edges: Vec<usize> = (1..)
            .map(|k| 8 + k * CHUNK_BYTES)
            .take_while(|&e| e < want.len())
            .collect();
        assert!(edges.len() >= 3, "{} bytes", want.len());
        let straddles = offsets
            .windows(2)
            .filter(|w| edges.iter().any(|&e| w[0] < e && e < w[1]))
            .count();
        assert!(straddles > 0, "no record straddles a chunk edge");

        let mut scalar = TraceWriter::new(Sink::new(usize::MAX)).unwrap();
        for rec in &records {
            scalar.write_record(rec).unwrap();
        }
        assert_eq!(scalar.count(), records.len() as u64);
        let scalar = scalar.finish().unwrap();
        assert_eq!(scalar.bytes, want, "write_record");
        // One write for the header, one per full chunk, one at finish.
        assert_eq!(scalar.writes[0], 8);
        assert!(scalar.writes[1..=edges.len()]
            .iter()
            .all(|&n| n == CHUNK_BYTES));
        assert_eq!(scalar.writes.len(), edges.len() + 2);

        let mut rng = Rng(7);
        let mut blocks = TraceWriter::new(Vec::new()).unwrap();
        let mut rest = records.as_slice();
        while !rest.is_empty() {
            let (block, tail) = rest.split_at((rng.below(100) as usize).min(rest.len()));
            blocks.write_block(block).unwrap();
            rest = tail;
        }
        assert_eq!(blocks.finish().unwrap(), want, "write_block");

        let mut recorded = Vec::new();
        let n = record_trace(&mut Records(records.iter()), &mut recorded);
        assert_eq!(n.unwrap(), records.len() as u64);
        assert_eq!(recorded, want, "record_trace");

        assert_round_trips(&want, &records);
    }

    #[test]
    fn pc_fall_through_wraps_at_the_top_of_the_address_space() {
        let mut rng = Rng(0xFA11);
        let records: Vec<TraceRecord> = (u64::MAX - 8..=u64::MAX)
            .enumerate()
            .map(|(i, pc)| TraceRecord {
                pc: Pc::new(pc),
                ..record(&mut rng, i as u64, 0, 0)
            })
            .collect();
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_block(&records).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, byte_wise_encode(&records).0);
        assert_round_trips(&bytes, &records);
    }

    /// `bad` is refused with a format error, buffers nothing and leaves
    /// the writer usable: the file is exactly the records around it.
    fn assert_refused(bad: TraceRecord, want: &str) {
        let good = mixed_trace().records()[..4].to_vec();
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        w.write_block(&good[..2]).unwrap();
        let err = w.write_record(&bad).unwrap_err();
        assert!(matches!(err, IsaError::TraceFormat { .. }), "{err}");
        assert!(
            err.to_string().contains(&format!("record 2: {want}")),
            "{err}"
        );
        // In a block, the records before the refused one are kept.
        let err = w.write_block(&[good[2], bad, good[3]]).unwrap_err();
        assert!(
            err.to_string().contains(&format!("record 3: {want}")),
            "{err}"
        );
        assert_eq!(w.count(), 3);
        w.write_record(&good[3]).unwrap();
        assert_eq!(w.finish().unwrap(), byte_wise_encode(&good).0);
    }

    #[test]
    fn writer_refuses_a_memory_op_without_an_address() {
        let mut bad = mixed_trace().records()[2];
        assert_eq!(bad.op, Op::Store(DataSize::Half));
        bad.addr = None;
        assert_refused(bad, "memory op `st2B` without an address");
    }

    #[test]
    fn writer_refuses_a_zero_register_index() {
        let rec = mixed_trace().records()[0];
        let bad_dst = TraceRecord {
            dst: Some(Reg::ZERO),
            ..rec
        };
        assert_refused(bad_dst, "invalid register index 0");
        let bad_src = TraceRecord {
            srcs: [Some(Reg::new(5)), Some(Reg::ZERO)],
            ..rec
        };
        assert_refused(bad_src, "invalid register index 0");
    }

    #[test]
    fn write_errors_are_sticky_and_nothing_is_written_twice() {
        let records = seeded_records(0xD15C, 6_000);
        let (want, offsets) = byte_wise_encode(&records);
        // Where each record ends: the next one starts, or the terminator.
        let mut count = Vec::new();
        byte_wise_uv(&mut count, records.len() as u64);
        let mut ends = offsets[1..].to_vec();
        ends.push(want.len() - 1 - count.len());
        let chunks = (want.len() - 8) / CHUNK_BYTES;
        let budgets = [
            9,
            100,
            8 + CHUNK_BYTES - 1,
            8 + CHUNK_BYTES,
            8 + CHUNK_BYTES + 1,
            8 + 2 * CHUNK_BYTES + 77,
            8 + chunks * CHUNK_BYTES,
            want.len() - 1,
        ];
        for budget in budgets {
            for block in [1, 64] {
                let mut w = TraceWriter::new(Sink::new(budget)).unwrap();
                // The call that writes the chunk holding byte `budget`
                // fails; every call before it succeeds.
                let failing_chunk = (budget - 8) / CHUNK_BYTES;
                let mut failed = None;
                for (i, part) in records.chunks(block).enumerate() {
                    match w.write_block(part) {
                        Ok(()) => assert!(failed.is_none(), "budget {budget}: call {i} recovered"),
                        Err(e) => {
                            assert!(matches!(e, IsaError::TraceIo { .. }), "{e}");
                            if let Some((_, first)) = &failed {
                                assert_eq!(&e, first, "budget {budget}: not sticky");
                            } else {
                                // The first record to reach the chunk's end.
                                let edge = 8 + (failing_chunk + 1) * CHUNK_BYTES;
                                let rec = ends.iter().position(|&end| end >= edge).unwrap();
                                assert_eq!(i, rec / block, "budget {budget}, block {block}");
                                failed = Some((w.w.writes.len(), e));
                            }
                        }
                    }
                }
                // Whatever reached the sink is a prefix of the file.
                assert_eq!(w.w.bytes, want[..w.w.bytes.len()], "budget {budget}");
                let err = match failed {
                    Some((calls, first)) => {
                        assert_eq!(w.w.writes.len(), calls, "budget {budget}: wrote again");
                        assert_eq!(w.write_record(&records[0]).unwrap_err(), first);
                        assert_eq!(w.w.writes.len(), calls, "budget {budget}: wrote again");
                        let err = w.finish().unwrap_err();
                        assert_eq!(err, first, "budget {budget}: finish");
                        err
                    }
                    // Every full chunk fit: finish writes the tail.
                    None => {
                        assert!(budget >= 8 + chunks * CHUNK_BYTES);
                        w.finish().unwrap_err()
                    }
                };
                assert!(matches!(err, IsaError::TraceIo { .. }), "{err}");
            }
        }
        // The header write fails in `new`.
        let err = TraceWriter::new(Sink::new(5)).unwrap_err();
        assert!(matches!(err, IsaError::TraceIo { .. }), "{err}");
        // With room to spare, the sink holds exactly the reference bytes:
        // nothing was written twice.
        let mut w = TraceWriter::new(Sink::new(want.len())).unwrap();
        w.write_block(&records).unwrap();
        assert_eq!(w.finish().unwrap().bytes, want);
    }

    #[test]
    fn an_unfinished_writer_leaves_only_full_chunks() {
        let records = seeded_records(0xAB, 4_000);
        let (want, _) = byte_wise_encode(&records);
        let mut sink = Sink::new(usize::MAX);
        let mut w = TraceWriter::new(&mut sink).unwrap();
        w.write_block(&records).unwrap();
        drop(w);
        let chunks = (want.len() - 8) / CHUNK_BYTES;
        assert!(chunks >= 1);
        assert_eq!(sink.bytes, want[..8 + chunks * CHUNK_BYTES]);
        let (_, err) = scalar_outcome(&sink.bytes).unwrap();
        assert!(err.unwrap().contains("truncated"));
    }

    // ---- hostile bytes ----

    /// The byte ranges of record `at`'s varint fields (pc, imm, [addr],
    /// result, next_pc delta).
    fn varint_fields(bytes: &[u8], at: usize) -> Vec<std::ops::Range<usize>> {
        let flags = bytes[at + 1];
        let regs = (flags & (F_DST | F_SRC0 | F_SRC1)).count_ones() as usize;
        let fields = if flags & F_ADDR != 0 { 5 } else { 4 };
        let mut pos = at + 2 + regs;
        (0..fields)
            .map(|_| {
                let start = pos;
                while bytes[pos] & 0x80 != 0 {
                    pos += 1;
                }
                pos += 1;
                start..pos
            })
            .collect()
    }

    /// Every scalar and block pull over `bytes` returns a record, the end
    /// or a typed error — never a panic — and the block paths agree with
    /// the scalar one.
    fn assert_pulls_are_typed(bytes: &[u8], what: &str) {
        let typed =
            |e: &IsaError| matches!(e, IsaError::TraceFormat { .. } | IsaError::TraceIo { .. });
        let scalar = std::panic::catch_unwind(|| {
            let mut reader = match TraceReader::new(bytes) {
                Ok(r) => r,
                Err(e) => return (None, Some(e)),
            };
            let mut got = Vec::new();
            loop {
                match reader.next_record() {
                    Ok(Some(r)) => got.push(r),
                    Ok(None) => return (Some(got), None),
                    Err(e) => return (Some(got), Some(e)),
                }
            }
        });
        let (records, err) = scalar.unwrap_or_else(|_| panic!("{what}: scalar pull panicked"));
        assert!(err.as_ref().is_none_or(typed), "{what}: {err:?}");
        let want = records.map(|r| (r, err.map(|e| e.to_string())));
        for (cap, block) in [(None, 64), (Some(7), 3), (Some(1), 1)] {
            let got = std::panic::catch_unwind(|| block_outcome(bytes, cap, block))
                .unwrap_or_else(|_| panic!("{what}: block pull panicked"));
            assert_eq!(got, want, "{what}, buffer {cap:?}, block {block}");
        }
    }

    #[test]
    fn hostile_sqtr_bytes_get_a_typed_error_never_a_panic() {
        let trace = mixed_trace();
        let (base, offsets) = byte_wise_encode(trace.records());
        let inflated: [&[u8]; 4] = [
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01], // u64::MAX
            &[0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01], // u64::MAX - 1
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02], // overflows
            &[0xFF; 11],                                                   // too long
        ];
        let mut rng = Rng(0xBAD5);
        for case in 0..3_000 {
            let mut bytes = base.clone();
            let kind = case % 4;
            match kind {
                // Bit flips.
                0 => {
                    for _ in 0..=rng.below(3) {
                        let at = 8 + rng.below(bytes.len() as u64 - 8) as usize;
                        bytes[at] ^= 1 << rng.below(8);
                    }
                }
                // A truncation.
                1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
                // An inflated varint field of some record.
                2 => {
                    let at = offsets[rng.below(offsets.len() as u64) as usize];
                    let fields = varint_fields(&bytes, at);
                    let field = fields[rng.below(fields.len() as u64) as usize].clone();
                    let with = inflated[rng.below(inflated.len() as u64) as usize];
                    bytes.splice(field, with.iter().copied());
                }
                // A splice: a run of the file copied over another place.
                _ => {
                    let from = rng.below(bytes.len() as u64) as usize;
                    let len = rng.below(40) as usize;
                    let run = bytes[from..(from + len).min(bytes.len())].to_vec();
                    let to = 8 + rng.below(bytes.len() as u64 - 8) as usize;
                    let end = (to + rng.below(40) as usize).min(bytes.len());
                    bytes.splice(to..end, run);
                }
            }
            assert_pulls_are_typed(&bytes, &format!("case {case} (kind {kind})"));
        }
        // Each pc varint in turn set to the top of the address space.
        for (i, &at) in offsets.iter().enumerate() {
            for with in &inflated[..2] {
                let mut bytes = base.clone();
                bytes.splice(varint_fields(&base, at)[0].clone(), with.iter().copied());
                assert_pulls_are_typed(&bytes, &format!("record {i}: pc inflated"));
            }
        }
    }

    // ---- the frozen format ----

    /// A fixed program over every opcode, every access size and every
    /// kind of control transfer, taken and not.
    fn golden_trace() -> crate::Trace {
        let mut b = ProgramBuilder::new();
        let (i, a, c, t) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
        let link = Reg::new(31);
        b.load_imm(i, 9).load_imm(a, -0x1234_5678);
        let top = b.label("top");
        b.add(c, a, i).sub(t, c, i).mul(c, c, t).and(t, t, a);
        b.or(c, c, t).xor(t, t, i).shl(c, c, i).shr(t, t, i);
        b.cmp_lt(c, t, c).emit(crate::StaticInst {
            op: Op::CmpEq,
            dst: Some(t),
            src1: Some(c),
            src2: Some(i),
            imm: 0,
        });
        b.add_imm(a, a, 0x55).mul_imm(t, t, -3);
        b.fadd(c, c, t).fmul(t, t, c).fdiv(c, c, t);
        for (k, size) in SIZES.into_iter().enumerate() {
            let disp = 0x1000 + 8 * k as i64;
            b.store(size, a, i, disp).load(size, t, i, disp);
        }
        b.call_to(link, "leaf");
        b.add_imm(i, i, -1);
        b.branch_z_to(i, "done");
        b.branch_nz(i, top);
        b.place("leaf");
        b.nop().ret(link);
        b.place("done");
        b.halt();
        trace_program(&b.build().unwrap(), 10_000).unwrap()
    }

    const GOLDEN_LEN: usize = 3412;
    const GOLDEN_FNV: &str = "3cc579c45d121a23";

    /// The SQTR format is frozen: these bytes must never change, whatever
    /// the encoder's internals. A deliberate format change bumps
    /// [`TRACE_VERSION`] and re-pins the hash.
    #[test]
    fn sqtr_golden_bytes_are_frozen() {
        let trace = golden_trace();
        let bytes = encode(&trace);
        let mut fnv = sqip_snapshot::Fnv::new();
        fnv.update(&bytes);
        assert_eq!((bytes.len(), fnv.hex().as_str()), (GOLDEN_LEN, GOLDEN_FNV));
        assert_eq!(bytes, byte_wise_encode(trace.records()).0);
    }
}
