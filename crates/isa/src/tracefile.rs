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
//! zig-zag delta from the fall-through PC — so straight-line code costs a
//! single byte for its control-flow fields. The terminator carries the
//! record count, letting the reader distinguish a complete file from a
//! truncated one.
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
//! for r in trace.records() {
//!     w.write_record(r)?;
//! }
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

fn write_uv(w: &mut impl Write, mut v: u64) -> Result<(), IsaError> {
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
    w.write_all(&buf[..n])
        .map_err(|e| io_err("writing record", &e))
}

fn write_sv(w: &mut impl Write, v: i64) -> Result<(), IsaError> {
    // Zig-zag: small magnitudes of either sign stay short.
    write_uv(w, ((v << 1) ^ (v >> 63)) as u64)
}

fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---- writer ----

/// Streams [`TraceRecord`]s into the compact binary format.
///
/// Call [`TraceWriter::finish`] when done — it writes the terminator the
/// reader uses to tell a complete file from a truncated one.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    count: u64,
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
        Ok(TraceWriter { w, count: 0 })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`IsaError::TraceIo`] on write failure.
    pub fn write_record(&mut self, rec: &TraceRecord) -> Result<(), IsaError> {
        let mut flags = 0u8;
        flags |= F_TAKEN * u8::from(rec.taken);
        flags |= F_DST * u8::from(rec.dst.is_some());
        flags |= F_SRC0 * u8::from(rec.srcs[0].is_some());
        flags |= F_SRC1 * u8::from(rec.srcs[1].is_some());
        flags |= F_ADDR * u8::from(rec.addr.is_some());
        self.w
            .write_all(&[op_code(rec.op), flags])
            .map_err(|e| io_err("writing record", &e))?;
        for reg in [rec.dst, rec.srcs[0], rec.srcs[1]].into_iter().flatten() {
            self.w
                .write_all(&[reg.index() as u8])
                .map_err(|e| io_err("writing record", &e))?;
        }
        write_uv(&mut self.w, rec.pc.0)?;
        write_sv(&mut self.w, rec.imm)?;
        if let Some(addr) = rec.addr {
            write_uv(&mut self.w, addr.0)?;
        }
        write_uv(&mut self.w, rec.result)?;
        write_sv(
            &mut self.w,
            rec.next_pc.0.wrapping_sub(rec.pc.next().0) as i64,
        )?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Writes the terminator (with the record count) and returns the
    /// underlying writer.
    ///
    /// # Errors
    ///
    /// [`IsaError::TraceIo`] on write or flush failure.
    pub fn finish(mut self) -> Result<W, IsaError> {
        self.w
            .write_all(&[END_MARKER])
            .map_err(|e| io_err("writing terminator", &e))?;
        write_uv(&mut self.w, self.count)?;
        self.w.flush().map_err(|e| io_err("flushing trace", &e))?;
        Ok(self.w)
    }
}

/// Drains `source` into `w`, returning the number of records written.
///
/// This is the "record once" half of record/replay: pair it with
/// [`TraceReader`] to capture any source — a generator, an interpreter, a
/// filtered stream — as a portable artifact.
///
/// # Errors
///
/// Propagates source errors and [`IsaError::TraceIo`] write failures.
pub fn record_trace<S: TraceSource + ?Sized>(
    source: &mut S,
    w: impl Write,
) -> Result<u64, IsaError> {
    let mut writer = TraceWriter::new(w)?;
    while let Some(rec) = source.next_record()? {
        writer.write_record(&rec)?;
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
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        let mut offsets = Vec::new();
        for r in trace.records() {
            offsets.push(w.w.len());
            w.write_record(r).unwrap();
        }
        offsets
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
}
