//! Architectural (oracle) dependence analysis over a golden trace.
//!
//! [`OracleBuilder`] computes, for every dynamic load, the youngest older
//! store that wrote any of its bytes. The analysis is a *streaming* pass:
//! the byte map it maintains (per 64-B line, each byte's last writer,
//! with each writer stored once) is forward-only, so each record's
//! oracle info is complete the moment the record is ingested — the
//! pipeline computes it on the fly as records arrive from a
//! [`TraceSource`](crate::TraceSource), with no whole-trace
//! preprocessing. The `IdealOracle` configuration schedules loads with
//! this information (perfect, violation-free scheduling — the paper's
//! idealised baseline), and the statistics use it to report the
//! architectural load forwarding rate of Table 3's first column, which
//! [`Trace::oracle_forwarding_rate`](crate::Trace::oracle_forwarding_rate)
//! also measures over a materialized trace. This is the one
//! implementation of that dependence: both pipeline engines and the
//! trace statistics fold records through it.

use std::ops::Range;

use crate::TraceRecord;
use sqip_mem::{line_parts, LineStore, LINE_BYTES};
use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use sqip_types::Seq;

/// The architectural forwarding source of one dynamic load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleFwd {
    /// Sequence number of the producing store (youngest older store whose
    /// span overlaps the load's).
    pub store_seq: Seq,
    /// Whether the store's span fully covers the load (single-entry
    /// forwarding is possible); `false` means a partial overlap.
    pub covers: bool,
    /// Distance in dynamic stores: 0 means the immediately preceding
    /// store, `d` means `d` stores intervene between producer and load.
    pub store_dist: u64,
}

/// The incremental oracle: ingests records in fetch order and returns
/// each one's [`OracleFwd`] info immediately.
///
/// Memory use scales with the program's *address footprint*, not with run
/// length — so arbitrarily long streams analyse in bounded space. Memory
/// is shadowed one 64-B cache line at a time: each written line holds a
/// byte-to-writer map (one byte per byte of memory) and the line's live
/// writers, each `(store seq, store ordinal)` stored once however many
/// bytes it wrote. A writer no byte names any more is reclaimed as the
/// store that overwrites its last byte lands, so a line never lists more
/// than 64 writers. A line with one live writer holds it inline; only a
/// line shared by several writers has a heap list. So a line written by
/// one store costs 88 B, where a 16-B entry per byte cost 1 KiB.
///
/// # Example
///
/// ```
/// use sqip_isa::{OracleBuilder, ProgramBuilder, ProgramSource, Reg, TraceSource};
/// use sqip_types::DataSize;
///
/// let mut b = ProgramBuilder::new();
/// b.load_imm(Reg::new(1), 7);
/// b.store(DataSize::Quad, Reg::new(1), Reg::ZERO, 0x100);
/// b.load(DataSize::Quad, Reg::new(2), Reg::ZERO, 0x100);
/// b.halt();
///
/// let mut source = ProgramSource::new(b.build()?, 100);
/// let mut oracle = OracleBuilder::new();
/// let mut fwd = None;
/// while let Some(rec) = source.next_record()? {
///     fwd = oracle.ingest(&rec).or(fwd);
/// }
/// let fwd = fwd.expect("the load forwards");
/// assert!(fwd.covers);
/// assert_eq!(fwd.store_dist, 0);
/// # Ok::<(), sqip_isa::IsaError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OracleBuilder {
    /// The written lines of memory, in a [`LineStore`], so a memory
    /// access resolves its line directly (its frame usually via the
    /// store's one-entry cache); a span that crosses a line resolves
    /// both. The per-byte `HashMap` formulation this replaces hashed
    /// every byte of every store and load — a measurable share of the
    /// whole simulator's runtime.
    lines: LineStore<OracleLine>,
    store_count: u64,
}

/// One 64-B line of the oracle's byte map.
///
/// Invariant: every writer is named by at least one byte, so `writers`
/// never holds more than [`LINE_BYTES`] entries and a slot number always
/// fits the byte map's `u8`.
#[derive(Debug, Clone)]
struct OracleLine {
    /// Per byte, the 1-based slot in `writers` of the store that last
    /// wrote it; 0 means never written.
    owner: [u8; LINE_BYTES],
    /// The line's live writers, in slot order.
    writers: Writers,
}

impl Default for OracleLine {
    fn default() -> OracleLine {
        OracleLine {
            owner: [0; LINE_BYTES],
            writers: Writers::default(),
        }
    }
}

/// A line's live writers, `(store seq, store ordinal)`: one inline, or
/// several in a heap list. A line written by one store — most lines —
/// allocates nothing.
#[derive(Debug, Clone)]
enum Writers {
    One((Seq, u64)),
    /// Never exactly one writer: an empty list is a line no store has
    /// written yet.
    Many(Vec<(Seq, u64)>),
}

impl Default for Writers {
    fn default() -> Writers {
        Writers::Many(Vec::new())
    }
}

impl Writers {
    fn as_slice(&self) -> &[(Seq, u64)] {
        match self {
            Writers::One(w) => std::slice::from_ref(w),
            Writers::Many(ws) => ws,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Seq, u64)] {
        match self {
            Writers::One(w) => std::slice::from_mut(w),
            Writers::Many(ws) => ws,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn push(&mut self, writer: (Seq, u64)) {
        match self {
            Writers::Many(ws) if !ws.is_empty() => ws.push(writer),
            Writers::Many(_) => *self = Writers::One(writer),
            Writers::One(first) => *self = Writers::Many(vec![*first, writer]),
        }
    }

    /// Removes slot `i` (0-based), moving the last writer into it. Only
    /// a line of several writers loses one (to a store that then takes
    /// another slot), so a list left with one writer goes back inline.
    fn swap_remove(&mut self, i: usize) {
        let Writers::Many(ws) = self else {
            unreachable!("a lone writer is overwritten in place, never removed")
        };
        ws.swap_remove(i);
        if let [only] = ws[..] {
            *self = Writers::One(only);
        }
    }
}

impl OracleLine {
    /// Records `writer` as the last writer of `bytes`, reclaiming every
    /// writer whose last byte it overwrites: the first freed slot is
    /// reused, the others are filled from the end of the list.
    fn store(&mut self, bytes: Range<usize>, writer: (Seq, u64)) {
        let mut old = [0u8; 8];
        let n = bytes.len();
        old[..n].copy_from_slice(&self.owner[bytes.clone()]);
        self.owner[bytes.clone()].fill(0);
        let mut dead = [0u8; 8];
        let mut n_dead = 0;
        for &slot in &old[..n] {
            if slot != 0 && !dead[..n_dead].contains(&slot) && !self.owner.contains(&slot) {
                dead[n_dead] = slot;
                n_dead += 1;
            }
        }
        let slot = if n_dead == 0 {
            self.writers.push(writer);
            self.writers.len() as u8
        } else {
            let dead = &mut dead[..n_dead];
            dead.sort_unstable();
            // Removing the highest slots first keeps the moved tail entry
            // live: every dead slot above it is already gone.
            for &slot in dead[1..].iter().rev() {
                let last = self.writers.len() as u8;
                self.writers.swap_remove(usize::from(slot) - 1);
                if slot != last {
                    for o in &mut self.owner {
                        if *o == last {
                            *o = slot;
                        }
                    }
                }
            }
            self.writers.as_mut_slice()[usize::from(dead[0]) - 1] = writer;
            dead[0]
        };
        self.owner[bytes].fill(slot);
    }

    /// How this line breaks its invariant, if it does. (A list of more
    /// than 64 writers always has one that owns no byte.)
    fn invariant_error(&self) -> Option<String> {
        let n = self.writers.len();
        if n == 0 {
            return Some("oracle line lists no writer".into());
        }
        if let Some(&slot) = self.owner.iter().find(|&&slot| usize::from(slot) > n) {
            return Some(format!("oracle line byte names writer {slot} of {n}"));
        }
        (1..=n.min(LINE_BYTES + 1) as u8)
            .find(|slot| !self.owner.contains(slot))
            .map(|slot| format!("oracle line writer {slot} owns no byte"))
    }

    /// The last writer of byte `i`, if any store wrote it.
    #[inline]
    fn writer(&self, i: usize) -> Option<(Seq, u64)> {
        match self.owner[i] {
            0 => None,
            slot => Some(self.writers.as_slice()[usize::from(slot) - 1]),
        }
    }
}

impl OracleBuilder {
    /// A fresh oracle with an empty byte map.
    #[must_use]
    pub fn new() -> OracleBuilder {
        OracleBuilder {
            lines: LineStore::new(),
            store_count: 0,
        }
    }

    /// Ingests the next record of the stream (records must arrive in
    /// fetch order) and returns the oracle forwarding info for it —
    /// `Some` only for loads whose bytes a previously ingested store
    /// wrote.
    pub fn ingest(&mut self, r: &TraceRecord) -> Option<OracleFwd> {
        if r.is_store() {
            self.store_count += 1;
            let writer = (r.seq, self.store_count);
            for (line, bytes) in line_parts(r.mem_addr().0, usize::from(r.size.bytes())) {
                self.lines.line_mut_or_alloc(line).store(bytes, writer);
            }
            None
        } else if r.is_load() {
            // One pass: the youngest writer over the load's bytes, plus
            // whether that writer covers every byte.
            let mut newest: Option<(Seq, u64)> = None;
            let mut writers_agree = true;
            for (line, bytes) in line_parts(r.mem_addr().0, usize::from(r.size.bytes())) {
                let Some(line) = self.lines.line(line) else {
                    writers_agree = false;
                    continue;
                };
                for i in bytes {
                    match (line.writer(i), newest) {
                        (None, _) => writers_agree = false,
                        (Some(w), None) => newest = Some(w),
                        (Some((s, ord)), Some((ns, nord))) => {
                            if s != ns {
                                writers_agree = false;
                            }
                            if ord > nord {
                                newest = Some((s, ord));
                            }
                        }
                    }
                }
            }
            newest.map(|(store_seq, ord)| OracleFwd {
                store_seq,
                // Covered iff the youngest overlapping store wrote every
                // byte of the load.
                covers: writers_agree,
                store_dist: self.store_count - ord,
            })
        } else {
            None
        }
    }

    /// Dynamic stores ingested so far.
    #[must_use]
    pub fn stores_seen(&self) -> u64 {
        self.store_count
    }
}

impl Default for OracleBuilder {
    fn default() -> OracleBuilder {
        OracleBuilder::new()
    }
}

sqip_snapshot::snapshot_struct!(OracleFwd {
    store_seq,
    covers,
    store_dist,
});
sqip_snapshot::snapshot_struct!(OracleBuilder { lines, store_count });

impl Snapshot for OracleLine {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // As laid out: the 64 owner bytes, then the writer list in slot
        // order.
        w.put_bytes(&self.owner);
        w.put_u64(self.writers.len() as u64);
        for writer in self.writers.as_slice() {
            writer.save(w)?;
        }
        Ok(())
    }
    fn load(r: &mut SnapReader) -> Result<OracleLine, SnapError> {
        let mut owner = [0u8; LINE_BYTES];
        owner.copy_from_slice(r.take_bytes(LINE_BYTES)?);
        let n = usize::load(r)?;
        if n > LINE_BYTES {
            return Err(SnapError::Corrupt(format!(
                "oracle line lists {n} writers (at most {LINE_BYTES})"
            )));
        }
        let mut writers = Writers::default();
        for _ in 0..n {
            writers.push(<(Seq, u64)>::load(r)?);
        }
        let line = OracleLine { owner, writers };
        match line.invariant_error() {
            None => Ok(line),
            Some(detail) => Err(SnapError::Corrupt(detail)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_program, ProgramBuilder, Reg, Trace};
    use sqip_types::DataSize;

    /// Each record's oracle info, in trace order.
    fn analyze(trace: &Trace) -> Vec<Option<OracleFwd>> {
        let mut oracle = OracleBuilder::new();
        trace.records().iter().map(|r| oracle.ingest(r)).collect()
    }

    #[test]
    fn finds_adjacent_producer() {
        let mut b = ProgramBuilder::new();
        let (v, t) = (Reg::new(1), Reg::new(2));
        b.load_imm(v, 7);
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100); // seq 1
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100); // seq 2
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        let oracle = analyze(&trace);
        let f = oracle[2].unwrap();
        assert_eq!(f.store_seq, Seq(1));
        assert!(f.covers);
        assert_eq!(f.store_dist, 0);
        assert_eq!(oracle[0], None, "non-loads have no info");
    }

    #[test]
    fn distance_counts_intervening_stores() {
        let mut b = ProgramBuilder::new();
        let (v, t) = (Reg::new(1), Reg::new(2));
        b.load_imm(v, 7);
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100); // producer
        b.store(DataSize::Quad, v, Reg::ZERO, 0x200);
        b.store(DataSize::Quad, v, Reg::ZERO, 0x300);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100); // seq 4
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        let oracle = analyze(&trace);
        let f = oracle[4].unwrap();
        assert_eq!(f.store_dist, 2, "two stores intervene");
        assert_eq!(f.store_seq, Seq(1));
    }

    #[test]
    fn partial_coverage_detected() {
        let mut b = ProgramBuilder::new();
        let (v, t) = (Reg::new(1), Reg::new(2));
        b.load_imm(v, 7);
        b.store(DataSize::Word, v, Reg::ZERO, 0x100); // writes [0x100,0x104)
        b.store(DataSize::Word, v, Reg::ZERO, 0x104); // writes [0x104,0x108)
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100); // needs both
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        let oracle = analyze(&trace);
        let f = oracle[3].unwrap();
        assert_eq!(f.store_seq, Seq(2), "youngest overlapping store");
        assert!(!f.covers, "no single store covers the quad load");
    }

    #[test]
    fn untouched_address_has_no_producer() {
        let mut b = ProgramBuilder::new();
        b.load(DataSize::Quad, Reg::new(1), Reg::ZERO, 0x500);
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        let oracle = analyze(&trace);
        assert_eq!(oracle[0], None);
        assert_eq!(trace.oracle_forwarding_rate(64), 0.0);
    }

    #[test]
    fn forwarding_rate_respects_window() {
        let mut b = ProgramBuilder::new();
        let (v, t) = (Reg::new(1), Reg::new(2));
        b.load_imm(v, 7);
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        for i in 0..4 {
            b.store(DataSize::Quad, v, Reg::ZERO, 0x200 + 8 * i);
        }
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100); // dist 4
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        assert_eq!(trace.oracle_forwarding_rate(64), 1.0);
        assert_eq!(trace.oracle_forwarding_rate(4), 0.0, "window too small");
    }

    /// A memory record at `addr` (`store` or load), built directly so
    /// the stream can hit any address and alignment.
    fn mem_record(seq: u64, store: bool, addr: u64, size: DataSize) -> TraceRecord {
        TraceRecord {
            seq: Seq(seq),
            op: if store {
                crate::Op::Store(size)
            } else {
                crate::Op::Load(size)
            },
            addr: Some(sqip_types::Addr::new(addr)),
            size,
            ..TraceRecord::default()
        }
    }

    /// The oracle's definition, one byte at a time over a plain map:
    /// the producer is the youngest store that wrote any of the load's
    /// bytes, and it covers the load iff it wrote all of them.
    #[derive(Default)]
    struct ByteMapOracle {
        last_writer: std::collections::BTreeMap<u64, (Seq, u64)>,
        stores: u64,
    }

    impl ByteMapOracle {
        fn ingest(&mut self, r: &TraceRecord) -> Option<OracleFwd> {
            let base = r.addr?.0;
            let bytes = base..base + u64::from(r.size.bytes());
            if r.is_store() {
                self.stores += 1;
                for b in bytes {
                    self.last_writer.insert(b, (r.seq, self.stores));
                }
                return None;
            }
            let writers: Vec<Option<(Seq, u64)>> =
                bytes.map(|b| self.last_writer.get(&b).copied()).collect();
            let (store_seq, ord) = writers.iter().flatten().copied().max_by_key(|w| w.1)?;
            Some(OracleFwd {
                store_seq,
                covers: writers.iter().all(|&w| w == Some((store_seq, ord))),
                store_dist: self.stores - ord,
            })
        }
    }

    /// SplitMix64: a seeded stream with no dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Checks every touched line's invariant.
    fn assert_lines_compact(oracle: &OracleBuilder, lines: impl IntoIterator<Item = u64>) {
        for line_no in lines {
            if let Some(line) = oracle.lines.line(line_no) {
                assert_eq!(line.invariant_error(), None, "line {line_no:#x}");
            }
        }
    }

    #[test]
    fn oracle_matches_a_per_byte_map_on_random_streams() {
        let (mut forwards, mut partial, mut straddles) = (0u32, 0u32, 0u32);
        for seed in 0..24u64 {
            let mut rng = seed;
            let mut oracle = OracleBuilder::new();
            let mut reference = ByteMapOracle::default();
            for seq in 0..2_000u64 {
                let r = splitmix(&mut rng);
                let size = DataSize::ALL[(r & 3) as usize];
                // Three adjacent 4 KiB pages and one far away; the offset
                // lands anywhere in the page, on an aligned quad, or within
                // 7 bytes of a line or page boundary, so spans straddle both.
                let page = [0x1000u64, 0x2000, 0x3000, 0x7fff_f000][((r >> 2) & 3) as usize];
                let off = match (r >> 4) & 3 {
                    0 => (r >> 8) % 4096,
                    1 => (((r >> 8) % 64) * 64 + 4096 - 7 + (r >> 20) % 14) % 4096,
                    2 => 4096 - 7 + (r >> 8) % 14,
                    _ => ((r >> 8) % 8) * 8,
                };
                let addr = page + off;
                let n = u64::from(size.bytes());
                if addr / 64 != (addr + n - 1) / 64 {
                    straddles += 1;
                }
                let rec = mem_record(seq, (r >> 40) % 5 < 2, addr, size);
                let got = oracle.ingest(&rec);
                let want = reference.ingest(&rec);
                assert_eq!(got, want, "seed {seed} seq {seq}: {rec:?}");
                forwards += u32::from(got.is_some());
                partial += u32::from(got.is_some_and(|f| !f.covers));
            }
            assert_eq!(oracle.stores_seen(), reference.stores);
        }
        assert!(
            forwards > 1_000,
            "the streams must exercise forwarding ({forwards})"
        );
        assert!(partial > 100, "and partial overlaps ({partial})");
        assert!(straddles > 1_000, "and line-straddling spans ({straddles})");

        // Reclamation mode: mixed-size traffic crowded onto three lines,
        // mostly stores, so writers keep losing their last bytes (often
        // several to one wide store) and their slots are reused or filled
        // from the tail of the list.
        let mut hot_partial = 0u32;
        for seed in 100..116u64 {
            let mut rng = seed;
            let mut oracle = OracleBuilder::new();
            let mut reference = ByteMapOracle::default();
            for seq in 0..3_000u64 {
                let r = splitmix(&mut rng);
                let size = DataSize::ALL[(r & 3) as usize];
                let rec = mem_record(seq, (r >> 40) % 5 < 3, 0x2000 + (r >> 8) % 184, size);
                let got = oracle.ingest(&rec);
                assert_eq!(
                    got,
                    reference.ingest(&rec),
                    "seed {seed} seq {seq}: {rec:?}"
                );
                hot_partial += u32::from(got.is_some_and(|f| !f.covers));
                assert_lines_compact(&oracle, [0x80, 0x81, 0x82, 0x83]);
            }
            assert!(reference.stores > 3 * 64 * 8, "far more stores than slots");
        }
        assert!(
            hot_partial > 1_000,
            "reclamation under partial overlaps ({hot_partial})"
        );
    }

    #[test]
    fn a_hot_line_keeps_at_most_64_writers() {
        // 10^5 byte and half-word stores into one line, read back by
        // every load size: the line's writer list stays bounded by its
        // bytes however long the run.
        let mut oracle = OracleBuilder::new();
        let mut reference = ByteMapOracle::default();
        let mut rng = 42u64;
        let mut most = 0;
        for seq in 0..100_000u64 {
            let r = splitmix(&mut rng);
            let store = seq % 8 != 7;
            let size = if store {
                [DataSize::Byte, DataSize::Half][(r & 1) as usize]
            } else {
                DataSize::ALL[(r & 3) as usize]
            };
            let rec = mem_record(seq, store, 0x4000 + (r >> 8) % 57, size);
            assert_eq!(oracle.ingest(&rec), reference.ingest(&rec), "seq {seq}");
            most = most.max(oracle.lines.line(0x100).unwrap().writers.len());
        }
        assert_eq!(oracle.lines.resident_lines(), 1);
        assert_lines_compact(&oracle, [0x100]);
        assert!(most <= LINE_BYTES, "{most} writers in one line");
        assert!(most > 32, "byte stores keep many writers live ({most})");
    }

    #[test]
    fn one_store_per_page_keeps_oracle_residency_to_one_line_each() {
        let mut oracle = OracleBuilder::new();
        for page in 0..256u64 {
            oracle.ingest(&mem_record(page, true, page * 4096 + 8, DataSize::Quad));
        }
        assert_eq!(oracle.lines.resident_lines(), 256);
        // Each line: its byte map and its lone writer inline, with no
        // heap list.
        for page in 0..256u64 {
            let line = oracle.lines.line(page * 64).expect("the store's line");
            assert!(matches!(line.writers, Writers::One(_)), "{line:?}");
        }
        assert!(
            std::mem::size_of::<OracleLine>() <= 88,
            "{} bytes per oracle line",
            std::mem::size_of::<OracleLine>()
        );
    }

    #[test]
    fn a_line_back_to_one_writer_holds_it_inline() {
        let mut oracle = OracleBuilder::new();
        oracle.ingest(&mem_record(0, true, 0x100, DataSize::Word));
        oracle.ingest(&mem_record(1, true, 0x104, DataSize::Word));
        let line = oracle.lines.line(4).unwrap();
        assert!(matches!(line.writers, Writers::Many(ref ws) if ws.len() == 2));
        // One quad store overwrites both writers' last bytes.
        oracle.ingest(&mem_record(2, true, 0x100, DataSize::Quad));
        let line = oracle.lines.line(4).unwrap();
        assert!(
            matches!(line.writers, Writers::One((Seq(2), 3))),
            "{line:?}"
        );
        let fwd = oracle.ingest(&mem_record(3, false, 0x102, DataSize::Half));
        assert_eq!(fwd.map(|f| (f.store_seq, f.covers)), Some((Seq(2), true)));
    }

    fn snapshot_bytes<S: Snapshot>(value: &S) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w).unwrap();
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn a_reclaimed_oracle_round_trips_byte_for_byte() {
        let mut oracle = OracleBuilder::new();
        let mut rng = 7u64;
        let stream: Vec<TraceRecord> = (0..20_000u64)
            .map(|seq| {
                let r = splitmix(&mut rng);
                let size = DataSize::ALL[(r & 3) as usize];
                mem_record(seq, !r.is_multiple_of(3), 0x9000 + (r >> 8) % 300, size)
            })
            .collect();
        let (head, tail) = stream.split_at(15_000);
        for rec in head {
            oracle.ingest(rec);
        }
        let bytes = snapshot_bytes(&oracle);
        let mut r = SnapReader::new(&mut bytes.as_slice()).unwrap();
        let mut back = OracleBuilder::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(snapshot_bytes(&back), bytes, "save -> load -> save");
        for rec in tail {
            assert_eq!(back.ingest(rec), oracle.ingest(rec), "{rec:?}");
        }
        assert_eq!(snapshot_bytes(&back), snapshot_bytes(&oracle));
    }

    /// Loads one oracle line from a hand-written payload.
    fn load_line(
        owner: &[u8; LINE_BYTES],
        writers: &[(Seq, u64)],
    ) -> Result<OracleLine, SnapError> {
        let mut w = SnapWriter::new();
        w.put_bytes(owner);
        writers.to_vec().save(&mut w).unwrap();
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        let mut r = SnapReader::new(&mut bytes.as_slice())?;
        OracleLine::load(&mut r)
    }

    #[test]
    fn a_corrupt_oracle_line_is_refused() {
        let mut owner = [0u8; LINE_BYTES];
        owner[..8].fill(1);
        owner[8..12].fill(2);
        let two = [(Seq(3), 1), (Seq(5), 2)];
        let line = load_line(&owner, &two).expect("a well-formed line loads");
        assert_eq!(line.writer(9), Some((Seq(5), 2)));

        let mut bad = owner;
        bad[20] = 3;
        let corrupt = |res: Result<OracleLine, SnapError>, what: &str| match res {
            Err(SnapError::Corrupt(detail)) => assert!(detail.contains(what), "{detail}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        };
        corrupt(load_line(&bad, &two), "names writer 3");
        corrupt(load_line(&owner, &[(Seq(1), 1); 65]), "65 writers");
        corrupt(
            load_line(&owner, &[two[0], two[1], (Seq(9), 3)]),
            "writer 3 owns no byte",
        );
        corrupt(load_line(&[0; LINE_BYTES], &[]), "lists no writer");
    }
}
