//! Architectural (oracle) dependence analysis over a golden trace.
//!
//! [`OracleBuilder`] computes, for every dynamic load, the youngest older
//! store that wrote any of its bytes. The analysis is a *streaming* pass:
//! the byte map it maintains is forward-only, so each record's oracle info
//! is complete the moment the record is ingested — the pipeline computes
//! it on the fly as records arrive from a
//! [`TraceSource`](sqip_isa::TraceSource), with no whole-trace
//! preprocessing. The `IdealOracle` configuration schedules loads with
//! this information (perfect, violation-free scheduling — the paper's
//! idealised baseline), and the statistics use it to report the
//! architectural load forwarding rate of Table 3's first column.
//! [`OracleInfo`] is the batch form over a materialized [`Trace`].

use sqip_isa::{Trace, TraceRecord};
use sqip_mem::PageTable;
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
/// length — so arbitrarily long streams analyse in bounded space. The byte
/// map costs 16 B per byte of memory and is allocated one 64-B cache line
/// at a time (a 1 KiB page), so a store pays for the line it writes, not
/// for the 4 KiB page around it: scattered stores would otherwise fill
/// 64 KiB of oracle state apiece.
///
/// # Example
///
/// ```
/// use sqip_core::OracleBuilder;
/// use sqip_isa::{ProgramBuilder, ProgramSource, Reg, TraceSource};
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
    /// Per-byte (store seq, store ordinal) last-writer entries, organised
    /// as a [`PageTable`] of one-line pages so a memory access resolves
    /// one page (usually via the table's one-entry cache) and then
    /// indexes; a span that crosses a line takes the per-byte path. The
    /// per-byte `HashMap` formulation this replaces hashed every byte of
    /// every store and load — a measurable share of the whole
    /// simulator's runtime. `ord == 0` means never written.
    last_writer: PageTable<(Seq, u64), ORACLE_PAGE_ENTRIES>,
    store_count: u64,
}

/// Byte-map entries per oracle page: one 64-B cache line of memory.
const ORACLE_PAGE_ENTRIES: usize = 64;
const ORACLE_PAGE_BYTES: u64 = ORACLE_PAGE_ENTRIES as u64;

impl OracleBuilder {
    /// A fresh oracle with an empty byte map.
    #[must_use]
    pub fn new() -> OracleBuilder {
        OracleBuilder {
            last_writer: PageTable::new((Seq(0), 0)),
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
            let span = r.mem_addr().span(r.size);
            let base = span.base().0;
            let n = u64::from(r.size.bytes());
            let (seq, ord) = (r.seq, self.store_count);
            if base / ORACLE_PAGE_BYTES == (base + n - 1) / ORACLE_PAGE_BYTES {
                let page = self.last_writer.page_mut_or_alloc(base / ORACLE_PAGE_BYTES);
                let off = (base % ORACLE_PAGE_BYTES) as usize;
                for e in &mut page[off..off + n as usize] {
                    *e = (seq, ord);
                }
            } else {
                for b in span.byte_addrs() {
                    let page = self.last_writer.page_mut_or_alloc(b.0 / ORACLE_PAGE_BYTES);
                    page[(b.0 % ORACLE_PAGE_BYTES) as usize] = (seq, ord);
                }
            }
            None
        } else if r.is_load() {
            let span = r.mem_addr().span(r.size);
            let base = span.base().0;
            let n = u64::from(r.size.bytes());
            // One pass: the youngest writer over the load's bytes, plus
            // whether that writer covers every byte. The common
            // non-straddling span resolves its page once.
            let mut newest: Option<(Seq, u64)> = None;
            let mut writers_agree = true;
            let mut scan = |entry: Option<(Seq, u64)>| match (entry, newest) {
                (None, _) => writers_agree = false,
                (Some(e), None) => newest = Some(e),
                (Some((s, ord)), Some((ns, nord))) => {
                    if s != ns {
                        writers_agree = false;
                    }
                    if ord > nord {
                        newest = Some((s, ord));
                    }
                }
            };
            if base / ORACLE_PAGE_BYTES == (base + n - 1) / ORACLE_PAGE_BYTES {
                match self.last_writer.page(base / ORACLE_PAGE_BYTES) {
                    None => writers_agree = false,
                    Some(page) => {
                        let off = (base % ORACLE_PAGE_BYTES) as usize;
                        for e in &page[off..off + n as usize] {
                            scan(Some(*e).filter(|&(_, ord)| ord != 0));
                        }
                    }
                }
            } else {
                for b in span.byte_addrs() {
                    let entry = self
                        .last_writer
                        .page(b.0 / ORACLE_PAGE_BYTES)
                        .map(|page| page[(b.0 % ORACLE_PAGE_BYTES) as usize])
                        .filter(|&(_, ord)| ord != 0);
                    scan(entry);
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
sqip_snapshot::snapshot_struct!(OracleBuilder {
    last_writer,
    store_count,
});

/// Per-record oracle forwarding info (`None` for non-loads and for loads
/// whose bytes were never written by a traced store).
#[derive(Debug, Clone)]
pub struct OracleInfo {
    per_record: Vec<Option<OracleFwd>>,
}

impl OracleInfo {
    /// Analyses a materialized trace (the batch form of
    /// [`OracleBuilder`]).
    #[must_use]
    pub fn analyze(trace: &Trace) -> OracleInfo {
        let mut builder = OracleBuilder::new();
        let per_record = trace.records().iter().map(|r| builder.ingest(r)).collect();
        OracleInfo { per_record }
    }

    /// Oracle info for the dynamic instruction at `seq`.
    #[must_use]
    pub fn fwd(&self, seq: Seq) -> Option<OracleFwd> {
        self.per_record.get(seq.0 as usize).copied().flatten()
    }

    /// Fraction of dynamic loads whose producer is within `window` dynamic
    /// stores (and fully covers them) — the structural forwarding rate.
    #[must_use]
    pub fn forwarding_rate(&self, trace: &Trace, window: u64) -> f64 {
        if trace.dynamic_loads() == 0 {
            return 0.0;
        }
        let n = self
            .per_record
            .iter()
            .flatten()
            .filter(|f| f.store_dist < window)
            .count();
        n as f64 / trace.dynamic_loads() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqip_isa::{trace_program, ProgramBuilder, Reg};
    use sqip_types::DataSize;

    #[test]
    fn finds_adjacent_producer() {
        let mut b = ProgramBuilder::new();
        let (v, t) = (Reg::new(1), Reg::new(2));
        b.load_imm(v, 7);
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100); // seq 1
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100); // seq 2
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        let oracle = OracleInfo::analyze(&trace);
        let f = oracle.fwd(Seq(2)).unwrap();
        assert_eq!(f.store_seq, Seq(1));
        assert!(f.covers);
        assert_eq!(f.store_dist, 0);
        assert_eq!(oracle.fwd(Seq(0)), None, "non-loads have no info");
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
        let oracle = OracleInfo::analyze(&trace);
        let f = oracle.fwd(Seq(4)).unwrap();
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
        let oracle = OracleInfo::analyze(&trace);
        let f = oracle.fwd(Seq(3)).unwrap();
        assert_eq!(f.store_seq, Seq(2), "youngest overlapping store");
        assert!(!f.covers, "no single store covers the quad load");
    }

    #[test]
    fn untouched_address_has_no_producer() {
        let mut b = ProgramBuilder::new();
        b.load(DataSize::Quad, Reg::new(1), Reg::ZERO, 0x500);
        b.halt();
        let trace = trace_program(&b.build().unwrap(), 100).unwrap();
        let oracle = OracleInfo::analyze(&trace);
        assert_eq!(oracle.fwd(Seq(0)), None);
        assert_eq!(oracle.forwarding_rate(&trace, 64), 0.0);
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
        let oracle = OracleInfo::analyze(&trace);
        assert_eq!(oracle.forwarding_rate(&trace, 64), 1.0);
        assert_eq!(oracle.forwarding_rate(&trace, 4), 0.0, "window too small");
    }

    /// A memory record at `addr` (`store` or load), built directly so
    /// the stream can hit any address and alignment.
    fn mem_record(seq: u64, store: bool, addr: u64, size: DataSize) -> TraceRecord {
        TraceRecord {
            seq: Seq(seq),
            op: if store {
                sqip_isa::Op::Store(size)
            } else {
                sqip_isa::Op::Load(size)
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
    }

    #[test]
    fn one_store_per_page_keeps_oracle_residency_to_one_line_each() {
        let mut oracle = OracleBuilder::new();
        for page in 0..256u64 {
            oracle.ingest(&mem_record(page, true, page * 4096 + 8, DataSize::Quad));
        }
        let line_pages = oracle.last_writer.resident_pages();
        let resident = line_pages * ORACLE_PAGE_ENTRIES * std::mem::size_of::<(Seq, u64)>();
        assert_eq!(line_pages, 256);
        assert!(
            resident <= 256 << 10,
            "{resident} bytes of oracle pages for 256 stores"
        );
    }
}
