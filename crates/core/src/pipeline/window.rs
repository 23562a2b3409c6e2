//! Bounded sliding-window state: the record feed, the in-flight record
//! buffer it fills, and the per-sequence value ring.
//!
//! These structures are what unbinds run length from memory: instead
//! of per-trace-record side vectors (`trace.len() + 1` entries), the
//! processor keeps
//!
//! * a [`RecordFeed`], the one path from a [`TraceSource`] into either
//!   engine, which pulls blocks of records into
//! * a [`RecordWindow`] holding exactly the records between the commit
//!   point and the fetch frontier (plus their pre-computed oracle info),
//!   popped as instructions retire, and
//! * a [`SeqRing`] of per-sequence speculative value state sized to the
//!   largest span the pipeline can ever reference (in-flight window +
//!   producers a consumer captured before they retired + fetch-ahead).

use sqip_isa::{IsaError, OracleBuilder, OracleFwd, TraceRecord, TraceSource};
use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use sqip_types::Seq;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::pipeline::NOT_READY;

/// Records pulled from the trace source per block fetch: one virtual
/// source call amortised over up to this many records, decoded straight
/// into the record window. Sized to the record window's slack past the
/// structural pipeline bound, so pulling a full block ahead of the fetch
/// frontier can never overflow the window.
pub const FETCH_BLOCK: usize = 64;

/// The input stream of one run, as both engines see it: the source, the
/// [`RecordWindow`] it fills, the dependence oracle that annotates each
/// record at ingest, the end of the stream and a sticky source error.
/// Its position — the records pulled so far — is what a checkpoint
/// resumes from.
pub(crate) struct RecordFeed<'t> {
    /// The pull-based record stream driving the run.
    source: Box<dyn TraceSource + 't>,
    /// Records between the commit point and the fetch frontier, with
    /// their oracle info (computed once at ingest).
    pub(crate) window: RecordWindow,
    /// The incremental dependence oracle feeding `window`.
    oracle: OracleBuilder,
    /// Exact total record count: the source's up-front hint, or measured
    /// at exhaustion.
    total_records: Option<u64>,
    /// Whether the source has reported its end.
    source_done: bool,
    /// A source failure, held until the step surfaces it
    /// ([`RecordFeed::check`]).
    source_error: Option<IsaError>,
}

impl<'t> RecordFeed<'t> {
    pub(crate) fn new(cfg: &SimConfig, source: impl TraceSource + 't) -> RecordFeed<'t> {
        RecordFeed {
            total_records: source.len_hint(),
            source: Box::new(source),
            window: RecordWindow::new(cfg.rob_size, cfg.fetch_width),
            oracle: OracleBuilder::new(),
            source_done: false,
            source_error: None,
        }
    }

    /// Ensures the record at `fetch_idx` is in the window, pulling from
    /// the source as needed. Returns `false` when the stream is exhausted
    /// (or has failed — [`RecordFeed::check`] surfaces it); the caller
    /// reads the record through the window, copy-free.
    #[inline]
    pub(crate) fn fill(&mut self, fetch_idx: usize) -> bool {
        let seq = fetch_idx as u64;
        while seq >= self.window.end() {
            if self.source_done || self.source_error.is_some() {
                return false;
            }
            // Pull a whole block ahead of the frontier, decoded straight
            // into the window's free slots: one virtual source call
            // amortised over up to FETCH_BLOCK records. The span is capped
            // to the window's free slots, so the pull-ahead can never
            // overflow it, and to the ring's wrap; it is nonempty because
            // the frontier record itself fits within the structural
            // bound. A span cut short at the wrap is just a short block;
            // whole blocks stay aligned to the ring, so only a source that
            // returned a short block before ever makes one.
            let span = self.window.spare_mut(FETCH_BLOCK);
            debug_assert!(!span.is_empty(), "window full at the fetch frontier");
            match self.source.next_block(span) {
                Ok(0) => {
                    self.source_done = true;
                    self.total_records = Some(self.window.end());
                    return false;
                }
                Ok(n) => {
                    let oracle = &mut self.oracle;
                    self.window.admit(n, |rec| oracle.ingest(rec));
                }
                Err(e) => {
                    self.source_error = Some(e);
                    return false;
                }
            }
        }
        true
    }

    /// Whether fetch may still find a record at `fetch_idx`: it is
    /// buffered, or the source has neither ended nor failed.
    pub(crate) fn can_fill(&self, fetch_idx: usize) -> bool {
        (fetch_idx as u64) < self.window.end() || (!self.source_done && self.source_error.is_none())
    }

    /// Whether the whole stream has committed. Until the source is
    /// exhausted (or declared an exact length up front) the total is
    /// unknown and this is `false`.
    pub(crate) fn is_done(&self, committed: u64) -> bool {
        self.total_records.is_some_and(|total| committed >= total)
    }

    /// The exact record count, once known.
    pub(crate) fn total_records(&self) -> Option<u64> {
        self.total_records
    }

    /// Records buffered between the commit point and the fetch frontier.
    pub(crate) fn buffered(&self) -> usize {
        self.window.len()
    }

    /// Records ever pulled from the source (the resume position).
    pub(crate) fn pulled(&self) -> u64 {
        self.window.end()
    }

    /// The step's verdict on the source: a failure it hit while fetching
    /// becomes [`SimError::TraceSource`], at the records pulled so far.
    pub(crate) fn check(&self) -> Result<(), SimError> {
        match &self.source_error {
            None => Ok(()),
            Some(e) => Err(SimError::TraceSource {
                pulled: self.pulled(),
                detail: e.to_string(),
            }),
        }
    }

    /// Skips the `pulls` records a checkpointed run had already pulled
    /// from a fresh instance of its source, a block at a time.
    pub(crate) fn resume(source: &mut dyn TraceSource, pulls: u64) -> Result<(), SnapError> {
        let mut block = [TraceRecord::default(); FETCH_BLOCK];
        let mut skipped = 0;
        while skipped < pulls {
            let want = (pulls - skipped).min(FETCH_BLOCK as u64) as usize;
            match source.next_block(&mut block[..want]) {
                Ok(0) => {
                    return Err(SnapError::Source(format!(
                        "trace source exhausted at record {skipped} of the {pulls} \
                         the checkpoint had consumed"
                    )))
                }
                Ok(n) => skipped += n as u64,
                Err(e) => return Err(SnapError::Source(e.to_string())),
            }
        }
        Ok(())
    }

    /// Serialises the feed's state (everything but the source, which a
    /// restore re-opens and [`resume`](RecordFeed::resume)s).
    ///
    /// # Errors
    ///
    /// [`SnapError::Unsupported`] while a source error is pending.
    pub(crate) fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        if let Some(e) = &self.source_error {
            return Err(SnapError::Unsupported(format!(
                "cannot checkpoint with a pending trace-source error: {e}"
            )));
        }
        self.window.save(w)?;
        self.oracle.save(w)?;
        self.total_records.save(w)?;
        self.source_done.save(w)
    }

    /// Overwrites the feed's state with [`save`](RecordFeed::save)d
    /// state, keeping the (resumed) source.
    pub(crate) fn load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.window = RecordWindow::load(r)?;
        self.oracle = OracleBuilder::load(r)?;
        self.total_records = Option::<u64>::load(r)?;
        self.source_done = bool::load(r)?;
        Ok(())
    }
}

/// The records currently needed by the pipeline: sequence numbers
/// `[commit point, fetch frontier)`. Squashes rewind the fetch index but
/// never discard buffered records (re-fetches replay from the buffer), so
/// each record is pulled from the trace source exactly once.
///
/// Stored as a power-of-two ring keyed by `seq & mask` (records and
/// oracle info in separate arrays, since most lookups want only the
/// record): `rec()` is the single hottest accessor in the simulator, so
/// indexing is one mask and one load, with the in-window check a debug
/// assertion. The occupancy bound is structural — commit trails the fetch
/// frontier by at most ROB + frontend queue + one fetch group — and is
/// enforced by an assertion on every fetch into the window
/// ([`RecordWindow::spare_mut`]).
#[derive(Debug)]
pub(crate) struct RecordWindow {
    /// Sequence number of the oldest buffered record.
    base: u64,
    len: usize,
    mask: u64,
    recs: Vec<TraceRecord>,
    fwds: Vec<Option<OracleFwd>>,
}

impl RecordWindow {
    pub(crate) fn new(rob_size: usize, fetch_width: usize) -> RecordWindow {
        // ROB + frontend queue (4 fetch groups) + one in-progress fetch
        // group + slack.
        let cap = (rob_size + 5 * fetch_width + 64).next_power_of_two();
        RecordWindow {
            base: 0,
            len: 0,
            mask: cap as u64 - 1,
            recs: vec![TraceRecord::default(); cap],
            fwds: vec![None; cap],
        }
    }

    /// The next sequence number to be pulled (== total records pulled).
    pub(crate) fn end(&self) -> u64 {
        self.base + self.len as u64
    }

    /// Buffered record count (the memory-boundedness observable).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots still free before the window would overflow — the bound on
    /// how far a block fetch may pull ahead of the frontier.
    pub(crate) fn free(&self) -> usize {
        (self.mask as usize + 1) - self.len
    }

    /// The free slots at the fetch frontier that lie in one contiguous
    /// run, at most `max` of them: a block fetch decodes straight into
    /// this span and then [`admit`](RecordWindow::admit)s what it got.
    /// The span stops at the ring's wrap, so it can be shorter than
    /// [`free`](RecordWindow::free).
    ///
    /// # Panics
    ///
    /// Panics if the window is full (the pipeline buffered more records
    /// than the machine window can reference).
    pub(crate) fn spare_mut(&mut self, max: usize) -> &mut [TraceRecord] {
        assert!(
            self.len as u64 <= self.mask,
            "record window overflow: the pipeline buffered more records \
             than the machine window can reference"
        );
        let slot = (self.end() & self.mask) as usize;
        let n = max.min(self.free()).min(self.recs.len() - slot);
        &mut self.recs[slot..slot + n]
    }

    /// Takes the first `n` records written into the
    /// [`spare_mut`](RecordWindow::spare_mut) span into the window, in
    /// order. Each is numbered with its pull position (consumers own the
    /// numbering, whatever the source put in `seq`) and then passed to
    /// `oracle`, whose answer is stored as its forwarding info.
    pub(crate) fn admit(
        &mut self,
        n: usize,
        mut oracle: impl FnMut(&TraceRecord) -> Option<OracleFwd>,
    ) {
        let slot = (self.end() & self.mask) as usize;
        assert!(
            n <= self.free() && slot + n <= self.recs.len(),
            "admitting {n} records past the spare span"
        );
        for i in slot..slot + n {
            self.recs[i].seq = Seq(self.end());
            self.fwds[i] = oracle(&self.recs[i]);
            self.len += 1;
        }
    }

    /// Drops the oldest record (its instruction committed).
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "popping an empty record window");
        self.len -= 1;
        self.base += 1;
    }

    #[inline]
    fn index(&self, seq: Seq) -> usize {
        debug_assert!(
            seq.0 >= self.base && seq.0 < self.end(),
            "seq {} outside the record window [{}, {})",
            seq.0,
            self.base,
            self.end()
        );
        (seq.0 & self.mask) as usize
    }

    /// The golden record for an in-window sequence number.
    #[inline]
    pub(crate) fn rec(&self, seq: Seq) -> &TraceRecord {
        &self.recs[self.index(seq)]
    }

    /// The oracle forwarding info for an in-window sequence number.
    #[inline]
    pub(crate) fn fwd(&self, seq: Seq) -> Option<OracleFwd> {
        self.fwds[self.index(seq)]
    }
}

/// Dense per-sequence value state (speculative value, readiness cycle,
/// wakeup-broadcast cycle) in a fixed ring keyed by `seq % capacity`.
///
/// A slot is reset when its sequence number enters rename; it stays
/// readable after the instruction retires, because an in-flight consumer
/// may have captured the producer at rename and read its value only at
/// execute. The capacity covers the worst-case readable span: a producer
/// is always within `rob_size` of its consumer's rename point, and the
/// fetch frontier leads the commit point by at most
/// `rob_size + fetch-ahead`, so `2·rob_size + fetch-ahead (+ slack)`
/// suffices for any run length.
#[derive(Debug)]
pub(crate) struct SeqRing {
    /// One record per slot: consumers that read a producer's readiness
    /// usually read its value in the same breath, so the three fields
    /// share a cache line instead of living in three parallel arrays.
    /// The power-of-two length makes slot indexing a `len - 1` mask (a
    /// pattern the optimiser proves in-bounds); the ring is indexed a
    /// dozen times per instruction.
    slots: Vec<SeqSlot>,
}

#[derive(Debug, Clone, Copy)]
struct SeqSlot {
    spec_value: u64,
    value_ready: u64,
    wake_time: u64,
}

const EMPTY_SLOT: SeqSlot = SeqSlot {
    spec_value: 0,
    value_ready: NOT_READY,
    wake_time: NOT_READY,
};

/// Ring capacity covering every sequence number the pipeline can still
/// reference: in-flight window + retired producers a consumer captured +
/// fetch-ahead, rounded to a power of two for mask indexing.
pub(crate) fn seq_ring_capacity(rob_size: usize, fetch_width: usize) -> usize {
    (2 * rob_size + 4 * fetch_width + 64).next_power_of_two()
}

impl SeqRing {
    pub(crate) fn new(rob_size: usize, fetch_width: usize) -> SeqRing {
        let cap = seq_ring_capacity(rob_size, fetch_width);
        SeqRing {
            slots: vec![EMPTY_SLOT; cap],
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq as usize) & (self.slots.len() - 1)
    }

    /// Clears a sequence number's slot as it enters rename (covers both
    /// ring reuse by a far-younger instruction and re-rename after a
    /// squash).
    pub(crate) fn reset(&mut self, seq: u64) {
        let s = self.slot(seq);
        self.slots[s] = EMPTY_SLOT;
    }

    pub(crate) fn spec_value(&self, seq: u64) -> u64 {
        self.slots[self.slot(seq)].spec_value
    }

    pub(crate) fn set_spec_value(&mut self, seq: u64, v: u64) {
        let s = self.slot(seq);
        self.slots[s].spec_value = v;
    }

    pub(crate) fn value_ready(&self, seq: u64) -> u64 {
        self.slots[self.slot(seq)].value_ready
    }

    pub(crate) fn set_value_ready(&mut self, seq: u64, cycle: u64) {
        let s = self.slot(seq);
        self.slots[s].value_ready = cycle;
    }

    pub(crate) fn wake_time(&self, seq: u64) -> u64 {
        self.slots[self.slot(seq)].wake_time
    }

    pub(crate) fn set_wake_time(&mut self, seq: u64, cycle: u64) {
        let s = self.slot(seq);
        self.slots[s].wake_time = cycle;
    }
}

sqip_snapshot::snapshot_struct!(SeqSlot {
    spec_value,
    value_ready,
    wake_time,
});

impl Snapshot for RecordWindow {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.base.save(w)?;
        self.len.save(w)?;
        self.mask.save(w)?;
        self.recs.save(w)?;
        self.fwds.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<RecordWindow, SnapError> {
        let base = u64::load(r)?;
        let len = usize::load(r)?;
        let mask = u64::load(r)?;
        let recs = Vec::<TraceRecord>::load(r)?;
        let fwds = Vec::<Option<OracleFwd>>::load(r)?;
        let cap = mask.wrapping_add(1);
        if !cap.is_power_of_two()
            || recs.len() as u64 != cap
            || fwds.len() as u64 != cap
            || len as u64 > cap
        {
            return Err(SnapError::Corrupt(format!(
                "record window: mask {mask:#x}, {} records, {} oracle slots, len {len}",
                recs.len(),
                fwds.len()
            )));
        }
        Ok(RecordWindow {
            base,
            len,
            mask,
            recs,
            fwds,
        })
    }
}

impl Snapshot for SeqRing {
    fn save(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.slots.save(w)
    }
    fn load(r: &mut SnapReader) -> Result<SeqRing, SnapError> {
        let slots = Vec::<SeqSlot>::load(r)?;
        if !slots.len().is_power_of_two() {
            return Err(SnapError::Corrupt(format!(
                "sequence ring of {} slots (want a power of two)",
                slots.len()
            )));
        }
        Ok(SeqRing { slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admits one record at the fetch frontier, with no oracle info.
    fn push(w: &mut RecordWindow, rec: TraceRecord) {
        w.spare_mut(1)[0] = rec;
        w.admit(1, |_| None);
    }

    #[test]
    fn record_window_slides() {
        let mut w = RecordWindow::new(4, 1);
        assert_eq!(w.end(), 0);
        let rec = |seq: u64| {
            let mut b = sqip_isa::ProgramBuilder::new();
            b.halt();
            let t = sqip_isa::trace_program(&b.build().unwrap(), 10).unwrap();
            let mut r = t.records()[0];
            r.seq = Seq(seq);
            r
        };
        push(&mut w, rec(0));
        push(&mut w, rec(1));
        assert_eq!(w.end(), 2);
        assert_eq!(w.rec(Seq(1)).seq, Seq(1));
        w.pop_front();
        assert_eq!(w.len(), 1);
        assert_eq!(w.end(), 2, "end() is monotonic across pops");
        assert_eq!(w.rec(Seq(1)).seq, Seq(1));
    }

    #[test]
    fn record_window_pops_each_record_exactly_once() {
        // A squash rewinds the *fetch index*, never the window: re-fetches
        // replay buffered records, and only in-order commit pops. The
        // exactly-once invariant is that `pop_front` retires seq `base`,
        // `base` is monotonic, and a record stays readable (for re-fetch)
        // from push until its own pop — no earlier, no later.
        let mut w = RecordWindow::new(4, 1);
        let rec = |seq: u64| {
            let mut b = sqip_isa::ProgramBuilder::new();
            b.halt();
            let t = sqip_isa::trace_program(&b.build().unwrap(), 10).unwrap();
            let mut r = t.records()[0];
            r.seq = Seq(seq);
            r
        };
        for s in 0..6 {
            push(&mut w, rec(s));
        }
        // Squash-style re-read: every buffered record is still addressable
        // (a rewound fetch index replays from the buffer, not the source).
        for s in 0..6 {
            assert_eq!(w.rec(Seq(s)).seq, Seq(s));
        }
        // Commit pops 0..3; their slots leave the readable window while
        // the survivors stay re-fetchable.
        for s in 0..3 {
            assert_eq!(w.rec(Seq(s)).seq, Seq(s), "readable until popped");
            w.pop_front();
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.end(), 6, "end() never rewinds");
        for s in 3..6 {
            assert_eq!(w.rec(Seq(s)).seq, Seq(s), "survivors re-fetchable");
        }
        // Ring reuse after pops: new pushes land in freed slots and the
        // window keeps sliding — 6 pushed + 6 more = 12 total, 3 popped.
        for s in 6..12 {
            push(&mut w, rec(s));
        }
        assert_eq!(w.end(), 12);
        assert_eq!(w.len(), 9);
        assert_eq!(w.rec(Seq(11)).seq, Seq(11));
    }

    #[test]
    #[should_panic(expected = "record window overflow")]
    fn record_window_rejects_overflow() {
        let mut w = RecordWindow::new(1, 1);
        let mut b = sqip_isa::ProgramBuilder::new();
        b.halt();
        let t = sqip_isa::trace_program(&b.build().unwrap(), 10).unwrap();
        let r = t.records()[0];
        // Capacity is (rob + 5*fetch + 64).next_power_of_two() = 128 for
        // this geometry; the 129th un-popped push must be refused loudly
        // rather than silently overwrite the commit point.
        for s in 0..200 {
            let mut rec = r;
            rec.seq = Seq(s);
            push(&mut w, rec);
        }
    }

    /// Block fetches straight into the window, the way the event engine
    /// pulls: ask for up to a block, let the source fill a short prefix
    /// of the span (a source may return fewer records than asked), admit
    /// that prefix, and retire some records from the front. Spans never
    /// cross the ring's wrap, every admitted record is numbered by its
    /// pull position and reaches the oracle once, in order, and stays
    /// readable until popped.
    #[test]
    fn block_fetch_into_the_window_across_the_wrap_with_short_blocks() {
        let mut w = RecordWindow::new(4, 1);
        let cap = w.recs.len() as u64;
        let (mut rng, mut pulled, mut cut_at_wrap) = (7u64, 0u64, 0u32);
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut ingested = Vec::new();
        while w.end() < 40 * cap {
            let x = next();
            if w.free() == 0 {
                w.pop_front(); // the engine never fetches into a full window
                continue;
            }
            let slot = (w.end() % cap) as usize;
            let free = w.free();
            let span = w.spare_mut(64);
            assert!(!span.is_empty());
            assert!(span.len() <= 64.min(free) && slot + span.len() <= cap as usize);
            cut_at_wrap += u32::from(span.len() < 64.min(free));
            // The source fills a short prefix; `seq` is whatever it says.
            let n = (x % 9).min(span.len() as u64) as usize;
            for (i, rec) in span[..n].iter_mut().enumerate() {
                rec.seq = Seq(u64::MAX);
                rec.imm = (pulled + i as u64) as i64;
            }
            w.admit(n, |rec| {
                ingested.push(rec.seq.0);
                (rec.seq.0 % 3 == 0).then_some(OracleFwd {
                    store_seq: Seq(rec.seq.0 / 2),
                    store_dist: 1,
                    covers: true,
                })
            });
            pulled += n as u64;
            assert_eq!(w.end(), pulled);
            for s in w.base..w.end() {
                assert_eq!(w.rec(Seq(s)).seq, Seq(s), "numbered in pull order");
                assert_eq!(w.rec(Seq(s)).imm, s as i64, "record {s} kept");
                assert_eq!(w.fwd(Seq(s)).is_some(), s % 3 == 0);
            }
            for _ in 0..(x >> 8) % 8 {
                if w.len() > 0 {
                    w.pop_front();
                }
            }
        }
        assert_eq!(ingested, (0..pulled).collect::<Vec<_>>());
        assert!(cut_at_wrap > 20, "{cut_at_wrap} spans cut at the wrap");
    }

    #[test]
    fn seq_ring_reset_clears_stale_incarnation_at_squash_refetch() {
        // A squash leaves the squashed sequence numbers' slots dirty (by
        // design — nothing reads them before re-rename); the re-fetch of
        // the *same* sequence number must start from a clean slot the
        // moment rename resets it, or the re-fetched incarnation would
        // see its predecessor's value/readiness.
        let mut r = SeqRing::new(8, 2);
        r.reset(5);
        r.set_spec_value(5, 0xDEAD);
        r.set_value_ready(5, 42);
        r.set_wake_time(5, 40);
        // Squash: seq 5's in-flight state is abandoned mid-execution.
        // Re-fetch re-renames the same seq; rename's reset must clear all
        // three fields.
        r.reset(5);
        assert_eq!(r.spec_value(5), 0);
        assert_eq!(r.value_ready(5), NOT_READY);
        assert_eq!(r.wake_time(5), NOT_READY);
    }

    #[test]
    fn seq_ring_wraparound_across_many_laps() {
        // Long streamed runs lap the ring many times; each lap's tenant
        // must be isolated by its rename-time reset alone.
        let mut r = SeqRing::new(4, 1);
        let cap = r.slots.len() as u64;
        for lap in 0..5u64 {
            let seq = 3 + lap * cap; // same slot every lap
            r.reset(seq);
            assert_eq!(r.spec_value(seq), 0, "lap {lap} starts clean");
            r.set_spec_value(seq, lap + 1);
            r.set_value_ready(seq, 10 * (lap + 1));
            assert_eq!(r.spec_value(seq), lap + 1);
            assert_eq!(r.value_ready(seq), 10 * (lap + 1));
        }
    }

    #[test]
    fn seq_ring_isolates_distant_sequences() {
        let mut r = SeqRing::new(4, 1);
        let cap = r.slots.len() as u64;
        r.reset(3);
        r.set_spec_value(3, 77);
        r.set_value_ready(3, 10);
        assert_eq!(r.spec_value(3), 77);
        assert_eq!(r.value_ready(3), 10);
        // The slot's next tenant starts clean after its rename-time reset.
        r.reset(3 + cap);
        assert_eq!(r.spec_value(3 + cap), 0);
        assert_eq!(r.value_ready(3 + cap), NOT_READY);
        assert_eq!(r.wake_time(3 + cap), NOT_READY);
    }
}
