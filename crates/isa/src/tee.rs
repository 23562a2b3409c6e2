//! [`TraceTee`]: fan one record stream out to many consumers, pulling the
//! upstream source **exactly once**.
//!
//! The tee pulls each record from the upstream [`TraceSource`] a single
//! time into a bounded shared ring of reference-counted slots, and hands
//! out per-consumer [`TeeCursor`]s that replay the ring independently. A
//! slot is released when every live cursor has consumed it, so memory
//! stays bounded by the ring capacity — the price is **backpressure**: a
//! cursor that runs more than a ring's worth of records ahead of the
//! slowest consumer gets [`IsaError::TraceIo`] until the laggard moves.
//!
//! The tee is single-threaded by design (`Rc`-shared, not `Arc`): its
//! caller drives the consumers on one thread, keeping them within a ring
//! of each other. No sweep uses it (each sweep cell simulates its own
//! stream); perfbench's layer probes time the fan-out on its own.

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::IsaError;
use crate::source::TraceSource;
use crate::trace::TraceRecord;
use sqip_types::Seq;

struct TeeState<'s> {
    source: Box<dyn TraceSource + 's>,
    /// Power-of-two ring of records, keyed by `seq & mask`.
    recs: Vec<TraceRecord>,
    /// Per-slot reference count: live cursors that have not consumed it.
    refs: Vec<u32>,
    mask: u64,
    /// Sequence number of the oldest slot still held (all older slots have
    /// been consumed by every cursor).
    base: u64,
    /// Records pulled from upstream so far (== next sequence number).
    pulled: u64,
    /// Per-cursor next sequence number to deliver.
    positions: Vec<u64>,
    /// Live cursor count (the refcount given to a freshly pulled slot).
    active: u32,
    done: bool,
    error: Option<IsaError>,
}

impl TeeState<'_> {
    /// Delivers up to `out.len()` records to cursor `id` in one call,
    /// topping the ring up from upstream in contiguous spans first.
    fn next_block(&mut self, id: usize, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        if out.is_empty() {
            return Ok(0);
        }
        let pos = self.positions[id];
        let mut avail = (self.pulled - pos) as usize;
        if avail < out.len() && !self.done && self.error.is_none() {
            let cap = self.mask as usize + 1;
            let free = cap - (self.pulled - self.base) as usize;
            if free > 0 {
                self.pull_upstream((out.len() - avail).min(free));
                avail = (self.pulled - pos) as usize;
            }
        }
        if avail == 0 {
            // A stored upstream error replays immediately at the frontier
            // — before backpressure — so a blocked-looking cursor is never
            // starved behind a failure that no amount of draining will
            // clear.
            if let Some(e) = &self.error {
                return Err(e.clone());
            }
            if self.done {
                return Ok(0);
            }
            return Err(IsaError::TraceIo {
                detail: format!(
                    "tee cursor {id} outran the shared ring (capacity {}); \
                     the caller must keep cursors within a ring of each other",
                    self.mask + 1
                ),
            });
        }
        let n = avail.min(out.len());
        let cap = self.mask as usize + 1;
        let start = (pos & self.mask) as usize;
        let first = n.min(cap - start);
        out[..first].copy_from_slice(&self.recs[start..start + first]);
        if n > first {
            out[first..n].copy_from_slice(&self.recs[..n - first]);
        }
        self.positions[id] = pos + n as u64;
        self.release(pos, n);
        Ok(n)
    }

    /// Pulls up to `want` records from upstream into the ring's free
    /// span(s), renumbering and reference-counting each. Stops early at
    /// end-of-stream or on an upstream error (stored for replay).
    fn pull_upstream(&mut self, want: usize) {
        let cap = self.mask as usize + 1;
        let mut remaining = want;
        while remaining > 0 && !self.done && self.error.is_none() {
            let start = (self.pulled & self.mask) as usize;
            let span = remaining.min(cap - start);
            let dst = &mut self.recs[start..start + span];
            match self.source.next_block(dst) {
                Ok(0) => self.done = true,
                Ok(n) => {
                    // The tee owns the numbering: records are sequential in
                    // pull order, whatever the upstream put in `seq` (the
                    // same renumbering every consumer would apply itself).
                    for (i, rec) in dst[..n].iter_mut().enumerate() {
                        rec.seq = Seq(self.pulled + i as u64);
                    }
                    self.refs[start..start + n].fill(self.active);
                    self.pulled += n as u64;
                    // A short block means the source ended *or* holds a
                    // sticky error: the next turn's pull returns `Ok(0)`
                    // or that error, recorded at the exact failure
                    // position.
                    remaining -= n;
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Releases `n` consecutive slots starting at sequence `from`, then
    /// advances the base past fully released slots (out-of-order
    /// releases leave holes that close as the tail catches up).
    fn release(&mut self, from: u64, n: usize) {
        for seq in from..from + n as u64 {
            let slot = (seq & self.mask) as usize;
            debug_assert!(self.refs[slot] > 0, "slot released more times than held");
            self.refs[slot] -= 1;
        }
        while self.base < self.pulled && self.refs[(self.base & self.mask) as usize] == 0 {
            self.base += 1;
        }
    }

    /// Runs once per cursor, from its `Drop`.
    fn detach(&mut self, id: usize) {
        self.active -= 1;
        // Release this cursor's hold on every slot it had not yet
        // consumed, so the ring no longer waits for it.
        let pos = self.positions[id];
        self.release(pos, (self.pulled - pos) as usize);
    }
}

/// The shared side of a record-stream tee: pulls the upstream source
/// exactly once and fans the records out to the [`TeeCursor`]s minted at
/// construction (see the module-level documentation for the design).
///
/// # Example
///
/// Two cursors replay one upstream stream; the source is pulled once:
///
/// ```
/// use sqip_isa::{ProgramBuilder, ProgramSource, Reg, TraceSource, TraceTee};
///
/// let mut b = ProgramBuilder::new();
/// b.load_imm(Reg::new(1), 3);
/// let top = b.label("top");
/// b.add_imm(Reg::new(1), Reg::new(1), -1);
/// b.branch_nz(Reg::new(1), top);
/// b.halt();
/// let program = b.build()?;
///
/// let (tee, cursors) = TraceTee::new(ProgramSource::new(program, 1000), 2, 64);
/// let [mut a, mut b] = <[_; 2]>::try_from(cursors).ok().unwrap();
/// let first = a.next_record()?;
/// assert_eq!(b.next_record()?, first, "both cursors see the same stream");
/// while a.next_record()?.is_some() {}
/// while b.next_record()?.is_some() {}
/// assert_eq!(tee.pulled(), 8, "upstream was pulled exactly once");
/// # Ok::<(), sqip_isa::IsaError>(())
/// ```
pub struct TraceTee<'s> {
    shared: Rc<RefCell<TeeState<'s>>>,
}

impl<'s> TraceTee<'s> {
    /// Tees `source` out to `consumers` cursors over a shared ring of at
    /// least `capacity` records (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `consumers` is zero.
    #[must_use]
    pub fn new(
        source: impl TraceSource + 's,
        consumers: usize,
        capacity: usize,
    ) -> (TraceTee<'s>, Vec<TeeCursor<'s>>) {
        assert!(consumers > 0, "a tee needs at least one consumer");
        let cap = capacity.max(1).next_power_of_two();
        let shared = Rc::new(RefCell::new(TeeState {
            source: Box::new(source),
            recs: vec![TraceRecord::default(); cap],
            refs: vec![0; cap],
            mask: cap as u64 - 1,
            base: 0,
            pulled: 0,
            positions: vec![0; consumers],
            active: consumers as u32,
            done: false,
            error: None,
        }));
        let cursors = (0..consumers)
            .map(|id| TeeCursor {
                shared: Rc::clone(&shared),
                id,
            })
            .collect();
        (TraceTee { shared }, cursors)
    }

    /// Records pulled from the upstream source so far.
    #[must_use]
    pub fn pulled(&self) -> u64 {
        self.shared.borrow().pulled
    }
}

impl std::fmt::Debug for TraceTee<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("TraceTee")
            .field("pulled", &s.pulled)
            .field("capacity", &(s.mask + 1))
            .finish()
    }
}

/// One consumer's view of a [`TraceTee`]: a [`TraceSource`] yielding the
/// shared stream exactly once to this cursor.
///
/// A cursor more than a ring's worth of records ahead of the slowest
/// live one gets [`IsaError::TraceIo`]; unlike a conforming source's
/// sticky errors, that clears once the laggard advances. An upstream
/// error replays for every cursor at the position where it occurred.
/// Dropping a cursor releases its hold on the ring, so remaining
/// consumers are never throttled by a finished (or failed) one.
pub struct TeeCursor<'s> {
    shared: Rc<RefCell<TeeState<'s>>>,
    id: usize,
}

impl TraceSource for TeeCursor<'_> {
    /// A block of one (see [`next_block`](TeeCursor::next_block)).
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        let mut one = [TraceRecord::default()];
        Ok((self.next_block(&mut one)? == 1).then_some(one[0]))
    }

    /// Up to `out.len()` records in one call — one `RefCell` borrow and
    /// one upstream (block) pull amortised over the whole span.
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        self.shared.borrow_mut().next_block(self.id, out)
    }

    fn len_hint(&self) -> Option<u64> {
        self.shared.borrow().source.len_hint()
    }
}

impl Drop for TeeCursor<'_> {
    fn drop(&mut self) {
        self.shared.borrow_mut().detach(self.id);
    }
}

impl std::fmt::Debug for TeeCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeCursor")
            .field("id", &self.id)
            .field("position", &self.shared.borrow().positions[self.id])
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;
    use crate::source::ProgramSource;
    use crate::trace::trace_program;
    use sqip_types::DataSize;

    fn looping_program(iters: i64) -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        let (ctr, v) = (Reg::new(1), Reg::new(2));
        b.load_imm(ctr, iters);
        let top = b.label("top");
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        b.build().unwrap()
    }

    fn spin_program() -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        let _ = b.label("spin");
        b.jump_to("spin");
        b.build().unwrap()
    }

    /// Whether `e` is the backpressure error of a cursor that outran the
    /// ring (as opposed to an upstream failure).
    fn outran(e: &IsaError) -> bool {
        matches!(e, IsaError::TraceIo { detail } if detail.contains("outran the shared ring"))
    }

    #[test]
    fn every_cursor_sees_the_whole_stream_with_one_upstream_pass() {
        let golden = trace_program(&looping_program(20), 10_000).unwrap();
        let (tee, cursors) = TraceTee::new(ProgramSource::new(looping_program(20), 10_000), 3, 16);
        // Interleave the cursors unevenly but within the ring window.
        let mut streams: Vec<Vec<TraceRecord>> = vec![Vec::new(); 3];
        let mut cursors = cursors;
        let mut open = 3;
        while open > 0 {
            open = 0;
            for (i, c) in cursors.iter_mut().enumerate() {
                // Cursor 0 takes 3 records per round, 1 takes 2, 2 takes 1.
                for _ in 0..(3 - i) {
                    match c.next_record() {
                        Ok(Some(r)) => streams[i].push(r),
                        Ok(None) => continue,
                        Err(e) if outran(&e) => break,
                        Err(e) => panic!("{e}"),
                    }
                }
                if streams[i].len() < golden.len() {
                    open += 1;
                }
            }
        }
        for s in &streams {
            assert_eq!(s.as_slice(), golden.records(), "exactly-once, in order");
        }
        assert_eq!(tee.pulled(), golden.len() as u64);
    }

    #[test]
    fn fast_cursor_blocks_until_the_slow_one_drains() {
        let (tee, mut cursors) =
            TraceTee::new(ProgramSource::new(looping_program(50), 10_000), 2, 5);
        let cap = 8; // 5 rounded up to a power of two
        let mut fast = cursors.pop().unwrap();
        let mut slow = cursors.pop().unwrap();
        // The fast cursor fills the whole ring…
        for _ in 0..cap {
            assert!(fast.next_record().unwrap().is_some());
        }
        // …and the next pull is backpressured, repeatedly (not sticky-fatal).
        assert!(outran(&fast.next_record().unwrap_err()));
        assert!(outran(&fast.next_record().unwrap_err()));
        assert_eq!(tee.pulled(), cap);
        // One slow-side consume releases exactly one slot.
        assert!(slow.next_record().unwrap().is_some());
        assert!(fast.next_record().unwrap().is_some());
        assert!(outran(&fast.next_record().unwrap_err()));
        assert_eq!(tee.pulled(), cap + 1);
    }

    #[test]
    fn dropping_a_cursor_unblocks_the_survivors() {
        let (tee, mut cursors) =
            TraceTee::new(ProgramSource::new(looping_program(50), 10_000), 2, 8);
        let mut fast = cursors.pop().unwrap();
        let slow = cursors.pop().unwrap();
        for _ in 0..8 {
            assert!(fast.next_record().unwrap().is_some());
        }
        assert!(outran(&fast.next_record().unwrap_err()));
        drop(slow);
        // The laggard's hold is gone; the survivor runs to the end alone.
        let mut n = 8;
        while fast.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, tee.pulled());
        assert_eq!(fast.next_record().unwrap(), None, "the end is sticky");
    }

    #[test]
    fn upstream_errors_surface_at_the_same_position_for_every_cursor() {
        // Budget of 5: records 0..5 stream, then the budget error.
        let (_tee, mut cursors) = TraceTee::new(ProgramSource::new(spin_program(), 5), 2, 64);
        let mut b_cursor = cursors.pop().unwrap();
        let mut a_cursor = cursors.pop().unwrap();
        for _ in 0..5 {
            assert!(a_cursor.next_record().unwrap().is_some());
        }
        let err = a_cursor.next_record().unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 5 });
        // The second cursor replays the buffered records, then hits the
        // identical error at the identical position.
        for _ in 0..5 {
            assert!(b_cursor.next_record().unwrap().is_some());
        }
        assert_eq!(b_cursor.next_record().unwrap_err(), err);
    }

    #[test]
    fn failed_tee_reports_failure_and_errors_at_the_frontier_immediately() {
        // Budget of 12 against a ring of 8: the failure lands while a
        // laggard still holds ring slots, so a frontier cursor must get
        // the error from the stored failure, not from ring drain.
        let (_tee, mut cursors) = TraceTee::new(ProgramSource::new(spin_program(), 12), 2, 8);
        let mut b_cursor = cursors.pop().unwrap();
        let mut a_cursor = cursors.pop().unwrap();
        for _ in 0..8 {
            assert!(a_cursor.next_record().unwrap().is_some());
        }
        assert!(
            outran(&a_cursor.next_record().unwrap_err()),
            "backpressure is not failure"
        );
        for _ in 0..5 {
            assert!(b_cursor.next_record().unwrap().is_some());
        }
        // A consumes the remaining budget and trips the upstream error.
        for _ in 8..12 {
            assert!(a_cursor.next_record().unwrap().is_some());
        }
        let err = a_cursor.next_record().unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 12 });
        // Sticky: pulling again re-surfaces the same error even though B
        // still holds ring slots 5..12.
        assert_eq!(a_cursor.next_record().unwrap_err(), err);
        // The laggard replays the buffered tail, then hits the same error.
        for _ in 5..12 {
            assert!(b_cursor.next_record().unwrap().is_some());
        }
        assert_eq!(b_cursor.next_record().unwrap_err(), err);
    }

    #[test]
    fn block_pulls_match_scalar_pulls_bit_identically() {
        // Block sizes straddling every boundary of the 8-slot ring:
        // degenerate (1), partial, exactly the ring, and far past it.
        for block in [1usize, 3, 8, 16, 64] {
            let golden = trace_program(&looping_program(40), 10_000).unwrap();
            let (_tee, mut cursors) =
                TraceTee::new(ProgramSource::new(looping_program(40), 10_000), 2, 8);
            let mut blk = cursors.pop().unwrap();
            let mut sca = cursors.pop().unwrap();
            let mut got_blk = Vec::new();
            let mut got_sca = Vec::new();
            let mut buf = vec![TraceRecord::default(); block];
            let (mut end_blk, mut end_sca) = (false, false);
            while !(end_blk && end_sca) {
                let before = (got_blk.len(), got_sca.len());
                if !end_blk {
                    match blk.next_block(&mut buf) {
                        Ok(0) => end_blk = true,
                        Ok(n) => got_blk.extend_from_slice(&buf[..n]),
                        Err(e) => assert!(outran(&e), "{e}"),
                    }
                }
                if !end_sca {
                    for _ in 0..block {
                        match sca.next_record() {
                            Ok(Some(r)) => got_sca.push(r),
                            Ok(None) => {
                                end_sca = true;
                                break;
                            }
                            Err(e) if outran(&e) => break,
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
                assert!(
                    end_blk || end_sca || (got_blk.len(), got_sca.len()) != before,
                    "lock-step block/scalar consumers deadlocked at {before:?} (block {block})"
                );
            }
            assert_eq!(got_blk, golden.records(), "block pull (size {block})");
            assert_eq!(got_sca, golden.records(), "scalar pull against block peer");
        }
    }

    #[test]
    fn upstream_error_straddling_a_block_edge_surfaces_after_the_partial_block() {
        // Budget 11, blocks of 8: the second block is cut short at 3
        // records, and the error surfaces on the *next* pull — exactly
        // where a scalar puller would have raised it.
        let (_tee, mut cursors) = TraceTee::new(ProgramSource::new(spin_program(), 11), 1, 32);
        let mut c = cursors.pop().unwrap();
        let mut buf = [TraceRecord::default(); 8];
        assert_eq!(c.next_block(&mut buf).unwrap(), 8);
        assert_eq!(c.next_block(&mut buf).unwrap(), 3);
        let err = c.next_block(&mut buf).unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 11 });
        assert_eq!(c.next_block(&mut buf).unwrap_err(), err, "sticky");
    }

    #[test]
    fn len_hint_passes_through_and_records_are_renumbered() {
        let golden = trace_program(&looping_program(3), 10_000).unwrap();
        // A ring of one: a single consumer releases each slot as it pulls
        // it, so it never outruns the ring.
        let (_tee, mut cursors) = TraceTee::new(golden.stream(), 1, 1);
        let mut c = cursors.pop().unwrap();
        assert_eq!(TraceSource::len_hint(&c), Some(golden.len() as u64));
        let mut seq = 0;
        while let Some(rec) = c.next_record().unwrap() {
            assert_eq!(rec.seq, Seq(seq), "tee numbers records in pull order");
            seq += 1;
        }
        assert_eq!(seq, golden.len() as u64);
    }
}
