//! [`TraceTee`]: fan one record stream out to many consumers, pulling the
//! upstream source **exactly once**.
//!
//! A design-space sweep runs the same workload under many configurations;
//! re-running the generator/interpreter (and re-decoding a trace file) per
//! cell pays the workload axis once per design. The tee pulls each record
//! from the upstream [`TraceSource`] a single time into a bounded shared
//! ring of reference-counted slots, and hands out per-consumer
//! [`TeeCursor`]s that replay the ring independently. A slot is released
//! when every live cursor has consumed it, so memory stays bounded by the
//! ring capacity — the price is **backpressure**: a cursor that runs more
//! than a ring's worth of records ahead of the slowest consumer is asked
//! to wait (see [`TeePoll::Blocked`]).
//!
//! The tee is single-threaded by design (`Rc`-shared, not `Arc`): its
//! caller drives the consumers in lock-step on one thread, which is also
//! what makes a bounded ring viable at all — the caller simply refrains
//! from stepping consumers that are about to outrun the window. (The
//! sweep engine no longer uses a tee: each of its cells simulates its own
//! stream, so rows stream as cells finish; perfbench's layer probes time
//! the tee on its own.)

use std::cell::RefCell;
use std::rc::Rc;

use crate::error::IsaError;
use crate::source::TraceSource;
use crate::trace::TraceRecord;
use sqip_types::Seq;

/// Outcome of a non-blocking cursor poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeePoll {
    /// The next record, delivered exactly once to this cursor.
    Record(TraceRecord),
    /// Delivering the next record would need a new ring slot, but the ring
    /// is full because the slowest consumer has not released its tail —
    /// back off and let the laggard run.
    Blocked,
    /// The upstream stream is exhausted and this cursor has consumed
    /// every record.
    End,
}

/// Outcome of a non-blocking **block** poll ([`TeeCursor::poll_block`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeeBlockPoll {
    /// `out[..n]` holds the next `n` records (`n > 0`), delivered exactly
    /// once to this cursor.
    Records(usize),
    /// As [`TeePoll::Blocked`]: no buffered record for this cursor and no
    /// free ring slot to pull one into.
    Blocked,
    /// As [`TeePoll::End`].
    End,
}

struct TeeState<'s> {
    source: Box<dyn TraceSource + 's>,
    len_hint: Option<u64>,
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
    /// Per-cursor liveness (dropped cursors release their share).
    alive: Vec<bool>,
    /// Live cursor count (the refcount given to a freshly pulled slot).
    active: u32,
    /// Largest ring occupancy ever reached.
    high_water: usize,
    done: bool,
    error: Option<IsaError>,
}

impl TeeState<'_> {
    fn release(&mut self, slot: usize) {
        debug_assert!(self.refs[slot] > 0, "slot released more times than held");
        self.refs[slot] -= 1;
        // Advance the base past fully released slots (out-of-order
        // releases leave holes that close as the tail catches up).
        while self.base < self.pulled && self.refs[(self.base & self.mask) as usize] == 0 {
            self.base += 1;
        }
    }

    fn poll(&mut self, id: usize) -> Result<TeePoll, IsaError> {
        let pos = self.positions[id];
        debug_assert!(self.alive[id], "polling a dropped cursor");
        if pos == self.pulled {
            if let Some(e) = &self.error {
                return Err(e.clone());
            }
            if self.done {
                return Ok(TeePoll::End);
            }
            if (self.pulled - self.base) as usize > self.mask as usize {
                return Ok(TeePoll::Blocked);
            }
            match self.source.next_record() {
                Ok(Some(mut rec)) => {
                    // The tee owns the numbering: records are sequential in
                    // pull order, whatever the upstream put in `seq` (the
                    // same renumbering every consumer would apply itself).
                    rec.seq = Seq(self.pulled);
                    let slot = (self.pulled & self.mask) as usize;
                    self.recs[slot] = rec;
                    self.refs[slot] = self.active;
                    self.pulled += 1;
                    self.high_water = self.high_water.max((self.pulled - self.base) as usize);
                }
                Ok(None) => {
                    self.done = true;
                    return Ok(TeePoll::End);
                }
                Err(e) => {
                    self.error = Some(e.clone());
                    return Err(e);
                }
            }
        }
        let slot = (pos & self.mask) as usize;
        let rec = self.recs[slot];
        self.positions[id] = pos + 1;
        self.release(slot);
        Ok(TeePoll::Record(rec))
    }

    /// Block variant of [`TeeState::poll`]: delivers up to `out.len()`
    /// records in one call, topping the ring up from upstream in
    /// contiguous spans first. Observable behaviour (delivery order,
    /// error positions, backpressure) is identical to looping `poll`.
    fn poll_block(&mut self, id: usize, out: &mut [TraceRecord]) -> Result<TeeBlockPoll, IsaError> {
        debug_assert!(self.alive[id], "polling a dropped cursor");
        if out.is_empty() {
            return Ok(TeeBlockPoll::Records(0));
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
            // Same precedence as the scalar path: a stored upstream error
            // replays immediately at the frontier — before backpressure —
            // so a blocked-looking cursor is never starved behind a
            // failure that no amount of draining will clear.
            if let Some(e) = &self.error {
                return Err(e.clone());
            }
            if self.done {
                return Ok(TeeBlockPoll::End);
            }
            return Ok(TeeBlockPoll::Blocked);
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
        self.release_span(pos, n);
        Ok(TeeBlockPoll::Records(n))
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
                    for (i, rec) in dst[..n].iter_mut().enumerate() {
                        rec.seq = Seq(self.pulled + i as u64);
                    }
                    self.refs[start..start + n].fill(self.active);
                    self.pulled += n as u64;
                    remaining -= n;
                    // A short block means the source ended *or* holds a
                    // sticky error; one scalar pull tells us which, so the
                    // outcome is recorded at the exact failure position.
                    if n < span {
                        match self.source.next_record() {
                            Ok(Some(mut rec)) => {
                                // A conforming source never does this, but
                                // tolerate it: keep the record.
                                rec.seq = Seq(self.pulled);
                                let slot = (self.pulled & self.mask) as usize;
                                self.recs[slot] = rec;
                                self.refs[slot] = self.active;
                                self.pulled += 1;
                                remaining = remaining.saturating_sub(1);
                            }
                            Ok(None) => self.done = true,
                            Err(e) => self.error = Some(e),
                        }
                    }
                }
                Err(e) => self.error = Some(e),
            }
        }
        self.high_water = self.high_water.max((self.pulled - self.base) as usize);
    }

    /// Releases `n` consecutive slots starting at sequence `from`,
    /// advancing the base once at the end (batched [`TeeState::release`]).
    fn release_span(&mut self, from: u64, n: usize) {
        for seq in from..from + n as u64 {
            let slot = (seq & self.mask) as usize;
            debug_assert!(self.refs[slot] > 0, "slot released more times than held");
            self.refs[slot] -= 1;
        }
        while self.base < self.pulled && self.refs[(self.base & self.mask) as usize] == 0 {
            self.base += 1;
        }
    }

    fn detach(&mut self, id: usize) {
        if !self.alive[id] {
            return;
        }
        self.alive[id] = false;
        self.active -= 1;
        // Release this cursor's hold on every slot it had not yet
        // consumed, so the ring no longer waits for it.
        for seq in self.positions[id]..self.pulled {
            self.release((seq & self.mask) as usize);
        }
        self.positions[id] = self.pulled;
    }
}

/// The shared side of a record-stream tee: pulls the upstream source
/// exactly once and fans the records out to the [`TeeCursor`]s minted at
/// construction (see the module-level documentation for the design).
///
/// The handle left with the caller observes progress — ring occupancy,
/// per-cursor positions, the high-water mark — which is exactly what a
/// lock-step scheduler needs to decide which consumer to run next.
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
        let len_hint = source.len_hint();
        let shared = Rc::new(RefCell::new(TeeState {
            source: Box::new(source),
            len_hint,
            recs: vec![TraceRecord::default(); cap],
            refs: vec![0; cap],
            mask: cap as u64 - 1,
            base: 0,
            pulled: 0,
            positions: vec![0; consumers],
            alive: vec![true; consumers],
            active: consumers as u32,
            high_water: 0,
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

    /// Sequence number of the oldest record still held in the ring (the
    /// slowest live consumer's progress).
    #[must_use]
    pub fn base(&self) -> u64 {
        self.shared.borrow().base
    }

    /// The ring capacity (after power-of-two rounding).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.borrow().mask as usize + 1
    }

    /// The next sequence number cursor `id` will consume — its lag behind
    /// the pull frontier is `pulled() - position(id)`.
    #[must_use]
    pub fn position(&self, id: usize) -> u64 {
        self.shared.borrow().positions[id]
    }

    /// The largest ring occupancy ever reached — the shared-pass memory
    /// observable a sweep report pairs with each consumer's own
    /// buffered-record peak.
    #[must_use]
    pub fn high_water(&self) -> usize {
        self.shared.borrow().high_water
    }

    /// Whether the upstream source is exhausted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.shared.borrow().done
    }

    /// Whether the upstream source has failed. The stored error replays
    /// for every cursor at the recorded position — a scheduler should
    /// treat a failed tee like a finished one and keep driving cursors
    /// (ignoring ring backpressure at the frontier) so each observes the
    /// error immediately rather than after the ring drains.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.shared.borrow().error.is_some()
    }
}

impl std::fmt::Debug for TraceTee<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.borrow();
        f.debug_struct("TraceTee")
            .field("pulled", &s.pulled)
            .field("base", &s.base)
            .field("capacity", &(s.mask + 1))
            .field("active", &s.active)
            .field("done", &s.done)
            .finish()
    }
}

/// One consumer's view of a [`TraceTee`]: a [`TraceSource`] yielding the
/// shared stream exactly once to this cursor, plus the non-blocking
/// [`TeeCursor::poll_record`] a scheduler uses directly.
///
/// Dropping a cursor releases its hold on the ring, so remaining
/// consumers are never throttled by a finished (or failed) one.
pub struct TeeCursor<'s> {
    shared: Rc<RefCell<TeeState<'s>>>,
    id: usize,
}

impl TeeCursor<'_> {
    /// Non-blocking pull: the next record, [`TeePoll::Blocked`] if the
    /// ring cannot hold it yet, or [`TeePoll::End`] after the last record.
    ///
    /// # Errors
    ///
    /// The upstream source's error, once this cursor reaches the position
    /// where it occurred (every cursor observes the same failure point).
    pub fn poll_record(&mut self) -> Result<TeePoll, IsaError> {
        self.shared.borrow_mut().poll(self.id)
    }

    /// Non-blocking block pull: up to `out.len()` records in one call —
    /// one `RefCell` borrow and one upstream (block) pull amortised over
    /// the whole span. Delivery order, error positions and backpressure
    /// are bit-identical to looping [`TeeCursor::poll_record`].
    ///
    /// # Errors
    ///
    /// The upstream source's error, once this cursor reaches the position
    /// where it occurred (every cursor observes the same failure point).
    pub fn poll_block(&mut self, out: &mut [TraceRecord]) -> Result<TeeBlockPoll, IsaError> {
        self.shared.borrow_mut().poll_block(self.id, out)
    }

    /// The next sequence number this cursor will consume.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.shared.borrow().positions[self.id]
    }

    /// Records this cursor can consume before it would block, assuming no
    /// other cursor progresses: the buffered backlog plus the free ring
    /// slots a new upstream pull could fill.
    #[must_use]
    pub fn budget(&self) -> usize {
        let s = self.shared.borrow();
        let cap = s.mask as usize + 1;
        (s.base as usize + cap).saturating_sub(s.positions[self.id] as usize)
    }

    /// This cursor's index among the tee's consumers.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }
}

impl TraceSource for TeeCursor<'_> {
    /// Like [`TeeCursor::poll_record`], with [`TeePoll::Blocked`] mapped
    /// to [`IsaError::TraceIo`].
    ///
    /// Unlike a conforming source's sticky errors, the blocked condition
    /// clears once the slowest consumer advances; a scheduler that checks
    /// [`TeeCursor::budget`] before driving a consumer never observes it.
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        match self.poll_record()? {
            TeePoll::Record(rec) => Ok(Some(rec)),
            TeePoll::End => Ok(None),
            TeePoll::Blocked => Err(IsaError::TraceIo {
                detail: format!(
                    "tee cursor {} outran the shared ring (capacity {}); \
                     the scheduler must respect cursor budgets",
                    self.id,
                    self.shared.borrow().mask + 1
                ),
            }),
        }
    }

    /// Like [`TeeCursor::poll_block`], with `TeeBlockPoll::Blocked`
    /// mapped to [`IsaError::TraceIo`] (see
    /// [`next_record`](TeeCursor::next_record) for why a well-scheduled
    /// cursor never observes it).
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        match self.poll_block(out)? {
            TeeBlockPoll::Records(n) => Ok(n),
            TeeBlockPoll::End => Ok(0),
            TeeBlockPoll::Blocked => Err(IsaError::TraceIo {
                detail: format!(
                    "tee cursor {} outran the shared ring (capacity {}); \
                     the scheduler must respect cursor budgets",
                    self.id,
                    self.shared.borrow().mask + 1
                ),
            }),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        self.shared.borrow().len_hint
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
            .field("position", &self.position())
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
                    match c.poll_record().unwrap() {
                        TeePoll::Record(r) => streams[i].push(r),
                        TeePoll::Blocked => break,
                        TeePoll::End => continue,
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
        assert!(tee.high_water() <= tee.capacity());
    }

    #[test]
    fn fast_cursor_blocks_until_the_slow_one_drains() {
        let (tee, mut cursors) =
            TraceTee::new(ProgramSource::new(looping_program(50), 10_000), 2, 8);
        let cap = tee.capacity();
        let mut fast = cursors.pop().unwrap();
        let mut slow = cursors.pop().unwrap();
        // The fast cursor fills the whole ring…
        for _ in 0..cap {
            assert!(matches!(fast.poll_record().unwrap(), TeePoll::Record(_)));
        }
        // …and the next pull is backpressured, repeatedly (not sticky-fatal).
        assert_eq!(fast.poll_record().unwrap(), TeePoll::Blocked);
        assert_eq!(fast.poll_record().unwrap(), TeePoll::Blocked);
        assert_eq!(fast.budget(), 0);
        assert!(matches!(
            fast.next_record().unwrap_err(),
            IsaError::TraceIo { .. }
        ));
        // One slow-side consume releases exactly one slot.
        assert!(matches!(slow.poll_record().unwrap(), TeePoll::Record(_)));
        assert_eq!(fast.budget(), 1);
        assert!(matches!(fast.poll_record().unwrap(), TeePoll::Record(_)));
        assert_eq!(fast.poll_record().unwrap(), TeePoll::Blocked);
        assert_eq!(tee.high_water(), cap);
    }

    #[test]
    fn dropping_a_cursor_unblocks_the_survivors() {
        let (tee, mut cursors) =
            TraceTee::new(ProgramSource::new(looping_program(50), 10_000), 2, 8);
        let mut fast = cursors.pop().unwrap();
        let slow = cursors.pop().unwrap();
        for _ in 0..tee.capacity() {
            assert!(matches!(fast.poll_record().unwrap(), TeePoll::Record(_)));
        }
        assert_eq!(fast.poll_record().unwrap(), TeePoll::Blocked);
        drop(slow);
        // The laggard's hold is gone; the survivor runs to the end alone.
        let mut n = tee.capacity() as u64;
        while let TeePoll::Record(_) = fast.poll_record().unwrap() {
            n += 1;
        }
        assert_eq!(n, tee.pulled());
        assert!(tee.is_done());
    }

    #[test]
    fn upstream_errors_surface_at_the_same_position_for_every_cursor() {
        let mut b = ProgramBuilder::new();
        let _ = b.label("spin");
        b.jump_to("spin");
        // Budget of 5: records 0..5 stream, then the budget error.
        let (_tee, mut cursors) = TraceTee::new(ProgramSource::new(b.build().unwrap(), 5), 2, 64);
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
        let mut b = ProgramBuilder::new();
        let _ = b.label("spin");
        b.jump_to("spin");
        // Budget of 12 against a ring of 8: the failure lands while a
        // laggard still holds ring slots, so a frontier cursor must get
        // the error from the failure flag, not from ring drain.
        let (tee, mut cursors) = TraceTee::new(ProgramSource::new(b.build().unwrap(), 12), 2, 8);
        let mut b_cursor = cursors.pop().unwrap();
        let mut a_cursor = cursors.pop().unwrap();
        for _ in 0..8 {
            assert!(matches!(
                a_cursor.poll_record().unwrap(),
                TeePoll::Record(_)
            ));
        }
        assert_eq!(a_cursor.poll_record().unwrap(), TeePoll::Blocked);
        assert!(!tee.is_failed(), "backpressure is not failure");
        for _ in 0..5 {
            assert!(matches!(
                b_cursor.poll_record().unwrap(),
                TeePoll::Record(_)
            ));
        }
        // A consumes the remaining budget and trips the upstream error.
        for _ in 8..12 {
            assert!(matches!(
                a_cursor.poll_record().unwrap(),
                TeePoll::Record(_)
            ));
        }
        let err = a_cursor.poll_record().unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 12 });
        assert!(tee.is_failed());
        assert!(!tee.is_done(), "failure and completion are distinct ends");
        // Sticky: polling again re-surfaces the same error even though B
        // still holds ring slots 5..12.
        assert_eq!(a_cursor.poll_record().unwrap_err(), err);
        // The laggard replays the buffered tail, then hits the same error.
        for _ in 5..12 {
            assert!(matches!(
                b_cursor.poll_record().unwrap(),
                TeePoll::Record(_)
            ));
        }
        assert_eq!(b_cursor.poll_record().unwrap_err(), err);
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
                    match blk.poll_block(&mut buf).unwrap() {
                        TeeBlockPoll::Records(n) => got_blk.extend_from_slice(&buf[..n]),
                        TeeBlockPoll::Blocked => {}
                        TeeBlockPoll::End => end_blk = true,
                    }
                }
                if !end_sca {
                    for _ in 0..block {
                        match sca.poll_record().unwrap() {
                            TeePoll::Record(r) => got_sca.push(r),
                            TeePoll::Blocked => break,
                            TeePoll::End => {
                                end_sca = true;
                                break;
                            }
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
        let mut b = ProgramBuilder::new();
        let _ = b.label("spin");
        b.jump_to("spin");
        // Budget 11, blocks of 8: the second block is cut short at 3
        // records, and the error surfaces on the *next* pull — exactly
        // where a scalar puller would have raised it.
        let (tee, mut cursors) = TraceTee::new(ProgramSource::new(b.build().unwrap(), 11), 1, 32);
        let mut c = cursors.pop().unwrap();
        let mut buf = [TraceRecord::default(); 8];
        assert!(matches!(
            c.poll_block(&mut buf).unwrap(),
            TeeBlockPoll::Records(8)
        ));
        assert!(matches!(
            c.poll_block(&mut buf).unwrap(),
            TeeBlockPoll::Records(3)
        ));
        let err = c.poll_block(&mut buf).unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 11 });
        assert!(tee.is_failed());
        assert_eq!(c.poll_block(&mut buf).unwrap_err(), err, "sticky");
    }

    #[test]
    fn len_hint_passes_through_and_records_are_renumbered() {
        let golden = trace_program(&looping_program(3), 10_000).unwrap();
        let (_tee, mut cursors) = TraceTee::new(golden.stream(), 1, 4);
        let mut c = cursors.pop().unwrap();
        assert_eq!(TraceSource::len_hint(&c), Some(golden.len() as u64));
        let mut seq = 0;
        while let Some(rec) = c.next_record().unwrap() {
            assert_eq!(rec.seq, Seq(seq), "tee numbers records in pull order");
            seq += 1;
        }
        // A single consumer releases slots as fast as it pulls them.
        assert_eq!(_tee.high_water(), 1);
    }
}
