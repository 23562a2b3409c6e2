//! The **event scheduler**: how the production engine makes
//! instructions wait, wake and issue. Every stage is the shared
//! [`Pipeline`]'s; this module supplies only the structures that keep
//! the loop from doing O(structures) work per simulated cycle:
//!
//! * in-flight instructions live in a ring-indexed [`InstSlab`] instead
//!   of a `HashMap` (no hashing on the hot path);
//! * wake/waiter lists live in [`WaiterRing`]s: FIFO chains through one
//!   node pool per ring with a free list, so pushes allocate only while
//!   the pool grows toward its peak number of live waiters;
//! * the common case never touches the [`EventWheel`] (a binary heap
//!   in the reference scheduler's event order): issue schedules **zero**
//!   wheel events per instruction — executions and value broadcasts
//!   ride 64-cycle [`NearRing`]s and speculative store wakes a
//!   monotonic FIFO, drained around the wheel each cycle in an order
//!   proven to commute with the wheel's (see
//!   [`EventSched::process_events`]);
//! * the ready set is split into per-port lanes ([`ReadyLanes`]) popped
//!   oldest-first under the port budgets — no full-set selection scan;
//! * **idle cycles are skipped**: after each active cycle the scheduler
//!   computes the next cycle at which *any* stage could do work (next
//!   event, commit eligibility of the ROB head, rename readiness, fetch
//!   stall end) and jumps straight to it — the invariant being that
//!   running the stages on a skipped cycle would have been a no-op, so
//!   the jump is unobservable in the statistics;
//! * derived statistics (cycle count, cache counters) are flushed once
//!   per *active* cycle rather than per simulated cycle.

mod structs;
pub(crate) mod wheel;

use std::collections::VecDeque;

use sqip_isa::OpClass;
use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot as _};
use sqip_types::Seq;

use crate::config::{IssueMix, SimConfig};
use crate::dyninst::{DynInst, InstState};
use crate::pipeline::stages::{Pipeline, RenameStop, Scheduler, Take, WaitList};
use crate::pipeline::{EvKind, WATCHDOG_CYCLES};

pub(crate) use structs::{fits_near, InstSlab, NearRing, ReadyLanes, WaiterRing};
pub(crate) use wheel::EventWheel;

/// Scheduling-cost counters for the event engine, read through
/// [`Processor::sched_counters`](crate::Processor::sched_counters).
///
/// These are diagnostic state: absent from [`SimStats`](crate::SimStats),
/// absent from snapshots (a restore resets them), and therefore
/// incapable of perturbing bit-identity. The perf bin divides them by
/// the committed instruction count to report hardware-portable
/// scheduling costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Events scheduled on the event wheel.
    pub wheel_ops: u64,
    /// Executions, broadcasts and store wakes scheduled on the near
    /// structures (rings / FIFO) instead of the wheel.
    pub near_ops: u64,
    /// Value broadcasts delivered (each fans out to its waiter list).
    pub broadcasts: u64,
    /// Value broadcasts cancelled with consumers waiting, because their
    /// producer was certain to replay (see the scheduler's cancel rule).
    pub cancelled_broadcasts: u64,
    /// Ready-lane tail peeks during issue selection.
    pub ready_touches: u64,
    /// Steps taken: the active cycles the engine simulated. Every cycle
    /// in between was skipped ahead as provably idle.
    pub steps: u64,
}

/// The event-driven scheduler. See the module docs.
pub(crate) struct EventSched {
    pub(crate) insts: InstSlab,
    pub(crate) ready_q: ReadyLanes,
    pub(crate) wheel: EventWheel,
    /// Short-horizon value broadcasts (the issue-time common case),
    /// fused off the wheel. Same liveness contract as a wheel
    /// `Broadcast`: survives flushes, fires even for squashed producers
    /// (the drain is a no-op once the waiter ring was cleared).
    near: NearRing<u64>,
    /// Pending executions `(seq, incarnation)`, fused off the wheel —
    /// always due `issue_to_exec` cycles out, well inside the ring span
    /// (`issue_to_exec = 0` requests the *current* cycle and takes the
    /// wheel's past-event clamping path instead). Survives flushes like
    /// a wheel `Exec`; the delivery's incarnation check drops stale
    /// entries.
    near_execs: NearRing<(u64, u64)>,
    /// Speculative store wakes `(due cycle, store SSN)`, fused off the
    /// wheel. Pushed only by the issue stage at `cycle + 1`, with
    /// same-cycle stores issuing oldest-first, so the queue is sorted by
    /// `(due, ssn)` — exactly the wheel's `StoreWake` drain order.
    store_wakes: VecDeque<(u64, u64)>,
    /// Recycled buffer for draining a near-broadcast slot.
    near_scratch: Vec<u64>,
    /// Recycled buffer for draining a near-exec slot.
    near_exec_scratch: Vec<(u64, u64)>,
    /// The four waiter lists, indexed by [`WaitList`]. A ring suffices
    /// for `StoreCommit`, where the reference keeps an ordered map: SSNs
    /// commit densely and in order, so a committing store can only ever
    /// release waiters registered under its *own* SSN (any smaller key
    /// was drained at that store's earlier commit).
    waiters: [WaiterRing; 4],
    /// Skip-ahead record of why rename stopped last cycle.
    rename_stop: RenameStop,

    // ---- scheduling-cost instrumentation (diagnostic: not serialised;
    // see SchedCounters) ----
    near_ops: u64,
    broadcasts: u64,
    cancelled_broadcasts: u64,
    ready_touches: u64,
    steps: u64,
}

impl EventSched {
    /// The earliest future cycle at which any stage could possibly do
    /// work, assuming no stage acts before it (self-consistent: machine
    /// state only changes inside stages).
    ///
    /// Candidates may be conservative (waking early onto a cycle where a
    /// stage then does nothing is harmless); they must never be late.
    fn next_active_cycle(p: &Pipeline<'_, EventSched>) -> u64 {
        let s = &p.sched;
        let floor = p.cycle + 1;
        // Issue: leftover ready instructions select again immediately.
        if !s.ready_q.is_empty() {
            return floor;
        }
        let mut next = u64::MAX;
        // Events: wakeups, latencies, execute-stage entries — on the
        // wheel or the fused near structures. All four must feed the
        // bound: skipping past a due event would deliver it late.
        if let Some(at) = s.wheel.next_at() {
            next = next.min(at.max(floor));
        }
        if let Some(at) = s.near.next_at() {
            next = next.min(at.max(floor));
        }
        if let Some(at) = s.near_execs.next_at() {
            next = next.min(at.max(floor));
        }
        if let Some(&(due, _)) = s.store_wakes.front() {
            next = next.min(due.max(floor));
        }
        // Commit: a completed ROB head commits at its eligibility cycle.
        // (A non-completed head progresses via events, covered above.)
        if let Some(&head) = p.rob.front() {
            if let Some(inst) = s.insts.get(head.0) {
                if inst.state == InstState::Done {
                    next = next.min(inst.commit_eligible.max(floor));
                }
            }
        }
        // Rename: keyed off why it stopped last cycle. Structural stalls
        // are freed only by commits/issues/flushes, which have their own
        // candidates and run before rename within a step. A `FrontEmpty`
        // stop is refreshed against the live queue, because fetch runs
        // *after* rename within a step and may have refilled it.
        match s.rename_stop {
            RenameStop::Width => next = next.min(floor),
            RenameStop::NotReady(at) => next = next.min(at.max(floor)),
            RenameStop::FrontEmpty => {
                if let Some(&(_, ready_at, _)) = p.front_q.front() {
                    next = next.min(ready_at.max(floor));
                }
            }
            RenameStop::Structural => {}
        }
        // Fetch: works every cycle it is neither stalled, redirected,
        // out of records, nor out of frontend space.
        if p.feed.can_fill(p.fetch_idx)
            && p.pending_redirect.is_none()
            && p.front_q.len() < p.front_cap()
        {
            next = next.min(p.fetch_stall_until.max(floor));
        }
        next
    }
}

impl Scheduler for EventSched {
    fn new(cfg: &SimConfig) -> EventSched {
        let store_ring = || WaiterRing::new(2 * cfg.sq_size + 64);
        EventSched {
            insts: InstSlab::new(cfg.rob_size),
            ready_q: ReadyLanes::default(),
            wheel: EventWheel::new(),
            near: NearRing::new(),
            near_execs: NearRing::new(),
            store_wakes: VecDeque::new(),
            near_scratch: Vec::new(),
            near_exec_scratch: Vec::new(),
            waiters: [
                WaiterRing::new(2 * cfg.rob_size + 4 * cfg.fetch_width + 64),
                store_ring(),
                store_ring(),
                store_ring(),
            ],
            rename_stop: RenameStop::Width,
            near_ops: 0,
            broadcasts: 0,
            cancelled_broadcasts: 0,
            ready_touches: 0,
            steps: 0,
        }
    }

    #[inline]
    fn inst(&self, seq: u64) -> Option<&DynInst> {
        self.insts.get(seq)
    }

    #[inline]
    fn inst_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        self.insts.get_mut(seq)
    }

    #[inline]
    fn insert(&mut self, inst: DynInst) {
        self.insts.insert(inst.seq.0, inst);
    }

    #[inline]
    fn remove(&mut self, seq: u64) {
        self.insts.remove(seq);
    }

    #[inline]
    fn make_ready(&mut self, seq: u64, class: OpClass) {
        self.ready_q.insert(seq, class);
    }

    /// Port budgets in a dense array indexed by `port_of` — one lane per
    /// port, so selection is a min-seq merge over the lane tails with no
    /// full-set scan and no per-candidate class dispatch.
    fn select(&mut self, mix: IssueMix, out: &mut Vec<u64>) {
        let mut ports = [mix.int, mix.fp, mix.branch, mix.load, mix.store];
        self.ready_q
            .pop_selected(&mut ports, mix.total, out, &mut self.ready_touches);
    }

    fn squash_ready(&mut self, from: u64) {
        self.ready_q.retain(|&s| s < from);
    }

    #[inline]
    fn schedule(&mut self, now: u64, at: u64, kind: EvKind, seq: u64, inc: u64) {
        self.wheel.schedule(now, at, kind, seq, inc);
    }

    /// The fused hot path: zero wheel events per issued instruction. The
    /// execute, broadcast and speculative store wake ride the off-wheel
    /// near structures; the wheel keeps only what doesn't fit —
    /// `issue_to_exec = 0` executes (requested for the current cycle,
    /// delivered via the wheel's past-event clamping) and long-latency
    /// broadcasts past the ring span. Always inlined: at each of the
    /// issue stage's three call sites `kind` is a constant and the match
    /// folds away (outlined, the per-instruction call and dispatch cost
    /// the event engine about 3% on mixes).
    #[inline(always)]
    fn schedule_issue(&mut self, now: u64, at: u64, kind: EvKind, seq: u64, inc: u64) {
        match kind {
            EvKind::Exec if fits_near(now, at) => self.near_execs.schedule(at, (seq, inc)),
            EvKind::Broadcast if fits_near(now, at) => self.near.schedule(at, seq),
            EvKind::StoreWake => {
                // Always due next cycle, and same-cycle stores issue
                // oldest-first (ascending SSN), so the queue stays
                // sorted by (due, ssn) — the heap's StoreWake order.
                debug_assert!(self.store_wakes.back().is_none_or(|&last| last < (at, seq)));
                self.store_wakes.push_back((at, seq));
            }
            _ => return self.wheel.schedule(now, at, kind, seq, inc),
        }
        self.near_ops += 1;
    }

    /// Delivers everything due this cycle, in an order bit-identical to
    /// the reference heap's `(cycle, kind, seq, inc)` drain:
    ///
    /// 1. **Past-requested wheel events.** An event requested at or
    ///    before its scheduling cycle (possible under `issue_to_exec =
    ///    0`) is clamped into this pass but keeps its original cycle as
    ///    sort key, so the heap fires it ahead of everything requested
    ///    *for* this cycle — notably such an Exec must not be reordered
    ///    after this cycle's broadcasts (its replay re-registration on
    ///    the value waiter list must still catch them).
    /// 2. **Fused near wake deliveries** — the off-wheel broadcasts and
    ///    speculative store wakes, all requested for exactly this cycle
    ///    (the skip-ahead bound lands the engine on every due cycle, so
    ///    nothing here is ever overdue). Delivering them before the
    ///    wheel's same-cycle events is unobservable: same-cycle wake
    ///    deliveries (Broadcast / Wake / StoreWake, in any key order)
    ///    commute — gate releases at one cycle are order-independent
    ///    arithmetic, duplicate wakes no-op on the state check, and
    ///    waiter registration happens only inside Exec arms. The
    ///    broadcast cancel rule keeps this: it treats `Waiting` and
    ///    `Ready` alike and otherwise reads only what Exec arms and the
    ///    issue stage write, so no same-cycle delivery (whose only state
    ///    change is `Waiting` → `Ready`) can flip a later broadcast's
    ///    verdict. A rule that told `Waiting` from `Ready` would not
    ///    commute.
    /// 3. **The wheel**, whose internal order is unchanged. It holds
    ///    only wake deliveries for this cycle (every same-cycle Exec is
    ///    either fused or, under `issue_to_exec = 0`, clamped into
    ///    phase 1), so phases 2–3 together are one commuting block of
    ///    deliveries.
    /// 4. **Fused near Execs**, in issue (= ascending seq) order —
    ///    matching the heap, which sorts same-cycle Execs after every
    ///    same-cycle delivery kind and by seq among themselves.
    fn process_events(p: &mut Pipeline<'_, EventSched>) {
        while let Some(ev) = p.sched.wheel.pop_due_before(p.cycle, p.cycle) {
            p.deliver(ev.kind, ev.seq, ev.inc);
        }
        let mut scratch = std::mem::take(&mut p.sched.near_scratch);
        while p.sched.near.take_due(p.cycle, &mut scratch) {
            for producer in scratch.drain(..) {
                p.do_broadcast(producer);
            }
        }
        p.sched.near_scratch = scratch;
        while let Some(&(due, ssn)) = p.sched.store_wakes.front() {
            if due > p.cycle {
                break;
            }
            p.sched.store_wakes.pop_front();
            p.wake_all(WaitList::StoreExec, ssn);
        }
        while let Some(ev) = p.sched.wheel.pop_due(p.cycle) {
            p.deliver(ev.kind, ev.seq, ev.inc);
        }
        let mut execs = std::mem::take(&mut p.sched.near_exec_scratch);
        while p.sched.near_execs.take_due(p.cycle, &mut execs) {
            for (seq, inc) in execs.drain(..) {
                if p.alive(seq, inc) {
                    p.do_execute(Seq(seq));
                }
            }
        }
        p.sched.near_exec_scratch = execs;
    }

    #[inline]
    fn wait(&mut self, list: WaitList, key: u64, waiter: u64) {
        self.waiters[list as usize].push(key, waiter);
    }

    #[inline]
    fn has_waiters(&self, list: WaitList, key: u64) -> bool {
        self.waiters[list as usize].contains(key)
    }

    /// A commit releases only its own SSN's slot (see `waiters`).
    #[inline]
    fn take_waiters(&mut self, list: WaitList, key: u64) -> Take {
        self.waiters[list as usize].take_single(key)
    }

    fn drain_waiters(&mut self, list: WaitList, key: u64, out: &mut Vec<u64>) {
        self.waiters[list as usize].remove_into(key, out);
    }

    fn flush(&mut self) {
        self.insts.clear();
        self.ready_q.clear();
        for ring in &mut self.waiters {
            ring.clear_all();
        }
    }

    /// Jumps to the next cycle with work, capped at `limit` and at the
    /// watchdog's cycle. One event step is the reference's `1 + k`
    /// steps, where `k` is the number of provably idle cycles jumped
    /// over; a capped landing cycle is by construction idle, so the cap
    /// never affects results.
    fn advance(p: &mut Pipeline<'_, EventSched>, limit: u64) {
        let watchdog = p.last_commit_cycle + WATCHDOG_CYCLES;
        let target = EventSched::next_active_cycle(p).min(limit).min(watchdog);
        p.cycle = target.max(p.cycle + 1);
        p.sched.steps += 1;
    }

    #[inline]
    fn rename_stopped(&mut self, stop: RenameStop) {
        self.rename_stop = stop;
    }

    #[inline]
    fn count_broadcast(&mut self, cancelled: bool) {
        if cancelled {
            self.cancelled_broadcasts += 1;
        } else {
            self.broadcasts += 1;
        }
    }

    fn counters(&self) -> Option<SchedCounters> {
        Some(SchedCounters {
            wheel_ops: self.wheel.ops(),
            near_ops: self.near_ops,
            broadcasts: self.broadcasts,
            cancelled_broadcasts: self.cancelled_broadcasts,
            ready_touches: self.ready_touches,
            steps: self.steps,
        })
    }

    fn save_front(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.rename_stop.save(w)
    }

    fn load_front(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.rename_stop = RenameStop::load(r)?;
        Ok(())
    }

    fn save_insts(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.insts.save(w)
    }

    fn load_insts(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.insts = InstSlab::load(r)?;
        Ok(())
    }

    fn save_queues(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.ready_q.save(w)?;
        self.wheel.save(w)?;
        self.near.save(w)?;
        self.near_execs.save(w)?;
        self.store_wakes.save(w)?;
        for ring in &self.waiters {
            ring.save(w)?;
        }
        Ok(())
    }

    fn load_queues(p: &mut Pipeline<'_, EventSched>, r: &mut SnapReader) -> Result<(), SnapError> {
        let s = &mut p.sched;
        s.ready_q = ReadyLanes::load(r)?;
        s.ready_q
            .rebuild_classes(|seq| p.feed.window.rec(Seq(seq)).op.class());
        s.wheel = EventWheel::load(r)?;
        s.near = NearRing::<u64>::load(r)?;
        s.near_execs = NearRing::<(u64, u64)>::load(r)?;
        s.store_wakes = VecDeque::<(u64, u64)>::load(r)?;
        for ring in &mut s.waiters {
            *ring = WaiterRing::load(r)?;
        }
        Ok(())
    }
}
