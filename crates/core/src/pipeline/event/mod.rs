//! The **event engine**: the production simulation core.
//!
//! Semantically identical to the reference stepper
//! ([`RefCore`](crate::pipeline::reference::RefCore)) — same stages, same
//! policy touch-points, bit-identical [`SimStats`](crate::SimStats),
//! pinned by differential proptests — but the loop no longer does
//! O(structures) work per simulated cycle:
//!
//! * in-flight instructions live in a ring-indexed [`InstSlab`] instead
//!   of a `HashMap` (no hashing on the hot path);
//! * wake/waiter lists live in [`WaiterRing`]s: FIFO chains through one
//!   node pool per ring with a free list, so pushes allocate only while
//!   the pool grows toward its peak number of live waiters;
//! * the common case never touches the [`EventWheel`] (a binary heap
//!   in the reference engine's event order): issue schedules **zero**
//!   wheel events per instruction — executions and value broadcasts
//!   ride 64-cycle [`NearRing`]s and speculative store wakes a
//!   monotonic FIFO, drained around the wheel each cycle in an order
//!   proven to commute with the wheel's (see
//!   [`EventCore::process_events`]);
//! * the ready set is split into per-port lanes ([`ReadyLanes`]) popped
//!   oldest-first under the port budgets — no full-set selection scan;
//! * **idle cycles are skipped**: after each active cycle the engine
//!   computes the next cycle at which *any* stage could do work (next
//!   wheel event, commit eligibility of the ROB head, rename readiness,
//!   fetch stall end) and jumps straight to it — the invariant being
//!   that running the stages on a skipped cycle would have been a no-op,
//!   so the jump is unobservable in the statistics;
//! * derived statistics (cycle count, cache counters) are flushed once
//!   per *active* cycle rather than per simulated cycle.

mod structs;
pub(crate) mod wheel;

use sqip_isa::{TraceRecord, TraceSource};
use sqip_mem::{Hierarchy, MemImage};
use sqip_predictors::BranchPredictor;
use sqip_queues::{LoadQueue, StoreQueue, Window};
use sqip_types::{Seq, Ssn};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::pipeline::window::{RecordFeed, SeqRing};
use crate::pipeline::{StepOutcome, WATCHDOG_CYCLES};
use crate::policy::{BuiltinPolicy, DesignCaps};
use crate::stats::SimStats;

pub(crate) use structs::{fits_near, InstSlab, NearRing, ReadyLanes, Take, WaiterRing};
pub use wheel::{EventWheel, WheelEvent};

/// Scheduling-cost counters for the event engine, read through
/// [`Processor::sched_counters`](crate::Processor::sched_counters).
///
/// These are diagnostic state: absent from [`SimStats`], absent from
/// snapshots (a restore resets them), and therefore incapable of
/// perturbing bit-identity. The perf bin divides them by the committed
/// instruction count to report hardware-portable scheduling costs.
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

mod commit;
mod frontend;
mod lsq;
mod schedule;

/// Why the rename stage stopped in the last active cycle — the engine's
/// skip-ahead oracle for the rename/fetch front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RenameStop {
    /// Nothing fetched ahead of rename.
    FrontEmpty,
    /// The front instruction becomes rename-eligible at this cycle.
    NotReady(u64),
    /// Blocked on a structural resource (ROB/IQ/LQ/SQ space, SSN drain)
    /// that only a commit, an issue or a flush can free — all of which
    /// have their own skip-ahead candidates.
    Structural,
    /// Consumed its full width (or ran before ever being invoked); more
    /// work is possible on the very next cycle.
    Width,
}

/// The event-driven core. See the module docs; the public entry point is
/// [`Processor`](crate::Processor), which dispatches between this and the
/// reference engine on [`SimConfig::engine`].
pub(crate) struct EventCore<'t> {
    pub(crate) cfg: SimConfig,
    /// The record stream and its window of in-flight records.
    pub(crate) feed: RecordFeed<'t>,

    pub(crate) cycle: u64,
    pub(crate) incarnation: u64,
    pub(crate) last_commit_cycle: u64,

    // ---- front end ----
    pub(crate) fetch_idx: usize,
    pub(crate) fetch_stall_until: u64,
    /// Mispredicted branch whose resolution fetch is waiting for.
    pub(crate) pending_redirect: Option<Seq>,
    /// Fetched instructions awaiting rename: (seq, rename-eligible cycle,
    /// fetch-time path history snapshot).
    pub(crate) front_q: std::collections::VecDeque<(Seq, u64, u64)>,
    /// Branch-outcome path history at fetch (for path-qualified FSP).
    pub(crate) path_history: u64,
    /// Skip-ahead record of why rename stopped last cycle.
    pub(crate) rename_stop: RenameStop,

    // ---- rename ----
    pub(crate) ssn_ren: Ssn,
    pub(crate) rename_map: [Option<Seq>; sqip_isa::NUM_REGS],
    pub(crate) committed_regs: [u64; sqip_isa::NUM_REGS],
    /// Waiting for the ROB to drain before wrapping the SSN space.
    pub(crate) draining_for_wrap: bool,

    // ---- backend ----
    pub(crate) rob: Window<Seq>,
    pub(crate) insts: InstSlab,
    pub(crate) iq_count: usize,
    pub(crate) ready_q: ReadyLanes,
    pub(crate) wheel: EventWheel,
    /// Short-horizon value broadcasts (the issue-time common case),
    /// fused off the wheel. Same liveness contract as a wheel
    /// `Broadcast`: survives flushes, fires even for squashed producers
    /// (the drain is a no-op once the waiter ring was cleared).
    pub(crate) near: NearRing<u64>,
    /// Pending executions `(seq, incarnation)`, fused off the wheel —
    /// always due `issue_to_exec` cycles out, well inside the ring span
    /// (`issue_to_exec = 0` requests the *current* cycle and takes the
    /// wheel's past-event clamping path instead). Survives flushes like
    /// a wheel `Exec`; the dispatcher's incarnation check drops stale
    /// entries.
    pub(crate) near_execs: NearRing<(u64, u64)>,
    /// Speculative store wakes `(due cycle, store SSN)`, fused off the
    /// wheel. Pushed only by the issue stage at `cycle + 1`, with
    /// same-cycle stores issuing oldest-first, so the queue is sorted by
    /// `(due, ssn)` — exactly the wheel's `StoreWake` drain order.
    pub(crate) store_wakes: std::collections::VecDeque<(u64, u64)>,
    /// Recycled buffer for draining a near-broadcast slot.
    near_scratch: Vec<u64>,
    /// Recycled buffer for draining a near-exec slot.
    near_exec_scratch: Vec<(u64, u64)>,
    /// Producer seq -> consumers waiting for its wakeup broadcast.
    pub(crate) wake_on_value: WaiterRing,
    /// Store SSN -> loads waiting for it to execute (forwarding
    /// dependence). Drained speculatively when the store issues
    /// (StoreWake).
    pub(crate) wake_on_store_exec: WaiterRing,
    /// Store SSN -> loads that already replayed once chasing this store;
    /// drained only when the store actually executes (no more speculative
    /// wakes, breaking replay cascades).
    pub(crate) wake_on_store_exec_strict: WaiterRing,
    /// Store SSN -> loads waiting for it to commit (delay / partial
    /// hit). A ring suffices where the reference engine uses an ordered
    /// map: SSNs commit densely and in order, so a committing store can
    /// only ever release waiters registered under its *own* SSN (any
    /// smaller key was drained at that store's earlier commit).
    pub(crate) wake_on_store_commit: WaiterRing,
    /// Recycled buffer for draining waiter lists.
    wake_scratch: Vec<u64>,
    /// Recycled buffer for issue selection (no per-cycle allocation).
    pub(crate) issue_scratch: Vec<u64>,

    // ---- scheduling-cost instrumentation (diagnostic: not serialised,
    // not in SimStats; see SchedCounters) ----
    /// Executions + broadcasts + store wakes scheduled off-wheel.
    pub(crate) near_ops: u64,
    /// Value broadcasts delivered.
    pub(crate) broadcasts: u64,
    /// Value broadcasts cancelled (the producer was certain to replay).
    pub(crate) cancelled_broadcasts: u64,
    /// Ready-lane tail peeks during issue selection.
    pub(crate) ready_touches: u64,
    /// Active cycles simulated (steps that ran the stages).
    pub(crate) steps: u64,

    // ---- dense per-seq value state (survives commit; slots reset as
    // their sequence numbers re-enter rename) ----
    pub(crate) vals: SeqRing,

    // ---- memory system ----
    pub(crate) sq: StoreQueue,
    pub(crate) lq: LoadQueue,
    pub(crate) hierarchy: Hierarchy,
    pub(crate) commit_mem: MemImage,
    pub(crate) ssn_cmt: Ssn,

    // ---- design policy + design-independent branch prediction ----
    /// The store-queue design under test: predictor state + decisions at
    /// the five pipeline touch-points.
    pub(crate) policy: BuiltinPolicy,
    /// The policy's capabilities, cached at construction for hot paths.
    pub(crate) caps: DesignCaps,
    pub(crate) bp: BranchPredictor,

    pub(crate) stats: SimStats,
}

impl<'t> EventCore<'t> {
    pub(crate) fn new_unchecked(cfg: SimConfig, source: impl TraceSource + 't) -> EventCore<'t> {
        let caps = cfg.design.caps();
        let policy = BuiltinPolicy::new(caps, &cfg);
        EventCore {
            feed: RecordFeed::new(&cfg, source),
            cycle: 0,
            incarnation: 0,
            last_commit_cycle: 0,
            fetch_idx: 0,
            fetch_stall_until: 0,
            pending_redirect: None,
            front_q: std::collections::VecDeque::new(),
            path_history: 0,
            rename_stop: RenameStop::Width,
            ssn_ren: Ssn::NONE,
            rename_map: [None; sqip_isa::NUM_REGS],
            committed_regs: [0; sqip_isa::NUM_REGS],
            draining_for_wrap: false,
            rob: Window::new(cfg.rob_size),
            insts: InstSlab::new(cfg.rob_size),
            iq_count: 0,
            ready_q: ReadyLanes::default(),
            wheel: EventWheel::new(),
            near: NearRing::new(),
            near_execs: NearRing::new(),
            store_wakes: std::collections::VecDeque::new(),
            near_scratch: Vec::new(),
            near_exec_scratch: Vec::new(),
            wake_on_value: WaiterRing::new(2 * cfg.rob_size + 4 * cfg.fetch_width + 64),
            wake_on_store_exec: WaiterRing::new(2 * cfg.sq_size + 64),
            wake_on_store_exec_strict: WaiterRing::new(2 * cfg.sq_size + 64),
            wake_on_store_commit: WaiterRing::new(2 * cfg.sq_size + 64),
            wake_scratch: Vec::new(),
            issue_scratch: Vec::new(),
            near_ops: 0,
            broadcasts: 0,
            cancelled_broadcasts: 0,
            ready_touches: 0,
            steps: 0,
            vals: SeqRing::new(cfg.rob_size, cfg.fetch_width),
            sq: StoreQueue::new(cfg.sq_size),
            lq: LoadQueue::new(cfg.lq_size),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            commit_mem: MemImage::new(),
            ssn_cmt: Ssn::NONE,
            bp: BranchPredictor::new(cfg.branch),
            policy,
            caps,
            stats: SimStats::default(),
            cfg,
        }
    }

    /// Advances to the next cycle with work, capped at `limit`, and
    /// simulates it.
    ///
    /// The engine's one step = the reference engine's `1 + k` steps,
    /// where `k` is the number of provably idle cycles jumped over. The
    /// cap lets callers land exactly on observer interval boundaries or
    /// `run_until` limits; it never affects results, because a capped
    /// landing cycle is by construction idle.
    pub(crate) fn step_bounded(&mut self, limit: u64) -> Result<StepOutcome, SimError> {
        if self.feed.is_done(self.stats.committed) {
            self.stats.sync(self.cycle, &self.hierarchy);
            return Ok(StepOutcome::Done);
        }
        let watchdog = self.last_commit_cycle + WATCHDOG_CYCLES;
        let target = self.next_active_cycle().min(limit).min(watchdog);
        self.cycle = target.max(self.cycle + 1);
        self.steps += 1;

        self.commit_stage();
        self.process_events();
        self.issue_stage();
        self.rename_stage();
        self.fetch_stage();
        self.stats.sync(self.cycle, &self.hierarchy);
        self.feed.check()?;
        if self.feed.is_done(self.stats.committed) {
            return Ok(StepOutcome::Done);
        }
        if self.cycle - self.last_commit_cycle >= WATCHDOG_CYCLES {
            return Err(self.deadlock_error());
        }
        Ok(StepOutcome::Running)
    }

    /// The earliest future cycle at which any stage could possibly do
    /// work, assuming no stage acts before it (self-consistent: machine
    /// state only changes inside stages).
    ///
    /// Candidates may be conservative (waking early onto a cycle where a
    /// stage then does nothing is harmless); they must never be late.
    fn next_active_cycle(&self) -> u64 {
        let floor = self.cycle + 1;
        // Issue: leftover ready instructions select again immediately.
        if !self.ready_q.is_empty() {
            return floor;
        }
        let mut next = u64::MAX;
        // Events: wakeups, latencies, execute-stage entries — on the
        // wheel or the fused near structures. All four must feed the
        // bound: skipping past a due event would deliver it late.
        if let Some(at) = self.wheel.next_at() {
            next = next.min(at.max(floor));
        }
        if let Some(at) = self.near.next_at() {
            next = next.min(at.max(floor));
        }
        if let Some(at) = self.near_execs.next_at() {
            next = next.min(at.max(floor));
        }
        if let Some(&(due, _)) = self.store_wakes.front() {
            next = next.min(due.max(floor));
        }
        // Commit: a completed ROB head commits at its eligibility cycle.
        // (A non-completed head progresses via events, covered above.)
        if let Some(&head) = self.rob.front() {
            if let Some(inst) = self.insts.get(head.0) {
                if inst.state == crate::dyninst::InstState::Done {
                    next = next.min(inst.commit_eligible.max(floor));
                }
            }
        }
        // Rename: keyed off why it stopped last cycle. Structural stalls
        // are freed only by commits/issues/flushes, which have their own
        // candidates and run before rename within a step. A `FrontEmpty`
        // stop is refreshed against the live queue, because fetch runs
        // *after* rename within a step and may have refilled it.
        match self.rename_stop {
            RenameStop::Width => next = next.min(floor),
            RenameStop::NotReady(at) => next = next.min(at.max(floor)),
            RenameStop::FrontEmpty => {
                if let Some(&(_, ready_at, _)) = self.front_q.front() {
                    next = next.min(ready_at.max(floor));
                }
            }
            RenameStop::Structural => {}
        }
        // Fetch: works every cycle it is neither stalled, redirected,
        // out of records, nor out of frontend space.
        if self.feed.can_fill(self.fetch_idx)
            && self.pending_redirect.is_none()
            && self.front_q.len() < self.front_cap()
        {
            next = next.min(self.fetch_stall_until.max(floor));
        }
        next
    }

    /// Frontend queue capacity. One definition serves both the fetch
    /// stage and the skip-ahead fetch predicate — they must agree, or
    /// skip-ahead would jump over cycles where fetch has work.
    #[inline]
    pub(crate) fn front_cap(&self) -> usize {
        self.cfg.fetch_width * 4
    }

    fn deadlock_error(&self) -> SimError {
        let head = self.rob.front().map(|&s| {
            let i = self.insts.get(s.0).expect("ROB head in flight");
            format!(
                "head {} op={} state={:?} gates={} fwd={} dly={} wait_exec={:?} prev={} ssn_cmt={}",
                s.0,
                self.rec(s).op,
                i.state,
                i.gates,
                i.ssn_fwd,
                i.ssn_dly,
                i.wait_exec_ssn,
                i.prev_store_ssn,
                self.ssn_cmt
            )
        });
        SimError::Deadlock {
            cycle: self.cycle,
            committed: self.stats.committed,
            detail: format!(
                "fetch_idx {}, rob {}, iq {}, head {:?}",
                self.fetch_idx,
                self.rob.len(),
                self.iq_count,
                head
            ),
        }
    }

    pub(crate) fn rec(&self, seq: Seq) -> &TraceRecord {
        self.feed.window.rec(seq)
    }

    /// Scheduling-cost counters accumulated since construction (or the
    /// last snapshot restore).
    pub(crate) fn sched_counters(&self) -> SchedCounters {
        SchedCounters {
            wheel_ops: self.wheel.ops(),
            near_ops: self.near_ops,
            broadcasts: self.broadcasts,
            cancelled_broadcasts: self.cancelled_broadcasts,
            ready_touches: self.ready_touches,
            steps: self.steps,
        }
    }

    /// Drains `ring`'s waiters for `key` and wakes each one, in push
    /// order. A single waiter is taken in place; longer lists drain into
    /// a scratch buffer recycled across calls, so neither path allocates.
    pub(crate) fn wake_all(&mut self, ring: WakeRing, key: u64) {
        match self.waiters(ring).take_single(key) {
            Take::Empty => {} // nobody registered — the common case
            Take::One(w) => self.wake_one(w, false),
            Take::Many => {
                let mut scratch = std::mem::take(&mut self.wake_scratch);
                debug_assert!(scratch.is_empty());
                self.waiters(ring).remove_into(key, &mut scratch);
                for w in scratch.drain(..) {
                    self.wake_one(w, false);
                }
                self.wake_scratch = scratch;
            }
        }
    }

    fn waiters(&mut self, ring: WakeRing) -> &mut WaiterRing {
        match ring {
            WakeRing::Value => &mut self.wake_on_value,
            WakeRing::StoreExec => &mut self.wake_on_store_exec,
            WakeRing::StoreExecStrict => &mut self.wake_on_store_exec_strict,
        }
    }
}

/// Which waiter ring [`EventCore::wake_all`] drains.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WakeRing {
    Value,
    StoreExec,
    StoreExecStrict,
}

impl EventCore<'_> {
    /// Serialises the engine state (everything except `cfg` and the
    /// source, which the checkpoint container carries separately).
    pub(crate) fn save_state(
        &self,
        w: &mut sqip_snapshot::SnapWriter,
    ) -> Result<(), sqip_snapshot::SnapError> {
        use sqip_snapshot::Snapshot as _;
        self.feed.save(w)?;
        self.cycle.save(w)?;
        self.incarnation.save(w)?;
        self.last_commit_cycle.save(w)?;
        self.fetch_idx.save(w)?;
        self.fetch_stall_until.save(w)?;
        self.pending_redirect.save(w)?;
        self.front_q.save(w)?;
        self.path_history.save(w)?;
        self.rename_stop.save(w)?;
        self.ssn_ren.save(w)?;
        self.rename_map.save(w)?;
        self.committed_regs.save(w)?;
        self.draining_for_wrap.save(w)?;
        self.rob.save(w)?;
        self.insts.save(w)?;
        self.iq_count.save(w)?;
        self.ready_q.save(w)?;
        self.wheel.save(w)?;
        self.near.save(w)?;
        self.near_execs.save(w)?;
        self.store_wakes.save(w)?;
        self.wake_on_value.save(w)?;
        self.wake_on_store_exec.save(w)?;
        self.wake_on_store_exec_strict.save(w)?;
        self.wake_on_store_commit.save(w)?;
        self.vals.save(w)?;
        self.sq.save(w)?;
        self.lq.save(w)?;
        self.hierarchy.save(w)?;
        self.commit_mem.save(w)?;
        self.ssn_cmt.save(w)?;
        self.policy.save(w)?;
        self.bp.save(w)?;
        self.stats.save(w)
    }

    /// Overwrites a freshly constructed engine with checkpointed state
    /// (the mirror of [`EventCore::save_state`]).
    pub(crate) fn load_state(
        &mut self,
        r: &mut sqip_snapshot::SnapReader,
    ) -> Result<(), sqip_snapshot::SnapError> {
        use sqip_snapshot::Snapshot as _;
        self.feed.load(r)?;
        self.cycle = u64::load(r)?;
        self.incarnation = u64::load(r)?;
        self.last_commit_cycle = u64::load(r)?;
        self.fetch_idx = usize::load(r)?;
        self.fetch_stall_until = u64::load(r)?;
        self.pending_redirect = Option::<Seq>::load(r)?;
        self.front_q = std::collections::VecDeque::<(Seq, u64, u64)>::load(r)?;
        self.path_history = u64::load(r)?;
        self.rename_stop = RenameStop::load(r)?;
        self.ssn_ren = Ssn::load(r)?;
        self.rename_map = <[Option<Seq>; sqip_isa::NUM_REGS]>::load(r)?;
        self.committed_regs = <[u64; sqip_isa::NUM_REGS]>::load(r)?;
        self.draining_for_wrap = bool::load(r)?;
        self.rob = Window::<Seq>::load(r)?;
        self.insts = InstSlab::load(r)?;
        self.insts.rebuild_record_cache(&self.feed.window);
        self.iq_count = usize::load(r)?;
        self.ready_q = ReadyLanes::load(r)?;
        self.ready_q
            .rebuild_classes(|s| self.feed.window.rec(Seq(s)).op.class());
        self.wheel = EventWheel::load(r)?;
        self.near = NearRing::<u64>::load(r)?;
        self.near_execs = NearRing::<(u64, u64)>::load(r)?;
        self.store_wakes = std::collections::VecDeque::<(u64, u64)>::load(r)?;
        self.wake_on_value = WaiterRing::load(r)?;
        self.wake_on_store_exec = WaiterRing::load(r)?;
        self.wake_on_store_exec_strict = WaiterRing::load(r)?;
        self.wake_on_store_commit = WaiterRing::load(r)?;
        self.vals = SeqRing::load(r)?;
        self.sq = StoreQueue::load(r)?;
        self.lq = LoadQueue::load(r)?;
        for (pos, entry) in self.lq.iter().enumerate() {
            let inst = self.insts.get_mut(entry.seq.0).ok_or_else(|| {
                sqip_snapshot::SnapError::Corrupt(format!(
                    "load queue entry {} is not in flight",
                    entry.seq.0
                ))
            })?;
            inst.lq_id = self.lq.head_id() + pos as u64;
        }
        self.hierarchy = Hierarchy::load(r)?;
        self.commit_mem = MemImage::load(r)?;
        self.ssn_cmt = Ssn::load(r)?;
        self.policy = BuiltinPolicy::load_for(r, &self.cfg)?;
        self.bp = BranchPredictor::load(r)?;
        self.stats = SimStats::load(r)?;
        self.wake_scratch.clear();
        self.issue_scratch.clear();
        self.near_scratch.clear();
        self.near_exec_scratch.clear();
        // Diagnostic counters restart at zero, like the wheel's.
        self.near_ops = 0;
        self.broadcasts = 0;
        self.cancelled_broadcasts = 0;
        self.ready_touches = 0;
        self.steps = 0;
        Ok(())
    }
}

impl sqip_snapshot::Snapshot for RenameStop {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        match self {
            RenameStop::FrontEmpty => w.put_u8(0),
            RenameStop::NotReady(cy) => {
                w.put_u8(1);
                w.put_u64(*cy);
            }
            RenameStop::Structural => w.put_u8(2),
            RenameStop::Width => w.put_u8(3),
        }
        Ok(())
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<RenameStop, sqip_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(RenameStop::FrontEmpty),
            1 => Ok(RenameStop::NotReady(r.get_u64()?)),
            2 => Ok(RenameStop::Structural),
            3 => Ok(RenameStop::Width),
            t => Err(sqip_snapshot::SnapError::Corrupt(format!(
                "rename-stop tag {t}"
            ))),
        }
    }
}
