//! The pipeline, written once over a [`Scheduler`].
//!
//! [`Pipeline`] holds the machine state both engines share — front end,
//! rename map, ROB, store and load queues, memory, the design policy,
//! branch predictor, statistics, the value ring and the record feed —
//! and runs every stage on it:
//!
//! * fetch with branch prediction, and rename with gate arming
//!   (`frontend`);
//! * execution, the policy's SQ probe and the LQ-CAM check (`lsq`);
//! * issue after selection, completion, replay, wakeups and the
//!   broadcast cancel rule (`schedule`);
//! * the SVW commit check, retire, squash and flush (`commit`);
//! * the per-step stage order, the deadlock report, and save/load of
//!   the shared state (here).
//!
//! A [`Scheduler`] supplies only how instructions wait, wake and issue:
//! the in-flight instruction table, the ready set and issue selection,
//! event delivery, the four waiter lists, and how far one step moves the
//! clock. Two implement it:
//!
//! * [`EventSched`](super::event::EventSched), the production
//!   scheduler: ring-indexed slabs, ready lanes, near rings and an event
//!   wheel, and idle-cycle skip-ahead;
//! * [`RefSched`](super::reference::RefSched), the reference: a
//!   `HashMap`, a scanned `BTreeSet`, one `BinaryHeap` and one cycle per
//!   step — simple enough to audit, and the differential anchor for
//!   everything the event scheduler does differently.
//!
//! `Pipeline<'t, S>` is monomorphised per scheduler: no trait object
//! sits on the hot path.

mod commit;
mod frontend;
mod lsq;
mod schedule;

use std::collections::VecDeque;

use sqip_isa::{OpClass, TraceRecord, TraceSource};
use sqip_mem::{Hierarchy, MemImage};
use sqip_predictors::BranchPredictor;
use sqip_queues::{LoadQueue, StoreQueue, Window};
use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot as _};
use sqip_types::{Seq, Ssn};

use crate::config::{IssueMix, SimConfig};
use crate::dyninst::DynInst;
use crate::engine::SchedCounters;
use crate::error::SimError;
use crate::pipeline::window::{RecordFeed, SeqRing};
use crate::pipeline::{EvKind, StepOutcome, WATCHDOG_CYCLES};
use crate::policy::{BuiltinPolicy, DesignCaps};
use crate::stats::SimStats;

pub(crate) use frontend::RenameStop;

/// Which of the four waiter lists a wait or a wake names. The
/// declaration order is the order both schedulers snapshot the lists in
/// (and index them by).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitList {
    /// Producer seq -> consumers waiting for its wakeup broadcast.
    Value,
    /// Store SSN -> loads waiting for it to execute (forwarding
    /// dependence). Drained speculatively when the store issues
    /// (`StoreWake`).
    StoreExec,
    /// Store SSN -> loads that already replayed once chasing this store;
    /// drained only when the store actually executes (no more
    /// speculative wakes, breaking replay cascades).
    StoreExecStrict,
    /// Store SSN -> loads waiting for it to commit (delay / partial
    /// hit). A committing store releases every key up to its own SSN.
    StoreCommit,
}

/// What a scheduler found when asked for the waiters a key releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Take {
    /// No waiters: nothing was taken.
    Empty,
    /// Exactly this one waiter, now taken.
    One(u64),
    /// Two or more waiters, left in place for
    /// [`Scheduler::drain_waiters`].
    Many,
}

/// How instructions wait, wake and issue: everything the two engines do
/// differently. The pipeline's stages call these; see the module docs.
pub(crate) trait Scheduler: Sized {
    fn new(cfg: &SimConfig) -> Self;

    // ---- the in-flight instruction table (live keys = ROB contents) ----
    fn inst(&self, seq: u64) -> Option<&DynInst>;
    fn inst_mut(&mut self, seq: u64) -> Option<&mut DynInst>;
    /// Inserts a renamed instruction (replacing a squashed tenant).
    fn insert(&mut self, inst: DynInst);
    fn remove(&mut self, seq: u64);

    // ---- the ready set and issue selection ----
    fn make_ready(&mut self, seq: u64, class: OpClass);
    /// Moves this cycle's issue selection into `out`, oldest first:
    /// ready instructions in seq order, each taking one unit of its
    /// port's budget and of the total; one whose port is spent stays
    /// ready without using the total.
    fn select(&mut self, mix: IssueMix, out: &mut Vec<u64>);
    /// Drops every ready seq at or younger than `from` (a squash).
    fn squash_ready(&mut self, from: u64);

    // ---- events ----
    /// Schedules `kind` for `seq` (a store SSN for `StoreWake`) under
    /// incarnation `inc` at cycle `at`, seen from cycle `now`. An event
    /// due at or before `now` fires on the next delivery, ahead of the
    /// events requested for it.
    fn schedule(&mut self, now: u64, at: u64, kind: EvKind, seq: u64, inc: u64);
    /// Schedules one of the issue stage's per-instruction events (the
    /// execute, the value broadcast, a store's speculative wake): the
    /// common case, which a scheduler may keep off its general queue.
    fn schedule_issue(&mut self, now: u64, at: u64, kind: EvKind, seq: u64, inc: u64) {
        self.schedule(now, at, kind, seq, inc);
    }
    /// Delivers every event due at `p.cycle` through
    /// [`Pipeline::deliver`] (or its parts), in the order of one heap of
    /// `(cycle, kind, seq, inc)` keys.
    fn process_events(p: &mut Pipeline<'_, Self>);

    // ---- waiter lists ----
    fn wait(&mut self, list: WaitList, key: u64, waiter: u64);
    fn has_waiters(&self, list: WaitList, key: u64) -> bool;
    /// Takes the waiters `key` releases from `list` if that is exactly
    /// one waiter; reports `Many` (taking nothing) for more.
    fn take_waiters(&mut self, list: WaitList, key: u64) -> Take;
    /// Moves the waiters `key` releases from `list` into `out`, in the
    /// order they waited.
    fn drain_waiters(&mut self, list: WaitList, key: u64, out: &mut Vec<u64>);
    /// A full pipeline flush: empties the table, the ready set and every
    /// waiter list. Scheduled events stay; stale ones die on delivery.
    fn flush(&mut self);

    // ---- stepping ----
    /// Moves `p.cycle` to the cycle the next step simulates: at least
    /// one cycle on, never past `limit` unless that is the next cycle.
    fn advance(p: &mut Pipeline<'_, Self>, limit: u64);
    /// Why this cycle's rename stopped (skip-ahead input).
    fn rename_stopped(&mut self, _stop: RenameStop) {}
    /// Notes one value broadcast, delivered or cancelled.
    fn count_broadcast(&mut self, _cancelled: bool) {}
    /// Scheduling-cost counters, for a scheduler that keeps them.
    fn counters(&self) -> Option<SchedCounters> {
        None
    }

    // ---- snapshots: the scheduler's parts of the layout ----
    /// Written after the front end's fields.
    fn save_front(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Ok(())
    }
    fn load_front(&mut self, _r: &mut SnapReader) -> Result<(), SnapError> {
        Ok(())
    }
    /// The in-flight table, written after the ROB.
    fn save_insts(&self, w: &mut SnapWriter) -> Result<(), SnapError>;
    fn load_insts(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
    /// The ready set, events and waiter lists, written after the issue
    /// queue count.
    fn save_queues(&self, w: &mut SnapWriter) -> Result<(), SnapError>;
    fn load_queues(p: &mut Pipeline<'_, Self>, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// One simulated machine over scheduler `S`. See the module docs; the
/// public entry point is [`Processor`](crate::Processor), which picks
/// the scheduler from [`SimConfig::engine`].
pub(crate) struct Pipeline<'t, S> {
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
    pub(crate) front_q: VecDeque<(Seq, u64, u64)>,
    /// Branch-outcome path history at fetch (for path-qualified FSP).
    pub(crate) path_history: u64,

    // ---- rename ----
    pub(crate) ssn_ren: Ssn,
    pub(crate) rename_map: [Option<Seq>; sqip_isa::NUM_REGS],
    pub(crate) committed_regs: [u64; sqip_isa::NUM_REGS],
    /// Waiting for the ROB to drain before wrapping the SSN space.
    pub(crate) draining_for_wrap: bool,

    // ---- backend ----
    pub(crate) rob: Window<Seq>,
    pub(crate) iq_count: usize,
    /// How instructions wait, wake and issue.
    pub(crate) sched: S,
    /// Recycled buffer for draining waiter lists.
    wake_scratch: Vec<u64>,
    /// Recycled buffer for issue selection (no per-cycle allocation).
    issue_scratch: Vec<u64>,

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

impl<'t, S: Scheduler> Pipeline<'t, S> {
    pub(crate) fn new_unchecked(cfg: SimConfig, source: impl TraceSource + 't) -> Pipeline<'t, S> {
        let caps = cfg.design.caps();
        Pipeline {
            feed: RecordFeed::new(&cfg, source),
            cycle: 0,
            incarnation: 0,
            last_commit_cycle: 0,
            fetch_idx: 0,
            fetch_stall_until: 0,
            pending_redirect: None,
            front_q: VecDeque::new(),
            path_history: 0,
            ssn_ren: Ssn::NONE,
            rename_map: [None; sqip_isa::NUM_REGS],
            committed_regs: [0; sqip_isa::NUM_REGS],
            draining_for_wrap: false,
            rob: Window::new(cfg.rob_size),
            iq_count: 0,
            sched: S::new(&cfg),
            wake_scratch: Vec::new(),
            issue_scratch: Vec::new(),
            vals: SeqRing::new(cfg.rob_size, cfg.fetch_width),
            sq: StoreQueue::new(cfg.sq_size),
            lq: LoadQueue::new(cfg.lq_size),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            commit_mem: MemImage::new(),
            ssn_cmt: Ssn::NONE,
            bp: BranchPredictor::new(cfg.branch),
            policy: BuiltinPolicy::new(caps, &cfg),
            caps,
            stats: SimStats::default(),
            cfg,
        }
    }

    /// Simulates one step: the scheduler picks the cycle (the next one,
    /// or under skip-ahead the next one with work, capped at `limit`),
    /// then every stage runs once, commit first and fetch last.
    ///
    /// Returns [`StepOutcome::Done`] once the whole trace has committed
    /// (further calls are no-ops that keep returning `Done`).
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if no instruction has committed for an
    /// implausibly long time — a simulator bug, not a program property —
    /// and [`SimError::TraceSource`] if the trace source fails mid-stream
    /// (I/O error, corrupt trace file, interpreter fault).
    // Out of line: inlined, both schedulers' steps land in one
    // `Processor::step_bounded` body, and the event engine measured
    // about 3% slower on mixes.
    #[inline(never)]
    pub(crate) fn step_bounded(&mut self, limit: u64) -> Result<StepOutcome, SimError> {
        if self.feed.is_done(self.stats.committed) {
            self.stats.sync(self.cycle, &self.hierarchy);
            return Ok(StepOutcome::Done);
        }
        S::advance(self, limit);

        // Per-cycle stage entries, inlined into the step. To time the
        // stages apart, mark them `#[inline(never)]` in a local
        // profiling build.
        self.commit_stage();
        S::process_events(self);
        self.issue_stage();
        let stop = self.rename_stage();
        self.sched.rename_stopped(stop);
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

    /// Frontend queue capacity. One definition serves both the fetch
    /// stage and the skip-ahead fetch predicate — they must agree, or
    /// skip-ahead would jump over cycles where fetch has work.
    #[inline]
    pub(crate) fn front_cap(&self) -> usize {
        self.cfg.fetch_width * 4
    }

    fn deadlock_error(&self) -> SimError {
        let head = self.rob.front().map(|&s| {
            let i = self.sched.inst(s.0).expect("ROB head in flight");
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

    /// Serialises the machine state (everything except `cfg` and the
    /// source, which the checkpoint container carries separately), with
    /// the scheduler's parts at their places in the layout.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.feed.save(w)?;
        self.cycle.save(w)?;
        self.incarnation.save(w)?;
        self.last_commit_cycle.save(w)?;
        self.fetch_idx.save(w)?;
        self.fetch_stall_until.save(w)?;
        self.pending_redirect.save(w)?;
        self.front_q.save(w)?;
        self.path_history.save(w)?;
        self.sched.save_front(w)?;
        self.ssn_ren.save(w)?;
        self.rename_map.save(w)?;
        self.committed_regs.save(w)?;
        self.draining_for_wrap.save(w)?;
        self.rob.save(w)?;
        self.sched.save_insts(w)?;
        self.iq_count.save(w)?;
        self.sched.save_queues(w)?;
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

    /// Overwrites a freshly constructed pipeline with checkpointed state
    /// (the mirror of [`Pipeline::save_state`]), then rebuilds the
    /// derived per-instruction state a snapshot does not carry: each
    /// in-flight instruction's cached record facts and each load's
    /// load-queue id.
    pub(crate) fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.feed.load(r)?;
        self.cycle = u64::load(r)?;
        self.incarnation = u64::load(r)?;
        self.last_commit_cycle = u64::load(r)?;
        self.fetch_idx = usize::load(r)?;
        self.fetch_stall_until = u64::load(r)?;
        self.pending_redirect = Option::<Seq>::load(r)?;
        self.front_q = VecDeque::<(Seq, u64, u64)>::load(r)?;
        self.path_history = u64::load(r)?;
        self.sched.load_front(r)?;
        self.ssn_ren = Ssn::load(r)?;
        self.rename_map = <[Option<Seq>; sqip_isa::NUM_REGS]>::load(r)?;
        self.committed_regs = <[u64; sqip_isa::NUM_REGS]>::load(r)?;
        self.draining_for_wrap = bool::load(r)?;
        self.rob = Window::<Seq>::load(r)?;
        self.sched.load_insts(r)?;
        for &seq in self.rob.iter() {
            let inst = self.sched.inst_mut(seq.0).ok_or_else(|| {
                SnapError::Corrupt(format!("ROB entry {} is not in flight", seq.0))
            })?;
            let rec = self.feed.window.rec(seq);
            inst.op_class = rec.op.class();
            inst.has_dst = rec.dst.is_some();
        }
        self.iq_count = usize::load(r)?;
        S::load_queues(self, r)?;
        self.vals = SeqRing::load(r)?;
        self.sq = StoreQueue::load(r)?;
        self.lq = LoadQueue::load(r)?;
        for (pos, entry) in self.lq.iter().enumerate() {
            let inst = self.sched.inst_mut(entry.seq.0).ok_or_else(|| {
                SnapError::Corrupt(format!("load queue entry {} is not in flight", entry.seq.0))
            })?;
            inst.lq_id = self.lq.head_id() + pos as u64;
        }
        self.hierarchy = Hierarchy::load(r)?;
        self.commit_mem = MemImage::load(r)?;
        self.ssn_cmt = Ssn::load(r)?;
        self.policy = BuiltinPolicy::load_for(r, &self.cfg)?;
        self.bp = BranchPredictor::load(r)?;
        self.stats = SimStats::load(r)?;
        Ok(())
    }
}
