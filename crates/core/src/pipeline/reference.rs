//! The **reference engine**: the straightforward per-cycle stepper the
//! event-driven engine (`super::event`) was derived from, frozen here as
//! the differential-testing baseline.
//!
//! Every stage below is a verbatim copy of the pre-event-engine pipeline:
//! in-flight instructions live in a `HashMap`, the ready set is a
//! `BTreeSet` scanned each cycle, wakeups and latencies sit in a
//! `BinaryHeap`, and [`RefCore::step`] advances exactly one cycle per
//! call whether or not any stage has work. It is deliberately *not*
//! optimised — its value is that it is simple enough to audit, and that
//! the event engine must reproduce its [`SimStats`](crate::SimStats)
//! bit-for-bit (pinned by the differential proptests in
//! `crates/core/tests/props.rs` and the golden fixture in
//! `crates/sqip/tests/golden_designs.rs`).
//!
//! Select it with [`Engine::Reference`](crate::Engine); the `perf` bin
//! (`crates/bench`) reports the two engines' relative throughput.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use sqip_isa::{IsaError, Op, OpClass, TraceRecord, TraceSource};
use sqip_mem::{Hierarchy, MemImage};
use sqip_predictors::BranchPredictor;
use sqip_queues::{LoadQueue, StoreQueue, Window};
use sqip_types::{Addr, DataSize, Seq, Ssn};

use crate::config::{OrderingMode, SimConfig};
use crate::dyninst::{DynInst, InstState, Operand};
use crate::error::SimError;
use crate::oracle::OracleBuilder;
use crate::pipeline::window::{RecordWindow, SeqRing};
use crate::pipeline::{EvKind, StepOutcome, NOT_READY, WATCHDOG_CYCLES};
use crate::policy::{BuiltinPolicy, DesignCaps, LoadCommitInfo, OracleHint, PipelineView, SqProbe};
use crate::stats::SimStats;

pub(crate) struct RefCore<'t> {
    pub(crate) cfg: SimConfig,
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
    /// Whether the source has returned `None`.
    source_done: bool,
    /// A source failure, held until [`RefCore::step`] surfaces it.
    source_error: Option<IsaError>,

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

    // ---- rename ----
    pub(crate) ssn_ren: Ssn,
    pub(crate) rename_map: [Option<Seq>; sqip_isa::NUM_REGS],
    pub(crate) committed_regs: [u64; sqip_isa::NUM_REGS],
    /// Waiting for the ROB to drain before wrapping the SSN space.
    pub(crate) draining_for_wrap: bool,

    // ---- backend ----
    pub(crate) rob: Window<Seq>,
    pub(crate) insts: HashMap<u64, DynInst>,
    pub(crate) iq_count: usize,
    pub(crate) ready_q: BTreeSet<u64>,
    pub(crate) events: BinaryHeap<Reverse<(u64, EvKind, u64, u64)>>,
    /// Producer seq -> consumers waiting for its wakeup broadcast.
    pub(crate) wake_on_value: HashMap<u64, Vec<u64>>,
    /// Store SSN -> loads waiting for it to execute (forwarding dependence).
    /// Drained speculatively when the store issues (StoreWake).
    pub(crate) wake_on_store_exec: HashMap<u64, Vec<u64>>,
    /// Store SSN -> loads that already replayed once chasing this store;
    /// drained only when the store actually executes (no more speculative
    /// wakes, breaking replay cascades).
    pub(crate) wake_on_store_exec_strict: HashMap<u64, Vec<u64>>,
    /// Store SSN -> loads waiting for it to commit (delay / partial hit).
    pub(crate) wake_on_store_commit: BTreeMap<u64, Vec<u64>>,

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

impl<'t> RefCore<'t> {
    pub(crate) fn new_unchecked(cfg: SimConfig, source: impl TraceSource + 't) -> RefCore<'t> {
        let caps = cfg.design.caps();
        let policy = BuiltinPolicy::new(caps, &cfg);
        RefCore {
            total_records: source.len_hint(),
            source: Box::new(source),
            window: RecordWindow::new(cfg.rob_size, cfg.fetch_width),
            oracle: OracleBuilder::new(),
            source_done: false,
            source_error: None,
            cycle: 0,
            incarnation: 0,
            last_commit_cycle: 0,
            fetch_idx: 0,
            fetch_stall_until: 0,
            pending_redirect: None,
            front_q: std::collections::VecDeque::new(),
            path_history: 0,
            ssn_ren: Ssn::NONE,
            rename_map: [None; sqip_isa::NUM_REGS],
            committed_regs: [0; sqip_isa::NUM_REGS],
            draining_for_wrap: false,
            rob: Window::new(cfg.rob_size),
            insts: HashMap::new(),
            iq_count: 0,
            ready_q: BTreeSet::new(),
            events: BinaryHeap::new(),
            wake_on_value: HashMap::new(),
            wake_on_store_exec: HashMap::new(),
            wake_on_store_exec_strict: HashMap::new(),
            wake_on_store_commit: BTreeMap::new(),
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

    /// Whether the whole record stream has committed. Until the source is
    /// exhausted (or declared an exact length up front) the total is
    /// unknown and this is `false`.
    #[must_use]
    pub(crate) fn total_records(&self) -> Option<u64> {
        self.total_records
    }

    pub(crate) fn is_done(&self) -> bool {
        self.total_records
            .is_some_and(|total| self.stats.committed >= total)
    }

    /// Records currently buffered between the commit point and the fetch
    /// frontier. Bounded by the machine's window (ROB + fetch-ahead), not
    /// by the input length — the memory-boundedness guarantee of the
    /// streaming input API, pinned by a regression test.
    #[must_use]
    pub(crate) fn buffered_records(&self) -> usize {
        self.window.len()
    }

    /// The current cycle number.
    #[must_use]
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The statistics accumulated so far. [`RefCore::step`] folds the
    /// cycle count and cache counters in after every cycle, so the view
    /// is consistent mid-run.
    #[must_use]
    pub(crate) fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The committed architectural value of register `r` (used by
    /// cross-design equivalence tests: every sound policy must retire the
    /// same architectural state).
    #[must_use]
    pub(crate) fn committed_reg(&self, r: sqip_isa::Reg) -> u64 {
        self.committed_regs[r.index()]
    }

    /// Reads the committed memory image — the architectural memory state
    /// built by retired stores.
    #[must_use]
    pub(crate) fn committed_mem(&self, addr: Addr, size: DataSize) -> u64 {
        self.commit_mem.read(addr, size)
    }

    /// Folds the hierarchy counters and cycle count into `stats` so the
    /// snapshot is consistent at any point of the run. Idempotent.
    pub(crate) fn sync_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.l1 = self.hierarchy.l1_stats();
        self.stats.l2 = self.hierarchy.l2_stats();
        self.stats.tlb = self.hierarchy.tlb_stats();
    }

    /// Simulates one cycle.
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
    pub(crate) fn step(&mut self) -> Result<StepOutcome, SimError> {
        if self.is_done() {
            self.sync_stats();
            return Ok(StepOutcome::Done);
        }
        self.cycle += 1;
        self.commit_stage();
        self.process_events();
        self.issue_stage();
        self.rename_stage();
        self.fetch_stage();
        self.sync_stats();
        if let Some(source) = &self.source_error {
            return Err(SimError::TraceSource {
                pulled: self.window.end(),
                detail: source.to_string(),
            });
        }
        if self.is_done() {
            return Ok(StepOutcome::Done);
        }
        if self.cycle - self.last_commit_cycle >= WATCHDOG_CYCLES {
            return Err(self.deadlock_error());
        }
        Ok(StepOutcome::Running)
    }

    fn deadlock_error(&self) -> SimError {
        let head = self.rob.front().map(|&s| {
            let i = &self.insts[&s.0];
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
        self.window.rec(seq)
    }

    /// The record at `fetch_idx`, pulling from the source as needed.
    /// Returns `None` when the stream is exhausted (or has failed — the
    /// error surfaces from [`RefCore::step`]).
    pub(crate) fn fetch_record(&mut self) -> Option<TraceRecord> {
        let seq = self.fetch_idx as u64;
        while seq >= self.window.end() {
            if self.source_done || self.source_error.is_some() {
                return None;
            }
            match self.source.next_record() {
                Ok(Some(mut rec)) => {
                    // Consumers own the numbering: records are sequential
                    // in pull order whatever the source put in `seq`.
                    rec.seq = Seq(self.window.end());
                    let fwd = self.oracle.ingest(&rec);
                    self.window.push(rec, fwd);
                }
                Ok(None) => {
                    self.source_done = true;
                    self.total_records = Some(self.window.end());
                    return None;
                }
                Err(e) => {
                    self.source_error = Some(e);
                    return None;
                }
            }
        }
        Some(*self.window.rec(Seq(seq)))
    }
}

impl RefCore<'_> {
    // ================================================================
    // Fetch
    // ================================================================

    pub(crate) fn fetch_stage(&mut self) {
        if self.cycle < self.fetch_stall_until || self.pending_redirect.is_some() {
            return;
        }
        let mut budget = self.cfg.fetch_width;
        let mut taken_seen = false;
        let front_cap = self.cfg.fetch_width * 4;
        while budget > 0 && self.front_q.len() < front_cap {
            // Pulls from the trace source on first fetch; squash re-fetches
            // replay out of the in-flight record window.
            let Some(rec) = self.fetch_record() else {
                break; // stream exhausted (or failed; step() surfaces it)
            };
            let seq = Seq(self.fetch_idx as u64);
            let mispredicted = self.predict_branch(&rec);
            self.front_q
                .push_back((seq, self.cycle + self.cfg.front_latency, self.path_history));
            if rec.op.is_conditional() {
                self.path_history = (self.path_history << 1) | u64::from(rec.taken);
            }
            self.fetch_idx += 1;
            budget -= 1;
            if mispredicted {
                self.pending_redirect = Some(seq);
                break;
            }
            if rec.taken {
                if taken_seen {
                    break; // at most one taken branch per fetch cycle
                }
                taken_seen = true;
            }
        }
    }

    /// Consults the branch predictor for a fetched record; returns whether
    /// fetch must stall for resolution (misprediction).
    ///
    /// Tables and history are trained here, at fetch, rather than at
    /// execute: with oracle-path fetch the outcome is already known, and
    /// fetch-time training makes predictor accuracy a pure function of the
    /// fetch sequence instead of execution timing, so store-queue designs
    /// are compared under identical front-end behaviour.
    fn predict_branch(&mut self, rec: &TraceRecord) -> bool {
        match rec.op {
            Op::BranchZ | Op::BranchNZ => {
                let pred = self.bp.predict_conditional(rec.pc);
                let mis = pred.taken != rec.taken; // direct targets resolve at decode
                self.stats.branch_mispredicts += u64::from(mis);
                self.bp.update(rec.pc, true, rec.taken, rec.next_pc);
                mis
            }
            Op::Call => {
                let _ = self.bp.predict_unconditional(rec.pc, true);
                false
            }
            Op::Jump => false,
            Op::Ret => {
                let pred = self.bp.predict_return(rec.pc);
                let mis = pred.target != Some(rec.next_pc);
                self.stats.return_mispredicts += u64::from(mis);
                mis
            }
            _ => false,
        }
    }

    // ================================================================
    // Rename
    // ================================================================

    pub(crate) fn rename_stage(&mut self) {
        for _ in 0..self.cfg.rename_width {
            let Some(&(seq, ready_at, path)) = self.front_q.front() else {
                break;
            };
            if ready_at > self.cycle || self.rob.is_full() || self.iq_count >= self.cfg.iq_size {
                break;
            }
            let rec = *self.rec(seq);
            if rec.is_load() && self.lq.is_full() {
                break;
            }
            if rec.is_store() {
                if self.sq.is_full() {
                    break;
                }
                // SSN wrap-around: drain the pipeline, then clear every
                // SSN-holding structure (§3.1).
                if self.ssn_ren.next().low_bits(self.cfg.ssn_bits) == 0 || self.draining_for_wrap {
                    if !self.rob.is_empty() {
                        self.draining_for_wrap = true;
                        break;
                    }
                    self.draining_for_wrap = false;
                    self.policy.on_ssn_wrap();
                    self.stats.ssn_wraps += 1;
                }
            }
            self.front_q.pop_front();
            self.rename_one(seq, &rec, path);
        }
    }

    fn rename_one(&mut self, seq: Seq, rec: &TraceRecord, path: u64) {
        // Claim the sequence number's value-ring slot: clears leftovers
        // both from a squashed incarnation of this seq and from the slot's
        // previous (long-retired) tenant.
        self.vals.reset(seq.0);
        let mut inst = DynInst::new(seq, self.incarnation, self.ssn_ren);
        inst.nondelay_ready = self.cycle;
        inst.path = path;

        // Resolve source operands against the rename map.
        let mut gates = 0u32;
        for (i, src) in rec.srcs.iter().enumerate() {
            inst.srcs[i] = match src {
                None => Operand::None,
                Some(r) => match self.rename_map[r.index()] {
                    Some(p) => {
                        if self.vals.wake_time(p.0) > self.cycle {
                            gates += 1;
                            self.wake_on_value.entry(p.0).or_default().push(seq.0);
                        }
                        Operand::InFlight(p)
                    }
                    None => Operand::Value(self.committed_regs[r.index()]),
                },
            };
        }

        if rec.is_store() {
            self.ssn_ren = self.ssn_ren.next();
            inst.my_ssn = self.ssn_ren;
            self.sq
                .allocate(inst.my_ssn, rec.pc)
                .expect("SQ fullness checked before rename");
            // Policy touch-point: store rename (SAT update, in-set
            // serialisation under original Store Sets).
            let view = PipelineView {
                ssn_ren: self.ssn_ren,
                ssn_cmt: self.ssn_cmt,
                sq: &self.sq,
            };
            if let Some(pred) = self.policy.rename_store(rec.pc, inst.my_ssn, seq, &view) {
                if pred.is_in_flight(self.ssn_cmt) && !self.sq.is_executed(pred) {
                    gates += 1;
                    self.wake_on_store_exec
                        .entry(pred.0)
                        .or_default()
                        .push(seq.0);
                }
            }
        }

        if rec.is_load() {
            self.lq
                .allocate(seq, rec.pc)
                .expect("LQ fullness checked before rename");
            gates += self.attach_load_predictions(&mut inst, rec);
        }

        if let Some(d) = rec.dst {
            self.rename_map[d.index()] = Some(seq);
        }

        inst.gates = gates;
        inst.state = if gates == 0 {
            InstState::Ready
        } else {
            InstState::Waiting
        };
        if gates == 0 {
            self.ready_q.insert(seq.0);
        }
        self.iq_count += 1;
        self.rob
            .push_back(seq)
            .expect("ROB fullness checked before rename");
        self.insts.insert(seq.0, inst);
    }

    /// Policy touch-point: load rename. Feeds the policy (plus golden
    /// forwarding information for oracle designs), copies its decisions
    /// into the in-flight state and arms the scheduling gates it asked
    /// for. Returns the number of gates added.
    fn attach_load_predictions(&mut self, inst: &mut DynInst, rec: &TraceRecord) -> u32 {
        let hint = if self.caps.oracle {
            self.window.fwd(inst.seq).map(|f| OracleHint {
                store_ssn: self.insts.get(&f.store_seq.0).map(|s| s.my_ssn),
                covers: f.covers,
            })
        } else {
            None
        };
        let view = PipelineView {
            ssn_ren: self.ssn_ren,
            ssn_cmt: self.ssn_cmt,
            sq: &self.sq,
        };
        let decision = self.policy.rename_load(rec.pc, inst.path, hint, &view);

        inst.pred_store_pc = decision.pred_store_pc;
        inst.ssn_fwd = decision.ssn_fwd;
        inst.ssn_dly = decision.ssn_dly;
        inst.wait_exec_ssn = decision.wait_exec_ssn;
        inst.delay_gated = decision.delay_gated;

        // Arm the gates, dropping any that could never release (already
        // executed / already committed) so no policy can deadlock a load.
        let mut gates = 0;
        if let Some(ssn) = decision.exec_gate {
            if ssn.is_in_flight(self.ssn_cmt) && !self.sq.is_executed(ssn) {
                gates += 1;
                self.wake_on_store_exec
                    .entry(ssn.0)
                    .or_default()
                    .push(inst.seq.0);
            }
        }
        if let Some(ssn) = decision.commit_gate {
            if ssn > self.ssn_cmt {
                gates += 1;
                self.wake_on_store_commit
                    .entry(ssn.0)
                    .or_default()
                    .push(inst.seq.0);
            }
        }
        gates
    }
}

impl RefCore<'_> {
    pub(crate) fn issue_stage(&mut self) {
        let mix = self.cfg.issue;
        let (mut total, mut int, mut fp, mut br, mut ld, mut st) =
            (mix.total, mix.int, mix.fp, mix.branch, mix.load, mix.store);
        let mut issued = Vec::new();

        for &seq in &self.ready_q {
            if total == 0 {
                break;
            }
            let class = self.window.rec(Seq(seq)).op.class();
            let port = match class {
                OpClass::IntAlu | OpClass::IntMul | OpClass::None => &mut int,
                OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => &mut fp,
                OpClass::Branch => &mut br,
                OpClass::Load => &mut ld,
                OpClass::Store => &mut st,
            };
            if *port == 0 {
                continue; // port conflict: skip, stay ready
            }
            *port -= 1;
            total -= 1;
            issued.push(seq);
        }

        for seq in issued {
            self.ready_q.remove(&seq);
            self.iq_count -= 1;
            let (inc, my_ssn) = {
                let inst = self.insts.get_mut(&seq).expect("ready inst in flight");
                debug_assert_eq!(inst.state, InstState::Ready);
                inst.state = InstState::Issued;
                (inst.incarnation, inst.my_ssn)
            };
            let exec_at = self.cycle + self.cfg.issue_to_exec;
            self.events.push(Reverse((exec_at, EvKind::Exec, seq, inc)));
            if my_ssn.is_some() {
                // Speculatively wake forwarding-gated loads behind this
                // store so their SQ read chases its SQ write.
                self.events
                    .push(Reverse((self.cycle + 1, EvKind::StoreWake, my_ssn.0, inc)));
            }

            // Wakeup broadcast for register consumers, timed so a
            // back-to-back dependent executes exactly when the value is
            // predicted to be ready.
            let rec = *self.window.rec(Seq(seq));
            if rec.dst.is_some() {
                let pred_latency = self.predicted_latency(&rec, seq);
                let broadcast_at = (exec_at + pred_latency)
                    .saturating_sub(self.cfg.issue_to_exec)
                    .max(self.cycle + 1);
                self.vals.set_wake_time(seq, broadcast_at);
                self.events
                    .push(Reverse((broadcast_at, EvKind::Broadcast, seq, inc)));
            }
        }
    }

    /// The latency the scheduler assumes for this instruction's value —
    /// loads defer to the policy's latency-speculation touch-point.
    pub(crate) fn predicted_latency(&self, rec: &TraceRecord, seq: u64) -> u64 {
        let l = self.cfg.latencies;
        match rec.op.class() {
            OpClass::IntAlu | OpClass::None => l.int_alu,
            OpClass::IntMul => l.int_mul,
            OpClass::FpAdd => l.fp_add,
            OpClass::FpMul => l.fp_mul,
            OpClass::FpDiv => l.fp_div,
            OpClass::Branch => l.branch,
            OpClass::Store => 1,
            OpClass::Load => {
                let cache = self.cfg.hierarchy.l1.hit_latency;
                let predicts_forward = self.insts[&seq].ssn_fwd.is_some();
                self.policy.wakeup_latency(predicts_forward, cache)
            }
        }
    }

    // ================================================================
    // Events (execute, wakeup)
    // ================================================================

    pub(crate) fn process_events(&mut self) {
        while let Some(&Reverse((at, kind, seq, inc))) = self.events.peek() {
            if at > self.cycle {
                break;
            }
            self.events.pop();
            // Drop events addressed to squashed incarnations. Broadcasts
            // are exempt: a producer may legitimately commit before its
            // re-broadcast fires, and its registered consumers must still
            // wake (wake_one itself guards against squashed consumers).
            let alive = self.insts.get(&seq).is_some_and(|i| i.incarnation == inc);
            match kind {
                EvKind::Broadcast => self.do_broadcast(seq),
                EvKind::Wake => {
                    if alive {
                        self.wake_one(seq, false);
                    }
                }
                EvKind::StoreWake => {
                    // `seq` carries the store's SSN, not a sequence number.
                    if let Some(waiters) = self.wake_on_store_exec.remove(&seq) {
                        for w in waiters {
                            self.wake_one(w, false);
                        }
                    }
                }
                EvKind::Exec => {
                    if alive {
                        self.do_execute(Seq(seq));
                    }
                }
            }
        }
    }

    fn do_broadcast(&mut self, producer: u64) {
        let Some(consumers) = self.wake_on_value.remove(&producer) else {
            return;
        };
        for c in consumers {
            self.wake_one(c, false);
        }
    }

    pub(crate) fn wake_one(&mut self, seq: u64, is_delay_gate: bool) {
        let Some(inst) = self.insts.get_mut(&seq) else {
            return;
        };
        if inst.state != InstState::Waiting {
            return;
        }
        if inst.release_gate(self.cycle, is_delay_gate) {
            inst.state = InstState::Ready;
            self.ready_q.insert(seq);
        }
    }

    pub(crate) fn replay(&mut self, seq: Seq, unready: &[u64]) {
        self.stats.replays += 1;
        let now = self.cycle;
        let issue_to_exec = self.cfg.issue_to_exec;
        let mut wakes = Vec::new();
        {
            let inst = self
                .insts
                .get_mut(&seq.0)
                .expect("replaying inst in flight");
            inst.state = InstState::Waiting;
            inst.replays += 1;
            inst.gates = unready.len() as u32;
        }
        for &p in unready {
            let vr = self.vals.value_ready(p);
            if vr == NOT_READY {
                // Producer hasn't executed; it will re-broadcast.
                self.wake_on_value.entry(p).or_default().push(seq.0);
            } else {
                wakes.push(vr.saturating_sub(issue_to_exec).max(now + 1));
            }
        }
        self.iq_count += 1;
        let inc = self.insts[&seq.0].incarnation;
        for at in wakes {
            self.events.push(Reverse((at, EvKind::Wake, seq.0, inc)));
        }
    }
}

impl RefCore<'_> {
    pub(crate) fn do_execute(&mut self, seq: Seq) {
        let rec = *self.rec(seq);

        // Selective replay: operands whose producers are not actually ready
        // (scheduler latency mis-speculation) force a replay.
        let mut unready: Vec<u64> = Vec::new();
        {
            let inst = &self.insts[&seq.0];
            for src in inst.srcs {
                if let Operand::InFlight(p) = src {
                    if self.vals.value_ready(p.0) > self.cycle {
                        unready.push(p.0);
                    }
                }
            }
        }
        if !unready.is_empty() {
            self.replay(seq, &unready);
            return;
        }

        let (s1, s2) = self.operand_values(seq);
        match rec.op.class() {
            OpClass::Load => self.execute_load(seq, &rec),
            OpClass::Store => self.execute_store(seq, &rec, s2),
            OpClass::Branch => self.execute_branch(seq, &rec),
            _ => {
                let value = rec.op.eval(s1, s2, rec.imm);
                let latency = self.predicted_latency(&rec, seq.0);
                self.complete(seq, value, latency);
            }
        }
    }

    fn operand_values(&self, seq: Seq) -> (u64, u64) {
        let inst = &self.insts[&seq.0];
        let get = |o: Operand| match o {
            Operand::None => 0,
            Operand::Value(v) => v,
            Operand::InFlight(p) => self.vals.spec_value(p.0),
        };
        (get(inst.srcs[0]), get(inst.srcs[1]))
    }

    /// Finishes execution: value known, completion scheduled.
    pub(crate) fn complete(&mut self, seq: Seq, value: u64, latency: u64) {
        let ready_at = self.cycle + latency;
        self.vals.set_spec_value(seq.0, value);
        self.vals.set_value_ready(seq.0, ready_at);
        let post = self.cfg.post_exec_depth;
        {
            let inst = self
                .insts
                .get_mut(&seq.0)
                .expect("completing inst in flight");
            inst.state = InstState::Done;
            inst.value = value;
            inst.commit_eligible = ready_at + post;
        }
        // Consumers that replayed while this instruction was mid-flight
        // (its issue-time broadcast already fired) re-registered on the
        // wait list; a successful execution is the last broadcast they can
        // get. Time it so their execute lines up with value readiness.
        if self.wake_on_value.contains_key(&seq.0) {
            let inc = self.insts[&seq.0].incarnation;
            let at = ready_at
                .saturating_sub(self.cfg.issue_to_exec)
                .max(self.cycle + 1);
            self.events
                .push(Reverse((at, EvKind::Broadcast, seq.0, inc)));
        }
    }

    fn execute_store(&mut self, seq: Seq, rec: &TraceRecord, data_operand: u64) {
        let span = rec.mem_addr().span(rec.size);
        let data = rec.size.truncate(data_operand);
        let ssn = self.insts[&seq.0].my_ssn;
        self.sq.write(ssn, span, data);
        // Policy touch-point: store execution (LFST update under original
        // Store Sets).
        self.policy.store_executed(rec.pc, ssn);
        if self.cfg.ordering == OrderingMode::LqCam {
            // Conventional LQ search: any younger, already-executed load
            // overlapping this store's span read a stale value. Flush from
            // the oldest such load and train the schedulers.
            let victim = self
                .lq
                .iter()
                .find(|l| l.seq > seq && l.span.is_some_and(|ls| ls.overlaps(span)) && l.svw < ssn)
                .map(|l| (l.seq, l.pc));
            if let Some((lseq, lpc)) = victim {
                self.stats.mis_forwards += 1;
                self.policy.cam_violation(lpc, rec.pc);
                self.complete(seq, data, 1);
                self.squash_from(lseq);
                return;
            }
        }
        self.complete(seq, data, 1);
        // Wake loads waiting on this store's execution (forwarding gate).
        if let Some(waiters) = self.wake_on_store_exec.remove(&ssn.0) {
            for w in waiters {
                self.wake_one(w, false);
            }
        }
        if let Some(waiters) = self.wake_on_store_exec_strict.remove(&ssn.0) {
            for w in waiters {
                self.wake_one(w, false);
            }
        }
    }

    fn execute_branch(&mut self, seq: Seq, rec: &TraceRecord) {
        // (The predictor was trained at fetch; execution only resolves the
        // pending redirect.)
        // Link value for calls; 0 for other transfers.
        let value = if rec.op == Op::Call {
            rec.pc.next().0
        } else {
            0
        };
        self.complete(seq, value, self.cfg.latencies.branch);
        if self.pending_redirect == Some(seq) {
            self.pending_redirect = None;
            self.fetch_stall_until = self.cycle + 1;
        }
    }

    fn execute_load(&mut self, seq: Seq, rec: &TraceRecord) {
        let span = rec.mem_addr().span(rec.size);
        let (prev_store_ssn, ssn_fwd, wait_exec) = {
            let inst = &self.insts[&seq.0];
            (inst.prev_store_ssn, inst.ssn_fwd, inst.wait_exec_ssn)
        };

        // The load was scheduled chasing a store's execution; if that store
        // replayed, the load replays too (forwarding mis-schedule).
        if let Some(gate) = wait_exec {
            if gate.is_in_flight(self.ssn_cmt) && !self.sq.is_executed(gate) {
                self.stats.replays += 1;
                let inst = self.insts.get_mut(&seq.0).expect("load in flight");
                inst.state = InstState::Waiting;
                inst.gates = 1;
                inst.replays += 1;
                self.iq_count += 1;
                self.wake_on_store_exec_strict
                    .entry(gate.0)
                    .or_default()
                    .push(seq.0);
                return;
            }
        }

        // The data cache is accessed in parallel with the SQ in all designs.
        let cache_outcome = self.hierarchy.access(rec.mem_addr());
        let cache_value = self.commit_mem.read(rec.mem_addr(), rec.size);
        let older_unknown = self.sq.has_unexecuted_older(prev_store_ssn);

        // Policy touch-point: the SQ probe (associative search, indexed
        // read, or whatever the design does).
        let probe = self.policy.probe_sq(
            &self.sq,
            prev_store_ssn,
            ssn_fwd,
            self.ssn_cmt,
            span,
            rec.size,
        );
        let (value, latency, forwarded, svw) = match probe {
            SqProbe::Forward {
                ssn,
                value,
                latency,
            } => (value, latency, Some(ssn), ssn),
            SqProbe::Partial { ssn } => {
                // No single entry can supply the value: stall until the
                // store commits, then retry (reads the cache).
                self.stats.partial_stalls += 1;
                let inst = self.insts.get_mut(&seq.0).expect("load in flight");
                inst.state = InstState::Waiting;
                inst.gates = 1;
                inst.partial_stalled = true;
                self.iq_count += 1;
                if ssn > self.ssn_cmt {
                    self.wake_on_store_commit
                        .entry(ssn.0)
                        .or_default()
                        .push(seq.0);
                } else {
                    // Committed in the meantime: retry immediately.
                    let inc = self.insts[&seq.0].incarnation;
                    self.events
                        .push(Reverse((self.cycle + 1, EvKind::Wake, seq.0, inc)));
                }
                return;
            }
            SqProbe::Miss => (
                cache_value,
                cache_outcome.total_latency(),
                None,
                self.ssn_cmt,
            ),
        };

        self.lq.record_execution(seq, span, svw);
        {
            let inst = self.insts.get_mut(&seq.0).expect("load in flight");
            inst.forwarded_from = forwarded;
            inst.svw = svw;
            inst.older_unknown = older_unknown;
        }
        self.complete(seq, value, latency);
    }
}

impl RefCore<'_> {
    pub(crate) fn commit_stage(&mut self) {
        let mut reexec_budget = self.cfg.reexec_ports;
        for _ in 0..self.cfg.commit_width {
            let Some(&seq) = self.rob.front() else { break };
            let eligible = {
                let inst = &self.insts[&seq.0];
                inst.state == InstState::Done && inst.commit_eligible <= self.cycle
            };
            if !eligible {
                break;
            }
            let rec = *self.rec(seq);
            if rec.is_load() && !self.commit_load(seq, &rec, &mut reexec_budget) {
                break; // re-exec port stall or flush: stop committing
            }
            if rec.is_store() {
                self.commit_store(seq, &rec);
            }
            if rec.op.is_conditional() {
                self.stats.branches += 1;
            }
            self.retire(seq, &rec);
        }
    }

    /// Returns `false` if commit must stop (port stall — load stays; or a
    /// flush was triggered — load already retired inside).
    fn commit_load(&mut self, seq: Seq, rec: &TraceRecord, reexec_budget: &mut usize) -> bool {
        let span = rec.mem_addr().span(rec.size);
        let (svw, older_unknown, value, fwd) = {
            let inst = &self.insts[&seq.0];
            (
                inst.svw,
                inst.older_unknown,
                inst.value,
                inst.forwarded_from,
            )
        };
        self.stats.naive_reexec_candidates += u64::from(older_unknown);

        // SVW filter (policy touch-point): re-execute only if a store the
        // load is vulnerable to wrote its address. Under the conventional
        // LQ CAM, ordering was verified at store execution and no
        // re-execution happens at all.
        let needs_reexec =
            self.cfg.ordering == OrderingMode::SvwReexecution && self.policy.svw_newest(span) > svw;
        let mut flush = false;
        if needs_reexec {
            if *reexec_budget == 0 {
                self.stats.reexec_port_stalls += 1;
                return false;
            }
            *reexec_budget -= 1;
            self.stats.re_executions += 1;
            self.hierarchy.touch(rec.mem_addr());
            let correct = self.commit_mem.read(rec.mem_addr(), rec.size);
            debug_assert_eq!(
                correct, rec.result,
                "commit-time memory must match the golden trace"
            );
            if value != correct {
                // Mis-forwarding (or ordering violation): fix the load's
                // value from re-execution and flush everything younger.
                self.stats.mis_forwards += 1;
                let inst = self.insts.get_mut(&seq.0).expect("load in flight");
                inst.value = correct;
                self.vals.set_spec_value(seq.0, correct);
                flush = true;
            }
        }

        // Policy touch-point: commit-time training (FSP/DDP per Table 1
        // and §3.2–3.3, or original-Store-Sets violation merging).
        let info = {
            let inst = &self.insts[&seq.0];
            LoadCommitInfo {
                pc: rec.pc,
                span,
                flushed: flush,
                pred_store_pc: inst.pred_store_pc,
                ssn_fwd: inst.ssn_fwd,
                prev_store_ssn: inst.prev_store_ssn,
                was_delayed: inst.delay_gated,
                path: inst.path,
            }
        };
        self.policy.train_load_commit(&info);

        // Per-load statistics.
        self.stats.loads += 1;
        self.stats.loads_forwarded += u64::from(fwd.is_some());
        if let Some(f) = self.window.fwd(seq) {
            if f.store_dist < self.cfg.sq_size as u64 {
                self.stats.forwarding_relevant_loads += 1;
            }
        }
        let inst = &self.insts[&seq.0];
        let delay = inst.ddp_delay();
        if inst.delay_gated && delay > 0 {
            self.stats.loads_delayed += 1;
            self.stats.delay_cycles += delay;
        }

        let _ = self.lq.commit_head();
        if flush {
            self.retire(seq, rec);
            self.flush_younger(seq);
            return false;
        }
        true
    }

    fn commit_store(&mut self, seq: Seq, rec: &TraceRecord) {
        let entry = self.sq.commit_head();
        debug_assert_eq!(entry.ssn, self.insts[&seq.0].my_ssn);
        let span = rec.mem_addr().span(rec.size);
        debug_assert_eq!(
            entry.data, rec.result,
            "store data must be architecturally correct by commit"
        );
        self.commit_mem.write(rec.mem_addr(), rec.size, entry.data);
        self.hierarchy.touch(rec.mem_addr());
        // Policy touch-point: verification-structure update (SSBF/SPCT).
        self.policy.store_committed(rec.pc, span, entry.ssn);
        self.ssn_cmt = entry.ssn;
        self.stats.stores += 1;

        // Release delay-gated and partial-stalled loads waiting on stores
        // up to this SSN.
        let mut released = self.wake_on_store_commit.split_off(&(entry.ssn.0 + 1));
        std::mem::swap(&mut released, &mut self.wake_on_store_commit);
        for (_, waiters) in released {
            for w in waiters {
                self.wake_one(w, true);
            }
        }
    }

    fn retire(&mut self, seq: Seq, rec: &TraceRecord) {
        if let Some(d) = rec.dst {
            self.committed_regs[d.index()] = self.insts[&seq.0].value;
            if self.rename_map[d.index()] == Some(seq) {
                self.rename_map[d.index()] = None;
            }
        }
        let _ = self.rob.pop_front();
        self.insts.remove(&seq.0);
        self.policy.on_retire(seq);
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        // Commit is in-order, so the retiring instruction is always the
        // record window's front: its record can never be re-fetched.
        self.window.pop_front();
    }

    /// Mid-window squash (LQ CAM violation): everything at or younger than
    /// `from` is squashed and refetched; older instructions stay in flight.
    pub(crate) fn squash_from(&mut self, from: Seq) {
        self.stats.flushes += 1;
        self.incarnation += 1;

        // (Value-ring slots of squashed instructions are not cleared here:
        // nothing reads a squashed slot before its re-rename resets it.)
        let squashed: Vec<u64> = self
            .insts
            .keys()
            .copied()
            .filter(|&s| s >= from.0)
            .collect();
        self.stats.squashed += squashed.len() as u64;
        for &s in &squashed {
            self.insts.remove(&s);
        }
        let keep = self.rob.iter().take_while(|&&s| s < from).count();
        self.rob.truncate(keep);
        self.ready_q.retain(|&s| s < from.0);
        self.iq_count = self
            .insts
            .values()
            .filter(|i| matches!(i.state, InstState::Waiting | InstState::Ready))
            .count();
        self.lq.squash_from(from);

        // SSNs roll back to the youngest surviving store.
        let keep_ssn = self
            .insts
            .values()
            .map(|i| i.my_ssn)
            .max()
            .unwrap_or(Ssn::NONE)
            .max(self.ssn_cmt);
        self.sq.squash_from(keep_ssn.next());
        self.ssn_ren = keep_ssn;
        // Policy touch-point: flush repair (SAT rollback, LFST clear).
        self.policy.on_flush(from);

        // Rebuild the rename map from the surviving window, oldest first.
        self.rename_map = [None; sqip_isa::NUM_REGS];
        let survivors: Vec<Seq> = self.rob.iter().copied().collect();
        for s in survivors {
            if let Some(d) = self.rec(s).dst {
                self.rename_map[d.index()] = Some(s);
            }
        }

        self.front_q.clear();
        if self.pending_redirect.is_some_and(|s| s >= from) {
            self.pending_redirect = None;
        }
        self.fetch_idx = from.0 as usize;
        self.fetch_stall_until = self.cycle + 1;
        self.draining_for_wrap = false;
    }

    /// Full pipeline flush: squash everything younger than the committing
    /// load and refetch from the next instruction.
    fn flush_younger(&mut self, from: Seq) {
        self.stats.flushes += 1;
        self.incarnation += 1;

        self.stats.squashed += self.insts.len() as u64;
        self.insts.clear();
        self.rob.clear();
        self.ready_q.clear();
        self.iq_count = 0;
        self.lq.clear();
        self.sq.clear();
        self.wake_on_value.clear();
        self.wake_on_store_exec.clear();
        self.wake_on_store_exec_strict.clear();
        self.wake_on_store_commit.clear();
        self.front_q.clear();
        self.rename_map = [None; sqip_isa::NUM_REGS];

        // All in-flight stores were squashed; the rename-time SSN counter
        // rolls back to the committed high-water mark, and the policy
        // undoes the squashed stores' speculative predictor writes.
        self.ssn_ren = self.ssn_cmt;
        self.policy.on_flush(from.next());
        self.draining_for_wrap = false;

        self.pending_redirect = None;
        self.fetch_idx = from.0 as usize + 1;
        self.fetch_stall_until = self.cycle + 1;
    }
}

impl RefCore<'_> {
    /// Records ever pulled from the trace source (the resume position).
    pub(crate) fn records_pulled(&self) -> u64 {
        self.window.end()
    }

    /// Serialises the engine state (everything except `cfg` and the
    /// source, which the checkpoint container carries separately).
    ///
    /// The unordered collections are serialised in sorted-key order so
    /// equal states snapshot to equal bytes.
    pub(crate) fn save_state(
        &self,
        w: &mut sqip_snapshot::SnapWriter,
    ) -> Result<(), sqip_snapshot::SnapError> {
        use sqip_snapshot::Snapshot as _;
        if let Some(e) = &self.source_error {
            return Err(sqip_snapshot::SnapError::Unsupported(format!(
                "cannot checkpoint with a pending trace-source error: {e}"
            )));
        }
        self.window.save(w)?;
        self.oracle.save(w)?;
        self.total_records.save(w)?;
        self.source_done.save(w)?;
        self.cycle.save(w)?;
        self.incarnation.save(w)?;
        self.last_commit_cycle.save(w)?;
        self.fetch_idx.save(w)?;
        self.fetch_stall_until.save(w)?;
        self.pending_redirect.save(w)?;
        self.front_q.save(w)?;
        self.path_history.save(w)?;
        self.ssn_ren.save(w)?;
        self.rename_map.save(w)?;
        self.committed_regs.save(w)?;
        self.draining_for_wrap.save(w)?;
        self.rob.save(w)?;
        sorted_pairs(&self.insts).save(w)?;
        self.iq_count.save(w)?;
        self.ready_q.iter().copied().collect::<Vec<u64>>().save(w)?;
        let mut events: Vec<(u64, EvKind, u64, u64)> =
            self.events.iter().map(|Reverse(e)| *e).collect();
        events.sort_unstable();
        events.save(w)?;
        sorted_pairs(&self.wake_on_value).save(w)?;
        sorted_pairs(&self.wake_on_store_exec).save(w)?;
        sorted_pairs(&self.wake_on_store_exec_strict).save(w)?;
        self.wake_on_store_commit
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect::<Vec<(u64, Vec<u64>)>>()
            .save(w)?;
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
    /// (the mirror of [`RefCore::save_state`]).
    pub(crate) fn load_state(
        &mut self,
        r: &mut sqip_snapshot::SnapReader,
    ) -> Result<(), sqip_snapshot::SnapError> {
        use sqip_snapshot::Snapshot as _;
        self.window = RecordWindow::load(r)?;
        self.oracle = OracleBuilder::load(r)?;
        self.total_records = Option::<u64>::load(r)?;
        self.source_done = bool::load(r)?;
        self.cycle = u64::load(r)?;
        self.incarnation = u64::load(r)?;
        self.last_commit_cycle = u64::load(r)?;
        self.fetch_idx = usize::load(r)?;
        self.fetch_stall_until = u64::load(r)?;
        self.pending_redirect = Option::<Seq>::load(r)?;
        self.front_q = std::collections::VecDeque::<(Seq, u64, u64)>::load(r)?;
        self.path_history = u64::load(r)?;
        self.ssn_ren = Ssn::load(r)?;
        self.rename_map = <[Option<Seq>; sqip_isa::NUM_REGS]>::load(r)?;
        self.committed_regs = <[u64; sqip_isa::NUM_REGS]>::load(r)?;
        self.draining_for_wrap = bool::load(r)?;
        self.rob = Window::<Seq>::load(r)?;
        self.insts = Vec::<(u64, DynInst)>::load(r)?.into_iter().collect();
        self.iq_count = usize::load(r)?;
        self.ready_q = Vec::<u64>::load(r)?.into_iter().collect();
        self.events = Vec::<(u64, EvKind, u64, u64)>::load(r)?
            .into_iter()
            .map(Reverse)
            .collect();
        self.wake_on_value = Vec::<(u64, Vec<u64>)>::load(r)?.into_iter().collect();
        self.wake_on_store_exec = Vec::<(u64, Vec<u64>)>::load(r)?.into_iter().collect();
        self.wake_on_store_exec_strict = Vec::<(u64, Vec<u64>)>::load(r)?.into_iter().collect();
        self.wake_on_store_commit = Vec::<(u64, Vec<u64>)>::load(r)?.into_iter().collect();
        self.vals = SeqRing::load(r)?;
        self.sq = StoreQueue::load(r)?;
        self.lq = LoadQueue::load(r)?;
        self.hierarchy = Hierarchy::load(r)?;
        self.commit_mem = MemImage::load(r)?;
        self.ssn_cmt = Ssn::load(r)?;
        self.policy = BuiltinPolicy::load_for(r, &self.cfg)?;
        self.bp = BranchPredictor::load(r)?;
        self.stats = SimStats::load(r)?;
        Ok(())
    }
}

/// A `HashMap`'s contents as a key-sorted pair vector (deterministic
/// serialisation order regardless of hash-iteration order).
fn sorted_pairs<V: Clone>(map: &HashMap<u64, V>) -> Vec<(u64, V)> {
    let mut pairs: Vec<(u64, V)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
    pairs.sort_unstable_by_key(|(k, _)| *k);
    pairs
}
