//! The cycle-level out-of-order processor model.
//!
//! A 19-stage, 8-way machine driven by a golden dynamic-instruction
//! stream (oracle control-flow path, architectural addresses) pulled
//! incrementally from a [`TraceSource`] — a materialized trace, a
//! streaming program interpreter, a recorded trace file, a generator —
//! that recomputes *values* speculatively
//! through the modelled dataflow. Store-load forwarding — the subject of
//! the paper — is simulated exactly: loads obtain values from the store
//! queue or from committed memory as decided by the configured design's
//! [`policy`](crate::policy), wrong values propagate
//! to dependents, and SVW-filtered pre-commit re-execution catches
//! mis-speculations and flushes.
//!
//! **One pipeline, two schedulers.** Every stage — the input feed
//! ([`RecordFeed`]), fetch and branch prediction,
//! rename, execution and the LSQ, wakeups and the cancel rule, commit,
//! squash and flush, checkpointing — is written once, in [`stages`],
//! over a scheduler that decides only how instructions wait, wake and
//! issue:
//!
//! * [`event`] — the production scheduler: ring-indexed slabs, ready
//!   lanes, near rings and an event wheel, idle-cycle skip-ahead (see
//!   [`crate::Engine::Event`]);
//! * [`reference`](mod@reference) — the straightforward per-cycle
//!   scheduler: a `HashMap`, a scanned `BTreeSet` and one `BinaryHeap`
//!   (see [`crate::Engine::Reference`]).
//!
//! [`Processor`] picks one on [`SimConfig::engine`]. The differential
//! proptests pin the two schedulers to bit-identical [`SimStats`], and
//! so check everything the event scheduler does differently; the golden
//! design fixture and the random-program properties that check
//! committed state against the functional executor's golden trace pin
//! the model itself.

pub(crate) mod event;
pub(crate) mod reference;
pub(crate) mod stages;
#[cfg(test)]
mod tests;
pub(crate) mod window;

use sqip_isa::{Trace, TraceSource};
use sqip_snapshot::SnapError;
use sqip_types::{Addr, DataSize};

use crate::config::{Engine, SimConfig};
use crate::error::SimError;
use crate::observer::{ObserverAction, SimObserver};
use crate::stats::SimStats;

use event::EventSched;
use reference::RefSched;
use stages::{Pipeline, Scheduler};
use window::RecordFeed;

pub(crate) const NOT_READY: u64 = u64::MAX;
/// Cycles without a commit after which the simulator declares deadlock.
pub(crate) const WATCHDOG_CYCLES: u64 = 500_000;

/// What a [`Processor::step`] (or [`Processor::run_until`]) left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The trace has not fully committed yet.
    Running,
    /// Every trace record has committed; statistics are final.
    Done,
}

/// Kinds of scheduled pipeline events, in their within-cycle delivery
/// order (the second-rank sort key after the cycle itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EvKind {
    /// Wakeup broadcast: consumers of this producer may now issue.
    Broadcast,
    /// Targeted wake of one waiting instruction (replay re-wake).
    Wake,
    /// Speculative wake of loads gated on a store's execution (the key is
    /// the store's SSN). Fired one cycle after the store issues, so that
    /// a dependent load's SQ access lines up right behind the store's SQ
    /// write; loads that arrive early (the store replayed) replay too.
    StoreWake,
    /// The instruction reaches its execute stage.
    Exec,
}

impl sqip_snapshot::Snapshot for EvKind {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        w.put_u8(match self {
            EvKind::Broadcast => 0,
            EvKind::Wake => 1,
            EvKind::StoreWake => 2,
            EvKind::Exec => 3,
        });
        Ok(())
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<EvKind, sqip_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(EvKind::Broadcast),
            1 => Ok(EvKind::Wake),
            2 => Ok(EvKind::StoreWake),
            3 => Ok(EvKind::Exec),
            t => Err(sqip_snapshot::SnapError::Corrupt(format!(
                "event kind tag {t}"
            ))),
        }
    }
}

enum Core<'t> {
    Event(Box<Pipeline<'t, EventSched>>),
    Reference(Box<Pipeline<'t, RefSched>>),
}

/// Evaluates `$body` with `$c` bound to whichever pipeline `$core` holds.
macro_rules! on_core {
    ($core:expr, $c:ident => $body:expr) => {
        match $core {
            Core::Event($c) => $body,
            Core::Reference($c) => $body,
        }
    };
}

/// The simulator.
///
/// Build one per (configuration, input) pair and call [`Processor::run`].
/// The input is any [`TraceSource`] — a materialized [`Trace`] (via
/// [`Processor::new`]), a streaming program interpreter, a recorded trace
/// file, a generator — consumed incrementally through
/// [`Processor::from_source`]: the processor buffers only the records
/// between the commit point and the fetch frontier, so run length is
/// unbounded by memory.
///
/// [`SimConfig::engine`] selects the scheduler the one pipeline runs
/// over: the event-driven one (default) or the per-cycle reference. The
/// two produce bit-identical statistics; see [`crate::Engine`].
///
/// # Example
///
/// ```
/// use sqip_core::{Processor, SimConfig, SqDesign};
/// use sqip_isa::{trace_program, ProgramBuilder, Reg};
/// use sqip_types::DataSize;
///
/// let mut b = ProgramBuilder::new();
/// let (v, t) = (Reg::new(1), Reg::new(2));
/// b.load_imm(v, 7);
/// b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
/// b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
/// b.halt();
/// let trace = trace_program(&b.build()?, 100)?;
///
/// let stats = Processor::new(SimConfig::with_design(SqDesign::Indexed3FwdDly), &trace).run();
/// assert_eq!(stats.committed, trace.len() as u64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Streaming a program directly — no `Trace` is ever materialized, and
/// the statistics are bit-identical to the materialized run:
///
/// ```
/// use sqip_core::{Processor, SimConfig, SqDesign};
/// use sqip_isa::{ProgramBuilder, ProgramSource, Reg};
/// use sqip_types::DataSize;
///
/// let mut b = ProgramBuilder::new();
/// let (ctr, v) = (Reg::new(1), Reg::new(2));
/// b.load_imm(ctr, 1000);
/// let top = b.label("top");
/// b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
/// b.load(DataSize::Quad, v, Reg::ZERO, 0x100);
/// b.add_imm(ctr, ctr, -1);
/// b.branch_nz(ctr, top);
/// b.halt();
///
/// let source = ProgramSource::new(b.build()?, 100_000);
/// let cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
/// let stats = Processor::from_source(cfg, source).try_run()?;
/// assert_eq!(stats.committed, 4 * 1000 + 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Processor<'t> {
    core: Core<'t>,
}

impl<'t> Processor<'t> {
    /// Builds a processor for one run over `trace`, validating the
    /// configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the configuration is inconsistent
    /// (see [`SimConfig::try_validate`]).
    pub fn try_new(cfg: SimConfig, trace: &'t Trace) -> Result<Processor<'t>, SimError> {
        Processor::try_from_source(cfg, trace.stream())
    }

    /// Builds a processor for one run over `trace`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SimConfig, trace: &'t Trace) -> Processor<'t> {
        Processor::from_source(cfg, trace.stream())
    }

    /// Builds a processor over any [`TraceSource`], validating the
    /// configuration. Records are pulled on demand and only an
    /// O(window)-sized span is ever buffered (see
    /// [`Processor::buffered_records`]), so sources of unbounded length
    /// simulate in bounded memory.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the configuration is inconsistent
    /// (see [`SimConfig::try_validate`]).
    pub fn try_from_source(
        cfg: SimConfig,
        source: impl TraceSource + 't,
    ) -> Result<Processor<'t>, SimError> {
        cfg.try_validate()?;
        Ok(Processor::new_unchecked(cfg, source))
    }

    /// Builds a processor over any [`TraceSource`] (see
    /// [`Processor::try_from_source`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`SimConfig::validate`]).
    #[must_use]
    pub fn from_source(cfg: SimConfig, source: impl TraceSource + 't) -> Processor<'t> {
        cfg.validate();
        Processor::new_unchecked(cfg, source)
    }

    fn new_unchecked(cfg: SimConfig, source: impl TraceSource + 't) -> Processor<'t> {
        let core = match cfg.engine {
            Engine::Event => Core::Event(Box::new(Pipeline::new_unchecked(cfg, source))),
            Engine::Reference => Core::Reference(Box::new(Pipeline::new_unchecked(cfg, source))),
        };
        Processor { core }
    }

    /// Whether the whole record stream has committed. Until the source is
    /// exhausted (or declared an exact length up front) the total is
    /// unknown and this is `false`.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.feed().is_done(self.stats().committed)
    }

    /// Records currently buffered between the commit point and the fetch
    /// frontier. Bounded by the machine's window (ROB + fetch-ahead), not
    /// by the input length — the memory-boundedness guarantee of the
    /// streaming input API, pinned by a regression test.
    #[must_use]
    pub fn buffered_records(&self) -> usize {
        self.feed().buffered()
    }

    /// The current cycle number.
    ///
    /// Under the event engine this advances by more than one per
    /// [`Processor::step`] whenever idle cycles were skipped.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        on_core!(&self.core, c => c.cycle)
    }

    /// The statistics accumulated so far. Both engines fold the cycle
    /// count and cache counters in after every step, so the view is
    /// consistent mid-run.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        on_core!(&self.core, c => &c.stats)
    }

    /// The committed architectural value of register `r` (used by
    /// cross-design equivalence tests: every sound policy must retire the
    /// same architectural state).
    #[must_use]
    pub fn committed_reg(&self, r: sqip_isa::Reg) -> u64 {
        on_core!(&self.core, c => c.committed_regs[r.index()])
    }

    /// Reads the committed memory image — the architectural memory state
    /// built by retired stores.
    #[must_use]
    pub fn committed_mem(&self, addr: Addr, size: DataSize) -> u64 {
        on_core!(&self.core, c => c.commit_mem.read(addr, size))
    }

    /// The event engine's scheduling-cost counters (wheel ops, off-wheel
    /// ops, broadcasts delivered and cancelled, ready-lane touches, steps)
    /// accumulated since construction. `None` under the reference engine, whose scheduler
    /// carries no instrumentation. Diagnostic state: never part of
    /// [`SimStats`] or checkpoints, so reading it cannot perturb
    /// bit-identity.
    #[must_use]
    pub fn sched_counters(&self) -> Option<crate::engine::SchedCounters> {
        on_core!(&self.core, c => c.sched.counters())
    }

    /// Advances the simulation by one *step*.
    ///
    /// Under the reference engine a step is exactly one cycle. Under the
    /// event engine a step is one **active** cycle: the engine first
    /// jumps over any provably idle cycles (no wakeup due, frontend
    /// stalled, no commit-eligible head) and then simulates the cycle it
    /// lands on, so [`Processor::cycle`] may advance by more than one.
    /// The sequence of active cycles — and every statistic — is identical
    /// between the engines.
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
    pub fn step(&mut self) -> Result<StepOutcome, SimError> {
        self.step_bounded(u64::MAX)
    }

    /// Advances by one step that never jumps past `cycle_limit`: like
    /// [`Processor::step`], except that the event engine caps its
    /// idle-cycle skip-ahead to land exactly on `cycle_limit` when the
    /// next active cycle lies beyond it. A step always advances at least
    /// one cycle. The reference engine steps one cycle, as ever.
    ///
    /// This is the one stepping primitive: [`Processor::step`],
    /// [`Processor::run_until`], [`Processor::run_observed`] and the
    /// sweep engine's per-cell loop all drive the simulation through
    /// it, which is how observers land on their interval boundaries
    /// exactly wherever they run.
    ///
    /// # Errors
    ///
    /// As [`Processor::step`].
    pub fn step_bounded(&mut self, cycle_limit: u64) -> Result<StepOutcome, SimError> {
        on_core!(&mut self.core, c => c.step_bounded(cycle_limit))
    }

    /// Runs until the trace commits fully or `cycle_limit` is reached,
    /// whichever comes first. The event engine lands exactly on
    /// `cycle_limit` when the trace outlives it.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::Deadlock`] from [`Processor::step`].
    pub fn run_until(&mut self, cycle_limit: u64) -> Result<StepOutcome, SimError> {
        while self.cycle() < cycle_limit {
            if self.step_bounded(cycle_limit)? == StepOutcome::Done {
                return Ok(StepOutcome::Done);
            }
        }
        Ok(if self.is_done() {
            StepOutcome::Done
        } else {
            StepOutcome::Running
        })
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the pipeline stops committing.
    pub fn try_run(mut self) -> Result<SimStats, SimError> {
        while self.step()? == StepOutcome::Running {}
        Ok(self.stats().clone())
    }

    /// Runs to completion with observation hooks: `observer` is started
    /// before the first cycle, called every [`SimObserver::interval`]
    /// cycles, and may abort the run early (the partial statistics are
    /// returned, with `committed < trace.len()`).
    ///
    /// Interval boundaries are honoured exactly under both engines: when
    /// the event engine's skip-ahead would jump over a boundary, it is
    /// capped to land on it, so observers see the same per-interval
    /// snapshots the reference engine produces.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the pipeline stops committing.
    pub fn run_observed<O: SimObserver + ?Sized>(
        mut self,
        observer: &mut O,
    ) -> Result<SimStats, SimError> {
        let len_hint = self.feed().total_records();
        let cfg = self.config().clone();
        observer.on_start(&cfg, len_hint.map(|n| n as usize));
        let interval = observer.interval().max(1);
        loop {
            // The next interval boundary strictly after the current cycle.
            let boundary = (self.cycle() / interval + 1) * interval;
            if self.step_bounded(boundary)? == StepOutcome::Done {
                break;
            }
            if self.cycle().is_multiple_of(interval)
                && observer.on_interval(self.cycle(), self.stats()) == ObserverAction::Abort
            {
                return Ok(self.stats().clone());
            }
        }
        observer.on_finish(self.stats());
        Ok(self.stats().clone())
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// This is the legacy convenience wrapper around
    /// [`Processor::try_run`].
    ///
    /// # Panics
    ///
    /// Panics if the pipeline deadlocks (no commit for a long time), which
    /// indicates a simulator bug rather than a program property.
    #[must_use]
    pub fn run(self) -> SimStats {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    fn config(&self) -> &SimConfig {
        on_core!(&self.core, c => &c.cfg)
    }

    fn feed(&self) -> &RecordFeed<'t> {
        on_core!(&self.core, c => &c.feed)
    }

    /// Serialises the complete simulation state into `out` as a
    /// self-describing checkpoint: configuration, pipeline, predictors,
    /// committed architectural state, and the trace-source position.
    /// [`Processor::restore`] over a fresh source resumes the run with
    /// **bit-identical** statistics to never having stopped.
    ///
    /// # Errors
    ///
    /// [`sqip_snapshot::SnapError::Unsupported`] when a trace-source error
    /// is pending (that state is not checkpointable), and
    /// [`sqip_snapshot::SnapError::Io`] when writing `out` fails.
    ///
    /// # Example
    ///
    /// ```
    /// use sqip_core::{Processor, SimConfig, SqDesign, StepOutcome};
    /// use sqip_isa::{trace_program, ProgramBuilder, ProgramSource, Reg};
    /// use sqip_types::DataSize;
    ///
    /// let mut b = ProgramBuilder::new();
    /// let (ctr, v) = (Reg::new(1), Reg::new(2));
    /// b.load_imm(ctr, 100);
    /// let top = b.label("top");
    /// b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
    /// b.load(DataSize::Quad, v, Reg::ZERO, 0x100);
    /// b.add_imm(ctr, ctr, -1);
    /// b.branch_nz(ctr, top);
    /// b.halt();
    /// let program = b.build()?;
    ///
    /// let cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    /// let mut p = Processor::from_source(cfg.clone(), ProgramSource::new(program.clone(), 10_000));
    /// p.run_until(500)?;
    ///
    /// // Checkpoint mid-run, then resume in a fresh processor over a
    /// // fresh source.
    /// let mut snap = Vec::new();
    /// p.checkpoint(&mut snap)?;
    /// let mut resumed =
    ///     Processor::restore(&mut snap.as_slice(), ProgramSource::new(program, 10_000))?;
    ///
    /// let straight = p.try_run()?;
    /// let stitched = resumed.try_run()?;
    /// assert_eq!(straight, stitched, "resume is bit-identical");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn checkpoint(&self, out: &mut impl std::io::Write) -> Result<(), SnapError> {
        use sqip_snapshot::Snapshot as _;
        let mut w = sqip_snapshot::SnapWriter::new();
        let cfg_json = serde_json::to_string(self.config())
            .map_err(|e| SnapError::Corrupt(format!("configuration did not serialise: {e}")))?;
        cfg_json.save(&mut w)?;
        self.feed().pulled().save(&mut w)?;
        on_core!(&self.core, c => c.save_state(&mut w))?;
        w.finish(out)
    }

    /// Rebuilds a checkpointed processor, resuming over `source` — a
    /// fresh instance of the **same** trace source the checkpointed run
    /// consumed. The already-simulated prefix is skipped by pulling (and
    /// discarding) the records the checkpoint had pulled; simulation then
    /// continues bit-identically from the checkpointed cycle. See
    /// [`Processor::checkpoint`] for an example.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] for a truncated, corrupt, foreign-version or
    /// inconsistent checkpoint — including [`SnapError::Corrupt`] when
    /// the configured design is not registered in this process, or when
    /// the checkpointed policy's capabilities or SQ size differ from the
    /// configured design's; [`SnapError::Source`] when `source` fails or
    /// ends before the checkpointed position.
    pub fn restore(
        input: &mut impl std::io::Read,
        mut source: impl TraceSource + 't,
    ) -> Result<Processor<'t>, SnapError> {
        use sqip_snapshot::Snapshot as _;
        let mut r = sqip_snapshot::SnapReader::new(input)?;
        let cfg_json = String::load(&mut r)?;
        let cfg: SimConfig = serde_json::from_str(&cfg_json)
            .map_err(|e| SnapError::Corrupt(format!("configuration did not parse: {e}")))?;
        cfg.try_validate()
            .map_err(|e| SnapError::Corrupt(format!("checkpointed configuration invalid: {e}")))?;
        RecordFeed::resume(&mut source, u64::load(&mut r)?)?;
        let mut p = Processor::new_unchecked(cfg, source);
        on_core!(&mut p.core, c => c.load_state(&mut r))?;
        r.finish()?;
        Ok(p)
    }
}

impl std::fmt::Debug for Processor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Processor")
            .field("design", &self.config().design)
            .field("engine", &self.config().engine)
            .field("cycle", &self.cycle())
            .field("committed", &self.stats().committed)
            .field("buffered", &self.buffered_records())
            .finish_non_exhaustive()
    }
}
