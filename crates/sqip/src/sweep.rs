//! The sweep engine: every selected design cell is its own unit of
//! work, and each cell's row streams out the moment the cell finishes.
//!
//! Every sweep — [`Experiment::run`], [`Experiment::run_cached`]'s
//! misses, [`Experiment::run_shard`]'s owned cells, a `sqipd` job —
//! runs through one driver. Per cell, on one worker thread, it:
//!
//! * opens the cell's workload stream
//!   ([`Workload::open`](crate::Workload::open)),
//! * simulates it with [`Processor::try_from_source`] (its own
//!   dependence oracle), one [`Processor::step_bounded`] at a time,
//!   checking the [`CancelToken`] before every step, and
//! * hands the finished cell's [`CellEvent`] to the [`SweepEngine::on_cell`]
//!   sink and drops the processor, so a worker holds one processor at a
//!   time.
//!
//! Observers ride the same loop and fire **exactly** on their interval
//! boundaries: a cell with an observer steps no further than its next
//! boundary, as [`Processor::run_observed`] does.
//!
//! Cells run in [`Experiment::cells`] order, which keeps a workload's
//! cells adjacent. Worker threads claim them from one shared in-order
//! queue (see [`ordered_map`](crate::parallel::ordered_map)), so with
//! more than one thread a workload's cells may run on different workers
//! at once. Each cell is exactly the run [`Processor::try_run`] would
//! make on its own, so results are **bit-identical** to that for any
//! thread count — pinned by a proptest.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sqip_core::{ObserverAction, Processor, SimStats, StepOutcome};

use crate::error::SqipError;
use crate::experiment::{Experiment, ObserverFn, Run};
use crate::parallel::{default_threads, ordered_map};
use crate::results::{ResultSet, RunRecord};

/// A shared abort switch for cooperative sweep cancellation.
///
/// Clone the token, hand one clone to [`SweepEngine::cancel_token`], keep
/// the other, and flip it from any thread ([`CancelToken::cancel`]); the
/// engine checks it before opening each cell's workload and before every
/// [`Processor::step_bounded`], so a cancelled sweep stops within one
/// step — the running cell drops its processor and source, and cells
/// not yet started never open their workload. Unfinished cells report
/// [`SqipError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; every sweep holding a clone stops at its next
    /// step boundary. Idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A per-cell completion notification streamed while a sweep is still
/// running (see [`SweepEngine::on_cell`]). Fired on the worker thread
/// that ran the cell, the moment the cell ends — before that worker
/// starts its next cell.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one event per finished cell, far off the hot path; boxing would ripple through the streaming API
pub enum CellEvent {
    /// A cell ran to completion (or an observer aborted it early, in
    /// which case the record holds the partial statistics).
    Finished {
        /// The cell's index in [`Experiment::cells`] order.
        index: usize,
        /// The finished cell's result row — exactly the [`RunRecord`]
        /// that will appear at `index` in the final [`ResultSet`].
        record: RunRecord,
    },
    /// A cell failed; the sweep's own `Result` carries the first failure
    /// in cell order, this event reports them as they happen.
    Failed {
        /// The cell's index in [`Experiment::cells`] order.
        index: usize,
        /// The cell's `workload/design/variant` label.
        cell: String,
        /// The rendered failure.
        error: String,
    },
}

impl CellEvent {
    /// The cell's index in [`Experiment::cells`] order.
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            CellEvent::Finished { index, .. } | CellEvent::Failed { index, .. } => *index,
        }
    }
}

/// A sink for [`CellEvent`]s ([`SweepEngine::on_cell`]). Called from
/// worker threads, hence `Send + Sync`.
pub type CellEventFn = Arc<dyn Fn(CellEvent) + Send + Sync>;

/// Builds the event for a finished/failed cell and hands it to the sink,
/// if one is installed. (Cancelled cells fire no event: the caller that
/// cancelled the sweep already knows.)
fn emit_cell_event(
    events: Option<&CellEventFn>,
    cell: &Run,
    index: usize,
    result: &Result<SimStats, SqipError>,
) {
    let Some(sink) = events else { return };
    let event = match result {
        Ok(stats) => CellEvent::Finished {
            index,
            record: cell.record(stats.clone()),
        },
        Err(SqipError::Cancelled { .. }) => return,
        Err(e) => CellEvent::Failed {
            index,
            cell: cell.label(),
            error: e.to_string(),
        },
    };
    sink(event);
}

/// Telemetry of one shared pass: a [`sqip_isa::TraceTee`] ring's
/// high-water mark and each consumer's lag, reported separately from
/// each cell's own [`Processor::buffered_records`] peak.
///
/// Sweeps no longer share a pass, so [`SweepTelemetry::groups`] never
/// holds one; the shape stays for callers that read it (perfbench's
/// traced ledger, whose ring counts now read zero).
#[derive(Debug, Clone)]
pub struct GroupTelemetry {
    /// The group's workload name.
    pub workload: String,
    /// Cell labels in group order.
    pub cells: Vec<String>,
    /// Records pulled from the upstream source (exactly once each).
    pub records_pulled: u64,
    /// The shared tee ring's capacity in records.
    pub ring_capacity: u64,
    /// Peak occupancy of the shared tee ring.
    pub ring_high_water: u64,
    /// Per cell: peak records buffered in the cell's own window
    /// (commit point to fetch frontier).
    pub peak_buffered: Vec<u64>,
    /// Per cell: peak lag behind the shared pull frontier, in records.
    pub peak_lag: Vec<u64>,
}

/// Telemetry for a whole sweep, as returned by
/// [`SweepEngine::run_with_telemetry`]. Every cell simulates its own
/// stream, so no sweep has a shared ring and `groups` is always empty;
/// the type stays so the callers that read it keep working.
#[derive(Debug, Clone, Default)]
pub struct SweepTelemetry {
    /// One entry per shared pass; always empty (see above).
    pub groups: Vec<GroupTelemetry>,
}

/// Executes [`Experiment`]s one cell at a time per worker, streaming
/// each cell's row as it finishes and checking the cancel token at every
/// step. With more than one thread, a workload's cells may run on
/// different workers at once (see the module-level documentation).
///
/// # Example
///
/// ```
/// use sqip::{Experiment, Processor, SqDesign, SweepEngine};
///
/// let experiment = Experiment::new()
///     .workload(sqip::Workload::from_registry("mix:0xfeed:20k")?)
///     .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly]);
///
/// let results = SweepEngine::new().run(&experiment)?;
/// // Bit-identical to simulating each cell alone (pinned by proptest,
/// // shown here).
/// for (cell, record) in experiment.cells()?.iter().zip(&results) {
///     let alone = Processor::try_from_source(cell.config.clone(), cell.workload.open()?)?
///         .try_run()?;
///     assert_eq!(record.stats, alone);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Default)]
pub struct SweepEngine {
    threads: Option<usize>,
    token: Option<CancelToken>,
    events: Option<CellEventFn>,
}

impl std::fmt::Debug for SweepEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepEngine")
            .field("threads", &self.threads)
            .field("cancellable", &self.token.is_some())
            .field("streams_events", &self.events.is_some())
            .finish()
    }
}

impl SweepEngine {
    /// The ring capacity, in records, for a hand-built shared pass
    /// ([`sqip_core::oracle_tap`] + [`sqip_isa::TraceTee`]). Sweeps no
    /// longer build one; the constant stays because perfbench's layer
    /// probes size their tap and tee with it.
    pub const RING_CAPACITY: usize = 4096;

    /// An engine with one worker per available core.
    #[must_use]
    pub fn new() -> SweepEngine {
        SweepEngine::default()
    }

    /// Caps the worker-thread count (`1` forces a serial run; results are
    /// identical either way).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> SweepEngine {
        self.threads = Some(threads.max(1));
        self
    }

    /// Installs a cooperative cancellation token. The engine checks it
    /// before each cell opens its workload and before every
    /// [`Processor::step_bounded`]; once cancelled, unfinished cells
    /// report [`SqipError::Cancelled`] (the sweep's `Result` is the first
    /// failure in cell order), the running cell's processor and source
    /// are dropped, and no further workload is opened.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> SweepEngine {
        self.token = Some(token);
        self
    }

    /// Installs a per-cell completion sink: as each cell finishes (on
    /// whichever worker thread ran it), `sink` receives a [`CellEvent`]
    /// carrying the cell's final [`RunRecord`] — the same row, bit for
    /// bit, that the returned [`ResultSet`] will hold at that index. The
    /// event fires before the worker starts its next cell, so rows
    /// stream one by one rather than a workload at a time.
    #[must_use]
    pub fn on_cell(mut self, sink: impl Fn(CellEvent) + Send + Sync + 'static) -> SweepEngine {
        self.events = Some(Arc::new(sink));
        self
    }

    /// Runs the experiment's sweep. See [`SweepEngine::run_with_telemetry`].
    ///
    /// # Errors
    ///
    /// The first workload or cell failure, in cell order.
    pub fn run(&self, experiment: &Experiment) -> Result<ResultSet, SqipError> {
        self.run_with_telemetry(experiment).map(|(set, _)| set)
    }

    /// Runs the experiment's sweep and returns its telemetry alongside
    /// the results (see [`SweepTelemetry`]).
    ///
    /// Each cell's observer is driven with the semantics of
    /// [`Processor::run_observed`]: `on_start` fires when the cell
    /// starts, and `on_interval` fires exactly on every interval
    /// boundary the run reaches. `Abort` is honoured per cell: the
    /// aborted cell records its partial statistics and the sweep moves
    /// on to the next cell.
    ///
    /// # Errors
    ///
    /// The first workload or cell failure, in cell order.
    pub fn run_with_telemetry(
        &self,
        experiment: &Experiment,
    ) -> Result<(ResultSet, SweepTelemetry), SqipError> {
        let cells = experiment.cells()?;
        let all: Vec<usize> = (0..cells.len()).collect();
        let outcomes = self.drive(experiment, &cells, &all, experiment.observer_fn());
        let records = cells
            .iter()
            .zip(outcomes)
            .map(|(cell, stats)| stats.map(|stats| cell.record(stats)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((ResultSet::new(records), SweepTelemetry::default()))
    }

    /// The one sweep driver: runs the `selected` cells (indices into
    /// `cells`, in cell order) one per unit of work over the worker
    /// threads, and returns each selected cell's outcome in `selected`
    /// order.
    pub(crate) fn drive(
        &self,
        experiment: &Experiment,
        cells: &[Run],
        selected: &[usize],
        observer: Option<&ObserverFn>,
    ) -> Vec<Result<SimStats, SqipError>> {
        // Engine-level threads win; otherwise the experiment's own
        // setting; otherwise one worker per core.
        let threads = self
            .threads
            .or_else(|| experiment.threads_setting())
            .unwrap_or_else(default_threads);
        let cancelled = || self.token.as_ref().is_some_and(CancelToken::is_cancelled);
        ordered_map(selected, threads, |_, &i| {
            let result = run_cell(&cells[i], observer, &cancelled);
            emit_cell_event(self.events.as_ref(), &cells[i], i, &result);
            result
        })
    }
}

/// Runs one cell to its outcome on the calling worker thread, checking
/// `cancelled` before the workload opens and before every step.
fn run_cell(
    cell: &Run,
    observer: Option<&ObserverFn>,
    cancelled: &dyn Fn() -> bool,
) -> Result<SimStats, SqipError> {
    let cancel = || SqipError::Cancelled { cell: cell.label() };
    let sim_err = |source| SqipError::Sim {
        cell: cell.label(),
        source,
    };
    if cancelled() {
        return Err(cancel());
    }
    let source = cell.workload.open().map_err(|source| SqipError::Workload {
        name: cell.workload.name().to_string(),
        source,
    })?;
    let mut p = Processor::try_from_source(cell.config.clone(), source).map_err(sim_err)?;
    let mut observer = observer.map(|factory| {
        let mut obs = factory(cell);
        obs.on_start(&cell.config, None);
        let interval = obs.interval().max(1);
        (obs, interval)
    });
    loop {
        if cancelled() {
            return Err(cancel());
        }
        // An observed cell steps no further than its next interval
        // boundary, exactly as `Processor::run_observed`.
        let limit = observer.as_ref().map_or(u64::MAX, |&(_, interval)| {
            (p.cycle() / interval + 1) * interval
        });
        match p.step_bounded(limit).map_err(sim_err)? {
            StepOutcome::Running => {
                if let Some((obs, interval)) = observer.as_mut() {
                    if p.cycle().is_multiple_of(*interval)
                        && obs.on_interval(p.cycle(), p.stats()) == ObserverAction::Abort
                    {
                        return Ok(p.stats().clone());
                    }
                }
            }
            StepOutcome::Done => {
                if let Some((obs, _)) = observer.as_mut() {
                    obs.on_finish(p.stats());
                }
                return Ok(p.stats().clone());
            }
        }
    }
}
