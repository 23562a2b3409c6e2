//! The sweep engine: trace each workload **once**, drive every design
//! cell that wants it in lock-step off that single pass.
//!
//! Every sweep — [`Experiment::run`], [`Experiment::run_cached`]'s
//! misses, [`Experiment::run_shard`]'s owned cells, a `sqipd` job —
//! runs through one driver. It groups the selected cells by workload
//! and, per group:
//!
//! * opens the workload's record stream once
//!   ([`Workload::open`](crate::Workload::open)),
//! * for a group of two or more, wraps it in a shared dependence-analysis
//!   pass ([`sqip_core::oracle_tap`]) and tees it through a bounded ring
//!   ([`sqip_isa::TraceTee`]) to one [`Processor::try_from_shared`] per
//!   cell; a group of one simulates the stream directly
//!   ([`Processor::try_from_source`], its own oracle), since a tee over
//!   one consumer is pure overhead, and
//! * round-robins [`Processor::step_bounded`] across the group in bounded
//!   quanta, skipping any consumer about to outrun the ring window —
//!   the slowest consumer is always eligible, so the group always makes
//!   progress and the ring (not the workload length) bounds memory.
//!
//! Observers ride the same loop and fire **exactly** on their interval
//! boundaries: a cell with an observer steps no further than its next
//! boundary, as [`Processor::run_observed`] does.
//!
//! Groups are distributed over worker threads by a work-stealing queue
//! (groups are few and lopsided; see
//! [`work_steal_map`](crate::parallel::work_steal_map)). Results are
//! **bit-identical** to running each cell alone for any thread count —
//! pinned by a proptest — because every cell still simulates the exact
//! record stream and oracle info it would have computed for itself.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use sqip_core::{oracle_tap, ObserverAction, Processor, SimObserver, SimStats, StepOutcome};
use sqip_isa::TraceTee;

use crate::error::SqipError;
use crate::experiment::{Experiment, ObserverFn, Run};
use crate::parallel::{default_threads, work_steal_map};
use crate::results::{ResultSet, RunRecord};

/// A shared abort switch for cooperative sweep cancellation.
///
/// Clone the token, hand one clone to [`SweepEngine::cancel_token`], keep
/// the other, and flip it from any thread ([`CancelToken::cancel`]); the
/// engine checks it at every [`Processor::step`] boundary, so a cancelled
/// sweep stops within one lock-step turn — unfinished cells report
/// [`SqipError::Cancelled`] and every shared-ring cursor is dropped with
/// its processor (nothing leaks, nothing keeps pulling the workload).
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
/// that finished the cell, in that group's completion order.
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
pub(crate) fn emit_cell_event(
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

/// Shared-ring capacity in records: the most any consumer of a group may
/// run ahead of the slowest. `run_group` re-checks that bound before
/// every step, and a step needs at most `fetch_width` new records (a
/// block pull-ahead takes only what the ring holds), so the ring only
/// has to hold a few fetch blocks; what a larger ring buys is fewer
/// early rotations. Every group allocates and fills its rings up front:
/// 4096 × 76 B of tee records and reference counts (~311 KB) plus the
/// oracle feed's 2 × 4096 × 24 B (~196 KB), so the capacity is kept
/// near what a group uses rather than what a long stream could.
const RING_CAPACITY: usize = 4096;

/// Lock-step quantum: the most steps a consumer takes per turn before
/// the scheduler rotates (large enough to amortize warming the cell's
/// simulator state back into cache, small enough to keep the group in
/// lock-step when one design is much slower than the rest). A turn ends
/// early when the consumer's next step could outrun the ring.
const QUANTUM: usize = 2048;

/// Per-group telemetry from a shared pass: the *shared ring's*
/// high-water mark and each consumer's lag, reported separately from
/// each cell's own [`Processor::buffered_records`] peak.
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

/// Telemetry for a whole sweep: one entry per shared pass. A group of
/// one has no shared ring, so it reports none.
#[derive(Debug, Clone, Default)]
pub struct SweepTelemetry {
    /// One entry per multi-cell workload group, in first-appearance
    /// order.
    pub groups: Vec<GroupTelemetry>,
}

/// Executes [`Experiment`]s with workload-grouped shared passes: one
/// record pass and one dependence-analysis pass per workload, however
/// many design cells consume it (see the module-level documentation).
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
/// // The generator runs once; both design cells consume the same pass.
/// let shared = SweepEngine::new().run(&experiment)?;
/// // Bit-identical to simulating each cell alone (pinned by proptest,
/// // shown here).
/// for (cell, record) in experiment.cells()?.iter().zip(&shared) {
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
    /// The shared tee ring's capacity in records — the bound on how far a
    /// cancelled sweep can still advance (cancellation is checked at
    /// every step, and no consumer runs more than a ring window ahead of
    /// the shared pull frontier).
    pub const RING_CAPACITY: usize = RING_CAPACITY;

    /// A shared-pass engine with one worker per available core.
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

    /// Installs a cooperative cancellation token. The engine checks it at
    /// every [`Processor::step_bounded`] boundary; once cancelled,
    /// unfinished cells report [`SqipError::Cancelled`] (the sweep's
    /// `Result` is the first failure in cell order) and every in-flight
    /// processor — with its shared-ring cursor — is dropped promptly.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> SweepEngine {
        self.token = Some(token);
        self
    }

    /// Installs a per-cell completion sink: as each cell finishes (on
    /// whichever worker thread ran it), `sink` receives a [`CellEvent`]
    /// carrying the cell's final [`RunRecord`] — the same row, bit for
    /// bit, that the returned [`ResultSet`] will hold at that index. This
    /// is how long sweeps stream incremental results (e.g. over the
    /// wire) without waiting for the slowest cell.
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

    /// Runs the experiment's sweep and returns the shared-pass telemetry
    /// alongside the results.
    ///
    /// Each cell's observer is driven from the lock-step loop with the
    /// semantics of [`Processor::run_observed`]: `on_interval` fires
    /// exactly on every interval boundary the run reaches, so an
    /// observer sees the same `(cycle, stats)` sequence whether its cell
    /// runs alone or in a group. `Abort` is honoured per cell: the
    /// aborted cell records its partial statistics while the rest of the
    /// group keeps running.
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
        let (outcomes, telemetry) = self.drive(experiment, &cells, &all, experiment.observer_fn());
        let records = cells
            .iter()
            .zip(outcomes)
            .map(|(cell, stats)| stats.map(|stats| cell.record(stats)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((ResultSet::new(records), telemetry))
    }

    /// The one sweep driver: runs the `selected` cells (indices into
    /// `cells`) grouped by workload, groups work-stolen over the worker
    /// threads, and returns each selected cell's outcome in `selected`
    /// order.
    pub(crate) fn drive(
        &self,
        experiment: &Experiment,
        cells: &[Run],
        selected: &[usize],
        observer: Option<&ObserverFn>,
    ) -> (Vec<Result<SimStats, SqipError>>, SweepTelemetry) {
        // Engine-level threads win; otherwise the experiment's own
        // setting; otherwise one worker per core.
        let threads = self
            .threads
            .or_else(|| experiment.threads_setting())
            .unwrap_or_else(default_threads);

        // Group by workload name, in first-appearance order; cell order
        // within a group is cell order. Keying by name is sound because
        // `Experiment::cells` rejects two distinct workloads under one
        // name up front.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for &i in selected {
            let name = cells[i].workload.name();
            match groups
                .iter_mut()
                .find(|g| cells[g[0]].workload.name() == name)
            {
                Some(group) => group.push(i),
                None => groups.push(vec![i]),
            }
        }

        let ctx = GroupCtx {
            token: self.token.as_ref(),
            events: self.events.as_ref(),
            observer,
        };
        let outcomes = work_steal_map(&groups, threads, |_, idxs| run_group(cells, idxs, &ctx));

        // `work_steal_map` returns outcomes in input order, so the
        // telemetry groups stay in first-appearance order.
        let mut slots: Vec<Option<Result<SimStats, SqipError>>> =
            cells.iter().map(|_| None).collect();
        let mut telemetry = SweepTelemetry::default();
        for outcome in outcomes {
            for (idx, result) in outcome.results {
                slots[idx] = Some(result);
            }
            telemetry.groups.extend(outcome.telemetry);
        }
        let results = selected
            .iter()
            .map(|&i| {
                slots[i]
                    .take()
                    .expect("every selected cell produced an outcome")
            })
            .collect();
        (results, telemetry)
    }
}

struct GroupOutcome {
    results: Vec<(usize, Result<SimStats, SqipError>)>,
    telemetry: Option<GroupTelemetry>,
}

/// The sweep-wide controls threaded into each group's scheduler.
struct GroupCtx<'a> {
    token: Option<&'a CancelToken>,
    events: Option<&'a CellEventFn>,
    observer: Option<&'a ObserverFn>,
}

impl GroupCtx<'_> {
    fn cancelled(&self) -> bool {
        self.token.is_some_and(CancelToken::is_cancelled)
    }
}

/// Runs one workload group on the calling worker thread: one upstream
/// pass, one processor per cell, round-robin quanta bounded by the ring
/// window.
fn run_group(cells: &[Run], idxs: &[usize], ctx: &GroupCtx<'_>) -> GroupOutcome {
    let n = idxs.len();
    let workload = &cells[idxs[0]].workload;
    let sim_err = |i: usize| {
        let cell = cells[i].label();
        move |source| SqipError::Sim {
            cell: cell.clone(),
            source,
        }
    };

    // Open the group's single upstream pass. A failure here is what every
    // cell would have hit opening its own pass: report it per cell.
    let upstream = match workload.open() {
        Ok(source) => source,
        Err(source) => {
            return GroupOutcome {
                results: idxs
                    .iter()
                    .map(|&i| {
                        let name = workload.name().to_string();
                        let source = source.clone();
                        (i, Err(SqipError::Workload { name, source }))
                    })
                    .collect(),
                telemetry: None,
            }
        }
    };
    // A group of one simulates its stream directly, with its own oracle:
    // a shared pass over one consumer is pure overhead.
    let (tee, built) = match idxs {
        [only] => {
            let config = cells[*only].config.clone();
            (None, vec![Processor::try_from_source(config, upstream)])
        }
        _ => {
            let (tap, feed) = oracle_tap(upstream, RING_CAPACITY);
            let (tee, cursors) = TraceTee::new(tap, n, RING_CAPACITY);
            let built = cursors
                .into_iter()
                .zip(idxs)
                .map(|(cursor, &i)| {
                    let config = cells[i].config.clone();
                    Processor::try_from_shared(config, cursor, feed.clone())
                })
                .collect();
            (Some(tee), built)
        }
    };

    let mut procs: Vec<Option<Processor<'_>>> = Vec::with_capacity(n);
    let mut results: Vec<Option<Result<SimStats, SqipError>>> = (0..n).map(|_| None).collect();
    // Each observed cell's observer and its interval.
    let mut observers: Vec<Option<(Box<dyn SimObserver>, u64)>> = (0..n).map(|_| None).collect();
    for (c, (built, &i)) in built.into_iter().zip(idxs).enumerate() {
        match built {
            Ok(p) => {
                if let Some(factory) = ctx.observer {
                    let mut obs = factory(&cells[i]);
                    obs.on_start(&cells[i].config, None);
                    let interval = obs.interval().max(1);
                    observers[c] = Some((obs, interval));
                }
                procs.push(Some(p));
            }
            Err(e) => {
                // Unreachable through `Experiment` (cells are validated up
                // front), kept total for direct `SweepEngine` users.
                results[c] = Some(Err(sim_err(i)(e)));
                procs.push(None);
            }
        }
    }

    let fw: Vec<u64> = idxs
        .iter()
        .map(|&i| cells[i].config.fetch_width as u64)
        .collect();
    // Whether consumer `c` is about to outrun the shared ring window.
    let outruns =
        |tee: &TraceTee<'_>, c: usize| tee.position(c) + fw[c] > tee.base() + tee.capacity() as u64;
    let mut peak_buffered = vec![0u64; n];
    let mut peak_lag = vec![0u64; n];
    let mut cancelled = false;

    'sweep: loop {
        let mut any_live = false;
        let mut progressed = false;
        for c in 0..n {
            let Some(p) = procs[c].as_mut() else { continue };
            any_live = true;
            // A consumer still pulling may not run more than a ring ahead
            // of the slowest; one that has drained the stream (the tee is
            // done — or failed, which ends it just as surely — and it is
            // at the frontier) holds no ring slots hostage and is always
            // eligible. Without the failed case a frontier cursor would
            // sit gated on ring capacity waiting for records that can
            // never arrive, surfacing the upstream error only after every
            // slower cell drained — or never, if it was itself the
            // slowest. A group of one has no ring to outrun.
            let gate = tee.as_ref().filter(|tee| {
                let ended = tee.is_done() || tee.is_failed();
                !(ended && tee.position(c) == tee.pulled())
            });
            if gate.is_some_and(|tee| outruns(tee, c)) {
                continue;
            }
            progressed = true;
            let mut outcome = None;
            for _ in 0..QUANTUM {
                if ctx.cancelled() {
                    cancelled = true;
                    break 'sweep;
                }
                // An observed cell steps no further than its next
                // interval boundary, exactly as `Processor::run_observed`.
                let limit = observers[c].as_ref().map_or(u64::MAX, |&(_, interval)| {
                    (p.cycle() / interval + 1) * interval
                });
                match p.step_bounded(limit) {
                    Ok(StepOutcome::Running) => {
                        peak_buffered[c] = peak_buffered[c].max(p.buffered_records() as u64);
                        if let Some((obs, interval)) = observers[c].as_mut() {
                            if p.cycle().is_multiple_of(*interval)
                                && obs.on_interval(p.cycle(), p.stats()) == ObserverAction::Abort
                            {
                                outcome = Some(Ok(p.stats().clone()));
                                break;
                            }
                        }
                        if gate.is_some_and(|tee| outruns(tee, c)) {
                            break; // about to outrun the ring: rotate
                        }
                    }
                    Ok(StepOutcome::Done) => {
                        if let Some((obs, _)) = observers[c].as_mut() {
                            obs.on_finish(p.stats());
                        }
                        outcome = Some(Ok(p.stats().clone()));
                        break;
                    }
                    Err(e) => {
                        outcome = Some(Err(sim_err(idxs[c])(e)));
                        break;
                    }
                }
            }
            if let Some(tee) = &tee {
                peak_lag[c] = peak_lag[c].max(tee.pulled().saturating_sub(tee.position(c)));
            }
            if let Some(result) = outcome {
                emit_cell_event(ctx.events, &cells[idxs[c]], idxs[c], &result);
                results[c] = Some(result);
                // Dropping the processor drops its tee cursor, releasing
                // its ring holds so the group never waits on a finished
                // (or failed) cell.
                procs[c] = None;
                observers[c] = None;
            }
        }
        if !any_live {
            break;
        }
        assert!(
            progressed,
            "lock-step sweep wedged: no consumer was eligible to run \
             (scheduler invariant violation)"
        );
    }
    if cancelled {
        // Unfinished cells report the cancellation; dropping their
        // processors drops their tee cursors.
        for (c, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(Err(SqipError::Cancelled {
                    cell: cells[idxs[c]].label(),
                }));
            }
        }
        drop(procs);
    }

    let telemetry = tee.map(|tee| GroupTelemetry {
        workload: workload.name().to_string(),
        cells: idxs.iter().map(|&i| cells[i].label()).collect(),
        records_pulled: tee.pulled(),
        ring_capacity: tee.capacity() as u64,
        ring_high_water: tee.high_water() as u64,
        peak_buffered,
        peak_lag,
    });
    GroupOutcome {
        results: idxs
            .iter()
            .zip(results)
            .map(|(&i, r)| (i, r.expect("every live cell ran to an outcome")))
            .collect(),
        telemetry,
    }
}
