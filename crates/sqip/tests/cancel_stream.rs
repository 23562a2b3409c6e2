//! Cooperative cancellation and incremental row streaming: a cancelled
//! sweep stops within one ring window and leaks no tee cursors; streamed
//! per-cell rows arrive in completion order and concatenate into the
//! batch `ResultSet` bytes exactly.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::per_cell_reference;
use sqip::{
    CancelToken, CellEvent, Experiment, ObserverAction, RegisteredWorkload, ResultSet, SimStats,
    SqDesign, SqipError, SweepEngine, TraceSource, Workload,
};
use sqip_isa::{ProgramBuilder, ProgramSource, Reg};
use sqip_types::DataSize;

/// A long-running streaming workload whose upstream pulls are counted and
/// whose drop is observable — the probe for "stops promptly, leaks
/// nothing".
struct ProbeSource {
    inner: ProgramSource,
    pulls: Arc<AtomicU64>,
    dropped: Arc<AtomicBool>,
}

impl TraceSource for ProbeSource {
    fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
        let rec = self.inner.next_record()?;
        if rec.is_some() {
            self.pulls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(rec)
    }
}

impl Drop for ProbeSource {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::Relaxed);
    }
}

fn probe_workload(
    name: &str,
    budget: u64,
    pulls: Arc<AtomicU64>,
    dropped: Arc<AtomicBool>,
) -> Workload {
    let mut b = ProgramBuilder::new();
    let ctr = Reg::new(60);
    b.load_imm(ctr, i64::MAX);
    let top = b.label("top");
    b.store(DataSize::Quad, ctr, Reg::ZERO, 0x100);
    b.load(DataSize::Quad, Reg::new(2), Reg::ZERO, 0x100);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    let program = b.build().unwrap();
    Workload::from(RegisteredWorkload::from_factory(
        name,
        "cancellation probe",
        move || {
            Ok(Box::new(ProbeSource {
                inner: ProgramSource::new(program.clone(), budget),
                pulls: Arc::clone(&pulls),
                dropped: Arc::clone(&dropped),
            }) as Box<_>)
        },
    ))
}

/// A sweep whose token is already cancelled stops within one ring window
/// — the shared pass pulls at most the initial fill — and the upstream
/// source (with every tee cursor above it) is dropped.
#[test]
fn pre_cancelled_sweep_stops_within_one_ring_window() {
    let pulls = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicBool::new(false));
    let budget = 50_000_000u64; // far beyond a ring window
    let experiment = Experiment::new()
        .workload(probe_workload(
            "cancel-pre",
            budget,
            Arc::clone(&pulls),
            Arc::clone(&dropped),
        ))
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1);

    let token = CancelToken::new();
    token.cancel();
    let err = SweepEngine::new()
        .threads(1)
        .cancel_token(token)
        .run(&experiment)
        .unwrap_err();
    assert!(matches!(err, SqipError::Cancelled { .. }), "{err}");

    let pulled = pulls.load(Ordering::Relaxed);
    assert!(
        pulled <= SweepEngine::RING_CAPACITY as u64,
        "pre-cancelled sweep pulled {pulled} records (> one ring window)"
    );
    assert!(
        dropped.load(Ordering::Relaxed),
        "upstream source leaked: tee cursors were not dropped"
    );
}

/// Cancelling mid-run (from an observer callback, i.e. from inside the
/// lock-step loop) stops the sweep within one ring window of the cancel
/// point and drops the shared pass.
#[test]
fn mid_run_cancel_stops_within_one_ring_window() {
    let pulls = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicBool::new(false));
    let budget = 50_000_000u64;
    let token = CancelToken::new();
    let pulls_at_cancel = Arc::new(AtomicU64::new(0));

    struct CancelAt {
        token: CancelToken,
        pulls: Arc<AtomicU64>,
        pulls_at_cancel: Arc<AtomicU64>,
    }
    impl sqip::SimObserver for CancelAt {
        fn interval(&self) -> u64 {
            5_000
        }
        fn on_interval(&mut self, _cycle: u64, _stats: &SimStats) -> ObserverAction {
            self.pulls_at_cancel
                .store(self.pulls.load(Ordering::Relaxed), Ordering::Relaxed);
            self.token.cancel();
            ObserverAction::Continue
        }
    }

    let experiment = Experiment::new()
        .workload(probe_workload(
            "cancel-mid",
            budget,
            Arc::clone(&pulls),
            Arc::clone(&dropped),
        ))
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1)
        .observe({
            let token = token.clone();
            let pulls = Arc::clone(&pulls);
            let pulls_at_cancel = Arc::clone(&pulls_at_cancel);
            move |_| {
                Box::new(CancelAt {
                    token: token.clone(),
                    pulls: Arc::clone(&pulls),
                    pulls_at_cancel: Arc::clone(&pulls_at_cancel),
                })
            }
        });

    let err = SweepEngine::new()
        .threads(1)
        .cancel_token(token)
        .run(&experiment)
        .unwrap_err();
    assert!(matches!(err, SqipError::Cancelled { .. }), "{err}");

    let total = pulls.load(Ordering::Relaxed);
    let at_cancel = pulls_at_cancel.load(Ordering::Relaxed);
    assert!(at_cancel > 0, "the observer never fired");
    assert!(
        total <= at_cancel + SweepEngine::RING_CAPACITY as u64,
        "sweep ran on after cancel: {total} pulls vs {at_cancel} at cancel"
    );
    assert!(total < budget, "sweep consumed the whole stream anyway");
    assert!(dropped.load(Ordering::Relaxed), "upstream source leaked");
}

/// A group of one (no shared ring: the cell simulates its stream
/// directly) honours the token too, and drops its source.
#[test]
fn single_cell_groups_cancel() {
    let pulls = Arc::new(AtomicU64::new(0));
    let dropped = Arc::new(AtomicBool::new(false));
    let experiment = Experiment::new()
        .workload(probe_workload(
            "cancel-single",
            50_000_000,
            Arc::clone(&pulls),
            Arc::clone(&dropped),
        ))
        .design(SqDesign::Indexed3FwdDly)
        .threads(1);
    let token = CancelToken::new();
    token.cancel();
    let err = SweepEngine::new()
        .threads(1)
        .cancel_token(token)
        .run(&experiment)
        .unwrap_err();
    assert!(matches!(err, SqipError::Cancelled { .. }), "{err}");
    assert_eq!(pulls.load(Ordering::Relaxed), 0, "nothing simulated");
    assert!(dropped.load(Ordering::Relaxed), "upstream source leaked");
}

fn streaming_experiment() -> Experiment {
    Experiment::new()
        .workload(Workload::from_registry("mix:0xbeef:15k").unwrap())
        .workload(Workload::from_registry("chase:128:64:10k").unwrap())
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1)
}

/// [`streaming_experiment`] under one design: every group is a group of
/// one.
fn single_design_experiment() -> Experiment {
    Experiment::new()
        .workload(Workload::from_registry("mix:0xbeef:15k").unwrap())
        .workload(Workload::from_registry("chase:128:64:10k").unwrap())
        .design(SqDesign::Indexed3FwdDly)
        .threads(1)
}

fn collect_events(engine: SweepEngine, experiment: &Experiment) -> (ResultSet, Vec<CellEvent>) {
    let events: Arc<Mutex<Vec<CellEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let set = engine
        .on_cell(move |event| sink.lock().unwrap().push(event))
        .run(experiment)
        .unwrap();
    let events = events.lock().unwrap().clone();
    (set, events)
}

/// Streamed rows: every cell fires exactly one `Finished` event, the
/// streamed record at index `i` is the batch record at index `i` bit for
/// bit, and the concatenation of streamed rows (ordered by index)
/// reproduces the batch JSON and CSV serializations byte-identically —
/// for shared-pass groups and groups of one alike.
#[test]
fn streamed_rows_concatenate_into_batch_bytes() {
    for (shape, experiment) in [
        ("shared", streaming_experiment()),
        ("single", single_design_experiment()),
    ] {
        let cells = experiment.cells().unwrap().len();
        let (set, events) = collect_events(SweepEngine::new().threads(1), &experiment);
        assert_eq!(set.len(), cells);
        assert_eq!(events.len(), cells, "one event per cell ({shape})");

        let mut rows: Vec<(usize, sqip::RunRecord)> = events
            .iter()
            .map(|e| match e {
                CellEvent::Finished { index, record } => (*index, record.clone()),
                CellEvent::Failed { cell, error, .. } => panic!("cell {cell} failed: {error}"),
            })
            .collect();
        let mut indices: Vec<usize> = rows.iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(
            indices,
            (0..cells).collect::<Vec<_>>(),
            "no lost or duplicated rows"
        );

        rows.sort_by_key(|(i, _)| *i);
        for (i, record) in &rows {
            assert_eq!(record, &set.records()[*i], "streamed row {i} diverges");
            assert_eq!(record.to_json(), set.records()[*i].to_json());
        }

        // JSON: streamed rows joined with commas inside brackets are the
        // batch serialization, byte for byte.
        let streamed_json = format!(
            "[{}]",
            rows.iter()
                .map(|(_, r)| r.to_json())
                .collect::<Vec<_>>()
                .join(",")
        );
        assert_eq!(streamed_json, set.to_json(), "JSON bytes diverge ({shape})");

        // CSV likewise: header + one row per record.
        let mut streamed_csv = String::from(ResultSet::csv_header());
        streamed_csv.push('\n');
        for (_, r) in &rows {
            streamed_csv.push_str(&r.to_csv_row());
            streamed_csv.push('\n');
        }
        assert_eq!(streamed_csv, set.to_csv(), "CSV bytes diverge ({shape})");
    }
}

/// Events arrive in completion order, and that order is deterministic:
/// two identical single-threaded runs stream identical event sequences.
#[test]
fn event_order_is_completion_order_and_deterministic() {
    let experiment = streaming_experiment();
    let (_, first) = collect_events(SweepEngine::new().threads(1), &experiment);
    let (_, second) = collect_events(SweepEngine::new().threads(1), &experiment);
    let order = |events: &[CellEvent]| events.iter().map(CellEvent::index).collect::<Vec<_>>();
    assert_eq!(
        order(&first),
        order(&second),
        "completion order is not deterministic"
    );

    // Within one workload group the lock-step scheduler finishes cells as
    // they drain the stream — the ideal-oracle cell (indices 0 and 2 are
    // the first design) never finishes after its group partner under a
    // serial run of this workload pair. We pin only determinism and
    // completeness here; which cell wins is a property of the designs.
    assert_eq!(first.len(), 4);
}

/// The PR 5 gap, closed: an experiment with an observer now runs on the
/// shared pass (telemetry proves it — the fallback used to return no
/// groups) and the observer still sees start/interval/finish callbacks.
#[test]
fn observers_ride_the_shared_pass() {
    #[derive(Default)]
    struct Counts {
        starts: Arc<AtomicU64>,
        intervals: Arc<AtomicU64>,
        finishes: Arc<AtomicU64>,
    }
    struct Counting {
        counts: Counts,
    }
    impl sqip::SimObserver for Counting {
        fn interval(&self) -> u64 {
            1_000
        }
        fn on_start(&mut self, _config: &sqip::SimConfig, _len: Option<usize>) {
            self.counts.starts.fetch_add(1, Ordering::Relaxed);
        }
        fn on_interval(&mut self, _cycle: u64, _stats: &SimStats) -> ObserverAction {
            self.counts.intervals.fetch_add(1, Ordering::Relaxed);
            ObserverAction::Continue
        }
        fn on_finish(&mut self, _stats: &SimStats) {
            self.counts.finishes.fetch_add(1, Ordering::Relaxed);
        }
    }

    let starts = Arc::new(AtomicU64::new(0));
    let intervals = Arc::new(AtomicU64::new(0));
    let finishes = Arc::new(AtomicU64::new(0));
    let experiment = Experiment::new()
        .workload(Workload::from_registry("mix:0xabc:30k").unwrap())
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1)
        .observe({
            let (s, i, f) = (
                Arc::clone(&starts),
                Arc::clone(&intervals),
                Arc::clone(&finishes),
            );
            move |_| {
                Box::new(Counting {
                    counts: Counts {
                        starts: Arc::clone(&s),
                        intervals: Arc::clone(&i),
                        finishes: Arc::clone(&f),
                    },
                })
            }
        });

    let (observed, telemetry) = SweepEngine::new()
        .threads(1)
        .run_with_telemetry(&experiment)
        .unwrap();
    assert_eq!(
        telemetry.groups.len(),
        1,
        "observer experiments must use the shared pass (one group), not fall back per-cell"
    );
    assert_eq!(starts.load(Ordering::Relaxed), 2, "one on_start per cell");
    assert_eq!(
        finishes.load(Ordering::Relaxed),
        2,
        "one on_finish per cell"
    );
    assert!(intervals.load(Ordering::Relaxed) > 0, "intervals fired");

    // And the results are still bit-identical to per-cell runs.
    let per_cell = per_cell_reference(&experiment);
    assert_eq!(observed, per_cell);
    assert_eq!(observed.to_json(), per_cell.to_json());
}
