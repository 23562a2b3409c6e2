//! Cooperative cancellation and incremental row streaming: a cancelled
//! sweep stops within one step, never opens a workload it has not
//! started, and leaks no source; each cell's row streams before the next
//! cell starts, and streamed rows concatenate into the batch `ResultSet`
//! bytes exactly.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::per_cell_reference;
use sqip::{
    CancelToken, CellEvent, Experiment, ObserverAction, ResultSet, SimConfig, SimStats, SqDesign,
    SqipError, SweepEngine, TraceSource, Workload,
};
use sqip_core::engine::FETCH_BLOCK;
use sqip_isa::{ProgramBuilder, ProgramSource, Reg};
use sqip_types::DataSize;

/// A long-running streaming workload whose pulls, opens and drops are
/// counted — the probe for "stops promptly, leaks nothing".
struct ProbeSource {
    inner: ProgramSource,
    pulls: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
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
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// The probe's counters: records pulled, sources opened, sources dropped.
#[derive(Default, Clone)]
struct Probe {
    pulls: Arc<AtomicU64>,
    opened: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Probe {
    fn pulls(&self) -> u64 {
        self.pulls.load(Ordering::Relaxed)
    }
    fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }
    /// Every source the sweep opened has been dropped.
    fn nothing_leaked(&self) -> bool {
        self.opened() == self.dropped.load(Ordering::Relaxed)
    }
}

/// A store/load loop of `iters` iterations (`i64::MAX`: until the
/// budget runs out, an error).
fn probe_workload(name: &str, budget: u64, iters: i64, probe: &Probe) -> Workload {
    let mut b = ProgramBuilder::new();
    let ctr = Reg::new(60);
    b.load_imm(ctr, iters);
    let top = b.label("top");
    b.store(DataSize::Quad, ctr, Reg::ZERO, 0x100);
    b.load(DataSize::Quad, Reg::new(2), Reg::ZERO, 0x100);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    let program = b.build().unwrap();
    let probe = probe.clone();
    Workload::from_factory(name, "cancellation probe", move || {
        probe.opened.fetch_add(1, Ordering::Relaxed);
        Ok(Box::new(ProbeSource {
            inner: ProgramSource::new(program.clone(), budget),
            pulls: Arc::clone(&probe.pulls),
            dropped: Arc::clone(&probe.dropped),
        }) as Box<_>)
    })
}

/// One cell's record window: the most records its processor pulls
/// ahead of commit, `rob_size + 5·fetch_width + FETCH_BLOCK` at the
/// configuration every cell here runs.
fn cell_window() -> u64 {
    let cfg = SimConfig::default();
    (cfg.rob_size + 5 * cfg.fetch_width + FETCH_BLOCK) as u64
}

/// A sweep whose token is already cancelled stops before its first
/// cell opens the workload: nothing is pulled, let alone a cell's record
/// window, and no source is left alive.
#[test]
fn pre_cancelled_sweep_stops_within_one_ring_window() {
    let probe = Probe::default();
    let budget = 50_000_000u64; // far beyond a ring window
    let experiment = Experiment::new()
        .workload(probe_workload("cancel-pre", budget, i64::MAX, &probe))
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

    let pulled = probe.pulls();
    assert!(
        pulled <= cell_window(),
        "pre-cancelled sweep pulled {pulled} records (> one cell window)"
    );
    assert_eq!(probe.opened(), 0, "a cancelled sweep opened a workload");
    assert!(probe.nothing_leaked(), "upstream source leaked");
}

/// Cancelling mid-run (from an observer callback, i.e. from inside the
/// step loop) stops the sweep within one cell window of the cancel
/// point, drops the running cell's source and opens no other.
#[test]
fn mid_run_cancel_stops_within_one_ring_window() {
    let probe = Probe::default();
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
        .workload(probe_workload("cancel-mid", budget, i64::MAX, &probe))
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1)
        .observe({
            let token = token.clone();
            let pulls = Arc::clone(&probe.pulls);
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

    let total = probe.pulls();
    let at_cancel = pulls_at_cancel.load(Ordering::Relaxed);
    assert!(at_cancel > 0, "the observer never fired");
    assert!(
        total <= at_cancel + cell_window(),
        "sweep ran on after cancel: {total} pulls vs {at_cancel} at cancel"
    );
    assert!(total < budget, "sweep consumed the whole stream anyway");
    assert_eq!(probe.opened(), 1, "the second cell never starts");
    assert!(probe.nothing_leaked(), "upstream source leaked");
}

/// A single-cell sweep honours the token too: it opens nothing, so
/// nothing can leak.
#[test]
fn single_cell_groups_cancel() {
    let probe = Probe::default();
    let experiment = Experiment::new()
        .workload(probe_workload(
            "cancel-single",
            50_000_000,
            i64::MAX,
            &probe,
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
    assert_eq!(probe.pulls(), 0, "nothing simulated");
    assert_eq!(probe.opened(), 0, "a cancelled sweep opened a workload");
    assert!(probe.nothing_leaked(), "upstream source leaked");
}

fn streaming_experiment() -> Experiment {
    Experiment::new()
        .workload(Workload::from_registry("mix:0xbeef:15k").unwrap())
        .workload(Workload::from_registry("chase:128:64:10k").unwrap())
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1)
}

/// [`streaming_experiment`] under one design.
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
/// with one design per workload or several.
#[test]
fn streamed_rows_concatenate_into_batch_bytes() {
    for (shape, experiment) in [
        ("multi-design", streaming_experiment()),
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

    // One worker runs the cells one after another in cell order, so
    // completion order is cell order.
    assert_eq!(order(&first), vec![0, 1, 2, 3]);
}

/// Rows stream per cell: on one worker, cell k's `Finished` event
/// arrives before cell k+1's observer starts. Cancelling from inside the
/// first event's sink leaves the later cells `Cancelled` without ever
/// opening their workload.
#[test]
fn each_row_streams_before_the_next_cell_starts() {
    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Start(String),
        Finished(usize),
    }
    struct Starts {
        label: String,
        log: Arc<Mutex<Vec<Seen>>>,
    }
    impl sqip::SimObserver for Starts {
        fn on_start(&mut self, _config: &sqip::SimConfig, _len: Option<usize>) {
            self.log
                .lock()
                .unwrap()
                .push(Seen::Start(self.label.clone()));
        }
    }

    let probe = Probe::default();
    let log: Arc<Mutex<Vec<Seen>>> = Arc::default();
    let experiment = Experiment::new()
        .workload(probe_workload("stream-order", 50_000, 5_000, &probe))
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3FwdDly,
        ])
        .threads(1)
        .observe({
            let log = Arc::clone(&log);
            move |run| {
                Box::new(Starts {
                    label: run.label(),
                    log: Arc::clone(&log),
                })
            }
        });
    let labels: Vec<String> = experiment
        .cells()
        .unwrap()
        .iter()
        .map(sqip::Run::label)
        .collect();
    let engine = |token: Option<CancelToken>| {
        let sink_log = Arc::clone(&log);
        SweepEngine::new().threads(1).on_cell(move |event| {
            sink_log.lock().unwrap().push(Seen::Finished(event.index()));
            if let Some(token) = &token {
                token.cancel();
            }
        })
    };

    engine(None).run(&experiment).unwrap();
    let expected: Vec<Seen> = (0..3)
        .flat_map(|k| [Seen::Start(labels[k].clone()), Seen::Finished(k)])
        .collect();
    assert_eq!(*log.lock().unwrap(), expected, "rows must stream per cell");
    assert_eq!(probe.opened(), 3, "one open per cell");

    log.lock().unwrap().clear();
    let opened_before = probe.opened();
    let token = CancelToken::new();
    let err = engine(Some(token.clone()))
        .cancel_token(token)
        .run(&experiment)
        .unwrap_err();
    match &err {
        SqipError::Cancelled { cell } => assert_eq!(cell, &labels[1], "first unfinished cell"),
        other => panic!("expected a cancellation, got {other}"),
    }
    assert_eq!(
        *log.lock().unwrap(),
        vec![Seen::Start(labels[0].clone()), Seen::Finished(0)],
        "cells 2 and 3 must never start"
    );
    assert_eq!(
        probe.opened() - opened_before,
        1,
        "cancelled cells opened their workload"
    );
    assert!(probe.nothing_leaked(), "upstream source leaked");
}

/// An experiment with an observer runs through the same sweep loop —
/// no shared pass, so its telemetry holds no groups — and the observer
/// sees start/interval/finish callbacks once per cell.
#[test]
fn observers_ride_the_sweep_loop() {
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
    assert!(telemetry.groups.is_empty(), "no sweep shares a pass");
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
