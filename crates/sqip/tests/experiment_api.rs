//! Tests for the Experiment driver API: sweep shape, parallel/serial
//! determinism, observer hooks, the resumable step core, and result
//! serialization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;

use sqip::{
    by_name, shrink, Experiment, ObserverAction, Processor, ProgramSource, SimConfig, SimObserver,
    SimStats, SqDesign, SqipError, StepOutcome, Workload,
};

fn small_experiment() -> Experiment {
    Experiment::new()
        .workloads(["gzip", "mesa.t"].map(|n| shrink(by_name(n).unwrap(), 150)))
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
}

#[test]
fn cells_enumerate_the_cartesian_product_in_order() {
    let cells = small_experiment()
        .vary("a", |_| {})
        .vary("b", |cfg| cfg.fsp.entries = 512)
        .cells()
        .expect("well-formed experiment");
    assert_eq!(cells.len(), 2 * 2 * 2);
    let labels: Vec<String> = cells.iter().map(sqip::Run::label).collect();
    assert_eq!(labels[0], "gzip/ideal-oracle/a");
    assert_eq!(labels[1], "gzip/ideal-oracle/b");
    assert_eq!(labels[2], "gzip/indexed-3-fwd+dly/a");
    assert_eq!(labels[7], "mesa.t/indexed-3-fwd+dly/b");
    // Variant mutations are baked into the cell configs.
    assert_eq!(cells[1].config.fsp.entries, 512);
    assert_eq!(cells[0].config.fsp.entries, 4096);
}

#[test]
fn malformed_experiments_are_rejected() {
    let no_workloads = Experiment::new().design(SqDesign::IdealOracle).run();
    assert!(matches!(no_workloads, Err(SqipError::Config(_))));
    let no_designs = Experiment::new().workload(by_name("gzip").unwrap()).run();
    assert!(matches!(no_designs, Err(SqipError::Config(_))));
    // An invalid cell config is caught at cell-resolution time, tagged
    // with the failing cell.
    let bad = small_experiment()
        .vary("bad-sq", |cfg| cfg.sq_size = 32)
        .run();
    match bad {
        Err(SqipError::Sim { cell, .. }) => assert!(cell.contains("bad-sq"), "{cell}"),
        other => panic!("expected a tagged Sim error, got {other:?}"),
    }
    // Sweeps group cells by workload name, so duplicate names would
    // silently alias two different workloads — rejected instead.
    let duplicate = Experiment::new()
        .workload(shrink(by_name("gzip").unwrap(), 100))
        .workload(by_name("gzip").unwrap())
        .design(SqDesign::IdealOracle)
        .run();
    match duplicate {
        Err(SqipError::Config(msg)) => assert!(msg.contains("duplicate"), "{msg}"),
        other => panic!("expected a duplicate-name Config error, got {other:?}"),
    }
}

/// The headline determinism guarantee: a sweep at any thread count
/// returns bit-identical `SimStats`, in the same order, to every cell
/// simulated alone.
#[test]
fn parallel_and_serial_sweeps_are_bit_identical() {
    let experiment = small_experiment()
        .vary("base", |_| {})
        .vary("small-fsp", |cfg| {
            cfg.fsp.entries = 512;
        });
    let serial = experiment
        .clone()
        .threads(1)
        .run()
        .expect("serial sweep runs");
    let reference = common::per_cell_reference(&experiment);
    assert_eq!(serial, reference, "sweep ≡ per-cell");
    assert_eq!(serial.to_json(), reference.to_json());
    for threads in [2, 4, 7] {
        let parallel = experiment
            .clone()
            .threads(threads)
            .run()
            .expect("parallel sweep runs");
        assert_eq!(parallel, serial, "threads={threads}");
    }
    // Also via the auto-threaded entry point.
    let auto = experiment.run().expect("auto-threaded sweep runs");
    assert_eq!(auto, serial);
}

#[derive(Default)]
struct Counts {
    starts: AtomicU64,
    intervals: AtomicU64,
    finishes: AtomicU64,
}

struct CountingObserver {
    counts: Arc<Counts>,
    interval: u64,
}

impl SimObserver for CountingObserver {
    fn interval(&self) -> u64 {
        self.interval
    }
    fn on_start(&mut self, _cfg: &SimConfig, _trace_len: Option<usize>) {
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

/// Observer callbacks fire a predictable number of times: one start and
/// one finish per cell, and one interval callback per `interval` cycles.
#[test]
fn observer_callbacks_fire_the_expected_number_of_times() {
    let counts = Arc::new(Counts::default());
    let interval = 500;
    let factory_counts = Arc::clone(&counts);
    let results = small_experiment()
        .observe(move |_run| {
            Box::new(CountingObserver {
                counts: Arc::clone(&factory_counts),
                interval,
            })
        })
        .run()
        .expect("observed sweep runs");

    let cells = results.len() as u64;
    assert_eq!(cells, 4);
    assert_eq!(counts.starts.load(Ordering::Relaxed), cells);
    assert_eq!(counts.finishes.load(Ordering::Relaxed), cells);
    // One interval callback per completed `interval` cycles, except at
    // the final cycle (the run ends before the callback would fire).
    let expected: u64 = results
        .iter()
        .map(|r| (r.stats.cycles - 1) / interval)
        .sum();
    assert_eq!(counts.intervals.load(Ordering::Relaxed), expected);
}

struct AbortAfterFirstInterval;

impl SimObserver for AbortAfterFirstInterval {
    fn interval(&self) -> u64 {
        200
    }
    fn on_interval(&mut self, _cycle: u64, _stats: &SimStats) -> ObserverAction {
        ObserverAction::Abort
    }
}

#[test]
fn observers_can_abort_runs_early() {
    let results = Experiment::new()
        .workload(shrink(by_name("gzip").unwrap(), 500))
        .design(SqDesign::Indexed3FwdDly)
        .observe(|_| Box::new(AbortAfterFirstInterval))
        .run()
        .expect("aborted sweep still returns partial stats");
    let record = &results.records()[0];
    assert_eq!(record.stats.cycles, 200, "stopped at the first interval");
    let full = sqip::simulate(
        &shrink(by_name("gzip").unwrap(), 500),
        SqDesign::Indexed3FwdDly,
    )
    .expect("full run");
    assert!(
        record.stats.committed < full.committed,
        "abort left the trace unfinished"
    );
}

/// The resumable core: stepping a processor by hand (with arbitrary
/// `run_until` breakpoints) reaches the same final statistics as a
/// one-shot run.
#[test]
fn stepped_execution_matches_one_shot_execution() {
    let spec = shrink(by_name("gzip").unwrap(), 100);
    let trace = spec.trace().expect("workload traces");
    let config = SimConfig::with_design(SqDesign::Indexed3FwdDly);

    let one_shot = Processor::try_new(config.clone(), &trace)
        .and_then(Processor::try_run)
        .expect("one-shot run");

    let mut stepped = Processor::try_new(config, &trace).expect("valid config");
    // Advance in ragged chunks to exercise mid-run pauses.
    let mut limit = 13;
    while stepped.run_until(limit).expect("no deadlock") == StepOutcome::Running {
        assert!(stepped.cycle() <= limit);
        // Mid-run statistics are live: totals are folded in every step.
        assert_eq!(stepped.stats().cycles, stepped.cycle());
        limit = limit * 2 + 7;
    }
    assert!(stepped.is_done());
    assert_eq!(stepped.stats(), &one_shot);
    // Stepping past completion is a no-op.
    assert_eq!(stepped.step().expect("no deadlock"), StepOutcome::Done);
    assert_eq!(stepped.stats(), &one_shot);
}

/// Custom record streams drive through the same sweep machinery as
/// Table 3 models, one stream opened per design cell.
#[test]
fn custom_traces_sweep_like_workloads() {
    let spec = shrink(by_name("gzip").unwrap(), 100);
    let (program, budget) = (spec.build().expect("builds"), spec.budget());
    let custom = Workload::from_factory("custom-gzip", "gzip, renamed", move || {
        Ok(Box::new(ProgramSource::new(program.clone(), budget)) as Box<_>)
    });
    let results = Experiment::new()
        .workload(custom)
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .run()
        .expect("custom-trace sweep runs");
    assert_eq!(results.len(), 2);
    assert_eq!(results.records()[0].workload, "custom-gzip");
    assert_eq!(results.records()[0].suite, None);
    assert!(results.records()[1].stats.committed > 0);
}

/// Sweep results survive a JSON round trip and render as CSV.
#[test]
fn sweep_results_serialize_and_round_trip() {
    let results = small_experiment().run().expect("sweep runs");
    let back = sqip::ResultSet::from_json(&results.to_json()).expect("round trip");
    assert_eq!(back, results);
    let csv = results.to_csv();
    assert_eq!(csv.lines().count(), 1 + results.len());
    assert!(csv
        .lines()
        .nth(1)
        .unwrap()
        .starts_with("gzip,Int,ideal-oracle,base,"));
}
