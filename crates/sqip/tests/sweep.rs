//! Sweep pinning: the [`SweepEngine`] must be **bit-identical** to
//! simulating each cell alone — for random programs, every registered
//! design, and any thread count — while each executed cell opens its
//! workload once and pulls exactly the records it commits, whether the
//! cells run whole, from a cold cache or as shards.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::per_cell_reference;
use proptest::prelude::*;
use sqip::{
    CacheDir, DesignRegistry, Experiment, ObserverAction, OrderingMode, Processor,
    RegisteredWorkload, ShardSpec, SimConfig, SimObserver, SimStats, SqDesign, SweepEngine,
    TraceSource, Workload,
};
use sqip_isa::{Program, ProgramBuilder, ProgramSource, Reg};
use sqip_types::DataSize;

#[derive(Debug, Clone)]
enum Stmt {
    Alu(u8, u8, u8),
    Mul(u8, u8, u8),
    Store(u8, u16, u8),
    Load(u8, u16, u8),
    Fp(u8, u8),
}

fn stmt_strategy() -> impl Strategy<Value = Stmt> {
    let reg = 1u8..20;
    prop_oneof![
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(a, b, c)| Stmt::Alu(a, b, c)),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(a, b, c)| Stmt::Mul(a, b, c)),
        (reg.clone(), 0u16..24, 0u8..4).prop_map(|(d, s, z)| Stmt::Store(d, s, z)),
        (reg.clone(), 0u16..24, 0u8..4).prop_map(|(d, s, z)| Stmt::Load(d, s, z)),
        (reg.clone(), reg).prop_map(|(a, b)| Stmt::Fp(a, b)),
    ]
}

fn build_program(body: &[Stmt], iters: i64) -> Program {
    let sizes = [
        DataSize::Byte,
        DataSize::Half,
        DataSize::Word,
        DataSize::Quad,
    ];
    let mut b = ProgramBuilder::new();
    let ctr = Reg::new(62);
    b.load_imm(ctr, iters);
    for r in 1..20 {
        b.load_imm(Reg::new(r), i64::from(r) * 77 + 1);
    }
    let top = b.label("top");
    for s in body {
        match *s {
            Stmt::Alu(a, x, y) => {
                b.xor(Reg::new(a), Reg::new(x), Reg::new(y));
            }
            Stmt::Mul(a, x, y) => {
                b.mul(Reg::new(a), Reg::new(x), Reg::new(y));
            }
            Stmt::Store(d, slot, z) => {
                b.store(
                    sizes[z as usize],
                    Reg::new(d),
                    Reg::ZERO,
                    0x400 + 8 * i64::from(slot),
                );
            }
            Stmt::Load(d, slot, z) => {
                b.load(
                    sizes[z as usize],
                    Reg::new(d),
                    Reg::ZERO,
                    0x400 + 8 * i64::from(slot),
                );
            }
            Stmt::Fp(a, x) => {
                b.fmul(Reg::new(a), Reg::new(a), Reg::new(x));
            }
        }
    }
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    b.build().unwrap()
}

fn program_workload(name: &str, program: Program, budget: u64) -> Workload {
    Workload::from(RegisteredWorkload::from_factory(
        name,
        "sweep-proptest program",
        move || Ok(Box::new(ProgramSource::new(program.clone(), budget)) as Box<_>),
    ))
}

fn all_designs() -> Vec<SqDesign> {
    DesignRegistry::global()
        .names()
        .iter()
        .map(|n| n.parse().expect("registered design name parses"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// The acceptance pin: the sweep's `ResultSet` ≡ each cell simulated
    /// alone by `Processor::try_run`, bit for bit, across random programs
    /// × every registered design (all 8), on one worker and on two —
    /// including the serialized bytes.
    #[test]
    fn sweep_is_bit_identical_to_per_cell_reference(
        body_a in proptest::collection::vec(stmt_strategy(), 1..14),
        body_b in proptest::collection::vec(stmt_strategy(), 1..14),
        iters in 3i64..40,
    ) {
        let experiment = Experiment::new()
            .workload(program_workload("sweep-prop-a", build_program(&body_a, iters), 1_000_000))
            .workload(program_workload("sweep-prop-b", build_program(&body_b, iters), 1_000_000))
            .designs(all_designs());

        let reference = per_cell_reference(&experiment);
        for threads in [1, 2] {
            let swept = SweepEngine::new()
                .threads(threads)
                .run(&experiment)
                .expect("sweep runs");
            prop_assert_eq!(&swept, &reference, "stats diverge (threads={})", threads);
            prop_assert_eq!(
                swept.to_json(),
                reference.to_json(),
                "serialized bytes diverge (threads={})",
                threads
            );
        }

        // And the default entry point (`Experiment::run`) is the same
        // driver, also pinned.
        let default_run = experiment.run().expect("default run");
        prop_assert_eq!(&default_run, &reference);
    }
}

/// A `TraceSource` that counts the records it yields.
struct CountingSource {
    inner: Box<dyn TraceSource + Send>,
    pulls: Arc<AtomicU64>,
}

impl TraceSource for CountingSource {
    fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
        let rec = self.inner.next_record()?;
        if rec.is_some() {
            self.pulls.fetch_add(1, Ordering::Relaxed);
        }
        Ok(rec)
    }
}

/// One pull counter per time a workload was opened, in open order.
type Opens = Arc<Mutex<Vec<Arc<AtomicU64>>>>;

/// Wraps `inner` so every open is logged in `opens` with its own pull
/// counter.
fn counting_workload(name: &str, inner: Workload, opens: Opens) -> Workload {
    Workload::from(RegisteredWorkload::from_factory(
        name,
        "counting workload",
        move || {
            let pulls = Arc::new(AtomicU64::new(0));
            opens.lock().unwrap().push(Arc::clone(&pulls));
            Ok(Box::new(CountingSource {
                inner: inner.open()?,
                pulls,
            }) as Box<_>)
        },
    ))
}

/// The records each logged open yielded, in open order.
fn pulls_per_open(opens: &Opens) -> Vec<u64> {
    opens
        .lock()
        .unwrap()
        .iter()
        .map(|pulls| pulls.load(Ordering::Relaxed))
        .collect()
}

/// A program whose stores are data-delayed behind a multiply chain while
/// a younger load reads the same address: under the conventional LQ-CAM
/// ordering the load executes early, the store's execution catches it,
/// and the pipeline squashes from the load — which then **re-fetches**.
fn squashy_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let (ctr, data, probe) = (Reg::new(60), Reg::new(1), Reg::new(2));
    b.load_imm(ctr, iters);
    b.load_imm(data, 3);
    let top = b.label("top");
    // Delay the store's data far past the load's issue.
    for _ in 0..6 {
        b.mul(data, data, data);
    }
    b.store(DataSize::Quad, data, Reg::ZERO, 0x100);
    b.load(DataSize::Quad, probe, Reg::ZERO, 0x100);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    b.build().unwrap()
}

/// Squash re-fetches replay records whose positions straddle the event
/// engine's fetch-block edges (the block-pull tentpole's nastiest
/// corner): the sweep must stay bit-identical to per-cell runs through
/// them, for every registered design.
#[test]
fn squash_straddling_fetch_block_edges_is_mode_invariant() {
    // ~11 records per iteration: 100 iterations crosses many
    // FETCH_BLOCK-record fetch edges while forwarding squashes are in
    // flight on the mispredicting designs.
    let experiment = Experiment::new()
        .workload(program_workload(
            "squashy-block-edges",
            squashy_program(100),
            1_000_000,
        ))
        .designs(all_designs())
        .threads(1);
    let swept = experiment.run().expect("sweep runs");
    let per_cell = per_cell_reference(&experiment);
    assert_eq!(swept, per_cell, "squash across block edges diverged");
}

/// Squash re-fetches replay records out of the cell's own window, never
/// re-pulling the source: each cell opens its workload once and pulls
/// exactly the records it commits, and still matches a plain run of the
/// same cell.
#[test]
fn squashing_cells_pull_exactly_their_committed_records() {
    let budget = 100_000u64;
    let opens: Opens = Arc::default();
    let experiment = Experiment::new()
        .workload(counting_workload(
            "squashy-counted",
            program_workload("squashy", squashy_program(40), budget),
            Arc::clone(&opens),
        ))
        .designs([SqDesign::Associative3, SqDesign::IdealOracle])
        .configure(|cfg| cfg.ordering = OrderingMode::LqCam)
        .threads(1);
    let results = experiment.run().unwrap();
    assert_eq!(results, per_cell_reference(&experiment));
    assert!(
        results.records()[0].stats.flushes > 0,
        "the CAM cell must actually squash"
    );

    // `per_cell_reference` opened the workload once more per cell.
    let pulls = pulls_per_open(&opens);
    assert_eq!(pulls.len(), 2 * results.len(), "one open per cell per run");
    for (i, record) in results.iter().enumerate() {
        assert_eq!(
            pulls[i], record.stats.committed,
            "cell {i}: squash re-fetches must replay from the window, not the source"
        );
    }
}

/// Sweeps share no pass, so their telemetry holds no groups; each cell's
/// own window (records pulled but not yet committed) stays within the
/// machine's window bound throughout the run.
#[test]
fn sweep_telemetry_reports_bounded_buffering() {
    struct Buffered {
        pulls: Arc<AtomicU64>,
        peak: Arc<AtomicU64>,
    }
    impl SimObserver for Buffered {
        fn interval(&self) -> u64 {
            1
        }
        fn on_interval(&mut self, _cycle: u64, stats: &SimStats) -> ObserverAction {
            let buffered = self.pulls.load(Ordering::Relaxed) - stats.committed;
            self.peak.fetch_max(buffered, Ordering::Relaxed);
            ObserverAction::Continue
        }
    }

    let opens: Opens = Arc::default();
    let peaks: Arc<Mutex<Vec<Arc<AtomicU64>>>> = Arc::default();
    let experiment = Experiment::new()
        .workload(counting_workload(
            "mix-counted",
            Workload::from_registry("mix:0xabc:60k").unwrap(),
            Arc::clone(&opens),
        ))
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3FwdDly,
        ])
        .threads(1)
        .observe({
            let (opens, peaks) = (Arc::clone(&opens), Arc::clone(&peaks));
            move |_| {
                // One worker: the cell being observed is the one whose
                // workload was opened last.
                let pulls = Arc::clone(opens.lock().unwrap().last().expect("opened first"));
                let peak = Arc::new(AtomicU64::new(0));
                peaks.lock().unwrap().push(Arc::clone(&peak));
                Box::new(Buffered { pulls, peak })
            }
        });
    let (results, telemetry) = SweepEngine::new()
        .threads(1)
        .run_with_telemetry(&experiment)
        .unwrap();
    assert_eq!(results.len(), 3);
    assert!(telemetry.groups.is_empty(), "no sweep shares a pass");

    // The event engine's batched fetch front may run up to one fetch
    // block ahead of the scalar frontier, hence the FETCH_BLOCK slack.
    let cfg = SimConfig::with_design(SqDesign::IdealOracle);
    let window_bound =
        (cfg.rob_size + 5 * cfg.fetch_width) as u64 + sqip_core::engine::FETCH_BLOCK as u64;
    let peaks = peaks.lock().unwrap();
    assert_eq!(peaks.len(), 3, "one observer per cell");
    for peak in peaks.iter() {
        let peak = peak.load(Ordering::Relaxed);
        assert!(peak > 0 && peak <= window_bound, "peak {peak}");
    }
}

/// The per-cell reference and observed experiments both match the
/// sweep's results bit for bit.
#[test]
fn per_cell_reference_and_observed_runs_match_shared_results() {
    let experiment = Experiment::new()
        .workload(Workload::from_registry("chase:128:64:20k").unwrap())
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(2);
    let shared = experiment.run().unwrap();
    assert_eq!(shared, per_cell_reference(&experiment));

    struct Noop;
    impl sqip::SimObserver for Noop {}
    let observed = experiment
        .clone()
        .observe(|_| Box::new(Noop))
        .run()
        .unwrap();
    assert_eq!(observed, shared);
}

/// Everything one observer saw: the `on_start` length hint, each
/// `on_interval` `(cycle, stats)` and the `on_finish` stats.
#[derive(Debug, Default, Clone, PartialEq)]
struct ObserverLog {
    start: Option<Option<usize>>,
    intervals: Vec<(u64, SimStats)>,
    finish: Option<SimStats>,
}

struct Recorder {
    interval: u64,
    log: ObserverLog,
    sink: Option<Arc<Mutex<BTreeMap<String, ObserverLog>>>>,
    cell: String,
}

impl SimObserver for Recorder {
    fn interval(&self) -> u64 {
        self.interval
    }
    fn on_start(&mut self, _config: &SimConfig, trace_len: Option<usize>) {
        self.log.start = Some(trace_len);
    }
    fn on_interval(&mut self, cycle: u64, stats: &SimStats) -> ObserverAction {
        self.log.intervals.push((cycle, stats.clone()));
        ObserverAction::Continue
    }
    fn on_finish(&mut self, stats: &SimStats) {
        self.log.finish = Some(stats.clone());
        if let Some(sink) = &self.sink {
            sink.lock()
                .unwrap()
                .insert(self.cell.clone(), self.log.clone());
        }
    }
}

/// A source that declares its exact length up front, as a materialized
/// trace does.
struct DeclaredLength {
    inner: ProgramSource,
    len: u64,
}

impl TraceSource for DeclaredLength {
    fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
        self.inner.next_record()
    }
    fn len_hint(&self) -> Option<u64> {
        Some(self.len)
    }
}

/// Observers fire exactly on interval boundaries inside a sweep: each
/// cell of a 2-design sweep sees the same `on_start` length hint,
/// `on_interval` `(cycle, stats)` sequence and `on_finish` stats as
/// `Processor::run_observed` on that cell alone. The interval is odd and
/// the 4MB pointer chase idles on memory misses, so the event engine's
/// skip-ahead would jump over boundaries if the loop did not cap it; the
/// chase has no length hint, the program workload declares its length.
#[test]
fn observers_fire_exactly_on_interval_boundaries_in_a_group() {
    const INTERVAL: u64 = 97;
    let program = squashy_program(200);
    let mut counter = ProgramSource::new(program.clone(), 1_000_000);
    let mut len = 0;
    while counter.next_record().unwrap().is_some() {
        len += 1;
    }
    let declared = Workload::from(RegisteredWorkload::from_factory(
        "declared-length",
        "a program source that declares its length",
        move || {
            Ok(Box::new(DeclaredLength {
                inner: ProgramSource::new(program.clone(), 1_000_000),
                len,
            }) as Box<_>)
        },
    ));
    let logs: Arc<Mutex<BTreeMap<String, ObserverLog>>> = Arc::default();
    let experiment = Experiment::new()
        .workload(Workload::from_registry("chase:65536:64:20k").unwrap())
        .workload(declared)
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
        .threads(1)
        .observe({
            let logs = Arc::clone(&logs);
            move |run| {
                Box::new(Recorder {
                    interval: INTERVAL,
                    log: ObserverLog::default(),
                    sink: Some(Arc::clone(&logs)),
                    cell: run.label(),
                })
            }
        });
    let results = SweepEngine::new().threads(1).run(&experiment).unwrap();

    let logs = logs.lock().unwrap();
    for (cell, record) in experiment.cells().unwrap().iter().zip(&results) {
        let mut alone = Recorder {
            interval: INTERVAL,
            log: ObserverLog::default(),
            sink: None,
            cell: cell.label(),
        };
        let stats = Processor::try_from_source(cell.config.clone(), cell.workload.open().unwrap())
            .unwrap()
            .run_observed(&mut alone)
            .unwrap();
        assert_eq!(record.stats, stats);
        assert!(alone.log.intervals.len() > 10, "{}", cell.label());
        let hint = (cell.workload.name() == "declared-length").then_some(len as usize);
        assert_eq!(alone.log.start, Some(hint), "{}", cell.label());
        assert_eq!(
            logs.get(&cell.label()),
            Some(&alone.log),
            "{}: observer sequence diverges from run_observed",
            cell.label()
        );
    }
}

/// Cached and sharded runs go through the same driver: a cold
/// `run_cached` and each `run_shard` of a split open each executed
/// cell's workload once and pull exactly that cell's committed records,
/// while a warm `run_cached` and unowned cells open nothing.
#[test]
fn cached_and_sharded_runs_open_each_executed_cell_once() {
    let opens: Vec<Opens> = (0..2).map(|_| Arc::default()).collect();
    let experiment = opens
        .iter()
        .enumerate()
        .fold(Experiment::new(), |exp, (w, opens)| {
            exp.workload(counting_workload(
                &format!("count-once-{w}"),
                program_workload(
                    &format!("squashy-{w}"),
                    squashy_program(30 + 10 * w as i64),
                    1_000_000,
                ),
                Arc::clone(opens),
            ))
        })
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3Fwd,
            SqDesign::Indexed3FwdDly,
        ])
        .threads(1);
    let reference = per_cell_reference(&experiment);
    let cells = experiment.cells().unwrap();
    // Cells `4w..4w + 4` are workload `w`'s; with one worker they run in
    // cell order, so the k-th open of a workload is its k-th executed cell.
    let expect = |executed: &[usize], w: usize| -> Vec<u64> {
        executed
            .iter()
            .filter(|&&i| i / 4 == w)
            .map(|&i| reference.records()[i].stats.committed)
            .collect()
    };
    let reset = || {
        for opens in &opens {
            opens.lock().unwrap().clear();
        }
    };

    let dir = std::env::temp_dir().join(format!("sqip-sweep-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    reset();
    let cache = CacheDir::open(&dir).unwrap();
    let (cold, outcome) = experiment.run_cached(&cache).unwrap();
    assert_eq!(outcome.executed, cells.len());
    assert_eq!(cold, reference);
    let all: Vec<usize> = (0..cells.len()).collect();
    for (w, opens) in opens.iter().enumerate() {
        assert_eq!(
            pulls_per_open(opens),
            expect(&all, w),
            "cold cache: workload {w}"
        );
    }
    reset();
    let (warm, outcome) = experiment.run_cached(&cache).unwrap();
    assert_eq!(outcome.executed, 0);
    assert_eq!(warm, reference);
    for (w, opens) in opens.iter().enumerate() {
        assert!(
            pulls_per_open(opens).is_empty(),
            "warm cache: workload {w} opened"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();

    for index in 0..2 {
        reset();
        let shard = experiment
            .run_shard(ShardSpec::new(index, 2).unwrap())
            .unwrap();
        for (w, opens) in opens.iter().enumerate() {
            assert_eq!(
                pulls_per_open(opens),
                expect(&shard.indices, w),
                "shard {index}: workload {w}"
            );
        }
    }
}

/// A source that yields a few records of a real program, then panics.
struct PanickingSource {
    inner: ProgramSource,
    left: u32,
}

impl TraceSource for PanickingSource {
    fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
        assert!(self.left > 0, "test workload panics mid-stream");
        self.left -= 1;
        self.inner.next_record()
    }
}

/// A panic inside one cell costs that cell only: the sweep reports a
/// typed error naming the first panicked cell, and with an event sink
/// installed every other cell still finishes and streams its row — on
/// one worker and on two.
#[test]
fn a_panicking_cell_is_a_typed_error_naming_the_cell() {
    let program = build_program(&[Stmt::Alu(1, 2, 3), Stmt::Load(4, 1, 3)], 20);
    let panicky = Workload::from(RegisteredWorkload::from_factory(
        "sweep-panics",
        "panics after a few records",
        move || {
            Ok(Box::new(PanickingSource {
                inner: ProgramSource::new(program.clone(), 1_000_000),
                left: 100,
            }) as Box<_>)
        },
    ));
    let fine = program_workload(
        "sweep-fine",
        build_program(&[Stmt::Mul(1, 2, 3)], 20),
        1_000_000,
    );
    let experiment = Experiment::new()
        .workload(fine)
        .workload(panicky)
        .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly]);
    for threads in [1, 2] {
        let finished = Arc::new(Mutex::new(Vec::new()));
        let failed = Arc::new(Mutex::new(Vec::new()));
        let (fin, fail) = (Arc::clone(&finished), Arc::clone(&failed));
        let err = SweepEngine::new()
            .threads(threads)
            .on_cell(move |event| match event {
                sqip::CellEvent::Finished { index, .. } => fin.lock().unwrap().push(index),
                sqip::CellEvent::Failed { index, error, .. } => {
                    fail.lock().unwrap().push((index, error));
                }
            })
            .run(&experiment)
            .expect_err("a panicked cell fails the sweep");
        match &err {
            sqip::SqipError::Panicked { cell, message } => {
                assert!(cell.starts_with("sweep-panics/ideal-oracle"), "{cell}");
                assert!(message.contains("panics mid-stream"), "{message}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        let mut finished = finished.lock().unwrap().clone();
        finished.sort_unstable();
        assert_eq!(finished, [0, 1], "threads={threads}");
        let mut failed = failed.lock().unwrap().clone();
        failed.sort_unstable();
        assert_eq!(failed.len(), 2, "threads={threads}: {failed:?}");
        assert!(
            failed.iter().all(|(_, e)| e.contains("panicked")),
            "{failed:?}"
        );
    }
}
