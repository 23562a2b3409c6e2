//! Shared-pass sweep pinning: the [`SweepEngine`]'s lock-step shared
//! pass must be **bit-identical** to simulating each cell alone — for
//! random programs, every registered design, and any thread count —
//! while pulling each workload's record stream exactly once, whether
//! the cells run whole, from a cold cache or as shards.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use common::per_cell_reference;
use proptest::prelude::*;
use sqip::{
    oracle_tap, CacheDir, DesignRegistry, Experiment, ObserverAction, OrderingMode, Processor,
    RegisteredWorkload, ShardSpec, SimConfig, SimObserver, SimStats, SqDesign, SweepEngine,
    TraceSource, TraceTee, Workload,
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

    /// The acceptance pin: shared-pass `ResultSet` ≡ each cell simulated
    /// alone by `Processor::try_run`, bit for bit, across random programs
    /// × every registered design (all 8) × random thread counts —
    /// including the serialized bytes.
    #[test]
    fn shared_pass_sweep_is_bit_identical_to_per_cell(
        body_a in proptest::collection::vec(stmt_strategy(), 1..14),
        body_b in proptest::collection::vec(stmt_strategy(), 1..14),
        iters in 3i64..40,
        threads in 1usize..5,
    ) {
        let experiment = Experiment::new()
            .workload(program_workload("sweep-prop-a", build_program(&body_a, iters), 1_000_000))
            .workload(program_workload("sweep-prop-b", build_program(&body_b, iters), 1_000_000))
            .designs(all_designs())
            .threads(threads);

        let per_cell = per_cell_reference(&experiment);
        let shared = SweepEngine::new()
            .threads(threads)
            .run(&experiment)
            .expect("shared-pass sweep runs");
        prop_assert_eq!(&shared, &per_cell, "stats diverge (threads={})", threads);
        prop_assert_eq!(shared.to_json(), per_cell.to_json(), "serialized bytes diverge");

        // And the default entry point (`Experiment::run`) is the shared
        // path, also pinned.
        let default_run = experiment.run().expect("default run");
        prop_assert_eq!(&default_run, &per_cell);
    }
}

/// A `TraceSource` that counts upstream pulls, so a test can prove the
/// tee pulled the generator exactly once however consumers squash.
struct CountingSource {
    inner: ProgramSource,
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
/// corner): the shared pass must stay bit-identical to per-cell runs
/// through them, for every registered design.
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
    let shared = experiment.run().expect("shared sweep runs");
    let per_cell = per_cell_reference(&experiment);
    assert_eq!(shared, per_cell, "squash across block edges diverged");
}

/// Exactly-once delivery under squash/re-fetch: squashed consumers replay
/// records out of their own windows, never re-pulling through the tee —
/// the upstream pull count equals the stream length exactly, and the
/// shared-pass stats still match a per-cell run of the same cell.
#[test]
fn squashing_consumers_do_not_repull_the_shared_stream() {
    let budget = 100_000u64;
    let mut cam = SimConfig::with_design(SqDesign::Associative3);
    cam.ordering = OrderingMode::LqCam;
    let cfgs = [cam.clone(), SimConfig::with_design(SqDesign::IdealOracle)];

    // Reference: each cell on its own pass.
    let solo: Vec<_> = cfgs
        .iter()
        .map(|cfg| {
            Processor::try_from_source(cfg.clone(), ProgramSource::new(squashy_program(40), budget))
                .unwrap()
                .try_run()
                .unwrap()
        })
        .collect();
    assert!(solo[0].flushes > 0, "the CAM cell must actually squash");
    let len = solo[0].committed;

    // Shared pass over a counting upstream.
    let pulls = Arc::new(AtomicU64::new(0));
    let counting = CountingSource {
        inner: ProgramSource::new(squashy_program(40), budget),
        pulls: Arc::clone(&pulls),
    };
    let (tap, feed) = oracle_tap(counting, 512);
    let (tee, cursors) = TraceTee::new(tap, 2, 512);
    let mut procs: Vec<_> = cursors
        .into_iter()
        .zip(&cfgs)
        .map(|(cursor, cfg)| {
            Some(Processor::try_from_shared(cfg.clone(), cursor, feed.clone()).unwrap())
        })
        .collect();
    // A deliberately tiny lock-step quantum, to interleave squashes with
    // the other consumer's progress as unfavourably as possible.
    let mut stats: [Option<sqip::SimStats>; 2] = [None, None];
    while stats.iter().any(Option::is_none) {
        for (i, slot) in procs.iter_mut().enumerate() {
            let Some(p) = slot.as_mut() else { continue };
            let may_pull = !(tee.is_done() && tee.position(i) == tee.pulled());
            if may_pull && tee.position(i) + 8 > tee.base() + tee.capacity() as u64 {
                continue;
            }
            for _ in 0..16 {
                match p.step().expect("lock-step cell steps") {
                    sqip::StepOutcome::Running => {}
                    sqip::StepOutcome::Done => {
                        stats[i] = Some(p.stats().clone());
                        *slot = None;
                        break;
                    }
                }
            }
        }
    }

    assert_eq!(stats[0].as_ref().unwrap(), &solo[0], "CAM cell diverged");
    assert_eq!(stats[1].as_ref().unwrap(), &solo[1], "oracle cell diverged");
    assert_eq!(
        pulls.load(Ordering::Relaxed),
        len,
        "squash re-fetches must replay from consumer windows, not the tee"
    );
    assert_eq!(tee.pulled(), len);
}

/// Sweep telemetry reports the shared-ring high-water mark and per-cell
/// buffering separately, and both stay within their structural bounds
/// (the PR 3 memory-boundedness story, extended to shared passes).
#[test]
fn sweep_telemetry_reports_bounded_buffering() {
    let experiment = Experiment::new()
        .workload(Workload::from_registry("mix:0xabc:60k").unwrap())
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3FwdDly,
        ])
        .threads(1);
    let (results, telemetry) = SweepEngine::new()
        .threads(1)
        .run_with_telemetry(&experiment)
        .unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(telemetry.groups.len(), 1, "one workload, one group");
    let group = &telemetry.groups[0];
    assert_eq!(group.cells.len(), 3);
    assert!(group.records_pulled > 0);
    assert!(group.ring_high_water > 0);

    // Each cell's own window obeys the PR 3 bound; the shared ring obeys
    // its capacity. The two observables are reported separately. The
    // event engine's batched fetch front may run up to one fetch block
    // ahead of the scalar frontier, hence the FETCH_BLOCK slack term.
    let cfg = SimConfig::with_design(SqDesign::IdealOracle);
    let window_bound =
        (cfg.rob_size + 5 * cfg.fetch_width) as u64 + sqip_core::engine::FETCH_BLOCK as u64;
    for (&peak, lag) in group.peak_buffered.iter().zip(&group.peak_lag) {
        assert!(peak > 0 && peak <= window_bound, "peak {peak}");
        assert!(*lag <= group.records_pulled);
    }
}

/// The per-cell reference and observed experiments both match the
/// shared results bit for bit.
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

/// Everything one observer saw: each `on_interval` `(cycle, stats)` and
/// the `on_finish` stats.
#[derive(Debug, Default, Clone, PartialEq)]
struct ObserverLog {
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

/// Observers fire exactly on interval boundaries inside a shared-pass
/// group: each cell of a 2-design group sees the same `on_interval`
/// `(cycle, stats)` sequence and `on_finish` stats as
/// `Processor::run_observed` on that cell alone. The interval is odd and
/// the 4MB pointer chase idles on memory misses, so the event engine's
/// skip-ahead would jump over boundaries if the loop did not cap it.
#[test]
fn observers_fire_exactly_on_interval_boundaries_in_a_group() {
    const INTERVAL: u64 = 97;
    let logs: Arc<Mutex<BTreeMap<String, ObserverLog>>> = Arc::default();
    let experiment = Experiment::new()
        .workload(Workload::from_registry("chase:65536:64:20k").unwrap())
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
    let (results, telemetry) = SweepEngine::new()
        .threads(1)
        .run_with_telemetry(&experiment)
        .unwrap();
    assert_eq!(telemetry.groups.len(), 1, "the cells share one pass");

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
        assert_eq!(
            logs.get(&cell.label()),
            Some(&alone.log),
            "{}: observer sequence diverges from run_observed",
            cell.label()
        );
    }
}

/// A streamed program workload that counts how often it is opened and
/// how many records it yields.
fn counting_workload(
    name: &str,
    program: Program,
    opens: Arc<AtomicU64>,
    pulls: Arc<AtomicU64>,
) -> Workload {
    Workload::from(RegisteredWorkload::from_factory(
        name,
        "counting program",
        move || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok(Box::new(CountingSource {
                inner: ProgramSource::new(program.clone(), 1_000_000),
                pulls: Arc::clone(&pulls),
            }) as Box<_>)
        },
    ))
}

/// Cached and sharded runs ride the shared pass too: a cold `run_cached`
/// and each `run_shard` of a split open each workload's stream once per
/// group and pull every record exactly once.
#[test]
fn cached_and_sharded_runs_pull_each_stream_once_per_group() {
    let counters: Vec<(Arc<AtomicU64>, Arc<AtomicU64>)> =
        (0..2).map(|_| (Arc::default(), Arc::default())).collect();
    let experiment = counters
        .iter()
        .enumerate()
        .fold(Experiment::new(), |exp, (w, (opens, pulls))| {
            exp.workload(counting_workload(
                &format!("count-once-{w}"),
                squashy_program(30 + 10 * w as i64),
                Arc::clone(opens),
                Arc::clone(pulls),
            ))
        })
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3Fwd,
            SqDesign::Indexed3FwdDly,
        ])
        .threads(1);
    let reset = || {
        for (opens, pulls) in &counters {
            opens.store(0, Ordering::Relaxed);
            pulls.store(0, Ordering::Relaxed);
        }
    };
    let reference = per_cell_reference(&experiment);
    let cells = experiment.cells().unwrap();
    let len = |w: usize| reference.records()[w * 4].stats.committed;

    let dir = std::env::temp_dir().join(format!("sqip-sweep-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    reset();
    let (cold, outcome) = experiment
        .run_cached(&CacheDir::open(&dir).unwrap())
        .unwrap();
    assert_eq!(outcome.executed, cells.len());
    assert_eq!(cold, reference);
    for (w, (opens, pulls)) in counters.iter().enumerate() {
        assert_eq!(
            opens.load(Ordering::Relaxed),
            1,
            "cold cache: workload {w} opens"
        );
        assert_eq!(
            pulls.load(Ordering::Relaxed),
            len(w),
            "cold cache: workload {w} pulls"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();

    for index in 0..2 {
        reset();
        let shard = experiment
            .run_shard(ShardSpec::new(index, 2).unwrap())
            .unwrap();
        for (w, (opens, pulls)) in counters.iter().enumerate() {
            let owned = shard.indices.iter().any(|&i| i / 4 == w);
            let (want_opens, want_pulls) = if owned { (1, len(w)) } else { (0, 0) };
            assert_eq!(
                opens.load(Ordering::Relaxed),
                want_opens,
                "shard {index}: workload {w} opens"
            );
            assert_eq!(
                pulls.load(Ordering::Relaxed),
                want_pulls,
                "shard {index}: workload {w} pulls"
            );
        }
    }
}
