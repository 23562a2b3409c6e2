//! `perf` — the simulator's performance-regression harness.
//!
//! Three sections:
//!
//! * **Per-cell matrix** — 3 store-queue designs × 3 workloads (two
//!   materialized SPEC models and one *streamed* generator) under both
//!   simulation engines: insts/sec, wall time (min-of-N), cycles, and
//!   peak buffered records per cell.
//! * **Sweep section** — the paper-shaped sweep: every registered design
//!   over one streamed `mix` workload, run through the
//!   [`sqip::SweepEngine`] and, as the baseline, as one plain
//!   `Processor::try_from_source(..).try_run()` per design. The per-cell
//!   baseline re-runs the generator and dependence oracle once per
//!   design; the shared pass pulls the stream once and drives all cells
//!   in lock-step, so the section also reports the shared-ring
//!   high-water mark and each consumer's peak window/lag (the memory
//!   observables), alongside the wall-clock speedup. Results are
//!   asserted bit-identical on every iteration.
//! * **Trace-file sweep section** — the same sweep over an on-disk SQTR
//!   trace (`tracefile:` workload; the mix stream recorded once at
//!   startup). Replay pays a per-byte varint decode on every record, so
//!   the upstream pass genuinely dominates and the shared-pass win is
//!   the paper-shaped one: N designs, one decode.
//!
//! The JSON report goes to `target/perf-report.json` unless `--out`
//! names another path, so a smoke run never rewrites a committed report.
//! The committed `BENCH_<PR>.json` snapshots are the repo's perf
//! trajectory (each written with `--out`), so regressions are diffs, not
//! folklore.
//!
//! Every event-engine cell also carries the engine's **scheduling-cost
//! counters** (wheel ops, off-wheel near ops, broadcasts delivered and
//! ready-lane touches, each per committed instruction). The counters are
//! deterministic per (workload, design) and independent of the host, so
//! they are the hardware-portable face of the PR 10 scheduler overhaul:
//! `pr9_wheel_ops_per_inst` reconstructs what the same run cost when
//! every broadcast and speculative store wake also rode the wheel
//! (`wheel + near` — each off-wheel op was a wheel op then), and the
//! run itself fails unless the fused scheduler cuts wheel ops/inst by
//! at least 2x against that figure on every event cell.
//!
//! **Regression gate:** `--baseline <json>` compares this run's per-cell
//! matrix against a committed report (PR4-schema or later): any matched
//! (workload, design, engine) cell whose insts/sec drops more than the
//! 15% noise floor fails the run (exit 1). `--baseline-ratios-only`
//! restricts the comparison to the event/reference speedup *ratios*,
//! which survive hardware changes — the mode CI uses, since absolute
//! insts/sec only transfer between same-class machines. Sweep
//! mode-speedups (per-cell wall / shared-pass wall) are also ratios of
//! two runs of the same binary, so they are gated in both modes when
//! the baseline carries them (PR9-schema and later), as are the
//! scheduling counters (PR10-schema and later) — those are exact, so
//! their drift tolerance is a rounding allowance, not a noise floor.
//!
//! ```text
//! cargo run --release -p sqip-bench --bin perf             # full matrix
//! cargo run --release -p sqip-bench --bin perf -- --quick  # CI smoke
//! cargo run --release -p sqip-bench --bin perf -- --out my.json
//! cargo run --release -p sqip-bench --bin perf -- --quick \
//!     --baseline BENCH_PR4.json --baseline-ratios-only
//! ```
//!
//! `SQIP_BENCH_ITERS` controls the timed iterations per cell (default 3;
//! each cell also gets one untimed warmup). The minimum wall time is
//! reported, the standard noise-rejection choice for throughput
//! benchmarks. An unparsable or zero value aborts the run — a silent
//! fallback here would time a different number of iterations than the
//! caller believes.

#![forbid(unsafe_code)]

use std::time::Instant;

use serde::{Deserialize, Serialize};
use sqip::{
    by_name, DesignRegistry, Engine, Experiment, Processor, SchedCounters, SimConfig, SimStats,
    SqDesign, StepOutcome, SweepEngine, Workload, WorkloadRegistry,
};
use sqip_bench::geomean;
use sqip_isa::Trace;

/// Relative insts/sec drop tolerated before `--baseline` fails a cell.
const NOISE_FLOOR: f64 = 0.15;

/// Wider floor for event/reference *ratio* comparisons: a ratio divides
/// two independently noisy measurements, roughly doubling the variance.
const RATIO_FLOOR: f64 = 0.20;

/// Allowed upward drift in the scheduling counters before `--baseline`
/// fails a cell. The counters are deterministic (asserted across
/// iterations), so this covers only float rounding of the per-inst
/// division — not measurement noise.
const COUNTER_FLOOR: f64 = 0.01;

/// The PR 10 acceptance headline: minimum factor by which the fused
/// scheduler must cut wheel ops/inst versus the PR 9 shape (`wheel +
/// near`, since each off-wheel op was a wheel op then) on every event
/// cell.
const FUSE_FACTOR: f64 = 2.0;

/// One (workload, design, engine) measurement.
#[derive(Debug, Clone, Serialize)]
struct Cell {
    workload: String,
    design: SqDesign,
    engine: Engine,
    /// Committed instructions per simulated run.
    insts: u64,
    /// Simulated cycles (identical across engines — checked).
    cycles: u64,
    /// Simulated instructions per wall second (best iteration).
    insts_per_sec: f64,
    /// Minimum wall time over the timed iterations, seconds.
    wall_s: f64,
    /// Peak records buffered between commit point and fetch frontier.
    peak_buffered: u64,
    /// Scheduling-cost counters (event engine only, `null` on reference
    /// cells; deterministic and hardware-portable, unlike the wall-clock
    /// figures above).
    sched: Option<SchedCost>,
}

/// Per-instruction scheduling costs of one event-engine cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SchedCost {
    /// Event-wheel schedules per committed instruction.
    wheel_ops_per_inst: f64,
    /// What the same run cost under PR 9's scheduling shape, where every
    /// broadcast and speculative store wake also rode the wheel: wheel
    /// ops plus off-wheel near ops, per instruction.
    pr9_wheel_ops_per_inst: f64,
    /// Value broadcasts delivered per instruction.
    broadcasts_per_inst: f64,
    /// Ready-lane tail peeks per instruction during issue selection.
    ready_touches_per_inst: f64,
}

/// Event-over-reference throughput ratio for one (workload, design).
#[derive(Debug, Clone, Serialize)]
struct Speedup {
    workload: String,
    design: SqDesign,
    speedup: f64,
}

/// The sweep section: every registered design over one streamed `mix`
/// workload, per-cell vs shared-pass.
#[derive(Debug, Clone, Serialize)]
struct Sweep {
    workload: String,
    designs: Vec<String>,
    /// Worker threads (1: the comparison is pure engine work).
    threads: usize,
    /// Committed instructions summed over every cell.
    total_insts: u64,
    /// Records the workload stream yields once.
    stream_records: u64,
    /// Upstream passes paid by each mode (the redundancy being removed).
    per_cell_passes: u64,
    shared_passes: u64,
    /// Minimum wall seconds over the timed iterations, per mode.
    per_cell_wall_s: f64,
    shared_wall_s: f64,
    /// Wall-clock ratio per-cell / shared (same binary, same iteration
    /// count) — the honest like-for-like sweep speedup.
    speedup: f64,
    /// Aggregate throughput (total_insts / wall), per mode.
    per_cell_insts_per_sec: f64,
    shared_insts_per_sec: f64,
    /// Shared-ring memory observables (reported separately from each
    /// cell's own window peak, below).
    ring_capacity: u64,
    ring_high_water: u64,
    /// Per cell: peak records in the cell's own commit→fetch window.
    consumer_peak_buffered: Vec<u64>,
    /// Per cell: peak lag behind the shared pull frontier.
    consumer_peak_lag: Vec<u64>,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Report schema / provenance marker.
    bench: String,
    /// Timed iterations per cell (minimum wall time is reported).
    iters: u32,
    cells: Vec<Cell>,
    speedups: Vec<Speedup>,
    /// The PR4 acceptance headline: event/reference on the mix generator
    /// at the paper's default configuration (geomean over designs run).
    mix_speedup: f64,
    /// The PR5 sweep section (always present: the bin aborts if the
    /// sweep fails to build or run).
    sweep: Sweep,
    /// The PR9 trace-file sweep: the same mix stream recorded to an
    /// on-disk SQTR trace and replayed through `tracefile:`, so the
    /// upstream pass carries a real per-record decode cost.
    trace_sweep: Sweep,
}

/// The subset of a committed report `--baseline` reads (works against
/// PR4-schema reports and later).
#[derive(Debug, Deserialize)]
struct BaselineReport {
    bench: String,
    cells: Vec<BaselineCell>,
    speedups: Vec<BaselineSpeedup>,
    /// Absent in pre-PR9 baselines; the sweep gates simply don't run.
    sweep: Option<BaselineSweep>,
    trace_sweep: Option<BaselineSweep>,
}

#[derive(Debug, Deserialize)]
struct BaselineCell {
    workload: String,
    design: String,
    engine: String,
    insts_per_sec: f64,
    /// `null` on reference-engine cells (and in any baseline predating
    /// the counters); the counter gates simply don't run for those.
    sched: Option<SchedCost>,
}

#[derive(Debug, Deserialize)]
struct BaselineSpeedup {
    workload: String,
    design: String,
    speedup: f64,
}

#[derive(Debug, Deserialize)]
struct BaselineSweep {
    workload: String,
    speedup: f64,
}

/// Sweep workloads are compared by their trailing path component so a
/// `tracefile:` workload recorded under a different temp directory
/// still matches: the file *name* is deterministic, its directory is
/// not. Plain generator names contain no `/` and compare whole.
fn sweep_key(workload: &str) -> &str {
    workload.rsplit('/').next().unwrap_or(workload)
}

fn timed_iters() -> u32 {
    let Ok(v) = std::env::var("SQIP_BENCH_ITERS") else {
        return 3;
    };
    let iters: u32 = v.parse().unwrap_or_else(|_| {
        panic!("SQIP_BENCH_ITERS=`{v}` is not a positive integer (unset it for the default of 3)")
    });
    assert!(iters >= 1, "SQIP_BENCH_ITERS must be >= 1, got {iters}");
    iters
}

/// A matrix workload: a materialized SPEC model trace (traced once,
/// shared across every run so tracing cost stays out of the timings) or
/// a named generator streamed anew each run (generation cost is inherent
/// to streamed workloads and is charged identically to both engines).
enum Input {
    Materialized(String, Trace),
    Streamed(String),
}

impl Input {
    fn name(&self) -> &str {
        match self {
            Input::Materialized(name, _) | Input::Streamed(name) => name,
        }
    }
}

/// Runs one cell once, tracking peak buffered records and (on the event
/// engine) the scheduling-cost counters.
fn run_once(input: &Input, cfg: &SimConfig) -> (SimStats, u64, f64, Option<SchedCounters>) {
    let start = Instant::now();
    let mut p = match input {
        Input::Materialized(_, trace) => Processor::try_new(cfg.clone(), trace),
        Input::Streamed(name) => {
            let source = WorkloadRegistry::global()
                .resolve(name)
                .unwrap_or_else(|e| panic!("workload `{name}`: {e}"))
                .open()
                .unwrap_or_else(|e| panic!("workload `{name}` failed to open: {e}"));
            Processor::try_from_source(cfg.clone(), source)
        }
    }
    .unwrap_or_else(|e| panic!("config invalid: {e}"));
    let mut peak = 0u64;
    loop {
        match p.step() {
            Ok(StepOutcome::Running) => peak = peak.max(p.buffered_records() as u64),
            Ok(StepOutcome::Done) => break,
            Err(e) => panic!("{}/{}/{:?}: {e}", input.name(), cfg.design, cfg.engine),
        }
    }
    let wall = start.elapsed().as_secs_f64();
    (p.stats().clone(), peak, wall, p.sched_counters())
}

fn measure(input: &Input, design: SqDesign, engine: Engine, iters: u32) -> Cell {
    let mut cfg = SimConfig::with_design(design);
    cfg.engine = engine;
    let (stats, peak, _, counters) = run_once(input, &cfg); // warmup (and correctness)
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let (again, _, wall, again_counters) = run_once(input, &cfg);
        assert_eq!(again, stats, "non-deterministic simulation");
        assert_eq!(
            again_counters, counters,
            "non-deterministic scheduling counters"
        );
        best = best.min(wall);
    }
    let per_inst = |v: u64| v as f64 / stats.committed as f64;
    Cell {
        workload: input.name().to_string(),
        design,
        engine,
        insts: stats.committed,
        cycles: stats.cycles,
        insts_per_sec: stats.committed as f64 / best,
        wall_s: best,
        peak_buffered: peak,
        sched: counters.map(|c| SchedCost {
            wheel_ops_per_inst: per_inst(c.wheel_ops),
            pr9_wheel_ops_per_inst: per_inst(c.wheel_ops + c.near_ops),
            broadcasts_per_inst: per_inst(c.broadcasts),
            ready_touches_per_inst: per_inst(c.ready_touches),
        }),
    }
}

/// A shrunk SPEC workload model, traced once.
fn materialized(name: &str, iterations: u32) -> Input {
    let spec = by_name(name)
        .unwrap_or_else(|| panic!("workload model `{name}` exists"))
        .with_iterations(iterations);
    let trace = spec
        .trace()
        .unwrap_or_else(|e| panic!("tracing `{name}`: {e}"));
    Input::Materialized(format!("{name}@{iterations}"), trace)
}

/// Measures the sweep section: every registered design over one streamed
/// workload, per-cell vs shared-pass, min wall over `iters`.
fn measure_sweep(workload: &str, iters: u32) -> Sweep {
    let designs: Vec<SqDesign> = DesignRegistry::global()
        .names()
        .iter()
        .map(|n| n.parse().expect("registered design name parses"))
        .collect();
    let experiment = Experiment::new()
        .workload(Workload::from_registry(workload).unwrap_or_else(|e| panic!("{e}")))
        .designs(designs.iter().copied())
        .threads(1);

    let run = || {
        SweepEngine::new()
            .threads(1)
            .run_with_telemetry(&experiment)
            .unwrap_or_else(|e| panic!("sweep: {e}"))
    };
    // The per-cell baseline: every design simulates the workload alone,
    // re-running the generator and the dependence oracle each time.
    let cells = experiment.cells().unwrap_or_else(|e| panic!("{e}"));
    let per_cell = || -> Vec<SimStats> {
        cells
            .iter()
            .map(|cell| {
                let source = cell.workload.open().unwrap_or_else(|e| panic!("{e}"));
                Processor::try_from_source(cell.config.clone(), source)
                    .and_then(Processor::try_run)
                    .unwrap_or_else(|e| panic!("per-cell {}: {e}", cell.label()))
            })
            .collect()
    };
    // Warmup both and pin equality once up front.
    let (shared_results, telemetry) = run();
    let per_cell_results = per_cell();
    let shared_stats: Vec<SimStats> = shared_results.iter().map(|r| r.stats.clone()).collect();
    assert_eq!(
        shared_stats, per_cell_results,
        "shared-pass sweep must be bit-identical to per-cell runs"
    );

    let mut shared_wall = f64::INFINITY;
    let mut per_cell_wall = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let (again, _) = run();
        shared_wall = shared_wall.min(t.elapsed().as_secs_f64());
        assert_eq!(again, shared_results, "non-deterministic shared sweep");
        let t = Instant::now();
        let again = per_cell();
        per_cell_wall = per_cell_wall.min(t.elapsed().as_secs_f64());
        assert_eq!(again, per_cell_results, "non-deterministic per-cell runs");
    }

    let total_insts: u64 = shared_results.iter().map(|r| r.stats.committed).sum();
    let group = telemetry
        .groups
        .first()
        .expect("one workload, one shared group");
    Sweep {
        workload: workload.to_string(),
        designs: designs.iter().map(|d| d.name().to_string()).collect(),
        threads: 1,
        total_insts,
        stream_records: group.records_pulled,
        per_cell_passes: designs.len() as u64,
        shared_passes: 1,
        per_cell_wall_s: per_cell_wall,
        shared_wall_s: shared_wall,
        speedup: per_cell_wall / shared_wall,
        per_cell_insts_per_sec: total_insts as f64 / per_cell_wall,
        shared_insts_per_sec: total_insts as f64 / shared_wall,
        ring_capacity: group.ring_capacity,
        ring_high_water: group.ring_high_water,
        consumer_peak_buffered: group.peak_buffered.clone(),
        consumer_peak_lag: group.peak_lag.clone(),
    }
}

/// Records a streamed workload to an on-disk SQTR trace so the
/// trace-file sweep replays it with a real per-record decode cost.
/// Returns the number of records written.
fn record_trace_file(workload: &str, path: &std::path::Path) -> u64 {
    let mut source = WorkloadRegistry::global()
        .resolve(workload)
        .unwrap_or_else(|e| panic!("workload `{workload}`: {e}"))
        .open()
        .unwrap_or_else(|e| panic!("workload `{workload}` failed to open: {e}"));
    let file =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
    // `record_trace` finishes with an explicit flush, so the BufWriter
    // never drops unwritten bytes.
    sqip_isa::tracefile::record_trace(source.as_mut(), std::io::BufWriter::new(file))
        .unwrap_or_else(|e| panic!("recording `{workload}` to {}: {e}", path.display()))
}

/// Applies the `--baseline` gate. Returns the number of failures.
fn compare_baseline(report: &Report, path: &str, ratios_only: bool) -> usize {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
    let baseline: BaselineReport =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("parsing baseline {path}: {e}"));
    println!("\nbaseline gate vs {path} ({}):", baseline.bench);
    let mut failures = 0;
    let mut matched = 0;

    if !ratios_only {
        for cell in &report.cells {
            let Some(base) = baseline.cells.iter().find(|b| {
                b.workload == cell.workload
                    && b.design == cell.design.name()
                    && b.engine == format!("{:?}", cell.engine)
            }) else {
                continue;
            };
            matched += 1;
            let ratio = cell.insts_per_sec / base.insts_per_sec;
            let ok = ratio >= 1.0 - NOISE_FLOOR;
            if !ok {
                failures += 1;
            }
            println!(
                "  {} {}/{}/{:?}: {:.2}M/s vs {:.2}M/s ({:+.1}%)",
                if ok { "ok  " } else { "FAIL" },
                cell.workload,
                cell.design,
                cell.engine,
                cell.insts_per_sec / 1e6,
                base.insts_per_sec / 1e6,
                (ratio - 1.0) * 100.0
            );
        }
    }
    // Event/reference ratios are hardware-portable: gate them always —
    // on the *geomean* over matched cells, which averages out the
    // per-cell jitter of the tiny `--quick` workloads (individual cells
    // are printed for diagnosis but do not fail the gate alone).
    let mut ratios = Vec::new();
    for s in &report.speedups {
        let Some(base) = baseline
            .speedups
            .iter()
            .find(|b| b.workload == s.workload && b.design == s.design.name())
        else {
            continue;
        };
        matched += 1;
        let ratio = s.speedup / base.speedup;
        ratios.push(ratio);
        println!(
            "  {}/{} event/ref ratio: {:.2}x vs {:.2}x ({:+.1}%)",
            s.workload,
            s.design,
            s.speedup,
            base.speedup,
            (ratio - 1.0) * 100.0
        );
    }
    if !ratios.is_empty() {
        let gm = geomean(ratios.iter().copied());
        let ok = gm >= 1.0 - RATIO_FLOOR;
        if !ok {
            failures += 1;
        }
        println!(
            "  {} event/ref ratio geomean over {} cells: {:+.1}%",
            if ok { "ok  " } else { "FAIL" },
            ratios.len(),
            (gm - 1.0) * 100.0
        );
    }
    // The scheduling counters are deterministic and hardware-portable,
    // so they are gated in both modes — one-sided (dropping below the
    // baseline is an improvement) and with only a rounding allowance.
    for cell in &report.cells {
        let Some(sched) = &cell.sched else { continue };
        let Some(base) = baseline
            .cells
            .iter()
            .filter(|b| b.sched.is_some())
            .find(|b| {
                b.workload == cell.workload
                    && b.design == cell.design.name()
                    && b.engine == format!("{:?}", cell.engine)
            })
        else {
            continue;
        };
        let base_sched = base.sched.as_ref().expect("filtered to cells with sched");
        matched += 1;
        for (label, ours, base_v) in [
            (
                "wheel ops",
                sched.wheel_ops_per_inst,
                base_sched.wheel_ops_per_inst,
            ),
            (
                "broadcasts",
                sched.broadcasts_per_inst,
                base_sched.broadcasts_per_inst,
            ),
        ] {
            let ok = ours <= base_v * (1.0 + COUNTER_FLOOR);
            if !ok {
                failures += 1;
            }
            println!(
                "  {} {}/{} {label}/inst: {:.4} vs {:.4}",
                if ok { "ok  " } else { "FAIL" },
                cell.workload,
                cell.design,
                ours,
                base_v,
            );
        }
    }
    // Sweep mode-speedups are wall-clock ratios of the same binary, so
    // like the engine ratios they transfer across machines and are
    // gated in ratios-only mode too.
    for (label, ours, base) in [
        ("sweep", &report.sweep, &baseline.sweep),
        ("trace sweep", &report.trace_sweep, &baseline.trace_sweep),
    ] {
        let Some(base) = base else { continue };
        if sweep_key(&base.workload) != sweep_key(&ours.workload) {
            continue;
        }
        matched += 1;
        let ratio = ours.speedup / base.speedup;
        let ok = ratio >= 1.0 - RATIO_FLOOR;
        if !ok {
            failures += 1;
        }
        println!(
            "  {} {label} shared-pass speedup: {:.2}x vs {:.2}x ({:+.1}%)",
            if ok { "ok  " } else { "FAIL" },
            ours.speedup,
            base.speedup,
            (ratio - 1.0) * 100.0
        );
    }
    assert!(
        matched > 0,
        "baseline {path} shares no (workload, design, engine) cells with this run"
    );
    failures
}

/// The PR 10 headline gate, self-contained in every run: on each event
/// cell the fused scheduler must cut wheel ops/inst by at least
/// [`FUSE_FACTOR`] against the PR 9 shape reconstructed from the same
/// run's counters. Returns the number of failing cells.
fn fuse_gate(cells: &[Cell]) -> usize {
    let mut failures = 0;
    println!("\nfused-scheduler gate (wheel ops/inst vs the PR9 shape, >= {FUSE_FACTOR:.0}x):");
    for cell in cells {
        let Some(sched) = &cell.sched else { continue };
        let reduction = sched.pr9_wheel_ops_per_inst / sched.wheel_ops_per_inst;
        let ok = reduction >= FUSE_FACTOR;
        if !ok {
            failures += 1;
        }
        println!(
            "  {} {}/{}: {:.3} -> {:.3} wheel ops/inst ({:.2}x; {:.3} broadcasts/inst, \
             {:.2} ready touches/inst)",
            if ok { "ok  " } else { "FAIL" },
            cell.workload,
            cell.design,
            sched.pr9_wheel_ops_per_inst,
            sched.wheel_ops_per_inst,
            reduction,
            sched.broadcasts_per_inst,
            sched.ready_touches_per_inst,
        );
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "target/perf-report.json".to_string();
    let mut quick = false;
    let mut baseline: Option<String> = None;
    let mut ratios_only = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = it.next().expect("--out requires a path"),
            "--baseline" => baseline = Some(it.next().expect("--baseline requires a path")),
            "--baseline-ratios-only" => ratios_only = true,
            other => {
                eprintln!(
                    "error: unknown flag `{other}` (expected --quick / --out <path> / \
                     --baseline <json> / --baseline-ratios-only)"
                );
                std::process::exit(2);
            }
        }
    }

    // The fixed matrix: two materialized SPEC workload models and the
    // streamed `mix` generator (pulled through the bounded record
    // window, never materialized). `--quick` shrinks every cell for CI.
    let workloads: Vec<Input> = if quick {
        vec![
            materialized("gzip", 40),
            materialized("mcf", 30),
            Input::Streamed("mix:0xbeef:50k".into()),
        ]
    } else {
        vec![
            materialized("gzip", 600),
            materialized("mcf", 400),
            Input::Streamed("mix:0xbeef:2m".into()),
        ]
    };
    let designs = [
        SqDesign::IdealOracle,
        SqDesign::Associative3,
        SqDesign::Indexed3FwdDly,
    ];
    let iters = timed_iters();

    let mut cells = Vec::new();
    let mut speedups = Vec::new();
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>9}  ({} timed iters, min wall)",
        "workload", "design", "event i/s", "ref i/s", "speedup", iters
    );
    for workload in &workloads {
        for design in designs {
            let ev = measure(workload, design, Engine::Event, iters);
            let rf = measure(workload, design, Engine::Reference, iters);
            assert_eq!(
                (ev.insts, ev.cycles),
                (rf.insts, rf.cycles),
                "engines disagree on simulated behaviour"
            );
            let speedup = ev.insts_per_sec / rf.insts_per_sec;
            println!(
                "{:<16} {:<22} {:>12.0} {:>12.0} {:>8.2}x",
                workload.name(),
                design.name(),
                ev.insts_per_sec,
                rf.insts_per_sec,
                speedup
            );
            speedups.push(Speedup {
                workload: workload.name().to_string(),
                design,
                speedup,
            });
            cells.push(ev);
            cells.push(rf);
        }
    }

    let mix_speedup = geomean(
        speedups
            .iter()
            .filter(|s| s.workload.starts_with("mix:"))
            .map(|s| s.speedup),
    );
    println!("\nmix-generator event/reference speedup (geomean): {mix_speedup:.2}x");

    let fuse_failures = fuse_gate(&cells);

    // Sweep section: all registered designs, one streamed mix workload.
    let sweep_workload = if quick {
        "mix:0xbeef:50k"
    } else {
        "mix:0xbeef:2m"
    };
    let sweep = measure_sweep(sweep_workload, iters);
    println!(
        "sweep {} x {} designs: per-cell {:.2}s, shared-pass {:.2}s ({:.2}x; \
         {} upstream pass instead of {}; ring high-water {} of {})",
        sweep.workload,
        sweep.designs.len(),
        sweep.per_cell_wall_s,
        sweep.shared_wall_s,
        sweep.speedup,
        sweep.shared_passes,
        sweep.per_cell_passes,
        sweep.ring_high_water,
        sweep.ring_capacity,
    );

    // Trace-file sweep section: the same mix stream, recorded once to
    // an on-disk SQTR trace and replayed through `tracefile:`. The file
    // name is deterministic (only the temp directory varies) so the
    // workload string stays baseline-matchable across machines.
    let trace_path = std::env::temp_dir().join(if quick {
        "sqip-perf-mix-50k.sqtr"
    } else {
        "sqip-perf-mix-2m.sqtr"
    });
    let recorded = record_trace_file(sweep_workload, &trace_path);
    let trace_sweep = measure_sweep(&format!("tracefile:{}", trace_path.display()), iters);
    let _ = std::fs::remove_file(&trace_path);
    println!(
        "trace sweep ({recorded} records on disk) x {} designs: per-cell {:.2}s, \
         shared-pass {:.2}s ({:.2}x; decode paid {} time(s) instead of {})",
        trace_sweep.designs.len(),
        trace_sweep.per_cell_wall_s,
        trace_sweep.shared_wall_s,
        trace_sweep.speedup,
        trace_sweep.shared_passes,
        trace_sweep.per_cell_passes,
    );

    let report = Report {
        bench: "sqip-perf/PR10".to_string(),
        iters,
        cells,
        speedups,
        mix_speedup,
        sweep,
        trace_sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("report written to {out}");

    if fuse_failures > 0 {
        eprintln!(
            "error: {fuse_failures} cell(s) below the {FUSE_FACTOR:.0}x fused-scheduler gate"
        );
        std::process::exit(1);
    }
    if let Some(path) = baseline {
        let failures = compare_baseline(&report, &path, ratios_only);
        if failures > 0 {
            eprintln!("error: {failures} comparison(s) regressed past the noise floor");
            std::process::exit(1);
        }
        println!("baseline gate passed");
    }
}
