//! `perf` — the simulator's performance-regression harness.
//!
//! Two sections:
//!
//! * **Per-cell matrix** — 3 store-queue designs × 3 workloads (two
//!   materialized SPEC models and one *streamed* generator) under both
//!   simulation engines: insts/sec, wall time (min-of-N), cycles, and
//!   peak buffered records per cell.
//! * **Sweep section** — the paper-shaped sweep: every registered design
//!   over one streamed `mix` workload, run through the
//!   [`sqip::SweepEngine`] and, as the baseline, as one plain
//!   `Processor::try_from_source(..).try_run()` per design. Both do the
//!   same simulation work (each cell opens its own stream and runs its
//!   own dependence oracle), so the wall-clock ratio per-cell / sweep is
//!   the cost of the sweep driver itself — its cancel checks, observer
//!   hooks, row events and result collection — and should read about
//!   1.0. Each iteration times the two back to back, alternating which
//!   goes first, and the reported ratio is the median of the per-pair
//!   ratios, so one slow stretch of the machine moves one pair, not the
//!   gate. Results are asserted bit-identical on every iteration.
//!
//! The JSON report goes to `target/perf-report.json` unless `--out`
//! names another path, so a smoke run never rewrites a committed report.
//! The committed `BENCH_<PR>.json` snapshots are the repo's perf
//! trajectory (each written with `--out`), so regressions are diffs, not
//! folklore.
//!
//! Every event-engine cell also carries the engine's **scheduling-cost
//! counters** (wheel ops, off-wheel near ops, broadcasts delivered,
//! ready-lane touches and steps — the active cycles simulated — each per
//! committed instruction). The counters are
//! deterministic per (workload, design) and independent of the host, so
//! they are the hardware-portable face of the scheduler.
//!
//! **Regression gate:** `--baseline <json>` compares this run against a
//! report of the same [`SCHEMA`] (any other schema is refused, exit 2):
//! any matched (workload, design, engine) cell whose insts/sec drops
//! more than the 15% noise floor fails the run (exit 1).
//! `--baseline-ratios-only` skips that absolute comparison — the mode
//! CI uses, since absolute insts/sec only transfer between same-class
//! machines. Both modes gate the hardware-portable numbers: the
//! event/reference speedup *ratios*, the sweep's per-cell/sweep wall
//! ratio (median of back-to-back pairs of the same binary), and the
//! scheduling counters —
//! those are exact, so their drift tolerance is a rounding allowance,
//! not a noise floor.
//!
//! ```text
//! cargo run --release -p sqip-bench --bin perf             # full matrix
//! cargo run --release -p sqip-bench --bin perf -- --quick  # CI smoke
//! cargo run --release -p sqip-bench --bin perf -- --out my.json
//! cargo run --release -p sqip-bench --bin perf -- --quick \
//!     --baseline crates/bench/perf-smoke-baseline.json --baseline-ratios-only
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

/// The report schema this bin writes and the only one `--baseline`
/// reads. Bump it whenever a field the gates read changes.
const SCHEMA: u32 = 1;

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
    /// Executions, broadcasts and store wakes scheduled on the near
    /// structures instead of the wheel, per instruction.
    near_ops_per_inst: f64,
    /// Value broadcasts delivered per instruction.
    broadcasts_per_inst: f64,
    /// Ready-lane tail peeks per instruction during issue selection.
    ready_touches_per_inst: f64,
    /// Engine steps (active cycles simulated; idle ones are skipped)
    /// per instruction.
    steps_per_inst: f64,
}

/// Event-over-reference throughput ratio for one (workload, design).
#[derive(Debug, Clone, Serialize)]
struct Speedup {
    workload: String,
    design: SqDesign,
    speedup: f64,
}

/// The sweep section: every registered design over one streamed
/// workload, per-cell runs vs the sweep engine.
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
    /// Minimum wall seconds over the timed iterations, per mode.
    per_cell_wall_s: f64,
    sweep_wall_s: f64,
    /// Wall-clock ratio per-cell / sweep (same binary, same simulation
    /// work): the median over the iterations of each back-to-back
    /// pair's ratio, the sweep driver's overhead gate.
    speedup: f64,
    /// Aggregate throughput (total_insts / wall), per mode.
    per_cell_insts_per_sec: f64,
    sweep_insts_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Report {
    /// Always [`SCHEMA`].
    schema: u32,
    /// Timed iterations per cell (minimum wall time is reported).
    iters: u32,
    cells: Vec<Cell>,
    speedups: Vec<Speedup>,
    /// Event/reference on the mix generator at the paper's default
    /// configuration (geomean over designs run).
    mix_speedup: f64,
    /// The sweep section (always present: the bin aborts if the sweep
    /// fails to build or run).
    sweep: Sweep,
}

/// The subset of a committed [`SCHEMA`] report `--baseline` reads.
#[derive(Debug, Deserialize)]
struct BaselineReport {
    cells: Vec<BaselineCell>,
    speedups: Vec<BaselineSpeedup>,
    sweep: BaselineSweep,
}

#[derive(Debug, Deserialize)]
struct BaselineCell {
    workload: String,
    design: String,
    engine: String,
    insts_per_sec: f64,
    /// `null` on reference-engine cells.
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

/// Parses a `--baseline` report, refusing any schema but [`SCHEMA`]: a
/// report of another schema may lack fields the gates read or mean
/// something else by them.
fn parse_baseline(text: &str) -> Result<BaselineReport, String> {
    let value: serde_json::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let schema = value.get("schema").and_then(|v| u32::deserialize(v).ok());
    if schema != Some(SCHEMA) {
        let found = schema.map_or("no schema".to_string(), |s| format!("schema {s}"));
        return Err(format!(
            "the report has {found}, this bin reads schema {SCHEMA} only; \
             re-record the baseline with this bin"
        ));
    }
    BaselineReport::deserialize(&value).map_err(|e| e.to_string())
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
            near_ops_per_inst: per_inst(c.near_ops),
            broadcasts_per_inst: per_inst(c.broadcasts),
            ready_touches_per_inst: per_inst(c.ready_touches),
            steps_per_inst: per_inst(c.steps),
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
/// workload, per-cell runs vs the sweep engine, in `iters` back-to-back
/// pairs.
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
            .run(&experiment)
            .unwrap_or_else(|e| panic!("sweep: {e}"))
    };
    // The baseline: every design simulates the workload alone through a
    // bare `try_run`, with no sweep driver around it.
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
    let sweep_results = run();
    let per_cell_results = per_cell();
    let sweep_stats: Vec<SimStats> = sweep_results.iter().map(|r| r.stats.clone()).collect();
    assert_eq!(
        sweep_stats, per_cell_results,
        "the sweep must be bit-identical to per-cell runs"
    );

    // Each iteration times one sweep and one per-cell pass back to back,
    // alternating which goes first, so both halves of a pair see the
    // same machine state; the gate reads the median of the pair ratios.
    let time_sweep = || {
        let t = Instant::now();
        let again = run();
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(again, sweep_results, "non-deterministic sweep");
        wall
    };
    let time_per_cell = || {
        let t = Instant::now();
        let again = per_cell();
        let wall = t.elapsed().as_secs_f64();
        assert_eq!(again, per_cell_results, "non-deterministic per-cell runs");
        wall
    };
    let mut sweep_wall = f64::INFINITY;
    let mut per_cell_wall = f64::INFINITY;
    let mut ratios = Vec::with_capacity(iters as usize);
    for i in 0..iters {
        let (s, c) = if i.is_multiple_of(2) {
            let s = time_sweep();
            (s, time_per_cell())
        } else {
            let c = time_per_cell();
            (time_sweep(), c)
        };
        sweep_wall = sweep_wall.min(s);
        per_cell_wall = per_cell_wall.min(c);
        ratios.push(c / s);
    }

    let total_insts: u64 = sweep_results.iter().map(|r| r.stats.committed).sum();
    Sweep {
        workload: workload.to_string(),
        designs: designs.iter().map(|d| d.name().to_string()).collect(),
        threads: 1,
        total_insts,
        stream_records: per_cell_results[0].committed,
        per_cell_wall_s: per_cell_wall,
        sweep_wall_s: sweep_wall,
        speedup: median(&mut ratios),
        per_cell_insts_per_sec: total_insts as f64 / per_cell_wall,
        sweep_insts_per_sec: total_insts as f64 / sweep_wall,
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Applies the `--baseline` gate. Returns the number of failures.
fn compare_baseline(
    report: &Report,
    baseline: &BaselineReport,
    path: &str,
    ratios_only: bool,
) -> usize {
    println!("\nbaseline gate vs {path} (schema {SCHEMA}):");
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
        let Some(base) = baseline.cells.iter().find(|b| {
            b.workload == cell.workload
                && b.design == cell.design.name()
                && b.engine == format!("{:?}", cell.engine)
        }) else {
            continue;
        };
        matched += 1;
        let Some(base_sched) = &base.sched else {
            failures += 1;
            println!(
                "  FAIL {}/{}: the baseline's event cell has no scheduling counters",
                cell.workload, cell.design
            );
            continue;
        };
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
            ("steps", sched.steps_per_inst, base_sched.steps_per_inst),
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
    // The sweep wall ratio is a wall-clock ratio of the same binary, so
    // like the engine ratios it transfers across machines and is gated
    // in ratios-only mode too.
    let (ours, base) = (&report.sweep, &baseline.sweep);
    if base.workload == ours.workload {
        matched += 1;
        let ratio = ours.speedup / base.speedup;
        let ok = ratio >= 1.0 - RATIO_FLOOR;
        if !ok {
            failures += 1;
        }
        println!(
            "  {} sweep per-cell/sweep wall ratio: {:.2}x vs {:.2}x ({:+.1}%)",
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

    // Read the baseline before the run, so a refused one costs nothing.
    let baseline = baseline.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading baseline {path}: {e}"));
        let base = parse_baseline(&text).unwrap_or_else(|e| {
            eprintln!("error: baseline {path}: {e}");
            std::process::exit(2);
        });
        (path, base)
    });

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

    // Sweep section: all registered designs, one streamed mix workload.
    let sweep_workload = if quick {
        "mix:0xbeef:50k"
    } else {
        "mix:0xbeef:2m"
    };
    let sweep = measure_sweep(sweep_workload, iters);
    println!(
        "sweep {} x {} designs: per-cell {:.2}s, sweep {:.2}s (per-cell/sweep {:.2}x)",
        sweep.workload,
        sweep.designs.len(),
        sweep.per_cell_wall_s,
        sweep.sweep_wall_s,
        sweep.speedup,
    );

    let report = Report {
        schema: SCHEMA,
        iters,
        cells,
        speedups,
        mix_speedup,
        sweep,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("report written to {out}");

    if let Some((path, base)) = baseline {
        let failures = compare_baseline(&report, &base, &path, ratios_only);
        if failures > 0 {
            eprintln!("error: {failures} comparison(s) regressed past the noise floor");
            std::process::exit(1);
        }
        println!("baseline gate passed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_quick_baseline_parses_as_the_current_schema() {
        let text = include_str!("../../perf-smoke-baseline.json");
        let base = parse_baseline(text).expect("the committed baseline is current");
        assert!(base.cells.iter().any(|c| c.sched.is_some()));
    }

    #[test]
    fn a_baseline_of_another_schema_is_refused() {
        let err = parse_baseline(r#"{"cells": [], "speedups": []}"#).unwrap_err();
        assert!(err.contains("no schema"), "{err}");
        let err = parse_baseline(&format!(r#"{{"schema": {}}}"#, SCHEMA + 1)).unwrap_err();
        assert!(err.contains(&format!("schema {}", SCHEMA + 1)), "{err}");
    }
}
