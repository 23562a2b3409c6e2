//! `perf` — the simulator's counter-gated perf smoke.
//!
//! A fixed matrix — 3 store-queue designs × 3 workloads (two
//! materialized SPEC models and one *streamed* generator) — runs under
//! both simulation engines, [`ITERS`] timed iterations per cell after one
//! untimed warmup: insts/sec and wall time (best iteration), cycles, and
//! peak buffered records per cell. The results are asserted identical
//! across iterations and the two engines' cycles equal.
//!
//! Every event-engine cell also carries the engine's **scheduling-cost
//! counters** (wheel ops, off-wheel near ops, broadcasts delivered and
//! cancelled, ready-lane touches and steps — the active cycles simulated
//! — each per committed instruction). The counters are deterministic per
//! (workload, design) and independent of the host, so they are the
//! hardware-portable face of the scheduler.
//!
//! The JSON report goes to `target/perf-report.json` unless `--out`
//! names another path, so a run never rewrites a committed report.
//!
//! **Regression gate:** `--baseline <json>` compares this run against a
//! report of the same [`SCHEMA`] (any other schema is refused, exit 2).
//! Every run cell and speedup must match a baseline entry and every
//! baseline entry must match the run. It gates only hardware-portable
//! numbers: the geomean of the event/reference speedup ratios, and the
//! wheel-ops, broadcasts, ready-touches and steps counters, which are
//! exact, so their drift tolerance is a rounding allowance, not a noise
//! floor. Any failure exits 1.
//!
//! ```text
//! cargo run --release -p sqip-bench --bin perf -- --out my.json
//! cargo run --release -p sqip-bench --bin perf -- \
//!     --baseline crates/bench/perf-smoke-baseline.json
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use serde::{Deserialize, Serialize};
use sqip::{
    by_name, geomean, Engine, Processor, SchedCounters, SimConfig, SimStats, SqDesign, StepOutcome,
    WorkloadRegistry,
};
use sqip_isa::Trace;

/// Timed iterations per cell (the minimum wall time is reported).
const ITERS: u32 = 5;

/// Floor for the event/reference *ratio* geomean: a ratio divides two
/// independently noisy measurements, roughly doubling the variance.
const RATIO_FLOOR: f64 = 0.20;

/// Allowed upward drift in the scheduling counters before `--baseline`
/// fails a cell. The counters are deterministic (asserted across
/// iterations), so this covers only float rounding of the per-inst
/// division — not measurement noise.
const COUNTER_FLOOR: f64 = 0.01;

/// The report schema this bin writes and the only one `--baseline`
/// reads. Bump it whenever a field the gates read changes.
const SCHEMA: u32 = 2;

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
    /// Value broadcasts cancelled per instruction: their producer was
    /// certain to replay, so they woke nobody (reported, not gated).
    cancelled_broadcasts_per_inst: f64,
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
}

/// The subset of a committed [`SCHEMA`] report `--baseline` reads.
#[derive(Debug, Deserialize)]
struct BaselineReport {
    cells: Vec<BaselineCell>,
    speedups: Vec<BaselineSpeedup>,
}

#[derive(Debug, Deserialize)]
struct BaselineCell {
    workload: String,
    design: String,
    engine: String,
    /// `null` on reference-engine cells.
    sched: Option<SchedCost>,
}

#[derive(Debug, Deserialize)]
struct BaselineSpeedup {
    workload: String,
    design: String,
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

fn measure(input: &Input, design: SqDesign, engine: Engine) -> Cell {
    let mut cfg = SimConfig::with_design(design);
    cfg.engine = engine;
    let (stats, peak, _, counters) = run_once(input, &cfg); // warmup (and correctness)
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
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
            cancelled_broadcasts_per_inst: per_inst(c.cancelled_broadcasts),
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

/// Applies the `--baseline` gate, printing each comparison. Returns the
/// number of failures.
fn compare_baseline(report: &Report, baseline: &BaselineReport) -> usize {
    // The matrix is fixed, so every cell and speedup must be on both
    // sides: one renamed or resized cell would otherwise leave the gate
    // without notice.
    let mut failures = unmatched(
        "cell",
        &report
            .cells
            .iter()
            .map(|c| format!("{}/{}/{:?}", c.workload, c.design.name(), c.engine))
            .collect::<Vec<_>>(),
        &baseline
            .cells
            .iter()
            .map(|b| format!("{}/{}/{}", b.workload, b.design, b.engine))
            .collect::<Vec<_>>(),
    );
    failures += unmatched(
        "speedup",
        &report
            .speedups
            .iter()
            .map(|s| format!("{}/{}", s.workload, s.design.name()))
            .collect::<Vec<_>>(),
        &baseline
            .speedups
            .iter()
            .map(|b| format!("{}/{}", b.workload, b.design))
            .collect::<Vec<_>>(),
    );

    // Event/reference ratios are hardware-portable: gate them on the
    // *geomean*, which averages out the per-cell jitter of the tiny
    // cells (individual cells are printed for diagnosis but do not fail
    // the gate alone).
    let mut ratios = Vec::new();
    for s in &report.speedups {
        let Some(base) = baseline
            .speedups
            .iter()
            .find(|b| b.workload == s.workload && b.design == s.design.name())
        else {
            continue;
        };
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
    // The scheduling counters are deterministic and hardware-portable:
    // gated one-sided (dropping below the baseline is an improvement)
    // with only a rounding allowance.
    for cell in &report.cells {
        let Some(sched) = &cell.sched else { continue };
        let Some(base) = baseline.cells.iter().find(|b| {
            b.workload == cell.workload
                && b.design == cell.design.name()
                && b.engine == format!("{:?}", cell.engine)
        }) else {
            continue;
        };
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
            (
                "ready touches",
                sched.ready_touches_per_inst,
                base_sched.ready_touches_per_inst,
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
    failures
}

/// Prints and counts the `what` keys that only one side has.
fn unmatched(what: &str, run: &[String], base: &[String]) -> usize {
    let ours = run.iter().filter(|k| !base.contains(k));
    let theirs = base.iter().filter(|k| !run.contains(k));
    for key in ours.clone() {
        println!("  FAIL {what} {key}: not in the baseline");
    }
    for key in theirs.clone() {
        println!("  FAIL {what} {key}: in the baseline, not in this run");
    }
    ours.count() + theirs.count()
}

fn main() {
    let mut out = "target/perf-report.json".to_string();
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path = || {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {arg} requires a path");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--out" => out = path(),
            "--baseline" => baseline = Some(path()),
            other => {
                eprintln!(
                    "error: unknown flag `{other}` (expected --out <path> / --baseline <json>)"
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
    // window, never materialized), each small enough for a CI smoke.
    let workloads = [
        materialized("gzip", 40),
        materialized("mcf", 30),
        Input::Streamed("mix:0xbeef:50k".into()),
    ];
    let designs = [
        SqDesign::IdealOracle,
        SqDesign::Associative3,
        SqDesign::Indexed3FwdDly,
    ];

    let mut cells = Vec::new();
    let mut speedups = Vec::new();
    println!(
        "{:<16} {:<22} {:>12} {:>12} {:>9}  ({ITERS} timed iters, min wall)",
        "workload", "design", "event i/s", "ref i/s", "speedup"
    );
    for workload in &workloads {
        for design in designs {
            let ev = measure(workload, design, Engine::Event);
            let rf = measure(workload, design, Engine::Reference);
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

    let report = Report {
        schema: SCHEMA,
        iters: ITERS,
        cells,
        speedups,
        mix_speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    std::fs::write(&out, json + "\n").unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("report written to {out}");

    if let Some((path, base)) = baseline {
        println!("\nbaseline gate vs {path} (schema {SCHEMA}):");
        let failures = compare_baseline(&report, &base);
        if failures > 0 {
            eprintln!("error: {failures} comparison(s) failed the baseline gate");
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

    /// One event cell, its reference twin and their speedup.
    fn tiny_report() -> Report {
        let cell = |engine, sched| Cell {
            workload: "w".into(),
            design: SqDesign::Associative3,
            engine,
            insts: 10,
            cycles: 20,
            insts_per_sec: 1e6,
            wall_s: 1e-5,
            peak_buffered: 4,
            sched,
        };
        let sched = SchedCost {
            wheel_ops_per_inst: 0.1,
            near_ops_per_inst: 2.0,
            broadcasts_per_inst: 1.0,
            cancelled_broadcasts_per_inst: 0.01,
            ready_touches_per_inst: 2.0,
            steps_per_inst: 0.5,
        };
        Report {
            schema: SCHEMA,
            iters: ITERS,
            cells: vec![
                cell(Engine::Event, Some(sched)),
                cell(Engine::Reference, None),
            ],
            speedups: vec![Speedup {
                workload: "w".into(),
                design: SqDesign::Associative3,
                speedup: 3.0,
            }],
            mix_speedup: 3.0,
        }
    }

    fn as_baseline(report: &Report) -> BaselineReport {
        parse_baseline(&serde_json::to_string(report).unwrap()).unwrap()
    }

    #[test]
    fn every_cell_and_speedup_must_match_a_baseline_entry_both_ways() {
        let report = tiny_report();
        assert_eq!(compare_baseline(&report, &as_baseline(&report)), 0);

        // A renamed cell is both a run cell without a baseline entry and
        // a baseline entry without a run cell.
        let mut renamed = tiny_report();
        renamed.cells[1].workload = "w@2".into();
        assert_eq!(compare_baseline(&renamed, &as_baseline(&report)), 2);

        let mut dropped = tiny_report();
        dropped.speedups.clear();
        assert_eq!(compare_baseline(&dropped, &as_baseline(&report)), 1);
        assert_eq!(compare_baseline(&report, &as_baseline(&dropped)), 1);
    }

    #[test]
    fn each_gated_counter_may_fall_but_not_rise() {
        let report = tiny_report();
        let base = as_baseline(&report);
        let with = |f: fn(&mut SchedCost, f64), scale: f64| {
            let mut r = tiny_report();
            let sched = r.cells[0].sched.as_mut().unwrap();
            f(sched, scale);
            compare_baseline(&r, &base)
        };
        let gated: [fn(&mut SchedCost, f64); 4] = [
            |s, k| s.wheel_ops_per_inst *= k,
            |s, k| s.broadcasts_per_inst *= k,
            |s, k| s.ready_touches_per_inst *= k,
            |s, k| s.steps_per_inst *= k,
        ];
        for f in gated {
            assert_eq!(with(f, 0.5), 0, "a fall passes");
            assert_eq!(with(f, 1.05), 1, "a rise past the rounding allowance fails");
        }
        // Reported, not gated.
        assert_eq!(with(|s, k| s.near_ops_per_inst *= k, 2.0), 0);
        assert_eq!(with(|s, k| s.cancelled_broadcasts_per_inst *= k, 2.0), 0);
    }

    #[test]
    fn a_baseline_of_another_schema_is_refused() {
        let err = parse_baseline(r#"{"cells": [], "speedups": []}"#).unwrap_err();
        assert!(err.contains("no schema"), "{err}");
        let err = parse_baseline(&format!(r#"{{"schema": {}}}"#, SCHEMA + 1)).unwrap_err();
        assert!(err.contains(&format!("schema {}", SCHEMA + 1)), "{err}");
    }
}
