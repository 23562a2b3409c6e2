//! The repository's benchmark: three single-process workloads over the
//! public APIs of `sqip`, `sqip-isa` and `sqip-service`.
//!
//! ```text
//! sqip-perfbench --workload <paper-regen|trace-replay|service-jobs>
//!                --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics: a fixed number of
//! timed rounds (`--seconds` over the workload's nominal round time),
//! [`SETUP_REPS`] set-ups spread between them, then the output checks. With `--trace 1` it runs one
//! untraced and one traced round and then the per-layer ledger (see
//! [`ledger`]). The last line of standard output is the result object;
//! see README.md.

mod batch;
mod ledger;
mod paper;
mod replay;
mod service;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sqip::{ExperimentSpec, ResultSet, SweepTelemetry};

use crate::ledger::Unit;
use crate::util::{metric, percentile, result_line, Metric};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-up repetitions per run.
const SETUP_REPS: usize = 10;

/// One workload of the benchmark.
pub trait Bench {
    /// Untimed preparation, in steps of a few milliseconds: returns the
    /// seconds each step took, the same steps in the same order on every
    /// call. Called [`SETUP_REPS`] times, spread between the rounds;
    /// each stays in force until the next.
    fn setup(&mut self) -> Res<Vec<f64>>;
    /// Ends what [`Bench::setup`] started. Not timed: called before every
    /// set-up after the first, and after the checks.
    fn teardown(&mut self) {}
    /// The nominal time of one round, in seconds. A run of `--seconds`
    /// makes `--seconds / round_s` rounds (at least two), however fast
    /// they turn out, so every build is timed on the same number of
    /// rounds.
    fn round_s(&self) -> f64;
    /// One timed pass over the workload's whole input.
    fn round(&mut self) -> Res<Round>;
    /// Output checks after the timed window: the number of jobs that
    /// failed one.
    fn check(&mut self, rounds: &[Round]) -> Res<u64>;
    /// The Table 3 All.avg error, when the rounds regenerate Table 3.
    fn table3_err(&self, _rounds: &[Round]) -> Option<f64> {
        None
    }
    /// The workload's input, one sweep group per unit (for the ledger).
    fn units(&self) -> Vec<Unit>;
    /// The workload's input as service jobs (for the ledger).
    fn jobs(&self) -> Vec<ExperimentSpec>;
    /// Whether a round runs its jobs one after another.
    fn serial(&self) -> bool {
        true
    }
}

/// One job's client-side timings.
#[derive(Debug, Clone, Copy)]
pub struct JobTiming {
    pub latency_ms: f64,
    pub first_row_ms: f64,
}

/// Shared-pass telemetry plus each cell's completion time from the
/// start of its group.
#[derive(Debug, Clone, Default)]
pub struct SweepDetail {
    pub telemetry: SweepTelemetry,
    pub cell_ms: Vec<f64>,
}

/// One timed round.
pub struct Round {
    pub wall_s: f64,
    pub committed: u64,
    pub jobs: Vec<JobTiming>,
    pub failed: u64,
    pub results: ResultSet,
    pub sweep: Option<SweepDetail>,
    pub service: Option<service::ServiceDetail>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        out_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.out_dir.as_os_str().is_empty() {
        return Err("--out-dir is required".into());
    }
    Ok(args)
}

fn make_bench(args: &Args) -> Result<Box<dyn Bench>, String> {
    Ok(match args.workload.as_str() {
        "paper-regen" => Box::new(paper::PaperRegen::new()),
        "trace-replay" => Box::new(replay::TraceReplay::new(args.seed, &args.out_dir)),
        "service-jobs" => Box::new(service::ServiceJobs::new(args.seed)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (paper-regen, trace-replay, service-jobs)"
            ))
        }
    })
}

fn main() -> ExitCode {
    let outcome = parse_args().map_err(Into::into).and_then(|args| {
        std::fs::create_dir_all(&args.out_dir)?;
        let mut bench = make_bench(&args)?;
        if args.trace {
            ledger::traced_run(&args.workload, args.seed, &args.out_dir, bench.as_mut())
        } else {
            end_to_end(bench.as_mut(), args.seconds, &args.out_dir)
        }
    });
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("sqip-perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the timed rounds with the set-ups spread between them, then the
/// checks; returns the result line.
fn end_to_end(bench: &mut dyn Bench, seconds: f64, out_dir: &Path) -> Res<String> {
    let n = ((seconds / bench.round_s()) as usize).max(2);
    let mut setups: Vec<Vec<f64>> = Vec::with_capacity(SETUP_REPS);
    let mut rounds: Vec<Round> = Vec::with_capacity(n);
    for i in 0..n {
        // Set-up k comes before round k·n/SETUP_REPS, so the set-ups
        // sample the machine over the whole run, as the rounds do.
        while setups.len() < SETUP_REPS && setups.len() * n / SETUP_REPS <= i {
            if !setups.is_empty() {
                bench.teardown();
            }
            setups.push(bench.setup()?);
        }
        rounds.push(bench.round()?);
    }
    if setups.iter().any(|s| s.len() != setups[0].len()) {
        return Err("set-ups took different steps".into());
    }
    let peak_rss_mb = util::peak_rss_mb();
    let failed = rounds.iter().map(|r| r.failed).sum::<u64>() + bench.check(&rounds)?;
    bench.teardown();
    let table3_err = paper::model_err(out_dir, bench.table3_err(&rounds), failed == 0)?;

    // Noise on a shared machine only ever adds time, and the machine
    // runs at its full speed in bursts of milliseconds, so each job's
    // time is its best over the rounds (every round runs the same jobs in
    // the same order), and each set-up step's its best over the set-ups.
    let setup_s: f64 = (0..setups[0].len())
        .map(|j| setups.iter().map(|s| s[j]).fold(f64::INFINITY, f64::min))
        .sum();
    let best = |f: fn(&JobTiming) -> f64| -> Vec<f64> {
        (0..rounds[0].jobs.len())
            .map(|j| {
                rounds
                    .iter()
                    .map(|r| f(&r.jobs[j]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let latencies = best(|j| j.latency_ms);
    let first_rows = best(|j| j.first_row_ms);
    // A batch round runs its jobs back to back, so its best time is the
    // sum of their best latencies; served jobs overlap, so there it is the
    // fastest round.
    let wall_s = if bench.serial() {
        latencies.iter().sum::<f64>() / 1e3
    } else {
        rounds
            .iter()
            .map(|r| r.wall_s)
            .fold(f64::INFINITY, f64::min)
    };
    let metrics = [
        metric("setup_s", "s", setup_s),
        metric("wall_s", "s", wall_s),
        metric(
            "sim_minsts_per_s",
            "Minst/s",
            rounds[0].committed as f64 / wall_s / 1e6,
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("table3_err", "ratio", table3_err),
        metric("jobs_per_s", "jobs/s", latencies.len() as f64 / wall_s),
        metric("job_p50_ms", "ms", percentile(&latencies, 50.0)),
        metric("job_p90_ms", "ms", percentile(&latencies, 90.0)),
        metric("first_row_p50_ms", "ms", percentile(&first_rows, 50.0)),
    ];
    print_human(&metrics);
    let attempted: u64 = rounds.iter().map(|r| r.jobs.len() as u64).sum();
    println!(
        "samples: {} jobs, each timed in {} rounds; {} set-up steps, each timed in {SETUP_REPS} set-ups",
        latencies.len(),
        rounds.len(),
        setups[0].len(),
    );
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

pub fn print_human(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>14.6} {}", m.name, m.value, m.unit);
    }
}
