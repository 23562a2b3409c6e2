//! The `sqip-loader` load-generation harness: seeded random-but-valid
//! job streams against a `sqipd` server, with SLO verification.
//!
//! A run has up to three phases:
//!
//! 1. **Steady state** — `clients` concurrent connections each submit
//!    `jobs_per_client` randomized jobs (drawn from the design registry
//!    and the generator-workload grammar), retrying admission rejects,
//!    verifying every streamed row arrives exactly once, and recording
//!    per-job latency. All randomness flows from `seed`, so two runs
//!    with the same seed against the same binary produce the **same
//!    digest** — bit-identical repeatability, over the wire.
//! 2. **Burst** (optional) — one connection pipelines more long jobs
//!    than `queue_capacity + workers` can hold, proving the server
//!    *rejects* the overflow cleanly (no dropped connections, no lost
//!    responses) and still serves a follow-up job.
//! 3. **Repeat** (optional) — phase 1 again; the digest must match.
//!
//! The outcome is a [`LoadReport`] (JSON-serializable) with percentile
//! latencies, throughput, and a pass/fail verdict per SLO.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use sqip::{DesignRegistry, ExperimentSpec, Fnv};

use crate::client::{Connection, JobOutcome, JobStatus};
use crate::protocol::{Request, Response, StatsSnapshot};

/// How many times a rejected job is resubmitted before the loader gives
/// up and counts it failed.
const MAX_REJECT_RETRIES: u64 = 1_000;

/// Backoff between admission retries.
const RETRY_BACKOFF: Duration = Duration::from_millis(20);

/// What the loader should do.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Server address, e.g. `127.0.0.1:4771`.
    pub addr: String,
    /// Concurrent steady-state clients.
    pub clients: usize,
    /// Jobs each client submits per steady-state pass.
    pub jobs_per_client: usize,
    /// Root seed; everything random derives from it.
    pub seed: u64,
    /// p99 latency SLO bound, milliseconds.
    pub p99_ms: u64,
    /// Per-job timeout forwarded to the server (`None` = server
    /// default).
    pub timeout_ms: Option<u64>,
    /// Upper bound on generated workload length, in instructions.
    pub max_insts: u64,
    /// Run the burst (queue-full) phase.
    pub burst: bool,
    /// Run the steady phase twice and require identical digests.
    pub repeat: bool,
    /// Send a `shutdown` request when done (CI teardown).
    pub shutdown_after: bool,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        LoaderConfig {
            addr: "127.0.0.1:4771".into(),
            clients: 8,
            jobs_per_client: 4,
            seed: 0xC0FF_EE00,
            p99_ms: 60_000,
            timeout_ms: None,
            max_insts: 200_000,
            burst: true,
            repeat: false,
            shutdown_after: false,
        }
    }
}

impl LoaderConfig {
    /// The CI soak preset: small jobs, every phase on, tight enough to
    /// finish in well under a minute yet still exercise ≥8 concurrent
    /// clients, admission control, and repeatability.
    #[must_use]
    pub fn quick(addr: impl Into<String>) -> LoaderConfig {
        LoaderConfig {
            addr: addr.into(),
            clients: 8,
            jobs_per_client: 2,
            max_insts: 60_000,
            burst: true,
            repeat: true,
            ..LoaderConfig::default()
        }
    }
}

/// Latency percentiles over successful steady-state jobs, milliseconds.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed.
    pub max_ms: f64,
}

/// What the burst phase observed.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct BurstReport {
    /// Jobs pipelined at once.
    pub submitted: u64,
    /// Admitted and completed.
    pub completed: u64,
    /// Turned away by admission control.
    pub rejected: u64,
    /// Cancelled (e.g. by timeout) — should stay 0.
    pub cancelled: u64,
    /// Every submit received a terminal response.
    pub all_answered: bool,
    /// A follow-up job after the burst completed normally.
    pub followup_ok: bool,
}

/// Per-SLO verdicts; `pass` is their conjunction.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SloReport {
    /// p99 latency within the configured bound.
    pub p99_ok: bool,
    /// Zero lost, duplicated, or corrupted rows; zero failed jobs.
    pub rows_ok: bool,
    /// Burst overflow rejected cleanly and served afterwards (true when
    /// the phase is disabled).
    pub burst_ok: bool,
    /// Identical digest across repeated passes (true when disabled).
    pub repeat_ok: bool,
    /// Server queue high-water stayed within its capacity.
    pub queue_bounded_ok: bool,
    /// All of the above.
    pub pass: bool,
}

/// The loader's full result, serialized as the soak artifact.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Root seed the run derived from.
    pub seed: u64,
    /// Steady-state client count.
    pub clients: u64,
    /// Jobs per client per pass.
    pub jobs_per_client: u64,
    /// Jobs that ran to verified completion.
    pub jobs_completed: u64,
    /// Jobs that ended failed/cancelled/incomplete.
    pub jobs_failed: u64,
    /// Admission rejections absorbed by retry.
    pub reject_retries: u64,
    /// Result rows received and verified.
    pub rows_received: u64,
    /// Steady-state wall time, milliseconds.
    pub wall_ms: u64,
    /// Verified rows per second of steady-state wall time.
    pub rows_per_sec: f64,
    /// Latency percentiles.
    pub latency: LatencySummary,
    /// FNV-1a digest over every spec and row, hex.
    pub digest: String,
    /// Digest of the repeat pass (when run).
    pub repeat_digest: Option<String>,
    /// Burst-phase observations (when run).
    pub burst: Option<BurstReport>,
    /// Server stats snapshot taken after all phases.
    pub server: Option<StatsSnapshot>,
    /// The verdicts.
    pub slo: SloReport,
}

/// Draws a random-but-valid spec: 1–2 generator workloads × 1–3 distinct
/// registered designs, sometimes with a one-knob variant.
fn random_spec(rng: &mut SmallRng, max_insts: u64) -> ExperimentSpec {
    let insts = |rng: &mut SmallRng| rng.gen_range(max_insts / 4..max_insts + 1).max(1_000);
    let mut workloads = Vec::new();
    for _ in 0..rng.gen_range(1..3u32) {
        let name = match rng.gen_range(0..3u32) {
            0 => format!("mix:{:#x}:{}", rng.gen_range(1..1u64 << 32), insts(rng)),
            1 => {
                let nodes = 1usize << rng.gen_range(6..10u32);
                let stride = 1usize << rng.gen_range(4..9u32);
                format!("chase:{nodes}:{stride}:{}", insts(rng))
            }
            _ => {
                let stride = 1usize << rng.gen_range(3..10u32);
                format!("stride:{stride}:{}", insts(rng))
            }
        };
        workloads.push(name);
    }

    let all_designs = DesignRegistry::global().names();
    let picks = rng.gen_range(1..3usize.min(all_designs.len()) + 1);
    let mut designs: Vec<String> = Vec::new();
    while designs.len() < picks {
        let d = all_designs[rng.gen_range(0..all_designs.len())].to_string();
        if !designs.contains(&d) {
            designs.push(d);
        }
    }

    let mut spec = ExperimentSpec::new(workloads, designs);
    if rng.gen_range(0..2u32) == 1 {
        let (knob, value) = match rng.gen_range(0..4u32) {
            0 => ("rob_size", 1u64 << rng.gen_range(6..9u32)),
            1 => ("fsp_entries", 1 << rng.gen_range(7..10u32)),
            2 => ("iq_size", 1 << rng.gen_range(5..7u32)),
            _ => ("ssn_bits", u64::from(rng.gen_range(10..15u32))),
        };
        spec = spec.variant(format!("{knob}-{value}"), vec![(knob.to_string(), value)]);
    }
    spec
}

/// One steady-state job's verified outcome.
struct JobRun {
    ok: bool,
    latency: Duration,
    rows: u64,
    reject_retries: u64,
    /// Bytes folded into the run digest: the spec, then rows by index.
    digest_bytes: Vec<u8>,
}

/// Submits one job, retrying admission rejects, and verifies the rows.
fn run_one_job(
    conn: &mut Connection,
    id: &str,
    spec: &ExperimentSpec,
    timeout_ms: Option<u64>,
) -> io::Result<JobRun> {
    let mut retries = 0u64;
    loop {
        let started = Instant::now();
        let outcome: JobOutcome = conn.run_job(id, spec, timeout_ms)?;
        match outcome.status {
            Some(JobStatus::Rejected(_)) if retries < MAX_REJECT_RETRIES => {
                retries += 1;
                thread::sleep(RETRY_BACKOFF);
                continue;
            }
            Some(JobStatus::Done) => {
                let ok = outcome.is_complete();
                let mut digest_bytes = spec.to_json().into_bytes();
                digest_bytes.push(b'\n');
                let mut rows = outcome.rows;
                rows.sort_by_key(|(index, _)| *index);
                for (_, record) in &rows {
                    digest_bytes.extend_from_slice(record.to_json().as_bytes());
                    digest_bytes.push(b'\n');
                }
                return Ok(JobRun {
                    ok,
                    latency: started.elapsed(),
                    rows: rows.len() as u64,
                    reject_retries: retries,
                    digest_bytes,
                });
            }
            _ => {
                return Ok(JobRun {
                    ok: false,
                    latency: started.elapsed(),
                    rows: outcome.rows.len() as u64,
                    reject_retries: retries,
                    digest_bytes: Vec::new(),
                })
            }
        }
    }
}

struct SteadyResult {
    completed: u64,
    failed: u64,
    reject_retries: u64,
    rows: u64,
    wall: Duration,
    latencies: Vec<Duration>,
    digest: String,
}

/// Phase 1/3: all clients at once, then a client-major deterministic
/// digest fold.
fn steady_phase(cfg: &LoaderConfig) -> io::Result<SteadyResult> {
    let started = Instant::now();
    let failures = AtomicU64::new(0);
    let mut per_client: Vec<io::Result<Vec<JobRun>>> = Vec::new();
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..cfg.clients {
            let cfg = &*cfg;
            let failures = &failures;
            handles.push(scope.spawn(move || -> io::Result<Vec<JobRun>> {
                // Splitmix-style per-client stream: independent of
                // scheduling, reproducible from the root seed.
                let mut rng = SmallRng::seed_from_u64(
                    cfg.seed ^ (client as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut conn = Connection::connect(&cfg.addr)?;
                let mut runs = Vec::new();
                for job in 0..cfg.jobs_per_client {
                    let spec = random_spec(&mut rng, cfg.max_insts);
                    let id = format!("c{client}-j{job}");
                    let run = run_one_job(&mut conn, &id, &spec, cfg.timeout_ms)?;
                    if !run.ok {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                    runs.push(run);
                }
                Ok(runs)
            }));
        }
        for handle in handles {
            per_client.push(
                handle.join().unwrap_or_else(|_| {
                    Err(io::Error::other("steady-state client thread panicked"))
                }),
            );
        }
    });

    let wall = started.elapsed();
    let mut out = SteadyResult {
        completed: 0,
        failed: failures.load(Ordering::Relaxed),
        reject_retries: 0,
        rows: 0,
        wall,
        latencies: Vec::new(),
        digest: String::new(),
    };
    let mut fnv = Fnv::new();
    for client in per_client {
        let runs = client?;
        for run in runs {
            out.reject_retries += run.reject_retries;
            if run.ok {
                out.completed += 1;
                out.rows += run.rows;
                out.latencies.push(run.latency);
                fnv.update(&run.digest_bytes);
            }
        }
    }
    out.digest = fnv.hex();
    Ok(out)
}

/// Phase 2: pipeline `queue_capacity + workers + 4` long jobs on one
/// connection; the overflow must be *rejected*, everything must be
/// answered, and the connection must still work afterwards.
fn burst_phase(cfg: &LoaderConfig, stats: StatsSnapshot) -> io::Result<BurstReport> {
    let total = (stats.queue_capacity + stats.workers + 4) as usize;
    let mut conn = Connection::connect(&cfg.addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(120)))?;

    let long = cfg.max_insts.max(1_000_000) * 2;
    for b in 0..total {
        conn.send(&Request::Submit {
            id: format!("burst-{b}"),
            spec: ExperimentSpec::new(
                [format!("mix:{:#x}:{long}", cfg.seed | 1)],
                ["ideal-oracle"],
            ),
            timeout_ms: Some(180_000),
        })?;
    }

    let mut report = BurstReport {
        submitted: total as u64,
        ..BurstReport::default()
    };
    // A job is settled by: rejected, cancelled, error, or done. Rows
    // stream interleaved; count terminals until all are accounted for.
    let mut settled = 0usize;
    while settled < total {
        match conn.recv() {
            Ok(Response::Done { .. }) => {
                report.completed += 1;
                settled += 1;
            }
            Ok(Response::Rejected { .. }) => {
                report.rejected += 1;
                settled += 1;
            }
            Ok(Response::Cancelled { .. }) => {
                report.cancelled += 1;
                settled += 1;
            }
            Ok(Response::Error { .. }) => {
                settled += 1;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    report.all_answered = settled == total;

    // The queue has drained; a fresh job must sail through.
    let followup = conn.run_job(
        "burst-followup",
        &ExperimentSpec::new(["stride:8:20k"], ["ideal-oracle"]),
        cfg.timeout_ms,
    )?;
    report.followup_ok = followup.is_complete();
    Ok(report)
}

fn percentile(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)].as_secs_f64() * 1e3
}

fn server_stats(addr: &str) -> io::Result<StatsSnapshot> {
    let mut conn = Connection::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(10)))?;
    conn.send(&Request::Stats)?;
    loop {
        if let Response::Stats(snapshot) = conn.recv()? {
            return Ok(snapshot);
        }
    }
}

/// Runs the configured phases and renders the verdicts.
///
/// # Errors
///
/// Propagates connection failures; SLO violations are reported in the
/// returned [`LoadReport`], not as errors.
pub fn run_load(cfg: &LoaderConfig) -> io::Result<LoadReport> {
    let steady = steady_phase(cfg)?;

    let burst = if cfg.burst {
        Some(burst_phase(cfg, server_stats(&cfg.addr)?)?)
    } else {
        None
    };

    let repeat_digest = if cfg.repeat {
        Some(steady_phase(cfg)?.digest)
    } else {
        None
    };

    let server = server_stats(&cfg.addr).ok();
    if cfg.shutdown_after {
        if let Ok(mut conn) = Connection::connect(&cfg.addr) {
            let _ = conn.send(&Request::Shutdown);
        }
    }

    let mut latencies = steady.latencies.clone();
    latencies.sort();
    let latency = LatencySummary {
        p50_ms: percentile(&latencies, 50.0),
        p95_ms: percentile(&latencies, 95.0),
        p99_ms: percentile(&latencies, 99.0),
        max_ms: latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
    };

    let expected_jobs = (cfg.clients * cfg.jobs_per_client) as u64;
    let slo_p99 = latency.p99_ms <= cfg.p99_ms as f64;
    let slo_rows = steady.failed == 0 && steady.completed == expected_jobs;
    let slo_burst = burst
        .as_ref()
        .is_none_or(|b| b.all_answered && b.rejected >= 1 && b.followup_ok && b.cancelled == 0);
    let slo_repeat = repeat_digest.as_ref().is_none_or(|d| *d == steady.digest);
    let slo_queue = server
        .as_ref()
        .is_none_or(|s| s.queue_high_water <= s.queue_capacity);

    let slo = SloReport {
        p99_ok: slo_p99,
        rows_ok: slo_rows,
        burst_ok: slo_burst,
        repeat_ok: slo_repeat,
        queue_bounded_ok: slo_queue,
        pass: slo_p99 && slo_rows && slo_burst && slo_repeat && slo_queue,
    };

    let wall_ms = steady.wall.as_millis() as u64;
    Ok(LoadReport {
        seed: cfg.seed,
        clients: cfg.clients as u64,
        jobs_per_client: cfg.jobs_per_client as u64,
        jobs_completed: steady.completed,
        jobs_failed: steady.failed,
        reject_retries: steady.reject_retries,
        rows_received: steady.rows,
        wall_ms,
        rows_per_sec: if wall_ms == 0 {
            0.0
        } else {
            steady.rows as f64 / (wall_ms as f64 / 1e3)
        },
        latency,
        digest: steady.digest,
        repeat_digest,
        burst,
        server,
        slo,
    })
}
