//! The traced run: the per-layer ledger, measured from outside the
//! program around calls into each layer's public functions.
//!
//! It runs one untraced and one traced round of the workload (their
//! difference is the tracing overhead), then rebuilds the record path
//! one stage at a time over the workload's own input, timing each stage
//! by itself:
//!
//! 1. the source alone (generator, materialized trace or SQTR file),
//! 2. the source plus `oracle_tap`,
//! 3. the source plus `oracle_tap` plus a `TraceTee` with one draining
//!    cursor per design (groups of two or more designs only),
//! 4. the source plus `Processor::try_from_source(..)` stepped to the
//!    end, once per design,
//!
//! and, on the side, generation alone, trace materialization, SQTR
//! encode and decode, result serialization and the service. A layer's
//! self time is its stage minus the stage below it; `sqip.sweep.
//! residual_s` is the traced round's wall time minus the self times on
//! its path. Spans go to `spans-<workload>-<seed>.json` in the output
//! directory.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sqip::{
    oracle_tap, record_trace, Processor, SimConfig, SimStats, SqDesign, StepOutcome, SweepEngine,
    TraceReader, TraceSource, TraceTee, WorkloadSpec,
};
use sqip_isa::TraceRecord;

use crate::util::{
    drain_count, json_num, median, median_grouped, metric, result_line, secs, Metric,
};
use crate::{batch, service, Bench, Res, Round, SweepDetail};

const RING: usize = SweepEngine::RING_CAPACITY;

/// Where a unit's records come from in the timed rounds.
pub enum Input {
    /// Built into memory per group, then streamed (`Workload::Spec`).
    Materialized,
    /// Decoded from an SQTR file (`tracefile:<path>`).
    File(PathBuf),
    /// Interpreted on the fly (registry generator names).
    Streaming,
}

/// One sweep group of the workload: a program under some designs.
pub struct Unit {
    /// The generator of the unit's program.
    pub spec: WorkloadSpec,
    pub input: Input,
    pub designs: Vec<SqDesign>,
}

fn with_source<T>(unit: &Unit, f: impl FnOnce(&mut dyn TraceSource) -> Res<T>) -> Res<T> {
    match &unit.input {
        Input::Materialized => {
            let trace = unit.spec.trace()?;
            f(&mut trace.stream())
        }
        Input::File(path) => f(&mut TraceReader::new(BufReader::new(File::open(path)?))?),
        Input::Streaming => f(&mut unit.spec.source()?),
    }
}

/// Spans kept in memory and written out at the end.
struct Tracer {
    t0: Instant,
    spans: Vec<(String, Option<usize>, f64, f64)>,
}

impl Tracer {
    fn span<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start = secs(self.t0);
        self.spans.push((name.to_string(), parent, start, start));
        let out = f(self);
        let end = secs(self.t0);
        self.spans[id].3 = end;
        (out, end - start)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, (name, parent, start, end)) in self.spans.iter().enumerate() {
            let parent = parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {start}, \"end_s\": {end}}}{}",
                name.replace('"', "'"),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

/// Counter sums over every engine-stage cell.
#[derive(Default)]
struct Counts {
    cycles: u64,
    committed: u64,
    squashed: u64,
    flushes: u64,
    replays: u64,
    loads: u64,
    forwarded: u64,
    partial: u64,
    reexec: u64,
    ssn_wraps: u64,
    misfwd: u64,
    delayed: u64,
    l1: (u64, u64),
    l2: (u64, u64),
    tlb: (u64, u64),
    wheel: u64,
    near: u64,
    broadcasts: u64,
    ready: u64,
}

impl Counts {
    fn add(&mut self, s: &SimStats, sched: Option<sqip::SchedCounters>) {
        self.cycles += s.cycles;
        self.committed += s.committed;
        self.squashed += s.squashed;
        self.flushes += s.flushes;
        self.replays += s.replays;
        self.loads += s.loads;
        self.forwarded += s.loads_forwarded;
        self.partial += s.partial_stalls;
        self.reexec += s.re_executions;
        self.ssn_wraps += s.ssn_wraps;
        self.misfwd += s.mis_forwards;
        self.delayed += s.loads_delayed;
        for (sum, c) in [
            (&mut self.l1, s.l1),
            (&mut self.l2, s.l2),
            (&mut self.tlb, s.tlb),
        ] {
            sum.0 += c.accesses();
            sum.1 += c.misses;
        }
        if let Some(k) = sched {
            self.wheel += k.wheel_ops;
            self.near += k.near_ops;
            self.broadcasts += k.broadcasts;
            self.ready += k.ready_touches;
        }
    }
}

/// Stage times summed over units, in seconds.
#[derive(Default)]
struct Stages {
    recs: u64,
    gen: f64,
    build: f64,
    encode: f64,
    bytes: u64,
    decode: f64,
    source: f64,
    oracle: f64,
    tee: f64,
    tee_rec_cursors: u64,
    engine: f64,
    /// The stages on the timed round's path, as the sweep runs them.
    modeled: f64,
    stats: Vec<SimStats>,
    counts: Counts,
}

fn measure_unit(tr: &mut Tracer, parent: usize, unit: &Unit, st: &mut Stages) -> Res<()> {
    let (recs, source) = tr.span("source", Some(parent), |_| with_source(unit, drain_count));
    let recs = recs?;
    let (tapped, tap) = tr.span("source+oracle_tap", Some(parent), |_| {
        with_source(unit, |s| drain_count(&mut oracle_tap(s, RING).0))
    });
    tapped?;
    let n = unit.designs.len();
    if n >= 2 {
        let (teed, tee) = tr.span("source+oracle_tap+tee", Some(parent), |_| {
            with_source(unit, |s| drain_tee(oracle_tap(s, RING).0, n))
        });
        teed?;
        st.tee += tee - tap;
        st.tee_rec_cursors += recs * n as u64;
        st.modeled += tee;
    }
    for &design in &unit.designs {
        let (ran, eng) = tr.span(&format!("source+engine:{design}"), Some(parent), |_| {
            with_source(unit, |s| {
                let mut p = Processor::try_from_source(SimConfig::with_design(design), s)?;
                while p.step()? == StepOutcome::Running {}
                Ok((p.stats().clone(), p.sched_counters()))
            })
        });
        let (stats, sched) = ran?;
        st.counts.add(&stats, sched);
        st.stats.push(stats);
        st.engine += eng - tap;
        st.modeled += if n >= 2 { eng - tap } else { eng };
    }
    let (gen, t) = tr.span("generate", Some(parent), |_| {
        drain_count(&mut unit.spec.source()?)
    });
    gen?;
    st.gen += t;
    let (trace, t) = tr.span("materialize", Some(parent), |_| unit.spec.trace());
    let trace = trace?;
    st.build += t;
    let mut buf = Vec::new();
    let (enc, t) = tr.span("sqtr-encode", Some(parent), |_| {
        record_trace(&mut trace.stream(), &mut buf)
    });
    enc?;
    st.encode += t;
    st.bytes += buf.len() as u64;
    let (dec, t) = tr.span("sqtr-decode", Some(parent), |_| -> Res<u64> {
        drain_count(&mut TraceReader::new(&buf[..])?)
    });
    if dec? != recs {
        return Err(format!("{}: SQTR decode lost records", unit.spec.name).into());
    }
    st.decode += t;
    st.recs += recs;
    st.source += source;
    st.oracle += tap - source;
    Ok(())
}

/// Drains `n` tee cursors round-robin, a block at a time.
fn drain_tee(tap: impl TraceSource, n: usize) -> Res<u64> {
    let (_tee, mut cursors) = TraceTee::new(tap, n, RING);
    let mut block = vec![TraceRecord::default(); 1024];
    let mut live = vec![true; n];
    let mut pulled = 0;
    while live.iter().any(|&l| l) {
        for (c, cursor) in cursors.iter_mut().enumerate() {
            if !live[c] {
                continue;
            }
            match cursor.next_block(&mut block)? {
                0 => live[c] = false,
                got => pulled += got as u64,
            }
        }
    }
    Ok(pulled)
}

fn ratio(num: u64, den: u64, scale: f64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * scale / den as f64
    }
}

/// The traced run; returns the result line with the per-layer metrics.
pub fn traced_run(workload: &str, seed: u64, out_dir: &Path, bench: &mut dyn Bench) -> Res<String> {
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let root = 0;
    let ((), _) = tr.span("traced-run", None, |_| ());
    let (setup, _) = tr.span("setup", Some(root), |_| bench.setup());
    setup?;
    let (untraced, _) = tr.span("round.untraced", Some(root), |_| bench.round());
    let (traced, _) = tr.span("round.traced", Some(root), |_| bench.round());
    let rounds: [Round; 2] = [untraced?, traced?];
    let mut failed = rounds.iter().map(|r| r.failed).sum::<u64>() + bench.check(&rounds)?;
    bench.teardown();
    let mut attempted = rounds.iter().map(|r| r.jobs.len() as u64).sum::<u64>();
    let [untraced, traced] = rounds;
    let traced_wall = traced.wall_s;

    let mut st = Stages::default();
    let units = bench.units();
    let ((), _) = tr.span("ledger", Some(root), |tr| {
        let ledger = tr.spans.len() - 1;
        for unit in &units {
            let (done, _) = tr.span(&unit.spec.name, Some(ledger), |tr| {
                let id = tr.spans.len() - 1;
                measure_unit(tr, id, unit, &mut st)
            });
            if let Err(err) = done {
                eprintln!("ledger: {}: {err}", unit.spec.name);
                failed += 1;
            }
        }
    });
    // The staged per-cell runs must reproduce the timed round's rows.
    let round_stats: Vec<&SimStats> = traced.results.iter().map(|r| &r.stats).collect();
    if st.stats.iter().collect::<Vec<_>>() != round_stats {
        eprintln!("ledger: staged engine runs differ from the traced round's rows");
        failed += 1;
    }

    let jobs = bench.jobs();
    let sweep = match &traced.sweep {
        Some(detail) => detail.clone(),
        None => {
            let (detail, _) = tr.span("sweep.in-process", Some(root), |_| -> Res<SweepDetail> {
                let mut all = SweepDetail::default();
                for spec in &jobs {
                    let round = batch::run(&spec.to_experiment()?, spec.designs.len())?;
                    let detail = round.sweep.expect("batch rounds carry sweep detail");
                    all.telemetry.groups.extend(detail.telemetry.groups);
                    all.cell_ms.extend(detail.cell_ms);
                }
                Ok(all)
            });
            detail?
        }
    };
    let served = match &traced.service {
        Some(detail) => detail.clone(),
        None => {
            let (detail, _) = tr.span("service", Some(root), |_| service::serve_once(&jobs));
            let detail = detail?;
            attempted += detail.jobs.len() as u64;
            let rows: Vec<&SimStats> = detail
                .jobs
                .iter()
                .flat_map(|j| j.rows.iter().map(|r| &r.1.stats))
                .collect();
            if detail.jobs.iter().any(|j| !j.ok) || rows != round_stats {
                eprintln!("ledger: served rows differ from the traced round's rows");
                failed += 1;
            }
            detail
        }
    };

    let rows = traced.results.len().max(1) as f64;
    let serialize = |tr: &mut Tracer, name: &str, f: &dyn Fn() -> usize| -> f64 {
        let (reps, t) = tr.span(name, Some(root), |_| {
            let t0 = Instant::now();
            let mut reps = 0u32;
            while reps < 3 || secs(t0) < 0.25 {
                std::hint::black_box(f());
                reps += 1;
            }
            reps
        });
        t / f64::from(reps) / rows * 1e6
    };
    let to_json = serialize(&mut tr, "results.to_json", &|| {
        traced.results.to_json().len()
    });
    let to_csv = serialize(&mut tr, "results.to_csv", &|| traced.results.to_csv().len());

    let (table3_err, _) = tr.span("table3", Some(root), |_| {
        crate::paper::model_err(out_dir, bench.table3_err(&[traced]), failed == 0)
    });
    let table3_err = table3_err?;
    tr.spans[root].3 = secs(tr.t0);

    // Shared-pass telemetry: records pulled upstream per record a cell
    // consumed. Single-cell groups pull what they consume.
    let committed_all: u64 = st.counts.committed;
    let groups = &sweep.telemetry.groups;
    let multi_pulled: u64 = groups.iter().map(|g| g.records_pulled).sum();
    let multi_consumed: u64 = groups
        .iter()
        .map(|g| g.records_pulled * g.cells.len() as u64)
        .sum();
    let pulled = multi_pulled + committed_all.saturating_sub(multi_consumed);

    let svc = &served.jobs;
    let accept: Vec<f64> = svc.iter().map(|j| j.accepted_ms).collect();
    let first_after: Vec<f64> = svc.iter().map(|j| j.first_row_ms - j.accepted_ms).collect();
    let walls: Vec<u64> = svc.iter().map(|j| j.wall_ms).collect();
    let overhead: Vec<f64> = svc
        .iter()
        .map(|j| j.latency_ms - j.wall_ms as f64)
        .collect();

    let c = &st.counts;
    let ns = |t: f64, n: u64| if n == 0 { 0.0 } else { t * 1e9 / n as f64 };
    let exact = [
        metric(
            "isa.tracefile.bytes_per_rec",
            "B",
            ratio(st.bytes, st.recs, 1.0),
        ),
        metric(
            "sqip.sweep.pulled_per_consumed",
            "ratio",
            ratio(pulled, committed_all, 1.0),
        ),
        metric(
            "sqip.sweep.ring_high_water",
            "count",
            groups.iter().map(|g| g.ring_high_water).max().unwrap_or(0) as f64,
        ),
        metric(
            "sqip.sweep.peak_lag",
            "count",
            groups
                .iter()
                .flat_map(|g| g.peak_lag.iter())
                .copied()
                .max()
                .unwrap_or(0) as f64,
        ),
        metric("core.engine.sim_cycles", "count", c.cycles as f64),
        metric(
            "core.engine.wheel_ops_per_inst",
            "ratio",
            ratio(c.wheel, c.committed, 1.0),
        ),
        metric(
            "core.engine.near_ops_per_inst",
            "ratio",
            ratio(c.near, c.committed, 1.0),
        ),
        metric(
            "core.engine.broadcasts_per_inst",
            "ratio",
            ratio(c.broadcasts, c.committed, 1.0),
        ),
        metric(
            "core.engine.ready_touches_per_inst",
            "ratio",
            ratio(c.ready, c.committed, 1.0),
        ),
        metric(
            "core.engine.cpi",
            "cycles/inst",
            ratio(c.cycles, c.committed, 1.0),
        ),
        metric(
            "core.engine.squashed_per_committed",
            "ratio",
            ratio(c.squashed, c.committed, 1.0),
        ),
        metric(
            "core.engine.flushes_per_kinst",
            "1/kinst",
            ratio(c.flushes, c.committed, 1e3),
        ),
        metric(
            "core.engine.replays_per_kinst",
            "1/kinst",
            ratio(c.replays, c.committed, 1e3),
        ),
        metric(
            "queues.fwd_pct_loads",
            "%",
            ratio(c.forwarded, c.loads, 100.0),
        ),
        metric(
            "queues.partial_stalls_per_kload",
            "1/kload",
            ratio(c.partial, c.loads, 1e3),
        ),
        metric(
            "queues.reexec_per_kload",
            "1/kload",
            ratio(c.reexec, c.loads, 1e3),
        ),
        metric("queues.ssn_wraps", "count", c.ssn_wraps as f64),
        metric(
            "predictors.misfwd_per_kload",
            "1/kload",
            ratio(c.misfwd, c.loads, 1e3),
        ),
        metric(
            "predictors.delayed_pct_loads",
            "%",
            ratio(c.delayed, c.loads, 100.0),
        ),
        metric(
            "mem.l1_accesses_per_inst",
            "ratio",
            ratio(c.l1.0, c.committed, 1.0),
        ),
        metric("mem.l1_miss_pct", "%", ratio(c.l1.1, c.l1.0, 100.0)),
        metric("mem.l2_miss_pct", "%", ratio(c.l2.1, c.l2.0, 100.0)),
        metric("mem.tlb_miss_pct", "%", ratio(c.tlb.1, c.tlb.0, 100.0)),
        metric("service.rejected", "count", served.stats.rejected as f64),
    ];
    let timed = [
        metric("workloads.gen_ns_per_rec", "ns", ns(st.gen, st.recs)),
        metric("workloads.trace_build_ms", "ms", st.build * 1e3),
        metric(
            "isa.tracefile.encode_ns_per_rec",
            "ns",
            ns(st.encode, st.recs),
        ),
        metric(
            "isa.tracefile.decode_ns_per_rec",
            "ns",
            ns(st.decode, st.recs),
        ),
        metric("core.oracle.ns_per_rec", "ns", ns(st.oracle, st.recs)),
        metric(
            "isa.tee.ns_per_rec_per_cursor",
            "ns",
            ns(st.tee, st.tee_rec_cursors),
        ),
        metric("core.engine.ns_per_inst", "ns", ns(st.engine, c.committed)),
        metric("sqip.sweep.cell_ms_p50", "ms", median(&sweep.cell_ms)),
        metric("sqip.sweep.residual_s", "s", traced_wall - st.modeled),
        metric("sqip.results.to_json_us_per_row", "us", to_json),
        metric("sqip.results.to_csv_us_per_row", "us", to_csv),
        metric("service.accept_ms_p50", "ms", median(&accept)),
        metric(
            "service.first_row_after_accept_ms_p50",
            "ms",
            median(&first_after),
        ),
        metric("service.done_wall_ms_p50", "ms", median_grouped(&walls)),
        metric("service.client_overhead_ms_p50", "ms", median(&overhead)),
        metric(
            "service.queue_high_water",
            "count",
            served.stats.queue_high_water as f64,
        ),
        metric(
            "bench.tracing_overhead_s",
            "s",
            traced_wall - untraced.wall_s,
        ),
    ];

    let spans_path = out_dir.join(format!("spans-{workload}-{seed}.json"));
    std::fs::write(&spans_path, tr.to_json())?;
    let mut all: Vec<Metric> = timed.to_vec();
    all.extend(exact.iter().cloned());
    crate::print_human(&all);
    let exact_json: Vec<String> = exact
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, json_num(m.value)))
        .collect();
    println!(
        "LEDGER {{\"workload\": \"{workload}\", \"seed\": {seed}, \"table3_err\": {}, \
         \"sim_cycles\": {}, \"exact\": {{{}}}, \"self_s\": {{\"source\": {}, \"oracle\": {}, \
         \"tee\": {}, \"engine\": {}, \"modeled\": {}, \"round_traced\": {}, \
         \"round_untraced\": {}}}, \"service_jobs\": {}, \"spans\": \"{}\"}}",
        json_num(table3_err),
        c.cycles,
        exact_json.join(", "),
        st.source,
        st.oracle,
        st.tee,
        st.engine,
        st.modeled,
        traced_wall,
        untraced.wall_s,
        svc.len(),
        spans_path.display()
    );
    Ok(result_line(failed == 0, attempted, failed, &all))
}
