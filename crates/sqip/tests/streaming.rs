//! Integration tests for the streaming trace-source API: record/replay
//! through the on-disk format, registry-driven streamed experiment
//! cells, and the memory-boundedness guarantee on multi-million-
//! instruction generator workloads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sqip::{
    by_name, generator, record_trace, Experiment, Processor, SimConfig, SimError, SqDesign,
    StepOutcome, TraceReader, TraceSource, Workload, WorkloadRegistry,
};

/// A counting pass-through source: observes how many records the
/// processor has pulled, without perturbing the stream.
struct Metered<S> {
    inner: S,
    pulled: Arc<AtomicU64>,
}

impl<S: TraceSource> TraceSource for Metered<S> {
    fn next_record(&mut self) -> Result<Option<sqip_isa::TraceRecord>, sqip_isa::IsaError> {
        let rec = self.inner.next_record()?;
        self.pulled
            .fetch_add(u64::from(rec.is_some()), Ordering::Relaxed);
        Ok(rec)
    }
    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

/// Record a workload to the binary on-disk format, replay it from disk,
/// and get bit-identical statistics to simulating the live trace.
#[test]
fn recorded_trace_file_replays_bit_identically() {
    let spec = by_name("gzip").unwrap().with_iterations(120);
    let trace = spec.trace().unwrap();

    let path = std::env::temp_dir().join(format!("sqip-roundtrip-{}.sqtr", std::process::id()));
    let file = std::io::BufWriter::new(std::fs::File::create(&path).unwrap());
    let written = record_trace(&mut trace.stream(), file).unwrap();
    assert_eq!(written, trace.len() as u64);

    let cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
    let reader =
        TraceReader::new(std::io::BufReader::new(std::fs::File::open(&path).unwrap())).unwrap();
    let replayed = Processor::from_source(cfg.clone(), reader)
        .try_run()
        .unwrap();
    let live = Processor::new(cfg, &trace).run();
    std::fs::remove_file(&path).ok();

    assert_eq!(replayed, live, "disk replay must be bit-identical");
}

/// A truncated trace file fails the simulation with a trace-source
/// error — never a silent short run.
#[test]
fn truncated_trace_file_fails_the_run_cleanly() {
    let spec = by_name("gzip").unwrap().with_iterations(60);
    let trace = spec.trace().unwrap();
    let mut buf = Vec::new();
    record_trace(&mut trace.stream(), &mut buf).unwrap();
    buf.truncate(buf.len() / 2);

    let reader = TraceReader::new(buf.as_slice()).unwrap();
    let cfg = SimConfig::with_design(SqDesign::Associative3);
    let err = Processor::from_source(cfg, reader).try_run().unwrap_err();
    match err {
        SimError::TraceSource { pulled, detail } => {
            assert!(pulled > 0, "some records were delivered first");
            assert!(detail.contains("truncated"), "{detail}");
        }
        other => panic!("expected a trace-source error, got {other}"),
    }
}

/// Registry-resolved workloads run as streamed `Experiment` cells, and a
/// streamed cell matches the same spec simulated from a materialized
/// trace.
#[test]
fn registry_workloads_stream_through_experiments() {
    let spec = generator::pointer_chase(64, 64, 8_000);
    let name = spec.name.clone();
    let materialized = sqip::simulate(&spec, SqDesign::Indexed3FwdDly).unwrap();

    let results = Experiment::new()
        .workload(Workload::from_registry(&name).unwrap())
        .design(SqDesign::Indexed3FwdDly)
        .run()
        .unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(
        results.records()[0].stats,
        materialized,
        "streamed cell must match the materialized run"
    );
    assert_eq!(results.records()[0].workload, name);

    // Unknown names are reported, not panicked on.
    assert!(matches!(
        Workload::from_registry("definitely-not-a-workload").map_err(sqip::SqipError::from),
        Err(sqip::SqipError::UnknownWorkload(_))
    ));
}

/// The memory-boundedness regression: committing a multi-million-
/// instruction generator workload, the processor never buffers more than
/// O(window) records, and never pulls more than O(window) ahead of
/// commit. (A materialized run of the same workload would hold every
/// record at once.)
#[test]
fn multi_million_instruction_stream_is_memory_bounded() {
    let target: u64 = 2_500_000;
    let spec = generator::random_mix(0x00f0_0d50_fa11, target);
    let pulled = Arc::new(AtomicU64::new(0));
    let source = Metered {
        inner: spec.source().unwrap(),
        pulled: Arc::clone(&pulled),
    };

    let cfg = SimConfig::default();
    // ROB + fetch-ahead + slack: the O(window) bound, independent of
    // `target`.
    let bound = (cfg.rob_size + 4 * cfg.fetch_width + 64) as u64;
    let mut processor = Processor::try_from_source(cfg, source).unwrap();

    let mut peak_buffered = 0usize;
    loop {
        match processor.step().unwrap() {
            StepOutcome::Done => break,
            StepOutcome::Running => {}
        }
        // Sample every step, not on cycle-number multiples: under the
        // event engine a step may skip many cycles, and the bound must
        // hold at every point the simulation actually visits.
        peak_buffered = peak_buffered.max(processor.buffered_records());
        let ahead = pulled
            .load(Ordering::Relaxed)
            .saturating_sub(processor.stats().committed);
        assert!(
            ahead <= bound,
            "pulled {ahead} records ahead of commit (bound {bound}) at cycle {}",
            processor.cycle()
        );
    }
    peak_buffered = peak_buffered.max(processor.buffered_records());

    let committed = processor.stats().committed;
    assert!(
        committed >= target * 9 / 10,
        "only {committed} of ~{target} instructions committed"
    );
    assert_eq!(
        committed,
        pulled.load(Ordering::Relaxed),
        "every pulled record commits"
    );
    assert!(
        (peak_buffered as u64) <= bound,
        "peak buffer {peak_buffered} exceeds the O(window) bound {bound}"
    );
    // The bound is real, not vacuous: a healthy run keeps the window full.
    assert!(
        peak_buffered > 64,
        "suspiciously small peak buffer {peak_buffered}"
    );
}

/// `stream-10m` — the scale proof registered in the global registry — is
/// resolvable and streams from record zero. (The full ten-million-
/// instruction run is exercised through the figure4 binary; see
/// README "the workload axis".)
#[test]
fn stream_10m_is_registered_and_opens() {
    let entry = WorkloadRegistry::global().resolve("stream-10m").unwrap();
    let mut source = entry.open().unwrap();
    for _ in 0..1000 {
        assert!(source.next_record().unwrap().is_some());
    }
}
