//! `sqip` — the experiment-driver facade for the store-queue index
//! prediction reproduction (Sha, Martin & Roth, MICRO-38 2005).
//!
//! Everything the paper's evaluation does — Figure 4's design comparison,
//! Table 3's prediction diagnostics, Figure 5's sensitivity sweeps, the
//! ablations — is a *sweep*: some workloads × some store-queue designs ×
//! some configuration variants, each cell an independent deterministic
//! simulation. This crate expresses that directly:
//!
//! * [`Experiment`] — a builder for cartesian sweeps, executed in
//!   parallel with results that are bit-identical to a serial run;
//! * [`ResultSet`] / [`RunRecord`] — structured results with grouping,
//!   [`geomean`] aggregation, relative-runtime helpers, and JSON / CSV
//!   serialization (round-trippable via [`ResultSet::from_json`]);
//! * [`SqipError`] — the unified error type for the whole pipeline
//!   (workload tracing, configuration, simulation, import/export);
//! * re-exports of the simulator core (including the resumable
//!   [`Processor::step`] API and [`SimObserver`] hooks) and the workload
//!   roster, so most drivers need only this crate.
//!
//! # Quick start
//!
//! ```
//! use sqip::{Experiment, SqDesign};
//!
//! // Figure 4 in miniature: two designs over two shrunk workloads,
//! // relative to the ideal-oracle baseline.
//! let results = Experiment::new()
//!     .workloads(["gzip", "mesa.t"].map(|n| sqip::by_name(n).unwrap().with_iterations(150)))
//!     .designs([SqDesign::IdealOracle, SqDesign::Associative3, SqDesign::Indexed3FwdDly])
//!     .run()?;
//!
//! for name in results.workload_names() {
//!     let rel = results
//!         .relative_runtime(name, "base", SqDesign::Indexed3FwdDly, SqDesign::IdealOracle)
//!         .unwrap();
//!     assert!(rel > 0.9, "{name}: {rel}");
//! }
//!
//! // Results serialize for downstream tooling and round-trip losslessly.
//! let json = results.to_json();
//! assert_eq!(sqip::ResultSet::from_json(&json)?, results);
//! # Ok::<(), sqip::SqipError>(())
//! ```
//!
//! # Custom store-queue designs
//!
//! The design axis is open: a design is a [`DesignCaps`] capability set,
//! and registering a new combination by name in the [`DesignRegistry`]
//! makes it sweepable like any builtin — the [`SqDesign`] handle it
//! returns works in [`Experiment::designs`], JSON results, the figure
//! bins' `--design` flags, checkpoints and `sqipd` jobs alike.
//!
//! ```
//! use sqip::{by_name, DesignCaps, DesignRegistry, Experiment, SqDesign};
//!
//! // The paper's indexed scheme with delay prediction, at a (hypothetical)
//! // 2-cycle store queue.
//! let fast_indexed = DesignRegistry::global()
//!     .register("indexed-2-fwd+dly", DesignCaps::indexed(2).with_delay())?;
//!
//! let results = Experiment::new()
//!     .workload(by_name("gzip").unwrap().with_iterations(100))
//!     .designs([SqDesign::Indexed3FwdDly, fast_indexed])
//!     .run()?;
//! let faster = results.relative_runtime(
//!     "gzip", sqip::BASE_VARIANT, fast_indexed, SqDesign::Indexed3FwdDly,
//! ).unwrap();
//! assert!(faster <= 1.0, "a faster SQ is no slower: {faster}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod experiment;
mod parallel;
mod results;
mod shard;
mod spec;
mod sweep;

pub use cache::{CacheDir, CacheOutcome};
pub use error::SqipError;
pub use experiment::{ConfigFn, Experiment, ObserverFn, Run, Workload, BASE_VARIANT};
pub use results::{geomean, ResultSet, RunRecord};
pub use shard::{merge_shards, ShardResult, ShardSpec};
pub use spec::{ExperimentSpec, VariantSpec, KNOBS, SPEC_VERSION};
pub use sweep::{CancelToken, CellEvent, CellEventFn, GroupTelemetry, SweepEngine, SweepTelemetry};

// The simulator core: configs, stats, the resumable processor, its
// observation hooks, and the design registry.
pub use sqip_core::{
    engine::SchedCounters, oracle_tap, DesignCaps, DesignRegistry, Engine, ObserverAction,
    OracleBuilder, OracleFeed, OracleFwd, OracleTap, OrderingMode, ParseDesignError, Processor,
    RegistryError, SimConfig, SimError, SimObserver, SimStats, SqDesign, StepOutcome,
};
// The checkpoint container: [`Processor::checkpoint`]/[`Processor::restore`]
// speak this format, and the result cache addresses entries by [`Fnv`].
pub use sqip_snapshot::{Fnv, SnapError, SnapReader, SnapWriter, Snapshot};
// The streaming input axis: the trace-source trait and its built-in
// producers (materialized-trace cursor, streaming program interpreter,
// on-disk trace record/replay).
pub use sqip_isa::{
    record_trace, ProgramSource, TeeCursor, TraceCursor, TraceReader, TraceSource, TraceTee,
    TraceWriter,
};
// The workload roster and its open registry.
pub use sqip_workloads::{
    all_workloads, by_name, generator, mediabench, specfp, specint, RegisteredWorkload, Suite,
    WorkloadRegistry, WorkloadRegistryError, WorkloadSpec, FIGURE5_WORKLOADS,
};

/// Runs one workload under one SQ design with the paper's configuration.
///
/// # Errors
///
/// Propagates workload-tracing and simulation errors.
pub fn simulate(spec: &WorkloadSpec, design: SqDesign) -> Result<SimStats, SqipError> {
    simulate_with(spec, SimConfig::with_design(design))
}

/// Runs one workload under an arbitrary configuration.
///
/// # Errors
///
/// Propagates workload-tracing and simulation errors.
pub fn simulate_with(spec: &WorkloadSpec, config: SimConfig) -> Result<SimStats, SqipError> {
    let trace = spec.trace().map_err(|source| SqipError::Workload {
        name: spec.name.to_string(),
        source,
    })?;
    let label = format!("{}/{}", spec.name, config.design);
    Processor::try_new(config, &trace)
        .and_then(Processor::try_run)
        .map_err(|source| SqipError::Sim {
            cell: label,
            source,
        })
}

/// Shrinks a workload for quick runs (same mix, fewer iterations).
///
/// Equivalent to [`WorkloadSpec::with_iterations`]; kept as a free
/// function for harness ergonomics.
#[must_use]
pub fn shrink(spec: WorkloadSpec, iterations: u32) -> WorkloadSpec {
    spec.with_iterations(iterations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_runs_a_shrunk_workload() {
        let spec = shrink(by_name("gzip").unwrap(), 50);
        let stats = simulate(&spec, SqDesign::Indexed3FwdDly).unwrap();
        assert!(stats.committed > 0);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn simulate_with_reports_config_errors_per_cell() {
        let spec = shrink(by_name("gzip").unwrap(), 50);
        let mut cfg = SimConfig::with_design(SqDesign::Indexed3FwdDly);
        cfg.ordering = OrderingMode::LqCam; // invalid for indexed designs
        let err = simulate_with(&spec, cfg).unwrap_err();
        assert!(matches!(err, SqipError::Sim { .. }), "{err}");
    }
}
