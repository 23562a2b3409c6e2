//! The composable experiment builder: cartesian sweeps of workloads ×
//! designs × config variants, executed in parallel with deterministic
//! results.

use std::sync::Arc;

use sqip_core::{SimConfig, SimObserver, SimStats, SqDesign};
use sqip_workloads::Workload;

use crate::cache::{CacheDir, CacheOutcome};
use crate::error::SqipError;
use crate::results::{ResultSet, RunRecord};
use crate::shard::{ShardResult, ShardSpec};
use crate::sweep::SweepEngine;

/// A config mutation shared across sweep cells.
pub type ConfigFn = Arc<dyn Fn(&mut SimConfig) + Send + Sync>;

/// A factory producing one observer per sweep cell (called on the worker
/// thread that executes the cell).
pub type ObserverFn = Arc<dyn Fn(&Run) -> Box<dyn SimObserver> + Send + Sync>;

/// The variant label used when an experiment declares no
/// [`Experiment::vary`] axis.
pub const BASE_VARIANT: &str = "base";

/// A named configuration variant (one point on the `vary` axis).
#[derive(Clone)]
struct Variant {
    name: String,
    mutate: Option<ConfigFn>,
}

/// One fully-resolved sweep cell: a workload under a concrete
/// configuration.
#[derive(Clone)]
pub struct Run {
    /// The workload to simulate.
    pub workload: Workload,
    /// The store-queue design under test.
    pub design: SqDesign,
    /// The variant label.
    pub variant: String,
    /// The concrete, validated configuration.
    pub config: SimConfig,
}

impl Run {
    /// The `workload/design/variant` cell label used in errors and logs.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}/{}/{}", self.workload.name(), self.design, self.variant)
    }

    /// Packages finished statistics as this cell's [`RunRecord`].
    pub(crate) fn record(&self, stats: SimStats) -> RunRecord {
        RunRecord {
            workload: self.workload.name().to_string(),
            suite: self.workload.suite(),
            design: self.design,
            variant: self.variant.clone(),
            stats,
        }
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("cell", &self.label())
            .finish_non_exhaustive()
    }
}

/// A declarative simulation sweep.
///
/// An experiment is the cartesian product of three axes:
///
/// * **workloads** — Table 3 benchmark models, registry names or custom
///   record streams ([`Workload`]),
/// * **designs** — the [`SqDesign`]s under test,
/// * **variants** — named configuration mutations ([`Experiment::vary`]);
///   with no variants declared there is a single implicit
///   [`BASE_VARIANT`].
///
/// [`Experiment::run`] opens one stream per cell, executes every cell (in
/// parallel across worker threads), and collects a [`ResultSet`] whose
/// record order — and contents, since the simulator is deterministic — is
/// independent of thread count.
///
/// # Example
///
/// ```
/// use sqip::{Experiment, SqDesign};
///
/// let results = Experiment::new()
///     .workload(sqip::by_name("gzip").unwrap().with_iterations(200))
///     .designs([SqDesign::IdealOracle, SqDesign::Indexed3FwdDly])
///     .run()?;
/// assert_eq!(results.len(), 2);
/// let rel = results
///     .relative_runtime("gzip", "base", SqDesign::Indexed3FwdDly, SqDesign::IdealOracle)
///     .unwrap();
/// assert!(rel >= 0.95);
/// # Ok::<(), sqip::SqipError>(())
/// ```
#[derive(Clone, Default)]
pub struct Experiment {
    workloads: Vec<Workload>,
    designs: Vec<SqDesign>,
    variants: Vec<Variant>,
    base: Vec<ConfigFn>,
    threads: Option<usize>,
    observer: Option<ObserverFn>,
}

impl Experiment {
    /// An empty experiment.
    #[must_use]
    pub fn new() -> Experiment {
        Experiment::default()
    }

    /// Adds one workload.
    #[must_use]
    pub fn workload(mut self, workload: impl Into<Workload>) -> Experiment {
        self.workloads.push(workload.into());
        self
    }

    /// Adds many workloads.
    #[must_use]
    pub fn workloads<I>(mut self, workloads: I) -> Experiment
    where
        I: IntoIterator,
        I::Item: Into<Workload>,
    {
        self.workloads.extend(workloads.into_iter().map(Into::into));
        self
    }

    /// Adds one design.
    #[must_use]
    pub fn design(mut self, design: SqDesign) -> Experiment {
        self.designs.push(design);
        self
    }

    /// Adds many designs.
    #[must_use]
    pub fn designs(mut self, designs: impl IntoIterator<Item = SqDesign>) -> Experiment {
        self.designs.extend(designs);
        self
    }

    /// Applies a configuration mutation to *every* cell (machine-wide
    /// knobs shared by the whole sweep). Applied before variant mutations,
    /// in call order.
    #[must_use]
    pub fn configure(mut self, f: impl Fn(&mut SimConfig) + Send + Sync + 'static) -> Experiment {
        self.base.push(Arc::new(f));
        self
    }

    /// Adds a named configuration variant: one value on the sweep's
    /// variant axis (e.g. an FSP capacity in a Figure 5 sweep). Each call
    /// adds one variant; cells are produced for every (workload, design,
    /// variant) combination.
    #[must_use]
    pub fn vary(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&mut SimConfig) + Send + Sync + 'static,
    ) -> Experiment {
        self.variants.push(Variant {
            name: name.into(),
            mutate: Some(Arc::new(f)),
        });
        self
    }

    /// Caps the worker-thread count (default: one per available core).
    /// `1` forces a serial run; results are identical either way.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Experiment {
        self.threads = Some(threads.max(1));
        self
    }

    /// Installs an observer factory: each cell gets one observer built by
    /// `factory` (on the executing worker thread), receiving progress
    /// callbacks and the ability to abort its run early.
    #[must_use]
    pub fn observe(
        mut self,
        factory: impl Fn(&Run) -> Box<dyn SimObserver> + Send + Sync + 'static,
    ) -> Experiment {
        self.observer = Some(Arc::new(factory));
        self
    }

    /// Resolves the cartesian product into concrete, validated sweep
    /// cells, in deterministic order (workloads × designs × variants).
    ///
    /// # Errors
    ///
    /// [`SqipError::Config`] if the experiment has no workloads or no
    /// designs; [`SqipError::Sim`] if a cell's configuration fails
    /// validation.
    pub fn cells(&self) -> Result<Vec<Run>, SqipError> {
        if self.workloads.is_empty() {
            return Err(SqipError::Config("experiment has no workloads".into()));
        }
        if self.designs.is_empty() {
            return Err(SqipError::Config("experiment has no designs".into()));
        }
        // Cell labels, and so result rows and shard ownership, name a
        // workload by its name, so two distinct workloads under one name
        // would be indistinguishable; reject the ambiguity up front.
        for (i, w) in self.workloads.iter().enumerate() {
            if self.workloads[..i].iter().any(|p| p.name() == w.name()) {
                return Err(SqipError::Config(format!(
                    "duplicate workload name `{}`",
                    w.name()
                )));
            }
        }
        let base_variant = [Variant {
            name: BASE_VARIANT.to_string(),
            mutate: None,
        }];
        let variants: &[Variant] = if self.variants.is_empty() {
            &base_variant
        } else {
            &self.variants
        };
        let mut cells =
            Vec::with_capacity(self.workloads.len() * self.designs.len() * variants.len());
        for workload in &self.workloads {
            for &design in &self.designs {
                for variant in variants {
                    let mut config = SimConfig::with_design(design);
                    for f in &self.base {
                        f(&mut config);
                    }
                    if let Some(mutate) = &variant.mutate {
                        mutate(&mut config);
                    }
                    let run = Run {
                        workload: workload.clone(),
                        design,
                        variant: variant.name.clone(),
                        config,
                    };
                    run.config.try_validate().map_err(|source| SqipError::Sim {
                        cell: run.label(),
                        source,
                    })?;
                    cells.push(run);
                }
            }
        }
        Ok(cells)
    }

    /// Executes the sweep and collects the results in cell order.
    ///
    /// Each cell simulates its own record stream on one worker thread
    /// (see [`SweepEngine`]); cells are handed to the workers in cell
    /// order. Because the simulator is deterministic and results are
    /// collected by cell index, the returned [`ResultSet`] is
    /// bit-identical for any thread count — and bit-identical to
    /// simulating each cell alone, pinned by proptest.
    ///
    /// Observers ride the same loop and fire exactly on their interval
    /// boundaries, as under [`Processor::run_observed`](sqip_core::Processor::run_observed).
    ///
    /// # Errors
    ///
    /// The first workload or cell failure, in cell order.
    pub fn run(&self) -> Result<ResultSet, SqipError> {
        SweepEngine::new().run(self)
    }

    /// The observer factory, if one was installed.
    pub(crate) fn observer_fn(&self) -> Option<&ObserverFn> {
        self.observer.as_ref()
    }

    /// The experiment's own thread-count setting, if one was configured.
    pub(crate) fn threads_setting(&self) -> Option<usize> {
        self.threads
    }

    /// Runs the sweep through a content-addressed result cache: cells
    /// whose results are already cached are answered without simulating,
    /// the rest run through the sweep driver (as [`Experiment::run`]
    /// would run them) and are persisted for the next run.
    ///
    /// The returned [`ResultSet`] is bit-identical to [`Experiment::run`]
    /// — cached or not — because the simulator is deterministic and
    /// [`RunRecord`]s round-trip losslessly through the cache's JSON (see
    /// [`CacheDir`] for the worked example). A cached row must be a
    /// complete run, so observers (which may abort a run early) are not
    /// consulted here; experiments with an observer should use
    /// [`Experiment::run`] instead. A workload built from a spec is keyed
    /// by that spec, a factory or `tracefile:` workload by its name
    /// alone (see [`CacheDir`]).
    ///
    /// # Errors
    ///
    /// The first workload, cell, or cache-write failure, in cell order.
    pub fn run_cached(&self, cache: &CacheDir) -> Result<(ResultSet, CacheOutcome), SqipError> {
        let cells = self.cells()?;
        let mut slots: Vec<Option<RunRecord>> = cells.iter().map(|c| cache.load(c)).collect();
        let misses: Vec<usize> = (0..cells.len()).filter(|&i| slots[i].is_none()).collect();
        let outcome = CacheOutcome {
            executed: misses.len(),
            cached: cells.len() - misses.len(),
        };
        let stats = SweepEngine::new().drive(self, &cells, &misses, None);
        for (&index, stats) in misses.iter().zip(stats) {
            let record = cells[index].record(stats?);
            cache.store(&cells[index], &record)?;
            slots[index] = Some(record);
        }
        let records = slots
            .into_iter()
            .map(|slot| slot.expect("every cell was cached or executed"))
            .collect();
        Ok((ResultSet::new(records), outcome))
    }

    /// Runs only the cells owned by `shard` (see [`ShardSpec::owns`])
    /// through the sweep driver, producing the artifact
    /// [`merge_shards`](crate::merge_shards) (or the `sqip-merge` binary)
    /// reassembles into the full sweep.
    ///
    /// Ownership is decided per cell from its label digest, so the `n`
    /// shards of a split partition the sweep exactly, whatever machines
    /// or thread counts run them, and the merged results are
    /// byte-identical to an unsharded [`Experiment::run`].
    ///
    /// # Errors
    ///
    /// The first workload or owned-cell failure, in cell order.
    pub fn run_shard(&self, shard: ShardSpec) -> Result<ShardResult, SqipError> {
        let cells = self.cells()?;
        let owned: Vec<usize> = (0..cells.len())
            .filter(|&i| shard.owns(&cells[i].label()))
            .collect();
        let stats = SweepEngine::new().drive(self, &cells, &owned, self.observer_fn());
        let records = owned
            .iter()
            .zip(stats)
            .map(|(&i, stats)| stats.map(|stats| cells[i].record(stats)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardResult {
            shard: shard.index,
            of: shard.of,
            total_cells: cells.len(),
            indices: owned,
            records,
        })
    }
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("workloads", &self.workloads.len())
            .field("designs", &self.designs)
            .field(
                "variants",
                &self
                    .variants
                    .iter()
                    .map(|v| v.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}
