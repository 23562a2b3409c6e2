//! Harness utilities for the Table/Figure regenerator binaries and the
//! micro-benchmarks.
//!
//! Sweep logic lives in the [`sqip`] facade crate ([`sqip::Experiment`]);
//! this crate only adds the bits specific to the regenerator binaries: a
//! tiny dependency-free wall-clock benchmark harness ([`micro`]) used by
//! the `benches/` targets (the build environment has no criterion), and
//! re-exports of the harness helpers the binaries share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sqip::{geomean, shrink, simulate, simulate_with};

/// Shared `--design <name>` / `--list-designs` handling for the figure
/// and table regenerator binaries: designs are named through the open
/// [`sqip::DesignRegistry`], so any registered design — builtin or custom
/// — can replace a binary's default roster from the command line.
pub mod designs {
    use sqip::{DesignRegistry, SqDesign};

    /// Parsed design-selection flags.
    #[derive(Debug)]
    pub struct DesignArgs {
        /// The selected designs: every `--design <name>` in order, or
        /// `default` when none was given.
        pub designs: Vec<SqDesign>,
        /// The remaining (non-design) arguments, order preserved.
        pub rest: Vec<String>,
    }

    /// Extracts `--design <name>` (repeatable) and `--list-designs` from
    /// `args`.
    ///
    /// Returns `Ok(None)` after printing the registry roster when
    /// `--list-designs` is present (the binary should exit successfully).
    ///
    /// # Errors
    ///
    /// A human-readable message when `--design` is missing its value or
    /// names an unregistered design.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default: &[SqDesign],
    ) -> Result<Option<DesignArgs>, String> {
        let mut designs = Vec::new();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list-designs" => {
                    print_roster();
                    return Ok(None);
                }
                "--design" => {
                    let name = it
                        .next()
                        .ok_or_else(|| "--design requires a design name".to_string())?;
                    designs.push(name.parse::<SqDesign>().map_err(|e| e.to_string())?);
                }
                _ => rest.push(arg),
            }
        }
        if designs.is_empty() {
            designs = default.to_vec();
        }
        Ok(Some(DesignArgs { designs, rest }))
    }

    /// Prints every registered design with a capability summary.
    pub fn print_roster() {
        println!("registered store-queue designs:");
        for name in DesignRegistry::global().names() {
            let design: SqDesign = name.parse().expect("registered name parses");
            println!("  {name:<26} {}", describe(design));
        }
    }

    /// A one-line capability summary, derived from the registry.
    #[must_use]
    pub fn describe(design: SqDesign) -> String {
        let mut parts = vec![
            if design.is_indexed() {
                "indexed".to_string()
            } else {
                "associative".to_string()
            },
            format!("{}-cycle SQ", design.sq_latency()),
        ];
        if design.is_oracle() {
            parts.push("oracle scheduling".to_string());
        }
        if design.uses_original_store_sets() {
            parts.push("original store sets".to_string());
        }
        if design.uses_delay() {
            parts.push("delay prediction".to_string());
        }
        if design.predicts_forward_latency() {
            parts.push("fwd-latency scheduling".to_string());
        }
        parts.join(", ")
    }

    /// Unwraps a [`parse`] outcome for a `main()`: prints errors to
    /// stderr and exits (code 2 on bad flags, 0 after `--list-designs`).
    #[must_use]
    pub fn parse_or_exit(
        args: impl IntoIterator<Item = String>,
        default: &[SqDesign],
    ) -> DesignArgs {
        match parse(args, default) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => std::process::exit(0),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Shared `--workload <name>` / `--list-workloads` handling for the
/// figure and table regenerator binaries — the workload-axis twin of
/// [`designs`]: workloads are named through the open
/// [`sqip::WorkloadRegistry`], so any registered workload (the 47 Table 3
/// models, the generator catalogue, anything registered at runtime) *or*
/// any `mix:`/`chase:`/`stride:` generator name can replace a binary's
/// default roster from the command line, streamed through the simulator
/// in bounded memory.
pub mod workloads {
    use sqip::{Workload, WorkloadRegistry};

    /// Parsed workload-selection flags.
    #[derive(Debug)]
    pub struct WorkloadArgs {
        /// Every `--workload <name>` in order, resolved through the
        /// registry; empty when none was given (binaries then use their
        /// default roster).
        pub workloads: Vec<Workload>,
        /// The remaining (non-workload) arguments, order preserved.
        pub rest: Vec<String>,
    }

    /// Extracts `--workload <name>` (repeatable) and `--list-workloads`
    /// from `args`.
    ///
    /// Returns `Ok(None)` after printing the registry roster when
    /// `--list-workloads` is present (the binary should exit
    /// successfully).
    ///
    /// # Errors
    ///
    /// A human-readable message when `--workload` is missing its value or
    /// names something neither registered nor in the generator grammar.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<WorkloadArgs>, String> {
        let mut workloads = Vec::new();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list-workloads" => {
                    print_roster();
                    return Ok(None);
                }
                "--workload" => {
                    let name = it
                        .next()
                        .ok_or_else(|| "--workload requires a workload name".to_string())?;
                    workloads.push(Workload::from_registry(&name).map_err(|e| e.to_string())?);
                }
                _ => rest.push(arg),
            }
        }
        Ok(Some(WorkloadArgs { workloads, rest }))
    }

    /// Prints every registered workload plus the generator grammar.
    pub fn print_roster() {
        let registry = WorkloadRegistry::global();
        println!("registered workloads:");
        for name in registry.names() {
            let entry = registry.lookup(name).expect("listed name resolves");
            let suite = entry
                .suite()
                .map_or_else(|| "-".to_string(), |s| s.to_string());
            println!("  {name:<24} {suite:<6} {}", entry.description());
        }
        println!("parameterized generators (usable directly as --workload names):");
        println!("  mix:<seed>:<insts>        seeded random kernel mix        e.g. mix:0xbeef:10m");
        println!(
            "  chase:<nodes>:<stride>:<insts>  pointer chase             e.g. chase:4096:64:1m"
        );
        println!(
            "  stride:<stride>:<insts>   strided load stream             e.g. stride:4096:500k"
        );
    }

    /// Unwraps a [`parse`] outcome for a `main()`: prints errors to
    /// stderr and exits (code 2 on bad flags, 0 after
    /// `--list-workloads`).
    #[must_use]
    pub fn parse_or_exit(args: impl IntoIterator<Item = String>) -> WorkloadArgs {
        match parse(args) {
            Ok(Some(parsed)) => parsed,
            Ok(None) => std::process::exit(0),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Shared `--threads <n>` / `--shard i/n` / `--shard-out FILE` handling
/// for the figure and table regenerator binaries: every sweep they run
/// goes through the [`sqip::SweepEngine`], so the worker-thread count and
/// the shard selection are command-line knobs. Results are bit-identical
/// across thread counts, and a split's merged shards are byte-identical
/// to the unsharded sweep.
pub mod sweep_flags {
    use sqip::{Experiment, ResultSet, ShardSpec, SqipError, SweepEngine};

    /// Parsed sweep-execution flags.
    #[derive(Debug, Clone)]
    pub struct SweepArgs {
        /// Worker threads (`None`: one per core).
        pub threads: Option<usize>,
        /// Run only this slice of the sweep and emit a shard artifact
        /// instead of the figure/table (`--shard i/n`).
        pub shard: Option<ShardSpec>,
        /// Where the shard artifact goes (`--shard-out FILE`; default
        /// stdout).
        pub shard_out: Option<String>,
    }

    impl SweepArgs {
        /// Runs `experiment` under the selected thread count.
        ///
        /// # Errors
        ///
        /// Propagates the experiment's first failure, in cell order — or
        /// reports that `--shard` was passed to a sweep that cannot be
        /// sharded (binaries composing several sweeps into one artifact
        /// use this path).
        pub fn run(&self, experiment: &Experiment) -> Result<ResultSet, SqipError> {
            if let Some(shard) = self.shard {
                return Err(SqipError::Config(format!(
                    "this sweep cannot run as shard {shard}: the binary composes \
                     several sweeps; run it unsharded"
                )));
            }
            let mut engine = SweepEngine::new();
            if let Some(threads) = self.threads {
                engine = engine.threads(threads);
            }
            engine.run(experiment)
        }

        /// Single-experiment binaries' entry point: without `--shard`,
        /// runs the sweep and returns its results; with `--shard i/n`,
        /// runs only the owned cells, writes the [`sqip::ShardResult`]
        /// artifact (to `--shard-out`, or stdout) for `sqip-merge`, and
        /// returns `None` — the binary should exit successfully without
        /// rendering anything.
        ///
        /// # Errors
        ///
        /// Propagates sweep failures and artifact-write failures.
        pub fn run_or_emit_shard(
            &self,
            experiment: &Experiment,
        ) -> Result<Option<ResultSet>, SqipError> {
            let Some(shard) = self.shard else {
                return Ok(Some(self.run(experiment)?));
            };
            let mut experiment = experiment.clone();
            if let Some(threads) = self.threads {
                experiment = experiment.threads(threads);
            }
            let artifact = experiment.run_shard(shard)?;
            let mut text = artifact.to_json();
            text.push('\n');
            match &self.shard_out {
                Some(path) => std::fs::write(path, text)?,
                None => print!("{text}"),
            }
            Ok(None)
        }
    }

    /// Extracts `--threads <n>`, `--shard i/n` and `--shard-out FILE`
    /// from `args`, returning the
    /// parsed knobs and the remaining arguments.
    ///
    /// # Errors
    ///
    /// A human-readable message for a missing or unrecognized value.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(SweepArgs, Vec<String>), String> {
        let mut parsed = SweepArgs {
            threads: None,
            shard: None,
            shard_out: None,
        };
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--threads" => {
                    let n = it
                        .next()
                        .ok_or_else(|| "--threads requires a count".to_string())?;
                    parsed.threads = Some(
                        n.parse::<usize>()
                            .map_err(|_| format!("--threads: `{n}` is not a count"))?
                            .max(1),
                    );
                }
                "--shard" => {
                    let spec = it
                        .next()
                        .ok_or_else(|| "--shard requires `i/n` (e.g. 0/4)".to_string())?;
                    parsed.shard = Some(spec.parse::<ShardSpec>().map_err(|e| e.to_string())?);
                }
                "--shard-out" => {
                    parsed.shard_out = Some(
                        it.next()
                            .ok_or_else(|| "--shard-out requires a file path".to_string())?,
                    );
                }
                _ => rest.push(arg),
            }
        }
        Ok((parsed, rest))
    }

    /// Unwraps a [`parse`] outcome for a `main()`: prints errors to
    /// stderr and exits with code 2 on bad flags.
    #[must_use]
    pub fn parse_or_exit(args: impl IntoIterator<Item = String>) -> (SweepArgs, Vec<String>) {
        match parse(args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }
}

/// A minimal wall-clock micro-benchmark harness.
///
/// Each case runs one warmup iteration plus `SQIP_BENCH_ITERS` timed
/// iterations (default 3) and reports the minimum and mean wall time.
/// Intentionally tiny: the benches exist to track simulator throughput
/// trends, not microsecond-level noise.
pub mod micro {
    use std::time::{Duration, Instant};

    fn configured_iters() -> u32 {
        std::env::var("SQIP_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(3)
    }

    /// A named group of benchmark cases.
    pub struct Group {
        name: String,
        iters: u32,
    }

    impl Group {
        /// Starts a group and prints its header.
        #[must_use]
        pub fn new(name: impl Into<String>) -> Group {
            let name = name.into();
            let iters = configured_iters();
            println!("== {name} ({iters} timed iters per case) ==");
            Group { name, iters }
        }

        /// Times one case and prints its line.
        pub fn bench(&self, case: &str, mut f: impl FnMut()) {
            f(); // warmup
            let mut min = Duration::MAX;
            let mut total = Duration::ZERO;
            for _ in 0..self.iters {
                let start = Instant::now();
                f();
                let took = start.elapsed();
                total += took;
                min = min.min(took);
            }
            let mean = total / self.iters;
            println!(
                "{:<40} min {:>10.3?}   mean {:>10.3?}",
                format!("{}/{case}", self.name),
                min,
                mean
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_cover_the_harness_surface() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        let w = sqip::by_name("gzip").unwrap();
        let s = shrink(w.clone(), 100);
        assert_eq!(s.iterations, 100);
        assert_eq!(s.fwd_sites, w.fwd_sites);
    }

    #[test]
    fn design_args_select_designs_and_pass_other_args_through() {
        let parsed = designs::parse(
            ["--json", "--design", "indexed-5-fwd+dly", "gzip"].map(String::from),
            &[sqip::SqDesign::IdealOracle],
        )
        .unwrap()
        .expect("no --list-designs given");
        let ext: sqip::SqDesign = "indexed-5-fwd+dly".parse().unwrap();
        assert_eq!(parsed.designs, vec![ext]);
        assert_eq!(parsed.rest, vec!["--json".to_string(), "gzip".to_string()]);

        let defaulted = designs::parse(std::iter::empty(), &[sqip::SqDesign::Associative3])
            .unwrap()
            .unwrap();
        assert_eq!(defaulted.designs, vec![sqip::SqDesign::Associative3]);

        assert!(designs::parse(["--design".to_string()], &[]).is_err());
        let err = designs::parse(["--design", "bogus"].map(String::from), &[]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn design_descriptions_cover_the_capability_axes() {
        assert_eq!(
            designs::describe(sqip::SqDesign::IdealOracle),
            "associative, 3-cycle SQ, oracle scheduling"
        );
        assert_eq!(
            designs::describe(sqip::SqDesign::Indexed3FwdDly),
            "indexed, 3-cycle SQ, delay prediction"
        );
        assert_eq!(
            designs::describe(sqip::SqDesign::Associative5FwdPred),
            "associative, 5-cycle SQ, fwd-latency scheduling"
        );
    }

    #[test]
    fn micro_group_runs_cases() {
        let group = micro::Group::new("selftest");
        let mut count = 0u32;
        group.bench("noop", || count += 1);
        assert!(count >= 2, "warmup + timed iterations, got {count}");
    }
}
