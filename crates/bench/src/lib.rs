//! The command line shared by the paper's regenerator binaries —
//! `figure4`, `figure5`, `table2` and `table3` — which rebuild the
//! paper's Figures 4–5 and Tables 2–3. The crate's `perf` bin is the
//! simulator's counter-gated perf smoke.
//!
//! Sweep logic lives in the [`sqip`] facade crate ([`sqip::Experiment`]);
//! this crate only adds one single-pass argument parser, [`parse`], that
//! every regenerator calls once (through [`parse_or_exit`]) with its
//! [`Spec`]. A flag, switch or positional argument the binary does not
//! take is an error, reported before anything is simulated.
//!
//! Designs and workloads are named through the open
//! [`sqip::DesignRegistry`] and [`sqip::WorkloadRegistry`], so any
//! registered design, any registered workload and any
//! `mix:`/`chase:`/`stride:` generator name can replace a binary's default
//! roster from the command line. Every sweep goes through the
//! [`sqip::SweepEngine`]: results are bit-identical across `--threads`
//! counts, and a split's merged `--shard` artifacts are byte-identical to
//! the unsharded sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sqip::{
    all_workloads, DesignRegistry, Experiment, ResultSet, ShardSpec, SqDesign, SqipError,
    SweepEngine, Workload, WorkloadRegistry,
};

/// What a regenerator's positional arguments name.
#[derive(Debug, Clone, Copy)]
enum Positionals {
    /// The binary takes none.
    None,
    /// Table 3 benchmark names: a filter over the 47-workload roster,
    /// exclusive with `--workload`.
    Benchmarks,
    /// Panels of a figure, from this list.
    Panels(&'static [&'static str]),
}

/// The arguments one regenerator binary takes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The binary's name, for error messages.
    bin: &'static str,
    /// Whether it runs sweeps: `--design`, `--list-designs`,
    /// `--workload`, `--list-workloads` and `--threads`.
    sweeps: bool,
    /// Whether it can run one shard of its sweep: `--shard`,
    /// `--shard-out`.
    shards: bool,
    /// The switches it takes, such as `--json`.
    switches: &'static [&'static str],
    /// What its positional arguments name.
    positionals: Positionals,
}

/// `figure4`: relative runtimes over a workload roster.
pub const FIGURE4: Spec = Spec {
    bin: "figure4",
    sweeps: true,
    shards: true,
    switches: &["--json", "--csv"],
    positionals: Positionals::Benchmarks,
};

/// `figure5`: the predictor-sensitivity panels. It composes several
/// sweeps, so it cannot run as a shard.
pub const FIGURE5: Spec = Spec {
    bin: "figure5",
    sweeps: true,
    shards: false,
    switches: &[],
    positionals: Positionals::Panels(&["capacity", "associativity", "ratio"]),
};

/// `table2`: the analytical latency model; it simulates nothing.
pub const TABLE2: Spec = Spec {
    bin: "table2",
    sweeps: false,
    shards: false,
    switches: &["--energy"],
    positionals: Positionals::None,
};

/// `table3`: the prediction diagnostics over a workload roster.
pub const TABLE3: Spec = Spec {
    bin: "table3",
    sweeps: true,
    shards: true,
    switches: &["--json"],
    positionals: Positionals::Benchmarks,
};

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// Every `--design`, in order; empty selects the binary's default.
    pub designs: Vec<SqDesign>,
    /// Every `--workload` in order, or the positionally named Table 3
    /// benchmarks in roster order; empty selects the binary's default.
    pub workloads: Vec<Workload>,
    /// The named panels, in order; empty selects them all.
    pub panels: Vec<String>,
    /// The switches given.
    pub switches: Vec<&'static str>,
    /// Worker threads (`None`: one per core).
    pub threads: Option<usize>,
    /// Run only this slice of the sweep and emit a shard artifact
    /// instead of the figure or table.
    pub shard: Option<ShardSpec>,
    /// Where the shard artifact goes (default stdout).
    pub shard_out: Option<String>,
    list_designs: bool,
    list_workloads: bool,
}

impl Args {
    /// Whether `switch` was given.
    #[must_use]
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// Runs `experiment` under the selected thread count. Binaries whose
    /// [`Spec`] takes `--shard` call [`Args::run_or_emit_shard`] instead.
    ///
    /// # Errors
    ///
    /// The experiment's first failure, in cell order.
    pub fn run(&self, experiment: &Experiment) -> Result<ResultSet, SqipError> {
        let mut engine = SweepEngine::new();
        if let Some(threads) = self.threads {
            engine = engine.threads(threads);
        }
        engine.run(experiment)
    }

    /// Without `--shard`, runs the sweep and returns its results. With
    /// `--shard i/n`, runs only the owned cells, writes the
    /// [`sqip::ShardResult`] artifact (to `--shard-out`, or stdout) for
    /// `sqip-merge`, and returns `None`: the binary should exit
    /// successfully without rendering anything.
    ///
    /// # Errors
    ///
    /// Sweep failures and artifact-write failures.
    pub fn run_or_emit_shard(
        &self,
        experiment: &Experiment,
    ) -> Result<Option<ResultSet>, SqipError> {
        let Some(shard) = self.shard else {
            return self.run(experiment).map(Some);
        };
        let mut experiment = experiment.clone();
        if let Some(threads) = self.threads {
            experiment = experiment.threads(threads);
        }
        let mut text = experiment.run_shard(shard)?.to_json();
        text.push('\n');
        match &self.shard_out {
            Some(path) => std::fs::write(path, text)?,
            None => print!("{text}"),
        }
        Ok(None)
    }
}

/// Parses a regenerator's arguments (without the program name) in one
/// pass.
///
/// # Errors
///
/// A message naming the first argument `spec` does not take, a flag
/// missing its value, a value that does not resolve, or positional
/// benchmark names combined with `--workload`.
pub fn parse(spec: &Spec, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut benchmarks = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} requires {what}"));
        match arg.as_str() {
            "--design" | "--list-designs" | "--workload" | "--list-workloads" | "--threads"
                if !spec.sweeps =>
            {
                return Err(format!("{} does not take {arg}", spec.bin));
            }
            "--shard" | "--shard-out" if !spec.shards => {
                return Err(format!("{} does not take {arg}", spec.bin));
            }
            "--list-designs" => parsed.list_designs = true,
            "--list-workloads" => parsed.list_workloads = true,
            "--design" => parsed.designs.push(
                value("a design name")?
                    .parse::<SqDesign>()
                    .map_err(|e| e.to_string())?,
            ),
            "--workload" => parsed.workloads.push(
                Workload::from_registry(&value("a workload name")?).map_err(|e| e.to_string())?,
            ),
            "--threads" => {
                let n = value("a count")?;
                let n = n
                    .parse::<usize>()
                    .map_err(|_| format!("--threads: `{n}` is not a count"))?;
                parsed.threads = Some(n.max(1));
            }
            "--shard" => {
                parsed.shard = Some(
                    value("`i/n` (e.g. 0/4)")?
                        .parse::<ShardSpec>()
                        .map_err(|e| e.to_string())?,
                );
            }
            "--shard-out" => parsed.shard_out = Some(value("a file path")?),
            flag if flag.starts_with('-') => match spec.switches.iter().find(|&&s| s == flag) {
                Some(switch) => parsed.switches.push(switch),
                None => return Err(format!("{} does not take {flag}", spec.bin)),
            },
            word => match spec.positionals {
                Positionals::None => {
                    return Err(format!("{} takes no argument `{word}`", spec.bin));
                }
                Positionals::Benchmarks => benchmarks.push(arg),
                Positionals::Panels(panels) if panels.contains(&word) => parsed.panels.push(arg),
                Positionals::Panels(panels) => {
                    return Err(format!(
                        "`{word}` is not a {} panel (expected one of: {})",
                        spec.bin,
                        panels.join(", ")
                    ));
                }
            },
        }
    }
    if parsed.shard_out.is_some() && parsed.shard.is_none() {
        return Err("--shard-out names the artifact of a --shard run; pass --shard i/n".into());
    }
    if !benchmarks.is_empty() {
        if !parsed.workloads.is_empty() {
            return Err(
                "positional benchmark filters and --workload are mutually exclusive; \
                        pass everything via repeated --workload flags"
                    .to_string(),
            );
        }
        let roster = all_workloads();
        if let Some(bad) = benchmarks
            .iter()
            .find(|b| !roster.iter().any(|w| w.name == **b))
        {
            return Err(format!(
                "`{bad}` is not a Table 3 benchmark; name other workloads with --workload"
            ));
        }
        parsed.workloads = roster
            .into_iter()
            .filter(|w| benchmarks.contains(&w.name))
            .map(Workload::from)
            .collect();
    }
    Ok(parsed)
}

/// Parses the process's arguments for a `main()`: prints an error to
/// stderr and exits with code 2 on a bad command line, and prints the
/// design or workload roster and exits 0 on `--list-designs` or
/// `--list-workloads`.
#[must_use]
pub fn parse_or_exit(spec: &Spec) -> Args {
    let args = parse(spec, std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    if args.list_designs {
        print_designs();
        std::process::exit(0);
    }
    if args.list_workloads {
        print_workloads();
        std::process::exit(0);
    }
    args
}

/// Prints every registered design with a capability summary.
fn print_designs() {
    println!("registered store-queue designs:");
    for name in DesignRegistry::global().names() {
        let design: SqDesign = name.parse().expect("registered name parses");
        println!("  {name:<26} {}", describe(design));
    }
}

/// A one-line capability summary, derived from the registry.
#[must_use]
fn describe(design: SqDesign) -> String {
    let caps = design.caps();
    let mut parts = vec![
        if caps.indexed {
            "indexed".to_string()
        } else {
            "associative".to_string()
        },
        format!("{}-cycle SQ", caps.sq_latency),
    ];
    if caps.oracle {
        parts.push("oracle scheduling".to_string());
    }
    if caps.original_store_sets {
        parts.push("original store sets".to_string());
    }
    if caps.delay {
        parts.push("delay prediction".to_string());
    }
    if caps.fwd_latency_pred {
        parts.push("fwd-latency scheduling".to_string());
    }
    parts.join(", ")
}

/// Prints every registered workload plus the generator grammar.
fn print_workloads() {
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
    println!("  chase:<nodes>:<stride>:<insts>  pointer chase             e.g. chase:4096:64:1m");
    println!("  stride:<stride>:<insts>   strided load stream             e.g. stride:4096:500k");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(spec: &Spec, line: &str) -> Result<Args, String> {
        parse(spec, line.split_whitespace().map(String::from))
    }

    fn names(args: &Args) -> Vec<&str> {
        args.workloads.iter().map(Workload::name).collect()
    }

    #[test]
    fn design_args_select_designs_and_workloads_in_order() {
        let parsed = args(
            &FIGURE4,
            "--json --design indexed-5-fwd+dly --workload mix:7:2k \
             --design associative-3 --workload gzip",
        )
        .unwrap();
        let ext: SqDesign = "indexed-5-fwd+dly".parse().unwrap();
        assert_eq!(parsed.designs, vec![ext, SqDesign::Associative3]);
        assert_eq!(names(&parsed), ["mix:7:2k", "gzip"]);
        assert!(parsed.has("--json") && !parsed.has("--csv"));

        let defaulted = args(&TABLE3, "").unwrap();
        assert!(defaulted.designs.is_empty() && defaulted.workloads.is_empty());
        assert_eq!((defaulted.threads, defaulted.shard), (None, None));
    }

    #[test]
    fn positional_benchmarks_select_the_roster_in_roster_order() {
        let parsed = args(&FIGURE4, "gsm.e gzip --csv gzip").unwrap();
        assert_eq!(names(&parsed), ["gsm.e", "gzip"]);
        assert!(parsed.has("--csv"));
        let err = args(&TABLE3, "gzip --workload mix:7:2k").unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn sweep_execution_flags_parse() {
        let parsed = args(&TABLE3, "--threads 3 --shard 1/2 --shard-out s1.json").unwrap();
        assert_eq!(parsed.threads, Some(3));
        assert_eq!(parsed.shard, Some(ShardSpec::new(1, 2).unwrap()));
        assert_eq!(parsed.shard_out.as_deref(), Some("s1.json"));
        assert_eq!(args(&FIGURE5, "--threads 0").unwrap().threads, Some(1));
        let panels = args(&FIGURE5, "ratio --threads 2 capacity").unwrap();
        assert_eq!(panels.panels, ["ratio", "capacity"]);
        assert!(args(&TABLE2, "--energy").unwrap().has("--energy"));
    }

    #[test]
    fn missing_and_unresolvable_values_are_errors() {
        for (line, needle) in [
            ("--design", "--design requires a design name"),
            ("--workload", "--workload requires a workload name"),
            ("--threads", "--threads requires a count"),
            ("--shard", "--shard requires `i/n`"),
            ("--shard-out", "--shard-out requires a file path"),
            ("--design bogus", "bogus"),
            ("--workload nosuch", "nosuch"),
            ("--threads two", "`two` is not a count"),
            ("--shard 2/2", "shard index 2 out of range"),
            ("--shard-out s.json", "pass --shard i/n"),
        ] {
            let err = args(&FIGURE4, line).unwrap_err();
            assert!(err.contains(needle), "`{line}`: {err}");
        }
    }

    #[test]
    fn arguments_a_binary_does_not_take_are_errors() {
        for (spec, line, needle) in [
            (&FIGURE4, "--jsn", "figure4 does not take --jsn"),
            (
                &FIGURE4,
                "gsm.e gzp --csv",
                "`gzp` is not a Table 3 benchmark",
            ),
            (&TABLE3, "--csv", "table3 does not take --csv"),
            (&FIGURE5, "--json", "figure5 does not take --json"),
            (&FIGURE5, "--csv", "figure5 does not take --csv"),
            (&FIGURE5, "--shard 0/2", "figure5 does not take --shard"),
            (
                &FIGURE5,
                "--shard-out s.json",
                "figure5 does not take --shard-out",
            ),
            (
                &FIGURE5,
                "--workload mix:7:2k capcity",
                "`capcity` is not a figure5 panel",
            ),
            (&TABLE2, "--json", "table2 does not take --json"),
            (&TABLE2, "--threads 2", "table2 does not take --threads"),
            (
                &TABLE2,
                "--design associative-3",
                "table2 does not take --design",
            ),
            (
                &TABLE2,
                "--list-workloads",
                "table2 does not take --list-workloads",
            ),
            (&TABLE2, "energy", "table2 takes no argument `energy`"),
        ] {
            let err = args(spec, line).unwrap_err();
            assert!(err.contains(needle), "`{} {line}`: {err}", spec.bin);
        }
    }

    #[test]
    fn design_descriptions_cover_the_capability_axes() {
        assert_eq!(
            describe(SqDesign::IdealOracle),
            "associative, 3-cycle SQ, oracle scheduling"
        );
        assert_eq!(
            describe(SqDesign::Indexed3FwdDly),
            "indexed, 3-cycle SQ, delay prediction"
        );
        assert_eq!(
            describe(SqDesign::Associative5FwdPred),
            "associative, 5-cycle SQ, fwd-latency scheduling"
        );
    }
}
