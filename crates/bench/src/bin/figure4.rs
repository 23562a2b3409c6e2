//! Regenerates the paper's **Figure 4**: execution times of five store
//! queue configurations relative to an ideal 3-cycle associative SQ with
//! oracle load scheduling, per benchmark and as per-suite geometric means.
//!
//! ```text
//! cargo run --release -p sqip-bench --bin figure4 [-- <benchmark> ...]
//! cargo run --release -p sqip-bench --bin figure4 -- --json > figure4.json
//! cargo run --release -p sqip-bench --bin figure4 -- --csv  > figure4.csv
//! cargo run --release -p sqip-bench --bin figure4 -- --list-designs
//! cargo run --release -p sqip-bench --bin figure4 -- --design indexed-5-fwd+dly
//! cargo run --release -p sqip-bench --bin figure4 -- --list-workloads
//! cargo run --release -p sqip-bench --bin figure4 -- --workload stream-10m
//! cargo run --release -p sqip-bench --bin figure4 -- --workload mix:0xbeef:1m
//! cargo run --release -p sqip-bench --bin figure4 -- --shard 0/2 --shard-out s0.json
//! ```
//!
//! The whole sweep is one [`Experiment`]: the selected workloads × the
//! selected designs, executed in parallel with deterministic results.
//! Both axes are open: `--design` names any registered store-queue
//! design; `--workload` names any registered workload or generator point
//! (streamed through the simulator in bounded memory — a 10M-instruction
//! generator cell runs fine on a small machine). Defaults: the 47
//! Table 3 workloads × Figure 4's five designs.

#![forbid(unsafe_code)]

use sqip::{all_workloads, geomean, Experiment, ResultSet, SqDesign, Suite, Workload};

const BASELINE: SqDesign = SqDesign::IdealOracle;
const DEFAULT_DESIGNS: [SqDesign; 5] = [
    SqDesign::Associative3,
    SqDesign::Associative5Replay,
    SqDesign::Associative5FwdPred,
    SqDesign::Indexed3Fwd,
    SqDesign::Indexed3FwdDly,
];

fn main() -> Result<(), sqip::SqipError> {
    let args = sqip_bench::parse_or_exit(&sqip_bench::FIGURE4);
    let designs = if args.designs.is_empty() {
        &DEFAULT_DESIGNS[..]
    } else {
        &args.designs
    };
    let compared: Vec<SqDesign> = designs.iter().copied().filter(|&d| d != BASELINE).collect();
    if compared.is_empty() {
        eprintln!("error: --design selected only the {BASELINE} baseline; nothing to compare");
        std::process::exit(2);
    }
    let subset = !args.workloads.is_empty();
    let selected: Vec<Workload> = if subset {
        args.workloads.clone()
    } else {
        all_workloads().into_iter().map(Workload::from).collect()
    };

    let experiment = Experiment::new()
        .workloads(selected)
        .design(BASELINE)
        .designs(compared.iter().copied());
    // `--shard i/n` runs this bin's slice of the sweep and emits a
    // `sqip-merge` artifact instead of the figure.
    let Some(results) = args.run_or_emit_shard(&experiment)? else {
        return Ok(());
    };

    if args.has("--json") {
        println!("{}", results.to_json_pretty());
        return Ok(());
    }
    if args.has("--csv") {
        print!("{}", results.to_csv());
        return Ok(());
    }

    println!("Figure 4. Execution times relative to an ideal, 3-cycle");
    println!("associative store queue with oracle load scheduling.\n");
    let widths: Vec<usize> = compared.iter().map(|d| d.label().len().max(8)).collect();
    // Name column sized to the roster (generator names can be long).
    let name_w = results
        .workload_names()
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(0)
        .max(10);
    print!("{:>name_w$} {:>6} |", "", "IPC");
    for (design, w) in compared.iter().zip(&widths) {
        print!(" {:>w$}", design.label(), w = w);
    }
    println!();
    // name + " " + 6-wide IPC + " |"; each design column adds " " + w.
    let rule = name_w + 9 + widths.iter().map(|w| w + 1).sum::<usize>();
    println!("{}", "-".repeat(rule));

    for name in results.workload_names() {
        let baseline = results.get(name, BASELINE).expect("baseline cell ran");
        print!("{name:>name_w$} {:>6.2} |", baseline.stats.ipc());
        for (&design, &w) in compared.iter().zip(&widths) {
            let rel = results
                .relative_runtime(name, sqip::BASE_VARIANT, design, BASELINE)
                .expect("design cell ran");
            print!(" {rel:>w$.3}", w = w);
        }
        println!();
    }

    if !subset {
        println!("{}", "-".repeat(rule));
        for suite in [Suite::Media, Suite::Int, Suite::Fp] {
            print_gmean(
                &results,
                &format!("{suite}.gmean"),
                Some(suite),
                &compared,
                &widths,
            );
        }
        print_gmean(&results, "All.gmean", None, &compared, &widths);
    }
    Ok(())
}

fn print_gmean(
    results: &ResultSet,
    label: &str,
    suite: Option<Suite>,
    compared: &[SqDesign],
    widths: &[usize],
) {
    print!("{:>10} {:>6} |", label, "");
    for (&design, &w) in compared.iter().zip(widths) {
        let ratios: Vec<f64> = results
            .workload_names()
            .iter()
            .filter(|&&name| {
                suite.is_none() || results.get(name, BASELINE).and_then(|r| r.suite) == suite
            })
            .filter_map(|name| results.relative_runtime(name, sqip::BASE_VARIANT, design, BASELINE))
            .collect();
        print!(" {:>w$.3}", geomean(ratios), w = w);
    }
    println!();
}
