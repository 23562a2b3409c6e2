//! Regenerates the paper's **Table 3**: store-queue index prediction
//! diagnostics — load forwarding rate, mis-forwardings per 1000 loads with
//! forwarding prediction only (`Fwd`) and with delay prediction added
//! (`Fwd+Dly`), the fraction of loads delayed, and the average delay.
//!
//! ```text
//! cargo run --release -p sqip-bench --bin table3 [-- <benchmark> ...]
//! cargo run --release -p sqip-bench --bin table3 -- --json > table3.json
//! cargo run --release -p sqip-bench --bin table3 -- --list-designs
//! cargo run --release -p sqip-bench --bin table3 -- \
//!     --design indexed-5-fwd+dly --design indexed-3-fwd+dly
//! cargo run --release -p sqip-bench --bin table3 -- --list-workloads
//! cargo run --release -p sqip-bench --bin table3 -- --workload chase:4096:64:1m
//! cargo run --release -p sqip-bench --bin table3 -- --shard 1/2 --shard-out s1.json
//! ```
//!
//! One [`Experiment`]: the selected workloads (the 47 Table 3 models by
//! default; any registered workload or generator point via `--workload`,
//! streamed in bounded memory) × a (raw, delay-predicted) design pair —
//! the two indexed designs by default, or any two registered designs via
//! `--design` (given twice: first the raw design, then the delayed one).

#![forbid(unsafe_code)]

use sqip::{all_workloads, Experiment, RunRecord, SqDesign, Suite, Workload};

const DEFAULT_PAIR: [SqDesign; 2] = [SqDesign::Indexed3Fwd, SqDesign::Indexed3FwdDly];

fn main() -> Result<(), sqip::SqipError> {
    let args = sqip_bench::parse_or_exit(&sqip_bench::TABLE3);
    let [raw_design, dly_design] = match args.designs[..] {
        [] => DEFAULT_PAIR,
        [raw, dly] => [raw, dly],
        _ => {
            eprintln!("error: table3 compares exactly two designs (raw, then delayed)");
            std::process::exit(2);
        }
    };
    let subset = !args.workloads.is_empty();
    let selected: Vec<Workload> = if subset {
        args.workloads.clone()
    } else {
        all_workloads().into_iter().map(Workload::from).collect()
    };

    let experiment = Experiment::new()
        .workloads(selected)
        .designs([raw_design, dly_design]);
    // `--shard i/n` runs this bin's slice of the sweep and emits a
    // `sqip-merge` artifact instead of the table.
    let Some(results) = args.run_or_emit_shard(&experiment)? else {
        return Ok(());
    };

    if args.has("--json") {
        println!("{}", results.to_json_pretty());
        return Ok(());
    }

    println!("Table 3. Store queue index prediction diagnostics.");
    println!("Load forwarding rates, raw prediction accuracy, and improved");
    println!("accuracy using delay prediction.\n");
    // Name column sized to the roster (generator names can be long).
    let name_w = results
        .workload_names()
        .iter()
        .map(|n| n.len())
        .max()
        .unwrap_or(0)
        .max(10);
    println!(
        "{:>name_w$} {:>8} | {:>9} | {:>9} {:>7} {:>9}",
        "", "%load", "Fwd", "Fwd+Dly", "", ""
    );
    println!(
        "{:>name_w$} {:>8} | {:>9} | {:>9} {:>7} {:>9}",
        "", "forward", "mis/1000", "mis/1000", "%delay", "avg.dly"
    );
    println!("{}", "-".repeat(name_w + 52));

    let row = |name: &str| -> Option<[f64; 5]> {
        let fwd = results.get(name, raw_design)?;
        let dly = results.get(name, dly_design)?;
        Some(table3_row(fwd, dly))
    };

    for name in results.workload_names() {
        let r = row(name).expect("both designs ran");
        print_row(name, name_w, r);
    }

    if !subset {
        println!("{}", "-".repeat(name_w + 52));
        for suite in [Suite::Media, Suite::Int, Suite::Fp] {
            let names: Vec<&str> = results
                .workload_names()
                .into_iter()
                .filter(|n| results.get(n, dly_design).and_then(|r| r.suite) == Some(suite))
                .collect();
            print_avg(&format!("{suite}.avg"), name_w, &names, &row);
        }
        let all: Vec<&str> = results.workload_names();
        print_avg("All.avg", name_w, &all, &row);
    }
    Ok(())
}

/// `[%fwd, fwd mis/1000, dly mis/1000, %delayed, avg delay]` for one row.
fn table3_row(fwd: &RunRecord, dly: &RunRecord) -> [f64; 5] {
    [
        dly.stats.pct_loads_forwarding(),
        fwd.stats.mis_forwards_per_1000(),
        dly.stats.mis_forwards_per_1000(),
        dly.stats.pct_loads_delayed(),
        dly.stats.avg_delay_cycles(),
    ]
}

fn print_row(name: &str, name_w: usize, r: [f64; 5]) {
    println!(
        "{name:>name_w$} {:>8.1} | {:>9.1} | {:>9.1} {:>7.1} {:>9.1}",
        r[0], r[1], r[2], r[3], r[4]
    );
}

fn print_avg(label: &str, name_w: usize, names: &[&str], row: &dyn Fn(&str) -> Option<[f64; 5]>) {
    let rows: Vec<[f64; 5]> = names.iter().filter_map(|n| row(n)).collect();
    if rows.is_empty() {
        return;
    }
    let n = rows.len() as f64;
    let mut avg = [0.0; 5];
    for r in &rows {
        for (a, v) in avg.iter_mut().zip(r) {
            *a += v / n;
        }
    }
    print_row(label, name_w, avg);
}
