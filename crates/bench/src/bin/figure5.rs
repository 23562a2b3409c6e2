//! Regenerates the paper's **Figure 5**: performance sensitivity of the
//! indexed store queue to (a) FSP/DDP capacity, (b) FSP associativity and
//! (c) DDP training ratio, on the paper's nine selected benchmarks.
//!
//! ```text
//! cargo run --release -p sqip-bench --bin figure5 -- capacity
//! cargo run --release -p sqip-bench --bin figure5 -- associativity
//! cargo run --release -p sqip-bench --bin figure5 -- ratio
//! cargo run --release -p sqip-bench --bin figure5          # all three
//! cargo run --release -p sqip-bench --bin figure5 -- --list-designs
//! cargo run --release -p sqip-bench --bin figure5 -- --design indexed-5-fwd+dly capacity
//! cargo run --release -p sqip-bench --bin figure5 -- --list-workloads
//! cargo run --release -p sqip-bench --bin figure5 -- --workload mix:7:500k ratio
//! ```
//!
//! Each panel is one [`Experiment`] whose `vary` axis is the swept knob;
//! the oracle denominators come from a shared baseline experiment. The
//! swept design defaults to the paper's `indexed-3-fwd+dly` and can be
//! any registered design via `--design`; the workload roster defaults to
//! the paper's nine and can be any registered workloads or generator
//! points via `--workload` (streamed in bounded memory).

#![forbid(unsafe_code)]

use sqip::{by_name, Experiment, ResultSet, SqDesign, Workload, FIGURE5_WORKLOADS};
use sqip_predictors::TrainRatio;

fn main() -> Result<(), sqip::SqipError> {
    let args = sqip_bench::parse_or_exit(&sqip_bench::FIGURE5);
    let swept = match args.designs[..] {
        [] => SqDesign::Indexed3FwdDly,
        [one] => one,
        _ => {
            eprintln!("error: figure5 sweeps exactly one design");
            std::process::exit(2);
        }
    };
    let panel_on = |name: &str| args.panels.is_empty() || args.panels.iter().any(|p| p == name);
    let roster: Vec<Workload> = if args.workloads.is_empty() {
        FIGURE5_WORKLOADS
            .iter()
            .map(|n| Workload::from(by_name(n).expect("figure 5 workload exists")))
            .collect()
    } else {
        args.workloads.clone()
    };

    // Relative-time denominator: the ideal oracle baseline per workload.
    let baselines = args.run(
        &Experiment::new()
            .workloads(roster.iter().cloned())
            .design(SqDesign::IdealOracle),
    )?;

    if panel_on("capacity") {
        println!("Figure 5 (top): FSP/DDP capacity sweep (2-way), relative runtime\n");
        let sweep =
            [512usize, 1024, 2048, 4096, 8192]
                .into_iter()
                .fold(panel(&roster, swept), |e, cap| {
                    e.vary(format!("{cap}"), move |cfg| {
                        cfg.fsp.entries = cap;
                        cfg.ddp.entries = cap;
                    })
                });
        let sweep = args.run(&sweep)?;
        print_panel(&sweep, &baselines);
    }
    if panel_on("associativity") {
        println!("\nFigure 5 (middle): FSP associativity sweep (4K entries), relative runtime\n");
        let sweep = [1usize, 2, 4, 8, 32]
            .into_iter()
            .fold(panel(&roster, swept), |e, ways| {
                e.vary(format!("{ways}"), move |cfg| cfg.fsp.ways = ways)
            });
        let sweep = args.run(&sweep)?;
        print_panel(&sweep, &baselines);
    }
    if panel_on("ratio") {
        println!("\nFigure 5 (bottom): DDP training ratio sweep, relative runtime\n");
        let ratios = [(0u8, 1u8), (1, 1), (2, 1), (4, 1), (8, 1), (1, 0)];
        let sweep = ratios.into_iter().fold(panel(&roster, swept), |e, (p, n)| {
            e.vary(format!("{p}:{n}"), move |cfg| {
                cfg.ddp.ratio = TrainRatio::new(p, n);
                cfg.ddp.threshold = p.max(1);
            })
        });
        let sweep = args.run(&sweep)?;
        print_panel(&sweep, &baselines);
    }
    Ok(())
}

/// The shared shape of every Figure 5 panel: the roster under the
/// swept design; the panel's knob is added as `vary` points.
fn panel(roster: &[Workload], swept: SqDesign) -> Experiment {
    Experiment::new()
        .workloads(roster.iter().cloned())
        .design(swept)
}

fn print_panel(sweep: &ResultSet, baselines: &ResultSet) {
    // Read the swept and baseline designs off the records themselves so
    // this cannot drift from the experiments that produced them.
    let design = sweep.records()[0].design;
    let baseline_design = baselines.records()[0].design;
    let names = sweep.workload_names();
    print!("{:>12} |", "config");
    for name in &names {
        print!(" {name:>8}");
    }
    println!();
    println!("{}", "-".repeat(14 + 9 * names.len()));
    for variant in sweep.variants() {
        print!("{variant:>12} |");
        for name in &names {
            let cell = sweep.find(name, design, variant).expect("sweep cell ran");
            let base = baselines.get(name, baseline_design).expect("baseline ran");
            print!(
                " {:>8.3}",
                cell.stats.cycles as f64 / base.stats.cycles as f64
            );
        }
        println!();
    }
}
