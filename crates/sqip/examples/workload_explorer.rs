//! Workload explorer: print the kernel mix and measured memory-dependence
//! character of any of the 47 Table 3 workload models.
//!
//! ```text
//! cargo run --release -p sqip --example workload_explorer [-- vortex mesa.t ...]
//! ```

#![forbid(unsafe_code)]

use sqip::{all_workloads, by_name};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let specs = if args.is_empty() {
        vec![
            by_name("adpcm.d").unwrap(),
            by_name("gzip").unwrap(),
            by_name("vortex").unwrap(),
            by_name("mesa.t").unwrap(),
            by_name("mcf").unwrap(),
        ]
    } else {
        args.iter()
            .map(|n| by_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .collect::<Result<Vec<_>, _>>()?
    };

    println!("{} workloads defined in total\n", all_workloads().len());
    for spec in specs {
        let trace = spec.trace()?;
        println!("== {} ({}) ==", spec.name, spec.suite);
        println!(
            "  kernel mix: fwd={} narrow={} partial={} alias={} nmr={} (lag {}) far={} plain_ld={} chase={} x{} static copies",
            spec.fwd_sites,
            spec.narrow_sites,
            spec.partial_sites,
            spec.alias_sites,
            spec.nmr_sites,
            spec.nmr_lag,
            spec.far_sites,
            spec.plain_loads,
            spec.chase_loads,
            spec.replicate,
        );
        println!(
            "  dynamic: {} insts, {} loads, {} stores",
            trace.len(),
            trace.dynamic_loads(),
            trace.dynamic_stores()
        );
        println!(
            "  forwarding rate (64-entry window): {:.1}%  (target {:.1}%)",
            100.0 * trace.oracle_forwarding_rate(64),
            100.0 * spec.target_forwarding_rate(),
        );
        println!();
    }
    Ok(())
}
