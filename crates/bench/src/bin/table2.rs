//! Regenerates the paper's **Table 2**: store-queue, data-cache-bank and
//! TLB load latencies in a 90nm process (ns and 3GHz cycles), plus the
//! §4.2 per-access energy comparison with `--energy`.
//!
//! ```text
//! cargo run -p sqip-bench --bin table2 [-- --energy]
//! ```

#![forbid(unsafe_code)]

use sqip_cacti::{
    sq_energy_pj, table2_sq_rows, CacheBankGeometry, SqGeometry, TechParams, TlbGeometry,
};

fn main() {
    let energy = sqip_bench::parse_or_exit(&sqip_bench::TABLE2).has("--energy");
    let tech = TechParams::default();

    println!("Table 2. Store queue latencies in 90nm process.");
    println!("ns and equivalent cycles on a 3GHz processor.\n");
    println!(
        "{:>18} | {:^23} | {:^23}",
        "", "1 Load Port", "2 Load Ports"
    );
    println!(
        "{:>18} | {:>11} {:>11} | {:>11} {:>11}",
        "", "Assoc.", "Index", "Assoc.", "Index"
    );
    println!("{}", "-".repeat(70));
    for row in table2_sq_rows(&tech) {
        println!(
            "SQ {:>15} | {:>11} {:>11} | {:>11} {:>11}",
            format!("{}-entry", row.entries),
            fmt(row.assoc_1p),
            fmt(row.index_1p),
            fmt(row.assoc_2p),
            fmt(row.index_2p),
        );
    }

    println!("{}", "-".repeat(70));
    for (label, cap) in [("8KB, 2-way", 8 * 1024), ("32KB, 2-way", 32 * 1024)] {
        let bank = |ports| CacheBankGeometry {
            capacity_bytes: cap,
            ways: 2,
            line_bytes: 64,
            ports,
        };
        let one = (
            tech.cache_bank_latency_ns(bank(1)),
            tech.cache_bank_cycles(bank(1)),
        );
        let two = (
            tech.cache_bank_latency_ns(bank(2)),
            tech.cache_bank_cycles(bank(2)),
        );
        println!(
            "D$ bank {:>10} | {:>23} | {:>23}",
            label,
            fmt(one),
            fmt(two)
        );
    }
    let tlb = |ports| TlbGeometry {
        entries: 32,
        ways: 4,
        ports,
    };
    let one = (tech.tlb_latency_ns(tlb(1)), tech.tlb_cycles(tlb(1)));
    let two = (tech.tlb_latency_ns(tlb(2)), tech.tlb_cycles(tlb(2)));
    println!("TLB 32-entry,4-way | {:>23} | {:>23}", fmt(one), fmt(two));

    if energy {
        println!("\nPer-access energy, 64-entry SQ, 2 load ports (arbitrary pJ units):");
        let a = sq_energy_pj(SqGeometry::associative(64, 2));
        let i = sq_energy_pj(SqGeometry::indexed(64, 2));
        println!("  associative: {a:.2}");
        println!("  indexed:     {i:.2}");
        println!(
            "  indexed saving: {:.1}%  (paper: \"about 30% lower\")",
            (1.0 - i / a) * 100.0
        );
    }
}

fn fmt((ns, cycles): (f64, u64)) -> String {
    format!("{ns:.2} ({cycles})")
}
