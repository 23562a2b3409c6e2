//! Forwarding microscope: reproduce the paper's §3.3 motivating example,
//! `X[i] = A * X[i-2]`, and watch each mechanism engage.
//!
//! Not-most-recent forwarding is the one pattern SQ index prediction
//! fundamentally cannot handle: the Store Alias Table can only name the
//! *youngest* instance of a store, but the load needs the one before it.
//! This example runs the recurrence under four designs and shows how the
//! raw indexed SQ flushes, and how the delay index predictor converts
//! those flushes into bounded delays.
//!
//! The custom program enters the sweep as a [`Workload`] factory over a
//! streaming [`ProgramSource`], so hand-built programs and Table 3
//! models drive through the same API: each of the four cells opens its
//! own stream of the program.
//!
//! ```text
//! cargo run --release -p sqip --example forwarding_microscope
//! ```

#![forbid(unsafe_code)]

use sqip::{Experiment, ProgramSource, SqDesign, Workload};
use sqip_isa::{ProgramBuilder, Reg};
use sqip_types::DataSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // X[i] = 3 * X[i-2] over a sliding window, the paper's pathology.
    let mut b = ProgramBuilder::new();
    let (ctr, ptr, x, y) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    b.load_imm(ctr, 3_000);
    b.load_imm(ptr, 0x1000);
    b.load_imm(x, 1);
    b.store(DataSize::Quad, x, ptr, 0); // seed X[0]
    b.store(DataSize::Quad, x, ptr, 8); // seed X[1]
    let top = b.label("top");
    b.load(DataSize::Quad, y, ptr, 0); // X[i-2]
    b.mul_imm(y, y, 3);
    b.store(DataSize::Quad, y, ptr, 16); // X[i]
    b.add_imm(ptr, ptr, 8);
    b.add_imm(ctr, ctr, -1);
    b.branch_nz(ctr, top);
    b.halt();
    let program = b.build()?;
    let recurrence = Workload::from_factory("nmr-recurrence", "X[i] = 3*X[i-2]", move || {
        Ok(Box::new(ProgramSource::new(program.clone(), 1_000_000)) as Box<_>)
    });

    let results = Experiment::new()
        .workload(recurrence)
        .designs([
            SqDesign::IdealOracle,
            SqDesign::Associative3,
            SqDesign::Indexed3Fwd,
            SqDesign::Indexed3FwdDly,
        ])
        .run()?;

    println!(
        "X[i] = 3*X[i-2], {} dynamic instructions\n",
        results.records()[0].stats.committed
    );
    println!(
        "{:<22} {:>9} {:>7} {:>10} {:>9} {:>9}",
        "design", "cycles", "IPC", "misfwd/1k", "%delayed", "avg delay"
    );
    for record in &results {
        let s = &record.stats;
        println!(
            "{:<22} {:>9} {:>7.2} {:>10.1} {:>9.1} {:>9.1}",
            record.design.name(),
            s.cycles,
            s.ipc(),
            s.mis_forwards_per_1000(),
            s.pct_loads_delayed(),
            s.avg_delay_cycles()
        );
    }
    println!(
        "\nThe associative SQ forwards the recurrence natively; the raw\n\
         indexed SQ (indexed-3-fwd) repeatedly mis-forwards and flushes;\n\
         adding the delay predictor (indexed-3-fwd+dly) converts flushes\n\
         into scheduling delays, as in the paper's §3.3."
    );
    Ok(())
}
