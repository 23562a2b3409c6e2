//! Golden policy-equivalence coverage: every builtin store-queue design
//! must produce **bit-identical** `SimStats` to the pre-refactor closed
//! `SqDesign` enum dispatch on a representative workload subset.
//!
//! The fixture (`tests/fixtures/golden_designs.json`) was generated from
//! the enum-dispatch implementation immediately before designs became
//! registered capability sets; this test pins the one policy that
//! implements them to it. It was regenerated once since, for an
//! intentional model change: the scheduler now cancels a value
//! broadcast whose producer is certain to replay (see the README's
//! "Cancelled wakeups"), which removes the replay waves behind cache
//! misses and moves every cell's replay count and most cells' cycles.
//! Regenerate (only when an *intentional* modelling change lands) with:
//!
//! ```text
//! SQIP_UPDATE_GOLDEN=1 cargo test -p sqip --test golden_designs
//! ```

use serde::{Deserialize, Serialize};
use sqip::{
    by_name, simulate_with, Engine, OrderingMode, Processor, SimConfig, SimStats, SqDesign,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_designs.json"
);

/// One media, one integer and one pointer-heavy workload, shrunk so the
/// whole matrix stays a few seconds.
const WORKLOADS: [(&str, u32); 3] = [("gzip", 150), ("mesa.t", 150), ("mcf", 120)];

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenCell {
    cell: String,
    stats: SimStats,
}

fn current_cells() -> Vec<GoldenCell> {
    let mut cells = Vec::new();
    for (name, iters) in WORKLOADS {
        let spec = by_name(name)
            .expect("golden workload exists")
            .with_iterations(iters);
        for design in SqDesign::ALL {
            let stats = simulate_with(&spec, SimConfig::with_design(design))
                .expect("golden cell simulates");
            cells.push(GoldenCell {
                cell: format!("{name}/{design}/svw"),
                stats,
            });
        }
    }
    // The LQ-CAM ordering scheme is part of the design-dispatch surface
    // too (victim training differs per design); pin the associative trio.
    let spec = by_name("gzip").unwrap().with_iterations(150);
    for design in [
        SqDesign::IdealOracle,
        SqDesign::Associative3StoreSets,
        SqDesign::Associative3,
    ] {
        let mut cfg = SimConfig::with_design(design);
        cfg.ordering = OrderingMode::LqCam;
        let stats = simulate_with(&spec, cfg).expect("golden cam cell simulates");
        cells.push(GoldenCell {
            cell: format!("gzip/{design}/cam"),
            stats,
        });
    }
    cells
}

/// The golden matrix again, but through the **reference engine** and
/// through **streamed** (`TraceSource`) inputs: neither the engine choice
/// nor the input path may move a single bit of any fixture cell. Three
/// generations of rework (policy objects, streaming inputs, the event
/// engine) left the fixture bytes unchanged; only the broadcast cancel
/// rule, a model change applied to both engines alike, moved them.
#[test]
fn golden_matrix_is_engine_and_input_path_invariant() {
    if std::env::var("SQIP_UPDATE_GOLDEN").is_ok() {
        return; // regeneration handled by the fixture test below
    }
    let raw = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists (regenerate with SQIP_UPDATE_GOLDEN=1)");
    let golden: Vec<GoldenCell> = serde_json::from_str(&raw).expect("fixture parses");
    let mut idx = 0;
    for (name, iters) in WORKLOADS {
        let spec = by_name(name)
            .expect("golden workload exists")
            .with_iterations(iters);
        for design in SqDesign::ALL {
            let then = &golden[idx];
            assert_eq!(then.cell, format!("{name}/{design}/svw"), "cell order");
            idx += 1;

            let mut cfg = SimConfig::with_design(design);
            cfg.engine = Engine::Reference;
            let reference = simulate_with(&spec, cfg).expect("reference cell simulates");
            assert_eq!(
                reference, then.stats,
                "{}: reference engine diverged from the golden fixture",
                then.cell
            );

            let source = spec.source().expect("golden workload streams");
            let streamed = Processor::try_from_source(SimConfig::with_design(design), source)
                .and_then(Processor::try_run)
                .expect("streamed cell simulates");
            assert_eq!(
                streamed, then.stats,
                "{}: streamed event-engine run diverged from the golden fixture",
                then.cell
            );
        }
    }
}

#[test]
fn builtin_policies_match_pre_refactor_enum_dispatch() {
    let cells = current_cells();
    if std::env::var("SQIP_UPDATE_GOLDEN").is_ok() {
        let json = serde_json::to_string_pretty(&cells).expect("fixture serializes");
        std::fs::write(FIXTURE, json).expect("fixture written");
        eprintln!("golden fixture regenerated: {FIXTURE}");
        return;
    }
    let raw = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists (regenerate with SQIP_UPDATE_GOLDEN=1)");
    let golden: Vec<GoldenCell> = serde_json::from_str(&raw).expect("fixture parses");
    assert_eq!(
        cells.len(),
        golden.len(),
        "golden cell roster changed; regenerate deliberately"
    );
    for (now, then) in cells.iter().zip(&golden) {
        assert_eq!(now.cell, then.cell, "cell order changed");
        assert_eq!(
            now.stats, then.stats,
            "{}: SimStats diverged from the pre-refactor enum dispatch",
            now.cell
        );
    }
}
