//! Test-side helpers shared by the sweep suites.

use sqip::{Experiment, Processor, ResultSet, RunRecord};

/// The per-cell reference a sweep must reproduce bit for bit: every
/// cell of `experiment` simulated alone — its own stream, its own
/// dependence oracle — by a plain `Processor::try_run`, collected in
/// cell order.
pub fn per_cell_reference(experiment: &Experiment) -> ResultSet {
    let records = experiment
        .cells()
        .expect("experiment resolves into cells")
        .into_iter()
        .map(|cell| {
            let source = cell.workload.open().expect("workload opens");
            let stats = Processor::try_from_source(cell.config.clone(), source)
                .and_then(Processor::try_run)
                .unwrap_or_else(|e| panic!("{}: {e}", cell.label()));
            RunRecord {
                workload: cell.workload.name().to_string(),
                suite: cell.workload.suite(),
                design: cell.design,
                variant: cell.variant,
                stats,
            }
        })
        .collect();
    ResultSet::new(records)
}
