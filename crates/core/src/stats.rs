//! Simulation statistics — every number the paper's tables and figures
//! report, plus diagnostics.

use sqip_mem::{CacheStats, Hierarchy};

use serde::{Deserialize, Serialize};

/// Counters and derived metrics from one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches (conditional only).
    pub branches: u64,
    /// Conditional branch direction mispredictions.
    pub branch_mispredicts: u64,
    /// Return-address mispredictions.
    pub return_mispredicts: u64,

    /// Loads whose architectural producing store was within SQ-size dynamic
    /// stores at commit — the "load forwarding rate" population of Table 3.
    pub forwarding_relevant_loads: u64,
    /// Loads that actually obtained their value from the SQ.
    pub loads_forwarded: u64,
    /// Loads that obtained a *wrong* value, detected by re-execution
    /// (each costs a pipeline flush) — "mis-forwardings".
    pub mis_forwards: u64,
    /// Pipeline flushes (mis-forwardings + ordering violations; same
    /// mechanism detects both).
    pub flushes: u64,
    /// Dynamic instructions squashed by flushes (lost work).
    pub squashed: u64,

    /// Loads whose execution was delayed by the delay index predictor.
    pub loads_delayed: u64,
    /// Total cycles of DDP-induced delay across delayed loads.
    pub delay_cycles: u64,
    /// Loads stalled on a partial (non-containing) SQ overlap.
    pub partial_stalls: u64,

    /// Loads re-executed before commit (SVW-filtered).
    pub re_executions: u64,
    /// Loads that the *unfiltered* Cain–Lipasti rule (executed in the
    /// presence of an older store with unknown address) would re-execute —
    /// for the §2 ablation (≈9% SPECint unfiltered vs ≈1% with SVW).
    pub naive_reexec_candidates: u64,
    /// Commit-stage stalls because re-execution ports were exhausted.
    pub reexec_port_stalls: u64,

    /// Dependent-instruction replays (scheduler mis-speculation on load
    /// latency: cache misses, or forwarding on a slow associative SQ).
    pub replays: u64,
    /// SSN wrap-around pipeline drains.
    pub ssn_wraps: u64,

    /// L1 data cache statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// TLB statistics.
    pub tlb: CacheStats,
}

impl SimStats {
    /// Folds the cycle count and the hierarchy's cache and TLB counters
    /// in, so the statistics are consistent at any point of a run.
    /// Idempotent; both engines call it after every step.
    pub(crate) fn sync(&mut self, cycle: u64, hierarchy: &Hierarchy) {
        self.cycles = cycle;
        self.l1 = hierarchy.l1_stats();
        self.l2 = hierarchy.l2_stats();
        self.tlb = hierarchy.tlb_stats();
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Percentage of dynamic loads that are forwarding-relevant
    /// (Table 3, "%load forward").
    #[must_use]
    pub fn pct_loads_forwarding(&self) -> f64 {
        percent(self.forwarding_relevant_loads, self.loads)
    }

    /// Mis-forwardings per 1000 dynamic loads (Table 3, "mis-forward/1000").
    #[must_use]
    pub fn mis_forwards_per_1000(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.mis_forwards as f64 * 1000.0 / self.loads as f64
        }
    }

    /// Percentage of dynamic loads delayed by the DDP (Table 3, "%load
    /// delay").
    #[must_use]
    pub fn pct_loads_delayed(&self) -> f64 {
        percent(self.loads_delayed, self.loads)
    }

    /// Average delay cycles per *delayed* load (Table 3, "avg. delay
    /// cycles").
    #[must_use]
    pub fn avg_delay_cycles(&self) -> f64 {
        if self.loads_delayed == 0 {
            0.0
        } else {
            self.delay_cycles as f64 / self.loads_delayed as f64
        }
    }

    /// Fraction of loads re-executed (the SVW filter's figure of merit).
    #[must_use]
    pub fn pct_loads_reexecuted(&self) -> f64 {
        percent(self.re_executions, self.loads)
    }

    /// Fraction of loads the unfiltered rule would re-execute.
    #[must_use]
    pub fn pct_loads_naive_reexec(&self) -> f64 {
        percent(self.naive_reexec_candidates, self.loads)
    }

    /// Conditional branch misprediction rate, in percent.
    #[must_use]
    pub fn branch_mispredict_rate(&self) -> f64 {
        percent(self.branch_mispredicts, self.branches)
    }
}

sqip_snapshot::snapshot_struct!(SimStats {
    cycles,
    committed,
    loads,
    stores,
    branches,
    branch_mispredicts,
    return_mispredicts,
    forwarding_relevant_loads,
    loads_forwarded,
    mis_forwards,
    flushes,
    squashed,
    loads_delayed,
    delay_cycles,
    partial_stalls,
    re_executions,
    naive_reexec_candidates,
    reexec_port_stalls,
    replays,
    ssn_wraps,
    l1,
    l2,
    tlb,
});

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 * 100.0 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            cycles: 100,
            committed: 250,
            loads: 1000,
            forwarding_relevant_loads: 129,
            mis_forwards: 3,
            loads_delayed: 23,
            delay_cycles: 1219,
            re_executions: 10,
            branches: 50,
            branch_mispredicts: 2,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.pct_loads_forwarding() - 12.9).abs() < 1e-12);
        assert!((s.mis_forwards_per_1000() - 3.0).abs() < 1e-12);
        assert!((s.pct_loads_delayed() - 2.3).abs() < 1e-12);
        assert!((s.avg_delay_cycles() - 53.0).abs() < 1e-9);
        assert!((s.pct_loads_reexecuted() - 1.0).abs() < 1e-12);
        assert!((s.branch_mispredict_rate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.pct_loads_forwarding(), 0.0);
        assert_eq!(s.mis_forwards_per_1000(), 0.0);
        assert_eq!(s.avg_delay_cycles(), 0.0);
    }
}

#[cfg(test)]
mod derived_tests {
    use super::*;

    #[test]
    fn table3_row_shape_for_the_paper_average() {
        // The paper's All.avg row: 12.9% forwarding, 1.8 then 0.3
        // mis-forwards per 1000, 2.3% delayed at 53.1 cycles — verify the
        // metric plumbing reconstructs a row like that exactly.
        let s = SimStats {
            loads: 100_000,
            forwarding_relevant_loads: 12_900,
            mis_forwards: 30,
            loads_delayed: 2_300,
            delay_cycles: 122_130,
            ..SimStats::default()
        };
        assert!((s.pct_loads_forwarding() - 12.9).abs() < 1e-9);
        assert!((s.mis_forwards_per_1000() - 0.3).abs() < 1e-9);
        assert!((s.pct_loads_delayed() - 2.3).abs() < 1e-9);
        assert!((s.avg_delay_cycles() - 53.1).abs() < 1e-9);
    }

    #[test]
    fn reexec_rates_are_percentages_of_loads() {
        let s = SimStats {
            loads: 200,
            re_executions: 2,
            naive_reexec_candidates: 18,
            ..SimStats::default()
        };
        assert!((s.pct_loads_reexecuted() - 1.0).abs() < 1e-9);
        assert!(
            (s.pct_loads_naive_reexec() - 9.0).abs() < 1e-9,
            "the paper's 9% vs 1% contrast"
        );
    }
}
