//! Simulator configuration: the paper's §4.1 machine, with every knob the
//! evaluation sweeps exposed.

use sqip_mem::HierarchyConfig;
use sqip_predictors::{BranchConfig, DdpConfig, FspConfig, StoreSetsConfig};

use crate::error::SimError;
use crate::policy::{DesignCaps, DesignRegistry};

use serde::{Deserialize, Serialize};

/// A store-queue design *name*.
///
/// `SqDesign` is a thin, copyable, serializable handle that resolves
/// through the [`DesignRegistry`] to the design's [`DesignCaps`]. The
/// seven designs of the paper's Figure 4 are pre-registered (the
/// associated constants below), as is the `indexed-5-fwd+dly` extension;
/// new capability combinations register under new names via
/// [`DesignRegistry::register`] and then work everywhere a builtin does.
///
/// Names round-trip through [`std::fmt::Display`] / [`std::str::FromStr`]
/// (so CLI flags and JSON results can name designs); a design has exactly
/// one name.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SqDesign(&'static str);

#[allow(non_upper_case_globals)] // Rust handles; a design's one name is its string
impl SqDesign {
    /// Associative SQ, 3-cycle (= data cache) latency, *oracle* load
    /// scheduling: each load waits exactly for its architectural producing
    /// store and never violates. Figure 4's denominator.
    pub const IdealOracle: SqDesign = SqDesign("ideal-oracle");
    /// Associative SQ, 3-cycle latency, **original** Store Sets (SSIT/LFST)
    /// scheduling — Table 1's "preceding proposals" configuration. Differs
    /// from the reformulation in representing unbounded store dependences
    /// per load while serialising all stores within a set.
    pub const Associative3StoreSets: SqDesign = SqDesign("associative-3-storesets");
    /// Associative SQ, 3-cycle latency, reformulated Store Sets (FSP/SAT)
    /// scheduling. Figure 4's `associative-3`.
    pub const Associative3: SqDesign = SqDesign("associative-3");
    /// Associative SQ, 5-cycle latency; the scheduler optimistically
    /// assumes 3-cycle loads, so forwarded loads trigger dependent
    /// replays. Top (striped) part of Figure 4's `associative-5` stack.
    pub const Associative5Replay: SqDesign = SqDesign("associative-5-replay");
    /// Associative SQ, 5-cycle latency; the FSP predicts which loads will
    /// forward, and their dependents are scheduled at SQ latency, avoiding
    /// most replays. Bottom part of Figure 4's `associative-5` stack.
    pub const Associative5FwdPred: SqDesign = SqDesign("associative-5-fwdpred");
    /// The paper's speculative indexed SQ, 3-cycle latency, forwarding
    /// index prediction only (`indexed-3-fwd`).
    pub const Indexed3Fwd: SqDesign = SqDesign("indexed-3-fwd");
    /// The paper's full design: indexed SQ with forwarding *and* delay
    /// index prediction (`indexed-3-fwd+dly`).
    pub const Indexed3FwdDly: SqDesign = SqDesign("indexed-3-fwd+dly");
}

impl SqDesign {
    /// The paper's seven designs, in Figure 4's left-to-right order.
    ///
    /// Registry extensions (e.g. `indexed-5-fwd+dly`) are deliberately
    /// not part of this roster: it names exactly the Figure 4 bars. Use
    /// [`DesignRegistry::names`] for the full open roster.
    pub const ALL: [SqDesign; 7] = [
        SqDesign::IdealOracle,
        SqDesign::Associative3StoreSets,
        SqDesign::Associative3,
        SqDesign::Associative5Replay,
        SqDesign::Associative5FwdPred,
        SqDesign::Indexed3Fwd,
        SqDesign::Indexed3FwdDly,
    ];

    /// Wraps an interned name (registry internal; the public construction
    /// paths are the constants, [`std::str::FromStr`] and
    /// [`DesignRegistry::register`]).
    pub(crate) const fn from_static(name: &'static str) -> SqDesign {
        SqDesign(name)
    }

    /// The design's registered name (also its [`std::fmt::Display`] and
    /// Figure 4 label).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.0
    }

    /// The design's registered capabilities, resolved through
    /// [`DesignRegistry::global`], which holds every design a handle can
    /// name.
    #[must_use]
    pub fn caps(self) -> DesignCaps {
        DesignRegistry::global()
            .caps(self)
            .expect("every SqDesign handle names a registered design")
    }
}

impl std::fmt::Display for SqDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::fmt::Debug for SqDesign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// A design name that is not in the [`DesignRegistry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDesignError {
    name: String,
}

impl ParseDesignError {
    /// The unresolvable name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Display for ParseDesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown store-queue design `{}` (registered: {})",
            self.name,
            DesignRegistry::global().names().join(", ")
        )
    }
}

impl std::error::Error for ParseDesignError {}

impl std::str::FromStr for SqDesign {
    type Err = ParseDesignError;

    /// The inverse of [`std::fmt::Display`]: resolves a design name
    /// through the global registry.
    fn from_str(s: &str) -> Result<SqDesign, ParseDesignError> {
        DesignRegistry::global()
            .lookup(s)
            .ok_or_else(|| ParseDesignError {
                name: s.to_string(),
            })
    }
}

impl Serialize for SqDesign {
    fn serialize(&self) -> serde::Value {
        serde::Value::Str(self.0.to_string())
    }
}

impl Deserialize for SqDesign {
    fn deserialize(value: &serde::Value) -> Result<SqDesign, serde::Error> {
        match value {
            serde::Value::Str(s) => s
                .parse()
                .map_err(|e: ParseDesignError| serde::Error::custom(e.to_string())),
            _ => Err(serde::Error::custom("expected a design name string")),
        }
    }
}

/// Which simulation engine drives the run.
///
/// One pipeline, two schedulers: both engines run the *same* stages —
/// fetch, rename, execution and the LSQ, wakeups and the cancel rule,
/// commit, squash and flush — so every design decision, latency and
/// predictor update is shared code. They differ only in how
/// instructions wait, wake and issue, and in how the loop finds work;
/// differential tests pin them to each other (bit-identical
/// [`SimStats`] on random programs × designs × configurations, mid-run
/// and at the end):
///
/// * [`Engine::Event`] (the default) is the production engine: in-flight
///   state lives in ring-indexed slabs with free-list-backed waiter
///   lists, the ready set in per-port lanes, executions and broadcasts
///   ride 64-cycle near rings with the rest on an event heap (the event
///   wheel), idle cycles (no wakeups due, frontend stalled, no
///   commit-eligible head) are skipped in O(1), and derived statistics
///   are flushed per *active* cycle rather than per simulated cycle.
/// * [`Engine::Reference`] is the straightforward scheduler — a hash map
///   of in-flight instructions, an ordered ready set scanned each cycle,
///   one event heap, one cycle per step — kept as the differential
///   anchor for everything the event engine does differently, and for
///   perf comparisons (`perf` bin).
///
/// [`SimStats`]: crate::SimStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Engine {
    /// Event-driven engine with idle-cycle skip-ahead (production).
    #[default]
    Event,
    /// Straightforward per-cycle scheduler (differential anchor).
    Reference,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Event => "event",
            Engine::Reference => "reference",
        })
    }
}

/// How memory-ordering violations (and forwarding mis-speculation) are
/// detected — the two schemes §2 of the paper contrasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OrderingMode {
    /// SVW-filtered in-order pre-commit load re-execution (the paper's
    /// mechanism, required by the indexed SQ designs: it detects *value*
    /// errors, including forwarding from the wrong SQ entry).
    SvwReexecution,
    /// A conventional associative load queue: each executing store searches
    /// the LQ for younger already-executed loads to an overlapping address
    /// and flushes on a match. Timing-precise but blind to wrong-entry
    /// forwarding, so it is only sound for associative SQ designs.
    LqCam,
}

/// Per-class execution latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpLatencies {
    /// Simple integer ALU.
    pub int_alu: u64,
    /// Integer multiply.
    pub int_mul: u64,
    /// FP add/sub.
    pub fp_add: u64,
    /// FP multiply.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
    /// Branch resolution.
    pub branch: u64,
}

impl Default for OpLatencies {
    fn default() -> OpLatencies {
        OpLatencies {
            int_alu: 1,
            int_mul: 3,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 12,
            branch: 1,
        }
    }
}

/// Per-cycle issue-port limits (the paper's mix: 6 int, 4 FP, 1 branch,
/// 2 store, 2 load, 8 total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssueMix {
    /// Total instructions issued per cycle.
    pub total: usize,
    /// Integer ops (ALU + multiply).
    pub int: usize,
    /// FP ops.
    pub fp: usize,
    /// Branches.
    pub branch: usize,
    /// Loads.
    pub load: usize,
    /// Stores.
    pub store: usize,
}

impl Default for IssueMix {
    fn default() -> IssueMix {
        IssueMix {
            total: 8,
            int: 6,
            fp: 4,
            branch: 1,
            load: 2,
            store: 2,
        }
    }
}

/// The full machine configuration (defaults reproduce §4.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Store-queue design under test.
    pub design: SqDesign,
    /// Simulation engine (identical results either way; see [`Engine`]).
    pub engine: Engine,
    /// Memory-ordering detection scheme.
    pub ordering: OrderingMode,
    /// Reorder buffer entries (512).
    pub rob_size: usize,
    /// Issue queue entries (300).
    pub iq_size: usize,
    /// Load queue entries (128).
    pub lq_size: usize,
    /// Store queue entries (64).
    pub sq_size: usize,
    /// Fetch width (12, past a single taken branch).
    pub fetch_width: usize,
    /// Decode/rename width (8).
    pub rename_width: usize,
    /// Commit width (8).
    pub commit_width: usize,
    /// Issue-port mix.
    pub issue: IssueMix,
    /// Cycles from fetch to rename-eligible (3 fetch + 2 decode + 2 rename).
    pub front_latency: u64,
    /// Cycles from issue selection to execute (2 schedule + 3 register read).
    pub issue_to_exec: u64,
    /// Pipeline depth between completion and commit-eligibility
    /// (1 SVW + 3 re-execute stages).
    pub post_exec_depth: u64,
    /// Re-execution data-cache ports (re-executions per cycle).
    pub reexec_ports: usize,
    /// Execution latencies.
    pub latencies: OpLatencies,
    /// Memory hierarchy.
    pub hierarchy: HierarchyConfig,
    /// Branch predictor.
    pub branch: BranchConfig,
    /// Forwarding store predictor.
    pub fsp: FspConfig,
    /// Delay distance predictor.
    pub ddp: DdpConfig,
    /// Original Store Sets predictor (used only by
    /// [`SqDesign::Associative3StoreSets`]).
    pub store_sets: StoreSetsConfig,
    /// Store alias table entries (256).
    pub sat_entries: usize,
    /// Store sequence Bloom filter entries (2K, byte granularity).
    pub ssbf_entries: usize,
    /// Store PC table entries (2K, byte granularity).
    pub spct_entries: usize,
    /// Hardware SSN width in bits (16): renaming a store whose SSN wraps
    /// drains the pipeline and clears all SSN-holding structures.
    pub ssn_bits: u32,
}

impl SimConfig {
    /// The paper's configuration with the given SQ design.
    #[must_use]
    pub fn with_design(design: SqDesign) -> SimConfig {
        let ddp = DdpConfig {
            max_distance: 64, // = SQ size
            ..DdpConfig::default()
        };
        SimConfig {
            design,
            engine: Engine::default(),
            ordering: OrderingMode::SvwReexecution,
            rob_size: 512,
            iq_size: 300,
            lq_size: 128,
            sq_size: 64,
            fetch_width: 12,
            rename_width: 8,
            commit_width: 8,
            issue: IssueMix::default(),
            front_latency: 7,
            issue_to_exec: 5,
            post_exec_depth: 4,
            reexec_ports: 2,
            latencies: OpLatencies::default(),
            hierarchy: HierarchyConfig::default(),
            branch: BranchConfig::default(),
            fsp: FspConfig::default(),
            ddp,
            store_sets: StoreSetsConfig::default(),
            sat_entries: 256,
            ssbf_entries: 2048,
            spct_entries: 2048,
            ssn_bits: 16,
        }
    }

    /// Largest ROB, issue-queue, load-queue or store-queue size
    /// [`SimConfig::try_validate`] accepts (128× the paper's SQ).
    pub const MAX_WINDOW_ENTRIES: usize = 1 << 16;
    /// Largest fetch, rename or commit width, re-execution port count or
    /// issue-port count [`SimConfig::try_validate`] accepts.
    pub const MAX_WIDTH: usize = 64;
    /// Largest front-end, issue-to-execute, post-execute or execution
    /// latency, in cycles, [`SimConfig::try_validate`] accepts.
    pub const MAX_LATENCY: u64 = 1024;
    /// Largest predictor table (FSP, DDP, SAT, SSBF, SPCT, SSIT, LFST)
    /// [`SimConfig::try_validate`] accepts (8× Figure 5's largest FSP).
    pub const MAX_TABLE_ENTRIES: usize = 1 << 16;
    /// Widest hardware SSN, in bits, [`SimConfig::try_validate`] accepts.
    pub const MAX_SSN_BITS: u32 = 64;
    /// Highest associativity of a cache, the TLB or the BTB
    /// [`SimConfig::try_validate`] accepts.
    pub const MAX_WAYS: usize = 64;
    /// Most sets in one cache level [`SimConfig::try_validate`] accepts
    /// (32× the paper's L2).
    pub const MAX_CACHE_SETS: usize = 1 << 16;
    /// Longest cache line, in bytes, [`SimConfig::try_validate`] accepts.
    pub const MAX_LINE_BYTES: usize = 4096;
    /// Deepest return-address stack [`SimConfig::try_validate`] accepts.
    pub const MAX_RAS_DEPTH: usize = 1024;
    /// Longest global branch history, in bits, [`SimConfig::try_validate`]
    /// accepts (the history register is 64 bits wide).
    pub const MAX_HISTORY_BITS: u32 = 63;

    /// Validates the configuration: every size, width and latency in its
    /// accepted range, every predictor geometry constructible, and the
    /// cross-structure invariants.
    ///
    /// The accepted ranges are 1..=[`SimConfig::MAX_WINDOW_ENTRIES`] for
    /// the ROB, IQ, LQ and SQ; 1..=[`SimConfig::MAX_WIDTH`] for the fetch,
    /// rename and commit widths, the re-execution ports and each issue-port
    /// count; 0..=[`SimConfig::MAX_LATENCY`] for the front-end,
    /// issue-to-execute and post-execute latencies and each execution
    /// latency; 8..=[`SimConfig::MAX_SSN_BITS`] for the
    /// SSN width. SAT, SSBF, SPCT, SSIT and LFST sizes are powers of two,
    /// and FSP and DDP have at least one way and a power-of-two set count,
    /// all at most [`SimConfig::MAX_TABLE_ENTRIES`] entries.
    ///
    /// The nested geometries are checked the same way, so every
    /// constructor they feed succeeds. Each cache level has
    /// 1..=[`SimConfig::MAX_WAYS`] ways, a power-of-two line of at most
    /// [`SimConfig::MAX_LINE_BYTES`] bytes, and a power-of-two set count
    /// of at most [`SimConfig::MAX_CACHE_SETS`]. The TLB and the BTB have
    /// 1..=[`SimConfig::MAX_WAYS`] ways, a power-of-two set count and at
    /// most [`SimConfig::MAX_TABLE_ENTRIES`] entries, and TLB pages are a
    /// power of two. The branch direction tables are a power of two of at
    /// most [`SimConfig::MAX_TABLE_ENTRIES`], the return-address stack is
    /// 1..=[`SimConfig::MAX_RAS_DEPTH`] deep, and the global history has
    /// at most [`SimConfig::MAX_HISTORY_BITS`] bits. Hit, miss and memory
    /// latencies are at most [`SimConfig::MAX_LATENCY`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`], naming the field, if the configuration
    /// is out of range or inconsistent (e.g. DDP max distance differing
    /// from SQ size).
    pub fn try_validate(&self) -> Result<(), SimError> {
        let invalid = |msg: &str| Err(SimError::InvalidConfig(msg.to_string()));
        for (field, value, max) in [
            ("rob_size", self.rob_size, Self::MAX_WINDOW_ENTRIES),
            ("iq_size", self.iq_size, Self::MAX_WINDOW_ENTRIES),
            ("lq_size", self.lq_size, Self::MAX_WINDOW_ENTRIES),
            ("sq_size", self.sq_size, Self::MAX_WINDOW_ENTRIES),
            ("fetch_width", self.fetch_width, Self::MAX_WIDTH),
            ("rename_width", self.rename_width, Self::MAX_WIDTH),
            ("commit_width", self.commit_width, Self::MAX_WIDTH),
            ("reexec_ports", self.reexec_ports, Self::MAX_WIDTH),
            ("issue.total", self.issue.total, Self::MAX_WIDTH),
            ("issue.int", self.issue.int, Self::MAX_WIDTH),
            ("issue.fp", self.issue.fp, Self::MAX_WIDTH),
            ("issue.branch", self.issue.branch, Self::MAX_WIDTH),
            ("issue.load", self.issue.load, Self::MAX_WIDTH),
            ("issue.store", self.issue.store, Self::MAX_WIDTH),
        ] {
            if !(1..=max).contains(&value) {
                return invalid(&format!("{field} must be in 1..={max} (got {value})"));
            }
        }
        for (field, value) in [
            ("front_latency", self.front_latency),
            ("issue_to_exec", self.issue_to_exec),
            ("post_exec_depth", self.post_exec_depth),
            ("latencies.int_alu", self.latencies.int_alu),
            ("latencies.int_mul", self.latencies.int_mul),
            ("latencies.fp_add", self.latencies.fp_add),
            ("latencies.fp_mul", self.latencies.fp_mul),
            ("latencies.fp_div", self.latencies.fp_div),
            ("latencies.branch", self.latencies.branch),
            ("hierarchy.l1.hit_latency", self.hierarchy.l1.hit_latency),
            ("hierarchy.l2.hit_latency", self.hierarchy.l2.hit_latency),
            (
                "hierarchy.tlb.miss_latency",
                self.hierarchy.tlb.miss_latency,
            ),
            ("hierarchy.memory_latency", self.hierarchy.memory_latency),
        ] {
            if value > Self::MAX_LATENCY {
                return invalid(&format!(
                    "{field} must be at most {} cycles (got {value})",
                    Self::MAX_LATENCY
                ));
            }
        }
        for (field, entries, ways) in [
            ("fsp", self.fsp.entries, self.fsp.ways),
            ("ddp", self.ddp.entries, self.ddp.ways),
        ] {
            if entries > Self::MAX_TABLE_ENTRIES || ways == 0 || !(entries / ways).is_power_of_two()
            {
                return invalid(&format!(
                    "{field}: {entries} entries in {ways} ways is not a table of at most {} \
                     entries with at least one way and a power-of-two set count",
                    Self::MAX_TABLE_ENTRIES
                ));
            }
        }
        for (field, entries) in [
            ("sat_entries", self.sat_entries),
            ("ssbf_entries", self.ssbf_entries),
            ("spct_entries", self.spct_entries),
            ("store_sets.ssit_entries", self.store_sets.ssit_entries),
            ("store_sets.lfst_entries", self.store_sets.lfst_entries),
        ] {
            if !entries.is_power_of_two() || entries > Self::MAX_TABLE_ENTRIES {
                return invalid(&format!(
                    "{field} must be a power of two of at most {} (got {entries})",
                    Self::MAX_TABLE_ENTRIES
                ));
            }
        }
        self.validate_nested()?;
        if self.ddp.max_distance as usize != self.sq_size {
            return invalid(
                "DDP distances are bounded by SQ size (\u{2308}log2(SQ.size)\u{2309} bits)",
            );
        }
        if !(8..=Self::MAX_SSN_BITS).contains(&self.ssn_bits) {
            return invalid(&format!(
                "SSN width must cover the SQ: ssn_bits must be in 8..={} (got {})",
                Self::MAX_SSN_BITS,
                self.ssn_bits
            ));
        }
        if self.ordering == OrderingMode::LqCam && self.design.caps().indexed {
            return invalid(
                "an LQ CAM cannot detect wrong-entry forwarding; indexed designs \
                 require value-based re-execution (the paper's §2 argument)",
            );
        }
        Ok(())
    }

    /// The memory-hierarchy and branch-predictor part of
    /// [`SimConfig::try_validate`].
    fn validate_nested(&self) -> Result<(), SimError> {
        let invalid = |msg: String| Err(SimError::InvalidConfig(msg));
        let h = &self.hierarchy;
        for (field, c) in [("hierarchy.l1", h.l1), ("hierarchy.l2", h.l2)] {
            let geometry_ok = (1..=Self::MAX_WAYS).contains(&c.ways)
                && c.line_bytes.is_power_of_two()
                && c.line_bytes <= Self::MAX_LINE_BYTES
                && c.capacity_bytes / (c.ways * c.line_bytes) <= Self::MAX_CACHE_SETS
                && c.sets().is_power_of_two();
            if !geometry_ok {
                return invalid(format!(
                    "{field}: {} bytes in {} ways of {}-byte lines is not a cache with \
                     1..={} ways, a power-of-two line of at most {} bytes and a \
                     power-of-two set count of at most {}",
                    c.capacity_bytes,
                    c.ways,
                    c.line_bytes,
                    Self::MAX_WAYS,
                    Self::MAX_LINE_BYTES,
                    Self::MAX_CACHE_SETS
                ));
            }
        }
        let b = &self.branch;
        for (field, entries, ways) in [
            ("hierarchy.tlb", h.tlb.entries, h.tlb.ways),
            ("branch.btb", b.btb_entries, b.btb_ways),
        ] {
            if !(1..=Self::MAX_WAYS).contains(&ways)
                || entries > Self::MAX_TABLE_ENTRIES
                || !(entries / ways).is_power_of_two()
            {
                return invalid(format!(
                    "{field}: {entries} entries in {ways} ways is not a table of at most {} \
                     entries with 1..={} ways and a power-of-two set count",
                    Self::MAX_TABLE_ENTRIES,
                    Self::MAX_WAYS
                ));
            }
        }
        if !h.tlb.page_bytes.is_power_of_two() {
            return invalid(format!(
                "hierarchy.tlb.page_bytes must be a power of two (got {})",
                h.tlb.page_bytes
            ));
        }
        if !b.direction_entries.is_power_of_two() || b.direction_entries > Self::MAX_TABLE_ENTRIES {
            return invalid(format!(
                "branch.direction_entries must be a power of two of at most {} (got {})",
                Self::MAX_TABLE_ENTRIES,
                b.direction_entries
            ));
        }
        if !(1..=Self::MAX_RAS_DEPTH).contains(&b.ras_depth) {
            return invalid(format!(
                "branch.ras_depth must be in 1..={} (got {})",
                Self::MAX_RAS_DEPTH,
                b.ras_depth
            ));
        }
        if b.history_bits > Self::MAX_HISTORY_BITS {
            return invalid(format!(
                "branch.history_bits must be at most {} (got {})",
                Self::MAX_HISTORY_BITS,
                b.history_bits
            ));
        }
        Ok(())
    }

    /// Validates cross-structure invariants, panicking on violations.
    ///
    /// This is the legacy convenience wrapper around
    /// [`SimConfig::try_validate`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. DDP max distance
    /// differing from SQ size, zero widths).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::with_design(SqDesign::Indexed3FwdDly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_properties() {
        assert!(SqDesign::Indexed3FwdDly.caps().indexed);
        assert!(SqDesign::Indexed3FwdDly.caps().delay);
        assert!(!SqDesign::Indexed3Fwd.caps().delay);
        assert!(!SqDesign::Associative3.caps().indexed);
        assert_eq!(SqDesign::Associative5Replay.caps().sq_latency, 5);
        assert_eq!(SqDesign::Indexed3Fwd.caps().sq_latency, 3);
        assert!(SqDesign::IdealOracle.caps().oracle);
        assert!(SqDesign::Associative5FwdPred.caps().fwd_latency_pred);
    }

    #[test]
    fn default_config_is_paper_machine() {
        let c = SimConfig::default();
        c.validate();
        assert_eq!(c.rob_size, 512);
        assert_eq!(c.iq_size, 300);
        assert_eq!(c.lq_size, 128);
        assert_eq!(c.sq_size, 64);
        assert_eq!(c.fetch_width, 12);
        assert_eq!(c.issue.total, 8);
        assert_eq!(c.fsp.entries, 4096);
        assert_eq!(c.ssbf_entries, 2048);
        assert_eq!(c.ssn_bits, 16);
    }

    #[test]
    #[should_panic(expected = "bounded by SQ size")]
    fn validate_catches_ddp_sq_mismatch() {
        let c = SimConfig {
            sq_size: 32,
            ..SimConfig::default()
        };
        c.validate();
    }

    /// Every degenerate nested geometry is refused by name, and each
    /// largest accepted value still builds a processor.
    #[test]
    fn nested_geometries_are_bounded() {
        type Mutation = (&'static str, fn(&mut SimConfig));
        let refused: [Mutation; 14] = [
            ("hierarchy.l1", |c| c.hierarchy.l1.ways = 0),
            ("hierarchy.l1", |c| c.hierarchy.l1.line_bytes = 48),
            ("hierarchy.l2", |c| c.hierarchy.l2.capacity_bytes = 3 << 20),
            ("hierarchy.l2", |c| c.hierarchy.l2.capacity_bytes = 1 << 40),
            ("hierarchy.tlb", |c| c.hierarchy.tlb.ways = 0),
            ("hierarchy.tlb", |c| c.hierarchy.tlb.entries = 96),
            ("hierarchy.tlb.page_bytes", |c| {
                c.hierarchy.tlb.page_bytes = 0
            }),
            ("hierarchy.memory_latency", |c| {
                c.hierarchy.memory_latency = u64::MAX
            }),
            ("branch.btb", |c| c.branch.btb_ways = 0),
            ("branch.btb", |c| {
                c.branch.btb_ways = SimConfig::MAX_WAYS + 1
            }),
            ("branch.btb", |c| c.branch.btb_entries = usize::MAX),
            ("branch.direction_entries", |c| {
                c.branch.direction_entries = 0
            }),
            ("branch.ras_depth", |c| c.branch.ras_depth = 0),
            ("branch.history_bits", |c| c.branch.history_bits = 64),
        ];
        for (field, mutate) in refused {
            let mut c = SimConfig::default();
            mutate(&mut c);
            let err = c.try_validate().expect_err(field).to_string();
            assert!(err.contains(field), "{field}: {err}");
        }

        let mut c = SimConfig::default();
        c.hierarchy.l2.ways = SimConfig::MAX_WAYS;
        c.hierarchy.l2.line_bytes = SimConfig::MAX_LINE_BYTES;
        c.hierarchy.l2.capacity_bytes = SimConfig::MAX_WAYS * SimConfig::MAX_LINE_BYTES;
        c.hierarchy.tlb.ways = SimConfig::MAX_WAYS;
        c.hierarchy.tlb.entries = SimConfig::MAX_TABLE_ENTRIES;
        c.branch.btb_ways = SimConfig::MAX_WAYS;
        c.branch.btb_entries = SimConfig::MAX_TABLE_ENTRIES;
        c.branch.direction_entries = SimConfig::MAX_TABLE_ENTRIES;
        c.branch.ras_depth = SimConfig::MAX_RAS_DEPTH;
        c.branch.history_bits = SimConfig::MAX_HISTORY_BITS;
        c.try_validate()
            .expect("the largest nested geometries are valid");
        let _ = sqip_mem::Hierarchy::new(c.hierarchy);
        let _ = sqip_predictors::BranchPredictor::new(c.branch);
    }

    #[test]
    fn design_names_round_trip_through_fromstr() {
        // FromStr is the inverse of Display over the whole builtin roster.
        for design in SqDesign::ALL {
            let parsed: SqDesign = design.to_string().parse().unwrap();
            assert_eq!(parsed, design);
        }
        // Registry extensions parse too; unknown names do not.
        let ext: SqDesign = "indexed-5-fwd+dly".parse().unwrap();
        assert_eq!(ext.caps().sq_latency, 5);
        assert!(ext.caps().indexed);
        let err = "no-such-design".parse::<SqDesign>().unwrap_err();
        assert!(err.to_string().contains("no-such-design"), "{err}");
        assert!(err.to_string().contains("indexed-3-fwd+dly"), "{err}");
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> = SqDesign::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(labels.len(), SqDesign::ALL.len());
    }

    #[test]
    fn original_store_sets_is_an_associative_design() {
        let caps = SqDesign::Associative3StoreSets.caps();
        assert!(caps.original_store_sets);
        assert!(!caps.indexed);
        assert!(!caps.delay);
        assert_eq!(caps.sq_latency, 3);
    }

    #[test]
    fn lq_cam_is_valid_for_associative_designs() {
        let mut c = SimConfig::with_design(SqDesign::Associative3);
        c.ordering = OrderingMode::LqCam;
        c.validate(); // must not panic
    }

    #[test]
    #[should_panic(expected = "wrong-entry forwarding")]
    fn lq_cam_is_rejected_for_indexed_designs() {
        let mut c = SimConfig::with_design(SqDesign::Indexed3Fwd);
        c.ordering = OrderingMode::LqCam;
        c.validate();
    }
}
