//! Store-queue designs as registered capability sets.
//!
//! The paper's whole evaluation is a comparison of store-queue *designs*
//! that differ only in a few capabilities: associative or indexed SQ
//! access, SQ latency, delay index prediction, oracle scheduling, and
//! original or reformulated Store Sets. A design is therefore a
//! [`DesignCaps`] value registered by name in the [`DesignRegistry`];
//! every [`SqDesign`](crate::SqDesign) resolves there to its caps.
//!
//! One policy type implements the whole family: each engine owns a
//! `BuiltinPolicy` built from the configured design's caps, holding the
//! predictor state (FSP/SAT/DDP/SSBF/SPCT/Store Sets) and deciding at the
//! five pipeline touch-points:
//!
//! 1. **rename** — dependence / forwarding-index prediction;
//! 2. **schedule** — load latency speculation;
//! 3. **execute** — how a load probes the store queue (associative search
//!    vs speculative indexed read);
//! 4. **commit / verify** — the SVW filter and predictor training;
//! 5. **flush repair** — rolling predictor state back after a squash or
//!    an SSN wrap.
//!
//! The pipeline ([`Processor`](crate::Processor)) never branches on a
//! design name: it calls the policy and applies the returned decisions.
//! A new capability combination registers at runtime and immediately
//! works everywhere a builtin design does — `Experiment` sweeps, JSON
//! results, figure bins, CLI flags, checkpoints and `sqipd` jobs:
//!
//! ```
//! use sqip_core::{DesignCaps, DesignRegistry, Processor, SimConfig};
//! use sqip_isa::{trace_program, ProgramBuilder, Reg};
//! use sqip_types::DataSize;
//!
//! // The paper's indexed scheme with delay prediction at a 7-cycle SQ.
//! let design = DesignRegistry::global()
//!     .register("indexed-7-fwd+dly", DesignCaps::indexed(7).with_delay())?;
//! assert_eq!(design.caps().sq_latency, 7);
//!
//! let mut b = ProgramBuilder::new();
//! let (v, t) = (Reg::new(1), Reg::new(2));
//! b.load_imm(v, 7);
//! b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
//! b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
//! b.halt();
//! let trace = trace_program(&b.build()?, 100)?;
//! let stats = Processor::new(SimConfig::with_design(design), &trace).run();
//! assert_eq!(stats.committed, trace.len() as u64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod builtin;
mod registry;

pub(crate) use builtin::BuiltinPolicy;
pub use registry::{DesignRegistry, RegistryError};

use sqip_queues::StoreQueue;
use sqip_types::{AddrSpan, Pc, Ssn};

/// Static capabilities of a store-queue design: everything that tells one
/// design from another.
///
/// A design is fully described by its capabilities. Configuration
/// validation also reads them: [`DesignCaps::indexed`] rejects the
/// (unsound) LQ-CAM ordering mode for indexed designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignCaps {
    /// Load scheduling is oracle: the pipeline feeds the policy golden
    /// forwarding information (the architectural producing store) at
    /// rename.
    pub oracle: bool,
    /// Loads access the SQ by predicted index instead of associatively.
    pub indexed: bool,
    /// The delay index predictor (DDP) is active.
    pub delay: bool,
    /// Scheduling uses the original SSIT/LFST Store Sets predictor
    /// instead of the paper's FSP/SAT reformulation.
    pub original_store_sets: bool,
    /// Dependents of predicted-forwarding loads are scheduled at SQ
    /// latency (the "forwarding prediction" latency hybrid of §4.2).
    pub fwd_latency_pred: bool,
    /// SQ access latency in cycles for forwarded loads.
    pub sq_latency: u64,
}

impl DesignCaps {
    /// A plain associative design with the given SQ latency and the
    /// reformulated Store Sets (FSP/SAT) scheduler.
    #[must_use]
    pub const fn associative(sq_latency: u64) -> DesignCaps {
        DesignCaps {
            oracle: false,
            indexed: false,
            delay: false,
            original_store_sets: false,
            fwd_latency_pred: false,
            sq_latency,
        }
    }

    /// A speculatively-indexed design with the given SQ latency and
    /// forwarding index prediction.
    #[must_use]
    pub const fn indexed(sq_latency: u64) -> DesignCaps {
        DesignCaps {
            indexed: true,
            ..DesignCaps::associative(sq_latency)
        }
    }

    /// Adds delay index prediction (the DDP).
    #[must_use]
    pub const fn with_delay(mut self) -> DesignCaps {
        self.delay = true;
        self
    }

    /// Switches scheduling to oracle (golden forwarding information).
    #[must_use]
    pub const fn with_oracle(mut self) -> DesignCaps {
        self.oracle = true;
        self
    }

    /// Switches scheduling to the original SSIT/LFST Store Sets.
    #[must_use]
    pub const fn with_original_store_sets(mut self) -> DesignCaps {
        self.original_store_sets = true;
        self
    }

    /// Adds the forwarding-latency scheduling hybrid (§4.2).
    #[must_use]
    pub const fn with_fwd_latency_pred(mut self) -> DesignCaps {
        self.fwd_latency_pred = true;
        self
    }
}

sqip_snapshot::snapshot_struct!(DesignCaps {
    oracle,
    indexed,
    delay,
    original_store_sets,
    fwd_latency_pred,
    sq_latency,
});

/// The slice of pipeline state a policy may consult when deciding.
#[derive(Debug)]
pub(crate) struct PipelineView<'a> {
    /// SSN of the youngest renamed store (the rename-time counter).
    pub ssn_ren: Ssn,
    /// SSN of the youngest committed store (the high-water mark).
    pub ssn_cmt: Ssn,
    /// The store queue (read-only: occupancy / execution state probes).
    pub sq: &'a StoreQueue,
}

/// Golden forwarding information the pipeline hands an oracle policy at
/// load rename (only when [`DesignCaps::oracle`] is set).
#[derive(Debug, Clone, Copy)]
pub(crate) struct OracleHint {
    /// The SSN of the architectural producing store, if it is in flight.
    pub store_ssn: Option<Ssn>,
    /// Whether that store fully covers the load's bytes.
    pub covers: bool,
}

/// A policy's rename-time decisions for one load.
///
/// The pipeline copies the prediction fields into the load's in-flight
/// state and arms one scheduling gate per `Some` gate field.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadRename {
    /// FSP-predicted (partial) store PC the load expects to forward from.
    pub pred_store_pc: Option<u64>,
    /// Predicted forwarding SSN (the indexed-SQ read index).
    pub ssn_fwd: Ssn,
    /// Delay SSN: the load may not execute until this store has committed.
    pub ssn_dly: Ssn,
    /// Store whose execution the load's issue chases (it replays if it
    /// reaches execute first).
    pub wait_exec_ssn: Option<Ssn>,
    /// Whether the delay gate below is a DDP-imposed delay (for the
    /// delayed-loads statistics).
    pub delay_gated: bool,
    /// Gate the load until this store *executes*.
    pub exec_gate: Option<Ssn>,
    /// Gate the load until this store *commits*.
    pub commit_gate: Option<Ssn>,
}

impl LoadRename {
    /// No prediction: the load schedules and executes unconstrained.
    #[must_use]
    pub(crate) fn none() -> LoadRename {
        LoadRename {
            pred_store_pc: None,
            ssn_fwd: Ssn::NONE,
            ssn_dly: Ssn::NONE,
            wait_exec_ssn: None,
            delay_gated: false,
            exec_gate: None,
            commit_gate: None,
        }
    }
}

/// Outcome of a policy's store-queue probe for an executing load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SqProbe {
    /// Forward `value` from store `ssn` at `latency` cycles.
    Forward {
        /// The forwarding store (also becomes the load's SVW field).
        ssn: Ssn,
        /// The forwarded value.
        value: u64,
        /// SQ access latency for this load.
        latency: u64,
    },
    /// A store partially covers the load; no single entry can supply the
    /// value. The load stalls until that store commits, then retries.
    Partial {
        /// The partially-overlapping store.
        ssn: Ssn,
    },
    /// Nothing to forward: the load uses the data-cache value.
    Miss,
}

/// Everything a policy sees about a committing load when it trains.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoadCommitInfo {
    /// The load's static PC.
    pub pc: Pc,
    /// The load's address span.
    pub span: AddrSpan,
    /// Whether the load mis-forwarded and triggered a flush this commit.
    pub flushed: bool,
    /// The rename-time FSP prediction (partial store PC), if any.
    pub pred_store_pc: Option<u64>,
    /// The rename-time predicted forwarding SSN.
    pub ssn_fwd: Ssn,
    /// SSN of the youngest store older than the load in program order
    /// (equals `SSNcmt` at the load's commit).
    pub prev_store_ssn: Ssn,
    /// Whether the DDP delay gate was armed for this load.
    pub was_delayed: bool,
    /// Fetch-time branch-path history (for path-qualified FSP training).
    pub path: u64,
}
