//! `sqip-core` — a cycle-level out-of-order processor implementing
//! **store-load forwarding via store queue index prediction** (Sha, Martin
//! & Roth, MICRO-38, 2005), together with every baseline the paper
//! compares against.
//!
//! # What this crate models
//!
//! An 8-way, 512-entry-window, 19-stage dynamically scheduled processor
//! whose load/store unit is an open design axis: each [`SqDesign`] name
//! resolves through the [`DesignRegistry`] to a [`DesignCaps`]
//! capability set, and one policy implements every capability
//! combination, owning the predictor state and the pipeline decisions
//! (see the [`policy`] module). New combinations register at runtime.
//! Pre-registered:
//!
//! | [`SqDesign`] | SQ access | latency | scheduling |
//! |---|---|---|---|
//! | `ideal-oracle` | associative | 3 | oracle |
//! | `associative-3-storesets` | associative | 3 | original SSIT/LFST Store Sets |
//! | `associative-3` | associative | 3 | FSP/SAT (reformulated Store Sets) |
//! | `associative-5-replay` | associative | 5 | FSP/SAT, optimistic 3-cycle wakeup |
//! | `associative-5-fwdpred` | associative | 5 | FSP/SAT, forward-predicted wakeup |
//! | `indexed-3-fwd` | **indexed** | 3 | forwarding index prediction |
//! | `indexed-3-fwd+dly` | **indexed** | 3 | forwarding + delay index prediction |
//! | `indexed-5-fwd+dly` | **indexed** | 5 | the indexed scheme at a slow SQ (registry extension) |
//!
//! Memory ordering and forwarding mis-speculation are verified by
//! SVW-filtered in-order pre-commit load re-execution, which also trains
//! the predictors — exactly the paper's mechanism.
//!
//! # Quick start
//!
//! ```
//! use sqip_core::{Processor, SimConfig, SqDesign};
//! use sqip_isa::{trace_program, ProgramBuilder, Reg};
//! use sqip_types::DataSize;
//!
//! // A store-load forwarding loop.
//! let mut b = ProgramBuilder::new();
//! let (ctr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
//! b.load_imm(ctr, 100);
//! b.load_imm(v, 7);
//! let top = b.label("top");
//! b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
//! b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
//! b.add_imm(ctr, ctr, -1);
//! b.branch_nz(ctr, top);
//! b.halt();
//! let trace = trace_program(&b.build()?, 10_000)?;
//!
//! let stats = Processor::new(SimConfig::with_design(SqDesign::Indexed3FwdDly), &trace).run();
//! assert_eq!(stats.committed, trace.len() as u64);
//! assert!(stats.loads_forwarded > 0, "the indexed SQ forwards");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dyninst;
mod error;
mod observer;
mod pipeline;
pub mod policy;
mod shared;
mod stats;

pub use config::{
    Engine, IssueMix, OpLatencies, OrderingMode, ParseDesignError, SimConfig, SqDesign,
};
pub use error::SimError;
pub use observer::{ObserverAction, SimObserver};
pub use pipeline::{EvKind, Processor, StepOutcome};
pub use shared::{oracle_tap, OracleFeed, OracleTap};
pub use sqip_isa::{OracleBuilder, OracleFwd};

/// Building blocks of the event-driven engine, exposed for
/// documentation, benchmarking and reuse.
///
/// [`engine::EventWheel`] is the event engine's queue for the events its
/// near rings cannot hold (re-wakes, far broadcasts, past-requested
/// executions), delivered in the reference engine's heap order;
/// [`EvKind`] names the event kinds it carries. Engine selection is a
/// configuration knob ([`SimConfig::engine`], an [`Engine`]), not a
/// compile-time feature, so the differential tests and the `perf`
/// harness can run both cores in one process.
pub mod engine {
    pub use crate::pipeline::event::{EventWheel, SchedCounters, WheelEvent};
    pub use crate::pipeline::window::FETCH_BLOCK;
}
pub use policy::{DesignCaps, DesignRegistry, RegistryError};
pub use stats::SimStats;
