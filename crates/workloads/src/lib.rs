//! Synthetic workload models standing in for the paper's SPEC2000 and
//! MediaBench traces.
//!
//! We do not have the Alpha binaries or inputs the paper simulated, so each
//! of the 47 programs in the paper's Table 3 is modelled by a synthetic
//! program composed from kernels that exercise the memory-dependence
//! behaviours the forwarding predictors actually see:
//!
//! * **forwarding pairs** — store then load of the same location within an
//!   iteration (register spills, struct fields): the bread-and-butter
//!   forwarding the FSP learns;
//! * **narrow/partial pairs** — mixed-size accesses, including loads wider
//!   than the covering store (which a single SQ entry cannot satisfy);
//! * **alias sites** — one load fed by four static stores selected by
//!   control flow, which thrashes a 2-way FSP set (the paper's eon/vortex
//!   pathology);
//! * **not-most-recent recurrences** — `X[i] = a·X[i−2]`, the pattern SQ
//!   index prediction fundamentally cannot forward and the delay predictor
//!   exists for;
//! * **far pairs** — store→load distances beyond the SQ, exercising
//!   distance-based unlearning;
//! * **pointer chases, plain streams, random/patterned branches and FP
//!   chains** — cache, TLB, branch and latency behaviour.
//!
//! Per-benchmark kernel mixes are chosen so each program's forwarding rate
//! and pathology profile lands in the regime Table 3 reports for it (see
//! DESIGN.md §3 for the substitution argument).
//!
//! The workload axis is *open*: beyond the fixed roster, the
//! [`WorkloadRegistry`] maps names to [`Workload`]s, named record streams
//! built from a spec or from any factory (mirroring `sqip-core`'s design
//! registry), the [`generator`] module
//! provides parameterized, scalable workload families (seeded random
//! kernel mixes, pointer chases, stride streams), and
//! [`WorkloadSpec::source`] streams any spec through the simulator
//! without materializing its trace — so run length is bounded by patience,
//! not memory.
//!
//! # Example
//!
//! ```
//! use sqip_workloads::{all_workloads, by_name, Workload};
//!
//! assert_eq!(all_workloads().len(), 47);
//! let w = by_name("vortex").expect("a Table 3 row");
//! let trace = w.trace().expect("workloads always halt");
//! assert!(trace.dynamic_loads() > 0);
//!
//! // The same workload, resolved by name and streamed instead:
//! let streamed = Workload::from_registry("vortex")?;
//! let mut source = streamed.open()?;
//! assert!(sqip_isa::TraceSource::next_record(&mut source)?.is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod generator;
mod registry;
mod spec;
mod suite;

pub use registry::{Workload, WorkloadRegistry, WorkloadRegistryError};
pub use spec::{Suite, WorkloadSpec};
pub use suite::{all_workloads, by_name, mediabench, specfp, specint, FIGURE5_WORKLOADS};
