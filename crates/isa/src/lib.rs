//! A small load/store micro-ISA, its functional executor, and golden
//! dynamic-trace generation.
//!
//! The paper evaluates on Alpha AXP binaries of SPEC2000/MediaBench. We do
//! not have those binaries (or an Alpha front end), so the reproduction
//! defines a compact register machine that exposes exactly the features the
//! store-load forwarding study needs: byte/half/word/quad loads and stores,
//! integer and floating-point operation classes with distinct latencies,
//! conditional branches, and calls/returns for the return-address stack.
//!
//! Programs are built with [`ProgramBuilder`] (an assembler with labels),
//! executed functionally by [`ArchState::step`], and lowered to a golden
//! dynamic-instruction stream that the cycle-level simulator in
//! `sqip-core` replays — either materialized as a [`Trace`], or pulled
//! record by record through the [`TraceSource`] trait ([`ProgramSource`]
//! streams a program without materialization; [`tracefile`] records and
//! replays streams on disk). The
//! trace carries architectural addresses and values; the timing simulator
//! recomputes *speculative* values through the modelled dataflow so that
//! forwarding mistakes propagate and pre-commit re-execution performs a real
//! value comparison.
//!
//! # Example
//!
//! ```
//! use sqip_isa::{ArchState, ProgramBuilder, Reg, trace_program};
//! use sqip_types::DataSize;
//!
//! let mut b = ProgramBuilder::new();
//! let (r1, r2) = (Reg::new(1), Reg::new(2));
//! b.load_imm(r1, 42);
//! b.store(DataSize::Quad, r1, Reg::ZERO, 0x100); // mem[0x100] = 42
//! b.load(DataSize::Quad, r2, Reg::ZERO, 0x100);  // r2 = mem[0x100]
//! b.halt();
//! let program = b.build()?;
//!
//! let trace = trace_program(&program, 100)?;
//! assert_eq!(trace.records().last().map(|r| r.pc.index()), Some(3));
//! # Ok::<(), sqip_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;
mod inst;
mod op;
mod program;
mod reg;
mod snapshot;
mod source;
mod tee;
mod trace;
pub mod tracefile;

pub use error::IsaError;
pub use exec::{ArchState, StepOutcome};
pub use inst::StaticInst;
pub use op::{Op, OpClass};
pub use program::{Label, Program, ProgramBuilder};
pub use reg::{Reg, NUM_REGS};
pub use source::{ProgramSource, TraceCursor, TraceSource};
pub use tee::{TeeCursor, TraceTee};
pub use trace::{trace_program, trace_program_with_state, Trace, TraceRecord, MAX_SRCS};
pub use tracefile::{record_trace, TraceReader, TraceWriter};
