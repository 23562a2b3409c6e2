//! Golden dynamic traces: the architecturally correct execution that the
//! cycle-level simulator replays.

use sqip_types::{Addr, DataSize, Pc, Seq};

use crate::error::IsaError;
use crate::exec::ArchState;
use crate::inst::StaticInst;
use crate::op::Op;
use crate::oracle::OracleBuilder;
use crate::program::Program;
use crate::reg::Reg;
use crate::source::interpret;

/// Maximum source operands one instruction can carry.
///
/// Every fixed per-instruction operand buffer in the simulator — the
/// record's `srcs`, the in-flight operand array, the scheduler's replay
/// wake buffer — is sized by this bound, so an ISA extension past two
/// sources is a change *here* that the type system then carries through
/// each of them (instead of a panic in the issue hot loop).
pub const MAX_SRCS: usize = 2;

/// One dynamic instruction of the golden execution.
///
/// `addr` and `result` are *architectural* (correct) values. The timing
/// simulator uses `addr` for cache/SQ indexing (oracle-address
/// simplification, see DESIGN.md §3) but recomputes each instruction's
/// *speculative* value from its producers, comparing against `result` only
/// where the real machine would: at pre-commit re-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Fetch-order sequence number (position in the trace).
    pub seq: Seq,
    /// Static PC.
    pub pc: Pc,
    /// The operation.
    pub op: Op,
    /// Destination register (zero register filtered out).
    pub dst: Option<Reg>,
    /// Source registers (zero register filtered out).
    pub srcs: [Option<Reg>; MAX_SRCS],
    /// The instruction's immediate.
    pub imm: i64,
    /// Effective address for loads/stores.
    pub addr: Option<Addr>,
    /// Access width for loads/stores (Quad otherwise; never read).
    pub size: DataSize,
    /// Golden result: load value, ALU result, call link, or store *data*.
    pub result: u64,
    /// Whether a control transfer was taken.
    pub taken: bool,
    /// Architectural next PC.
    pub next_pc: Pc,
}

impl Default for TraceRecord {
    /// A neutral filler record (a no-op `Add` with no operands), used to
    /// pre-size fixed record rings before any real record arrives.
    fn default() -> TraceRecord {
        TraceRecord {
            seq: Seq(0),
            pc: Pc::new(0),
            op: Op::Add,
            dst: None,
            srcs: [None, None],
            imm: 0,
            addr: None,
            size: DataSize::Quad,
            result: 0,
            taken: false,
            next_pc: Pc::new(0),
        }
    }
}

impl TraceRecord {
    /// The fields of `inst`'s record that do not depend on execution, as
    /// the interpreter's per-instruction template: it copies this and
    /// writes the dynamic fields (`seq`, `pc`, `addr`, `result`, `taken`,
    /// `next_pc`) in place. `pc` and the fall-through `next_pc` are
    /// dynamic too: a return to an unaligned address runs the instruction
    /// at `pc / 4` under its own `pc`.
    pub(crate) fn template(inst: &StaticInst) -> TraceRecord {
        TraceRecord {
            op: inst.op,
            dst: inst.dest(),
            srcs: inst.sources(),
            imm: inst.imm,
            size: inst.mem_size().unwrap_or_default(),
            ..TraceRecord::default()
        }
    }

    /// Whether this record is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.op.is_load()
    }

    /// Whether this record is a store.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.op.is_store()
    }

    /// Effective address, for memory operations.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-memory instruction.
    #[must_use]
    pub fn mem_addr(&self) -> Addr {
        self.addr
            .expect("mem_addr called on a non-memory instruction")
    }
}

/// A complete golden execution of a program.
#[derive(Debug, Clone)]
pub struct Trace {
    records: Vec<TraceRecord>,
    dynamic_loads: u64,
    dynamic_stores: u64,
}

impl Trace {
    /// The dynamic instruction stream, in fetch order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// A [`crate::TraceSource`] replaying this trace from the beginning.
    #[must_use]
    pub fn stream(&self) -> crate::TraceCursor<'_> {
        crate::TraceCursor::new(self)
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of dynamic loads.
    #[must_use]
    pub fn dynamic_loads(&self) -> u64 {
        self.dynamic_loads
    }

    /// Number of dynamic stores.
    #[must_use]
    pub fn dynamic_stores(&self) -> u64 {
        self.dynamic_stores
    }

    /// The architectural (oracle) forwarding rate: fraction of dynamic
    /// loads whose value was produced by one of the previous `window`
    /// dynamic stores (i.e. could forward from a `window`-entry SQ in the
    /// best case): the newest writer of any of the load's bytes, as the
    /// [`OracleBuilder`] finds it, lies within `window` stores. This is
    /// the quantity in the first column of the paper's Table 3, measured
    /// structurally on the trace.
    #[must_use]
    pub fn oracle_forwarding_rate(&self, window: usize) -> f64 {
        if self.dynamic_loads == 0 {
            return 0.0;
        }
        let mut oracle = OracleBuilder::new();
        let forwarding_loads = self
            .records
            .iter()
            .filter_map(|r| oracle.ingest(r))
            .filter(|f| f.store_dist < window as u64)
            .count();
        forwarding_loads as f64 / self.dynamic_loads as f64
    }
}

/// Functionally executes `program` from a fresh [`ArchState`] and returns
/// its golden trace.
///
/// # Errors
///
/// Propagates executor errors, and returns
/// [`IsaError::InstructionBudgetExceeded`] if the program does not halt
/// within `max_insts` dynamic instructions.
pub fn trace_program(program: &Program, max_insts: u64) -> Result<Trace, IsaError> {
    let mut state = ArchState::new();
    trace_program_with_state(program, &mut state, max_insts)
}

/// Like [`trace_program`] but starting from caller-provided state (e.g.
/// with a pre-initialised data section).
///
/// # Errors
///
/// Same as [`trace_program`].
pub fn trace_program_with_state(
    program: &Program,
    state: &mut ArchState,
    max_insts: u64,
) -> Result<Trace, IsaError> {
    let mut records = Vec::new();
    let mut seq = 0;
    loop {
        let filled = records.len();
        records.resize(filled + TRACE_BLOCK, TraceRecord::default());
        let (n, fault) = interpret(program, state, &mut seq, max_insts, &mut records[filled..]);
        records.truncate(filled + n);
        if let Some(e) = fault {
            return Err(e);
        }
        if n < TRACE_BLOCK {
            break;
        }
    }
    let loads = records.iter().filter(|r| r.is_load()).count() as u64;
    let stores = records.iter().filter(|r| r.is_store()).count() as u64;
    Ok(Trace {
        records,
        dynamic_loads: loads,
        dynamic_stores: stores,
    })
}

/// Records [`trace_program_with_state`] asks the interpreter for at a time.
const TRACE_BLOCK: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    fn forwarding_program() -> Program {
        // st A; ld A — a guaranteed forwarding pair, repeated 4 times.
        let mut b = ProgramBuilder::new();
        let (ctr, v, t) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(ctr, 4);
        b.load_imm(v, 0x55);
        let top = b.label("top");
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, t, Reg::ZERO, 0x100);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn trace_counts_memory_ops() {
        let t = trace_program(&forwarding_program(), 1000).unwrap();
        assert_eq!(t.dynamic_loads(), 4);
        assert_eq!(t.dynamic_stores(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.len() as u64, 2 + 4 * 4 + 1);
    }

    #[test]
    fn records_are_sequenced_and_architectural() {
        let t = trace_program(&forwarding_program(), 1000).unwrap();
        for (i, r) in t.records().iter().enumerate() {
            assert_eq!(r.seq, Seq(i as u64));
        }
        let loads: Vec<_> = t.records().iter().filter(|r| r.is_load()).collect();
        assert!(
            loads.iter().all(|r| r.result == 0x55),
            "loads see stored value"
        );
        assert!(loads.iter().all(|r| r.mem_addr() == Addr::new(0x100)));
    }

    #[test]
    fn oracle_forwarding_rate_sees_adjacent_pairs() {
        let t = trace_program(&forwarding_program(), 1000).unwrap();
        assert!(
            (t.oracle_forwarding_rate(64) - 1.0).abs() < 1e-12,
            "every load forwards"
        );
        // With a 0-entry window nothing can forward... window=1 still works
        // because the store is the immediately preceding one.
        assert!((t.oracle_forwarding_rate(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_exceeded_is_an_error() {
        let mut b = ProgramBuilder::new();
        let top = b.label("spin");
        b.jump_to("spin");
        let _ = top;
        let p = b.build().unwrap();
        assert_eq!(
            trace_program(&p, 10).unwrap_err(),
            IsaError::InstructionBudgetExceeded { budget: 10 }
        );
    }

    #[test]
    fn taken_and_next_pc_follow_control_flow() {
        let t = trace_program(&forwarding_program(), 1000).unwrap();
        let branches: Vec<_> = t.records().iter().filter(|r| r.op.is_branch()).collect();
        assert_eq!(branches.len(), 4);
        assert!(branches[..3].iter().all(|r| r.taken));
        assert!(!branches[3].taken, "final iteration falls through");
        assert_eq!(branches[0].next_pc, Pc::from_index(2));
    }
}
