//! The functional (architectural) executor.

use sqip_mem::MemImage;
use sqip_types::{Addr, Pc};

use crate::error::IsaError;
use crate::inst::StaticInst;
use crate::op::Op;
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};

/// The architectural state of a running program: registers, memory, PC.
#[derive(Debug, Clone)]
pub struct ArchState {
    regs: [u64; NUM_REGS],
    mem: MemImage,
    pc: Pc,
    halted: bool,
}

/// What one functional step did — everything the trace generator needs to
/// describe the dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// PC of the executed instruction.
    pub pc: Pc,
    /// PC of the next instruction (fall-through or branch target).
    pub next_pc: Pc,
    /// Effective address for memory operations.
    pub addr: Option<Addr>,
    /// Result value: destination value for value-producing ops, store data
    /// for stores, 0 otherwise.
    pub result: u64,
    /// Whether a control transfer was taken.
    pub taken: bool,
    /// Whether the instruction was `halt`.
    pub halted: bool,
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new()
    }
}

impl ArchState {
    /// Fresh state: zero registers, zero memory, PC 0.
    #[must_use]
    pub fn new() -> ArchState {
        ArchState {
            regs: [0; NUM_REGS],
            mem: MemImage::new(),
            pc: Pc::new(0),
            halted: false,
        }
    }

    /// Reads an architectural register (`r0` always reads 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// The memory image.
    #[must_use]
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// Mutable access to memory (for pre-initialising data sections).
    pub fn mem_mut(&mut self) -> &mut MemImage {
        &mut self.mem
    }

    /// Current PC.
    #[must_use]
    pub fn pc(&self) -> Pc {
        self.pc
    }

    /// Whether the program has executed `halt`.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction, updating state.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::PcOutOfRange`] if the PC walks past the program
    /// without hitting `halt`.
    pub fn step(&mut self, program: &Program) -> Result<StepOutcome, IsaError> {
        let inst = program.fetch(self.pc).ok_or(IsaError::PcOutOfRange {
            index: self.pc.index(),
        })?;
        Ok(self.execute(inst))
    }

    /// Executes `inst` as the instruction at the current PC, updating
    /// state (the second half of [`ArchState::step`], for callers that
    /// have already fetched it).
    pub(crate) fn execute(&mut self, inst: &StaticInst) -> StepOutcome {
        let pc = self.pc;
        let s1 = inst.src1.map_or(0, |r| self.reg(r));
        let s2 = inst.src2.map_or(0, |r| self.reg(r));

        let mut out = StepOutcome {
            pc,
            next_pc: pc.next(),
            addr: None,
            result: 0,
            taken: false,
            halted: false,
        };

        match inst.op {
            Op::Load(size) => {
                let addr = Addr::new(s1.wrapping_add(inst.imm as u64));
                let v = self.mem.read(addr, size);
                if let Some(d) = inst.dst {
                    self.set_reg(d, v);
                }
                out.addr = Some(addr);
                out.result = v;
            }
            Op::Store(size) => {
                let addr = Addr::new(s1.wrapping_add(inst.imm as u64));
                let data = size.truncate(s2);
                self.mem.write(addr, size, data);
                out.addr = Some(addr);
                out.result = data;
            }
            Op::BranchZ | Op::BranchNZ => {
                if inst.op.branch_taken(s1) {
                    out.taken = true;
                    out.next_pc = Pc::from_index(inst.imm as usize);
                }
            }
            Op::Jump => {
                out.taken = true;
                out.next_pc = Pc::from_index(inst.imm as usize);
            }
            Op::Call => {
                let link = pc.next().0;
                if let Some(d) = inst.dst {
                    self.set_reg(d, link);
                }
                out.result = link;
                out.taken = true;
                out.next_pc = Pc::from_index(inst.imm as usize);
            }
            Op::Ret => {
                out.taken = true;
                out.next_pc = Pc::new(s1);
            }
            Op::Nop => {}
            Op::Halt => {
                self.halted = true;
                out.halted = true;
                out.next_pc = pc;
            }
            value_op => {
                let v = value_op.eval(s1, s2, inst.imm);
                if let Some(d) = inst.dst {
                    self.set_reg(d, v);
                }
                out.result = v;
            }
        }

        self.pc = out.next_pc;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use sqip_types::DataSize;

    fn run(b: ProgramBuilder, budget: u64) -> ArchState {
        let p = b.build().unwrap();
        let mut st = ArchState::new();
        for _ in 0..budget {
            if st.is_halted() {
                break;
            }
            st.step(&p).unwrap();
        }
        assert!(st.is_halted(), "program should halt within budget");
        st
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut b = ProgramBuilder::new();
        let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.load_imm(r1, 6);
        b.load_imm(r2, 7);
        b.mul(r3, r1, r2);
        b.halt();
        let st = run(b, 10);
        assert_eq!(st.reg(Reg::new(3)), 42);
    }

    #[test]
    fn store_load_round_trip() {
        let mut b = ProgramBuilder::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        b.load_imm(r1, 0xABCD);
        b.store(DataSize::Half, r1, Reg::ZERO, 0x200);
        b.load(DataSize::Half, r2, Reg::ZERO, 0x200);
        b.halt();
        let st = run(b, 10);
        assert_eq!(st.reg(Reg::new(2)), 0xABCD);
    }

    #[test]
    fn loop_iterates_correct_count() {
        let mut b = ProgramBuilder::new();
        let (ctr, acc) = (Reg::new(1), Reg::new(2));
        b.load_imm(ctr, 5);
        let top = b.label("top");
        b.add_imm(acc, acc, 3);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        let st = run(b, 100);
        assert_eq!(st.reg(Reg::new(2)), 15);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new();
        let (link, r1) = (Reg::new(30), Reg::new(1));
        b.call_to(link, "f");
        b.halt();
        b.place("f");
        b.load_imm(r1, 99);
        b.ret(link);
        let st = run(b, 10);
        assert_eq!(st.reg(Reg::new(1)), 99);
    }

    #[test]
    fn pc_out_of_range_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let p = b.build().unwrap();
        let mut st = ArchState::new();
        st.step(&p).unwrap();
        assert_eq!(
            st.step(&p).unwrap_err(),
            IsaError::PcOutOfRange { index: 1 }
        );
    }

    #[test]
    fn step_outcome_reports_memory_ops() {
        let mut b = ProgramBuilder::new();
        let r1 = Reg::new(1);
        b.load_imm(r1, 7);
        b.store(DataSize::Quad, r1, Reg::ZERO, 0x80);
        b.halt();
        let p = b.build().unwrap();
        let mut st = ArchState::new();
        st.step(&p).unwrap();
        let out = st.step(&p).unwrap();
        assert_eq!(out.addr, Some(Addr::new(0x80)));
        assert_eq!(out.result, 7, "store data is the result field");
        let out = st.step(&p).unwrap();
        assert!(out.halted);
    }

    #[test]
    fn halt_pins_pc() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        let mut st = ArchState::new();
        let out = st.step(&p).unwrap();
        assert_eq!(out.next_pc, Pc::new(0), "halt does not advance PC");
        assert!(st.is_halted());
    }
}
