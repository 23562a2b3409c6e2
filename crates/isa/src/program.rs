//! Programs and the label-resolving builder ("assembler").

use std::collections::BTreeMap;

use sqip_types::{DataSize, Pc};

use crate::error::IsaError;
use crate::inst::StaticInst;
use crate::op::Op;
use crate::reg::Reg;
use crate::trace::TraceRecord;

/// A forward-referencable position in a program under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An executable program: a flat instruction array starting at PC 0.
#[derive(Debug, Clone)]
pub struct Program {
    insts: Vec<StaticInst>,
    /// Each instruction's [`TraceRecord::template`], built once here so
    /// the interpreter copies a record per step instead of deriving it.
    templates: Vec<TraceRecord>,
}

impl Program {
    /// The instruction at `pc`, or `None` past the end.
    #[must_use]
    pub fn fetch(&self, pc: Pc) -> Option<&StaticInst> {
        self.insts.get(pc.index())
    }

    /// The record template of the instruction at `pc`, or `None` past the
    /// end.
    pub(crate) fn template(&self, pc: Pc) -> Option<&TraceRecord> {
        self.templates.get(pc.index())
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Iterates over (PC, instruction) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &StaticInst)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (Pc::from_index(i), inst))
    }
}

/// Builds [`Program`]s with labels and a conventional assembler surface.
///
/// # Example
///
/// ```
/// use sqip_isa::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let r1 = Reg::new(1);
/// b.load_imm(r1, 3);
/// let top = b.label("loop");
/// b.add_imm(r1, r1, -1);
/// b.branch_nz(r1, top);
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 4);
/// # Ok::<(), sqip_isa::IsaError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<StaticInst>,
    labels: BTreeMap<String, usize>,
    /// (instruction index, label name) pairs awaiting resolution.
    fixups: Vec<(usize, String)>,
    duplicate: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Number of instructions emitted so far (== the index of the next).
    #[must_use]
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Places a label at the current position and returns it for later
    /// reference. The same `Label` may also be referenced *before* being
    /// placed via [`ProgramBuilder::forward_label`].
    pub fn label(&mut self, name: &str) -> Label {
        if self
            .labels
            .insert(name.to_owned(), self.insts.len())
            .is_some()
        {
            self.duplicate.get_or_insert_with(|| name.to_owned());
        }
        Label(self.insts.len())
    }

    /// Declares a label that will be placed later with
    /// [`ProgramBuilder::place`]. Branches to it are fixed up at build time.
    pub fn forward_label(&mut self, name: &str) -> String {
        name.to_owned()
    }

    /// Places a previously declared forward label here.
    pub fn place(&mut self, name: &str) {
        if self
            .labels
            .insert(name.to_owned(), self.insts.len())
            .is_some()
        {
            self.duplicate.get_or_insert_with(|| name.to_owned());
        }
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: StaticInst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// `dst = imm`.
    pub fn load_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.emit(StaticInst {
            op: Op::LoadImm,
            dst: Some(dst),
            src1: None,
            src2: None,
            imm,
        })
    }

    /// `dst = src1 + src2`.
    pub fn add(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Add, dst, src1, src2)
    }

    /// `dst = src1 - src2`.
    pub fn sub(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Sub, dst, src1, src2)
    }

    /// `dst = src1 * src2` (integer multiplier).
    pub fn mul(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Mul, dst, src1, src2)
    }

    /// `dst = src1 ^ src2`.
    pub fn xor(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Xor, dst, src1, src2)
    }

    /// `dst = src1 & src2`.
    pub fn and(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::And, dst, src1, src2)
    }

    /// `dst = src1 | src2`.
    pub fn or(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Or, dst, src1, src2)
    }

    /// `dst = src1 << (src2 & 63)`.
    pub fn shl(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Shl, dst, src1, src2)
    }

    /// `dst = src1 >> (src2 & 63)` (logical).
    pub fn shr(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::Shr, dst, src1, src2)
    }

    /// `dst = (src1 <s src2) ? 1 : 0`.
    pub fn cmp_lt(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::CmpLt, dst, src1, src2)
    }

    /// `dst = src1 + imm`.
    pub fn add_imm(&mut self, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.emit(StaticInst {
            op: Op::AddImm,
            dst: Some(dst),
            src1: Some(src1),
            src2: None,
            imm,
        })
    }

    /// `dst = src1 * imm`.
    pub fn mul_imm(&mut self, dst: Reg, src1: Reg, imm: i64) -> &mut Self {
        self.emit(StaticInst {
            op: Op::MulImm,
            dst: Some(dst),
            src1: Some(src1),
            src2: None,
            imm,
        })
    }

    /// FP add class: `dst = src1 + src2` with FP-add latency.
    pub fn fadd(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::FAdd, dst, src1, src2)
    }

    /// FP multiply class.
    pub fn fmul(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::FMul, dst, src1, src2)
    }

    /// FP divide class (long latency).
    pub fn fdiv(&mut self, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.alu(Op::FDiv, dst, src1, src2)
    }

    /// `dst = mem[base + disp]`, zero-extended.
    pub fn load(&mut self, size: DataSize, dst: Reg, base: Reg, disp: i64) -> &mut Self {
        self.emit(StaticInst {
            op: Op::Load(size),
            dst: Some(dst),
            src1: Some(base),
            src2: None,
            imm: disp,
        })
    }

    /// `mem[base + disp] = data`.
    pub fn store(&mut self, size: DataSize, data: Reg, base: Reg, disp: i64) -> &mut Self {
        self.emit(StaticInst {
            op: Op::Store(size),
            dst: None,
            src1: Some(base),
            src2: Some(data),
            imm: disp,
        })
    }

    /// Branch to `target` if `cond == 0`.
    pub fn branch_z(&mut self, cond: Reg, target: Label) -> &mut Self {
        self.emit(StaticInst {
            op: Op::BranchZ,
            dst: None,
            src1: Some(cond),
            src2: None,
            imm: target.0 as i64,
        })
    }

    /// Branch to `target` if `cond != 0`.
    pub fn branch_nz(&mut self, cond: Reg, target: Label) -> &mut Self {
        self.emit(StaticInst {
            op: Op::BranchNZ,
            dst: None,
            src1: Some(cond),
            src2: None,
            imm: target.0 as i64,
        })
    }

    /// Branch to a *named* (possibly not yet placed) label if `cond == 0`.
    pub fn branch_z_to(&mut self, cond: Reg, name: &str) -> &mut Self {
        self.fixups.push((self.insts.len(), name.to_owned()));
        self.emit(StaticInst {
            op: Op::BranchZ,
            dst: None,
            src1: Some(cond),
            src2: None,
            imm: 0,
        })
    }

    /// Branch to a named label if `cond != 0`.
    pub fn branch_nz_to(&mut self, cond: Reg, name: &str) -> &mut Self {
        self.fixups.push((self.insts.len(), name.to_owned()));
        self.emit(StaticInst {
            op: Op::BranchNZ,
            dst: None,
            src1: Some(cond),
            src2: None,
            imm: 0,
        })
    }

    /// Unconditional jump to a named label.
    pub fn jump_to(&mut self, name: &str) -> &mut Self {
        self.fixups.push((self.insts.len(), name.to_owned()));
        self.emit(StaticInst {
            op: Op::Jump,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        })
    }

    /// Call a named label, writing the return address to `link`.
    pub fn call_to(&mut self, link: Reg, name: &str) -> &mut Self {
        self.fixups.push((self.insts.len(), name.to_owned()));
        self.emit(StaticInst {
            op: Op::Call,
            dst: Some(link),
            src1: None,
            src2: None,
            imm: 0,
        })
    }

    /// Return through `link`.
    pub fn ret(&mut self, link: Reg) -> &mut Self {
        self.emit(StaticInst {
            op: Op::Ret,
            dst: None,
            src1: Some(link),
            src2: None,
            imm: 0,
        })
    }

    /// No-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(StaticInst::nop())
    }

    /// Halt.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(StaticInst {
            op: Op::Halt,
            dst: None,
            src1: None,
            src2: None,
            imm: 0,
        })
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::EmptyProgram`], [`IsaError::DuplicateLabel`], or
    /// [`IsaError::UnresolvedLabel`] when the assembly is malformed.
    pub fn build(mut self) -> Result<Program, IsaError> {
        if self.insts.is_empty() {
            return Err(IsaError::EmptyProgram);
        }
        if let Some(name) = self.duplicate.take() {
            return Err(IsaError::DuplicateLabel { name });
        }
        for (idx, name) in std::mem::take(&mut self.fixups) {
            let target = *self
                .labels
                .get(&name)
                .ok_or(IsaError::UnresolvedLabel { name: name.clone() })?;
            self.insts[idx].imm = target as i64;
        }
        let templates = self.insts.iter().map(TraceRecord::template).collect();
        Ok(Program {
            insts: self.insts,
            templates,
        })
    }

    fn alu(&mut self, op: Op, dst: Reg, src1: Reg, src2: Reg) -> &mut Self {
        self.emit(StaticInst {
            op,
            dst: Some(dst),
            src1: Some(src1),
            src2: Some(src2),
            imm: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_label_resolution() {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(1);
        b.load_imm(r, 2);
        let top = b.label("top");
        b.add_imm(r, r, -1);
        b.branch_nz(r, top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(Pc::from_index(2)).unwrap().imm, 1);
    }

    #[test]
    fn forward_label_resolution() {
        let mut b = ProgramBuilder::new();
        let r = Reg::new(1);
        b.load_imm(r, 0);
        b.branch_z_to(r, "exit");
        b.nop();
        b.place("exit");
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(Pc::from_index(1)).unwrap().imm, 3);
    }

    #[test]
    fn unresolved_label_errors() {
        let mut b = ProgramBuilder::new();
        b.jump_to("nowhere");
        assert_eq!(
            b.build().unwrap_err(),
            IsaError::UnresolvedLabel {
                name: "nowhere".into()
            }
        );
    }

    #[test]
    fn duplicate_label_errors() {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.label("x");
        b.nop();
        b.label("x");
        b.halt();
        assert_eq!(
            b.build().unwrap_err(),
            IsaError::DuplicateLabel { name: "x".into() }
        );
    }

    #[test]
    fn empty_program_errors() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            IsaError::EmptyProgram
        );
    }

    #[test]
    fn iter_yields_sequential_pcs() {
        let mut b = ProgramBuilder::new();
        b.nop().nop().halt();
        let p = b.build().unwrap();
        let pcs: Vec<usize> = p.iter().map(|(pc, _)| pc.index()).collect();
        assert_eq!(pcs, vec![0, 1, 2]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }
}
