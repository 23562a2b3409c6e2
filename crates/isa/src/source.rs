//! Pull-based trace sources: the simulator's open input axis.
//!
//! A [`TraceSource`] yields [`TraceRecord`]s one at a time, so a consumer
//! (the cycle-level simulator in `sqip-core`) only ever holds a bounded
//! in-flight window of records — run length is no longer capped by memory.
//! Three producers are built in:
//!
//! * a materialized [`Trace`] (via [`Trace::stream`] / [`TraceCursor`]),
//! * a streaming functional interpreter over a [`Program`]
//!   ([`ProgramSource`] — `trace_program` without the `Vec`),
//! * the compact on-disk trace format
//!   ([`TraceReader`](crate::TraceReader) in [`crate::tracefile`]).

use sqip_types::Seq;

use crate::error::IsaError;
use crate::exec::ArchState;
use crate::program::Program;
use crate::trace::{Trace, TraceRecord};

/// A pull-based stream of dynamic [`TraceRecord`]s.
///
/// Implementations produce records in fetch order. Consumers renumber
/// records sequentially as they pull (sources *should* emit correct
/// [`TraceRecord::seq`] values, but a consumer never depends on it), and
/// may buffer a bounded lookahead — a conforming source must therefore not
/// assume its records are consumed immediately.
///
/// # Example
///
/// A source is anything that can produce records — here, a materialized
/// trace and a streaming interpreter over the same program, yielding the
/// identical record sequence without materializing it:
///
/// ```
/// use sqip_isa::{trace_program, ProgramBuilder, ProgramSource, Reg, TraceSource};
///
/// let mut b = ProgramBuilder::new();
/// let r1 = Reg::new(1);
/// b.load_imm(r1, 3);
/// let top = b.label("top");
/// b.add_imm(r1, r1, -1);
/// b.branch_nz(r1, top);
/// b.halt();
/// let program = b.build()?;
///
/// let trace = trace_program(&program, 1000)?;
/// let mut streamed = ProgramSource::new(program, 1000);
/// let mut cursor = trace.stream();
/// while let Some(rec) = cursor.next_record()? {
///     assert_eq!(streamed.next_record()?, Some(rec));
/// }
/// assert_eq!(streamed.next_record()?, None);
/// # Ok::<(), sqip_isa::IsaError>(())
/// ```
pub trait TraceSource {
    /// Pulls the next record, or `None` once the stream is exhausted.
    ///
    /// After `None` (or an error), further calls keep returning the same
    /// outcome.
    ///
    /// # Errors
    ///
    /// Source-specific: interpreter faults ([`IsaError::PcOutOfRange`],
    /// [`IsaError::InstructionBudgetExceeded`]), trace-file I/O or
    /// corruption ([`IsaError::TraceIo`], [`IsaError::TraceFormat`]).
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError>;

    /// Pulls up to `out.len()` records into the front of `out`, returning
    /// how many were written. The block-pull fast path: one virtual call
    /// amortised over a whole block, letting sources decode runs of
    /// records without per-record dispatch.
    ///
    /// Semantics are exactly those of calling [`TraceSource::next_record`]
    /// `out.len()` times and stopping at the first `None` or error:
    ///
    /// * `Ok(n)` with `n < out.len()` means the stream ended (`n` may be
    ///   0) **or** the source failed after producing `n > 0` records — in
    ///   the latter case the error is sticky and resurfaces on the next
    ///   call, exactly where the scalar path would have raised it.
    /// * `Err(e)` is returned only when *no* record could be produced.
    ///
    /// The default implementation loops the scalar path, so every
    /// existing source conforms automatically.
    ///
    /// # Errors
    ///
    /// Same as [`TraceSource::next_record`].
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        let mut n = 0;
        while n < out.len() {
            match self.next_record() {
                Ok(Some(rec)) => {
                    out[n] = rec;
                    n += 1;
                }
                Ok(None) => break,
                // Sticky-error contract: the same error resurfaces on the
                // next pull, so a partial block loses nothing.
                Err(e) if n == 0 => return Err(e),
                Err(_) => break,
            }
        }
        Ok(n)
    }

    /// The exact total record count, when cheaply known without running
    /// the stream (materialized traces); `None` for generative sources.
    fn len_hint(&self) -> Option<u64> {
        None
    }
}

impl<S: TraceSource + ?Sized> TraceSource for &mut S {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        (**self).next_record()
    }
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        (**self).next_block(out)
    }
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

impl<S: TraceSource + ?Sized> TraceSource for Box<S> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        (**self).next_record()
    }
    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        (**self).next_block(out)
    }
    fn len_hint(&self) -> Option<u64> {
        (**self).len_hint()
    }
}

/// A [`TraceSource`] over a borrowed, fully materialized [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    records: &'a [TraceRecord],
    pos: usize,
}

impl<'a> TraceCursor<'a> {
    pub(crate) fn new(trace: &'a Trace) -> TraceCursor<'a> {
        TraceCursor {
            records: trace.records(),
            pos: 0,
        }
    }
}

impl TraceSource for TraceCursor<'_> {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        let rec = self.records.get(self.pos).copied();
        self.pos += rec.is_some() as usize;
        Ok(rec)
    }

    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        let rest = &self.records[self.pos.min(self.records.len())..];
        let n = rest.len().min(out.len());
        out[..n].copy_from_slice(&rest[..n]);
        self.pos += n;
        Ok(n)
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }
}

/// A streaming functional interpreter: executes a [`Program`] and yields
/// its golden trace, a block at a time, without materializing it.
///
/// Semantically identical to [`crate::trace_program`] — same records, same
/// budget handling — but in O(1) memory, so multi-million-instruction (or
/// effectively unbounded) workloads can drive the simulator directly.
/// Both run the one interpreter loop, which steps straight into the
/// caller's block.
#[derive(Debug, Clone)]
pub struct ProgramSource {
    program: Program,
    state: ArchState,
    budget: u64,
    emitted: u64,
}

impl ProgramSource {
    /// Streams `program` from a fresh [`ArchState`], erroring (like
    /// [`crate::trace_program`]) if it does not halt within `max_insts`
    /// dynamic instructions.
    #[must_use]
    pub fn new(program: Program, max_insts: u64) -> ProgramSource {
        ProgramSource::with_state(program, ArchState::new(), max_insts)
    }

    /// Like [`ProgramSource::new`] but starting from caller-provided
    /// state (e.g. with a pre-initialised data section).
    #[must_use]
    pub fn with_state(program: Program, state: ArchState, max_insts: u64) -> ProgramSource {
        ProgramSource {
            program,
            state,
            budget: max_insts,
            emitted: 0,
        }
    }

    /// Records emitted so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl TraceSource for ProgramSource {
    fn next_record(&mut self) -> Result<Option<TraceRecord>, IsaError> {
        let mut one = [TraceRecord::default()];
        Ok((self.next_block(&mut one)? == 1).then_some(one[0]))
    }

    fn next_block(&mut self, out: &mut [TraceRecord]) -> Result<usize, IsaError> {
        match interpret(
            &self.program,
            &mut self.state,
            &mut self.emitted,
            self.budget,
            out,
        ) {
            (0, Some(fault)) => Err(fault),
            (n, _) => Ok(n),
        }
    }
}

/// The interpreter loop: executes `program` from `state` straight into
/// `out`, numbering records from `*seq` (advanced past each one), until
/// `out` is full, the program halts, or a fault stops it. Returns the
/// records written and the fault, if one stopped the loop.
///
/// Each record checks halt, then the budget (`*seq` reaching `budget`
/// without a halt is [`IsaError::InstructionBudgetExceeded`]), then the PC
/// ([`IsaError::PcOutOfRange`]). A fault leaves `state` and `*seq` as they
/// were, so the next call raises it again: that is what makes both errors
/// sticky.
pub(crate) fn interpret(
    program: &Program,
    state: &mut ArchState,
    seq: &mut u64,
    budget: u64,
    out: &mut [TraceRecord],
) -> (usize, Option<IsaError>) {
    for (n, slot) in out.iter_mut().enumerate() {
        if state.is_halted() {
            return (n, None);
        }
        if *seq >= budget {
            return (n, Some(IsaError::InstructionBudgetExceeded { budget }));
        }
        let pc = state.pc();
        let Some(template) = program.template(pc) else {
            return (n, Some(IsaError::PcOutOfRange { index: pc.index() }));
        };
        *slot = *template;
        slot.seq = Seq(*seq);
        state.execute(slot);
        *seq += 1;
    }
    (out.len(), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::reg::Reg;
    use crate::trace::trace_program;
    use sqip_types::{DataSize, Seq};

    fn looping_program(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let (ctr, v) = (Reg::new(1), Reg::new(2));
        b.load_imm(ctr, iters);
        let top = b.label("top");
        b.store(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.load(DataSize::Quad, v, Reg::ZERO, 0x100);
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        b.halt();
        b.build().unwrap()
    }

    fn drain(mut s: impl TraceSource) -> Vec<TraceRecord> {
        let mut v = Vec::new();
        while let Some(r) = s.next_record().unwrap() {
            v.push(r);
        }
        v
    }

    #[test]
    fn cursor_replays_the_trace_exactly() {
        let trace = trace_program(&looping_program(7), 10_000).unwrap();
        let cursor = trace.stream();
        assert_eq!(cursor.len_hint(), Some(trace.len() as u64));
        assert_eq!(drain(cursor), trace.records());
    }

    #[test]
    fn program_source_matches_trace_program() {
        let trace = trace_program(&looping_program(9), 10_000).unwrap();
        let streamed = drain(ProgramSource::new(looping_program(9), 10_000));
        assert_eq!(streamed, trace.records());
    }

    #[test]
    fn program_source_budget_error_is_sticky() {
        let mut b = ProgramBuilder::new();
        let _ = b.label("spin");
        b.jump_to("spin");
        let mut s = ProgramSource::new(b.build().unwrap(), 5);
        for _ in 0..5 {
            assert!(s.next_record().unwrap().is_some());
        }
        let err = s.next_record().unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 5 });
        assert_eq!(s.next_record().unwrap_err(), err, "error repeats");
    }

    #[test]
    fn exhausted_sources_keep_returning_none() {
        let mut s = ProgramSource::new(looping_program(1), 100);
        while s.next_record().unwrap().is_some() {}
        assert_eq!(s.next_record().unwrap(), None);
    }

    fn drain_blocks(s: &mut impl TraceSource, block: usize) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        let mut buf = vec![TraceRecord::default(); block];
        loop {
            let n = s.next_block(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        out
    }

    #[test]
    fn block_pull_matches_scalar_pull_across_block_sizes() {
        let golden = trace_program(&looping_program(9), 10_000).unwrap();
        for block in [1usize, 3, 7, 64, 257] {
            // TraceCursor's memcpy and ProgramSource's interpreter loop
            // both conform bit for bit.
            assert_eq!(
                drain_blocks(&mut golden.stream(), block),
                golden.records(),
                "TraceCursor, block {block}"
            );
            assert_eq!(
                drain_blocks(&mut ProgramSource::new(looping_program(9), 10_000), block),
                golden.records(),
                "ProgramSource, block {block}"
            );
        }
    }

    #[test]
    fn block_pull_surfaces_errors_after_the_partial_block() {
        let mut b = ProgramBuilder::new();
        let _ = b.label("spin");
        b.jump_to("spin");
        // Budget 5, blocks of 4: one full block, then a partial block of
        // 1 — the error is withheld so the record is not lost — then the
        // sticky error itself, exactly where the scalar path raises it.
        let mut s = ProgramSource::new(b.build().unwrap(), 5);
        let mut buf = [TraceRecord::default(); 4];
        assert_eq!(s.next_block(&mut buf).unwrap(), 4);
        assert_eq!(s.next_block(&mut buf).unwrap(), 1);
        let err = s.next_block(&mut buf).unwrap_err();
        assert_eq!(err, IsaError::InstructionBudgetExceeded { budget: 5 });
        assert_eq!(s.next_block(&mut buf).unwrap_err(), err, "sticky");
    }

    /// SplitMix64: a tiny seeded generator for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn reg(&mut self) -> Reg {
            // r0 included, so the zero-register filtering is exercised.
            Reg::new(self.below(8) as u8)
        }
    }

    /// A seeded program and budget: a counted loop over random ALU, memory
    /// and forward-branch instructions, then one of four endings — halt,
    /// walking off the end, spinning until the budget runs out, or a
    /// return to an unaligned address that then falls through to halt.
    /// Budgets are drawn short of and past the dynamic length, so every
    /// ending also meets the budget check somewhere.
    fn seeded_program(seed: u64) -> (Program, u64) {
        let mut rng = Rng(seed);
        let mut b = ProgramBuilder::new();
        let ctr = Reg::new(9);
        b.load_imm(ctr, 1 + rng.below(12) as i64);
        let top = b.label("top");
        for i in 0..1 + rng.below(12) {
            let (d, s1, s2) = (rng.reg(), rng.reg(), rng.reg());
            let size = DataSize::ALL[rng.below(4) as usize];
            let disp = rng.below(256) as i64;
            match rng.below(7) {
                0 => b.add(d, s1, s2),
                1 => b.mul(d, s1, s2),
                2 => b.add_imm(d, s1, disp - 128),
                3 => b.fdiv(d, s1, s2),
                4 => b.load(size, d, Reg::ZERO, disp),
                5 => b.store(size, s1, Reg::ZERO, disp),
                _ => {
                    let skip = format!("skip{i}");
                    b.branch_z_to(s1, &skip).xor(d, s1, s2);
                    b.place(&skip);
                    &mut b
                }
            };
        }
        b.add_imm(ctr, ctr, -1);
        b.branch_nz(ctr, top);
        match seed % 4 {
            0 => {
                b.halt();
            }
            1 => {}
            2 => {
                b.label("spin");
                b.jump_to("spin");
            }
            _ => {
                let target = 4 * (b.here() as i64 + 2) + 1 + rng.below(3) as i64;
                b.load_imm(Reg::new(10), target).ret(Reg::new(10));
                b.nop().nop().halt();
            }
        }
        (b.build().unwrap(), 1 + rng.below(300))
    }

    /// The records a program yields and the fault that ends them, built
    /// one [`ArchState::step`] at a time from the static instruction —
    /// independent of the interpreter loop and its templates.
    fn reference(program: &Program, budget: u64) -> (Vec<TraceRecord>, Option<IsaError>) {
        let mut st = ArchState::new();
        let mut recs = Vec::new();
        loop {
            if st.is_halted() {
                return (recs, None);
            }
            if recs.len() as u64 >= budget {
                return (recs, Some(IsaError::InstructionBudgetExceeded { budget }));
            }
            let pc = st.pc();
            let Some(&inst) = program.fetch(pc) else {
                return (recs, Some(IsaError::PcOutOfRange { index: pc.index() }));
            };
            let out = st.step(program).unwrap();
            recs.push(TraceRecord {
                seq: Seq(recs.len() as u64),
                pc,
                op: inst.op,
                dst: inst.dest(),
                srcs: inst.sources(),
                imm: inst.imm,
                addr: out.addr,
                size: inst.mem_size().unwrap_or_default(),
                result: out.result,
                taken: out.taken,
                next_pc: out.next_pc,
            });
        }
    }

    /// Drains `s` with `pull` until it ends or fails, then pulls once more
    /// to check that the ending repeats. Running past `cap` records fails
    /// at once rather than spinning on a source that misses its ending.
    fn drain_with(
        s: &mut ProgramSource,
        cap: usize,
        mut pull: impl FnMut(&mut ProgramSource, &mut Vec<TraceRecord>) -> Result<bool, IsaError>,
    ) -> (Vec<TraceRecord>, Option<IsaError>) {
        let mut recs = Vec::new();
        let end = loop {
            match pull(s, &mut recs) {
                Ok(true) => assert!(recs.len() <= cap, "ran past {cap} records"),
                Ok(false) => break None,
                Err(e) => break Some(e),
            }
        };
        let len = recs.len();
        assert_eq!(pull(s, &mut recs).err(), end, "the ending repeats");
        assert_eq!(recs.len(), len, "nothing follows the ending");
        (recs, end)
    }

    #[test]
    fn generator_block_pulls_match_scalar_pulls_and_the_reference() {
        let mut endings = [0usize; 3];
        for seed in 0..200u64 {
            let (program, budget) = seeded_program(seed);
            let (golden, fault) = reference(&program, budget);
            let cap = golden.len();
            endings[match fault {
                None => 0,
                Some(IsaError::InstructionBudgetExceeded { .. }) => 1,
                Some(_) => 2,
            }] += 1;

            let mut sizes = Rng(seed ^ 0xB10C);
            let mut buf = [TraceRecord::default(); 200];
            let blocks = drain_with(
                &mut ProgramSource::new(program.clone(), budget),
                cap,
                |s, recs| {
                    let want = 1 + sizes.below(200) as usize;
                    let n = s.next_block(&mut buf[..want])?;
                    recs.extend_from_slice(&buf[..n]);
                    Ok(n > 0)
                },
            );
            let scalar = drain_with(
                &mut ProgramSource::new(program.clone(), budget),
                cap,
                |s, recs| {
                    let rec = s.next_record()?;
                    recs.extend(rec);
                    Ok(rec.is_some())
                },
            );
            assert_eq!(
                blocks,
                (golden.clone(), fault.clone()),
                "blocks, seed {seed}"
            );
            assert_eq!(
                scalar,
                (golden.clone(), fault.clone()),
                "scalar, seed {seed}"
            );
            match trace_program(&program, budget) {
                Ok(trace) => assert_eq!((trace.records(), None), (&golden[..], fault)),
                Err(e) => assert_eq!(Some(e), fault, "trace_program, seed {seed}"),
            }
        }
        assert!(
            endings.iter().all(|&n| n >= 20),
            "halts, budget faults and PC faults all covered: {endings:?}"
        );
    }
}
