//! Front-end stages: fetch (with branch prediction) and rename (the
//! policy's dependence / index prediction touch-point).
//!
//! Identical decision-for-decision to the reference engine's frontend;
//! the only additions are ring-backed waiter registration and the
//! [`RenameStop`] record that feeds skip-ahead.

use sqip_isa::{Op, TraceRecord};
use sqip_types::Seq;

use crate::dyninst::{DynInst, InstState, Operand};
use crate::pipeline::event::{EventCore, RenameStop};
use crate::policy::{OracleHint, PipelineView};

impl EventCore<'_> {
    // ================================================================
    // Fetch
    // ================================================================

    // Per-cycle stage entry, inlined into the step. To time the stages
    // apart, mark it `#[inline(never)]` in a local profiling build.
    pub(crate) fn fetch_stage(&mut self) {
        if self.cycle < self.fetch_stall_until || self.pending_redirect.is_some() {
            return;
        }
        let mut budget = self.cfg.fetch_width;
        let mut taken_seen = false;
        let front_cap = self.front_cap();
        while budget > 0 && self.front_q.len() < front_cap {
            // Pulls from the trace source on first fetch; squash re-fetches
            // replay out of the in-flight record window. Only the four
            // control-flow fields are read — no whole-record copy.
            if !self.feed.fill(self.fetch_idx) {
                break; // stream exhausted (or failed; the step surfaces it)
            }
            let seq = Seq(self.fetch_idx as u64);
            let (op, taken, pc, next_pc) = {
                let r = self.feed.window.rec(seq);
                (r.op, r.taken, r.pc, r.next_pc)
            };
            let mispredicted = self.predict_branch(op, taken, pc, next_pc);
            self.front_q
                .push_back((seq, self.cycle + self.cfg.front_latency, self.path_history));
            if op.is_conditional() {
                self.path_history = (self.path_history << 1) | u64::from(taken);
            }
            self.fetch_idx += 1;
            budget -= 1;
            if mispredicted {
                self.pending_redirect = Some(seq);
                break;
            }
            if taken {
                if taken_seen {
                    break; // at most one taken branch per fetch cycle
                }
                taken_seen = true;
            }
        }
    }

    /// Consults the branch predictor for a fetched record; returns whether
    /// fetch must stall for resolution (misprediction).
    ///
    /// Tables and history are trained here, at fetch, rather than at
    /// execute: with oracle-path fetch the outcome is already known, and
    /// fetch-time training makes predictor accuracy a pure function of the
    /// fetch sequence instead of execution timing, so store-queue designs
    /// are compared under identical front-end behaviour.
    fn predict_branch(
        &mut self,
        op: Op,
        taken: bool,
        pc: sqip_types::Pc,
        next_pc: sqip_types::Pc,
    ) -> bool {
        match op {
            Op::BranchZ | Op::BranchNZ => {
                let pred = self.bp.predict_conditional(pc);
                let mis = pred.taken != taken; // direct targets resolve at decode
                self.stats.branch_mispredicts += u64::from(mis);
                self.bp.update(pc, true, taken, next_pc);
                mis
            }
            Op::Call => {
                let _ = self.bp.predict_unconditional(pc, true);
                false
            }
            Op::Jump => false,
            Op::Ret => {
                let pred = self.bp.predict_return(pc);
                let mis = pred.target != Some(next_pc);
                self.stats.return_mispredicts += u64::from(mis);
                mis
            }
            _ => false,
        }
    }

    // ================================================================
    // Rename
    // ================================================================

    // Per-cycle stage entry, inlined into the step. To time the stages
    // apart, mark it `#[inline(never)]` in a local profiling build.
    pub(crate) fn rename_stage(&mut self) {
        self.rename_stop = RenameStop::Width;
        for _ in 0..self.cfg.rename_width {
            let Some(&(seq, ready_at, path)) = self.front_q.front() else {
                self.rename_stop = RenameStop::FrontEmpty;
                break;
            };
            if ready_at > self.cycle {
                self.rename_stop = RenameStop::NotReady(ready_at);
                break;
            }
            if self.rob.is_full() || self.iq_count >= self.cfg.iq_size {
                self.rename_stop = RenameStop::Structural;
                break;
            }
            // The structural checks need only the op; the record is
            // copied once the instruction actually renames.
            let op = self.rec(seq).op;
            if op.is_load() && self.lq.is_full() {
                self.rename_stop = RenameStop::Structural;
                break;
            }
            if op.is_store() {
                if self.sq.is_full() {
                    self.rename_stop = RenameStop::Structural;
                    break;
                }
                // SSN wrap-around: drain the pipeline, then clear every
                // SSN-holding structure (§3.1).
                if self.ssn_ren.next().low_bits(self.cfg.ssn_bits) == 0 || self.draining_for_wrap {
                    if !self.rob.is_empty() {
                        self.draining_for_wrap = true;
                        self.rename_stop = RenameStop::Structural;
                        break;
                    }
                    self.draining_for_wrap = false;
                    self.policy.on_ssn_wrap();
                    self.stats.ssn_wraps += 1;
                }
            }
            self.front_q.pop_front();
            let rec = *self.rec(seq);
            self.rename_one(seq, &rec, path);
        }
    }

    fn rename_one(&mut self, seq: Seq, rec: &TraceRecord, path: u64) {
        // Claim the sequence number's value-ring slot: clears leftovers
        // both from a squashed incarnation of this seq and from the slot's
        // previous (long-retired) tenant.
        self.vals.reset(seq.0);
        let mut inst = DynInst::new(seq, self.incarnation, self.ssn_ren);
        inst.nondelay_ready = self.cycle;
        inst.path = path;
        inst.op_class = rec.op.class();
        inst.has_dst = rec.dst.is_some();

        // Resolve source operands against the rename map.
        let mut gates = 0u32;
        for (i, src) in rec.srcs.iter().enumerate() {
            inst.srcs[i] = match src {
                None => Operand::None,
                Some(r) => match self.rename_map[r.index()] {
                    Some(p) => {
                        if self.vals.wake_time(p.0) > self.cycle {
                            gates += 1;
                            self.wake_on_value.push(p.0, seq.0);
                        }
                        Operand::InFlight(p)
                    }
                    None => Operand::Value(self.committed_regs[r.index()]),
                },
            };
        }

        if rec.is_store() {
            self.ssn_ren = self.ssn_ren.next();
            inst.my_ssn = self.ssn_ren;
            self.sq
                .allocate(inst.my_ssn, rec.pc)
                .expect("SQ fullness checked before rename");
            // Policy touch-point: store rename (SAT update, in-set
            // serialisation under original Store Sets).
            let view = PipelineView {
                ssn_ren: self.ssn_ren,
                ssn_cmt: self.ssn_cmt,
                sq: &self.sq,
            };
            if let Some(pred) = self.policy.rename_store(rec.pc, inst.my_ssn, seq, &view) {
                if pred.is_in_flight(self.ssn_cmt) && !self.sq.is_executed(pred) {
                    gates += 1;
                    self.wake_on_store_exec.push(pred.0, seq.0);
                }
            }
        }

        if rec.is_load() {
            inst.lq_id = self
                .lq
                .allocate(seq, rec.pc)
                .expect("LQ fullness checked before rename");
            gates += self.attach_load_predictions(&mut inst, rec);
        }

        if let Some(d) = rec.dst {
            self.rename_map[d.index()] = Some(seq);
        }

        inst.gates = gates;
        inst.state = if gates == 0 {
            InstState::Ready
        } else {
            InstState::Waiting
        };
        if gates == 0 {
            self.ready_q.insert(seq.0, rec.op.class());
        }
        self.iq_count += 1;
        self.rob
            .push_back(seq)
            .expect("ROB fullness checked before rename");
        self.insts.insert(seq.0, inst);
    }

    /// Policy touch-point: load rename. Feeds the policy (plus golden
    /// forwarding information for oracle designs), copies its decisions
    /// into the in-flight state and arms the scheduling gates it asked
    /// for. Returns the number of gates added.
    fn attach_load_predictions(&mut self, inst: &mut DynInst, rec: &TraceRecord) -> u32 {
        let hint = if self.caps.oracle {
            self.feed.window.fwd(inst.seq).map(|f| OracleHint {
                store_ssn: self.insts.get(f.store_seq.0).map(|s| s.my_ssn),
                covers: f.covers,
            })
        } else {
            None
        };
        let view = PipelineView {
            ssn_ren: self.ssn_ren,
            ssn_cmt: self.ssn_cmt,
            sq: &self.sq,
        };
        let decision = self.policy.rename_load(rec.pc, inst.path, hint, &view);

        inst.pred_store_pc = decision.pred_store_pc;
        inst.ssn_fwd = decision.ssn_fwd;
        inst.ssn_dly = decision.ssn_dly;
        inst.wait_exec_ssn = decision.wait_exec_ssn;
        inst.delay_gated = decision.delay_gated;

        // Arm the gates, dropping any that could never release (already
        // executed / already committed) so no policy can deadlock a load.
        let mut gates = 0;
        if let Some(ssn) = decision.exec_gate {
            if ssn.is_in_flight(self.ssn_cmt) && !self.sq.is_executed(ssn) {
                gates += 1;
                self.wake_on_store_exec.push(ssn.0, inst.seq.0);
            }
        }
        if let Some(ssn) = decision.commit_gate {
            if ssn > self.ssn_cmt {
                gates += 1;
                self.wake_on_store_commit.push(ssn.0, inst.seq.0);
            }
        }
        gates
    }
}
