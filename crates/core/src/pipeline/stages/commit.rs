//! Commit: the SVW check, filtered re-execution, predictor training and
//! flush repair (the policy's verify and repair touch-points).

use sqip_isa::TraceRecord;
use sqip_types::{Seq, Ssn};

use crate::config::OrderingMode;
use crate::dyninst::InstState;
use crate::pipeline::stages::{Pipeline, Scheduler, WaitList};
use crate::policy::LoadCommitInfo;

impl<S: Scheduler> Pipeline<'_, S> {
    pub(crate) fn commit_stage(&mut self) {
        let mut reexec_budget = self.cfg.reexec_ports;
        for _ in 0..self.cfg.commit_width {
            let Some(&seq) = self.rob.front() else { break };
            // One table read answers eligibility and captures the retire
            // value for the non-memory fast path.
            let (eligible, value) = {
                let inst = self.sched.inst(seq.0).expect("ROB head in flight");
                (
                    inst.state == InstState::Done && inst.commit_eligible <= self.cycle,
                    inst.value,
                )
            };
            if !eligible {
                break;
            }
            // Non-memory instructions need only two record fields; loads
            // and stores take the full copy in their own paths.
            let (op, dst) = {
                let r = self.rec(seq);
                (r.op, r.dst)
            };
            if op.is_load() {
                let rec = *self.rec(seq);
                if !self.commit_load(seq, &rec, &mut reexec_budget) {
                    break; // re-exec port stall or flush: stop committing
                }
            } else if op.is_store() {
                let rec = *self.rec(seq);
                self.commit_store(seq, &rec);
            }
            if op.is_conditional() {
                self.stats.branches += 1;
            }
            self.retire(seq, dst, value);
        }
    }

    /// Returns `false` if commit must stop (port stall — load stays; or a
    /// flush was triggered — load already retired inside).
    fn commit_load(&mut self, seq: Seq, rec: &TraceRecord, reexec_budget: &mut usize) -> bool {
        let span = rec.mem_addr().span(rec.size);
        // One table read covers the SVW check, the training record, and
        // the per-load statistics below.
        let (svw, older_unknown, value, fwd, info, delay_gated, delay) = {
            let inst = self.sched.inst(seq.0).expect("committing load in flight");
            (
                inst.svw,
                inst.older_unknown,
                inst.value,
                inst.forwarded_from,
                LoadCommitInfo {
                    pc: rec.pc,
                    span,
                    flushed: false, // patched below if the check flushes
                    pred_store_pc: inst.pred_store_pc,
                    ssn_fwd: inst.ssn_fwd,
                    prev_store_ssn: inst.prev_store_ssn,
                    was_delayed: inst.delay_gated,
                    path: inst.path,
                },
                inst.delay_gated,
                inst.ddp_delay(),
            )
        };
        self.stats.naive_reexec_candidates += u64::from(older_unknown);

        // SVW filter (policy touch-point): re-execute only if a store the
        // load is vulnerable to wrote its address. Under the conventional
        // LQ CAM, ordering was verified at store execution and no
        // re-execution happens at all.
        let needs_reexec =
            self.cfg.ordering == OrderingMode::SvwReexecution && self.policy.svw_newest(span) > svw;
        let mut flush = false;
        if needs_reexec {
            if *reexec_budget == 0 {
                self.stats.reexec_port_stalls += 1;
                return false;
            }
            *reexec_budget -= 1;
            self.stats.re_executions += 1;
            self.hierarchy.touch(rec.mem_addr());
            let correct = self.commit_mem.read(rec.mem_addr(), rec.size);
            debug_assert_eq!(
                correct, rec.result,
                "commit-time memory must match the golden trace"
            );
            if value != correct {
                // Mis-forwarding (or ordering violation): fix the load's
                // value from re-execution and flush everything younger.
                self.stats.mis_forwards += 1;
                let inst = self.sched.inst_mut(seq.0).expect("load in flight");
                inst.value = correct;
                self.vals.set_spec_value(seq.0, correct);
                flush = true;
            }
        }

        // Policy touch-point: commit-time training (FSP/DDP per Table 1
        // and §3.2–3.3, or original-Store-Sets violation merging).
        let info = LoadCommitInfo {
            flushed: flush,
            ..info
        };
        self.policy.train_load_commit(&info);

        // Per-load statistics.
        self.stats.loads += 1;
        self.stats.loads_forwarded += u64::from(fwd.is_some());
        if let Some(f) = self.feed.window.fwd(seq) {
            if f.store_dist < self.cfg.sq_size as u64 {
                self.stats.forwarding_relevant_loads += 1;
            }
        }
        if delay_gated && delay > 0 {
            self.stats.loads_delayed += 1;
            self.stats.delay_cycles += delay;
        }

        let _ = self.lq.commit_head();
        if flush {
            // The load's value was just corrected from re-execution.
            let corrected = self
                .sched
                .inst(seq.0)
                .expect("committing load in flight")
                .value;
            self.retire(seq, rec.dst, corrected);
            self.flush_younger(seq);
            return false;
        }
        true
    }

    fn commit_store(&mut self, seq: Seq, rec: &TraceRecord) {
        let entry = self.sq.commit_head();
        debug_assert_eq!(
            entry.ssn,
            self.sched.inst(seq.0).expect("committing store").my_ssn
        );
        let span = rec.mem_addr().span(rec.size);
        debug_assert_eq!(
            entry.data, rec.result,
            "store data must be architecturally correct by commit"
        );
        self.commit_mem.write(rec.mem_addr(), rec.size, entry.data);
        self.hierarchy.touch(rec.mem_addr());
        // Policy touch-point: verification-structure update (SSBF/SPCT).
        self.policy.store_committed(rec.pc, span, entry.ssn);
        self.ssn_cmt = entry.ssn;
        self.stats.stores += 1;

        // Release delay-gated and partial-stalled loads waiting on stores
        // up to this SSN.
        self.wake_all(WaitList::StoreCommit, entry.ssn.0);
    }

    /// Retires the ROB head. `value` is the instruction's committed
    /// result, captured by the caller's table read (post-re-execution for
    /// a flushing load).
    fn retire(&mut self, seq: Seq, dst: Option<sqip_isa::Reg>, value: u64) {
        if let Some(d) = dst {
            self.committed_regs[d.index()] = value;
            if self.rename_map[d.index()] == Some(seq) {
                self.rename_map[d.index()] = None;
            }
        }
        let _ = self.rob.pop_front();
        self.sched.remove(seq.0);
        self.policy.on_retire(seq);
        self.stats.committed += 1;
        self.last_commit_cycle = self.cycle;
        // Commit is in-order, so the retiring instruction is always the
        // record window's front: its record can never be re-fetched.
        self.feed.window.pop_front();
    }

    /// Mid-window squash (LQ CAM violation): everything at or younger than
    /// `from` is squashed and refetched; older instructions stay in flight.
    pub(crate) fn squash_from(&mut self, from: Seq) {
        self.stats.flushes += 1;
        self.incarnation += 1;

        // (Value-ring slots of squashed instructions are not cleared here:
        // nothing reads a squashed slot before its re-rename resets it.)
        // The ROB tail at or younger than `from` is exactly the squashed
        // set (the in-flight table's keys mirror the ROB contents).
        let keep = self.rob.iter().take_while(|&&s| s < from).count();
        let squashed = self.rob.len() - keep;
        self.stats.squashed += squashed as u64;
        for i in keep..self.rob.len() {
            let s = *self.rob.get(i).expect("ROB index in range");
            self.sched.remove(s.0);
        }
        self.rob.truncate(keep);
        self.sched.squash_ready(from.0);
        self.iq_count = self
            .rob
            .iter()
            .filter(|&&s| {
                let inst = self.sched.inst(s.0).expect("surviving inst in flight");
                matches!(inst.state, InstState::Waiting | InstState::Ready)
            })
            .count();
        self.lq.squash_from(from);

        // SSNs roll back to the youngest surviving store.
        let keep_ssn = self
            .rob
            .iter()
            .map(|&s| self.sched.inst(s.0).expect("surviving inst").my_ssn)
            .max()
            .unwrap_or(Ssn::NONE)
            .max(self.ssn_cmt);
        self.sq.squash_from(keep_ssn.next());
        self.ssn_ren = keep_ssn;
        // Policy touch-point: flush repair (SAT rollback, LFST clear).
        self.policy.on_flush(from);

        // Rebuild the rename map from the surviving window, oldest first.
        self.rename_map = [None; sqip_isa::NUM_REGS];
        for i in 0..self.rob.len() {
            let s = *self.rob.get(i).expect("ROB index in range");
            if let Some(d) = self.rec(s).dst {
                self.rename_map[d.index()] = Some(s);
            }
        }

        self.front_q.clear();
        if self.pending_redirect.is_some_and(|s| s >= from) {
            self.pending_redirect = None;
        }
        self.fetch_idx = from.0 as usize;
        self.fetch_stall_until = self.cycle + 1;
        self.draining_for_wrap = false;
    }

    /// Full pipeline flush: squash everything younger than the committing
    /// load and refetch from the next instruction.
    fn flush_younger(&mut self, from: Seq) {
        self.stats.flushes += 1;
        self.incarnation += 1;

        self.stats.squashed += self.rob.len() as u64;
        self.sched.flush();
        self.rob.clear();
        self.iq_count = 0;
        self.lq.clear();
        self.sq.clear();
        self.front_q.clear();
        self.rename_map = [None; sqip_isa::NUM_REGS];

        // All in-flight stores were squashed; the rename-time SSN counter
        // rolls back to the committed high-water mark, and the policy
        // undoes the squashed stores' speculative predictor writes.
        self.ssn_ren = self.ssn_cmt;
        self.policy.on_flush(from.next());
        self.draining_for_wrap = false;

        self.pending_redirect = None;
        self.fetch_idx = from.0 as usize + 1;
        self.fetch_stall_until = self.cycle + 1;
    }
}
