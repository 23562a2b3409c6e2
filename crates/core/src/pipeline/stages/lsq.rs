//! Execution and the load/store unit: the policy's store-queue probe
//! touch-point (associative search vs indexed read), store execution and
//! the LQ-CAM ordering check.

use sqip_isa::{Op, OpClass, TraceRecord};
use sqip_types::Seq;

use crate::config::OrderingMode;
use crate::dyninst::{InstState, Operand};
use crate::pipeline::stages::{Pipeline, Scheduler, WaitList};
use crate::pipeline::EvKind;
use crate::policy::SqProbe;

impl<S: Scheduler> Pipeline<'_, S> {
    pub(crate) fn do_execute(&mut self, seq: Seq) {
        // Non-memory instructions need only the op and immediate; loads,
        // stores and branches take the full record copy in their arms.
        let (op, imm) = {
            let r = self.rec(seq);
            (r.op, r.imm)
        };

        // One slab lookup serves both the replay check and operand reads.
        let srcs = self
            .sched
            .inst(seq.0)
            .expect("executing inst in flight")
            .srcs;

        // Selective replay: operands whose producers are not actually ready
        // (scheduler latency mis-speculation) force a replay.
        let mut unready = [0u64; sqip_isa::MAX_SRCS];
        let mut n_unready = 0;
        for src in srcs {
            if let Operand::InFlight(p) = src {
                if self.vals.value_ready(p.0) > self.cycle {
                    unready[n_unready] = p.0;
                    n_unready += 1;
                }
            }
        }
        if n_unready > 0 {
            self.replay(seq, &unready[..n_unready]);
            return;
        }

        let get = |o: Operand| match o {
            Operand::None => 0,
            Operand::Value(v) => v,
            Operand::InFlight(p) => self.vals.spec_value(p.0),
        };
        let (s1, s2) = (get(srcs[0]), get(srcs[1]));
        match op.class() {
            OpClass::Load => {
                let rec = *self.rec(seq);
                self.execute_load(seq, &rec);
            }
            OpClass::Store => {
                let rec = *self.rec(seq);
                self.execute_store(seq, &rec, s2);
            }
            OpClass::Branch => {
                let rec = *self.rec(seq);
                self.execute_branch(seq, &rec);
            }
            class => {
                let value = op.eval(s1, s2, imm);
                let latency = self.latency_for(class, false);
                self.complete(seq, value, latency);
            }
        }
    }

    /// Finishes execution: value known, completion scheduled.
    pub(crate) fn complete(&mut self, seq: Seq, value: u64, latency: u64) {
        let ready_at = self.cycle + latency;
        self.vals.set_spec_value(seq.0, value);
        self.vals.set_value_ready(seq.0, ready_at);
        let post = self.cfg.post_exec_depth;
        let inc = {
            let inst = self
                .sched
                .inst_mut(seq.0)
                .expect("completing inst in flight");
            inst.state = InstState::Done;
            inst.value = value;
            inst.commit_eligible = ready_at + post;
            inst.incarnation
        };
        // Consumers that replayed while this instruction was mid-flight
        // (its issue-time broadcast already fired) re-registered on the
        // wait list; a successful execution is the last broadcast they can
        // get. Time it so their execute lines up with value readiness.
        if self.sched.has_waiters(WaitList::Value, seq.0) {
            let at = ready_at
                .saturating_sub(self.cfg.issue_to_exec)
                .max(self.cycle + 1);
            self.sched
                .schedule(self.cycle, at, EvKind::Broadcast, seq.0, inc);
        }
    }

    fn execute_store(&mut self, seq: Seq, rec: &TraceRecord, data_operand: u64) {
        let span = rec.mem_addr().span(rec.size);
        let data = rec.size.truncate(data_operand);
        let ssn = self
            .sched
            .inst(seq.0)
            .expect("executing store in flight")
            .my_ssn;
        self.sq.write(ssn, span, data);
        // Policy touch-point: store execution (LFST update under original
        // Store Sets).
        self.policy.store_executed(rec.pc, ssn);
        if self.cfg.ordering == OrderingMode::LqCam {
            // Conventional LQ search: any younger, already-executed load
            // overlapping this store's span read a stale value. Flush from
            // the oldest such load and train the schedulers.
            let victim = self
                .lq
                .iter()
                .find(|l| l.seq > seq && l.span.is_some_and(|ls| ls.overlaps(span)) && l.svw < ssn)
                .map(|l| (l.seq, l.pc));
            if let Some((lseq, lpc)) = victim {
                self.stats.mis_forwards += 1;
                self.policy.cam_violation(lpc, rec.pc);
                self.complete(seq, data, 1);
                self.squash_from(lseq);
                return;
            }
        }
        self.complete(seq, data, 1);
        // Wake loads waiting on this store's execution (forwarding gate).
        self.wake_all(WaitList::StoreExec, ssn.0);
        self.wake_all(WaitList::StoreExecStrict, ssn.0);
    }

    fn execute_branch(&mut self, seq: Seq, rec: &TraceRecord) {
        // (The predictor was trained at fetch; execution only resolves the
        // pending redirect.)
        // Link value for calls; 0 for other transfers.
        let value = if rec.op == Op::Call {
            rec.pc.next().0
        } else {
            0
        };
        self.complete(seq, value, self.cfg.latencies.branch);
        if self.pending_redirect == Some(seq) {
            self.pending_redirect = None;
            self.fetch_stall_until = self.cycle + 1;
        }
    }

    fn execute_load(&mut self, seq: Seq, rec: &TraceRecord) {
        let span = rec.mem_addr().span(rec.size);
        let (prev_store_ssn, ssn_fwd, wait_exec, lq_id) = {
            let inst = self.sched.inst(seq.0).expect("executing load in flight");
            (
                inst.prev_store_ssn,
                inst.ssn_fwd,
                inst.wait_exec_ssn,
                inst.lq_id,
            )
        };

        // The load was scheduled chasing a store's execution; if that store
        // replayed, the load replays too (forwarding mis-schedule).
        if let Some(gate) = wait_exec {
            if gate.is_in_flight(self.ssn_cmt) && !self.sq.is_executed(gate) {
                self.stats.replays += 1;
                let inst = self.sched.inst_mut(seq.0).expect("load in flight");
                inst.state = InstState::Waiting;
                inst.gates = 1;
                inst.replays += 1;
                self.iq_count += 1;
                self.sched.wait(WaitList::StoreExecStrict, gate.0, seq.0);
                return;
            }
        }

        // The data cache is accessed in parallel with the SQ in all designs.
        let cache_outcome = self.hierarchy.access(rec.mem_addr());
        let cache_value = self.commit_mem.read(rec.mem_addr(), rec.size);
        let older_unknown = self.sq.has_unexecuted_older(prev_store_ssn);

        // Policy touch-point: the SQ probe (associative search, indexed
        // read, or whatever the design does).
        let probe = self.policy.probe_sq(
            &self.sq,
            prev_store_ssn,
            ssn_fwd,
            self.ssn_cmt,
            span,
            rec.size,
        );
        let (value, latency, forwarded, svw) = match probe {
            SqProbe::Forward {
                ssn,
                value,
                latency,
            } => (value, latency, Some(ssn), ssn),
            SqProbe::Partial { ssn } => {
                // No single entry can supply the value: stall until the
                // store commits, then retry (reads the cache).
                self.stats.partial_stalls += 1;
                let inst = self.sched.inst_mut(seq.0).expect("load in flight");
                inst.state = InstState::Waiting;
                inst.gates = 1;
                inst.partial_stalled = true;
                let inc = inst.incarnation;
                self.iq_count += 1;
                if ssn > self.ssn_cmt {
                    self.sched.wait(WaitList::StoreCommit, ssn.0, seq.0);
                } else {
                    // Committed in the meantime: retry immediately.
                    self.sched
                        .schedule(self.cycle, self.cycle + 1, EvKind::Wake, seq.0, inc);
                }
                return;
            }
            SqProbe::Miss => (
                cache_value,
                cache_outcome.total_latency(),
                None,
                self.ssn_cmt,
            ),
        };

        self.lq.record_execution_at(lq_id, seq, span, svw);
        {
            let inst = self.sched.inst_mut(seq.0).expect("load in flight");
            inst.forwarded_from = forwarded;
            inst.svw = svw;
            inst.older_unknown = older_unknown;
        }
        self.complete(seq, value, latency);
    }
}
