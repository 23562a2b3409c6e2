//! Scheduling: issue (after the scheduler's selection), event delivery,
//! wakeups, the broadcast cancel rule, replays and load-latency
//! speculation (the policy's scheduling touch-point).

use sqip_isa::OpClass;
use sqip_types::Seq;

use crate::dyninst::{DynInst, InstState, Operand};
use crate::pipeline::stages::{Pipeline, Scheduler, Take, WaitList};
use crate::pipeline::{EvKind, NOT_READY};

impl<S: Scheduler> Pipeline<'_, S> {
    pub(crate) fn issue_stage(&mut self) {
        let mut issued = std::mem::take(&mut self.issue_scratch);
        debug_assert!(issued.is_empty());
        self.sched.select(self.cfg.issue, &mut issued);

        for &seq in &issued {
            self.iq_count -= 1;
            let (inc, my_ssn, fwd_predicted, has_dst, class) = {
                let inst = self.sched.inst_mut(seq).expect("ready inst in flight");
                debug_assert_eq!(inst.state, InstState::Ready);
                inst.state = InstState::Issued;
                (
                    inst.incarnation,
                    inst.my_ssn,
                    inst.ssn_fwd.is_some(),
                    inst.has_dst,
                    inst.op_class,
                )
            };
            let exec_at = self.cycle + self.cfg.issue_to_exec;
            self.sched
                .schedule_issue(self.cycle, exec_at, EvKind::Exec, seq, inc);
            if my_ssn.is_some() {
                // Speculatively wake forwarding-gated loads behind this
                // store so their SQ read chases its SQ write.
                self.sched.schedule_issue(
                    self.cycle,
                    self.cycle + 1,
                    EvKind::StoreWake,
                    my_ssn.0,
                    inc,
                );
            }

            // Wakeup broadcast for register consumers, timed so a
            // back-to-back dependent executes exactly when the value is
            // predicted to be ready. (The table read above already
            // captured both record facts this needs; no window load.)
            if has_dst {
                let pred_latency = self.latency_for(class, fwd_predicted);
                let broadcast_at = (exec_at + pred_latency)
                    .saturating_sub(self.cfg.issue_to_exec)
                    .max(self.cycle + 1);
                self.vals.set_wake_time(seq, broadcast_at);
                self.sched
                    .schedule_issue(self.cycle, broadcast_at, EvKind::Broadcast, seq, inc);
            }
        }
        issued.clear();
        self.issue_scratch = issued;
    }

    /// The latency the scheduler assumes for an instruction's value —
    /// loads defer to the policy's latency-speculation touch-point
    /// (`fwd_predicted` is the load's forwarding prediction, captured by
    /// the caller so no extra table lookup is needed here).
    pub(crate) fn latency_for(&self, class: OpClass, fwd_predicted: bool) -> u64 {
        let l = self.cfg.latencies;
        match class {
            OpClass::IntAlu | OpClass::None => l.int_alu,
            OpClass::IntMul => l.int_mul,
            OpClass::FpAdd => l.fp_add,
            OpClass::FpMul => l.fp_mul,
            OpClass::FpDiv => l.fp_div,
            OpClass::Branch => l.branch,
            OpClass::Store => 1,
            OpClass::Load => {
                let cache = self.cfg.hierarchy.l1.hit_latency;
                self.policy.wakeup_latency(fwd_predicted, cache)
            }
        }
    }

    // ================================================================
    // Events (execute, wakeup)
    // ================================================================

    /// Whether `seq`'s in-flight instruction is still the incarnation
    /// an event was scheduled under.
    #[inline]
    pub(crate) fn alive(&self, seq: u64, inc: u64) -> bool {
        self.sched.inst(seq).is_some_and(|i| i.incarnation == inc)
    }

    /// Delivers one due event. Events addressed to squashed incarnations
    /// are dropped; broadcasts are exempt: a producer may legitimately
    /// commit before its re-broadcast fires, and its registered consumers
    /// must still wake (`wake_one` itself guards against squashed
    /// consumers).
    pub(crate) fn deliver(&mut self, kind: EvKind, seq: u64, inc: u64) {
        match kind {
            EvKind::Broadcast => self.do_broadcast(seq),
            EvKind::Wake => {
                if self.alive(seq, inc) {
                    self.wake_one(seq, false);
                }
            }
            // `seq` carries the store's SSN, not a sequence number.
            EvKind::StoreWake => self.wake_all(WaitList::StoreExec, seq),
            EvKind::Exec => {
                if self.alive(seq, inc) {
                    self.do_execute(Seq(seq));
                }
            }
        }
    }

    pub(crate) fn do_broadcast(&mut self, producer: u64) {
        // A cancelled broadcast leaves the waiter list in place: the
        // producer's next issue, or its completion's re-broadcast, wakes
        // these consumers on time.
        if self.sched.has_waiters(WaitList::Value, producer) && self.wakeup_cancelled(producer) {
            self.sched.count_broadcast(true);
            return;
        }
        self.sched.count_broadcast(false);
        self.wake_all(WaitList::Value, producer);
    }

    /// **The cancel rule.** A value broadcast is cancelled when its
    /// producer is known to be certain to replay:
    ///
    /// * the producer has replayed and not issued again (`Waiting` or
    ///   `Ready`), so the broadcast belongs to a cancelled issue; or
    /// * the producer is `Issued` and a source is known late for its
    ///   execute: the source has replayed (`Waiting` or `Ready`, so it
    ///   cannot execute before anything already issued), or it has
    ///   executed and its value is ready only after the producer's
    ///   execute cycle (a miss the scheduler has already seen).
    ///
    /// This is the scheduler's cancel signal (Kim & Lipasti, HPCA 2004):
    /// once a latency mis-speculation is known, the wakeups of the
    /// instructions issued in its shadow die, so a doomed instruction
    /// does not wake its own consumers. The rule looks one dependence
    /// level deep; an issued source that is itself doomed, but not yet
    /// known to be, does not cancel.
    ///
    /// The rule reads only instruction states (with `Waiting` and
    /// `Ready` alike), executed values' ready cycles and issue-time wake
    /// cycles. No wake delivery changes any of these — a delivery only
    /// turns `Waiting` into `Ready` — so it commutes with same-cycle
    /// deliveries, which the event scheduler's delivery order relies on.
    fn wakeup_cancelled(&self, producer: u64) -> bool {
        let Some(p) = self.sched.inst(producer) else {
            return false; // committed: its value is architectural
        };
        match p.state {
            InstState::Waiting | InstState::Ready => return true,
            InstState::Done => return false,
            InstState::Issued => {}
        }
        p.srcs.iter().any(|&src| {
            let Operand::InFlight(s) = src else {
                return false;
            };
            match self.sched.inst(s.0).map(|source| source.state) {
                Some(InstState::Waiting | InstState::Ready) => true,
                // The producer executes this cycle at the earliest, so a
                // value ready by now is never late.
                Some(InstState::Done) => {
                    let ready = self.vals.value_ready(s.0);
                    ready > self.cycle && ready > self.exec_cycle(p)
                }
                Some(InstState::Issued) | None => false,
            }
        })
    }

    /// The execute cycle of an issued instruction that has a
    /// destination, recovered from the wake cycle its issue armed
    /// (`issue + max(predicted latency, 1)`).
    fn exec_cycle(&self, inst: &DynInst) -> u64 {
        let latency = self.latency_for(inst.op_class, inst.ssn_fwd.is_some());
        self.vals.wake_time(inst.seq.0) - latency.max(1) + self.cfg.issue_to_exec
    }

    pub(crate) fn wake_one(&mut self, seq: u64, is_delay_gate: bool) {
        let Some(inst) = self.sched.inst_mut(seq) else {
            return;
        };
        if inst.state != InstState::Waiting {
            return;
        }
        if inst.release_gate(self.cycle, is_delay_gate) {
            inst.state = InstState::Ready;
            let class = inst.op_class;
            self.sched.make_ready(seq, class);
        }
    }

    /// Releases the waiters `key` frees from `list` and wakes each one,
    /// in the order they waited (a commit releases delay gates). A
    /// single waiter is taken in place; longer lists drain into a
    /// scratch buffer recycled across calls, so neither path allocates.
    pub(crate) fn wake_all(&mut self, list: WaitList, key: u64) {
        let delay_gate = list == WaitList::StoreCommit;
        match self.sched.take_waiters(list, key) {
            Take::Empty => {} // nobody registered — the common case
            Take::One(w) => self.wake_one(w, delay_gate),
            Take::Many => {
                let mut scratch = std::mem::take(&mut self.wake_scratch);
                debug_assert!(scratch.is_empty());
                self.sched.drain_waiters(list, key, &mut scratch);
                for w in scratch.drain(..) {
                    self.wake_one(w, delay_gate);
                }
                self.wake_scratch = scratch;
            }
        }
    }

    pub(crate) fn replay(&mut self, seq: Seq, unready: &[u64]) {
        self.stats.replays += 1;
        let now = self.cycle;
        let issue_to_exec = self.cfg.issue_to_exec;
        // One slot per source operand: an instruction can have at most
        // MAX_SRCS unready producers, so the fixed buffer cannot
        // overflow (the bound is the ISA's, enforced here by the type).
        debug_assert!(unready.len() <= sqip_isa::MAX_SRCS);
        let mut wakes = [0u64; sqip_isa::MAX_SRCS];
        let mut n_wakes = 0;
        let inc = {
            let inst = self
                .sched
                .inst_mut(seq.0)
                .expect("replaying inst in flight");
            inst.state = InstState::Waiting;
            inst.replays += 1;
            inst.gates = unready.len() as u32;
            inst.incarnation
        };
        for &p in unready {
            let vr = self.vals.value_ready(p);
            if vr == NOT_READY {
                // Producer hasn't executed; it will re-broadcast.
                self.sched.wait(WaitList::Value, p, seq.0);
            } else {
                wakes[n_wakes] = vr.saturating_sub(issue_to_exec).max(now + 1);
                n_wakes += 1;
            }
        }
        self.iq_count += 1;
        for &at in &wakes[..n_wakes] {
            self.sched.schedule(now, at, EvKind::Wake, seq.0, inc);
        }
    }
}
