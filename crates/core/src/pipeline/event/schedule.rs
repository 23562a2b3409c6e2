//! Scheduling: issue selection, event-wheel processing (wakeups, replays)
//! and load-latency speculation (the policy's scheduling touch-point).

use sqip_isa::OpClass;
use sqip_types::Seq;

use crate::dyninst::{DynInst, InstState, Operand};
use crate::pipeline::event::{fits_near, EventCore, WakeRing, WheelEvent};
use crate::pipeline::{EvKind, NOT_READY};

impl EventCore<'_> {
    // Per-cycle stage entry, inlined into the step. To time the stages
    // apart, mark it `#[inline(never)]` in a local profiling build.
    pub(crate) fn issue_stage(&mut self) {
        let mix = self.cfg.issue;
        // Port budgets in a dense array indexed by `port_of` — one lane
        // per port, so selection is a min-seq merge over the lane tails
        // with no full-set scan and no per-candidate class dispatch.
        let mut ports = [mix.int, mix.fp, mix.branch, mix.load, mix.store];
        let mut issued = std::mem::take(&mut self.issue_scratch);
        debug_assert!(issued.is_empty());
        self.ready_q
            .pop_selected(&mut ports, mix.total, &mut issued, &mut self.ready_touches);

        for &seq in &issued {
            self.iq_count -= 1;
            let (inc, my_ssn, fwd_predicted, has_dst, class) = {
                let inst = self.insts.get_mut(seq).expect("ready inst in flight");
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
            // The fused hot path: zero wheel events per issued
            // instruction. The Exec, broadcast and speculative store
            // wake ride the off-wheel near structures; the wheel keeps
            // only what doesn't fit — `issue_to_exec = 0` Execs
            // (requested for the current cycle, delivered via the
            // wheel's past-event clamping) and long-latency broadcasts
            // past the ring span.
            let exec_at = self.cycle + self.cfg.issue_to_exec;
            if fits_near(self.cycle, exec_at) {
                self.near_execs.schedule(exec_at, (seq, inc));
                self.near_ops += 1;
            } else {
                self.wheel
                    .schedule(self.cycle, exec_at, EvKind::Exec, seq, inc);
            }
            if my_ssn.is_some() {
                // Speculatively wake forwarding-gated loads behind this
                // store so their SQ read chases its SQ write. Always due
                // next cycle, and same-cycle stores issue oldest-first
                // (ascending SSN), so the queue stays sorted by
                // (due, ssn) — the reference heap's StoreWake drain
                // order.
                debug_assert!(self
                    .store_wakes
                    .back()
                    .is_none_or(|&last| last < (self.cycle + 1, my_ssn.0)));
                self.store_wakes.push_back((self.cycle + 1, my_ssn.0));
                self.near_ops += 1;
            }

            // Wakeup broadcast for register consumers, timed so a
            // back-to-back dependent executes exactly when the value is
            // predicted to be ready. (The slab read above already
            // captured both record facts this needs; no window load.)
            if has_dst {
                let pred_latency = self.latency_for(class, fwd_predicted);
                let broadcast_at = (exec_at + pred_latency)
                    .saturating_sub(self.cfg.issue_to_exec)
                    .max(self.cycle + 1);
                self.vals.set_wake_time(seq, broadcast_at);
                // Short predicted latencies (the dominant ALU chains) go
                // to the near ring; anything past its span falls back to
                // the wheel, which has no horizon.
                if fits_near(self.cycle, broadcast_at) {
                    self.near.schedule(broadcast_at, seq);
                    self.near_ops += 1;
                } else {
                    self.wheel
                        .schedule(self.cycle, broadcast_at, EvKind::Broadcast, seq, inc);
                }
            }
        }
        issued.clear();
        self.issue_scratch = issued;
    }

    /// The latency the scheduler assumes for an instruction's value —
    /// loads defer to the policy's latency-speculation touch-point
    /// (`fwd_predicted` is the load's forwarding prediction, captured by
    /// the caller so no extra slab lookup is needed here).
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

    /// Delivers everything due this cycle, in an order bit-identical to
    /// the reference heap's `(cycle, kind, seq, inc)` drain:
    ///
    /// 1. **Past-requested wheel events.** An event requested at or
    ///    before its scheduling cycle (possible under `issue_to_exec =
    ///    0`) is clamped into this pass but keeps its original cycle as
    ///    sort key, so the heap fires it ahead of everything requested
    ///    *for* this cycle — notably such an Exec must not be reordered
    ///    after this cycle's broadcasts (its replay re-registration on
    ///    `wake_on_value` must still catch them).
    /// 2. **Fused near wake deliveries** — the off-wheel broadcasts and
    ///    speculative store wakes, all requested for exactly this cycle
    ///    (the skip-ahead bound lands the engine on every due cycle, so
    ///    nothing here is ever overdue). Delivering them before the
    ///    wheel's same-cycle events is unobservable: same-cycle wake
    ///    deliveries (Broadcast / Wake / StoreWake, in any key order)
    ///    commute — gate releases at one cycle are order-independent
    ///    arithmetic, duplicate wakes no-op on the state check, and
    ///    waiter registration happens only inside Exec arms. The
    ///    broadcast cancel rule ([`EventCore::wakeup_cancelled`]) keeps
    ///    this: it treats `Waiting` and `Ready` alike and otherwise
    ///    reads only what Exec arms and the issue stage write, so no
    ///    same-cycle delivery (whose only state change is `Waiting` →
    ///    `Ready`) can flip a later broadcast's verdict. A rule that
    ///    told `Waiting` from `Ready` would not commute.
    /// 3. **The wheel**, whose internal order is unchanged. It holds
    ///    only wake deliveries for this cycle (every same-cycle Exec is
    ///    either fused or, under `issue_to_exec = 0`, clamped into
    ///    phase 1), so phases 2–3 together are one commuting block of
    ///    deliveries.
    /// 4. **Fused near Execs**, in issue (= ascending seq) order —
    ///    matching the heap, which sorts same-cycle Execs after every
    ///    same-cycle delivery kind and by seq among themselves.
    // Per-cycle stage entry, inlined into the step. To time the stages
    // apart, mark it `#[inline(never)]` in a local profiling build.
    pub(crate) fn process_events(&mut self) {
        while let Some(ev) = self.wheel.pop_due_before(self.cycle, self.cycle) {
            self.dispatch_event(ev);
        }
        let mut scratch = std::mem::take(&mut self.near_scratch);
        while self.near.take_due(self.cycle, &mut scratch) {
            for producer in scratch.drain(..) {
                self.do_broadcast(producer);
            }
        }
        self.near_scratch = scratch;
        while let Some(&(due, ssn)) = self.store_wakes.front() {
            if due > self.cycle {
                break;
            }
            self.store_wakes.pop_front();
            self.wake_all(WakeRing::StoreExec, ssn);
        }
        while let Some(ev) = self.wheel.pop_due(self.cycle) {
            self.dispatch_event(ev);
        }
        let mut execs = std::mem::take(&mut self.near_exec_scratch);
        while self.near_execs.take_due(self.cycle, &mut execs) {
            for (seq, inc) in execs.drain(..) {
                if self.insts.get(seq).is_some_and(|i| i.incarnation == inc) {
                    self.do_execute(Seq(seq));
                }
            }
        }
        self.near_exec_scratch = execs;
    }

    fn dispatch_event(&mut self, ev: WheelEvent) {
        let WheelEvent { kind, seq, inc, .. } = ev;
        // Squashed-incarnation events are dropped (the liveness check
        // lives in the arms that need it). Broadcasts are exempt: a
        // producer may legitimately commit before its re-broadcast
        // fires, and its registered consumers must still wake
        // (wake_one itself guards against squashed consumers).
        let alive = |insts: &super::InstSlab| -> bool {
            insts.get(seq).is_some_and(|i| i.incarnation == inc)
        };
        match kind {
            EvKind::Broadcast => self.do_broadcast(seq),
            EvKind::Wake => {
                if alive(&self.insts) {
                    self.wake_one(seq, false);
                }
            }
            EvKind::StoreWake => {
                // Only a restored snapshot puts a store wake here; this
                // engine queues its own on `store_wakes`. `seq` carries
                // the store's SSN, not a sequence number.
                self.wake_all(WakeRing::StoreExec, seq);
            }
            EvKind::Exec => {
                if alive(&self.insts) {
                    self.do_execute(Seq(seq));
                }
            }
        }
    }

    fn do_broadcast(&mut self, producer: u64) {
        // A cancelled broadcast leaves the waiter list in place: the
        // producer's next issue, or its completion's re-broadcast, wakes
        // these consumers on time.
        if self.wake_on_value.contains(producer) && self.wakeup_cancelled(producer) {
            self.cancelled_broadcasts += 1;
            return;
        }
        self.broadcasts += 1;
        self.wake_all(WakeRing::Value, producer);
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
    /// deliveries (see [`EventCore::process_events`]). The reference
    /// engine applies the same rule.
    fn wakeup_cancelled(&self, producer: u64) -> bool {
        let Some(p) = self.insts.get(producer) else {
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
            match self.insts.get(s.0).map(|source| source.state) {
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
        let Some(inst) = self.insts.get_mut(seq) else {
            return;
        };
        if inst.state != InstState::Waiting {
            return;
        }
        if inst.release_gate(self.cycle, is_delay_gate) {
            inst.state = InstState::Ready;
            let class = inst.op_class;
            self.ready_q.insert(seq, class);
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
        {
            let inst = self.insts.get_mut(seq.0).expect("replaying inst in flight");
            inst.state = InstState::Waiting;
            inst.replays += 1;
            inst.gates = unready.len() as u32;
        }
        for &p in unready {
            let vr = self.vals.value_ready(p);
            if vr == NOT_READY {
                // Producer hasn't executed; it will re-broadcast.
                self.wake_on_value.push(p, seq.0);
            } else {
                wakes[n_wakes] = vr.saturating_sub(issue_to_exec).max(now + 1);
                n_wakes += 1;
            }
        }
        self.iq_count += 1;
        let inc = self
            .insts
            .get(seq.0)
            .expect("replaying inst in flight")
            .incarnation;
        for &at in &wakes[..n_wakes] {
            self.wheel.schedule(now, at, EvKind::Wake, seq.0, inc);
        }
    }
}
