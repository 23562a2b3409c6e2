//! Per-dynamic-instruction in-flight state.

use sqip_isa::{OpClass, MAX_SRCS};
use sqip_types::{Seq, Ssn};

/// Where an in-flight instruction is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InstState {
    /// Renamed, in the issue queue, waiting on wake conditions.
    Waiting,
    /// All wake conditions satisfied; eligible for issue selection.
    Ready,
    /// Selected; an execute event is in flight.
    Issued,
    /// Executed; completion time known.
    Done,
}

/// The value of one source operand as resolved at rename.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    /// No operand (or the zero register).
    None,
    /// Produced by an in-flight instruction; read its speculative value.
    InFlight(Seq),
    /// Architectural at rename time; value captured then.
    Value(u64),
}

/// In-flight state for one dynamic instruction.
///
/// `seq` doubles as the index of the instruction's golden [`TraceRecord`]
/// (re-fetches after a flush recreate the `DynInst` with a new
/// `incarnation` so stale scheduled events can be recognised and dropped).
///
/// [`TraceRecord`]: sqip_isa::TraceRecord
#[derive(Debug, Clone)]
pub(crate) struct DynInst {
    pub seq: Seq,
    pub incarnation: u64,
    pub state: InstState,

    /// Cached `rec.op.class()` — saves the scheduler a record-window
    /// load on every wake and issue. Derived state: not serialised,
    /// rebuilt from the window on snapshot load. Stable across squash
    /// re-fetch (the same seq replays the same golden record).
    pub op_class: OpClass,
    /// Cached `rec.dst.is_some()` (same contract as `op_class`).
    pub has_dst: bool,

    /// Outstanding wake conditions (register producers + forwarding-store
    /// execution + delay-store commit). Ready when zero.
    pub gates: u32,
    pub srcs: [Operand; MAX_SRCS],

    /// Youngest store older than this instruction (program order).
    pub prev_store_ssn: Ssn,
    /// For stores: this store's SSN.
    pub my_ssn: Ssn,

    // ---- load predictions ----
    /// FSP-predicted (partial) store PC the load expects to forward from.
    pub pred_store_pc: Option<u64>,
    /// Predicted forwarding SSN (SAT lookup of `pred_store_pc`).
    pub ssn_fwd: Ssn,
    /// Delay SSN: the load may not execute until this store has committed.
    pub ssn_dly: Ssn,
    /// Store whose execution this load's issue chases (forwarding gate);
    /// the load replays if it arrives at execute before the store did.
    pub wait_exec_ssn: Option<Ssn>,
    /// Fetch-time branch-path history (for path-qualified FSP access).
    pub path: u64,

    // ---- delay accounting ----
    /// Cycle at which the last non-delay gate released.
    pub nondelay_ready: u64,
    /// Cycle at which the delay gate released (0 if never gated).
    pub delay_released: u64,
    /// Whether the delay gate was ever the binding constraint.
    pub delay_gated: bool,

    // ---- execution results ----
    /// Speculative result value (load value, ALU result, store data).
    pub value: u64,
    /// Earliest commit cycle (completion + SVW/re-execute depth).
    pub commit_eligible: u64,
    /// For loads: the store forwarded from, if any.
    pub forwarded_from: Option<Ssn>,
    /// For loads: SVW field (forwarding store SSN, else SSNcmt at execute).
    pub svw: Ssn,
    /// For loads: executed while an older store's address was unknown.
    pub older_unknown: bool,
    /// Times this instruction replayed (latency mis-speculation).
    pub replays: u32,
    /// Whether this load stalled on a partial SQ overlap.
    pub partial_stalled: bool,
}

impl DynInst {
    pub(crate) fn new(seq: Seq, incarnation: u64, prev_store_ssn: Ssn) -> DynInst {
        DynInst {
            seq,
            incarnation,
            state: InstState::Waiting,
            op_class: OpClass::None,
            has_dst: false,
            gates: 0,
            srcs: [Operand::None, Operand::None],
            prev_store_ssn,
            my_ssn: Ssn::NONE,
            pred_store_pc: None,
            ssn_fwd: Ssn::NONE,
            ssn_dly: Ssn::NONE,
            wait_exec_ssn: None,
            path: 0,
            nondelay_ready: 0,
            delay_released: 0,
            delay_gated: false,
            value: 0,
            commit_eligible: u64::MAX,
            forwarded_from: None,
            svw: Ssn::NONE,
            older_unknown: false,
            replays: 0,
            partial_stalled: false,
        }
    }

    /// Releases one wake gate at `cycle`; returns true when the instruction
    /// became fully ready.
    pub(crate) fn release_gate(&mut self, cycle: u64, is_delay_gate: bool) -> bool {
        debug_assert!(self.gates > 0, "releasing a gate that was never armed");
        self.gates -= 1;
        if is_delay_gate {
            self.delay_released = cycle;
        } else {
            self.nondelay_ready = self.nondelay_ready.max(cycle);
        }
        self.gates == 0
    }

    /// Delay attributable to the DDP: cycles between the moment the load
    /// was otherwise ready and the moment its delay store committed.
    pub(crate) fn ddp_delay(&self) -> u64 {
        if self.delay_gated {
            self.delay_released.saturating_sub(self.nondelay_ready)
        } else {
            0
        }
    }
}

impl sqip_snapshot::Snapshot for InstState {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        w.put_u8(match self {
            InstState::Waiting => 0,
            InstState::Ready => 1,
            InstState::Issued => 2,
            InstState::Done => 3,
        });
        Ok(())
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<InstState, sqip_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(InstState::Waiting),
            1 => Ok(InstState::Ready),
            2 => Ok(InstState::Issued),
            3 => Ok(InstState::Done),
            t => Err(sqip_snapshot::SnapError::Corrupt(format!(
                "instruction state tag {t}"
            ))),
        }
    }
}

impl sqip_snapshot::Snapshot for Operand {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        match self {
            Operand::None => w.put_u8(0),
            Operand::InFlight(seq) => {
                w.put_u8(1);
                w.put_u64(seq.0);
            }
            Operand::Value(v) => {
                w.put_u8(2);
                w.put_u64(*v);
            }
        }
        Ok(())
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<Operand, sqip_snapshot::SnapError> {
        match r.get_u8()? {
            0 => Ok(Operand::None),
            1 => Ok(Operand::InFlight(Seq(r.get_u64()?))),
            2 => Ok(Operand::Value(r.get_u64()?)),
            t => Err(sqip_snapshot::SnapError::Corrupt(format!(
                "operand tag {t}"
            ))),
        }
    }
}

sqip_snapshot::snapshot_struct!(DynInst {
    seq,
    incarnation,
    state,
    gates,
    srcs,
    prev_store_ssn,
    my_ssn,
    pred_store_pc,
    ssn_fwd,
    ssn_dly,
    wait_exec_ssn,
    path,
    nondelay_ready,
    delay_released,
    delay_gated,
    value,
    commit_eligible,
    forwarded_from,
    svw,
    older_unknown,
    replays,
    partial_stalled,
} derived {
    // Rebuilt from the record window by `InstSlab::rebuild_record_cache`.
    op_class: OpClass::None,
    has_dst: false,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_release_tracks_readiness() {
        let mut d = DynInst::new(Seq(1), 0, Ssn::NONE);
        d.gates = 2;
        assert!(!d.release_gate(10, false));
        assert!(d.release_gate(12, false));
        assert_eq!(d.nondelay_ready, 12);
        assert_eq!(d.ddp_delay(), 0);
    }

    #[test]
    fn delay_accounting() {
        let mut d = DynInst::new(Seq(1), 0, Ssn::NONE);
        d.gates = 2;
        d.delay_gated = true;
        d.release_gate(10, false); // regs ready at 10
        d.release_gate(63, true); // delay store committed at 63
        assert_eq!(d.ddp_delay(), 53);
    }

    #[test]
    fn delay_that_is_not_binding_costs_nothing() {
        let mut d = DynInst::new(Seq(1), 0, Ssn::NONE);
        d.gates = 2;
        d.delay_gated = true;
        d.release_gate(10, true); // delay store committed first
        d.release_gate(40, false); // registers were the real constraint
        assert_eq!(d.ddp_delay(), 0);
    }
}
