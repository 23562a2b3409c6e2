//! The **reference scheduler**: the straightforward way of making
//! instructions wait, wake and issue, kept as the differential anchor
//! for everything the event scheduler (`super::event`) does
//! differently.
//!
//! Both engines run the same stages (`super::stages`); only the
//! scheduler differs. Here in-flight instructions live in a `HashMap`,
//! the ready set is a `BTreeSet` scanned oldest-first each cycle,
//! every event sits in one `BinaryHeap` drained in `(cycle, kind, seq,
//! incarnation)` order, the waiter lists are maps (a commit releases
//! every delay waiter up to its SSN), and [`RefSched::advance`] moves
//! exactly one cycle per step whether or not any stage has work. It is
//! deliberately *not* optimised — its value is that it is simple enough
//! to audit, and that the event scheduler's slab, ready lanes, near
//! rings, own-slot commit drain and skip-ahead must reproduce its
//! [`SimStats`](crate::SimStats) bit-for-bit (pinned by the
//! differential proptests in `crates/core/tests/props.rs`). The shared
//! stages — the model itself — are pinned by the golden fixture in
//! `crates/sqip/tests/golden_designs.rs` and by the random-program
//! properties that check committed state against the functional
//! executor's golden trace.
//!
//! Select it with [`Engine::Reference`](crate::Engine); the `perf` bin
//! (`crates/bench`) reports the two engines' relative throughput.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

use sqip_isa::OpClass;
use sqip_snapshot::{SnapError, SnapReader, SnapWriter, Snapshot as _};

use crate::config::{IssueMix, SimConfig};
use crate::dyninst::DynInst;
use crate::pipeline::stages::{Pipeline, Scheduler, Take, WaitList};
use crate::pipeline::EvKind;

/// The per-cycle reference scheduler. See the module docs.
#[derive(Default)]
pub(crate) struct RefSched {
    insts: HashMap<u64, DynInst>,
    ready_q: BTreeSet<u64>,
    events: BinaryHeap<Reverse<(u64, EvKind, u64, u64)>>,
    /// The `Value`, `StoreExec` and `StoreExecStrict` waiter lists, in
    /// [`WaitList`] order.
    waiters: [HashMap<u64, Vec<u64>>; 3],
    /// The `StoreCommit` waiter list, ordered for the up-to release.
    wake_on_store_commit: BTreeMap<u64, Vec<u64>>,
}

impl Scheduler for RefSched {
    fn new(_cfg: &SimConfig) -> RefSched {
        RefSched::default()
    }

    fn inst(&self, seq: u64) -> Option<&DynInst> {
        self.insts.get(&seq)
    }

    fn inst_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        self.insts.get_mut(&seq)
    }

    fn insert(&mut self, inst: DynInst) {
        self.insts.insert(inst.seq.0, inst);
    }

    fn remove(&mut self, seq: u64) {
        self.insts.remove(&seq);
    }

    fn make_ready(&mut self, seq: u64, _class: OpClass) {
        self.ready_q.insert(seq);
    }

    fn select(&mut self, mix: IssueMix, out: &mut Vec<u64>) {
        let (mut total, mut int, mut fp, mut br, mut ld, mut st) =
            (mix.total, mix.int, mix.fp, mix.branch, mix.load, mix.store);
        for &seq in &self.ready_q {
            if total == 0 {
                break;
            }
            let port = match self.insts[&seq].op_class {
                OpClass::IntAlu | OpClass::IntMul | OpClass::None => &mut int,
                OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => &mut fp,
                OpClass::Branch => &mut br,
                OpClass::Load => &mut ld,
                OpClass::Store => &mut st,
            };
            if *port == 0 {
                continue; // port conflict: skip, stay ready
            }
            *port -= 1;
            total -= 1;
            out.push(seq);
        }
        for seq in out {
            self.ready_q.remove(seq);
        }
    }

    fn squash_ready(&mut self, from: u64) {
        self.ready_q.retain(|&s| s < from);
    }

    fn schedule(&mut self, _now: u64, at: u64, kind: EvKind, seq: u64, inc: u64) {
        self.events.push(Reverse((at, kind, seq, inc)));
    }

    fn process_events(p: &mut Pipeline<'_, RefSched>) {
        while let Some(&Reverse((at, kind, seq, inc))) = p.sched.events.peek() {
            if at > p.cycle {
                break;
            }
            p.sched.events.pop();
            p.deliver(kind, seq, inc);
        }
    }

    fn wait(&mut self, list: WaitList, key: u64, waiter: u64) {
        let list = match list {
            WaitList::StoreCommit => self.wake_on_store_commit.entry(key).or_default(),
            hashed => self.waiters[hashed as usize].entry(key).or_default(),
        };
        list.push(waiter);
    }

    fn has_waiters(&self, list: WaitList, key: u64) -> bool {
        match list {
            WaitList::StoreCommit => self.wake_on_store_commit.contains_key(&key),
            hashed => self.waiters[hashed as usize].contains_key(&key),
        }
    }

    fn take_waiters(&mut self, list: WaitList, key: u64) -> Take {
        let any = match list {
            WaitList::StoreCommit => self
                .wake_on_store_commit
                .first_key_value()
                .is_some_and(|(&first, _)| first <= key),
            hashed => self.waiters[hashed as usize].contains_key(&key),
        };
        if any {
            Take::Many
        } else {
            Take::Empty
        }
    }

    fn drain_waiters(&mut self, list: WaitList, key: u64, out: &mut Vec<u64>) {
        match list {
            WaitList::StoreCommit => {
                let mut released = self.wake_on_store_commit.split_off(&(key + 1));
                std::mem::swap(&mut released, &mut self.wake_on_store_commit);
                out.extend(released.into_values().flatten());
            }
            hashed => out.extend(
                self.waiters[hashed as usize]
                    .remove(&key)
                    .unwrap_or_default(),
            ),
        }
    }

    fn flush(&mut self) {
        self.insts.clear();
        self.ready_q.clear();
        for list in &mut self.waiters {
            list.clear();
        }
        self.wake_on_store_commit.clear();
    }

    /// One cycle per step, whatever the limit.
    fn advance(p: &mut Pipeline<'_, RefSched>, _limit: u64) {
        p.cycle += 1;
    }

    /// The map is serialised in sorted-key order so equal states
    /// snapshot to equal bytes.
    fn save_insts(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        sorted_pairs(&self.insts).save(w)
    }

    fn load_insts(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.insts = Vec::<(u64, DynInst)>::load(r)?.into_iter().collect();
        Ok(())
    }

    fn save_queues(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.ready_q.iter().copied().collect::<Vec<u64>>().save(w)?;
        let mut events: Vec<(u64, EvKind, u64, u64)> =
            self.events.iter().map(|Reverse(e)| *e).collect();
        events.sort_unstable();
        events.save(w)?;
        for list in &self.waiters {
            sorted_pairs(list).save(w)?;
        }
        self.wake_on_store_commit
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect::<Vec<(u64, Vec<u64>)>>()
            .save(w)
    }

    fn load_queues(p: &mut Pipeline<'_, RefSched>, r: &mut SnapReader) -> Result<(), SnapError> {
        let s = &mut p.sched;
        s.ready_q = Vec::<u64>::load(r)?.into_iter().collect();
        s.events = Vec::<(u64, EvKind, u64, u64)>::load(r)?
            .into_iter()
            .map(Reverse)
            .collect();
        for list in &mut s.waiters {
            *list = Vec::<(u64, Vec<u64>)>::load(r)?.into_iter().collect();
        }
        s.wake_on_store_commit = Vec::<(u64, Vec<u64>)>::load(r)?.into_iter().collect();
        Ok(())
    }
}

/// A `HashMap`'s contents as a key-sorted pair vector (deterministic
/// serialisation order regardless of hash-iteration order).
fn sorted_pairs<V: Clone>(map: &HashMap<u64, V>) -> Vec<(u64, V)> {
    let mut pairs: Vec<(u64, V)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
    pairs.sort_unstable_by_key(|(k, _)| *k);
    pairs
}
