//! Ring-indexed backing stores for the event engine's in-flight state,
//! allocation-free once warm.
//!
//! The reference engine keeps per-instruction state in `HashMap`s and the
//! ready set in a `BTreeSet`; every access hashes or rebalances. The
//! event engine exploits the same windowing argument as
//! [`SeqRing`](crate::pipeline::window::SeqRing): live sequence numbers
//! (and live store SSNs) are dense and span less than the machine window,
//! so `key % capacity` is collision-free for any two simultaneously live
//! keys, and a fixed ring of slots replaces the map.
//!
//! "Warm" means every pool has reached its peak occupancy, not that every
//! slot has been used: a [`WaiterRing`] keeps its lists as chains through
//! one node pool with a free list, so it allocates only when its live
//! waiters exceed every earlier peak (a flush empties the pool but keeps
//! its allocation). A short cell touches far more slots than it ever
//! holds waiters at once, so a per-slot allocation would be paid on
//! nearly every push. [`NearRing`] slots do own a `Vec` each, but there
//! are only 64 and every cycle reuses them.

use crate::dyninst::DynInst;
use sqip_isa::OpClass;
use sqip_types::{Seq, Ssn};

/// In-flight instruction state in a ring keyed by `seq % capacity`.
///
/// Drop-in replacement for the reference engine's `HashMap<u64, DynInst>`:
/// the set of live keys is exactly the ROB contents, whose sequence
/// numbers are consecutive, so a ring of `rob_size.next_power_of_two()`
/// slots never sees two live keys in one slot. Retire, squash and flush
/// remove a key before its instruction dies, and every lookup compares
/// the slot's `seq` tag, so a dead key (a retired producer, a squashed
/// seq) misses instead of aliasing a younger tenant. Unlike
/// [`SeqRing`](crate::pipeline::window::SeqRing), which must also cover
/// retired producers a consumer still names, the slab needs no slack
/// past the ROB.
pub(crate) struct InstSlab {
    /// Capacity mask (power-of-two ring, like
    /// [`SeqRing`](crate::pipeline::window::SeqRing): a mask, not a
    /// division, on every access).
    /// Liveness is encoded in each slot's own `seq` tag: an empty slot
    /// holds [`InstSlab::EMPTY`] (not a reachable sequence number), so a
    /// lookup touches exactly one array. Indexing masks with
    /// `slots.len() - 1` (power-of-two length), a pattern the optimiser
    /// recognises as in-bounds.
    slots: Vec<DynInst>,
}

impl InstSlab {
    /// Tag of an unoccupied slot; real sequence numbers are trace
    /// indices and can never reach `u64::MAX`.
    const EMPTY: u64 = u64::MAX;

    pub(crate) fn new(rob_size: usize) -> InstSlab {
        InstSlab {
            slots: vec![
                DynInst::new(Seq(InstSlab::EMPTY), 0, Ssn::NONE);
                rob_size.next_power_of_two()
            ],
        }
    }

    #[inline]
    fn idx(&self, seq: u64) -> usize {
        (seq as usize) & (self.slots.len() - 1)
    }

    #[inline]
    pub(crate) fn get(&self, seq: u64) -> Option<&DynInst> {
        let i = self.idx(seq);
        if self.slots[i].seq.0 == seq {
            Some(&self.slots[i])
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, seq: u64) -> Option<&mut DynInst> {
        let i = self.idx(seq);
        if self.slots[i].seq.0 == seq {
            Some(&mut self.slots[i])
        } else {
            None
        }
    }

    /// Inserts (or replaces, after a squash re-rename) the instruction.
    #[inline]
    pub(crate) fn insert(&mut self, seq: u64, inst: DynInst) {
        debug_assert_eq!(inst.seq.0, seq, "slab key must match the instruction");
        let i = self.idx(seq);
        debug_assert!(
            self.slots[i].seq.0 == InstSlab::EMPTY || self.slots[i].seq.0 == seq,
            "instruction slab slot collision: {} vs live {}",
            seq,
            self.slots[i].seq.0
        );
        self.slots[i] = inst;
    }

    #[inline]
    pub(crate) fn remove(&mut self, seq: u64) {
        let i = self.idx(seq);
        if self.slots[i].seq.0 == seq {
            self.slots[i].seq = Seq(InstSlab::EMPTY);
        }
    }

    /// Drops everything (full pipeline flush).
    pub(crate) fn clear(&mut self) {
        for s in &mut self.slots {
            s.seq = Seq(InstSlab::EMPTY);
        }
    }

    /// Recomputes every live instruction's cached record facts
    /// (`op_class`, `has_dst`) from the record window. Used after
    /// snapshot load: the cache is derived state and is not serialised.
    pub(crate) fn rebuild_record_cache(&mut self, window: &crate::pipeline::window::RecordWindow) {
        for slot in &mut self.slots {
            if slot.seq.0 != InstSlab::EMPTY {
                let rec = window.rec(slot.seq);
                slot.op_class = rec.op.class();
                slot.has_dst = rec.dst.is_some();
            }
        }
    }
}

/// The issue-port index an op class contends for (the order of
/// `issue_stage`'s port-budget array and of [`ReadyLanes`]'s lanes).
pub(crate) const fn port_of(class: OpClass) -> usize {
    match class {
        OpClass::IntAlu | OpClass::IntMul | OpClass::None => 0,
        OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => 1,
        OpClass::Branch => 2,
        OpClass::Load => 3,
        OpClass::Store => 4,
    }
}

/// Number of issue-port lanes ([`port_of`]'s range).
pub(crate) const NUM_LANES: usize = 5;

/// The scheduler's ready set, split into one dense lane per issue port.
///
/// Where the reference engine scans a single ordered set oldest-first
/// and dispatches on each candidate's class, issue selection here is a
/// min-seq merge over at most [`NUM_LANES`] lane tails: lanes whose
/// port budget is exhausted drop out of the merge wholesale, so a
/// cycle's selection touches O(issue width × lanes) entries instead of
/// the whole ready set. Each lane is kept sorted descending (oldest
/// entry at the tail), so the merge peeks and pops in O(1) per lane.
///
/// The selection is provably the reference order: the reference scan
/// skips (without consuming total-width budget) exactly the candidates
/// whose port budget is zero, and the merge's min over budgeted lanes
/// is exactly the next non-skipped candidate of that scan.
#[derive(Default)]
pub(crate) struct ReadyLanes {
    lanes: [Vec<u64>; NUM_LANES],
    len: usize,
}

impl ReadyLanes {
    #[inline]
    pub(crate) fn insert(&mut self, seq: u64, class: OpClass) {
        let lane = &mut self.lanes[port_of(class)];
        // Descending order: oldest (smallest) seq at the tail.
        if let Err(pos) = lane.binary_search_by(|x| seq.cmp(x)) {
            lane.insert(pos, seq);
            self.len += 1;
        }
    }

    #[cfg(test)]
    pub(crate) fn remove(&mut self, seq: u64) {
        for lane in &mut self.lanes {
            if let Ok(pos) = lane.binary_search_by(|x| seq.cmp(x)) {
                lane.remove(pos);
                self.len -= 1;
                return;
            }
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every ready sequence number in ascending order (the old
    /// single-set iteration order), for tests and snapshots.
    pub(crate) fn sorted_seqs(&self) -> Vec<u64> {
        let mut all: Vec<u64> = Vec::with_capacity(self.len);
        for lane in &self.lanes {
            all.extend_from_slice(lane);
        }
        all.sort_unstable();
        all
    }

    pub(crate) fn retain(&mut self, mut f: impl FnMut(&u64) -> bool) {
        for lane in &mut self.lanes {
            let before = lane.len();
            lane.retain(|s| f(s));
            self.len -= before - lane.len();
        }
    }

    /// One cycle's issue selection: repeatedly pops the oldest entry
    /// among lanes with remaining port budget, decrementing that port
    /// and the shared total, until the total is spent or no budgeted
    /// lane has entries. Selected seqs land in `out` oldest-first.
    /// `touches` counts lane-tail peeks (the selection-cost observable).
    pub(crate) fn pop_selected(
        &mut self,
        ports: &mut [usize; NUM_LANES],
        mut total: usize,
        out: &mut Vec<u64>,
        touches: &mut u64,
    ) {
        while total > 0 {
            let mut best = u64::MAX;
            let mut best_lane = usize::MAX;
            for (l, lane) in self.lanes.iter().enumerate() {
                if ports[l] == 0 {
                    continue;
                }
                if let Some(&s) = lane.last() {
                    *touches += 1;
                    if s < best {
                        best = s;
                        best_lane = l;
                    }
                }
            }
            if best_lane == usize::MAX {
                break;
            }
            self.lanes[best_lane].pop();
            self.len -= 1;
            ports[best_lane] -= 1;
            total -= 1;
            out.push(best);
        }
    }

    pub(crate) fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.len = 0;
    }

    /// Redistributes a flat snapshot-loaded seq list into per-port lanes
    /// using each record's class from the window (used after checkpoint
    /// restore, where only the merged sequence numbers are serialised —
    /// the lane split is derived state).
    pub(crate) fn rebuild_classes(&mut self, window: &crate::pipeline::window::RecordWindow) {
        let seqs = self.sorted_seqs();
        self.clear();
        for s in seqs {
            self.insert(s, window.rec(Seq(s)).op.class());
        }
    }
}

/// Span of the near rings: the furthest-ahead event they can hold.
/// Covers every predicted latency of the short-latency op classes (and
/// every `issue_to_exec` depth); rarer further-out events fall back to
/// the event wheel.
pub(crate) const NEAR_SPAN: u64 = 64;

/// Whether an event due at `at` is near enough for a [`NearRing`]
/// (strictly future, within the span).
#[inline]
pub(crate) fn fits_near(now: u64, at: u64) -> bool {
    at > now && at - now <= NEAR_SPAN
}

/// Deferred events within the next [`NEAR_SPAN`] cycles, keyed by due
/// cycle — the structure that lets `issue_stage` stay off the event
/// wheel entirely on the common path. One instance holds pending value
/// broadcasts (payload: producer seq), another pending executions
/// (payload: `(seq, incarnation)`).
///
/// A slot holds the payloads due at one cycle (`at % NEAR_SPAN` is
/// collision-free because every pending due cycle lies in a single
/// `NEAR_SPAN`-wide window past the current cycle). Draining pops whole
/// slots; slot `Vec`s are recycled, so steady-state scheduling is
/// allocation-free. Like the wheel's events, entries are **never
/// removed by flushes**: a squashed producer's broadcast still fires
/// and drains whatever consumers are registered (possibly none), and a
/// squashed execution is dropped by the dispatcher's incarnation check
/// — the reference engine's heap does exactly the same, so a stale
/// drain is a bit-identical no-op.
pub(crate) struct NearRing<T> {
    /// Occupancy bitmap over the slots (one bit per slot).
    occ: u64,
    /// The due cycle each occupied slot holds.
    cycles: [u64; NEAR_SPAN as usize],
    slots: Vec<Vec<T>>,
    /// Earliest occupied due cycle (`u64::MAX` when empty).
    earliest: u64,
    len: usize,
}

impl<T> NearRing<T> {
    pub(crate) fn new() -> NearRing<T> {
        NearRing {
            occ: 0,
            cycles: [0; NEAR_SPAN as usize],
            slots: std::iter::repeat_with(Vec::new)
                .take(NEAR_SPAN as usize)
                .collect(),
            earliest: u64::MAX,
            len: 0,
        }
    }

    /// Queues `payload` for cycle `at`. The caller guarantees
    /// [`fits_near`]; within one span window two distinct pending
    /// cycles can never share a slot.
    #[inline]
    pub(crate) fn schedule(&mut self, at: u64, payload: T) {
        let i = (at % NEAR_SPAN) as usize;
        if self.slots[i].is_empty() {
            self.cycles[i] = at;
            self.occ |= 1u64 << i;
        } else {
            debug_assert_eq!(
                self.cycles[i], at,
                "near-ring slot collision across the span window"
            );
        }
        self.slots[i].push(payload);
        self.earliest = self.earliest.min(at);
        self.len += 1;
    }

    /// Earliest pending due cycle, for skip-ahead.
    #[inline]
    pub(crate) fn next_at(&self) -> Option<u64> {
        (self.earliest != u64::MAX).then_some(self.earliest)
    }

    /// Moves the earliest due slot's payloads into `out` if that slot
    /// is due at or before `now`. Returns whether anything was taken.
    pub(crate) fn take_due(&mut self, now: u64, out: &mut Vec<T>) -> bool {
        if self.earliest > now {
            return false;
        }
        let i = (self.earliest % NEAR_SPAN) as usize;
        debug_assert!(self.occ & (1u64 << i) != 0);
        self.len -= self.slots[i].len();
        out.append(&mut self.slots[i]);
        self.occ &= !(1u64 << i);
        self.earliest = self.rescan_earliest();
        true
    }

    fn rescan_earliest(&self) -> u64 {
        let mut occ = self.occ;
        let mut earliest = u64::MAX;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            earliest = earliest.min(self.cycles[i]);
        }
        earliest
    }
}

/// "No node": the end of a chain, or an empty slot's head.
const NIL: u32 = u32::MAX;

/// Waiter lists in a ring keyed by `key % capacity` — the event engine's
/// replacement for `HashMap<u64, Vec<u64>>` wake tables.
///
/// A slot is occupied while its list is non-empty. Each list is a FIFO
/// chain through one node pool shared by every slot; drained chains go
/// back on the pool's free list, so once the pool has grown to the
/// peak number of waiters, pushes allocate nothing. The windowing
/// argument that makes the ring sound: keys are either in-flight sequence
/// numbers (producers with a pending wakeup broadcast) or in-flight store
/// SSNs (stores with registered dependents), both of which are removed —
/// by the broadcast, the store's execution, or its speculative
/// `StoreWake` — before the key space can wrap back onto the slot. A
/// debug assertion checks for collisions on every push.
pub(crate) struct WaiterRing {
    /// Capacity mask (power-of-two ring).
    mask: u64,
    keys: Vec<u64>,
    /// Per slot: first node of its chain, [`NIL`] when empty.
    heads: Vec<u32>,
    /// Per slot: last node of its chain (meaningless when empty).
    tails: Vec<u32>,
    /// The shared node pool: `(waiter, next node)`.
    nodes: Vec<(u64, u32)>,
    /// First node of the free chain.
    free: u32,
    /// Total waiters across all slots (cheap emptiness check).
    len: usize,
}

impl WaiterRing {
    pub(crate) fn new(cap: usize) -> WaiterRing {
        let cap = cap.next_power_of_two();
        WaiterRing {
            mask: cap as u64 - 1,
            keys: vec![0; cap],
            heads: vec![NIL; cap],
            tails: vec![NIL; cap],
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    /// Whether any waiter is registered under any key.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn idx(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// Appends `waiter` to `key`'s list.
    ///
    /// # Panics
    ///
    /// Panics if a *different* live key already occupies `key`'s slot.
    /// The engine's windowing invariants make this unreachable for its
    /// own keys; the one externally influenced key space is a custom
    /// [`ForwardingPolicy`](crate::ForwardingPolicy) returning a
    /// commit-gate SSN more than a ring capacity ahead of the commit
    /// point — better a loud panic (with the reference engine as the
    /// workaround) than a silently lost wakeup. The check is a compare
    /// the hot path performs anyway.
    #[inline]
    pub(crate) fn push(&mut self, key: u64, waiter: u64) {
        let i = self.idx(key);
        if self.heads[i] == NIL {
            self.keys[i] = key;
        } else {
            assert_eq!(
                self.keys[i], key,
                "waiter ring slot collision: two live keys share a slot \
                 (a policy scheduled a wake implausibly far ahead; run \
                 this design under Engine::Reference)"
            );
        }
        self.append(i, waiter);
    }

    /// Appends `waiter` to slot `i`'s chain, reusing a free node if any.
    #[inline]
    fn append(&mut self, i: usize, waiter: u64) {
        let node = if self.free == NIL {
            self.nodes.push((waiter, NIL));
            u32::try_from(self.nodes.len() - 1).expect("waiter pool exceeds u32 nodes")
        } else {
            let node = self.free;
            self.free = self.nodes[node as usize].1;
            self.nodes[node as usize] = (waiter, NIL);
            node
        };
        if self.heads[i] == NIL {
            self.heads[i] = node;
        } else {
            self.nodes[self.tails[i] as usize].1 = node;
        }
        self.tails[i] = node;
        self.len += 1;
    }

    /// Whether `key` has any registered waiters.
    #[inline]
    pub(crate) fn contains(&self, key: u64) -> bool {
        let i = self.idx(key);
        self.heads[i] != NIL && self.keys[i] == key
    }

    /// Moves `key`'s waiters into `out` in push order; the chain's nodes
    /// go back on the free list.
    #[inline]
    pub(crate) fn remove_into(&mut self, key: u64, out: &mut Vec<u64>) {
        if !self.contains(key) {
            return;
        }
        let i = self.idx(key);
        let head = self.heads[i];
        let before = out.len();
        out.extend(self.chain(head));
        self.len -= out.len() - before;
        self.nodes[self.tails[i] as usize].1 = self.free;
        self.free = head;
        self.heads[i] = NIL;
    }

    /// Empties every slot (full pipeline flush), keeping the pool's
    /// allocation.
    pub(crate) fn clear_all(&mut self) {
        self.heads.fill(NIL);
        self.nodes.clear();
        self.free = NIL;
        self.len = 0;
    }

    /// The waiters on the chain starting at `node`, in push order.
    fn chain(&self, mut node: u32) -> impl Iterator<Item = u64> + '_ {
        std::iter::from_fn(move || {
            (node != NIL).then(|| {
                let (waiter, next) = self.nodes[node as usize];
                node = next;
                waiter
            })
        })
    }

    /// Each slot's waiters in push order — the snapshot's list layout.
    fn lists(&self) -> Vec<Vec<u64>> {
        self.heads
            .iter()
            .map(|&head| self.chain(head).collect())
            .collect()
    }
}

impl sqip_snapshot::Snapshot for InstSlab {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        self.slots.save(w)
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<InstSlab, sqip_snapshot::SnapError> {
        let slots = Vec::<DynInst>::load(r)?;
        if !slots.len().is_power_of_two() {
            return Err(sqip_snapshot::SnapError::Corrupt(format!(
                "instruction slab of {} slots (want a power of two)",
                slots.len()
            )));
        }
        Ok(InstSlab { slots })
    }
}

impl sqip_snapshot::Snapshot for ReadyLanes {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        // The merged ascending seq list — the same bytes the pre-lane
        // `ReadySet` wrote, so the format is lane-layout-agnostic.
        self.sorted_seqs().save(w)
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<ReadyLanes, sqip_snapshot::SnapError> {
        let seqs = Vec::<u64>::load(r)?;
        if !seqs.windows(2).all(|p| p[0] < p[1]) {
            return Err(sqip_snapshot::SnapError::Corrupt(
                "ready set is not sorted and deduplicated".into(),
            ));
        }
        // Staged into lane 0 (descending); the lane split is derived
        // state, recomputed by the engine's `rebuild_classes` once the
        // record window is restored.
        let len = seqs.len();
        let mut lanes: [Vec<u64>; NUM_LANES] = Default::default();
        lanes[0] = seqs;
        lanes[0].reverse();
        Ok(ReadyLanes { lanes, len })
    }
}

impl<T: Clone + sqip_snapshot::Snapshot> sqip_snapshot::Snapshot for NearRing<T> {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        // Occupied slots in due-cycle order, each with its payload list
        // in push order (occupancy/earliest are derived on load).
        let mut due: Vec<(u64, Vec<T>)> = Vec::new();
        let mut occ = self.occ;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            due.push((self.cycles[i], self.slots[i].clone()));
        }
        due.sort_unstable_by_key(|(at, _)| *at);
        due.save(w)
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<NearRing<T>, sqip_snapshot::SnapError> {
        let due = Vec::<(u64, Vec<T>)>::load(r)?;
        let mut near = NearRing::new();
        for (at, payloads) in due {
            let i = (at % NEAR_SPAN) as usize;
            if !near.slots[i].is_empty() || payloads.is_empty() {
                return Err(sqip_snapshot::SnapError::Corrupt(
                    "near ring: colliding or empty slot".into(),
                ));
            }
            for p in payloads {
                near.schedule(at, p);
            }
        }
        Ok(near)
    }
}

impl sqip_snapshot::Snapshot for WaiterRing {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        // One list per slot in push order, not the node pool: where a
        // chain's nodes sit depends on free-list history, so equal rings
        // would otherwise save different bytes.
        self.mask.save(w)?;
        self.keys.save(w)?;
        self.lists().save(w)?;
        self.len.save(w)
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<WaiterRing, sqip_snapshot::SnapError> {
        let mask = u64::load(r)?;
        let keys = Vec::<u64>::load(r)?;
        let lists = Vec::<Vec<u64>>::load(r)?;
        let len = usize::load(r)?;
        let cap = mask.wrapping_add(1);
        let waiters: usize = lists.iter().map(Vec::len).sum();
        if !cap.is_power_of_two()
            || keys.len() as u64 != cap
            || lists.len() as u64 != cap
            || waiters != len
            || len >= NIL as usize
        {
            return Err(sqip_snapshot::SnapError::Corrupt(format!(
                "waiter ring: mask {mask:#x}, {} keys, {} lists, len {len} vs {waiters} waiters",
                keys.len(),
                lists.len()
            )));
        }
        let mut ring = WaiterRing::new(keys.len());
        ring.keys = keys;
        for (i, list) in lists.into_iter().enumerate() {
            for waiter in list {
                ring.append(i, waiter);
            }
        }
        Ok(ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_slab_tags_distinguish_ring_tenants() {
        let mut slab = InstSlab::new(4);
        let cap = 4;
        slab.insert(3, DynInst::new(Seq(3), 0, Ssn::NONE));
        assert!(slab.get(3).is_some());
        assert!(slab.get(3 + cap).is_none(), "same slot, different tenant");
        slab.remove(3 + cap); // no-op: tag mismatch
        assert!(slab.get(3).is_some());
        slab.remove(3);
        assert!(slab.get(3).is_none());
    }

    /// Drives the slab the way the engine does, with a model ROB of
    /// consecutive seqs: fill, retire from the head, squash from the
    /// middle (the squashed seqs re-rename), and flush. Every insert must
    /// land in an empty slot, every live seq must hit, and every dead seq
    /// must miss, across many trips round the ring.
    #[test]
    fn inst_slab_of_one_rob_never_collides_and_dead_seqs_miss() {
        use std::collections::VecDeque;

        for rob_size in [1usize, 4, 96, 512] {
            let mut slab = InstSlab::new(rob_size);
            assert_eq!(slab.slots.len(), rob_size.next_power_of_two());
            let mut rob: VecDeque<u64> = VecDeque::new();
            let mut dead: Vec<u64> = Vec::new();
            let mut next = 0u64;
            let check = |slab: &InstSlab, rob: &VecDeque<u64>, dead: &[u64]| {
                for &s in rob {
                    assert_eq!(slab.get(s).map(|i| i.seq.0), Some(s), "live seq {s}");
                }
                // ROB seqs are consecutive, so membership is a range test.
                let live = |s: u64| {
                    rob.front()
                        .is_some_and(|&f| f <= s && s < f + rob.len() as u64)
                };
                for &s in dead {
                    if !live(s) {
                        assert!(slab.get(s).is_none(), "dead seq {s} hits (rob {rob_size})");
                    }
                }
            };
            let fill = |slab: &mut InstSlab, rob: &mut VecDeque<u64>, next: &mut u64| {
                while rob.len() < rob_size {
                    let s = *next;
                    let i = slab.idx(s);
                    assert_eq!(
                        slab.slots[i].seq.0,
                        InstSlab::EMPTY,
                        "seq {s} collides with live {} (rob {rob_size})",
                        slab.slots[i].seq.0
                    );
                    slab.insert(s, DynInst::new(Seq(s), 0, Ssn::NONE));
                    rob.push_back(s);
                    *next += 1;
                }
            };
            for round in 0..40u64 {
                fill(&mut slab, &mut rob, &mut next);
                check(&slab, &rob, &dead);
                // Retire a few from the head.
                let retire = (rob_size / 3).max(1) + (round % 5) as usize;
                for _ in 0..retire.min(rob.len()) {
                    let s = rob.pop_front().unwrap();
                    slab.remove(s);
                    dead.push(s);
                }
                fill(&mut slab, &mut rob, &mut next);
                check(&slab, &rob, &dead);
                // Squash from the middle; fetch resumes at the squash point.
                let keep = rob.len() / 2;
                let from = rob[keep];
                for &s in rob.iter().skip(keep) {
                    slab.remove(s);
                    dead.push(s);
                }
                rob.truncate(keep);
                check(&slab, &rob, &dead);
                next = from;
                fill(&mut slab, &mut rob, &mut next);
                check(&slab, &rob, &dead);
                // Every seventh round, a full flush after retiring the head.
                if round % 7 == 6 {
                    let head = rob.pop_front().unwrap();
                    slab.remove(head);
                    dead.push(head);
                    slab.clear();
                    dead.extend(rob.drain(..));
                    check(&slab, &rob, &dead);
                    next = head + 1;
                }
                let horizon = 4 * slab.slots.len();
                if dead.len() > horizon {
                    dead.drain(..dead.len() - horizon);
                }
            }
            assert!(
                next > 8 * rob_size.next_power_of_two() as u64,
                "the ring wrapped"
            );
        }
    }

    #[test]
    fn ready_lanes_are_ordered_and_dedup() {
        let mut r = ReadyLanes::default();
        for (s, c) in [
            (9, OpClass::IntAlu),
            (3, OpClass::Load),
            (7, OpClass::IntAlu),
            (3, OpClass::Load),
        ] {
            r.insert(s, c);
        }
        assert_eq!(r.sorted_seqs(), vec![3, 7, 9]);
        r.remove(7);
        r.retain(|&s| s < 9);
        assert_eq!(r.sorted_seqs(), vec![3]);
        assert!(!r.is_empty());
    }

    #[test]
    fn lane_selection_matches_the_oldest_first_port_budget_scan() {
        // Reference semantics: scan ascending; a zero port budget skips
        // the candidate WITHOUT consuming total width; total exhaustion
        // stops everything.
        let mut r = ReadyLanes::default();
        for (s, c) in [
            (1, OpClass::Load),
            (2, OpClass::IntAlu),
            (3, OpClass::Load),
            (4, OpClass::Store),
            (5, OpClass::IntAlu),
            (6, OpClass::IntAlu),
        ] {
            r.insert(s, c);
        }
        // Budgets: 2 int, 0 fp, 0 branch, 1 load, 1 store; total 3.
        // Scan order 1(load,take) 2(int,take) 3(load,port dry,skip)
        // 4(store,take) -> total spent.
        let mut ports = [2, 0, 0, 1, 1];
        let mut out = Vec::new();
        let mut touches = 0u64;
        r.pop_selected(&mut ports, 3, &mut out, &mut touches);
        assert_eq!(out, vec![1, 2, 4]);
        assert_eq!(r.sorted_seqs(), vec![3, 5, 6]);
        assert!(touches > 0);
    }

    #[test]
    fn near_rings_drain_in_due_order_and_recycle_slots() {
        let mut n = NearRing::<u64>::new();
        assert!(fits_near(10, 11));
        assert!(fits_near(10, 10 + NEAR_SPAN));
        assert!(!fits_near(10, 10));
        assert!(!fits_near(10, 11 + NEAR_SPAN));
        n.schedule(12, 100);
        n.schedule(15, 200);
        n.schedule(12, 101);
        assert_eq!(n.next_at(), Some(12));
        let mut out = Vec::new();
        assert!(!n.take_due(11, &mut out), "nothing due yet");
        assert!(n.take_due(12, &mut out));
        assert_eq!(out, vec![100, 101]);
        assert_eq!(n.next_at(), Some(15));
        out.clear();
        assert!(n.take_due(15, &mut out));
        assert_eq!(out, vec![200]);
        assert_eq!(n.next_at(), None);
        // A span later, the same slot index serves a new cycle.
        n.schedule(12 + NEAR_SPAN, 300);
        assert_eq!(n.next_at(), Some(12 + NEAR_SPAN));
    }

    #[test]
    fn waiter_ring_drains_into_scratch_and_keeps_capacity() {
        let mut w = WaiterRing::new(8);
        w.push(5, 100);
        w.push(5, 101);
        assert!(w.contains(5));
        assert!(!w.contains(13), "slot shared, key differs");
        let mut out = Vec::new();
        w.remove_into(5, &mut out);
        assert_eq!(out, vec![100, 101]);
        assert!(!w.contains(5));
        // The freed slot is immediately reusable by the wrapped key.
        w.push(13, 7);
        assert!(w.contains(13));
    }

    #[test]
    fn waiter_ring_chains_keep_push_order_and_reuse_nodes() {
        let mut w = WaiterRing::new(8);
        // Interleaved keys, each list in its own push order.
        for (key, waiter) in [(1, 10), (2, 20), (1, 11), (3, 30), (2, 21), (1, 12)] {
            w.push(key, waiter);
        }
        assert_eq!(w.lists()[1..4], [vec![10, 11, 12], vec![20, 21], vec![30]]);
        let mut out = Vec::new();
        w.remove_into(2, &mut out);
        assert_eq!(out, vec![20, 21]);
        w.remove_into(2, &mut out); // gone: a no-op
        w.remove_into(9, &mut out); // slot 1 holds key 1: a no-op
        assert_eq!(out, vec![20, 21]);
        assert!(!w.is_empty());

        // Freed nodes serve later pushes: the pool does not grow.
        let pool = w.nodes.len();
        w.push(4, 40);
        w.push(1, 13);
        assert_eq!(w.nodes.len(), pool);
        w.push(5, 50);
        assert_eq!(w.nodes.len(), pool + 1);
        out.clear();
        w.remove_into(1, &mut out);
        assert_eq!(out, vec![10, 11, 12, 13]);

        w.clear_all();
        assert!(w.is_empty());
        assert!(!w.contains(3) && !w.contains(4) && !w.contains(5));
        assert!(w.lists().iter().all(Vec::is_empty));
        w.push(3, 31);
        out.clear();
        w.remove_into(3, &mut out);
        assert_eq!(out, vec![31]);
        assert!(w.is_empty());
    }

    fn container(write: impl FnOnce(&mut sqip_snapshot::SnapWriter)) -> Vec<u8> {
        let mut w = sqip_snapshot::SnapWriter::new();
        write(&mut w);
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        bytes
    }

    #[test]
    fn waiter_ring_snapshot_keeps_the_per_slot_vec_layout() {
        use sqip_snapshot::Snapshot;

        let mut w = WaiterRing::new(4);
        w.push(1, 100);
        w.push(6, 600);
        w.push(1, 101);
        w.push(3, 300);
        let mut out = Vec::new();
        w.remove_into(3, &mut out); // slot 3 keeps its stale key
        w.remove_into(6, &mut out);
        w.push(2, 200); // on recycled nodes
        w.push(2, 201);
        w.push(1, 102);

        // The layout of the `Vec<Vec<u64>>` ring: mask, keys, one list
        // per slot in push order, len.
        let want = container(|s| {
            3u64.save(s).unwrap();
            vec![0u64, 1, 2, 3].save(s).unwrap();
            vec![vec![], vec![100u64, 101, 102], vec![200, 201], vec![]]
                .save(s)
                .unwrap();
            5usize.save(s).unwrap();
        });
        let got = container(|s| w.save(s).unwrap());
        assert_eq!(got, want);

        let mut r = sqip_snapshot::SnapReader::new(&mut got.as_slice()).unwrap();
        let back = WaiterRing::load(&mut r).unwrap();
        assert_eq!(container(|s| back.save(s).unwrap()), got);
    }
}
