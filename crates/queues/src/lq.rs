//! The load queue with Store Vulnerability Window fields.
//!
//! Following Roth (ISCA'05) and the paper's baseline, the LQ has **no
//! address CAM**: memory ordering is verified by SVW-filtered in-order
//! re-execution before commit. Each entry therefore carries the SVW SSN
//! instead of participating in associative search.

use std::collections::VecDeque;

use sqip_types::{AddrSpan, Pc, Seq, Ssn};

use crate::FullError;

/// One in-flight load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LqEntry {
    /// The load's dynamic sequence number.
    pub seq: Seq,
    /// The load's static PC.
    pub pc: Pc,
    /// Address span, known once the load executes.
    pub span: Option<AddrSpan>,
    /// SVW field: the SSN of the youngest older store the load is *not*
    /// vulnerable to — the forwarding store's SSN, or `SSNcmt` at execute
    /// time if the load got its value from the cache.
    pub svw: Ssn,
}

impl LqEntry {
    /// Whether the load has executed.
    #[must_use]
    pub fn is_executed(&self) -> bool {
        self.span.is_some()
    }
}

/// A capacity-limited, age-ordered load queue.
///
/// Entries are numbered: the oldest holds id [`LoadQueue::head_id`] and
/// each younger one the next id, so an entry's id is its position plus
/// the head's id. Commit and [`LoadQueue::clear`] advance the head id
/// past the entries they drop; a squash pops from the young end and
/// leaves every surviving id unchanged (the re-allocated loads take the
/// squashed ids again). An id names its entry for as long as that entry
/// is in flight, and [`LoadQueue::record_execution_at`] reaches it
/// without a search.
#[derive(Debug, Clone)]
pub struct LoadQueue {
    entries: VecDeque<LqEntry>,
    capacity: usize,
    /// Id of `entries[0]` (of the next allocation when empty). Derived
    /// numbering, not snapshot state: a restored queue starts at 0.
    head_id: u64,
}

impl LoadQueue {
    /// Builds an LQ with `capacity` entries (128 in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> LoadQueue {
        assert!(capacity > 0, "load queue must have capacity");
        LoadQueue {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            head_id: 0,
        }
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of in-flight loads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (rename must stall).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Allocates an entry for a renaming load and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`FullError`] when at capacity.
    ///
    /// # Panics
    ///
    /// Panics if allocation is not in age order.
    pub fn allocate(&mut self, seq: Seq, pc: Pc) -> Result<u64, FullError> {
        if self.is_full() {
            return Err(FullError);
        }
        if let Some(tail) = self.entries.back() {
            assert!(
                tail.seq.is_older_than(seq),
                "LQ allocation must be age-ordered"
            );
        }
        self.entries.push_back(LqEntry {
            seq,
            pc,
            span: None,
            svw: Ssn::NONE,
        });
        Ok(self.head_id + self.entries.len() as u64 - 1)
    }

    /// Id of the oldest in-flight load (of the next allocation when the
    /// queue is empty).
    #[must_use]
    pub fn head_id(&self) -> u64 {
        self.head_id
    }

    /// Records an executing load's address and SVW SSN, finding its entry
    /// by the id [`LoadQueue::allocate`] returned instead of by a search.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name `seq`'s in-flight entry.
    pub fn record_execution_at(&mut self, id: u64, seq: Seq, span: AddrSpan, svw: Ssn) {
        let e = id
            .checked_sub(self.head_id)
            .and_then(|pos| self.entries.get_mut(usize::try_from(pos).ok()?))
            .filter(|e| e.seq == seq)
            .expect("LQ id names no in-flight entry of this load");
        e.span = Some(span);
        e.svw = svw;
    }

    /// The in-flight entry for `seq`, if present.
    #[must_use]
    pub fn entry(&self, seq: Seq) -> Option<&LqEntry> {
        self.entries
            .binary_search_by_key(&seq, |e| e.seq)
            .ok()
            .and_then(|i| self.entries.get(i))
    }

    /// Pops the oldest load for commit.
    ///
    /// # Panics
    ///
    /// Panics if empty.
    pub fn commit_head(&mut self) -> LqEntry {
        let head = self.entries.pop_front().expect("commit from empty LQ");
        self.head_id += 1;
        head
    }

    /// Iterates over in-flight loads, oldest first — the CAM search path a
    /// conventional LQ performs on every store execution.
    pub fn iter(&self) -> impl Iterator<Item = &LqEntry> {
        self.entries.iter()
    }

    /// Removes all loads with `seq >= from` (flush).
    pub fn squash_from(&mut self, from: Seq) {
        while self.entries.back().is_some_and(|e| e.seq >= from) {
            self.entries.pop_back();
        }
    }

    /// Drops everything (drain); the next allocation takes a fresh id.
    pub fn clear(&mut self) {
        self.head_id += self.entries.len() as u64;
        self.entries.clear();
    }
}

sqip_snapshot::snapshot_struct!(LqEntry { seq, pc, span, svw });
sqip_snapshot::snapshot_struct!(LoadQueue { entries, capacity } derived {
    // Ids are positions from the head, so a restored queue renumbers
    // from 0 and its owner re-reads each entry's id.
    head_id: 0,
});

#[cfg(test)]
mod tests {
    use super::*;
    use sqip_types::{Addr, DataSize};

    #[test]
    fn allocate_execute_commit() {
        let mut lq = LoadQueue::new(4);
        let id = lq.allocate(Seq(10), Pc::new(0x40)).unwrap();
        assert!(!lq.entry(Seq(10)).unwrap().is_executed());
        let span = Addr::new(0x100).span(DataSize::Quad);
        lq.record_execution_at(id, Seq(10), span, Ssn::new(3));
        assert!(lq.entry(Seq(10)).unwrap().is_executed());
        let e = lq.commit_head();
        assert_eq!(e.span, Some(span));
        assert_eq!(e.svw, Ssn::new(3));
        assert!(lq.is_empty());
    }

    #[test]
    fn capacity_enforced() {
        let mut lq = LoadQueue::new(1);
        lq.allocate(Seq(1), Pc::new(0)).unwrap();
        assert_eq!(lq.allocate(Seq(2), Pc::new(4)), Err(FullError));
    }

    #[test]
    fn squash_removes_younger() {
        let mut lq = LoadQueue::new(4);
        lq.allocate(Seq(1), Pc::new(0)).unwrap();
        lq.allocate(Seq(5), Pc::new(4)).unwrap();
        lq.allocate(Seq(9), Pc::new(8)).unwrap();
        lq.squash_from(Seq(5));
        assert_eq!(lq.len(), 1);
        assert!(lq.entry(Seq(1)).is_some());
        assert!(lq.entry(Seq(5)).is_none());
    }

    #[test]
    fn entries_need_not_be_dense() {
        // Loads are sparse in sequence space (other instruction types sit
        // between them); lookup is by binary search.
        let mut lq = LoadQueue::new(4);
        lq.allocate(Seq(3), Pc::new(0)).unwrap();
        lq.allocate(Seq(17), Pc::new(4)).unwrap();
        assert!(lq.entry(Seq(17)).is_some());
        assert!(lq.entry(Seq(10)).is_none());
    }

    #[test]
    #[should_panic(expected = "age-ordered")]
    fn out_of_order_allocation_panics() {
        let mut lq = LoadQueue::new(4);
        lq.allocate(Seq(5), Pc::new(0)).unwrap();
        let _ = lq.allocate(Seq(3), Pc::new(4));
    }

    /// Ids against a model of `(seq, id)` pairs over seeded allocate /
    /// execute / commit / squash / clear sequences: allocation hands out
    /// the next id, commit and clear advance the head past what they
    /// drop, a squash keeps every survivor's id (and the re-allocated
    /// loads take the squashed ids again), and every in-flight id
    /// records its own load's execution.
    #[test]
    fn ids_name_their_entries_across_commit_squash_and_clear() {
        let mut rng = 0x1d5_u64;
        let mut next = || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut lq = LoadQueue::new(8);
        let mut model: VecDeque<(Seq, u64)> = VecDeque::new();
        let (mut head, mut seq) = (0u64, 0u64);
        let (mut squashes, mut clears, mut executions) = (0u32, 0u32, 0u32);
        for step in 0..5_000u64 {
            let x = next();
            match x % 10 {
                0..=3 if !lq.is_full() => {
                    seq += 1 + (x >> 8) % 3;
                    let id = lq.allocate(Seq(seq), Pc::new(4 * seq)).unwrap();
                    assert_eq!(id, head + model.len() as u64, "step {step}: allocated id");
                    model.push_back((Seq(seq), id));
                }
                4 | 5 if !model.is_empty() => {
                    let (s, id) = model[((x >> 8) % model.len() as u64) as usize];
                    let span = Addr::new(8 * s.0).span(DataSize::Quad);
                    lq.record_execution_at(id, s, span, Ssn::new(x >> 40));
                    assert_eq!(lq.entry(s).unwrap().span, Some(span), "step {step}");
                    executions += 1;
                }
                6 if !model.is_empty() => {
                    assert_eq!(lq.commit_head().seq, model.pop_front().unwrap().0);
                    head += 1;
                }
                7 | 8 if !model.is_empty() => {
                    let (from, _) = model[((x >> 8) % model.len() as u64) as usize];
                    lq.squash_from(from);
                    model.retain(|&(s, _)| s < from);
                    seq = from.0 - 1;
                    squashes += 1;
                }
                9 if x % 40 == 9 => {
                    lq.clear();
                    head += model.len() as u64;
                    model.clear();
                    clears += 1;
                }
                _ => {}
            }
            assert_eq!(lq.head_id(), head, "step {step}: head id");
            assert_eq!(lq.len(), model.len());
            for (e, &(s, _)) in lq.iter().zip(&model) {
                assert_eq!(e.seq, s, "step {step}");
            }
        }
        assert!(
            squashes > 500 && clears > 10 && executions > 500,
            "{squashes} {clears} {executions}"
        );
    }

    #[test]
    #[should_panic(expected = "LQ id names no in-flight entry")]
    fn a_committed_loads_id_is_refused() {
        let mut lq = LoadQueue::new(4);
        let old = lq.allocate(Seq(1), Pc::new(0)).unwrap();
        lq.allocate(Seq(2), Pc::new(4)).unwrap();
        let _ = lq.commit_head();
        let span = Addr::new(0x100).span(DataSize::Quad);
        lq.record_execution_at(old, Seq(1), span, Ssn::new(1));
    }

    #[test]
    fn a_restored_queue_renumbers_from_its_head() {
        use sqip_snapshot::Snapshot;
        let mut lq = LoadQueue::new(4);
        for s in 1..=3 {
            lq.allocate(Seq(s), Pc::new(0)).unwrap();
        }
        let _ = lq.commit_head();
        assert_eq!(lq.head_id(), 1);
        let mut w = sqip_snapshot::SnapWriter::new();
        lq.save(&mut w).unwrap();
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        let mut r = sqip_snapshot::SnapReader::new(&mut bytes.as_slice()).unwrap();
        let mut back = LoadQueue::load(&mut r).unwrap();
        assert_eq!(back.head_id(), 0);
        let span = Addr::new(0x100).span(DataSize::Quad);
        back.record_execution_at(1, Seq(3), span, Ssn::new(2));
        assert_eq!(back.entry(Seq(3)).unwrap().span, Some(span));
    }
}
