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
#[derive(Debug, Clone)]
pub struct LoadQueue {
    entries: VecDeque<LqEntry>,
    capacity: usize,
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

    /// Allocates an entry for a renaming load.
    ///
    /// # Errors
    ///
    /// Returns [`FullError`] when at capacity.
    ///
    /// # Panics
    ///
    /// Panics if allocation is not in age order.
    pub fn allocate(&mut self, seq: Seq, pc: Pc) -> Result<(), FullError> {
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
        Ok(())
    }

    /// Records an executing load's address and SVW SSN.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not in flight.
    pub fn record_execution(&mut self, seq: Seq, span: AddrSpan, svw: Ssn) {
        let e = self.entry_mut(seq).expect("load not in flight");
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
        self.entries.pop_front().expect("commit from empty LQ")
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

    /// Drops everything (drain).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    fn entry_mut(&mut self, seq: Seq) -> Option<&mut LqEntry> {
        self.entries
            .binary_search_by_key(&seq, |e| e.seq)
            .ok()
            .and_then(move |i| self.entries.get_mut(i))
    }
}

sqip_snapshot::snapshot_struct!(LqEntry { seq, pc, span, svw });
sqip_snapshot::snapshot_struct!(LoadQueue { entries, capacity });

#[cfg(test)]
mod tests {
    use super::*;
    use sqip_types::{Addr, DataSize};

    #[test]
    fn allocate_execute_commit() {
        let mut lq = LoadQueue::new(4);
        lq.allocate(Seq(10), Pc::new(0x40)).unwrap();
        assert!(!lq.entry(Seq(10)).unwrap().is_executed());
        let span = Addr::new(0x100).span(DataSize::Quad);
        lq.record_execution(Seq(10), span, Ssn::new(3));
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
}
