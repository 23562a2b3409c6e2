//! The event wheel: O(1) scheduling for wakeups, latencies and replays.
//!
//! The reference engine keeps its pending events in a `BinaryHeap`; every
//! push and pop pays a logarithmic sift over tuples. The event engine
//! instead slots events into a fixed ring of per-cycle buckets (the
//! *wheel*), with a small overflow heap for the rare event scheduled
//! further ahead than the wheel span (long memory latencies). Scheduling
//! is an index and a push; draining a cycle is taking its bucket.
//!
//! Two properties keep the engine bit-identical to the reference heap:
//!
//! * **Order.** Within a cycle, the heap yields events sorted by
//!   `(cycle, kind, seq, incarnation)`. A bucket preserves insertion
//!   order instead, so it is sorted by the same key before draining.
//! * **The past.** The pipeline may compute a wakeup time at or before
//!   the current cycle (e.g. a zero-latency configuration). The heap
//!   fires such an event on the *next* `process_events` pass, *before*
//!   events scheduled for that cycle; the wheel therefore clamps the
//!   event's bucket to `now + 1` but keeps the original cycle as its
//!   sort key, reproducing the heap's order exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::pipeline::EvKind;

/// Cycles covered by the ring of buckets; events further out wait in the
/// overflow heap and migrate in as the wheel turns.
const SPAN: u64 = 512;

/// Words in the bucket-occupancy bitmap (one bit per bucket).
const OCC_WORDS: usize = SPAN as usize / 64;

/// One scheduled event: what kind, for which sequence number (or store
/// SSN, for [`EvKind::StoreWake`]), and under which squash incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WheelEvent {
    /// The cycle the event was *requested* for (may be clamped into the
    /// future for delivery; see the module docs).
    pub at: u64,
    /// Event kind; also the second-rank sort key within a cycle.
    pub kind: EvKind,
    /// Target sequence number (or store SSN for `StoreWake`).
    pub seq: u64,
    /// Squash incarnation the event was scheduled under.
    pub inc: u64,
}

/// A fixed-span timing wheel with an overflow heap, yielding events in
/// exactly the order `BinaryHeap<Reverse<(cycle, kind, seq, inc)>>`
/// would.
///
/// Used by the event engine for what its off-wheel near structures
/// cannot hold: targeted re-wakes, long-latency broadcasts and
/// past-requested execute-stage entries. The wheel also
/// answers the engine's skip-ahead question — [`EventWheel::next_at`] is
/// the earliest cycle at which any event is due — in O(occupied span).
pub struct EventWheel {
    /// `buckets[c % SPAN]` holds the events delivered at cycle `c`, for
    /// `c` in `(drained, drained + SPAN]`.
    buckets: Vec<Vec<WheelEvent>>,
    /// Bucket-occupancy bitmap (bit `i` set iff `buckets[i]` is
    /// non-empty): turns the earliest-bucket rescan from an O(SPAN) walk
    /// over bucket headers into a handful of word tests. Derived state —
    /// rebuilt from the buckets on snapshot load, never serialised.
    occ: [u64; OCC_WORDS],
    /// Events beyond the wheel span, keyed by delivery cycle.
    far: BinaryHeap<Reverse<(u64, WheelEvent)>>,
    /// Every bucket at or before this cycle has been drained.
    drained: u64,
    /// Exact earliest non-empty bucket cycle (`u64::MAX` when the wheel
    /// ring is empty; the overflow heap is tracked separately).
    earliest: u64,
    /// Events resident in the ring.
    ring_len: usize,
    /// The bucket currently being drained, sorted descending so that
    /// [`EventWheel::pop_due`] pops ascending from the tail.
    current: Vec<WheelEvent>,
    /// Spare bucket storage, recycled to keep draining allocation-free.
    spare: Vec<WheelEvent>,
    /// Events scheduled over the wheel's lifetime — the scheduling-cost
    /// instrumentation behind the perf bin's wheel-ops/inst metric.
    /// Diagnostic state: never serialised (snapshot loads reset it), so
    /// it cannot perturb snapshot bytes or bit-identity.
    ops: u64,
}

impl EventWheel {
    /// An empty wheel starting at cycle 0.
    #[must_use]
    pub fn new() -> EventWheel {
        EventWheel {
            buckets: (0..SPAN).map(|_| Vec::new()).collect(),
            occ: [0; OCC_WORDS],
            far: BinaryHeap::new(),
            drained: 0,
            earliest: u64::MAX,
            ring_len: 0,
            current: Vec::new(),
            spare: Vec::new(),
            ops: 0,
        }
    }

    /// Schedules `kind` for `seq`/`inc` at cycle `at`, as seen from the
    /// current cycle `now`.
    ///
    /// An event in the past (`at <= now`) is delivered on the next
    /// [`EventWheel::pop_due`] pass — clamped to bucket `now + 1` but
    /// ordered by its requested cycle, exactly like the reference heap.
    pub fn schedule(&mut self, now: u64, at: u64, kind: EvKind, seq: u64, inc: u64) {
        self.ops += 1;
        let ev = WheelEvent { at, kind, seq, inc };
        let place = at.max(now + 1);
        debug_assert!(place > self.drained, "scheduling into a drained bucket");
        if place > self.drained + SPAN {
            self.far.push(Reverse((place, ev)));
        } else {
            let idx = (place % SPAN) as usize;
            self.buckets[idx].push(ev);
            self.occ[idx / 64] |= 1 << (idx % 64);
            self.ring_len += 1;
            self.earliest = self.earliest.min(place);
        }
    }

    /// The earliest cycle at which an event is due, if any — the
    /// skip-ahead bound.
    #[must_use]
    pub fn next_at(&self) -> Option<u64> {
        let mut next = self.earliest;
        if let Some(ev) = self.current.last() {
            next = next.min(ev.at);
        }
        if let Some(&Reverse((at, _))) = self.far.peek() {
            next = next.min(at);
        }
        (next != u64::MAX).then_some(next)
    }

    /// Pops the next event due at or before `now`, in
    /// `(cycle, kind, seq, inc)` order.
    pub fn pop_due(&mut self, now: u64) -> Option<WheelEvent> {
        self.ensure_current(now);
        self.current.pop()
    }

    /// Pops the next due event only if its *requested* cycle precedes
    /// `before`. Events requested in the past get clamped into a later
    /// delivery pass (see the module docs) but keep their original cycle
    /// as sort key, so the reference heap fires them ahead of everything
    /// requested *for* the delivery cycle — this lets the engine drain
    /// exactly those stragglers before its off-wheel event structures.
    pub fn pop_due_before(&mut self, now: u64, before: u64) -> Option<WheelEvent> {
        self.ensure_current(now);
        if self.current.last().is_some_and(|ev| ev.at < before) {
            self.current.pop()
        } else {
            None
        }
    }

    /// Refills `current` with the earliest due bucket so its tail is the
    /// next event due at or before `now` (leaves it empty if none is).
    fn ensure_current(&mut self, now: u64) {
        loop {
            if !self.current.is_empty() {
                return;
            }
            // With an empty ring the window can fast-forward, so overflow
            // events far beyond the old window stay reachable after a
            // long skip. Forward to `now - 1`, not `now`: an event due
            // exactly at `now` must stay inside the window `(drained,
            // drained + SPAN]`, and one due at `now + SPAN` must stay
            // *outside* it — at `drained = now` the two would alias into
            // a single bucket and the later one would fire early.
            if self.ring_len == 0 {
                self.drained = self.drained.max(now.saturating_sub(1));
            }
            // Pull overflow events whose delivery cycle has entered the
            // wheel window.
            while let Some(&Reverse((at, ev))) = self.far.peek() {
                if at > self.drained + SPAN {
                    break;
                }
                self.far.pop();
                let idx = (at % SPAN) as usize;
                self.buckets[idx].push(ev);
                self.occ[idx / 64] |= 1 << (idx % 64);
                self.ring_len += 1;
                self.earliest = self.earliest.min(at);
            }
            if self.earliest > now {
                return;
            }
            // Take the earliest bucket and sort it into heap order.
            let cy = self.earliest;
            let idx = (cy % SPAN) as usize;
            std::mem::swap(&mut self.buckets[idx], &mut self.spare);
            std::mem::swap(&mut self.current, &mut self.spare);
            self.occ[idx / 64] &= !(1 << (idx % 64));
            self.ring_len -= self.current.len();
            if self.current.len() > 1 {
                self.current.sort_unstable_by(|a, b| b.cmp(a));
            }
            self.drained = cy;
            self.rescan_earliest();
        }
    }

    /// Recomputes `earliest` after its bucket was taken: a circular
    /// first-set-bit scan over the occupancy bitmap, starting at the
    /// bucket for cycle `drained + 1` — at most `OCC_WORDS + 1` word
    /// tests and one `trailing_zeros` instead of up to SPAN bucket loads.
    fn rescan_earliest(&mut self) {
        self.earliest = u64::MAX;
        if self.ring_len == 0 {
            return;
        }
        let start = ((self.drained + 1) % SPAN) as usize;
        let (w0, b0) = (start / 64, start % 64);
        for step in 0..=OCC_WORDS {
            let wi = (w0 + step) % OCC_WORDS;
            let mut word = self.occ[wi];
            if step == 0 {
                word &= !0u64 << b0;
            } else if step == OCC_WORDS {
                // Back at the start word: only the bits below `start`
                // (the wrapped-around tail of the window) remain.
                word &= (1u64 << b0) - 1;
            }
            if word != 0 {
                let idx = wi * 64 + word.trailing_zeros() as usize;
                let delta = (idx + SPAN as usize - start) % SPAN as usize;
                self.earliest = self.drained + 1 + delta as u64;
                return;
            }
        }
        debug_assert!(false, "ring_len > 0 but no occupied bucket");
    }

    /// Pending events (ring + overflow + the bucket being drained).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len() + self.current.len()
    }

    /// Whether no event is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events scheduled since construction (or since the last snapshot
    /// restore — the counter is diagnostic state, not serialised).
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }
}

sqip_snapshot::snapshot_struct!(WheelEvent { at, kind, seq, inc });

impl sqip_snapshot::Snapshot for EventWheel {
    fn save(&self, w: &mut sqip_snapshot::SnapWriter) -> Result<(), sqip_snapshot::SnapError> {
        self.buckets.save(w)?;
        // The overflow heap's internal layout is insertion-order dependent;
        // serialise its *contents* sorted so equal wheels snapshot to equal
        // bytes.
        let mut far: Vec<(u64, WheelEvent)> = self.far.iter().map(|Reverse(e)| *e).collect();
        far.sort_unstable();
        far.save(w)?;
        self.drained.save(w)?;
        self.earliest.save(w)?;
        self.ring_len.save(w)?;
        self.current.save(w)
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<EventWheel, sqip_snapshot::SnapError> {
        let buckets = Vec::<Vec<WheelEvent>>::load(r)?;
        let far_items = Vec::<(u64, WheelEvent)>::load(r)?;
        let drained = u64::load(r)?;
        let earliest = u64::load(r)?;
        let ring_len = usize::load(r)?;
        let current = Vec::<WheelEvent>::load(r)?;
        if buckets.len() as u64 != SPAN {
            return Err(sqip_snapshot::SnapError::Corrupt(format!(
                "event wheel with {} buckets (want {SPAN})",
                buckets.len()
            )));
        }
        if buckets.iter().map(Vec::len).sum::<usize>() != ring_len {
            return Err(sqip_snapshot::SnapError::Corrupt(
                "event wheel ring occupancy disagrees with its buckets".into(),
            ));
        }
        let far = far_items.into_iter().map(Reverse).collect();
        // The occupancy bitmap is derived state: rebuild it from the
        // buckets so the snapshot format is unchanged.
        let mut occ = [0u64; OCC_WORDS];
        for (idx, b) in buckets.iter().enumerate() {
            if !b.is_empty() {
                occ[idx / 64] |= 1 << (idx % 64);
            }
        }
        Ok(EventWheel {
            buckets,
            occ,
            far,
            drained,
            earliest,
            ring_len,
            current,
            spare: Vec::new(),
            ops: 0,
        })
    }
}

impl Default for EventWheel {
    fn default() -> EventWheel {
        EventWheel::new()
    }
}

impl std::fmt::Debug for EventWheel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventWheel")
            .field("len", &self.len())
            .field("drained", &self.drained)
            .field("next_at", &self.next_at())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut EventWheel, now: u64) -> Vec<WheelEvent> {
        let mut out = Vec::new();
        while let Some(ev) = w.pop_due(now) {
            out.push(ev);
        }
        out
    }

    #[test]
    fn events_fire_in_heap_order() {
        let mut w = EventWheel::new();
        w.schedule(0, 5, EvKind::Exec, 9, 0);
        w.schedule(0, 5, EvKind::Broadcast, 4, 0);
        w.schedule(0, 3, EvKind::Wake, 1, 0);
        w.schedule(0, 5, EvKind::Broadcast, 2, 0);
        assert_eq!(w.next_at(), Some(3));
        assert!(w.pop_due(2).is_none(), "nothing due before cycle 3");
        let evs = drain_all(&mut w, 5);
        let key: Vec<_> = evs.iter().map(|e| (e.at, e.kind, e.seq)).collect();
        assert_eq!(
            key,
            vec![
                (3, EvKind::Wake, 1),
                (5, EvKind::Broadcast, 2),
                (5, EvKind::Broadcast, 4),
                (5, EvKind::Exec, 9),
            ]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn far_events_migrate_into_the_ring() {
        let mut w = EventWheel::new();
        w.schedule(0, 3 * SPAN + 7, EvKind::Broadcast, 1, 0);
        w.schedule(0, 2, EvKind::Exec, 2, 0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_at(), Some(2));
        assert_eq!(drain_all(&mut w, 2).len(), 1);
        assert_eq!(w.next_at(), Some(3 * SPAN + 7));
        let evs = drain_all(&mut w, 3 * SPAN + 7);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].seq, 1);
    }

    /// Negative path: a wakeup scheduled *in the past* (the pipeline can
    /// compute one under zero-latency configurations) is delivered on the
    /// next pass, ordered before same-pass future events — the reference
    /// heap's exact behaviour.
    #[test]
    fn past_events_fire_next_pass_before_newer_ones() {
        let mut w = EventWheel::new();
        w.schedule(10, 11, EvKind::Broadcast, 7, 0);
        // Requested for cycle 4, which already passed: bucketed at 11.
        w.schedule(10, 4, EvKind::Exec, 3, 0);
        assert!(w.pop_due(10).is_none(), "nothing due at the current cycle");
        let evs = drain_all(&mut w, 11);
        let key: Vec<_> = evs.iter().map(|e| (e.at, e.kind, e.seq)).collect();
        assert_eq!(
            key,
            vec![(4, EvKind::Exec, 3), (11, EvKind::Broadcast, 7)],
            "the stale event outranks the fresh one, like the heap"
        );
    }

    /// Negative path: duplicate wakeups for one sequence number are all
    /// delivered (the engine's `wake_one` guards make the extras no-ops).
    #[test]
    fn duplicate_wakeups_are_all_delivered() {
        let mut w = EventWheel::new();
        w.schedule(0, 6, EvKind::Wake, 42, 1);
        w.schedule(0, 6, EvKind::Wake, 42, 1);
        let evs = drain_all(&mut w, 6);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0], evs[1]);
    }

    /// Regression: two overflow events exactly `SPAN` cycles apart, with
    /// the ring empty and the engine skipping straight to the first
    /// one's cycle. The empty-ring fast-forward must not migrate both
    /// into one bucket — the later event would fire `SPAN` cycles early.
    #[test]
    fn span_apart_overflow_events_do_not_alias_after_a_skip() {
        let mut w = EventWheel::new();
        w.schedule(0, 600, EvKind::Exec, 1, 0); // beyond the initial window
        w.schedule(0, 600 + SPAN, EvKind::Exec, 2, 0);
        assert_eq!(w.next_at(), Some(600));
        // The engine skips idle cycles straight to 600.
        let due = drain_all(&mut w, 600);
        assert_eq!(due.len(), 1, "only the cycle-600 event is due");
        assert_eq!(due[0].seq, 1);
        assert_eq!(w.next_at(), Some(600 + SPAN));
        let later = drain_all(&mut w, 600 + SPAN);
        assert_eq!(later.len(), 1);
        assert_eq!(later[0].seq, 2);
        assert!(w.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_drain_keeps_order() {
        let mut w = EventWheel::new();
        w.schedule(0, 2, EvKind::Exec, 1, 0);
        assert_eq!(drain_all(&mut w, 2).len(), 1);
        // Scheduling after a drain lands after the drained cycle.
        w.schedule(2, 3, EvKind::Wake, 2, 0);
        w.schedule(2, SPAN + 2, EvKind::Wake, 3, 0); // exactly at span edge
        assert_eq!(w.next_at(), Some(3));
        assert_eq!(drain_all(&mut w, 3).len(), 1);
        assert_eq!(w.next_at(), Some(SPAN + 2));
        assert_eq!(drain_all(&mut w, SPAN + 2).len(), 1);
        assert!(w.is_empty());
    }
}
