//! The event wheel: one binary heap for the events the engine's near
//! rings cannot hold — re-wakes, far broadcasts, past-requested
//! executions; a few hundredths of an event per instruction.
//!
//! It pops in the reference heap's `(cycle, kind, seq, incarnation)`
//! order within each delivery cycle. An event requested at or before
//! the current cycle (e.g. under a zero-latency configuration) is, as
//! in the reference engine, delivered on the *next* pass, *before* the
//! events requested for that pass: its delivery cycle is `now + 1`,
//! its sort key its requested cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::pipeline::EvKind;

/// One scheduled event: what kind, for which sequence number (or store
/// SSN, for [`EvKind::StoreWake`]), and under which squash incarnation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct WheelEvent {
    /// The cycle the event was *requested* for (its delivery may be later).
    pub at: u64,
    /// Event kind; also the second-rank sort key within a cycle.
    pub kind: EvKind,
    /// Target sequence number (or store SSN for `StoreWake`).
    pub seq: u64,
    /// Squash incarnation the event was scheduled under.
    pub inc: u64,
}

/// The event engine's pending-event queue (see the module docs), in
/// exactly the order `BinaryHeap<Reverse<(cycle, kind, seq, inc)>>`
/// would yield. [`EventWheel::next_at`] answers the engine's skip-ahead
/// question: the earliest cycle at which any event is due.
#[derive(Debug, Default)]
pub(crate) struct EventWheel {
    /// Pending `(delivery cycle, event)` pairs, min-first.
    heap: BinaryHeap<Reverse<(u64, WheelEvent)>>,
    /// Events scheduled (the perf bin's wheel-ops/inst). Diagnostic
    /// state: never serialised, so it cannot perturb bit-identity.
    ops: u64,
}

impl EventWheel {
    /// An empty wheel.
    #[must_use]
    pub fn new() -> EventWheel {
        EventWheel::default()
    }

    /// Schedules `kind` for `seq`/`inc` at cycle `at`, as seen from the
    /// current cycle `now`; an event in the past (`at <= now`) is
    /// delivered at `now + 1`, ordered by `at` (see the module docs).
    pub fn schedule(&mut self, now: u64, at: u64, kind: EvKind, seq: u64, inc: u64) {
        self.ops += 1;
        let ev = WheelEvent { at, kind, seq, inc };
        self.heap.push(Reverse((at.max(now + 1), ev)));
    }

    /// The earliest cycle at which an event is due, if any — the
    /// skip-ahead bound.
    #[must_use]
    pub fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((deliver, _))| deliver)
    }

    /// Pops the next event due at or before `now`, in
    /// `(cycle, kind, seq, inc)` order.
    pub fn pop_due(&mut self, now: u64) -> Option<WheelEvent> {
        self.pop_if(|deliver, _| deliver <= now)
    }

    /// Pops the next due event only if its *requested* cycle precedes
    /// `before`. Past-requested events are delivered a pass late but
    /// fire ahead of everything requested *for* that pass (see the
    /// module docs) — this lets the engine drain exactly those
    /// stragglers before its off-wheel event structures.
    pub fn pop_due_before(&mut self, now: u64, before: u64) -> Option<WheelEvent> {
        self.pop_if(|deliver, ev| deliver <= now && ev.at < before)
    }

    fn pop_if(&mut self, due: impl FnOnce(u64, &WheelEvent) -> bool) -> Option<WheelEvent> {
        let &Reverse((deliver, ev)) = self.heap.peek()?;
        if !due(deliver, &ev) {
            return None;
        }
        self.heap.pop();
        Some(ev)
    }

    /// Pending events.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no event is pending.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        // The heap's layout depends on insertion order; sorted contents
        // make equal wheels snapshot to equal bytes.
        let mut pending: Vec<(u64, WheelEvent)> = self.heap.iter().map(|Reverse(e)| *e).collect();
        pending.sort_unstable();
        pending.save(w)
    }
    fn load(r: &mut sqip_snapshot::SnapReader) -> Result<EventWheel, sqip_snapshot::SnapError> {
        let pending = Vec::<(u64, WheelEvent)>::load(r)?;
        if let Some((deliver, ev)) = pending.iter().find(|(deliver, ev)| *deliver < ev.at) {
            return Err(sqip_snapshot::SnapError::Corrupt(format!(
                "event wheel entry delivered at cycle {deliver}, before its requested cycle {}",
                ev.at
            )));
        }
        Ok(EventWheel {
            heap: pending.into_iter().map(Reverse).collect(),
            ops: 0,
        })
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
        w.schedule(0, 3 * 512 + 7, EvKind::Broadcast, 1, 0);
        w.schedule(0, 2, EvKind::Exec, 2, 0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_at(), Some(2));
        assert_eq!(drain_all(&mut w, 2).len(), 1);
        assert_eq!(w.next_at(), Some(3 * 512 + 7));
        let evs = drain_all(&mut w, 3 * 512 + 7);
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
        // Requested for cycle 4, which already passed: delivered at 11.
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

    /// Regression: two far events exactly 512 cycles apart, with the
    /// engine skipping straight to the first one's cycle. The later one
    /// must not fire with it (a 512-bucket ring once aliased the two).
    #[test]
    fn span_apart_overflow_events_do_not_alias_after_a_skip() {
        let mut w = EventWheel::new();
        w.schedule(0, 600, EvKind::Exec, 1, 0);
        w.schedule(0, 600 + 512, EvKind::Exec, 2, 0);
        assert_eq!(w.next_at(), Some(600));
        // The engine skips idle cycles straight to 600.
        let due = drain_all(&mut w, 600);
        assert_eq!(due.len(), 1, "only the cycle-600 event is due");
        assert_eq!(due[0].seq, 1);
        assert_eq!(w.next_at(), Some(600 + 512));
        let later = drain_all(&mut w, 600 + 512);
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
        w.schedule(2, 512 + 2, EvKind::Wake, 3, 0);
        assert_eq!(w.next_at(), Some(3));
        assert_eq!(drain_all(&mut w, 3).len(), 1);
        assert_eq!(w.next_at(), Some(512 + 2));
        assert_eq!(drain_all(&mut w, 512 + 2).len(), 1);
        assert!(w.is_empty());
    }

    /// Scheduling in a step of the seeded stream below: a past cycle, now,
    /// the next few cycles, or far beyond any near ring.
    fn pick_at(r: u64, now: u64) -> u64 {
        match r % 8 {
            0 => now.saturating_sub((r >> 8) % 6),
            1 => now,
            2..=5 => now + 1 + (r >> 8) % 8,
            _ => now + 300 + (r >> 8) % 3_000,
        }
    }

    /// SplitMix64: a seeded stream with no dependency.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The wheel against a naive model: a `Vec` of `(delivery cycle,
    /// event)` kept sorted by insertion, popped from the front, over
    /// seeded random schedule / `pop_due` / `pop_due_before` sequences
    /// with past-requested and far-future events.
    #[test]
    fn wheel_matches_a_sorted_vec_model_on_random_sequences() {
        let kinds = [
            EvKind::Broadcast,
            EvKind::Wake,
            EvKind::StoreWake,
            EvKind::Exec,
        ];
        let (mut past, mut far, mut popped) = (0u32, 0u32, 0u32);
        for seed in 0..32u64 {
            let mut rng = seed;
            let mut w = EventWheel::new();
            let mut model: Vec<(u64, WheelEvent)> = Vec::new();
            let mut now = 0u64;
            for step in 0..3_000u64 {
                let r = splitmix(&mut rng);
                match r % 10 {
                    0..=4 => {
                        let at = pick_at(r >> 4, now);
                        past += u32::from(at <= now);
                        far += u32::from(at > now + 256);
                        let kind = kinds[((r >> 40) % 4) as usize];
                        let (seq, inc) = ((r >> 44) % 16, (r >> 60) % 2);
                        w.schedule(now, at, kind, seq, inc);
                        let entry = (at.max(now + 1), WheelEvent { at, kind, seq, inc });
                        let pos = model.partition_point(|e| *e <= entry);
                        model.insert(pos, entry);
                    }
                    5 | 6 => {
                        let want = model
                            .first()
                            .is_some_and(|&(d, _)| d <= now)
                            .then(|| model.remove(0).1);
                        popped += u32::from(want.is_some());
                        assert_eq!(w.pop_due(now), want, "seed {seed} step {step}");
                    }
                    7 => {
                        let before = (now + 1).saturating_sub((r >> 8) % 3);
                        let want = model
                            .first()
                            .is_some_and(|&(d, ev)| d <= now && ev.at < before)
                            .then(|| model.remove(0).1);
                        assert_eq!(
                            w.pop_due_before(now, before),
                            want,
                            "seed {seed} step {step}"
                        );
                    }
                    8 => now += (r >> 8) % 3,
                    _ => now = now.max(w.next_at().unwrap_or(now)),
                }
                assert_eq!(w.len(), model.len());
                assert_eq!(w.next_at(), model.first().map(|&(d, _)| d));
            }
        }
        assert!(
            past > 1_000 && far > 1_000 && popped > 1_000,
            "{past} {far} {popped}"
        );
    }

    fn snapshot_bytes(pending: Vec<(u64, WheelEvent)>) -> Vec<u8> {
        use sqip_snapshot::Snapshot;
        let mut w = sqip_snapshot::SnapWriter::new();
        pending.save(&mut w).unwrap();
        let mut bytes = Vec::new();
        w.finish(&mut bytes).unwrap();
        bytes
    }

    /// Hostile snapshot input: an entry delivered before the cycle it was
    /// requested for can come from no schedule call.
    #[test]
    fn an_entry_delivered_before_its_requested_cycle_is_corrupt() {
        use sqip_snapshot::{SnapError, SnapReader, Snapshot};
        let ev = WheelEvent {
            at: 20,
            kind: EvKind::Wake,
            seq: 1,
            inc: 0,
        };
        let ok = snapshot_bytes(vec![(20, ev), (25, WheelEvent { at: 3, ..ev })]);
        assert!(EventWheel::load(&mut SnapReader::new(&mut ok.as_slice()).unwrap()).is_ok());
        let bad = snapshot_bytes(vec![(19, ev)]);
        match EventWheel::load(&mut SnapReader::new(&mut bad.as_slice()).unwrap()) {
            Err(SnapError::Corrupt(detail)) => assert!(detail.contains("19"), "{detail}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
