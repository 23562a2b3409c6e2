//! A tiny deterministic fork-join executor.
//!
//! The build environment has no rayon, so sweeps fan out over scoped
//! `std::thread`s pulling workload groups from work-stealing deques.
//! Results land in a pre-sized slot table indexed by input position, so
//! the output order is a pure function of the input order — never of
//! thread count or scheduling. Combined with the simulator's determinism,
//! this is what makes parallel sweeps bit-identical to serial ones.

use std::sync::Mutex;

/// Default worker count: one per available core.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item using up to `threads` workers pulling from a
/// **work-stealing queue**, returning results in input order.
///
/// Sweep *groups* are few and lopsided — one `mix:…:50m` group can
/// outweigh ten SPEC-model groups. Each worker is seeded with a deque of items (dealt
/// round-robin by index) and pops from its own back; an idle worker
/// steals from the *front* of the busiest remaining deque, so big groups
/// migrate to free cores instead of serializing behind whichever worker
/// happened to draw them.
///
/// Output order is a pure function of input order (slot table indexed by
/// input position), so results are bit-identical for any thread count.
/// `threads <= 1` runs inline on the caller's thread.
pub(crate) fn work_steal_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(items.len());
    // Deques hold item indices; stealing moves indices, never results.
    let deques: Vec<Mutex<std::collections::VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..items.len())
                    .filter(|i| i % workers == w)
                    .collect::<std::collections::VecDeque<usize>>(),
            )
        })
        .collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let f = &f;
            scope.spawn(move || loop {
                // Own work first (back of own deque)…
                let mine = deques[w].lock().expect("deque poisoned").pop_back();
                let i = match mine {
                    Some(i) => i,
                    None => {
                        // …then steal from the front of the fullest deque,
                        // retrying across victims (a racing thief may drain
                        // the chosen one) until every deque is empty.
                        let mut stolen = None;
                        // Snapshot the lengths before sorting: other
                        // workers pop concurrently, and a key that changes
                        // mid-sort is not a total order (the sort panics).
                        let mut victims: Vec<(usize, usize)> = (0..workers)
                            .filter(|&v| v != w)
                            .map(|v| (deques[v].lock().expect("deque poisoned").len(), v))
                            .collect();
                        victims.sort_by_key(|&(len, _)| std::cmp::Reverse(len));
                        for (_, v) in victims {
                            if let Some(i) = deques[v].lock().expect("deque poisoned").pop_front() {
                                stolen = Some(i);
                                break;
                            }
                        }
                        match stolen {
                            Some(i) => i,
                            None => break, // every deque is empty: done
                        }
                    }
                };
                let result = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = work_steal_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c"];
        let got = work_steal_map(&items, 2, |i, &s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = work_steal_map(&[] as &[u8], 4, |_, _| unreachable!());
        assert!(got.is_empty());
    }
}
