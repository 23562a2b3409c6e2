//! A tiny deterministic fork-join executor.
//!
//! The build environment has no rayon, so sweeps fan out over scoped
//! `std::thread`s claiming cells from one shared in-order cursor.
//! Results land in a pre-sized slot table indexed by input position, so
//! the output order is a pure function of the input order — never of
//! thread count or scheduling. Combined with the simulator's determinism,
//! this is what makes parallel sweeps bit-identical to serial ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default worker count: one per available core.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every item using up to `threads` workers that claim
/// items **in input order** from one shared cursor, returning results in
/// input order.
///
/// Sweep items are single cells, which no worker can split, so a free
/// worker simply takes the next unclaimed item: the load balances as
/// well as work stealing would, and items start in input order, which is
/// the order their rows stream in.
///
/// Output order is a pure function of input order (slot table indexed by
/// input position), so results are bit-identical for any thread count.
/// `threads <= 1` runs inline on the caller's thread.
pub(crate) fn ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // The cursor only hands out indices; results travel through the
    // slots' mutexes and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = f(i, item);
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
            let got = ordered_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items = ["a", "b", "c"];
        let got = ordered_map(&items, 2, |i, &s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = ordered_map(&[] as &[u8], 4, |_, _| unreachable!());
        assert!(got.is_empty());
    }
}
