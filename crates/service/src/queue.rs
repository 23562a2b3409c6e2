//! A bounded, client-fair job queue.
//!
//! [`FairQueue`] is the server's admission boundary: it holds at most
//! `capacity` queued items **total** (the memory bound), refuses
//! reservations beyond that with [`PushError::Full`] (the admission decision), and
//! hands items to workers in **per-client round-robin** order — a client
//! that floods the queue gets its jobs interleaved with everyone else's
//! rather than starving them.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex, PoisonError};

use crate::lock_unpoisoned;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue already holds `capacity` items; admission control says
    /// come back later.
    Full {
        /// The queue's capacity.
        capacity: usize,
    },
    /// The queue was closed (server shutting down).
    Closed,
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::Full { capacity } => {
                write!(f, "queue full ({capacity} jobs queued); retry later")
            }
            PushError::Closed => f.write_str("server is shutting down"),
        }
    }
}

struct QState<T> {
    /// One FIFO per client, in registration order. The round-robin
    /// cursor walks this vector.
    clients: Vec<(u64, VecDeque<T>)>,
    /// Index of the next client to serve.
    rr: usize,
    /// Total queued items across all clients.
    len: usize,
    /// Slots held by live [`Reservation`]s: counted against the
    /// capacity, not yet poppable.
    reserved: usize,
    /// Peak of `len` since construction.
    high_water: usize,
    closed: bool,
}

/// A bounded multi-producer blocking queue with per-client round-robin
/// service order. See the module docs.
pub struct FairQueue<T> {
    state: Mutex<QState<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> fmt::Debug for FairQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FairQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> FairQueue<T> {
    /// Creates a queue admitting at most `capacity` items in total.
    /// A zero capacity is promoted to 1 (a queue that can never admit
    /// anything is useless).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FairQueue {
            state: Mutex::new(QState {
                clients: Vec::new(),
                rr: 0,
                len: 0,
                reserved: 0,
                high_water: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items queued right now.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).len
    }

    /// Peak occupancy since construction — structurally bounded by
    /// [`capacity`](Self::capacity).
    #[must_use]
    pub fn high_water(&self) -> usize {
        lock_unpoisoned(&self.state).high_water
    }

    /// Registers `client` with an empty FIFO so the round-robin cursor
    /// knows about it before its first push (connection setup calls
    /// this; [`Reservation::publish`] also registers lazily).
    /// Idempotent.
    pub fn register(&self, client: u64) {
        let mut st = lock_unpoisoned(&self.state);
        if !st.clients.iter().any(|(id, _)| *id == client) {
            st.clients.push((client, VecDeque::new()));
        }
    }

    /// Holds one queue slot for `client` without handing anything to
    /// the workers yet; [`Reservation::publish`] enqueues the item
    /// (registering the client on first use). This is the queue's one
    /// enqueue path. The slot counts against the capacity from here on,
    /// so `publish` cannot fail; dropping the reservation unpublished
    /// frees the slot. This lets a caller answer an admitted job before
    /// any worker can see it.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when queued items and held reservations
    /// already fill the capacity, [`PushError::Closed`] after
    /// [`close`](Self::close).
    pub fn reserve(&self, client: u64) -> Result<Reservation<'_, T>, PushError> {
        let mut st = lock_unpoisoned(&self.state);
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.len + st.reserved >= self.capacity {
            return Err(PushError::Full {
                capacity: self.capacity,
            });
        }
        st.reserved += 1;
        Ok(Reservation {
            queue: self,
            client,
            held: true,
        })
    }

    /// Blocks until an item is available and returns it, serving clients
    /// round-robin: after serving client *i*, the next pop starts its
    /// scan at client *i*+1. Returns `None` once the queue is closed
    /// **and** drained, held reservations included.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock_unpoisoned(&self.state);
        loop {
            if st.len > 0 {
                let n = st.clients.len();
                let start = if n == 0 { 0 } else { st.rr % n };
                let mut served = None;
                for off in 0..n {
                    let at = (start + off) % n;
                    if let Some(item) = st.clients[at].1.pop_front() {
                        st.rr = (at + 1) % n;
                        st.len -= 1;
                        served = Some(item);
                        break;
                    }
                }
                if served.is_some() {
                    return served;
                }
                // `len` claimed items but every FIFO was empty — the
                // bookkeeping desynchronized (e.g. a thread panicked
                // mid-update and we recovered its poisoned guard).
                // Resync and fall through to wait rather than take the
                // whole server down.
                st.len = 0;
            }
            // A held reservation is an item still to come.
            if st.closed && st.reserved == 0 {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Removes `client` and returns its still-queued items (the caller
    /// settles them — e.g. reports them cancelled). Idle clients
    /// disappear without effect.
    pub fn remove_client(&self, client: u64) -> Vec<T> {
        let mut st = lock_unpoisoned(&self.state);
        let Some(at) = st.clients.iter().position(|(id, _)| *id == client) else {
            return Vec::new();
        };
        let (_, fifo) = st.clients.remove(at);
        if at < st.rr {
            st.rr -= 1;
        }
        if !st.clients.is_empty() {
            st.rr %= st.clients.len();
        } else {
            st.rr = 0;
        }
        st.len -= fifo.len();
        fifo.into()
    }

    /// Closes the queue: future reservations fail with
    /// [`PushError::Closed`]; blocked poppers drain what is left, held
    /// reservations included, and then receive `None`.
    pub fn close(&self) {
        lock_unpoisoned(&self.state).closed = true;
        self.ready.notify_all();
    }
}

/// One queue slot held by [`FairQueue::reserve`]: published into the
/// client's FIFO by [`Reservation::publish`], freed if dropped.
#[must_use = "an unpublished reservation frees its slot when dropped"]
pub struct Reservation<'q, T> {
    queue: &'q FairQueue<T>,
    client: u64,
    /// Whether the slot is still held (not yet published).
    held: bool,
}

impl<T> Reservation<'_, T> {
    /// Hands `item` to the workers in the held slot. Publishing into a
    /// queue closed since the reservation still succeeds: poppers drain
    /// it before they see the end.
    pub fn publish(mut self, item: T) {
        self.held = false;
        let mut st = lock_unpoisoned(&self.queue.state);
        st.reserved -= 1;
        let client = self.client;
        match st.clients.iter_mut().find(|(id, _)| *id == client) {
            Some((_, fifo)) => fifo.push_back(item),
            None => st.clients.push((client, VecDeque::from([item]))),
        }
        st.len += 1;
        st.high_water = st.high_water.max(st.len);
        let closed = st.closed;
        drop(st);
        if closed {
            // Every idle popper of a closed queue may be waiting on this
            // slot; those that find nothing must recheck for the end.
            self.queue.ready.notify_all();
        } else {
            self.queue.ready.notify_one();
        }
    }
}

impl<T> Drop for Reservation<'_, T> {
    fn drop(&mut self) {
        if self.held {
            lock_unpoisoned(&self.queue.state).reserved -= 1;
            // A closed queue's poppers may be waiting on this slot alone.
            self.queue.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push<T>(q: &FairQueue<T>, client: u64, item: T) {
        q.reserve(client).unwrap().publish(item);
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let q = FairQueue::new(16);
        // Client 1 floods; client 2 submits one job afterwards.
        push(&q, 1, "a1");
        push(&q, 1, "a2");
        push(&q, 1, "a3");
        push(&q, 2, "b1");
        // First pop serves client 1 (registration order), second serves
        // client 2 — b1 does not wait behind the flood.
        assert_eq!(q.pop(), Some("a1"));
        assert_eq!(q.pop(), Some("b1"));
        assert_eq!(q.pop(), Some("a2"));
        assert_eq!(q.pop(), Some("a3"));
    }

    #[test]
    fn reservations_hold_capacity_until_published_or_dropped() {
        let q = FairQueue::new(2);
        let a = q.reserve(1).unwrap();
        let b = q.reserve(2).unwrap();
        assert_eq!(q.reserve(3).err(), Some(PushError::Full { capacity: 2 }));
        assert_eq!(q.len(), 0, "a reservation is not poppable");
        drop(b);
        push(&q, 3, "c");
        a.publish("a");
        assert_eq!(q.high_water(), 2);
        // Client 3 registered at its push, client 1 only at publish.
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.pop(), Some("a"));
    }

    /// Idle poppers of a closed queue wait while a reservation is held.
    /// When it is published, one of them gets the item and **every** one
    /// must then get the end, or a server's shutdown would wait forever
    /// on the rest.
    #[test]
    fn a_closed_queue_waits_for_held_reservations() {
        use std::sync::{mpsc, Arc};
        use std::time::Duration;
        let q = Arc::new(FairQueue::new(2));
        let held = q.reserve(1).unwrap();
        q.close();
        assert_eq!(q.reserve(1).err(), Some(PushError::Closed));
        let (tx, rx) = mpsc::channel();
        for _ in 0..3 {
            let (q, tx) = (Arc::clone(&q), tx.clone());
            std::thread::spawn(move || {
                let got: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
                tx.send(got).unwrap();
            });
        }
        // Let the poppers reach their wait before the publish.
        std::thread::sleep(Duration::from_millis(50));
        held.publish(7);
        let mut got = Vec::new();
        for popper in 0..3 {
            let items = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("popper {popper} never saw the end"));
            got.extend(items);
        }
        assert_eq!(got, [7]);
    }

    #[test]
    fn capacity_is_a_hard_total_bound() {
        let q = FairQueue::new(2);
        push(&q, 1, 0);
        push(&q, 2, 1);
        assert_eq!(q.reserve(3).err(), Some(PushError::Full { capacity: 2 }));
        assert_eq!(q.high_water(), 2);
        q.pop();
        push(&q, 3, 2);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn remove_client_drops_its_backlog_and_fixes_the_cursor() {
        let q = FairQueue::new(8);
        push(&q, 1, "a1");
        push(&q, 2, "b1");
        push(&q, 2, "b2");
        push(&q, 3, "c1");
        assert_eq!(q.pop(), Some("a1")); // rr now at client 2
        assert_eq!(q.remove_client(2), vec!["b1", "b2"]);
        assert_eq!(q.pop(), Some("c1"));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = FairQueue::new(4);
        push(&q, 1, 7);
        q.close();
        assert_eq!(q.reserve(1).err(), Some(PushError::Closed));
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        use std::sync::Arc;
        let q = Arc::new(FairQueue::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        push(&q, 1, 42);
        assert_eq!(popper.join().unwrap(), Some(42));
    }
}
