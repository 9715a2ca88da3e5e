//! The bounded blocking queue between the stream source and one
//! receiver shard — the link in the backpressure chain that turns a slow
//! shard into a blocked `push_samples`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded blocking queue feeding one receiver shard.
///
/// `push` blocks while the queue is full — backpressure, never loss —
/// and `pop` blocks while it is empty, returning `None` only after
/// [`IngestQueue::close`] with the queue drained.
#[derive(Debug)]
pub(crate) struct IngestQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
    stalls: u64,
}

impl<T> IngestQueue<T> {
    /// An open queue holding at most `cap` items (at least 1).
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
                stalls: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Whether no item is waiting — the shard's worker has caught up
    /// with everything pushed so far.
    pub(crate) fn is_empty(&self) -> bool {
        self.state.lock().expect("ingest queue poisoned").items.is_empty()
    }

    /// Highest occupancy the queue has reached since creation — how close
    /// the producer has come to saturating this shard.
    pub(crate) fn high_water(&self) -> usize {
        self.state.lock().expect("ingest queue poisoned").high_water
    }

    /// How many `push` calls found the queue full and had to block
    /// (backpressure events — each one throttled the producer).
    pub(crate) fn stalls(&self) -> u64 {
        self.state.lock().expect("ingest queue poisoned").stalls
    }

    /// Enqueues an item, blocking while the queue is full. Returns
    /// whether it had to block, or the item back if the queue was closed.
    pub(crate) fn push(&self, item: T) -> Result<bool, T> {
        let mut state = self.state.lock().expect("ingest queue poisoned");
        let blocked = state.items.len() >= self.cap && !state.closed;
        if blocked {
            state.stalls += 1;
        }
        while state.items.len() >= self.cap && !state.closed {
            state = self.not_full.wait(state).expect("ingest queue poisoned");
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(blocked)
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ingest queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ingest queue poisoned");
        }
    }

    /// Closes the queue: pending items still drain, further pushes fail,
    /// and blocked consumers wake.
    pub(crate) fn close(&self) {
        self.state.lock().expect("ingest queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn len<T>(q: &IngestQueue<T>) -> usize {
        q.state.lock().unwrap().items.len()
    }

    #[test]
    fn queue_is_fifo_and_drains_after_close() {
        let q = IngestQueue::new(4);
        assert_eq!(len(&q), 0);
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(len(&q), 3);
        q.close();
        assert_eq!(q.push(9), Err(9), "push after close must fail");
        assert_eq!((q.pop(), q.pop(), q.pop(), q.pop()), (Some(0), Some(1), Some(2), None));
    }

    #[test]
    fn queue_capacity_has_a_floor_of_one() {
        assert_eq!(IngestQueue::<u8>::new(0).cap, 1);
    }

    #[test]
    fn queue_telemetry_tracks_occupancy_and_stalls() {
        let q = IngestQueue::new(2);
        assert_eq!((q.high_water(), q.stalls()), (0, 0));
        assert_eq!(q.push(1), Ok(false), "a push with room does not block");
        assert_eq!(q.high_water(), 1);
        q.push(2).unwrap();
        assert_eq!(q.high_water(), 2);
        // a blocked push on a full queue counts exactly one stall and
        // reports that it blocked
        std::thread::scope(|s| {
            let pusher = s.spawn(|| q.push(3));
            while q.stalls() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(q.pop(), Some(1));
            assert_eq!(pusher.join().unwrap(), Ok(true));
        });
        assert_eq!(q.stalls(), 1);
        assert_eq!(q.high_water(), 2, "pop before the blocked push lands keeps occupancy ≤ cap");
        // draining does not reset the marks
        assert_eq!((q.pop(), q.pop()), (Some(2), Some(3)));
        assert_eq!((q.high_water(), q.stalls()), (2, 1));
    }

    #[test]
    fn full_queue_blocks_producer_without_dropping() {
        // Backpressure semantics: with capacity 2 and a slow consumer,
        // every one of the 64 pushes must eventually land, the queue
        // never exceeds capacity, and the consumer sees all items in
        // order.
        let q = IngestQueue::new(2);
        let max_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..64usize {
                    q.push(i).unwrap();
                    max_seen.fetch_max(len(&q), Ordering::Relaxed);
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(i) = q.pop() {
                std::thread::yield_now();
                got.push(i);
            }
            assert_eq!(got, (0..64).collect::<Vec<_>>(), "no buffer may be dropped or reordered");
        });
        assert!(max_seen.load(Ordering::Relaxed) <= 2, "bounded queue must stay bounded");
    }
}
