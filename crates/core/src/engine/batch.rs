//! Deterministic fan-out of independent decode work across threads.
//!
//! Collision decoding is embarrassingly parallel across *work units* —
//! receive buffers from distinct clients/APs, matched collision pairs,
//! Monte-Carlo rounds — and strictly sequential within one (the receiver
//! FSM carries state between a client's buffers). A [`BatchEngine`] fans
//! a slice of units across a scoped thread pool and returns outputs in
//! input order. Stateful work — a receiver shard fed many client sets, or
//! one receiver per cell episode — goes through the keyed map
//! ([`BatchEngine::map_keyed`]): each item names the state it runs
//! against, one state's items run in input order on one worker, and
//! distinct states run in parallel.
//!
//! **Determinism.** Results are written by unit index, every unit's RNG is
//! seeded from [`unit_seed`] (a function of the base seed and the unit
//! index only), and no state is shared between units — so the output is
//! bit-for-bit identical for any thread count, including 1. The
//! multi-thread-equals-single-thread test in `tests/engine.rs` pins this.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A scoped worker pool for independent work units.
#[derive(Clone, Copy, Debug)]
pub struct BatchEngine {
    threads: usize,
}

impl BatchEngine {
    /// An engine with `threads` workers; `0` means one worker per
    /// available CPU.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// The single-threaded engine (runs units inline, in order).
    pub fn single_threaded() -> Self {
        Self { threads: 1 }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, fanning across the pool. Outputs are
    /// returned in input order; `f` receives `(index, &item)`.
    ///
    /// Work is distributed by an atomic cursor (dynamic load balancing:
    /// decode times vary wildly between clean buffers and deep zigzag
    /// decodes), which does not affect output order or content.
    pub fn map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        self.map_with(items, || (), |_, i, t| f(i, t))
    }

    /// [`Self::map`] with reusable worker-local state: `init` builds one
    /// `S` per worker thread, and `f` receives it mutably for every item
    /// that worker claims. This is how per-thread
    /// [`Scratch`](crate::engine::Scratch) arenas ride a fan-out without either
    /// sharing (they are `!Sync` by design) or re-allocating per item —
    /// e.g. the sharded receiver's parallel detect pre-pass.
    ///
    /// `f` must not let `S` carry information *between* items that
    /// changes outputs (scratch buffers are fine, accumulators are not),
    /// or determinism across thread counts is lost.
    pub fn map_with<T, O, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> O + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            let mut state = init();
            return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<O>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(items.len()) {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let out = f(&mut state, i, &items[i]);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every unit index was claimed by a worker")
            })
            .collect()
    }

    /// The keyed map: runs `f(&mut states[key(item)], item)` for every
    /// item and returns the outputs in input order. One state's items run
    /// in input order on one worker; distinct states run in parallel. With
    /// one thread, or when every item keys the same state, it runs inline
    /// on the caller's thread.
    ///
    /// Each state sees exactly the subsequence of items a serial loop
    /// would feed it, so outputs are identical for any thread count. A
    /// panic in `f` propagates to the caller once the other workers finish.
    pub fn map_keyed<S, T, O, K, F>(&self, states: &mut [S], items: Vec<T>, key: K, f: F) -> Vec<O>
    where
        S: Send,
        T: Send,
        O: Send,
        K: Fn(&T) -> usize,
        F: Fn(&mut S, T) -> O + Sync,
    {
        let keys: Vec<usize> = items.iter().map(key).collect();
        if self.threads <= 1 || keys.iter().all(|&k| k == keys[0]) {
            return items.into_iter().zip(keys).map(|(t, k)| f(&mut states[k], t)).collect();
        }
        let n = items.len();
        let mut queues: Vec<Vec<(usize, T)>> = states.iter().map(|_| Vec::new()).collect();
        for (i, (t, k)) in items.into_iter().zip(keys).enumerate() {
            queues[k].push((i, t));
        }
        // one work unit per touched state, claimed whole by one worker
        let units: Vec<_> = states
            .iter_mut()
            .zip(queues)
            .filter(|(_, queue)| !queue.is_empty())
            .map(|unit| Mutex::new(Some(unit)))
            .collect();
        let done: Vec<Vec<(usize, O)>> = self.map(&units, |_, unit| {
            let (state, queue) = unit
                .lock()
                .expect("keyed unit poisoned")
                .take()
                .expect("every keyed unit is claimed once");
            queue.into_iter().map(|(i, t)| (i, f(state, t))).collect()
        });
        let mut out: Vec<Option<O>> = (0..n).map(|_| None).collect();
        for (i, o) in done.into_iter().flatten() {
            out[i] = Some(o);
        }
        out.into_iter().map(|o| o.expect("every item ran on its state")).collect()
    }
}

impl Default for BatchEngine {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Deterministic per-unit RNG seed: a SplitMix64-style mix of the base
/// seed and the unit index. Use this (never a shared RNG) to seed
/// per-unit randomness so results are independent of scheduling.
pub fn unit_seed(base: u64, index: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_indices() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7] {
            let engine = BatchEngine::new(threads);
            let out = engine.map(&items, |i, &v| {
                assert_eq!(i, v);
                v * 3
            });
            assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_uses_available_parallelism() {
        assert!(BatchEngine::new(0).threads() >= 1);
        assert_eq!(BatchEngine::single_threaded().threads(), 1);
    }

    #[test]
    fn unit_seed_is_index_sensitive_and_stable() {
        let a = unit_seed(42, 0);
        let b = unit_seed(42, 1);
        assert_ne!(a, b);
        assert_eq!(a, unit_seed(42, 0));
        assert_ne!(unit_seed(42, 5), unit_seed(43, 5));
    }

    /// Skewed keys: every third item goes to hot state 0, the rest spread
    /// over cold states 1..=9.
    fn skewed_key(i: usize) -> usize {
        if i.is_multiple_of(3) {
            0
        } else {
            1 + i % 9
        }
    }

    #[test]
    fn map_keyed_returns_outputs_in_input_order() {
        let items: Vec<usize> = (0..200).collect();
        for threads in [1, 2, 4] {
            let mut states = vec![0u64; 10];
            let out = BatchEngine::new(threads).map_keyed(
                &mut states,
                items.clone(),
                |&i| skewed_key(i),
                |seen, i| {
                    *seen += 1;
                    (i, *seen)
                },
            );
            let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, items, "outputs out of input order at {threads} threads");
            assert_eq!(states.iter().sum::<u64>(), 200, "every item runs exactly once");
            assert_eq!(states[0], 67, "the hot state sees every third item");
        }
    }

    #[test]
    fn map_keyed_feeds_each_state_its_items_in_input_order() {
        let items: Vec<usize> = (0..300).collect();
        // what a serial loop returns: each item's position in its key's run
        let serial: Vec<usize> = items
            .iter()
            .map(|&i| (0..=i).filter(|&j| skewed_key(j) == skewed_key(i)).count())
            .collect();
        for threads in [1, 2, 4] {
            let mut states: Vec<Vec<usize>> = vec![Vec::new(); 10];
            let out = BatchEngine::new(threads).map_keyed(
                &mut states,
                items.clone(),
                |&i| skewed_key(i),
                |log, i| {
                    log.push(i);
                    log.len()
                },
            );
            for (k, log) in states.iter().enumerate() {
                let want: Vec<usize> =
                    items.iter().copied().filter(|&i| skewed_key(i) == k).collect();
                assert_eq!(log, &want, "state {k} saw its items out of order at {threads} threads");
            }
            assert_eq!(out, serial, "outputs diverged from the serial loop at {threads} threads");
        }
    }

    #[test]
    fn map_keyed_panic_propagates_instead_of_hanging() {
        for threads in [1, 2, 4] {
            let mut states = vec![(); 4];
            let items: Vec<usize> = (0..64).collect();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                BatchEngine::new(threads).map_keyed(
                    &mut states,
                    items,
                    |&i| i % 4,
                    |_, i| {
                        assert_ne!(i, 37, "injected failure");
                        i
                    },
                )
            }));
            assert!(run.is_err(), "a panic in f must reach the caller at {threads} threads");
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let engine = BatchEngine::new(4);
        let out: Vec<u32> = engine.map(&[] as &[u32], |_, &v| v);
        assert!(out.is_empty());
    }
}
