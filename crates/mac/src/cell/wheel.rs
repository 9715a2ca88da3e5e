//! Slotted event wheel.
//!
//! The simulator is slot-synchronous (one 802.11 slot per tick), so the
//! natural priority queue is a wheel: one bucket of transmission
//! attempts per slot, drained in slot order. Arrivals — one per offered
//! frame, rare beside the attempts — wait in one queue ordered by slot.
//! Within a slot, arrivals drain before attempts, each kind sorted by
//! station index, so the drain order is a pure function of the schedule,
//! never of insertion order.
//!
//! Under load a slot collects hundreds of attempts (every carrier-sense
//! deferral redraws into the contention window), so long buckets sort by
//! radix over the bytes the indices use, and a bucket's first attempt
//! reserves room for a long one.
//!
//! A wake carries the station's *dense index* into the simulator's
//! station table, not its id. Indices are handed out in ascending id
//! order, so sorting by index is sorting by id: the drain order is the
//! one an id-keyed wheel would give, and a wake reaches its station by
//! one array access.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled wake-up for one station, by its dense table index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// A new frame arrives at the station's queue head.
    Arrival(u32),
    /// The station's backoff expired; it attempts a transmission.
    Attempt(u32),
}

/// Scheduled wakes up to a fixed horizon: attempts in one bucket per
/// slot, arrivals in one queue ordered by slot, then index.
#[derive(Debug)]
pub struct EventWheel {
    attempts: Vec<Vec<u32>>,
    /// `slot << 32 | index` per queued arrival, least first.
    arrivals: BinaryHeap<Reverse<u64>>,
    /// Radix-sort staging, kept across drains.
    scratch: Vec<u32>,
}

impl EventWheel {
    /// A wheel covering slots `0..horizon`.
    ///
    /// # Panics
    /// If a slot number would not fit 32 bits (such a wheel would need
    /// 24 bytes per slot, over 100 GB, anyway).
    pub fn new(horizon: u64) -> Self {
        assert!(horizon <= 1 << 32, "horizon {horizon} exceeds 32-bit slots");
        Self {
            attempts: vec![Vec::new(); horizon as usize],
            arrivals: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of slots the wheel covers.
    pub fn horizon(&self) -> u64 {
        self.attempts.len() as u64
    }

    /// Schedules `wake` at `slot`. Returns `false` (dropping the wake)
    /// if the slot lies beyond the horizon — the simulation is ending
    /// and the station simply never fires again.
    pub fn schedule(&mut self, slot: u64, wake: Wake) -> bool {
        if slot >= self.horizon() {
            return false;
        }
        match wake {
            Wake::Arrival(s) => self.arrivals.push(Reverse(slot << 32 | u64::from(s))),
            Wake::Attempt(s) => {
                let bucket = &mut self.attempts[slot as usize];
                // skips the first regrowths of a busy slot; the room is
                // freed with the drained bucket, so memory still tracks
                // the wakes in flight
                if bucket.capacity() == 0 {
                    bucket.reserve(RADIX_MIN);
                }
                bucket.push(s);
            }
        }
        true
    }

    /// Removes the wakes of `slot` into `out` (cleared first), in
    /// canonical order: arrivals first, then attempts, each by station
    /// index. Slots drain in ascending order: an arrival left at a slot
    /// already drained is dropped. The caller keeps `out` across slots,
    /// so draining allocates nothing once the buffer has grown to the
    /// busiest slot.
    pub fn drain(&mut self, slot: u64, out: &mut Vec<Wake>) {
        out.clear();
        while let Some(&Reverse(key)) = self.arrivals.peek() {
            if key >> 32 > slot {
                break;
            }
            self.arrivals.pop();
            if key >> 32 == slot {
                out.push(Wake::Arrival(key as u32));
            }
        }
        let Some(bucket) = self.attempts.get_mut(slot as usize) else {
            return;
        };
        let mut attempts = std::mem::take(bucket);
        sort_indices(&mut attempts, &mut self.scratch);
        out.extend(attempts.into_iter().map(Wake::Attempt));
    }
}

/// Buckets shorter than this sort by comparison.
const RADIX_MIN: usize = 64;

/// Sorts station indices ascending: long buckets by an LSD radix sort
/// over the bytes the largest index uses, staged through `tmp` (kept
/// across calls), short ones by comparison.
fn sort_indices(keys: &mut Vec<u32>, tmp: &mut Vec<u32>) {
    if keys.len() < RADIX_MIN {
        keys.sort_unstable();
        return;
    }
    let max = keys.iter().copied().max().unwrap_or(0);
    tmp.clear();
    tmp.resize(keys.len(), 0);
    for byte in 0..(32 - max.leading_zeros()).div_ceil(8) {
        let shift = 8 * byte;
        let mut offsets = [0u32; 256];
        for &k in keys.iter() {
            offsets[((k >> shift) & 0xff) as usize] += 1;
        }
        let mut sum = 0;
        for o in offsets.iter_mut() {
            (*o, sum) = (sum, sum + *o);
        }
        for &k in keys.iter() {
            let d = ((k >> shift) & 0xff) as usize;
            tmp[offsets[d] as usize] = k;
            offsets[d] += 1;
        }
        std::mem::swap(keys, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_is_sorted_regardless_of_insertion_order() {
        let mut w = EventWheel::new(4);
        assert!(w.schedule(2, Wake::Attempt(7)));
        assert!(w.schedule(2, Wake::Arrival(9)));
        assert!(w.schedule(2, Wake::Attempt(3)));
        assert!(w.schedule(2, Wake::Arrival(1)));
        let mut out = vec![Wake::Attempt(99)];
        w.drain(2, &mut out);
        assert_eq!(
            out,
            vec![Wake::Arrival(1), Wake::Arrival(9), Wake::Attempt(3), Wake::Attempt(7)]
        );
        w.drain(2, &mut out);
        assert!(out.is_empty(), "drain empties the bucket and clears the buffer");
    }

    proptest::proptest! {
        /// The radix path sorts like the comparison sort: duplicates,
        /// every index width, lengths on both sides of the switch.
        #[test]
        fn radix_sort_equals_comparison_sort(
            keys in proptest::collection::vec(0u32..u32::MAX, 0..300),
            width in 1u32..33,
        ) {
            let mask = u32::MAX >> (32 - width);
            let mut keys: Vec<u32> = keys.into_iter().map(|k| k & mask).collect();
            let mut want = keys.clone();
            want.sort_unstable();
            sort_indices(&mut keys, &mut Vec::new());
            proptest::prop_assert_eq!(keys, want);
        }
    }

    #[test]
    fn arrivals_drain_at_their_own_slot() {
        let mut w = EventWheel::new(4);
        for (slot, s) in [(3, 2), (1, 8), (3, 0), (2, 5), (1, 4)] {
            assert!(w.schedule(slot, Wake::Arrival(s)));
        }
        let mut out = Vec::new();
        let drained: Vec<Vec<Wake>> = (0..4)
            .map(|t| {
                w.drain(t, &mut out);
                out.clone()
            })
            .collect();
        use Wake::Arrival as A;
        assert_eq!(drained, [vec![], vec![A(4), A(8)], vec![A(5)], vec![A(0), A(2)]]);
    }

    #[test]
    fn beyond_horizon_is_dropped() {
        let mut w = EventWheel::new(2);
        assert!(!w.schedule(2, Wake::Arrival(0)));
        let mut out = Vec::new();
        w.drain(1, &mut out);
        assert!(out.is_empty());
        w.drain(2, &mut out);
        assert!(out.is_empty(), "draining past the horizon is empty");
        assert_eq!(w.horizon(), 2);
    }
}
