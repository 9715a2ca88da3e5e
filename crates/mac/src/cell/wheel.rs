//! Slotted event wheel.
//!
//! The simulator is slot-synchronous (one 802.11 slot per tick), so the
//! natural priority queue is a wheel: one bucket per slot, drained in
//! slot order. Within a slot, wakes are sorted by a packed key —
//! arrivals before transmission attempts, then by station index — so the
//! drain order is a pure function of the schedule, never of insertion
//! order.
//!
//! A wake carries the station's *dense index* into the simulator's
//! station table, not its id. Indices are handed out in ascending id
//! order, so sorting by index is sorting by id: the drain order is the
//! one an id-keyed wheel would give, and a wake reaches its station by
//! one array access.

/// A scheduled wake-up for one station, by its dense table index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// A new frame arrives at the station's queue head.
    Arrival(u32),
    /// The station's backoff expired; it attempts a transmission.
    Attempt(u32),
}

const ATTEMPT_BIT: u64 = 1 << 40;

impl Wake {
    fn pack(self) -> u64 {
        match self {
            Wake::Arrival(s) => u64::from(s),
            Wake::Attempt(s) => u64::from(s) | ATTEMPT_BIT,
        }
    }

    fn unpack(key: u64) -> Self {
        let station = (key & 0xffff_ffff) as u32;
        if key & ATTEMPT_BIT != 0 {
            Wake::Attempt(station)
        } else {
            Wake::Arrival(station)
        }
    }
}

/// One bucket of scheduled wakes per slot, up to a fixed horizon.
#[derive(Debug)]
pub struct EventWheel {
    slots: Vec<Vec<u64>>,
}

impl EventWheel {
    /// A wheel covering slots `0..horizon`.
    pub fn new(horizon: u64) -> Self {
        Self { slots: vec![Vec::new(); horizon as usize] }
    }

    /// Number of slots the wheel covers.
    pub fn horizon(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Schedules `wake` at `slot`. Returns `false` (dropping the wake)
    /// if the slot lies beyond the horizon — the simulation is ending
    /// and the station simply never fires again.
    pub fn schedule(&mut self, slot: u64, wake: Wake) -> bool {
        match self.slots.get_mut(slot as usize) {
            Some(bucket) => {
                bucket.push(wake.pack());
                true
            }
            None => false,
        }
    }

    /// Removes the wakes of `slot` into `out` (cleared first), in
    /// canonical order: arrivals first, then attempts, each by station
    /// index. The caller keeps `out` across slots, so draining allocates
    /// nothing once the buffer has grown to the busiest slot.
    pub fn drain(&mut self, slot: u64, out: &mut Vec<Wake>) {
        out.clear();
        let Some(bucket) = self.slots.get_mut(slot as usize) else {
            return;
        };
        let mut keys = std::mem::take(bucket);
        keys.sort_unstable();
        out.extend(keys.into_iter().map(Wake::unpack));
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

    #[test]
    fn pack_roundtrips() {
        for wake in [Wake::Arrival(0), Wake::Attempt(0), Wake::Arrival(u32::MAX), Wake::Attempt(5)]
        {
            assert_eq!(Wake::unpack(wake.pack()), wake);
        }
    }
}
