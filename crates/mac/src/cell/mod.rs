//! Cell-scale MAC co-simulation.
//!
//! The paper's gain is network-level: hidden-terminal collisions that
//! carrier sense cannot prevent become deliverable throughput. This
//! module scales the MAC substrate from the seed's single contending
//! pair to a whole cell — thousands to millions of stations — by
//! splitting the work the way the physics splits it:
//!
//! * **Symbolic fast path.** Arrivals, carrier sensing, backoff and
//!   clean (single-transmitter) receptions are pure discrete events on a
//!   slotted [`wheel::EventWheel`]. A million configured stations cost
//!   one closed-form first draw each (`rand::StdRng::first_u64` on the
//!   station's key, no generator built); only the few thousand whose
//!   first arrival falls inside the run get a generator and become state
//!   machines, in a dense table the wheel addresses by index.
//! * **Signal-level slow path.** Only *genuine* collisions — two or more
//!   transmissions overlapping at one AP — are worth IQ samples. They
//!   are packaged as [`resolver::CollisionRound`]s and handed to a
//!   pluggable [`resolver::CollisionResolver`]: the real ZigZag receiver
//!   (synthesised air → decode, see `zigzag_testbed::cell`), the
//!   symbolic [`model::DecodeModel`], or a deterministic sampled split
//!   of the two ([`resolver::SplitResolver`]) that keeps million-station
//!   runs tractable while cross-validating the model against real
//!   decodes. A **solo retransmission** by a station whose earlier
//!   attempts sit in stored collisions also routes through the resolver
//!   (as a `k = 1` round carrying [`resolver::CollisionRound::peers`]):
//!   §4.1's reap — decode the clean packet, subtract it from the stored
//!   collisions, recover the buried partners without them ever
//!   retransmitting.
//!
//! Decode verdicts flow back into the stations' [`crate::BackoffState`]
//! and retry counters, closing the loop from MAC contention down to IQ
//! samples and back.
//!
//! **Determinism contract.** Every station owns an RNG stream seeded
//! from `(seed, station id)`; per-round resolver draws are keyed by
//! `(seed, episode, round)`. No behaviour depends on hash-map iteration
//! order or thread count — the event trace (and its FNV-1a
//! [`sim::CellOutcome::trace_hash`]) is bit-identical across 1/2/4
//! decode threads and across symbolic-vs-lowered runs at 100% sampling.
//!
//! Literature scenarios ship as [`preset::CellPreset`]s: DCF over a
//! hidden-terminal sensing graph, ZigZag-enhanced slotted ALOHA
//! (arXiv:1501.00976), plain slotted ALOHA, and the game-theoretic
//! non-cooperative persistence equilibrium (arXiv:1501.00881).

pub mod discipline;
pub mod model;
pub mod preset;
pub mod resolver;
pub mod sensing;
pub mod sim;
pub mod wheel;

pub use discipline::{AlohaBackoff, Discipline};
pub use model::DecodeModel;
pub use preset::{symbolic_curve, CellPreset, LoadPoint};
pub use resolver::{
    CollisionResolver, CollisionRound, FrameRef, RoundResolution, SplitResolver, Tally, TxAttempt,
    Verdict,
};
pub use sensing::{SenseRule, SensingGraph};
pub use sim::{
    run_cell, ArrivalModel, CellConfig, CellOutcome, CellStats, StationCounters, TraceEvent,
};
pub use wheel::{EventWheel, Wake};

/// SplitMix64 finaliser — the same mix the engine's `unit_seed` uses, so
/// every derived stream is decorrelated from its neighbours.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives a child seed from a base seed and one key.
pub fn mix2(seed: u64, key: u64) -> u64 {
    mix64(seed ^ mix64(key))
}

/// Derives a child seed from a base seed and two keys (e.g. episode and
/// round).
pub fn mix3(seed: u64, key1: u64, key2: u64) -> u64 {
    mix64(mix2(seed, key1) ^ mix64(key2.wrapping_mul(0xa076_1d64_78bd_642f)))
}

/// Maps a 64-bit hash to a uniform fraction in `[0, 1)`.
pub(crate) fn hash_fraction(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_stable_and_distinct() {
        assert_eq!(mix2(1, 2), mix2(1, 2));
        assert_ne!(mix2(1, 2), mix2(2, 1));
        assert_ne!(mix3(1, 2, 3), mix3(1, 3, 2));
        let f = hash_fraction(mix2(99, 7));
        assert!((0.0..1.0).contains(&f));
    }
}
