//! Pluggable MAC disciplines.
//!
//! Two families: 802.11 DCF (carrier sense + exponential backoff over a
//! [`crate::cell::SensingGraph`]) and slotted ALOHA (frame-aligned
//! attempts, no sensing) in the variants the ZigZag follow-on literature
//! studies — binary-exponential and fixed-window "ZigZag-aware"
//! rescheduling (arXiv:1501.00976).

use crate::backoff::Backoff;
use rand::Rng;

/// The MAC protocol every station of a cell runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Discipline {
    /// 802.11 DCF: sense before transmitting (per the sensing graph),
    /// defer while busy, back off by `policy` on collisions.
    Dcf {
        /// The backoff window policy (fixed or exponential).
        policy: Backoff,
    },
    /// Slotted ALOHA: transmit on frame boundaries without sensing;
    /// reschedule collisions by `backoff`.
    SlottedAloha {
        /// The retransmission-delay policy, in frame slots.
        backoff: AlohaBackoff,
    },
}

/// Retransmission scheduling for slotted ALOHA, in *frames* (one frame =
/// `packet_slots` wheel slots).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AlohaBackoff {
    /// Delay uniform in `1..=min(base << stage, cap)` frames.
    BinaryExponential {
        /// Window (frames) at stage 0.
        base: u32,
        /// Window cap (frames).
        cap: u32,
    },
    /// Delay uniform in `1..=window` frames regardless of stage. A small
    /// window is the ZigZag-aware choice (arXiv:1501.00976): colliding
    /// pairs *deliberately* meet again quickly, because the second
    /// collision is what makes both packets decodable.
    FixedWindow(u32),
}

impl AlohaBackoff {
    /// Draws the retransmission delay in frames (≥ 1).
    pub fn delay_frames<R: Rng + ?Sized>(&self, stage: u32, rng: &mut R) -> u64 {
        match *self {
            AlohaBackoff::BinaryExponential { base, cap } => {
                let w = (u64::from(base.max(1)) << stage.min(16)).min(u64::from(cap.max(1)));
                1 + rng.gen_range(0..w as u32) as u64
            }
            AlohaBackoff::FixedWindow(w) => 1 + rng.gen_range(0..w.max(1)) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn delays_are_positive_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let d = AlohaBackoff::FixedWindow(4).delay_frames(3, &mut rng);
            assert!((1..=4).contains(&d));
            let d = AlohaBackoff::BinaryExponential { base: 2, cap: 8 }.delay_frames(0, &mut rng);
            assert!((1..=2).contains(&d));
            let d = AlohaBackoff::BinaryExponential { base: 2, cap: 8 }.delay_frames(9, &mut rng);
            assert!((1..=8).contains(&d), "cap binds at high stage");
        }
    }
}
