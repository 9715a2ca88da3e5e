//! Random backoff and collision offset patterns.
//!
//! ZigZag's bootstrap exists because "802.11 senders jitter every
//! transmission by a short random interval … hence collisions start with
//! a random stretch of interference-free bits" (§1). This module draws
//! those jitters and assembles the offset patterns that the Fig 4-7
//! Monte Carlo and the signal-level experiments feed to the chunk
//! scheduler.

use crate::params::MacParams;
use rand::Rng;

/// Backoff policy for the Fig 4-7 simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backoff {
    /// Every node picks uniformly from a fixed window (Fig 4-7a:
    /// cw ∈ {8, 16, 32}).
    Fixed(u32),
    /// 802.11 exponential backoff: window doubles per retransmission from
    /// CWmin, capped at CWmax (Fig 4-7b).
    Exponential,
}

impl Backoff {
    /// Window size (slots) for the `round`-th (re)transmission.
    pub fn window(&self, params: &MacParams, round: u32) -> u32 {
        match *self {
            Backoff::Fixed(cw) => cw,
            Backoff::Exponential => params.cw_after(round),
        }
    }

    /// Draws one backoff, in slots.
    pub fn draw<R: Rng + ?Sized>(&self, params: &MacParams, round: u32, rng: &mut R) -> u32 {
        let w = self.window(params, round).max(1);
        rng.gen_range(0..=w)
    }
}

/// Per-frame 802.11 DCF backoff stage machine.
///
/// The standard's rules (§9.3.3 of 802.11-2007, mirrored by the paper's
/// §4.5 footnote) distinguish three outcomes and only one of them moves
/// the contention window:
///
/// * **collision / missing ACK** — the stage increments, doubling the
///   window up to CWmax ([`BackoffState::on_collision`]);
/// * **successful delivery** — the stage resets to CWmin
///   ([`BackoffState::on_success`]);
/// * **deferral** (carrier sensed busy) — the station waits out the
///   medium and redraws, but the stage is *unchanged*
///   ([`BackoffState::on_defer`]). Deferring is the protocol working,
///   not evidence of congestion.
///
/// This type keeps the stage apart from the round index; the
/// [`crate::cell`] simulator keeps one per station.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackoffState {
    stage: u32,
}

impl BackoffState {
    /// Fresh frame: stage 0 (CWmin window).
    pub fn new() -> Self {
        Self { stage: 0 }
    }

    /// Current backoff stage (number of collisions this frame has
    /// suffered, saturating).
    pub fn stage(&self) -> u32 {
        self.stage
    }

    /// Window (slots) the next draw uses under `policy`.
    pub fn window(&self, policy: Backoff, params: &MacParams) -> u32 {
        policy.window(params, self.stage)
    }

    /// Draws one backoff (slots) at the current stage.
    pub fn draw<R: Rng + ?Sized>(&self, policy: Backoff, params: &MacParams, rng: &mut R) -> u32 {
        policy.draw(params, self.stage, rng)
    }

    /// Collision (no ACK): the window doubles.
    pub fn on_collision(&mut self) {
        self.stage = self.stage.saturating_add(1);
    }

    /// Delivered: contention window resets to CWmin.
    pub fn on_success(&mut self) {
        self.stage = 0;
    }

    /// Frame abandoned at the retry limit: the next frame starts at
    /// CWmin.
    pub fn on_drop(&mut self) {
        self.stage = 0;
    }

    /// Medium sensed busy: the station defers, the stage stays put.
    pub fn on_defer(&mut self) {
        // Intentionally a no-op — kept as a method so call sites document
        // the DCF rule ("reset on success, not on deferral").
    }
}

/// Draws the start offsets (slots) of `n` hidden senders in one collision
/// round: every node picks a slot in its window and transmits (none can
/// sense the others).
pub fn collision_offsets<R: Rng + ?Sized>(
    n: usize,
    policy: Backoff,
    params: &MacParams,
    round: u32,
    rng: &mut R,
) -> Vec<u32> {
    let mut offs: Vec<u32> = (0..n).map(|_| policy.draw(params, round, rng)).collect();
    // re-reference to the earliest transmission
    if let Some(&min) = offs.iter().min() {
        for o in &mut offs {
            *o -= min;
        }
    }
    offs
}

/// Generates the full offset pattern of a hidden-terminal episode: `n`
/// senders, `rounds` successive collisions (each retransmission draws a
/// fresh jitter; none can sense the others). Returns `rounds` vectors of
/// per-sender offsets in slots — the input to the Fig 4-7 decodability
/// test and the §5.7 three-sender experiments.
pub fn episode_offsets<R: Rng + ?Sized>(
    n: usize,
    rounds: usize,
    policy: Backoff,
    params: &MacParams,
    rng: &mut R,
) -> Vec<Vec<u32>> {
    (0..rounds).map(|r| collision_offsets(n, policy, params, r as u32, rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn fixed_window_bounds() {
        let p = MacParams::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = Backoff::Fixed(16).draw(&p, 0, &mut rng);
            assert!(d <= 16);
        }
    }

    #[test]
    fn exponential_window_grows() {
        let p = MacParams::default();
        assert_eq!(Backoff::Exponential.window(&p, 0), 31);
        assert_eq!(Backoff::Exponential.window(&p, 1), 63);
        assert_eq!(Backoff::Exponential.window(&p, 2), 127);
        assert_eq!(Backoff::Exponential.window(&p, 10), 1023);
    }

    #[test]
    fn offsets_rereferenced_to_zero() {
        let p = MacParams::default();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let offs = collision_offsets(4, Backoff::Fixed(32), &p, 0, &mut rng);
            assert_eq!(offs.len(), 4);
            assert_eq!(*offs.iter().min().unwrap(), 0);
        }
    }

    #[test]
    fn episode_has_requested_shape() {
        let p = MacParams::default();
        let mut rng = StdRng::seed_from_u64(3);
        let ep = episode_offsets(3, 3, Backoff::Exponential, &p, &mut rng);
        assert_eq!(ep.len(), 3);
        assert!(ep.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn state_resets_on_success_not_on_deferral() {
        let p = MacParams::default();
        let mut st = BackoffState::new();
        assert_eq!(st.window(Backoff::Exponential, &p), 31);

        // two collisions double the window twice
        st.on_collision();
        st.on_collision();
        assert_eq!(st.stage(), 2);
        assert_eq!(st.window(Backoff::Exponential, &p), 127);

        // deferral leaves the stage untouched — the DCF distinction the
        // seed code got wrong
        st.on_defer();
        assert_eq!(st.stage(), 2);
        assert_eq!(st.window(Backoff::Exponential, &p), 127);

        // success resets to CWmin
        st.on_success();
        assert_eq!(st.stage(), 0);
        assert_eq!(st.window(Backoff::Exponential, &p), 31);
    }

    #[test]
    fn state_drop_resets_and_stage_saturates() {
        let p = MacParams::default();
        let mut st = BackoffState::new();
        for _ in 0..100 {
            st.on_collision();
        }
        assert_eq!(st.stage(), 100);
        assert_eq!(st.window(Backoff::Exponential, &p), p.cw_max);
        st.on_drop();
        assert_eq!(st.stage(), 0);
    }

    #[test]
    fn state_draw_respects_stage_window() {
        let p = MacParams::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut st = BackoffState::new();
        st.on_collision(); // stage 1 ⇒ window 63
        let mut seen_past_cwmin = false;
        for _ in 0..2000 {
            let d = st.draw(Backoff::Exponential, &p, &mut rng);
            assert!(d <= 63);
            seen_past_cwmin |= d > 31;
        }
        assert!(seen_past_cwmin, "stage-1 draws should exceed CWmin");
    }

    #[test]
    fn jitter_produces_distinct_offsets_usually() {
        // The §1 premise: two successive collisions rarely share the same
        // offset. With cw=31 ties happen ~3% of the time.
        let p = MacParams::default();
        let mut rng = StdRng::seed_from_u64(4);
        let mut ties = 0;
        let trials = 2000;
        for _ in 0..trials {
            let ep = episode_offsets(2, 2, Backoff::Exponential, &p, &mut rng);
            // undecodable ⇔ the *signed* relative offset repeats (same
            // magnitude with flipped order is the decodable Fig 4-1b case)
            let d1 = ep[0][1] as i64 - ep[0][0] as i64;
            let d2 = ep[1][1] as i64 - ep[1][0] as i64;
            if d1 == d2 {
                ties += 1;
            }
        }
        let rate = ties as f64 / trials as f64;
        assert!(rate < 0.08, "tie rate {rate}");
        assert!(rate > 0.0, "ties should occur occasionally");
    }
}
