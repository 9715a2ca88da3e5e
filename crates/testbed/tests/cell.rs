//! End-to-end determinism-contract tests: the symbolic cell simulator
//! ([`zigzag_mac::cell`]) driving the real signal-level receiver through
//! the testbed's [`SignalResolver`].
//!
//! The contracts pinned here are the ones the million-station runs lean
//! on: thread-count invariance of the lowered path, equivalence of the
//! [`SplitResolver`] at its sampling extremes (1.0 ≡ direct signal
//! resolver, 0.0 ≡ pure symbolic model), and the cross-validation loop
//! that refits the [`DecodeModel`] from measured signal-level outcomes.

use zigzag_mac::cell::{
    run_cell, ArrivalModel, CellConfig, CellOutcome, CellStats, DecodeModel, Discipline,
    SensingGraph, SplitResolver,
};
use zigzag_mac::{Backoff, MacParams};
use zigzag_testbed::SignalResolver;

fn cell_cfg(stations: u32, slots: u64, per_slot: f64, seed: u64) -> CellConfig {
    CellConfig {
        stations,
        slots,
        discipline: Discipline::Dcf { policy: Backoff::Exponential },
        sensing: SensingGraph::hidden_groups(1, 2),
        arrivals: ArrivalModel::Poisson { per_slot },
        packet_slots: 12,
        ack_slots: 2,
        mac: MacParams::default(),
        seed,
        record_trace: false,
    }
}

/// A run whose sampled episodes lower through the real receiver.
fn lowered_run(seed: u64, threads: usize, rate: f64) -> CellOutcome {
    let cfg = cell_cfg(60, 1_500, 0.06, seed);
    let mut signal = SignalResolver::with_seed(seed, threads);
    let mut split = SplitResolver::new(DecodeModel::zigzag_ap(seed), &mut signal, rate, 4, seed);
    run_cell(&cfg, &mut split)
}

#[test]
fn lowered_runs_are_identical_across_thread_counts() {
    let a = lowered_run(11, 1, 1.0);
    assert!(a.stats.lowered_rounds > 0, "the run must actually lower collisions");
    let b = lowered_run(11, 2, 1.0);
    let c = lowered_run(11, 4, 1.0);
    assert_eq!(a.trace_hash, b.trace_hash, "1 vs 2 decode threads");
    assert_eq!(a.trace_hash, c.trace_hash, "1 vs 4 decode threads");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.counters, c.counters);
}

/// Golden lowered run: the trace hash and statistics of one run whose
/// every collision episode is synthesized and decoded at the signal
/// level. It pins the whole chain — channel synthesis, receiver verdicts
/// and their feedback into station state — so a change to the air or to
/// a decode outcome shows here even when every contract above still holds.
#[test]
fn lowered_run_matches_the_golden_trace() {
    let out = lowered_run(3, 1, 1.0);
    assert_eq!(out.trace_hash, 0x8d9d_859f_d5c7_b9de, "lowered trace moved");
    assert_eq!(
        out.stats,
        CellStats {
            stations_active: 48,
            offered_frames: 49,
            delivered_frames: 6,
            dropped_frames: 0,
            singles: 3,
            collision_rounds: 53,
            recovery_rounds: 1,
            recovered_frames: 0,
            lowered_rounds: 46,
            lowered_deliveries: 1,
            lowered_retries: 98,
            defers: 428,
            tx_starts: 157,
            max_k: 10,
            in_flight_at_end: 43,
        }
    );
}

#[test]
fn full_sampling_equals_the_direct_signal_resolver() {
    let cfg = cell_cfg(60, 1_500, 0.06, 5);
    let split = {
        let mut signal = SignalResolver::with_seed(5, 1);
        let mut r = SplitResolver::new(DecodeModel::zigzag_ap(5), &mut signal, 1.0, 64, 5);
        run_cell(&cfg, &mut r)
    };
    let mut direct = SignalResolver::with_seed(5, 1);
    let d = run_cell(&cfg, &mut direct);
    assert!(
        split.stats.max_k <= 64,
        "premise: no episode wider than the split cap (saw k = {})",
        split.stats.max_k
    );
    assert!(split.stats.lowered_rounds > 0, "the run must actually lower collisions");
    assert_eq!(split.trace_hash, d.trace_hash, "rate 1.0 must replay the direct resolver");
    assert_eq!(split.stats, d.stats);
    assert_eq!(split.counters, d.counters);
}

#[test]
fn zero_sampling_equals_the_pure_model() {
    let cfg = cell_cfg(400, 3_000, 0.08, 21);
    let mut signal = SignalResolver::with_seed(21, 1);
    let mut split = SplitResolver::new(DecodeModel::zigzag_ap(21), &mut signal, 0.0, 4, 21);
    let a = run_cell(&cfg, &mut split);
    let b = run_cell(&cfg, &mut DecodeModel::zigzag_ap(21));
    assert_eq!(a.trace_hash, b.trace_hash, "rate 0.0 must replay the pure model");
    assert_eq!(a.stats, b.stats);
    assert_eq!(signal.rounds_decoded(), 0, "nothing may reach the signal level at rate 0");
}

#[test]
fn lowered_verdicts_reach_backoff_state() {
    let out = lowered_run(7, 2, 1.0);
    let s = &out.stats;
    assert!(s.lowered_rounds > 0, "collisions must lower");
    assert!(
        s.lowered_deliveries + s.lowered_retries > 0,
        "signal-level verdicts must feed back into station state"
    );
}

#[test]
fn sampled_lowering_cross_validates_the_model() {
    let mut cfg = cell_cfg(100, 8_000, 0.05, 33);
    cfg.mac.cw_min = 7;
    cfg.mac.cw_max = 15;
    let mut signal = SignalResolver::with_seed(33, 0);
    let prior = DecodeModel::zigzag_ap(33);
    let mut split = SplitResolver::new(prior.clone(), &mut signal, 1.0, 4, 33);
    let _ = run_cell(&cfg, &mut split);
    let tally = split.signal_tally().clone();

    let (rate, n) = tally.rate_all_from(2, 2).expect("lowered pair rounds must be observed");
    println!("measured signal-level pair rate {rate:.3} over {n} rounds");
    assert!(n >= 8, "need a usable sample of lowered pair rounds, got {n}");

    // the fit must adopt the measured rate when the sample suffices and
    // keep the prior when it does not
    let fitted = prior.fit(&tally, n);
    assert!((fitted.p_pair - rate).abs() < 1e-12, "fit must adopt the measured pair rate");
    assert!((0.0..=1.0).contains(&fitted.p_pair));
    let kept = prior.fit(&tally, n + 1);
    assert!((kept.p_pair - prior.p_pair).abs() < 1e-12, "undersampled buckets keep the prior");
    assert_eq!(fitted.predicted_all(2, 2), fitted.p_pair);
}
