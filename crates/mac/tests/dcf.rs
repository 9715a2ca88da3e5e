//! Integration tests for the 802.11 DCF building blocks: backoff stage
//! arithmetic, the Lemma 4.4.1 ACK schedule, slot/symbol conversions,
//! and a property test over the collision offset draws.

use proptest::proptest;
use rand::prelude::*;
use zigzag_mac::backoff::collision_offsets;
use zigzag_mac::{
    schedule_acks, sync_ack_probability_bound, sync_ack_probability_mc, Backoff, BackoffState,
    MacParams,
};

#[test]
fn exponential_backoff_doubles_caps_and_resets() {
    let p = MacParams::default();
    let policy = Backoff::Exponential;
    let mut st = BackoffState::new();
    assert_eq!(st.window(policy, &p), 31, "initial window is CWmin");

    let mut prev = st.window(policy, &p);
    for _ in 0..20 {
        st.on_collision();
        let w = st.window(policy, &p);
        assert!(w >= prev, "window never shrinks on collision");
        assert!(w <= p.cw_max, "window never exceeds CWmax");
        prev = w;
    }
    assert_eq!(st.window(policy, &p), p.cw_max, "deep stages cap at CWmax");

    // deferral leaves the stage alone; success resets it
    let stage = st.stage();
    st.on_defer();
    assert_eq!(st.stage(), stage, "deferral must not move the stage");
    st.on_success();
    assert_eq!(st.stage(), 0, "success resets to CWmin");
    assert_eq!(st.window(policy, &p), 31);
}

#[test]
fn fixed_backoff_ignores_the_stage() {
    let p = MacParams::default();
    let mut st = BackoffState::new();
    st.on_collision();
    st.on_collision();
    assert_eq!(st.window(Backoff::Fixed(16), &p), 16);
}

#[test]
fn lemma_4_4_1_bound_holds_for_80211g() {
    let p = MacParams::default();
    let bound = sync_ack_probability_bound(&p);
    assert!((bound - 0.9375).abs() < 1e-9, "Appendix A: 1 - 40/(20*32) = 93.75%, got {bound}");

    // the exact discrete probability is P(|a−b| > 2 slots) over U{0..63}²
    // = 1 − 314/4096 ≈ 0.9233; the Appendix's 0.9375 uses the looser
    // continuous estimate — MC must land on the exact value
    let mut rng = StdRng::seed_from_u64(7);
    let mc = sync_ack_probability_mc(&p, 40_000, &mut rng);
    let exact = 1.0 - 314.0 / 4096.0;
    assert!((mc - exact).abs() < 0.01, "Monte-Carlo estimate {mc} vs exact {exact}");
}

#[test]
fn ack_schedule_orders_and_classifies() {
    let p = MacParams::default();
    // offset comfortably larger than SIFS + ACK = 40 µs: synchronous
    let s = schedule_acks(120.0, 1000.0, 1000.0, &p);
    assert!(s.synchronous);
    assert!(s.ack1_at_us > 1000.0, "ack 1 follows packet 1 after SIFS");
    assert!(s.ack2_at_us >= s.ack1_at_us + p.ack_us, "acks must not overlap");

    // tiny offset: the AP cannot fit Alice's ack before Bob ends
    let s = schedule_acks(10.0, 1000.0, 1000.0, &p);
    assert!(!s.synchronous);
}

#[test]
fn slot_symbol_conversion_matches_phy_rates() {
    let p = MacParams::default();
    // 20 µs slot / 2 µs symbol = 10 symbols per slot (§5.1c)
    assert_eq!(p.slots_to_symbols(1), 10);
    assert_eq!(p.slots_to_symbols(12), 120);
    assert_eq!(p.slots_to_symbols(0), 0);
}

proptest! {
    /// Offsets of one collision round are always re-referenced so the
    /// earliest sender starts at slot 0.
    #[test]
    fn collision_offsets_are_zero_referenced(
        n in 2usize..6,
        round in 0u32..8,
        seed in 0u64..1_000,
    ) {
        let p = MacParams::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let offs = collision_offsets(n, Backoff::Exponential, &p, round, &mut rng);
        assert_eq!(offs.len(), n);
        assert_eq!(offs.iter().copied().min(), Some(0), "earliest sender is the time origin");
        let w = p.cw_after(round);
        assert!(offs.iter().all(|&o| o <= w), "offsets stay inside the window");
    }
}
