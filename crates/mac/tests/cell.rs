//! Integration tests for the cell-scale co-simulator's symbolic layer:
//! determinism of the event trace, golden outputs pinned across commits,
//! MAC/receiver semantics, and the conservation invariant under random
//! seeds and loads.

use proptest::proptest;
use zigzag_mac::cell::{
    run_cell, symbolic_curve, ArrivalModel, CellConfig, CellOutcome, CellPreset, CellStats,
    DecodeModel, Discipline, SensingGraph, StationCounters,
};
use zigzag_mac::{Backoff, MacParams};

fn dcf_cfg(stations: u32, slots: u64, seed: u64) -> CellConfig {
    CellConfig {
        stations,
        slots,
        discipline: Discipline::Dcf { policy: Backoff::Exponential },
        sensing: SensingGraph::hidden_groups(2, 2),
        arrivals: ArrivalModel::Poisson { per_slot: 0.08 },
        packet_slots: 12,
        ack_slots: 2,
        mac: MacParams::default(),
        seed,
        record_trace: false,
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let cfg = dcf_cfg(600, 4_000, 42);
    let a = run_cell(&cfg, &mut DecodeModel::zigzag_ap(42));
    let b = run_cell(&cfg, &mut DecodeModel::zigzag_ap(42));
    assert_eq!(a.trace_hash, b.trace_hash, "same seed must replay bit-identically");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.counters, b.counters);

    let c = run_cell(&dcf_cfg(600, 4_000, 43), &mut DecodeModel::zigzag_ap(43));
    assert_ne!(a.trace_hash, c.trace_hash, "a different seed must diverge");
}

/// FNV-1a over every station's id and counters, in id order.
fn counters_fold(counters: &[(u32, StationCounters)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(id, c) in counters {
        for word in [id, c.offered, c.delivered, c.dropped, c.collisions, c.defers] {
            for byte in u64::from(word).to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn assert_golden(out: &CellOutcome, trace_hash: u64, stats: CellStats, counters: u64) {
    assert_eq!(out.stats, stats, "CellStats moved");
    assert_eq!(out.trace_hash, trace_hash, "trace hash moved: {:#018x}", out.trace_hash);
    assert_eq!(counters_fold(&out.counters), counters, "station counters moved");
}

// Golden outputs, recorded at commit c993b99 (before the dense station
// table, the first-arrival cutoff and the 64-bit backoff modulo). A
// change to the simulator's event order, RNG consumption or arrival
// sampling moves them; a pure speed change must not.

#[test]
fn golden_dcf_hidden_cells() {
    let preset = CellPreset::DcfHidden { cells: 2, groups_per_cell: 2 };
    let out = run_cell(&preset.config(20_000, 2_000, 0.1, 7), &mut preset.model(7));
    let stats = CellStats {
        stations_active: 208,
        offered_frames: 208,
        delivered_frames: 50,
        dropped_frames: 0,
        singles: 20,
        collision_rounds: 136,
        recovery_rounds: 5,
        recovered_frames: 7,
        lowered_rounds: 0,
        lowered_deliveries: 0,
        lowered_retries: 0,
        defers: 1_738,
        tx_starts: 454,
        max_k: 27,
        in_flight_at_end: 158,
    };
    assert_golden(&out, 0xc40c_beee_7798_39ed, stats, 0x4cac_ffb3_dea7_8cf1);
}

#[test]
fn golden_zigzag_aloha() {
    let preset = CellPreset::ZigzagAloha { cells: 1 };
    let out = run_cell(&preset.config(2_000, 2_000, 0.4, 77), &mut preset.model(77));
    let stats = CellStats {
        stations_active: 648,
        offered_frames: 778,
        delivered_frames: 777,
        dropped_frames: 0,
        singles: 471,
        collision_rounds: 264,
        recovery_rounds: 103,
        recovered_frames: 140,
        lowered_rounds: 0,
        lowered_deliveries: 0,
        lowered_retries: 0,
        defers: 0,
        tx_starts: 1_185,
        max_k: 6,
        in_flight_at_end: 1,
    };
    assert_golden(&out, 0x0748_d882_e51d_84fc, stats, 0x6698_2848_98ca_c873);
}

#[test]
fn golden_saturated_dcf() {
    // saturation: every station arrives in slot 0 without an arrival draw
    let mut cfg = dcf_cfg(8, 3_000, 13);
    cfg.sensing = SensingGraph::hidden_groups(1, 2);
    cfg.arrivals = ArrivalModel::Saturated;
    let out = run_cell(&cfg, &mut DecodeModel::zigzag_ap(13));
    let stats = CellStats {
        stations_active: 8,
        offered_frames: 103,
        delivered_frames: 97,
        dropped_frames: 0,
        singles: 22,
        collision_rounds: 79,
        recovery_rounds: 24,
        recovered_frames: 30,
        lowered_rounds: 0,
        lowered_deliveries: 0,
        lowered_retries: 0,
        defers: 162,
        tx_starts: 222,
        max_k: 5,
        in_flight_at_end: 6,
    };
    assert_golden(&out, 0x68b4_9335_f7ef_bf9d, stats, 0x18fe_6163_0535_cb38);
}

/// The benchmark's own cell shape — a million ids over eight two-group
/// hidden cells at 0.8 frames per slot — shortened to 1 000 slots.
/// Unlike the 20 k-id goldens above, over 99.9% of ids here fall past
/// the first-arrival cutoff, so this pins the skip path at the scale it
/// runs at. Recorded at commit a49cce2, before the folded trace hash,
/// the stored sensing coordinates and the closed-form first draw.
#[test]
fn golden_benchmark_cell_config() {
    let preset = CellPreset::DcfHidden { cells: 8, groups_per_cell: 2 };
    let out = run_cell(&preset.config(1_000_000, 1_000, 0.8, 1), &mut preset.model(1));
    let stats = CellStats {
        stations_active: 793,
        offered_frames: 793,
        delivered_frames: 70,
        dropped_frames: 0,
        singles: 19,
        collision_rounds: 240,
        recovery_rounds: 2,
        recovered_frames: 2,
        lowered_rounds: 0,
        lowered_deliveries: 0,
        lowered_retries: 0,
        defers: 7_381,
        tx_starts: 1_022,
        max_k: 51,
        in_flight_at_end: 723,
    };
    assert_golden(&out, 0x9745_babd_e07a_da4a, stats, 0x3965_ffa1_fa21_1f10);
}

#[test]
fn hidden_terminals_collide_and_zigzag_outdelivers_plain() {
    let cfg = dcf_cfg(600, 6_000, 9);
    let zz = run_cell(&cfg, &mut DecodeModel::zigzag_ap(9));
    assert!(zz.stats.collision_rounds > 0, "hidden groups must collide");

    let plain = run_cell(&cfg, &mut DecodeModel::plain_ap(9));
    assert_eq!(plain.stats.recovered_frames, 0, "a conventional AP never reaps");
    assert!(
        zz.stats.delivered_frames > plain.stats.delivered_frames,
        "a ZigZag AP must out-deliver a conventional one under hidden terminals ({} vs {})",
        zz.stats.delivered_frames,
        plain.stats.delivered_frames
    );
}

#[test]
fn aloha_presets_trace_the_literature_ordering() {
    // single load point past the knee — the full-curve gate lives in the
    // preset tests and the bench; this pins the preset plumbing
    let loads = [0.8];
    let zz = symbolic_curve(CellPreset::ZigzagAloha { cells: 1 }, 1_500, 2_000, &loads, 5);
    let plain = symbolic_curve(CellPreset::PlainAloha { cells: 1 }, 1_500, 2_000, &loads, 5);
    assert!(
        zz[0].throughput > plain[0].throughput,
        "ZigZag ALOHA must beat plain past the knee ({} vs {})",
        zz[0].throughput,
        plain[0].throughput
    );
    assert!(zz[0].stats.recovered_frames > 0, "the gap comes from pair peeling and §4.1 reaps");
}

proptest! {
    /// Conservation: every offered frame is delivered, dropped, or still
    /// in flight — under random seeds, loads and populations, with the
    /// reap path active.
    #[test]
    fn frames_are_conserved_under_random_loads(
        seed in 0u64..10_000,
        load_pct in 1u32..40,
        stations in 50u32..800,
    ) {
        let mut cfg = dcf_cfg(stations, 2_000, seed);
        cfg.arrivals = ArrivalModel::Poisson { per_slot: f64::from(load_pct) / 100.0 };
        let out = run_cell(&cfg, &mut DecodeModel::zigzag_ap(seed));
        let s = out.stats;
        assert_eq!(
            s.offered_frames,
            s.delivered_frames + s.dropped_frames + s.in_flight_at_end,
            "conservation violated at seed {seed}"
        );
        let per_station: u64 = out.counters.iter().map(|(_, c)| u64::from(c.delivered)).sum();
        assert_eq!(per_station, s.delivered_frames);
    }

    /// The determinism witness is reproducible for arbitrary seeds.
    #[test]
    fn trace_hash_is_reproducible(seed in 0u64..10_000) {
        let cfg = dcf_cfg(200, 1_000, seed);
        let a = run_cell(&cfg, &mut DecodeModel::zigzag_ap(seed));
        let b = run_cell(&cfg, &mut DecodeModel::zigzag_ap(seed));
        assert_eq!(a.trace_hash, b.trace_hash);
    }
}
