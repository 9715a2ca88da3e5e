//! # zigzag-bench — evaluation reproduction harness
//!
//! One binary per table/figure of the paper's Chapter 5 (plus the
//! Chapter 4 analyses). Each binary prints the same rows/series the paper
//! reports, next to the paper's numbers where applicable. Nothing records
//! or checks those rows yet: the paper-vs-measured ledger is planned as
//! item 1 of `ROADMAP.md`.
//!
//! Run with `--quick` for CI-sized trial counts; default sizes aim at the
//! paper's statistical weight within laptop minutes.

#![warn(missing_docs)]

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{hidden_pair, synth_collision, PlacedTx};
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::Scratch;
use zigzag_core::schedule::PlanOutcome;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, AirFrame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

/// `true` if `--quick` was passed (reduced trial counts).
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Picks a trial count: full vs `--quick`.
pub fn trials(full: usize, quick_n: usize) -> usize {
    if quick() {
        quick_n
    } else {
        full
    }
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Builds an encoded test frame.
pub fn airframe(src: u16, seq: u16, payload: usize, seed: u64) -> AirFrame {
    let f = Frame::with_random_payload(0, src, seq, payload, seed);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// Outcome of one ZigZag pair decode for the micro/BER experiments.
pub struct PairDecode {
    /// BER of each packet against the transmitted bits.
    pub ber: [f64; 2],
    /// Scheduler outcome.
    pub outcome: PlanOutcome,
}

/// Synthesizes one hidden-terminal retransmission pair and ZigZag-decodes
/// it. Offsets are in symbols.
#[allow(clippy::too_many_arguments)]
pub fn run_zigzag_pair(
    snr_db: f64,
    payload: usize,
    d1: usize,
    d2: usize,
    cfg: &DecoderConfig,
    typical: bool,
    seed: u64,
) -> PairDecode {
    let mut rng = StdRng::seed_from_u64(seed);
    let (la, lb) = if typical {
        (LinkProfile::typical(snr_db, &mut rng), LinkProfile::typical(snr_db, &mut rng))
    } else {
        (LinkProfile::clean(snr_db), LinkProfile::clean(snr_db))
    };
    let a = airframe(1, seed as u16, payload, 10_000 + seed);
    let b = airframe(2, seed as u16, payload, 20_000 + seed);
    let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
    let reg = zigzag_testbed::registry_for(&[(1, &la), (2, &lb)]);
    let dec = ZigzagDecoder::new(cfg.clone(), &reg);
    let out = dec.decode(
        &[
            CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, d1)] },
            CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, d2)] },
        ],
        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
        &mut Scratch::with_backend(cfg.backend),
    );
    PairDecode {
        ber: [
            bit_error_rate(&a.mpdu_bits, &out.packets[0].scrambled_bits),
            bit_error_rate(&b.mpdu_bits, &out.packets[1].scrambled_bits),
        ],
        outcome: out.outcome,
    }
}

/// The shard and recovery bench workloads' client-set plan: four
/// disjoint hidden pairs behind one AP, every client at its own
/// oscillator offset (`SHARD_OMEGA[id - 1]`). That is how the AP tells
/// clients apart (§4.2.1), and what keeps one set's preambles out of
/// another set's detections.
pub const SHARD_OMEGA: [f64; 8] = [-0.13, 0.14, -0.08, 0.02, 0.09, -0.18, 0.19, -0.03];
/// The four client sets of [`SHARD_OMEGA`].
pub const SHARD_IDS: [[u16; 2]; 4] = [[1, 2], [3, 4], [5, 6], [7, 8]];

/// Per-set equal-offset retransmission-group seeds for the recovery
/// workload ([`equal_offset_pair`]), pre-screened so every group's joint
/// algebraic solve recovers both frames under the 8-client registry.
pub const RECOVERY_SEEDS: [[u64; 2]; 4] = [[28, 43], [19, 22], [15, 29], [20, 31]];

/// The clean 17 dB link of client `id` in the [`SHARD_IDS`] plan.
pub fn shard_link(id: u16) -> LinkProfile {
    LinkProfile::clean_with_omega(17.0, SHARD_OMEGA[(id - 1) as usize])
}

/// The AP's registry of all eight [`SHARD_IDS`] clients.
pub fn shard_registry() -> ClientRegistry {
    let mut registry = ClientRegistry::new();
    for id in 1u16..=8 {
        let l = shard_link(id);
        registry.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    registry
}

/// One equal-offset retransmission group of the recovery workload:
/// client set `ids` collides twice at the **identical** relative offset
/// Δ (§4.5's Δ₁ = Δ₂ failure case), which only the joint algebraic
/// solve can decode. Returns both collision buffers and Δ; the first
/// client starts at sample 0 in both.
pub fn equal_offset_pair(ids: [u16; 2], seed: u64) -> ([Vec<Complex>; 2], usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (la, lb) = (shard_link(ids[0]), shard_link(ids[1]));
    let a = airframe(ids[0], seed as u16, 120, 80_000 + seed * 7 + ids[0] as u64 * 101);
    let b = airframe(ids[1], seed as u16, 120, 81_000 + seed * 11 + ids[1] as u64 * 101);
    let delta = 280 + 20 * (seed as usize % 3);
    let (ca, cb) = (la.draw(&mut rng), lb.draw(&mut rng));
    let mut mk = || {
        synth_collision(
            &[
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: delta },
            ],
            1.0,
            &mut rng,
        )
        .buffer
    };
    ([mk(), mk()], delta)
}

/// Draws a pair of collision offsets (symbols) from the 802.11 MAC, with
/// distinct signed offsets (retrying ties like a ZigZag AP waiting for a
/// usable retransmission).
pub fn draw_offsets<R: Rng + ?Sized>(rng: &mut R) -> (usize, usize) {
    let params = zigzag_mac::MacParams::default();
    let policy = zigzag_mac::Backoff::Exponential;
    loop {
        let a1 = policy.draw(&params, 0, rng);
        let b1 = policy.draw(&params, 0, rng);
        let a2 = policy.draw(&params, 1, rng);
        let b2 = policy.draw(&params, 1, rng);
        let s1 = b1 as i64 - a1 as i64;
        let s2 = b2 as i64 - a2 as i64;
        if s1 == s2 {
            continue;
        }
        // re-reference each collision so Alice starts at 0 (the canonical
        // layout used by the micro benchmarks; the general executor also
        // handles flipped order)
        if s1 >= 0 && s2 >= 0 {
            let d1 = params.slots_to_symbols(s1 as u32);
            let d2 = params.slots_to_symbols(s2 as u32);
            if d1 != d2 {
                return (d1, d2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_distinct_and_slot_aligned() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let (d1, d2) = draw_offsets(&mut rng);
            assert_ne!(d1, d2);
            assert_eq!(d1 % 10, 0);
            assert_eq!(d2 % 10, 0);
        }
    }

    #[test]
    fn pair_decode_smoke() {
        let out = run_zigzag_pair(12.0, 200, 300, 100, &DecoderConfig::default(), false, 5);
        assert_eq!(out.outcome, PlanOutcome::Complete);
        assert!(out.ber[0] < 1e-2 && out.ber[1] < 1e-2, "{:?}", out.ber);
    }
}
