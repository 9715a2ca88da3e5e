//! Criterion benches of full decodes: the preamble channel estimate, the
//! standard single-packet decoder, the capture stage's anchor attempts on
//! an equal-power collision, the two-packet ZigZag executor vs payload
//! size, the k-sender generalisation — quantifying §4.6's claim that
//! ZigZag is linear in the number of colliding senders and needs only
//! "two decoding lines" — and the assembly and solve of one algebraic
//! recovery window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::prelude::*;
use zigzag_bench::{
    airframe, equal_offset_pair, run_zigzag_pair, shard_registry, RECOVERY_SEEDS, SHARD_IDS,
};
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{clean_reception, synth_collision, PlacedTx};
use zigzag_core::config::{DecoderConfig, StreamConfig};
use zigzag_core::engine::Scratch;
use zigzag_core::recovery::{first_window_system, RecoveryGroup};
use zigzag_core::standard::{decode_frame, decode_single};
use zigzag_core::stream::carve_buffer;
use zigzag_core::view::ChannelView;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_phy::linalg::lstsq_cond;
use zigzag_phy::preamble::Preamble;
use zigzag_testbed::{continuous_air, ExperimentConfig, SetScenario};

fn bench_estimate(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let l = LinkProfile::clean_with_omega(17.0, -0.13);
    let a = airframe(1, 1, 200, 9);
    let rx = clean_reception(&a, &l, &mut rng);
    let reg = zigzag_testbed::registry_for(&[(1, &l)]);
    let info = reg.get(1).expect("associated");
    let (cfg, preamble) = (DecoderConfig::default(), Preamble::default_len());
    c.bench_function("channel_estimate", |b| {
        b.iter(|| {
            ChannelView::estimate(
                &rx.buffer,
                0,
                preamble.symbols(),
                Some(info.omega),
                Some(&info.taps),
                false,
                &cfg,
            )
        })
    });
}

fn bench_standard(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let l = LinkProfile::typical(14.0, &mut rng);
    let a = airframe(1, 1, 500, 9);
    let rx = clean_reception(&a, &l, &mut rng);
    let reg = zigzag_testbed::registry_for(&[(1, &l)]);
    let (cfg, preamble) = (DecoderConfig::default(), Preamble::default_len());
    let mut ws = Scratch::with_backend(cfg.backend);
    c.bench_function("standard_decode_500B", |b| {
        b.iter(|| decode_single(&rx.buffer, 0, Some(1), &reg, &preamble, true, &cfg, &mut ws))
    });
}

/// The capture stage's anchor loop on one equal-power region of the
/// `stream` benchmark workload's air: up to four candidates, strongest
/// correlation first, none of which passes its CRC.
fn bench_capture_anchors(c: &mut Criterion) {
    let scenario = SetScenario {
        links: vec![
            LinkProfile::clean_with_omega(17.0, -0.13),
            LinkProfile::clean_with_omega(17.0, 0.14),
        ],
        p_sense: 0.0,
        seed: 1,
    };
    let exp = ExperimentConfig { payload: 200, ..Default::default() };
    let air = continuous_air(&scenario, &exp, 2, 5000);
    let cfg = DecoderConfig::shared_ap();
    let regions = carve_buffer(&air.samples, &cfg, &air.registry, &StreamConfig::default());
    let region = regions.iter().find(|r| r.detections.len() >= 2).expect("a collision region");
    let mut cands = region.detections.clone();
    cands.sort_by(|a, b| b.corr.abs().total_cmp(&a.corr.abs()));
    cands.truncate(4);
    let preamble = Preamble::default_len();
    let mut ws = Scratch::with_backend(cfg.backend);
    let anchor = |ws: &mut Scratch| {
        cands.iter().find_map(|d| {
            decode_frame(
                &region.samples,
                d.pos,
                Some(d.client),
                &air.registry,
                &preamble,
                false,
                &cfg,
                ws,
            )
        })
    };
    assert!(anchor(&mut ws).is_none(), "equal-power collision: no capture anchor");
    c.bench_function("decode_frame_collision", |b| b.iter(|| anchor(&mut ws)));
}

/// Δ 300/100 at three payloads, plus a near-equal Δ 19/20 pair whose
/// chunks are one symbol each, the chunk scheduler's worst case.
fn bench_zigzag_pair(c: &mut Criterion) {
    let cases = [(200usize, 300usize, 100usize), (500, 300, 100), (1500, 300, 100), (200, 19, 20)];
    for (payload, d1, d2) in cases {
        let id = if d1 == 300 { payload.to_string() } else { format!("{payload}_d{d1}_{d2}") };
        c.bench_with_input(BenchmarkId::new("zigzag_pair_decode", id), &payload, |b, &payload| {
            b.iter(|| run_zigzag_pair(12.0, payload, d1, d2, &DecoderConfig::default(), false, 7))
        });
    }
}

fn bench_zigzag_k_senders(c: &mut Criterion) {
    // k senders, k collisions: wall time should grow ~linearly in k (§4.6)
    for k in [2usize, 3, 4] {
        let mut rng = StdRng::seed_from_u64(20 + k as u64);
        let links: Vec<LinkProfile> = (0..k).map(|_| LinkProfile::clean(14.0)).collect();
        let airs: Vec<_> = (0..k).map(|i| airframe(i as u16 + 1, 1, 200, 40 + i as u64)).collect();
        let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
        // simple decodable offset structure: round r shifts sender i by
        // a distinct prime multiple
        let offsets: Vec<Vec<usize>> = (0..k)
            .map(|r| (0..k).map(|i| ((i * (83 + 29 * r)) % 331) + i * 37).collect())
            .collect();
        let buffers: Vec<_> = offsets
            .iter()
            .map(|offs| {
                let placed: Vec<PlacedTx<'_>> = (0..k)
                    .map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: offs[i] })
                    .collect();
                synth_collision(&placed, 1.0, &mut rng)
            })
            .collect();
        let pairs: Vec<(u16, &LinkProfile)> =
            links.iter().enumerate().map(|(i, l)| (i as u16 + 1, l)).collect();
        let reg = zigzag_testbed::registry_for(&pairs);
        let cfg = DecoderConfig::forward_only();
        let mut ws = Scratch::with_backend(cfg.backend);
        c.bench_with_input(BenchmarkId::new("zigzag_k_senders", k), &k, |b, &k| {
            b.iter(|| {
                let dec = ZigzagDecoder::new(cfg.clone(), &reg);
                let specs: Vec<CollisionSpec<'_>> = buffers
                    .iter()
                    .zip(offsets.iter())
                    .map(|(buf, offs)| CollisionSpec {
                        buffer: &buf.buffer,
                        placements: (0..k).map(|i| (i, offs[i])).collect(),
                    })
                    .collect();
                let pkts: Vec<PacketSpec> =
                    (0..k).map(|i| PacketSpec { client: i as u16 + 1 }).collect();
                dec.decode(&specs, &pkts, &mut ws)
            })
        });
    }
}

/// One recovery window on the throughput bench's first equal-offset
/// group (§4.5's Δ₁ = Δ₂): `recovery_window_assemble` builds the first
/// window system from the raw buffers (view estimates, preamble
/// subtraction, template columns), and `recovery_window_lstsq` solves
/// it — the regularised least-squares step the joint solver repeats per
/// window.
fn bench_recovery_window(c: &mut Criterion) {
    let ids = SHARD_IDS[0];
    let (buffers, delta) = equal_offset_pair(ids, RECOVERY_SEEDS[0][0]);
    let group = RecoveryGroup {
        buffers: buffers.to_vec(),
        placements: vec![vec![(0, 0), (1, delta)]; 2],
        clients: ids.to_vec(),
    };
    let (cfg, preamble) = (DecoderConfig::default(), Preamble::default_len());
    let mut ws = Scratch::with_backend(cfg.backend);
    let (rows, b, lambda) =
        first_window_system(&group, &shard_registry(), &preamble, &cfg, &mut ws)
            .expect("the equal-offset group assembles a window");
    assert!(lstsq_cond(&rows, &b, lambda).is_some(), "the window system must solve");
    println!("recovery window: {} rows x {} unknowns", rows.len(), rows[0].len());
    let registry = shard_registry();
    c.bench_function("recovery_window_assemble", |bch| {
        bch.iter(|| first_window_system(&group, &registry, &preamble, &cfg, &mut ws))
    });
    c.bench_function("recovery_window_lstsq", |bch| bch.iter(|| lstsq_cond(&rows, &b, lambda)));
}

criterion_group!(
    benches,
    bench_estimate,
    bench_standard,
    bench_capture_anchors,
    bench_zigzag_pair,
    bench_zigzag_k_senders,
    bench_recovery_window
);
criterion_main!(benches);
