//! Engine-level integration tests: the stage pipeline must take every
//! decode path (standard, capture/IC/MRC-retry, zigzag) and deliver only
//! frames that were offered, and the multi-threaded `BatchEngine` must be
//! bit-for-bit identical to a single-threaded run.

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::{clean_reception, hidden_pair, synth_collision, PlacedTx};
use zigzag::core::capture::capture_attempt;
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::detect::detect_packets;
use zigzag::core::engine::{
    unit_seed, BatchEngine, CaptureStage, DecodeStage, DetectStage, Flow, MatchStage, Pipeline,
    PlanStage, ReceiverCore, RecoverStage, Scratch, StandardDecodeStage, StoreStage, UnitCtx,
    ZigzagStage,
};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

/// Seeds the stale-attempt collision's channel draws and noise.
const STALE_SEED: u64 = 1;

fn registry(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
    let mut reg = ClientRegistry::new();
    for (id, l) in links {
        reg.associate(
            *id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    reg
}

/// One independent receiver workload: a fresh receiver fed a sequence
/// of buffers, in order.
struct Unit {
    cfg: DecoderConfig,
    registry: ClientRegistry,
    buffers: Vec<Vec<Complex>>,
}

/// Decodes every unit on a fresh `ReceiverCore`, units fanned across the
/// engine, returning each unit's concatenated events in input order.
fn decode_units(engine: &BatchEngine, units: &[Unit]) -> Vec<Vec<ReceiverEvent>> {
    engine.map(units, |_, unit| {
        let mut rx = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
        unit.buffers.iter().flat_map(|b| rx.process(b)).collect()
    })
}

fn air(src: u16, seq: u16, len: usize) -> zigzag::phy::frame::AirFrame {
    let f = Frame::with_random_payload(0, src, seq, len, 40_000 + src as u64 * 131 + seq as u64);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// A mixed workload per unit: a clean delivery, a hidden-terminal
/// retransmission pair (store → match → zigzag), and a noise buffer.
fn build_units(n: usize, payload: usize) -> Vec<Unit> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(unit_seed(77, i));
            let la = LinkProfile::typical(16.0, &mut rng);
            let lb = LinkProfile::typical(16.0, &mut rng);
            let a = air(1, i as u16, payload);
            let b = air(2, i as u16, payload);
            let clean = clean_reception(&air(1, 1000 + i as u16, payload), &la, &mut rng);
            let d1 = 200 + 10 * (i % 8);
            let d2 = 70 + 10 * (i % 4);
            let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
            let noise = zigzag::channel::noise::awgn_vec(&mut rng, 1500, 1.0);
            Unit {
                cfg: DecoderConfig::default(),
                registry: registry(&[(1, &la), (2, &lb)]),
                buffers: vec![clean.buffer, hp.collision1.buffer, hp.collision2.buffer, noise],
            }
        })
        .collect()
}

/// Unequal-power collision units (strong 22 dB over weak 13 dB), so the
/// capture / interference-cancellation / MRC-retry stage is exercised
/// too — equal-power units never take it.
fn build_capture_units(n: usize, payload: usize) -> Vec<Unit> {
    (0..n)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(unit_seed(15, i));
            let la = LinkProfile::typical(22.0, &mut rng);
            let lb = LinkProfile::typical(13.0, &mut rng);
            let a = air(1, 500 + i as u16, payload);
            let b = air(2, 500 + i as u16, payload);
            let hp = hidden_pair(&a, &b, &la, &lb, 300, 120, &mut rng);
            Unit {
                cfg: DecoderConfig::default(),
                registry: registry(&[(1, &la), (2, &lb)]),
                buffers: vec![hp.collision1.buffer, hp.collision2.buffer],
            }
        })
        .collect()
}

/// The standard pipeline over clean receptions, collisions, matched
/// pairs, capture scenarios and noise: the capture / IC / MRC-retry
/// stage fires on the unequal-power units, and every delivered frame is
/// one of the frames the units offered (a decode path can never
/// fabricate a frame that passed its CRC by accident).
#[test]
fn pipeline_delivers_only_offered_frames() {
    let mut units = build_units(4, 200);
    units.extend(build_capture_units(3, 250));
    // the frames `build_units` / `build_capture_units` put on the air
    let mut offered: Vec<Frame> = Vec::new();
    for i in 0..4u16 {
        offered.extend([air(1, i, 200).frame, air(2, i, 200).frame, air(1, 1000 + i, 200).frame]);
    }
    for i in 0..3u16 {
        offered.extend([air(1, 500 + i, 250).frame, air(2, 500 + i, 250).frame]);
    }
    let mut capture_fired = false;
    let mut delivered = 0usize;
    for unit in &units {
        let mut rx = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
        for (k, buffer) in unit.buffers.iter().enumerate() {
            for event in rx.process(buffer) {
                let ReceiverEvent::Delivered { frame, path } = event else { continue };
                assert!(offered.contains(&frame), "buffer {k}: delivered a frame never offered");
                delivered += 1;
                capture_fired |= matches!(
                    path,
                    DecodePath::Capture
                        | DecodePath::InterferenceCancellation
                        | DecodePath::MrcRetry
                );
            }
        }
    }
    assert!(delivered >= units.len(), "workload too easy: {delivered} deliveries");
    assert!(capture_fired, "workload must exercise the capture/IC stage");
}

/// Multi-threaded batch decoding must equal the single-threaded run
/// bit for bit (events compare structurally, including frame payloads).
#[test]
fn batch_engine_is_deterministic_across_thread_counts() {
    let units = build_units(8, 150);
    let reference = decode_units(&BatchEngine::single_threaded(), &units);
    // the workload must actually exercise the decode paths
    let delivered: usize = reference
        .iter()
        .flat_map(|ev| ev.iter())
        .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
        .count();
    assert!(delivered >= units.len(), "workload too easy: {delivered} deliveries");
    for threads in [2, 4, 8] {
        let out = decode_units(&BatchEngine::new(threads), &units);
        assert_eq!(reference, out, "batch decode diverged at {threads} threads");
    }
}

/// The engine preserves input order even when units finish wildly out of
/// order (unit 0 is far heavier than the rest).
#[test]
fn batch_engine_preserves_order_under_skew() {
    let mut units = build_units(5, 150);
    let heavy = build_units(1, 600);
    units[0] = heavy.into_iter().next().unwrap();
    let seq = decode_units(&BatchEngine::single_threaded(), &units);
    let par = decode_units(&BatchEngine::new(4), &units);
    assert_eq!(seq, par);
}

/// A custom pipeline without a ZigzagStage must not destroy matched
/// stored collisions: MatchStage is non-destructive (the store entry is
/// only removed by the consuming ZigzagStage), so dropping/reordering
/// stages (the advertised pipeline contract) never loses collision data.
#[test]
fn custom_pipeline_without_zigzag_keeps_stored_collisions() {
    let units = build_units(1, 200);
    let unit = &units[0];
    let pipeline = Pipeline::from_stages(vec![
        Box::new(DetectStage),
        Box::new(StandardDecodeStage),
        Box::new(CaptureStage),
        Box::new(MatchStage),
        Box::new(StoreStage),
    ]);
    let mut rx = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
    // buffers[1] and buffers[2] are the matched retransmission pair
    let ev1 = rx.receive(&pipeline, &unit.buffers[1]);
    assert!(ev1.contains(&ReceiverEvent::CollisionStored), "{ev1:?}");
    assert_eq!(rx.store().len(), 1);
    let ev2 = rx.receive(&pipeline, &unit.buffers[2]);
    assert!(ev2.contains(&ReceiverEvent::CollisionStored), "{ev2:?}");
    // the matched stored collision was put back alongside the new one
    assert_eq!(rx.store().len(), 2, "matched stored collision must not be lost");
}

/// Drops the unit's highest-scoring detection: a custom stage that edits
/// the detections a prepared capture attempt was computed from.
struct DropStrongest;

impl DecodeStage for DropStrongest {
    fn name(&self) -> &'static str {
        "drop-strongest"
    }

    fn run(
        &self,
        _: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        _: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        let strongest = (0..unit.detections.len()).max_by(|&a, &b| {
            unit.detections[a].corr.abs().total_cmp(&unit.detections[b].corr.abs())
        });
        if let Some(i) = strongest {
            unit.detections.remove(i);
        }
        Flow::Continue
    }
}

/// A prepared capture attempt goes stale when a custom stage before
/// `CaptureStage` edits the detections: the stage must then compute the
/// attempt from the edited detections, so the events equal that pipeline
/// with no prepared attempt. On this capture-band collision the full
/// detections capture and the edited ones do not, so using the stale
/// attempt would deliver a frame the pipeline never decodes.
#[test]
fn stale_prepared_capture_attempt_is_recomputed() {
    let links = [(22.0, -0.13), (14.0, 0.14)].map(|(s, w)| LinkProfile::clean_with_omega(s, w));
    let reg = registry(&[(1, &links[0]), (2, &links[1])]);
    let mut rng = StdRng::seed_from_u64(STALE_SEED);
    let hp = hidden_pair(&air(1, 7, 150), &air(2, 7, 150), &links[0], &links[1], 250, 90, &mut rng);
    let buffer = &hp.collision1.buffer;
    let (cfg, preamble) = (DecoderConfig::default(), Preamble::default_len());
    let mut ws = Scratch::with_backend(cfg.backend);
    let detections = detect_packets(buffer, &preamble, &reg, &cfg, &mut ws);
    let attempt = capture_attempt(buffer, &detections, &reg, &preamble, &cfg, &mut ws);
    let edited = Pipeline::from_stages(vec![
        Box::new(DetectStage),
        Box::new(StandardDecodeStage),
        Box::new(DropStrongest),
        Box::new(CaptureStage),
        Box::new(MatchStage),
        Box::new(PlanStage),
        Box::new(ZigzagStage),
        Box::new(RecoverStage),
        Box::new(StoreStage),
    ]);
    let receive = |pipeline: &Pipeline, attempt| {
        let mut rx = ReceiverCore::new(cfg.clone(), reg.clone());
        let mut unit = UnitCtx::with_detections(buffer, detections.clone());
        unit.capture = attempt;
        pipeline.run_unit(&mut rx, &mut unit)
    };
    let standard = receive(&Pipeline::standard(), None);
    assert!(
        standard
            .iter()
            .any(|e| matches!(e, ReceiverEvent::Delivered { path: DecodePath::Capture, .. })),
        "the full detections must capture: {standard:?}"
    );
    let inline = receive(&edited, None);
    assert_ne!(inline, standard, "dropping the anchor must change the outcome");
    assert_eq!(receive(&edited, Some(attempt)), inline, "a stale attempt was used");
}

/// The k-way tentpole: a 3-sender/3-collision workload decodes all three
/// frames end-to-end through `ReceiverCore::receive` — the first two
/// collisions accumulate in the keyed store, the third completes a
/// decodable 3×3 match set — with frames identical to the hand-driven
/// executor/scheduler path.
#[test]
fn three_sender_collisions_decode_through_pipeline() {
    let mut rng = StdRng::seed_from_u64(3);
    // Distinct oscillator offsets per client: the AP tells senders apart
    // by frequency-compensated correlation (§4.2.1), so a k-way workload
    // needs separated ω's to be physically resolvable.
    let omegas = [-0.08, 0.02, 0.09];
    let links: Vec<LinkProfile> =
        (0..3).map(|i| LinkProfile::clean_with_omega(18.0, omegas[i])).collect();
    let airs: Vec<zigzag::phy::frame::AirFrame> =
        (0..3).map(|i| air(i as u16 + 1, i as u16, 150)).collect();
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    // three collisions with distinct offset structure (decodable 3×3)
    let offs = [[0usize, 310, 620], [0, 620, 310], [100, 0, 450]];
    let buffers: Vec<Vec<Complex>> = offs
        .iter()
        .map(|o| {
            let placed: Vec<PlacedTx<'_>> =
                (0..3).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: o[i] }).collect();
            synth_collision(&placed, 1.0, &mut rng).buffer
        })
        .collect();
    let reg = registry(&[(1, &links[0]), (2, &links[1]), (3, &links[2])]);

    // --- hand-driven executor path (ground-truth placements) ---
    let cfg = DecoderConfig::default();
    let dec = ZigzagDecoder::new(cfg.clone(), &reg);
    let specs: Vec<CollisionSpec<'_>> = buffers
        .iter()
        .zip(offs.iter())
        .map(|(b, o)| CollisionSpec { buffer: b, placements: (0..3).map(|i| (i, o[i])).collect() })
        .collect();
    let exec = dec.decode(
        &specs,
        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }, PacketSpec { client: 3 }],
        &mut Scratch::with_backend(cfg.backend),
    );
    let exec_frames: Vec<Frame> = exec.packets.iter().filter_map(|p| p.frame.clone()).collect();
    assert_eq!(exec_frames.len(), 3, "executor path must recover all three frames");

    // --- full-stack pipeline path: ReceiverCore::receive ---
    let pipeline = Pipeline::standard();
    let mut core = ReceiverCore::new(cfg, reg);
    let ev1 = core.receive(&pipeline, &buffers[0]);
    assert!(matches!(&ev1[..], [ReceiverEvent::CollisionStored]), "{ev1:?}");
    let ev2 = core.receive(&pipeline, &buffers[1]);
    assert!(matches!(&ev2[..], [ReceiverEvent::CollisionStored]), "{ev2:?}");
    assert_eq!(core.store().len(), 2, "both collisions must accumulate in the store");
    let ev3 = core.receive(&pipeline, &buffers[2]);
    let delivered: Vec<&Frame> = ev3
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Delivered { frame, path: DecodePath::Zigzag } => Some(frame),
            _ => None,
        })
        .collect();
    assert_eq!(delivered.len(), 3, "events: {ev3:?}");
    for f in &exec_frames {
        assert!(delivered.contains(&f), "pipeline must deliver the executor-path frame {f:?}");
    }
    assert_eq!(core.store().len(), 0, "matched members must be consumed");
}

/// Per-unit scratch reuse must not leak state between buffers: decoding
/// the same buffer twice through fresh receivers gives identical events.
#[test]
fn scratch_reuse_is_stateless_across_buffers() {
    let units = build_units(1, 200);
    let unit = &units[0];
    let run = |buffers: &[Vec<Complex>]| {
        let mut rx = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
        buffers.iter().flat_map(|b| rx.process(b)).collect::<Vec<_>>()
    };
    assert_eq!(run(&unit.buffers), run(&unit.buffers));
}

/// Hostile input at the receive seam: a buffer holding any non-finite
/// sample is rejected with a single `DecodeFailed` on every entry point,
/// and neither the collision store nor the salvage pool is touched.
/// (Non-finite correlations used to pass the detection threshold, so an
/// all-NaN buffer was stored as a genuine collision.)
#[test]
fn non_finite_buffers_are_rejected_without_touching_the_store() {
    let mut rng = StdRng::seed_from_u64(5);
    let la = LinkProfile::typical(16.0, &mut rng);
    let lb = LinkProfile::typical(16.0, &mut rng);
    let hp = hidden_pair(&air(1, 7, 300), &air(2, 9, 300), &la, &lb, 420, 140, &mut rng);
    let reg = registry(&[(1, &la), (2, &lb)]);
    // recovery on, so store evictions would feed the salvage pool too
    let cfg = DecoderConfig::with_recovery();

    // the genuine collision is stored — the spliced case below is only
    // rejected because of its one NaN sample
    let mut rx = ReceiverCore::new(cfg.clone(), reg.clone());
    assert_eq!(rx.process(&hp.collision1.buffer), vec![ReceiverEvent::CollisionStored]);
    let detections = detect_packets(
        &hp.collision1.buffer,
        &Preamble::default_len(),
        &reg,
        &cfg,
        &mut Scratch::with_backend(cfg.backend),
    );
    assert!(detections.len() >= 2, "the clean collision must be detected: {detections:?}");

    let mut spliced = hp.collision1.buffer.clone();
    let mid = spliced.len() / 2;
    spliced[mid] = Complex::new(f64::NAN, 0.0);
    let hostile = [
        ("all-NaN", vec![Complex::new(f64::NAN, f64::NAN); 4096]),
        ("all-Inf", vec![Complex::new(f64::INFINITY, f64::NEG_INFINITY); 4096]),
        ("collision with one NaN sample", spliced),
    ];
    for (what, buffer) in &hostile {
        let mut rx = ReceiverCore::new(cfg.clone(), reg.clone());
        assert_eq!(rx.process(buffer), vec![ReceiverEvent::DecodeFailed], "{what}: process");
        assert_eq!(rx.store().len(), 0, "{what}: process polluted the store");

        let mut core = ReceiverCore::new(cfg.clone(), reg.clone());
        let events = core.receive_detected(&Pipeline::standard(), buffer, detections.clone());
        assert_eq!(events, vec![ReceiverEvent::DecodeFailed], "{what}: receive_detected");
        assert_eq!(core.store().len(), 0, "{what}: receive_detected polluted the store");
        assert!(core.salvage().is_empty(), "{what}: receive_detected polluted the salvage pool");
    }
}
