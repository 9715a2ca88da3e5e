//! Integration tests of the algebraic batch-recovery subsystem
//! (`zigzag_core::recovery`): the joint solver must decode collision
//! groups the paper's iterative decoder provably cannot, stay
//! bit-identical across shard counts and kernel backends, and never
//! double-emit a packet recovered through more than one path.

use proptest::prelude::*;
use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::{synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig};
use zigzag::core::engine::{Pipeline, ReceiverCore, ShardedReceiver};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::kernel::BackendKind;
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

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

fn air(src: u16, seq: u16, len: usize) -> zigzag::phy::frame::AirFrame {
    let f = Frame::with_random_payload(0, src, seq, len, 70_000 + src as u64 * 131 + seq as u64);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// Two collisions of the same two packets with **identical** relative
/// offsets (Δ₁ = Δ₂ = `delta`) — §4.5's provable ZigZag failure: both
/// collisions are the same combinatorial equation, so no interference-free
/// chunk boundary ever appears. The channel coefficients still differ per
/// reception (fresh carrier phase + fractional timing), which is what the
/// algebraic solver exploits.
fn equal_offset_pair(
    payload: usize,
    delta: usize,
    seed: u64,
) -> (ClientRegistry, Vec<Vec<Complex>>, Vec<Frame>) {
    let la = LinkProfile::clean_with_omega(17.0, -0.08);
    let lb = LinkProfile::clean_with_omega(17.0, 0.09);
    let a = air(1, seed as u16, payload);
    let b = air(2, seed as u16, payload);
    let mut rng = StdRng::seed_from_u64(seed);
    let (ca, cb) = (la.draw(&mut rng), lb.draw(&mut rng));
    let mk = |rng: &mut StdRng| {
        synth_collision(
            &[
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: delta },
            ],
            1.0,
            rng,
        )
        .buffer
    };
    let buffers = vec![mk(&mut rng), mk(&mut rng)];
    let reg = registry(&[(1, &la), (2, &lb)]);
    (reg, buffers, vec![a.frame, b.frame])
}

fn delivered_frames(events: &[ReceiverEvent], path: DecodePath) -> Vec<Frame> {
    events
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Delivered { frame, path: p } if *p == path => Some(frame.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn equal_offsets_decode_only_through_recovery() {
    let (reg, buffers, frames) = equal_offset_pair(120, 300, 3);

    // Recovery disabled: the pipeline provably cannot decode — the pure-
    // shift alignment is rejected by the matcher, both buffers end up
    // stored, nothing delivers.
    let mut base = ReceiverCore::new(DecoderConfig::default(), reg.clone());
    let mut base_events = Vec::new();
    for b in &buffers {
        base_events.extend(base.process(b));
    }
    assert!(
        !base_events.iter().any(|e| matches!(e, ReceiverEvent::Delivered { .. })),
        "zigzag-only must fail on Δ₁ = Δ₂: {base_events:?}"
    );

    // Recovery enabled: the second collision's confirmed-but-undecodable
    // alignment is solved jointly across both buffers; both frames must
    // come back CRC-verified through the Recovered path.
    let mut rx = ReceiverCore::new(DecoderConfig::with_recovery(), reg);
    let ev1 = rx.process(&buffers[0]);
    assert!(ev1.contains(&ReceiverEvent::CollisionStored), "{ev1:?}");
    let ev2 = rx.process(&buffers[1]);
    let recovered = delivered_frames(&ev2, DecodePath::Recovered);
    assert_eq!(recovered.len(), 2, "both packets must recover, got {ev2:?}");
    assert!(recovered.contains(&frames[0]) && recovered.contains(&frames[1]));
    assert_eq!(rx.store().len(), 0, "the solved group must be consumed");
}

#[test]
fn recovery_is_identical_across_backends() {
    for seed in [3, 6, 11] {
        let (reg, buffers, _) = equal_offset_pair(120, 300, seed);
        let mut events_by_backend = Vec::new();
        for backend in [BackendKind::Scalar, BackendKind::Simd] {
            let cfg = DecoderConfig { backend, ..DecoderConfig::with_recovery() };
            let mut core = ReceiverCore::new(cfg, reg.clone());
            let pipeline = Pipeline::standard();
            let events: Vec<_> = buffers.iter().flat_map(|b| core.receive(&pipeline, b)).collect();
            events_by_backend.push(events);
        }
        assert_eq!(
            events_by_backend[0], events_by_backend[1],
            "seed {seed}: scalar and simd backends must produce identical recovery events"
        );
    }
}

#[test]
fn recovery_is_identical_across_shard_counts() {
    // Two disjoint client sets, each colliding at equal offsets (the
    // recovery-only scenario), interleaved into one batch: the sharded
    // receiver must produce bit-identical events at 1/2/4 shards because
    // recovery state (store, salvage pool) is keyed by client set.
    let la = LinkProfile::clean_with_omega(17.0, -0.08);
    let lb = LinkProfile::clean_with_omega(17.0, 0.09);
    let lc = LinkProfile::clean_with_omega(17.0, -0.14);
    let ld = LinkProfile::clean_with_omega(17.0, 0.15);
    let mut registry = ClientRegistry::new();
    for (id, l) in [(1u16, &la), (2, &lb), (3, &lc), (4, &ld)] {
        registry.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    let mut rng = StdRng::seed_from_u64(21);
    let mut group = |ids: [u16; 2], links: [&LinkProfile; 2], delta: usize, seq: u16| {
        let a = air(ids[0], seq, 120);
        let b = air(ids[1], seq, 120);
        let (ca, cb) = (links[0].draw(&mut rng), links[1].draw(&mut rng));
        let mk = |rng: &mut StdRng| {
            synth_collision(
                &[
                    PlacedTx { air: &a, base: &ca, start: 0 },
                    PlacedTx { air: &b, base: &cb, start: delta },
                ],
                1.0,
                rng,
            )
            .buffer
        };
        [mk(&mut rng), mk(&mut rng)]
    };
    let g1 = group([1, 2], [&la, &lb], 300, 5);
    let g2 = group([3, 4], [&lc, &ld], 340, 6);
    // interleave the two sets' buffers as the air would deliver them
    let batch: Vec<Vec<Complex>> = vec![g1[0].clone(), g2[0].clone(), g1[1].clone(), g2[1].clone()];

    let cfg = DecoderConfig { key_window: 1024, ..DecoderConfig::with_recovery() };
    let reference = {
        let mut core = ReceiverCore::new(cfg.clone(), registry.clone());
        let pipeline = Pipeline::standard();
        batch.iter().map(|b| core.receive(&pipeline, b)).collect::<Vec<_>>()
    };
    let total_recovered: usize =
        reference.iter().map(|ev| delivered_frames(ev, DecodePath::Recovered).len()).sum();
    assert!(total_recovered >= 2, "the scenario must exercise recovery: {reference:?}");
    for shards in [1, 2, 4] {
        let mut rx = ShardedReceiver::new(
            cfg.clone(),
            ShardConfig { shards, queue_depth: 2 },
            registry.clone(),
        );
        let out = rx.process_batch(&batch);
        assert_eq!(
            reference, out,
            "recovery events at {shards} shards must be bit-identical to a single core"
        );
    }
}

proptest! {
    /// Identity is a property of EVERY workload, not just the
    /// pre-screened decodable ones: whatever a random equal-offset
    /// scenario does (recover, store, fail), the recovery-enabled
    /// receiver must do it bit-identically on both kernel backends...
    #[test]
    fn random_recovery_workloads_are_backend_invariant(seed in 0u64..1_000_000) {
        let delta = 200 + 10 * (seed % 20) as usize;
        let payload = 100 + 10 * (seed % 4) as usize;
        let (reg, buffers, _) = equal_offset_pair(payload, delta, seed);
        let mut events_by_backend = Vec::new();
        for backend in [BackendKind::Scalar, BackendKind::Simd] {
            let cfg = DecoderConfig { backend, ..DecoderConfig::with_recovery() };
            let mut core = ReceiverCore::new(cfg, reg.clone());
            let pipeline = Pipeline::standard();
            let events: Vec<_> =
                buffers.iter().flat_map(|b| core.receive(&pipeline, b)).collect();
            events_by_backend.push(events);
        }
        prop_assert_eq!(&events_by_backend[0], &events_by_backend[1]);
    }

    /// ...and at every shard count, because the recovery state (salvage
    /// pool, store, rejected alignments) is keyed by client set exactly
    /// like the rest of the receiver.
    #[test]
    fn random_recovery_workloads_are_shard_count_invariant(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
    ) {
        let delta = 200 + 10 * (seed % 20) as usize;
        let (reg, g1, _) = equal_offset_pair(100, delta, seed);
        // a second client set over the same AP, at its own oscillators
        let lc = LinkProfile::clean_with_omega(17.0, -0.14);
        let ld = LinkProfile::clean_with_omega(17.0, 0.15);
        let c = air(3, seed as u16, 100);
        let d = air(4, seed as u16, 100);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE);
        let (cc, cd) = (lc.draw(&mut rng), ld.draw(&mut rng));
        let mk = |rng: &mut StdRng| {
            synth_collision(
                &[
                    PlacedTx { air: &c, base: &cc, start: 0 },
                    PlacedTx { air: &d, base: &cd, start: delta + 40 },
                ],
                1.0,
                rng,
            )
            .buffer
        };
        let g2 = [mk(&mut rng), mk(&mut rng)];
        let mut registry = reg.clone();
        for (id, l) in [(3u16, &lc), (4, &ld)] {
            registry.associate(
                id,
                ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
            );
        }
        let batch: Vec<Vec<Complex>> =
            vec![g1[0].clone(), g2[0].clone(), g1[1].clone(), g2[1].clone()];
        let cfg = DecoderConfig { key_window: 1024, ..DecoderConfig::with_recovery() };
        let reference = {
            let mut core = ReceiverCore::new(cfg.clone(), registry.clone());
            let pipeline = Pipeline::standard();
            batch.iter().map(|b| core.receive(&pipeline, b)).collect::<Vec<_>>()
        };
        for shards in [1, 2, 4] {
            let mut rx = ShardedReceiver::new(
                cfg.clone(),
                ShardConfig { shards, queue_depth: depth },
                registry.clone(),
            );
            prop_assert_eq!(&reference, &rx.process_batch(&batch));
        }
    }
}

#[test]
fn evicted_collision_recovers_through_salvage_pool() {
    // A store of capacity 1: the first collision is stored, an unrelated
    // same-client-set collision then EVICTS it — historically a permanent
    // loss. With recovery on, the eviction lands in the salvage pool, and
    // the matching retransmission recruits it from there and decodes.
    let (reg, buffers, frames) = equal_offset_pair(120, 300, 3);
    let interloper = {
        let la = LinkProfile::clean_with_omega(17.0, -0.08);
        let lb = LinkProfile::clean_with_omega(17.0, 0.09);
        let a = air(1, 99, 120);
        let b = air(2, 99, 120);
        let mut rng = StdRng::seed_from_u64(555);
        let (ca, cb) = (la.draw(&mut rng), lb.draw(&mut rng));
        synth_collision(
            &[
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: 200 },
            ],
            1.0,
            &mut rng,
        )
        .buffer
    };
    let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
    let mut rx = ReceiverCore::new(cfg, reg);
    let ev1 = rx.process(&buffers[0]);
    assert!(ev1.contains(&ReceiverEvent::CollisionStored), "{ev1:?}");
    let ev2 = rx.process(&interloper);
    assert!(
        ev2.contains(&ReceiverEvent::CollisionStored),
        "the interloper must evict the first collision out of the cap-1 store: {ev2:?}"
    );
    let ev3 = rx.process(&buffers[1]);
    let recovered = delivered_frames(&ev3, DecodePath::Recovered);
    assert_eq!(
        recovered.len(),
        2,
        "the evicted collision must come back through the salvage pool: {ev3:?}"
    );
    assert!(recovered.contains(&frames[0]) && recovered.contains(&frames[1]));
}

#[test]
fn evicted_then_salvaged_set_never_double_emits() {
    // A pair that DOES zigzag-decode: deliver it once through the zigzag
    // path, then force its (re-inserted) collision through the recovery
    // path — the (src, seq) dedup must swallow the second delivery.
    let la = LinkProfile::clean_with_omega(17.0, -0.08);
    let lb = LinkProfile::clean_with_omega(17.0, 0.09);
    let a = air(1, 9, 120);
    let b = air(2, 9, 120);
    let mut rng = StdRng::seed_from_u64(11);
    let (ca, cb) = (la.draw(&mut rng), lb.draw(&mut rng));
    let mk = |d: usize, rng: &mut StdRng| {
        synth_collision(
            &[PlacedTx { air: &a, base: &ca, start: 0 }, PlacedTx { air: &b, base: &cb, start: d }],
            1.0,
            rng,
        )
        .buffer
    };
    // same-offset pair (recovery path) + distinct-offset retransmission
    // (zigzag path)
    let c1 = mk(300, &mut rng);
    let c2 = mk(120, &mut rng);
    let c3 = mk(300, &mut rng);

    let reg = registry(&[(1, &la), (2, &lb)]);
    let mut rx = ReceiverCore::new(DecoderConfig::with_recovery(), reg);
    let ev1 = rx.process(&c1);
    assert!(ev1.contains(&ReceiverEvent::CollisionStored), "{ev1:?}");
    let ev2 = rx.process(&c2);
    let via_zigzag = delivered_frames(&ev2, DecodePath::Zigzag);
    assert_eq!(via_zigzag.len(), 2, "the distinct-offset pair must zigzag-decode: {ev2:?}");

    // The same packets arrive again at the recovery-only offset. Whatever
    // path resolves the buffer, the frames were already delivered — no
    // Delivered event may be emitted again.
    let ev3 = rx.process(&c3);
    assert!(
        !ev3.iter().any(|e| matches!(e, ReceiverEvent::Delivered { .. })),
        "already-delivered frames must not re-emit through recovery: {ev3:?}"
    );
}
