//! Robustness tests of the typical-link recovery hardening: the recovery
//! solver (`DecoderConfig::with_recovery`) must reclaim §4.5 un-peelable
//! groups on impaired channels and out of k = 3 salvage-pool assemblies,
//! and stay bit-identical across kernel backends and shard counts like
//! every other receiver path.
//!
//! The link profile under test is env-selectable: by default the
//! identity tests run on benign oscillator-offset links; with
//! `ZIGZAG_LINK_PROFILE=typical` the same tests run over the
//! typical-link impairment class (phase noise + sampling drift), which
//! is how CI exercises both presets without a second test body.

use proptest::prelude::*;
use rand::prelude::*;
use zigzag::channel::fading::{LinkProfile, DEFAULT_PHASE_NOISE, DEFAULT_SAMPLING_DRIFT};
use zigzag::channel::scenario::{synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig};
use zigzag::core::engine::{Pipeline, ReceiverCore, ShardedReceiver};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::kernel::BackendKind;
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

/// A benign link at the given oscillator offset, hardened to the
/// typical-link impairment class: the `DEFAULT_PHASE_NOISE` random walk
/// plus full-magnitude sampling drift.
fn impaired_link(snr_db: f64, omega: f64) -> LinkProfile {
    let mut l = LinkProfile::clean_with_omega(snr_db, omega);
    l.phase_noise = DEFAULT_PHASE_NOISE;
    l.sampling_drift = DEFAULT_SAMPLING_DRIFT;
    l
}

/// The link the identity tests run over: benign by default, the
/// impaired class when `ZIGZAG_LINK_PROFILE=typical` (the CI matrix's
/// second leg). Identity must hold on ANY link, so both legs share one
/// test body.
fn env_link(snr_db: f64, omega: f64) -> LinkProfile {
    match std::env::var("ZIGZAG_LINK_PROFILE").as_deref() {
        Ok("typical") => impaired_link(snr_db, omega),
        _ => LinkProfile::clean_with_omega(snr_db, omega),
    }
}

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

/// §4.5's Δ₁ = Δ₂ pair over the given links: `n` collisions of the same
/// two packets at identical relative offsets.
fn equal_offset_group(
    links: (&LinkProfile, &LinkProfile),
    payload: usize,
    delta: usize,
    n: usize,
    seed: u64,
) -> (ClientRegistry, Vec<Vec<Complex>>, Vec<Frame>) {
    let a = air(1, seed as u16, payload);
    let b = air(2, seed as u16, payload);
    let mut rng = StdRng::seed_from_u64(seed);
    let (ca, cb) = (links.0.draw(&mut rng), links.1.draw(&mut rng));
    let buffers = (0..n)
        .map(|_| {
            synth_collision(
                &[
                    PlacedTx { air: &a, base: &ca, start: 0 },
                    PlacedTx { air: &b, base: &cb, start: delta },
                ],
                1.0,
                &mut rng,
            )
            .buffer
        })
        .collect();
    let reg = registry(&[(1, links.0), (2, links.1)]);
    (reg, buffers, vec![a.frame, b.frame])
}

fn run_all(
    cfg: &DecoderConfig,
    reg: &ClientRegistry,
    buffers: &[Vec<Complex>],
) -> Vec<ReceiverEvent> {
    let mut core = ReceiverCore::new(cfg.clone(), reg.clone());
    let pipeline = Pipeline::standard();
    buffers.iter().flat_map(|b| core.receive(&pipeline, b)).collect()
}

fn recovered_frames(events: &[ReceiverEvent]) -> Vec<Frame> {
    events
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Delivered { frame, path: DecodePath::Recovered } => Some(frame.clone()),
            _ => None,
        })
        .collect()
}

/// §4.5 generalized to three senders: `n` collisions of the same three
/// packets at identical relative offsets (`delta`, `2·delta`).
fn k3_equal_offset_group(
    links: [&LinkProfile; 3],
    payload: usize,
    delta: usize,
    n: usize,
    seed: u64,
) -> (ClientRegistry, Vec<Vec<Complex>>, Vec<Frame>) {
    let airs: Vec<_> = (1..=3).map(|id| air(id, seed as u16, payload)).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3333);
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    let buffers = (0..n)
        .map(|_| {
            let placed: Vec<PlacedTx<'_>> = (0..3)
                .map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: i * delta })
                .collect();
            synth_collision(&placed, 1.0, &mut rng).buffer
        })
        .collect();
    let reg = registry(&[(1, links[0]), (2, links[1]), (3, links[2])]);
    (reg, buffers, airs.into_iter().map(|a| a.frame).collect())
}

#[test]
#[ignore = "screening probe"]
fn screen_k3_pool_seeds() {
    let links = [
        LinkProfile::clean_with_omega(17.0, -0.08),
        LinkProfile::clean_with_omega(17.0, 0.02),
        LinkProfile::clean_with_omega(17.0, 0.09),
    ];
    for seed in 0..30u64 {
        let (reg, buffers, _) =
            k3_equal_offset_group([&links[0], &links[1], &links[2]], 120, 300, 4, seed);
        let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
        let got = recovered_frames(&run_all(&cfg, &reg, &buffers));
        eprintln!("seed {seed}: recovered {}", got.len());
    }
}

#[test]
#[ignore = "screening probe"]
fn screen_k3_perm_seeds() {
    let links = [
        LinkProfile::clean_with_omega(17.0, -0.08),
        LinkProfile::clean_with_omega(17.0, 0.02),
        LinkProfile::clean_with_omega(17.0, 0.09),
    ];
    for seed in 0..20u64 {
        let (reg, buffers, _) =
            k3_equal_offset_group([&links[0], &links[1], &links[2]], 120, 300, 3, seed);
        let evict = k3_interloper([&links[0], &links[1], &links[2]], 120, seed);
        let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
        let stream =
            vec![buffers[0].clone(), buffers[1].clone(), evict.clone(), buffers[2].clone()];
        let events = run_all(&cfg, &reg, &stream);
        let got = recovered_frames(&events);
        eprintln!(
            "seed {seed}: recovered {} events {:?}",
            got.len(),
            events
                .iter()
                .filter(|e| !matches!(e, ReceiverEvent::Delivered { .. }))
                .collect::<Vec<_>>()
        );
    }
}

/// An unrelated same-client-set collision at distinct offsets, used to
/// evict the stored group member into the salvage pool.
fn interloper(links: (&LinkProfile, &LinkProfile), payload: usize, seed: u64) -> Vec<Complex> {
    let a = air(1, 99, payload);
    let b = air(2, 99, payload);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1E11);
    let (ca, cb) = (links.0.draw(&mut rng), links.1.draw(&mut rng));
    synth_collision(
        &[PlacedTx { air: &a, base: &ca, start: 0 }, PlacedTx { air: &b, base: &cb, start: 200 }],
        1.0,
        &mut rng,
    )
    .buffer
}

#[test]
#[ignore = "screening probe"]
fn screen_impaired_pool_seeds() {
    let la = impaired_link(15.0, -0.08);
    let lb = impaired_link(15.0, 0.09);
    for seed in 0..30u64 {
        let (reg, buffers, _) = equal_offset_group((&la, &lb), 120, 300, 2, seed);
        let evict = interloper((&la, &lb), 120, seed);
        let stream = vec![buffers[0].clone(), evict, buffers[1].clone()];
        let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
        let got = recovered_frames(&run_all(&cfg, &reg, &stream));
        eprintln!("seed {seed}: recovered {}", got.len());
    }
}

#[test]
#[ignore = "screening probe"]
fn screen_impaired_seeds() {
    let la = impaired_link(15.0, -0.08);
    let lb = impaired_link(15.0, 0.09);
    for seed in 0..40u64 {
        let (reg, buffers, _) = equal_offset_group((&la, &lb), 120, 300, 2, seed);
        let got = recovered_frames(&run_all(&DecoderConfig::with_recovery(), &reg, &buffers));
        eprintln!("seed {seed}: recovered {}", got.len());
    }
}

#[test]
fn impaired_groups_reclaim_only_with_turbo() {
    // Equal-offset groups over phase-noisy links, on which a single
    // solve pass without phase tracking lost both packets (first-pass
    // channel estimates decohere across the window, CRC fails), come
    // back complete: the window PLL keeps the phase estimates on the
    // walk, and turbo re-estimation from the first-pass decision images
    // converges. Seeds pre-screened like the bench's `RECOVERY_SEEDS`.
    let la = impaired_link(15.0, -0.08);
    let lb = impaired_link(15.0, 0.09);
    for seed in [0u64, 28, 31] {
        let (reg, buffers, frames) = equal_offset_group((&la, &lb), 120, 300, 2, seed);
        let turbo = recovered_frames(&run_all(&DecoderConfig::with_recovery(), &reg, &buffers));
        assert_eq!(turbo.len(), 2, "seed {seed}: turbo must reclaim both packets");
        assert!(turbo.contains(&frames[0]) && turbo.contains(&frames[1]), "seed {seed}");
    }
}

#[test]
fn phase_noisy_members_recruit_through_salvage_pool() {
    // Salvage-pool recruitment with phase-noisy members: the stored
    // collision is evicted into the pool by an unrelated same-set
    // collision, and the retransmission recruits it back — footprint
    // confirmation and conditioning gate included — over links with the
    // full typical impairment class.
    let la = impaired_link(15.0, -0.08);
    let lb = impaired_link(15.0, 0.09);
    for seed in [0u64, 5, 9] {
        let (reg, buffers, frames) = equal_offset_group((&la, &lb), 120, 300, 2, seed);
        let evict = interloper((&la, &lb), 120, seed);
        let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
        let mut rx = ReceiverCore::new(cfg, reg);
        let ev1 = rx.process(&buffers[0]);
        assert!(ev1.contains(&ReceiverEvent::CollisionStored), "seed {seed}: {ev1:?}");
        let ev2 = rx.process(&evict);
        assert!(
            ev2.contains(&ReceiverEvent::CollisionStored),
            "seed {seed}: the interloper must evict the first collision into the pool: {ev2:?}"
        );
        let ev3 = rx.process(&buffers[1]);
        let got = recovered_frames(&ev3);
        assert_eq!(got.len(), 2, "seed {seed}: pool recruitment must decode the group: {ev3:?}");
        assert!(got.contains(&frames[0]) && got.contains(&frames[1]), "seed {seed}");
    }
}

#[test]
fn kway_pool_assembly_reclaims_triples() {
    // k = 3 group assembly out of the salvage pool: with a cap-1 store,
    // four equal-offset triple collisions funnel two members into the
    // pool, and the fourth buffer recruits them into a 3-packet joint
    // solve that reclaims every packet.
    let links = [
        LinkProfile::clean_with_omega(17.0, -0.08),
        LinkProfile::clean_with_omega(17.0, 0.02),
        LinkProfile::clean_with_omega(17.0, 0.09),
    ];
    for seed in [1u64, 2, 19] {
        let (reg, buffers, frames) =
            k3_equal_offset_group([&links[0], &links[1], &links[2]], 120, 300, 4, seed);
        let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
        let got = recovered_frames(&run_all(&cfg, &reg, &buffers));
        assert_eq!(got.len(), 3, "seed {seed}: all three packets must reclaim, got {got:?}");
        for f in &frames {
            assert!(got.contains(f), "seed {seed}: missing frame {:?}", (f.src, f.seq));
        }
    }
}

/// A fresh 3-packet collision of the same clients at **distinct**
/// offsets — undecodable alone, so it is stored and (with a cap-1
/// store) evicts the currently stored group member into the pool.
fn k3_interloper(links: [&LinkProfile; 3], payload: usize, seed: u64) -> Vec<Complex> {
    let airs: Vec<_> = (1..=3).map(|id| air(id, 99, payload)).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1E33);
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    let starts = [0usize, 210, 450];
    let placed: Vec<PlacedTx<'_>> =
        (0..3).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: starts[i] }).collect();
    synth_collision(&placed, 1.0, &mut rng).buffer
}

#[test]
fn kway_pool_assembly_is_permutation_invariant() {
    // The order in which members entered the salvage pool must not
    // change what the assembled k = 3 group decodes. The first two
    // collisions of each arrival order funnel into the pool (the second
    // eviction forced by an unrelated interloper), so the final buffer
    // always assembles the SAME member set — only the pool's insertion
    // order differs — and every permutation must recover the identical
    // full triple.
    let links = [
        LinkProfile::clean_with_omega(17.0, -0.08),
        LinkProfile::clean_with_omega(17.0, 0.02),
        LinkProfile::clean_with_omega(17.0, 0.09),
    ];
    let (reg, buffers, frames) =
        k3_equal_offset_group([&links[0], &links[1], &links[2]], 120, 300, 3, 2);
    let evict = k3_interloper([&links[0], &links[1], &links[2]], 120, 2);
    let cfg = DecoderConfig { collision_store: 1, ..DecoderConfig::with_recovery() };
    let perms: [[usize; 3]; 6] = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let key = |f: &Frame| (f.src, f.seq);
    let mut want = frames.clone();
    want.sort_by_key(key);
    for perm in perms {
        let stream: Vec<Vec<Complex>> = vec![
            buffers[perm[0]].clone(),
            buffers[perm[1]].clone(),
            evict.clone(),
            buffers[perm[2]].clone(),
        ];
        let mut got = recovered_frames(&run_all(&cfg, &reg, &stream));
        got.sort_by_key(key);
        assert_eq!(got.len(), 3, "perm {perm:?}: assembly must decode the full triple");
        assert_eq!(got, want, "perm {perm:?}: recovered frames must not depend on pool order");
    }
}

proptest! {
    /// Turbo convergence is deterministic: whatever a random impaired
    /// equal-offset workload does under recovery (reclaim,
    /// partially reclaim, store), both kernel backends produce the
    /// bit-identical event stream — the PLL, conditioning gate, and
    /// re-estimation loop contain no backend-dependent numerics.
    #[test]
    fn impaired_turbo_workloads_are_backend_invariant(seed in 0u64..1_000_000) {
        let la = impaired_link(15.0, -0.08);
        let lb = impaired_link(15.0, 0.09);
        let delta = 200 + 10 * (seed % 20) as usize;
        let payload = 100 + 10 * (seed % 4) as usize;
        let (reg, buffers, _) = equal_offset_group((&la, &lb), payload, delta, 2, seed);
        let mut events_by_backend = Vec::new();
        for backend in [BackendKind::Scalar, BackendKind::Simd] {
            let cfg = DecoderConfig { backend, ..DecoderConfig::with_recovery() };
            events_by_backend.push(run_all(&cfg, &reg, &buffers));
        }
        prop_assert_eq!(&events_by_backend[0], &events_by_backend[1]);
    }

    /// ...and across 1/2/4 shards, because the turbo state (per-window
    /// PLLs, re-estimated views) lives entirely inside the per-set
    /// solve — nothing leaks across shard boundaries.
    #[test]
    fn impaired_turbo_workloads_are_shard_count_invariant(
        seed in 0u64..1_000_000,
        depth in 1usize..4,
    ) {
        let la = impaired_link(15.0, -0.08);
        let lb = impaired_link(15.0, 0.09);
        let delta = 200 + 10 * (seed % 20) as usize;
        let (reg, g1, _) = equal_offset_group((&la, &lb), 100, delta, 2, seed);
        // a second impaired client set over the same AP
        let lc = impaired_link(15.0, -0.14);
        let ld = impaired_link(15.0, 0.15);
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
fn robust_identity_holds_on_env_selected_link() {
    // The CI matrix's shared body: on whatever link class
    // `ZIGZAG_LINK_PROFILE` selects (benign default, `typical` for the
    // impaired leg), the recovery solver stays bit-identical across
    // backends and across shard counts.
    let la = env_link(15.0, -0.08);
    let lb = env_link(15.0, 0.09);
    for seed in [0u64, 7, 13] {
        let (reg, buffers, _) = equal_offset_group((&la, &lb), 120, 300, 2, seed);
        let mut events_by_backend = Vec::new();
        for backend in [BackendKind::Scalar, BackendKind::Simd] {
            let cfg = DecoderConfig { backend, ..DecoderConfig::with_recovery() };
            events_by_backend.push(run_all(&cfg, &reg, &buffers));
        }
        assert_eq!(
            events_by_backend[0], events_by_backend[1],
            "seed {seed}: backend identity must hold on the env-selected link"
        );
        let cfg = DecoderConfig::with_recovery();
        let reference = {
            let mut core = ReceiverCore::new(cfg.clone(), reg.clone());
            let pipeline = Pipeline::standard();
            buffers.iter().map(|b| core.receive(&pipeline, b)).collect::<Vec<_>>()
        };
        for shards in [1, 2, 4] {
            let mut rx = ShardedReceiver::new(
                cfg.clone(),
                ShardConfig { shards, queue_depth: 2 },
                reg.clone(),
            );
            assert_eq!(
                reference,
                rx.process_batch(&buffers),
                "seed {seed}: shard identity must hold on the env-selected link"
            );
        }
    }
}
