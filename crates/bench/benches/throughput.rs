//! Batched decode throughput: buffers decoded/sec through the
//! `BatchEngine`, across two axes — single- vs multi-threaded, and the
//! scalar vs simd phy kernel backend — on a batch of 64 independent
//! hidden-terminal work units (128 collision buffers).
//!
//! This is the perf anchor for the engine + kernel-backend work, and a
//! regression gate: decode events must be **identical** at every thread
//! count AND under both kernel backends (always asserted — this is
//! the CI smoke check for kernel-backend regressions), the
//! multi-threaded engine must beat single-threaded by ≥ 2× on ≥ 4 real
//! cores, the simd backend must measurably beat scalar end-to-end,
//! and the staged k-way matcher must beat the frozen
//! exhaustive-interp k=3 baseline ([`K3_BASELINE_MS_SINGLE`]) by ≥ 5×.
//! Perf gates (never the identity asserts) relax under
//! `ZIGZAG_BENCH_RELAXED=1`;
//! `ZIGZAG_BENCH_RELAXED=threads` relaxes only the machine-parallelism
//! gates, keeping the backend and staged-matching ratio gates (the CI
//! setting). Results land in `BENCH_throughput.json` at the repo root
//! so the perf trajectory is tracked across PRs.
//!
//! The run also drives the typical-link robustness sweep
//! ([`zigzag_testbed::run_impairment_sweep`]): reclaim fractions of
//! §4.5 un-peelable groups under phase noise × SNR × timing drift. The
//! pinned per-point reclaim counts (`SWEEP_FLOOR`) never relax; the
//! fractional floor at `DEFAULT_PHASE_NOISE` relaxes with the other perf
//! gates.
//!
//! Finally, the cell co-simulation workload: a million symbolic stations
//! through `zigzag_mac::cell` with a sampled fraction of genuine
//! collisions lowered into this receiver (thread-count identity and
//! lowered-verdict feedback gates never relax), the same cell resolved
//! purely symbolically (the simulator's own cost), plus the slotted-ALOHA
//! throughput curves whose ZigZag-vs-plain dominance gate relaxes with
//! the perf gates.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use std::fmt::Write as _;
use zigzag_bench::{
    airframe, equal_offset_pair, shard_link, shard_registry, RECOVERY_SEEDS, SHARD_IDS,
};
use zigzag_channel::fading::{LinkProfile, DEFAULT_PHASE_NOISE, DEFAULT_SAMPLING_DRIFT};
use zigzag_channel::scenario::{hidden_pair, synth_collision, PlacedTx};
use zigzag_core::config::StreamConfig;
use zigzag_core::config::{ClientRegistry, DecoderConfig, RecoveryConfig, ShardConfig};
use zigzag_core::engine::{
    unit_seed, BatchEngine, Pipeline, ReceiverCore, Scratch, ShardedReceiver,
};
use zigzag_core::receiver::DecodePath;
use zigzag_core::stream::carve_buffer;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_core::ReceiverEvent;
use zigzag_mac::cell::preset::saturation_knee;
use zigzag_mac::cell::{run_cell, symbolic_curve, CellPreset, DecodeModel, SplitResolver};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::Frame;
use zigzag_phy::kernel::BackendKind;
use zigzag_testbed::{
    continuous_air, run_impairment_sweep, ExperimentConfig, ImpairmentPoint, SetScenario,
    SignalResolver,
};

const UNITS: usize = 64;

/// One independent receiver workload: a fresh receiver fed a sequence
/// of buffers (one retransmission group's collisions).
struct Unit {
    cfg: DecoderConfig,
    registry: ClientRegistry,
    buffers: Vec<Vec<Complex>>,
}

/// Decodes every unit on a fresh `ReceiverCore`, units in parallel across
/// the engine, returning each unit's concatenated events in input order.
fn decode_units(engine: &BatchEngine, units: &[Unit]) -> Vec<Vec<ReceiverEvent>> {
    engine.map(units, |_, unit| {
        let mut rx = ReceiverCore::new(unit.cfg.clone(), unit.registry.clone());
        unit.buffers.iter().flat_map(|b| rx.process(b)).collect()
    })
}

/// Per-set retransmission-group seeds, pre-screened (like `K3_SEEDS`) so
/// every group's pair decodes through the full receiver under the
/// 8-client registry — §5.3a false positives from *other sets'* clients
/// can otherwise leave a group stored-unmatched, which is a valid outcome
/// but a poor throughput anchor.
const SHARD_SEEDS: [[u64; 4]; 4] = [[0, 6, 11, 12], [1, 11, 16, 22], [2, 5, 9, 10], [2, 6, 16, 19]];

/// Builds the sharded-receiver workload: four disjoint client sets, four
/// retransmission groups each, interleaved round-robin into one buffer
/// stream (as the air would deliver them to one AP).
fn build_shard_stream() -> (ClientRegistry, Vec<Vec<Complex>>) {
    let group = |ids: [u16; 2], seed: u64| -> [Vec<Complex>; 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (la, lb) = (shard_link(ids[0]), shard_link(ids[1]));
        let a = airframe(ids[0], seed as u16, 200, 60_000 + seed * 7 + ids[0] as u64 * 101);
        let b = airframe(ids[1], seed as u16, 200, 61_000 + seed * 11 + ids[1] as u64 * 101);
        let offsets = [(420, 140), (300, 120), (420, 180), (360, 150)][seed as usize % 4];
        let hp = hidden_pair(&a, &b, &la, &lb, offsets.0, offsets.1, &mut rng);
        [hp.collision1.buffer, hp.collision2.buffer]
    };
    let mut stream = Vec::new();
    // group-major interleave: every set contributes its g-th group's two
    // collisions before any set starts group g+1, as the air would
    for g in 0..SHARD_SEEDS[0].len() {
        for (ids, seeds) in SHARD_IDS.iter().zip(SHARD_SEEDS.iter()) {
            let [c1, c2] = group(*ids, seeds[g]);
            stream.push(c1);
            stream.push(c2);
        }
    }
    (shard_registry(), stream)
}

/// Builds the algebraic-recovery workload: the shard workload's four
/// disjoint client sets, but every retransmission pair collides at
/// **identical** relative offsets ([`equal_offset_pair`], §4.5's
/// Δ₁ = Δ₂ failure case) — the zigzag-only pipeline provably decodes
/// nothing from this stream, the recovery-enabled one decodes every
/// frame.
fn build_recovery_stream() -> (ClientRegistry, Vec<Vec<Complex>>) {
    let mut stream = Vec::new();
    for g in 0..RECOVERY_SEEDS[0].len() {
        for (ids, seeds) in SHARD_IDS.iter().zip(RECOVERY_SEEDS.iter()) {
            let ([c1, c2], _) = equal_offset_pair(*ids, seeds[g]);
            stream.push(c1);
            stream.push(c2);
        }
    }
    (shard_registry(), stream)
}

/// Per-unit seeds for the k=3 workload, pre-screened so both the
/// ground-truth executor and the full receiver pipeline recover all
/// three frames (the k-way matcher is conservative by design — a
/// detection-starved set stays stored awaiting more retransmissions;
/// that path is covered by the testbed's `run_set` tests, while this
/// bench pins the successful-decode path's identity and throughput).
const K3_SEEDS: [u64; 16] = [0, 1, 2, 3, 4, 9, 12, 14, 15, 16, 17, 18, 19, 20, 25, 26];

/// The k=3 single-thread baseline measured on the reference runner
/// *before* the staged coarse-to-fine search and cached correlation
/// footprints landed (the exhaustive interpolate-per-τ matcher). The
/// quick-mode perf gate requires the current build to beat this by ≥ 5×;
/// `ZIGZAG_BENCH_RELAXED=1` relaxes the gate (never the identity
/// asserts) for shared/noisy runners.
const K3_BASELINE_MS_SINGLE: f64 = 6338.42;
const K3_BASELINE_BUFFERS_PER_SEC: f64 = 7.6;

/// Builds the k=3 workload: per unit, three 3-sender collisions through
/// one receiver (store → store → k-way match → zigzag), plus the frames
/// the hand-driven executor recovers from the same buffers with
/// ground-truth placements.
fn build_k3_units(backend: BackendKind) -> (Vec<Unit>, Vec<Vec<Frame>>) {
    let omegas = [-0.08, 0.02, 0.09];
    let offs = [[0usize, 310, 620], [0, 620, 310], [100, 0, 450]];
    let mut units = Vec::with_capacity(K3_SEEDS.len());
    let mut expected = Vec::with_capacity(K3_SEEDS.len());
    for &seed in &K3_SEEDS {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let links: Vec<LinkProfile> =
            (0..3).map(|i| LinkProfile::clean_with_omega(17.0, omegas[i])).collect();
        let airs: Vec<_> = (0..3)
            .map(|i| airframe(i as u16 + 1, seed as u16, 150, 90_000 + seed * 7 + i as u64))
            .collect();
        let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
        let buffers: Vec<_> = offs
            .iter()
            .map(|o| {
                let placed: Vec<PlacedTx<'_>> = (0..3)
                    .map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: o[i] })
                    .collect();
                synth_collision(&placed, 1.0, &mut rng).buffer
            })
            .collect();
        let registry =
            zigzag_testbed::registry_for(&[(1, &links[0]), (2, &links[1]), (3, &links[2])]);
        let dec = ZigzagDecoder::new(DecoderConfig::with_backend(backend), &registry);
        let specs: Vec<CollisionSpec<'_>> = buffers
            .iter()
            .zip(offs.iter())
            .map(|(b, o)| CollisionSpec {
                buffer: b,
                placements: (0..3).map(|i| (i, o[i])).collect(),
            })
            .collect();
        let out = dec.decode(
            &specs,
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }, PacketSpec { client: 3 }],
            &mut Scratch::with_backend(backend),
        );
        expected.push(out.packets.into_iter().filter_map(|p| p.frame).collect());
        units.push(Unit { cfg: DecoderConfig::with_backend(backend), registry, buffers });
    }
    (units, expected)
}

/// Builds 64 independent hidden-terminal work units on the given kernel
/// backend: each is a fresh receiver fed the two collisions of one
/// retransmission pair (store → match → zigzag), i.e. 128 collision
/// buffers in total. The signal content is identical across backends.
fn build_units(backend: BackendKind) -> Vec<Unit> {
    (0..UNITS)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(unit_seed(2008, i));
            let la = LinkProfile::typical(16.0, &mut rng);
            let lb = LinkProfile::typical(16.0, &mut rng);
            let a = airframe(1, i as u16, 200, 10_000 + i as u64);
            let b = airframe(2, i as u16, 200, 20_000 + i as u64);
            let d1 = 200 + 10 * (i % 12);
            let d2 = 60 + 10 * (i % 5);
            let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
            let registry = zigzag_testbed::registry_for(&[(1, &la), (2, &lb)]);
            Unit {
                cfg: DecoderConfig::with_backend(backend),
                registry,
                buffers: vec![hp.collision1.buffer, hp.collision2.buffer],
            }
        })
        .collect()
}

fn bench_batch_decode(c: &mut Criterion) {
    let single = BatchEngine::single_threaded();
    let multi = BatchEngine::new(0);
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut events_by_backend = Vec::new();
    let mut n_buffers = 0;

    for backend in [BackendKind::Scalar, BackendKind::Simd] {
        let units = build_units(backend);
        n_buffers = units.iter().map(|u| u.buffers.len()).sum();
        println!(
            "batch[{}]: {UNITS} work units / {n_buffers} collision buffers; multi = {} threads",
            backend.name(),
            multi.threads()
        );
        for (engine_name, engine) in [("single_thread", &single), ("multi_thread", &multi)] {
            let name = format!("batch_decode_{engine_name}/{}", backend.name());
            c.bench_function(&name, |b| b.iter(|| decode_units(engine, &units)));
            // the compat criterion reports the median ns/iter of the run
            // it just timed — no extra passes needed
            timings.push((name, c.last_ns));
        }
        // --- determinism across thread counts (per backend) ---
        let events_single = decode_units(&single, &units);
        let events_multi = decode_units(&multi, &units);
        assert_eq!(
            events_single,
            events_multi,
            "[{}] multi-threaded decode must be bit-identical to single-threaded",
            backend.name()
        );
        events_by_backend.push(events_single);
    }

    // --- determinism across kernel backends ---
    assert_eq!(
        events_by_backend[0], events_by_backend[1],
        "scalar and simd kernel backends must produce identical decode events"
    );
    let delivered: usize = events_by_backend[0]
        .iter()
        .flat_map(|ev| ev.iter())
        .filter(|e| matches!(e, zigzag_core::ReceiverEvent::Delivered { .. }))
        .count();

    // --- k=3 workload: 3-sender/3-collision sets through the pipeline ---
    let (k3_units, k3_expected) = build_k3_units(BackendKind::Simd);
    let k3_buffers: usize = k3_units.iter().map(|u| u.buffers.len()).sum();
    println!("batch[k3]: {} work units / {k3_buffers} collision buffers", k3_units.len());
    for (engine_name, engine) in [("single_thread", &single), ("multi_thread", &multi)] {
        let name = format!("batch_decode_k3_{engine_name}/simd");
        c.bench_function(&name, |b| b.iter(|| decode_units(engine, &k3_units)));
        timings.push((name, c.last_ns));
    }
    // identity gates: thread counts agree, and the pipeline's k-way
    // zigzag deliveries equal the hand-driven executor's recoveries
    let k3_events = decode_units(&single, &k3_units);
    assert_eq!(
        k3_events,
        decode_units(&multi, &k3_units),
        "[k3] multi-threaded decode must be bit-identical to single-threaded"
    );
    let mut k3_delivered = 0usize;
    for (i, (events, expected)) in k3_events.iter().zip(k3_expected.iter()).enumerate() {
        let got: Vec<&Frame> = events
            .iter()
            .filter_map(|e| match e {
                ReceiverEvent::Delivered { frame, path: DecodePath::Zigzag } => Some(frame),
                _ => None,
            })
            .collect();
        assert_eq!(got.len(), expected.len(), "k3 unit {i}: pipeline/executor frame count");
        for f in expected {
            assert!(got.contains(&f), "k3 unit {i}: pipeline missed an executor-decoded frame");
        }
        k3_delivered += got.len();
    }
    println!(
        "k3: {k3_delivered} frames via the k-way store/match path, identical to the executor path"
    );
    // backend identity on the k=3 workload: the staged matcher's store,
    // footprint cache and early abandonment must not let the backends
    // diverge by a single decode event
    let (k3_scalar_units, _) = build_k3_units(BackendKind::Scalar);
    assert_eq!(
        k3_events,
        decode_units(&single, &k3_scalar_units),
        "[k3] scalar and simd kernel backends must produce identical decode events"
    );

    // --- shard workload: one AP, four disjoint client sets, sharded ---
    let (shard_registry, shard_stream) = build_shard_stream();
    // The multi-set stream runs the shared-AP config (windowed client-set
    // keys); the k3 identity check keeps the default config its units were
    // pre-screened with. Identity only needs both sides to agree.
    let run_single = |cfg: &DecoderConfig, registry: &ClientRegistry, stream: &[Vec<Complex>]| {
        let pipeline = Pipeline::standard();
        let mut core = ReceiverCore::new(cfg.clone(), registry.clone());
        stream.iter().map(|b| core.receive(&pipeline, b)).collect::<Vec<_>>()
    };
    let run_sharded =
        |cfg: &DecoderConfig, registry: &ClientRegistry, stream: &[Vec<Complex>], shards: usize| {
            let mut rx = ShardedReceiver::new(
                cfg.clone(),
                ShardConfig { shards, queue_depth: 8 },
                registry.clone(),
            );
            rx.process_batch(stream)
        };
    let shared_cfg = DecoderConfig::shared_ap();
    println!(
        "shard: {} buffers / {} client sets through one AP; {} shards",
        shard_stream.len(),
        SHARD_IDS.len(),
        multi.threads()
    );
    c.bench_function("shard_single_core", |b| {
        b.iter(|| run_single(&shared_cfg, &shard_registry, &shard_stream))
    });
    timings.push(("shard_single_core".into(), c.last_ns));
    c.bench_function("shard_sharded", |b| {
        b.iter(|| run_sharded(&shared_cfg, &shard_registry, &shard_stream, 0))
    });
    timings.push(("shard_sharded".into(), c.last_ns));

    // Identity gates: the sharded receiver's merged event stream equals
    // the single ReceiverCore's at 1, 2, and 4 shards — on the k=2
    // multi-set stream, and on the k=3 workload under BOTH kernel
    // backends (each k3 unit is one 3-client set; its buffers all route
    // to one shard — the degenerate case, which must still be exact).
    let shard_reference = run_single(&shared_cfg, &shard_registry, &shard_stream);
    for shards in [1, 2, 4] {
        assert_eq!(
            shard_reference,
            run_sharded(&shared_cfg, &shard_registry, &shard_stream, shards),
            "sharded decode at {shards} shards must be bit-identical to a single ReceiverCore"
        );
    }
    for unit in k3_units.iter().take(4).chain(k3_scalar_units.iter().take(4)) {
        let reference = run_single(&unit.cfg, &unit.registry, &unit.buffers);
        for shards in [1, 2, 4] {
            assert_eq!(
                reference,
                run_sharded(&unit.cfg, &unit.registry, &unit.buffers, shards),
                "[k3/{}] sharded decode at {shards} shards must be bit-identical",
                unit.cfg.backend.name()
            );
        }
    }
    let shard_delivered = shard_reference
        .iter()
        .flatten()
        .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
        .count();
    println!(
        "shard: {shard_delivered} frames delivered, identical across 1/2/4 shards and the single core"
    );

    // --- recovery workload: equal-offset collision groups (Δ₁ = Δ₂) ---
    // The stream the zigzag-only receiver provably cannot decode; the
    // algebraic batch-recovery path must decode ALL of it, identically
    // at 1/2/4 shards and on a single core.
    let (rec_registry, rec_stream) = build_recovery_stream();
    let rec_cfg = DecoderConfig {
        key_window: 1024,
        recovery: RecoveryConfig::robust(),
        ..DecoderConfig::default()
    };
    println!(
        "recovery: {} buffers / {} client sets of equal-offset collisions",
        rec_stream.len(),
        SHARD_IDS.len()
    );
    c.bench_function("recovery_single_core", |b| {
        b.iter(|| run_single(&rec_cfg, &rec_registry, &rec_stream))
    });
    timings.push(("recovery_single_core".into(), c.last_ns));

    // capability gate: zigzag-only delivers nothing from this stream
    let zigzag_only = run_single(&shared_cfg, &rec_registry, &rec_stream);
    let zigzag_only_delivered = zigzag_only
        .iter()
        .flatten()
        .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
        .count();
    assert_eq!(
        zigzag_only_delivered, 0,
        "the equal-offset stream must be undecodable without recovery"
    );
    // identity gates: recovered frames are CRC-gated, recovered-path-
    // tagged, and bit-identical across 1/2/4 shards
    let rec_reference = run_single(&rec_cfg, &rec_registry, &rec_stream);
    let recovery_delivered = rec_reference
        .iter()
        .flatten()
        .filter(|e| matches!(e, ReceiverEvent::Delivered { path: DecodePath::Recovered, .. }))
        .count();
    assert_eq!(
        recovery_delivered,
        rec_stream.len(),
        "every pre-screened group must recover both frames"
    );
    for shards in [1, 2, 4] {
        assert_eq!(
            rec_reference,
            run_sharded(&rec_cfg, &rec_registry, &rec_stream, shards),
            "recovery decode at {shards} shards must be bit-identical to a single ReceiverCore"
        );
    }
    println!(
        "recovery: {recovery_delivered} frames decoded that the zigzag-only pipeline cannot ({zigzag_only_delivered}), identical across 1/2/4 shards"
    );

    // --- soak workload: one continuous air through the stream front end ---
    // Sustained stream decode: collision bursts spliced into noise,
    // ingested chunk-by-chunk through `process_stream` with end-to-end
    // backpressure. Identity gate (never relaxed): the stream events must
    // be bit-identical to pre-cutting the air with `carve_buffer` and
    // batch-decoding the regions — across 1/2/4 shards, and at
    // queue_depth = 1 with backpressure engaged and zero drops.
    let soak_scenario = SetScenario {
        links: vec![
            LinkProfile::clean_with_omega(17.0, -0.13),
            LinkProfile::clean_with_omega(17.0, 0.14),
        ],
        p_sense: 0.0,
        seed: 7,
    };
    let soak_exp = ExperimentConfig { payload: 200, ..Default::default() };
    let soak_air = continuous_air(&soak_scenario, &soak_exp, 8, 5000);
    let stream_cfg = StreamConfig::default();
    let soak_regions =
        carve_buffer(&soak_air.samples, &shared_cfg, &soak_air.registry, &stream_cfg);
    assert_eq!(soak_regions.len(), soak_air.bursts, "gap > max_packet ⇒ one region per burst");
    let soak_buffers: Vec<Vec<Complex>> = soak_regions.iter().map(|r| r.samples.clone()).collect();
    let soak_precut = run_single(&shared_cfg, &soak_air.registry, &soak_buffers);
    println!(
        "soak: {} samples of continuous air, {} collision bursts",
        soak_air.samples.len(),
        soak_air.bursts
    );
    let run_stream = |shards: usize, depth: usize| {
        let mut rx = ShardedReceiver::new(
            shared_cfg.clone(),
            ShardConfig { shards, queue_depth: depth },
            soak_air.registry.clone(),
        );
        rx.process_stream(&stream_cfg, |src| {
            for chunk in soak_air.samples.chunks(4096) {
                src.push_samples(chunk);
            }
        })
    };
    for (shards, depth) in [(1, 8), (2, 8), (4, 8), (2, 1)] {
        let out = run_stream(shards, depth);
        assert_eq!(
            out.stats.samples,
            soak_air.samples.len() as u64,
            "soak[{shards}x{depth}]: every pushed sample must be accepted (zero drops)"
        );
        assert_eq!(
            out.events(),
            soak_precut,
            "soak[{shards}x{depth}]: stream events must be bit-identical to pre-cut decode"
        );
    }
    let mut soak_rx = ShardedReceiver::new(
        shared_cfg.clone(),
        ShardConfig { shards: 0, queue_depth: 8 },
        soak_air.registry.clone(),
    );
    c.bench_function("soak_stream", |b| {
        b.iter(|| {
            soak_rx.reset_history();
            soak_rx.process_stream(&stream_cfg, |src| {
                for chunk in soak_air.samples.chunks(4096) {
                    src.push_samples(chunk);
                }
            })
        })
    });
    timings.push(("soak_stream".into(), c.last_ns));
    let soak_ms = c.last_ns / 1e6;
    // telemetry from one representative run: p99 shard-queue latency and
    // backpressure counters
    soak_rx.reset_history();
    let soak_out = soak_rx.process_stream(&stream_cfg, |src| {
        for chunk in soak_air.samples.chunks(4096) {
            src.push_samples(chunk);
        }
    });
    let mut waits: Vec<u64> = soak_out.regions.iter().map(|r| r.queue_wait_ns).collect();
    waits.sort_unstable();
    let p99_wait_ns =
        waits.get((waits.len() * 99).div_ceil(100).saturating_sub(1)).copied().unwrap_or(0);
    let soak_samples_per_sec = soak_air.samples.len() as f64 / (soak_ms / 1e3);
    // The producer runs on this thread and segments inside its own
    // pushes, so `source_stalls` counts the pushes that blocked on a full
    // shard queue, and `ring_high_water` is the segmenter ring's peak,
    // at most `StreamConfig::ring_capacity` (one advance). Entries
    // recorded before the stream ran on one thread counted stalls on,
    // and the peak of, a separate 65,536-sample producer ring, so
    // compare neither across that change.
    println!(
        "soak: {:.1} buffers/s, {:.2} Msamples/s, p99 queue wait {:.1} us, source stalls {}, ring high water {}",
        soak_air.bursts as f64 / (soak_ms / 1e3),
        soak_samples_per_sec / 1e6,
        p99_wait_ns as f64 / 1e3,
        soak_out.stats.source_stalls,
        soak_out.stats.ring_high_water
    );

    // --- robustness sweep: §4.5 un-peelable groups on impaired links ---
    // Reclaim-fraction curve of the recovery solver over phase-noise
    // class × SNR × timing-drift points. Tracked in BENCH_throughput.json
    // so the robustness trajectory is visible across PRs.
    let sweep_points = [
        ImpairmentPoint { phase_noise: 0.0, snr_db: 17.0, sampling_drift: 0.0 },
        ImpairmentPoint {
            phase_noise: DEFAULT_PHASE_NOISE / 2.0,
            snr_db: 16.0,
            sampling_drift: DEFAULT_SAMPLING_DRIFT / 2.0,
        },
        ImpairmentPoint {
            phase_noise: DEFAULT_PHASE_NOISE,
            snr_db: 15.0,
            sampling_drift: DEFAULT_SAMPLING_DRIFT,
        },
        ImpairmentPoint {
            phase_noise: 2.0 * DEFAULT_PHASE_NOISE,
            snr_db: 13.0,
            sampling_drift: 2.0 * DEFAULT_SAMPLING_DRIFT,
        },
    ];
    const SWEEP_SEEDS: [u64; 3] = [41, 42, 43];
    const SWEEP_SENDERS: usize = 2;
    // reclaimed packets per point (of 36 offered) when the single-pass
    // solver was retired: the curve may rise, never fall
    const SWEEP_FLOOR: [usize; 4] = [8, 6, 6, 6];
    let sweep_cfg = ExperimentConfig {
        payload: 120,
        rounds: 6,
        decoder: DecoderConfig::with_recovery(),
        ..Default::default()
    };
    let curve =
        run_impairment_sweep(&multi, &sweep_points, SWEEP_SENDERS, &SWEEP_SEEDS, &sweep_cfg);
    for cell in &curve {
        println!(
            "robustness: phase_noise={:.3} snr={:.0}dB drift={:.1e}  reclaimed {}/{} ({:.2})",
            cell.point.phase_noise,
            cell.point.snr_db,
            cell.point.sampling_drift,
            cell.delivered,
            cell.offered,
            cell.fraction(),
        );
    }
    // capability gate (like the identity asserts, never relaxed): every
    // point reclaims at least its pinned count
    for (cell, floor) in curve.iter().zip(SWEEP_FLOOR) {
        assert!(
            cell.delivered >= floor,
            "recovery reclaimed fewer than the pinned {floor} packets: {cell:?}"
        );
    }

    // --- cell co-simulation: a million symbolic stations over one AP grid ---
    // The cell-scale MAC co-simulator (`zigzag_mac::cell`): arrivals,
    // sensing, backoff and clean receptions stay symbolic; a sampled
    // fraction of genuine collision episodes lowers to synthesized IQ and
    // decodes through this crate's receiver via the testbed's
    // `SignalResolver`. Identity gates (never relaxed): the run replays
    // bit-identically across decode thread counts, at least one collision
    // actually lowers, and lowered verdicts reach station retry state.
    const CELL_STATIONS: u32 = 1_000_000;
    const CELL_SLOTS: u64 = 10_000;
    let cell_preset = CellPreset::DcfHidden { cells: 8, groups_per_cell: 2 };
    let cell_cfg = cell_preset.config(CELL_STATIONS, CELL_SLOTS, 0.8, 2008);
    let cell_run = |threads: usize| {
        let mut signal = SignalResolver::with_seed(2008, threads);
        let mut split =
            SplitResolver::new(DecodeModel::zigzag_ap(2008), &mut signal, 0.05, 4, 2008);
        run_cell(&cell_cfg, &mut split)
    };
    println!("cell: {CELL_STATIONS} stations, {CELL_SLOTS} slots, DCF over 8 hidden-group cells");
    c.bench_function("cell_sim_1m_dcf", |b| b.iter(|| cell_run(0)));
    timings.push(("cell_sim_1m_dcf".into(), c.last_ns));
    let cell_ms = c.last_ns / 1e6;
    // the simulator's own cost: the same cell with every round resolved
    // by the symbolic model, nothing lowered
    c.bench_function("cell_sim_symbolic", |b| {
        b.iter(|| run_cell(&cell_cfg, &mut DecodeModel::zigzag_ap(2008)))
    });
    timings.push(("cell_sim_symbolic".into(), c.last_ns));
    // the simulator's unit of work is a trace event, most of them
    // carrier-sense deferrals: its cost per event tracks the event loop
    let symbolic = run_cell(&cell_cfg, &mut DecodeModel::zigzag_ap(2008)).stats;
    let ns_per_event = c.last_ns / symbolic.trace_events() as f64;
    let cell_multi = cell_run(0);
    let cell_single = cell_run(1);
    assert_eq!(
        cell_single.trace_hash, cell_multi.trace_hash,
        "the cell run must replay bit-identically across decode thread counts"
    );
    assert_eq!(cell_single.stats, cell_multi.stats);
    let cs = &cell_multi.stats;
    assert!(cs.lowered_rounds >= 1, "the run must lower at least one collision to IQ samples");
    assert!(
        cs.lowered_deliveries + cs.lowered_retries >= 1,
        "signal-level verdicts must be reflected in station delivery/retry state"
    );
    println!(
        "cell: {} tx starts, {} deferrals, widest collision k = {}; symbolic {:.1} ns per trace event",
        cs.tx_starts, cs.defers, cs.max_k, ns_per_event
    );
    println!(
        "cell: {} active stations, {} offered / {} delivered / {} dropped; {} collision rounds ({} lowered: {} deliveries, {} retries), {} reap recoveries; {:.2} Mslots/s",
        cs.stations_active,
        cs.offered_frames,
        cs.delivered_frames,
        cs.dropped_frames,
        cs.collision_rounds,
        cs.lowered_rounds,
        cs.lowered_deliveries,
        cs.lowered_retries,
        cs.recovered_frames,
        CELL_SLOTS as f64 / (cell_ms / 1e3) / 1e6
    );

    // --- ALOHA throughput curves: ZigZag AP vs conventional AP ---
    // Same MAC on both sides (arXiv:1501.00976's setting); the gap is the
    // AP's pair peeling + §4.1 reap. Gated below: the ZigZag curve must
    // strictly dominate plain slotted ALOHA from the saturation knee on.
    const CELL_LOADS: [f64; 4] = [0.2, 0.5, 0.9, 1.4];
    let zz_curve =
        symbolic_curve(CellPreset::ZigzagAloha { cells: 1 }, 3_000, 3_000, &CELL_LOADS, 77);
    let plain_curve =
        symbolic_curve(CellPreset::PlainAloha { cells: 1 }, 3_000, 3_000, &CELL_LOADS, 77);
    let knee = saturation_knee(&plain_curve);
    for (z, p) in zz_curve.iter().zip(&plain_curve) {
        println!(
            "cell aloha: offered {:.1}  zigzag {:.4}  plain {:.4}{}",
            z.offered,
            z.throughput,
            p.throughput,
            if (z.offered - plain_curve[knee].offered).abs() < 1e-9 {
                "  <- plain knee"
            } else {
                ""
            }
        );
    }

    let ns = |name: &str| timings.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
    let row_buffers = |name: &str| {
        if name.contains("_k3_") {
            k3_buffers
        } else if name.starts_with("shard_") {
            shard_stream.len()
        } else if name.starts_with("recovery_") {
            rec_stream.len()
        } else if name.starts_with("soak_") {
            soak_air.bursts
        } else if name.starts_with("cell_") {
            // for the cell run the natural unit is simulated slots
            CELL_SLOTS as usize
        } else {
            n_buffers
        }
    };
    for (name, v) in &timings {
        println!(
            "{name:<42} {:>8.1} ms ({:.1} buffers/s)",
            v / 1e6,
            row_buffers(name) as f64 / (v / 1e9)
        );
    }
    let thread_speedup =
        ns("batch_decode_single_thread/simd") / ns("batch_decode_multi_thread/simd");
    let simd_speedup =
        ns("batch_decode_single_thread/scalar") / ns("batch_decode_single_thread/simd");
    let combined = ns("batch_decode_single_thread/scalar") / ns("batch_decode_multi_thread/simd");
    let shard_speedup = ns("shard_single_core") / ns("shard_sharded");
    let k3_ms = ns("batch_decode_k3_single_thread/simd") / 1e6;
    let k3_speedup = K3_BASELINE_MS_SINGLE / k3_ms;
    println!(
        "speedups: threads {thread_speedup:.2}x, simd {simd_speedup:.2}x, combined {combined:.2}x, shard {shard_speedup:.2}x, k3-vs-exhaustive {k3_speedup:.1}x   frames delivered: {delivered} (identical across backends and thread counts)"
    );

    // JSON perf trajectory at the repo root.
    let mut s = String::from("{\n  \"bench\": \"throughput\",\n");
    let _ = writeln!(
        s,
        "  \"units\": {UNITS},\n  \"buffers\": {n_buffers},\n  \"threads\": {},\n  \"nproc\": {},",
        multi.threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(s, "  \"library_loc\": {},", library_loc());
    let _ = writeln!(s, "  \"frames_delivered\": {delivered},");
    s.push_str("  \"results\": [\n");
    for (i, (name, v)) in timings.iter().enumerate() {
        let comma = if i + 1 < timings.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"ms\": {:.2}, \"buffers_per_sec\": {:.1}}}{comma}",
            v / 1e6,
            row_buffers(name) as f64 / (v / 1e9)
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"k3\": {{\"units\": {}, \"buffers\": {k3_buffers}, \"frames_delivered\": {k3_delivered}, \"ms_single\": {:.2}, \"ms_multi\": {:.2}}},",
        k3_units.len(),
        ns("batch_decode_k3_single_thread/simd") / 1e6,
        ns("batch_decode_k3_multi_thread/simd") / 1e6
    );
    // perf trajectory of the k=3 matcher itself: the frozen pre-staged-
    // search baseline vs this run
    let _ = writeln!(s, "  \"k3_history\": [");
    let _ = writeln!(
        s,
        "    {{\"stage\": \"exhaustive-interp-matcher\", \"ms_single\": {K3_BASELINE_MS_SINGLE}, \"buffers_per_sec\": {K3_BASELINE_BUFFERS_PER_SEC}}},"
    );
    let _ = writeln!(
        s,
        "    {{\"stage\": \"staged-footprint-matcher\", \"ms_single\": {k3_ms:.2}, \"buffers_per_sec\": {:.1}, \"speedup\": {k3_speedup:.1}}}",
        k3_buffers as f64 / (k3_ms / 1e3)
    );
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"shard\": {{\"buffers\": {}, \"client_sets\": {}, \"shards\": {}, \"frames_delivered\": {shard_delivered}, \"ms_single_core\": {:.2}, \"ms_sharded\": {:.2}, \"speedup\": {shard_speedup:.2}}},",
        shard_stream.len(),
        SHARD_IDS.len(),
        multi.threads(),
        ns("shard_single_core") / 1e6,
        ns("shard_sharded") / 1e6
    );
    let _ = writeln!(
        s,
        "  \"recovery\": {{\"buffers\": {}, \"client_sets\": {}, \"frames_recovered\": {recovery_delivered}, \"zigzag_only_delivered\": {zigzag_only_delivered}, \"ms_single_core\": {:.2}}},",
        rec_stream.len(),
        SHARD_IDS.len(),
        ns("recovery_single_core") / 1e6
    );
    // `source_stalls` and `ring_high_water`: see the soak printout
    let _ = writeln!(
        s,
        "  \"soak\": {{\"samples\": {}, \"buffers\": {}, \"ms\": {soak_ms:.2}, \"buffers_per_sec\": {:.1}, \"msamples_per_sec\": {:.2}, \"p99_queue_wait_us\": {:.1}, \"source_stalls\": {}, \"ring_high_water\": {}, \"stream_equals_precut\": true}},",
        soak_air.samples.len(),
        soak_air.bursts,
        soak_air.bursts as f64 / (soak_ms / 1e3),
        soak_samples_per_sec / 1e6,
        p99_wait_ns as f64 / 1e3,
        soak_out.stats.source_stalls,
        soak_out.stats.ring_high_water
    );
    let _ = writeln!(
        s,
        "  \"robustness\": {{\"senders\": {SWEEP_SENDERS}, \"rounds\": {}, \"scenarios_per_point\": {}, \"curve\": [",
        sweep_cfg.rounds,
        SWEEP_SEEDS.len()
    );
    for (i, cell) in curve.iter().enumerate() {
        let comma = if i + 1 < curve.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"phase_noise\": {}, \"snr_db\": {}, \"sampling_drift\": {:.1e}, \"offered\": {}, \"reclaimed\": {}, \"fraction\": {:.3}}}{comma}",
            cell.point.phase_noise,
            cell.point.snr_db,
            cell.point.sampling_drift,
            cell.offered,
            cell.delivered,
            cell.fraction(),
        );
    }
    s.push_str("  ]},\n");
    let _ = writeln!(
        s,
        "  \"cell\": {{\"stations\": {CELL_STATIONS}, \"slots\": {CELL_SLOTS}, \"ms\": {cell_ms:.2}, \"mslots_per_sec\": {:.2}, \"stations_active\": {}, \"offered\": {}, \"delivered\": {}, \"collision_rounds\": {}, \"lowered_rounds\": {}, \"lowered_deliveries\": {}, \"lowered_retries\": {}, \"recovered_frames\": {}, \"tx_starts\": {}, \"defers\": {}, \"max_k\": {}, \"symbolic_ns_per_event\": {ns_per_event:.1}, \"aloha_curve\": [",
        CELL_SLOTS as f64 / (cell_ms / 1e3) / 1e6,
        cs.stations_active,
        cs.offered_frames,
        cs.delivered_frames,
        cs.collision_rounds,
        cs.lowered_rounds,
        cs.lowered_deliveries,
        cs.lowered_retries,
        cs.recovered_frames,
        cs.tx_starts,
        cs.defers,
        cs.max_k
    );
    for (i, (z, p)) in zz_curve.iter().zip(&plain_curve).enumerate() {
        let comma = if i + 1 < zz_curve.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"offered\": {:.1}, \"zigzag\": {:.4}, \"plain\": {:.4}}}{comma}",
            z.offered, z.throughput, p.throughput
        );
    }
    s.push_str("  ]},\n");
    let _ = writeln!(s, "  \"speedup_threads\": {thread_speedup:.2},");
    let _ = writeln!(s, "  \"speedup_backend_simd\": {simd_speedup:.2},");
    let _ = writeln!(s, "  \"speedup_shard\": {shard_speedup:.2},");
    let _ = writeln!(s, "  \"speedup_combined\": {combined:.2}");
    s.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    if let Err(e) = std::fs::write(path, &s) {
        eprintln!("could not write {path}: {e}");
    }
    println!("wrote BENCH_throughput.json");

    // Hard perf gates. `ZIGZAG_BENCH_RELAXED=1` (or `all`) relaxes every
    // perf gate (never the identity asserts above); `=threads` relaxes
    // only the machine-parallelism gates (thread/shard — SMT vCPUs and
    // noisy neighbors make wall-clock parallel speedup unreliable on
    // shared CI runners) while keeping the algorithmic gates: the
    // backend ratio is measured within this run, and the staged-matching
    // gate has ~4x headroom over its 5x bar even on slow runners.
    let relax = std::env::var("ZIGZAG_BENCH_RELAXED").unwrap_or_default();
    let relax_all = matches!(relax.as_str(), "1" | "all" | "true");
    let relax_machine = !relax.is_empty();
    if !relax_all {
        assert!(
            simd_speedup >= 1.2,
            "simd backend must measurably beat scalar end-to-end, got {simd_speedup:.2}x"
        );
        assert!(
            k3_speedup >= 5.0,
            "staged k-way matching must be >= 5x the exhaustive-interp baseline \
             ({K3_BASELINE_MS_SINGLE:.0} ms), got {k3_speedup:.2}x ({k3_ms:.0} ms)"
        );
        // robustness floor: recovery must reclaim a meaningful fraction
        // of the typical-link cell (measured 0.17 at landing); the pinned
        // counts above never relax
        assert!(
            curve[2].fraction() >= 0.15,
            "reclaim fraction at the typical phase-noise class fell below the floor: {:?}",
            curve[2]
        );
        // cell throughput-curve sanity: ZigZag-enhanced slotted ALOHA
        // must strictly dominate the plain baseline from the plain
        // curve's saturation knee on — the network-level payoff the
        // paper (and arXiv:1501.00976) promise from collision decoding
        for i in knee..zz_curve.len() {
            assert!(
                zz_curve[i].throughput > plain_curve[i].throughput,
                "ZigZag ALOHA must strictly beat plain at offered load {:.1} \
                 (got {:.4} vs {:.4})",
                zz_curve[i].offered,
                zz_curve[i].throughput,
                plain_curve[i].throughput
            );
        }
    }
    if !relax_machine && multi.threads() >= 4 {
        assert!(
            thread_speedup >= 2.0,
            "multi-threaded BatchEngine must be >= 2x single-threaded on {} threads, got {thread_speedup:.2}x",
            multi.threads()
        );
        assert!(
            shard_speedup >= 1.5,
            "ShardedReceiver must be >= 1.5x a single ReceiverCore on {} shards, got {shard_speedup:.2}x",
            multi.threads()
        );
    }
}

/// Non-test library lines: `.rs` files under `crates/*/src`, excluding
/// the offline stand-ins in `crates/compat` and the `src/bin` binaries,
/// each counted up to its first top-level `#[cfg(test)]` line (the test
/// module; an indented, item-level one does not end the count). Tracked
/// so deletions show up next to the perf numbers they must not move.
fn library_loc() -> usize {
    fn walk(dir: &std::path::Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "bin") {
                    walk(&path, total);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                *total += text.lines().take_while(|l| *l != "#[cfg(test)]").count();
            }
        }
    }
    let crates = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let mut total = 0;
    for entry in std::fs::read_dir(crates).expect("workspace crates dir").flatten() {
        if entry.file_name() != "compat" {
            walk(&entry.path().join("src"), &mut total);
        }
    }
    total
}

criterion_group!(benches, bench_batch_decode);
criterion_main!(benches);
