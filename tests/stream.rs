//! Streaming front-end integration tests: the determinism gate (the same
//! air decoded through the stream flowgraph and via pre-cut buffers must
//! yield bit-identical decode events, across kernel backends and shard
//! counts), collision regions that straddle detect-window boundaries,
//! chunking invariance, and end-to-end backpressure with zero drops.

use proptest::prelude::*;
use rand::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::noise::awgn_vec;
use zigzag::channel::scenario::hidden_pair;
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig, StreamConfig};
use zigzag::core::detect::detect_packets;
use zigzag::core::engine::{
    DecodeStage, Flow, Pipeline, ReceiverCore, Scratch, ShardedReceiver, UnitCtx,
};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::core::stream::{carve_buffer, CarvedRegion, Segmenter};
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::kernel::BackendKind;
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn air_frame(src: u16, seq: u16, len: usize, seed: u64) -> zigzag::phy::frame::AirFrame {
    let f = Frame::with_random_payload(0, src, seq, len, seed);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// One continuous stretch of air: hidden-pair collision buffers spliced
/// into unit-variance channel noise, plus the AP registry that hears it.
/// Gaps exceed `max_packet` so each collision carves into its own region.
struct Air {
    registry: ClientRegistry,
    samples: Vec<Complex>,
    collisions: usize,
    /// Stream index one past each spliced collision's last sample.
    ends: Vec<usize>,
}

/// Builds `pairs.len()` clean-link (17 dB) hidden pairs, Bob at `offset`
/// then `offset / 3`; see [`splice_pairs`].
fn build_air(pairs: &[([u16; 2], [f64; 2], usize, u64)], gap: usize) -> Air {
    let pairs: Vec<PairSpec> = pairs
        .iter()
        .map(|&(ids, omegas, offset, seed)| {
            let links = omegas.map(|w| LinkProfile::clean_with_omega(17.0, w));
            (ids, links, [offset, offset / 3], seed)
        })
        .collect();
    splice_pairs(&pairs, gap)
}

/// One hidden pair to splice: client ids, links, Bob's offsets
/// `[Δ₁, Δ₂]` and the seed of its frames and channel draws.
type PairSpec = ([u16; 2], [LinkProfile; 2], [usize; 2], u64);

/// Builds one hidden pair per [`PairSpec`]; each pair contributes its
/// two collisions (original + retransmission) to the stream in order.
fn splice_pairs(pairs: &[PairSpec], gap: usize) -> Air {
    let mut registry = ClientRegistry::new();
    let mut bufs: Vec<Vec<Complex>> = Vec::new();
    for (ids, links, [delta1, delta2], seed) in pairs {
        let (ids, seed) = (*ids, *seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for (i, l) in links.iter().enumerate() {
            registry.associate(
                ids[i],
                ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
            );
        }
        let a = air_frame(ids[0], seed as u16, 150, 60_000 + seed * 7);
        let b = air_frame(ids[1], seed as u16, 150, 61_000 + seed * 11);
        let hp = hidden_pair(&a, &b, &links[0], &links[1], *delta1, *delta2, &mut rng);
        bufs.push(hp.collision1.buffer);
        bufs.push(hp.collision2.buffer);
    }
    // round-robin the pairs' collisions into one arrival order
    let mut order: Vec<Vec<Complex>> = Vec::new();
    for round in 0..2 {
        for p in 0..pairs.len() {
            order.push(bufs[p * 2 + round].clone());
        }
    }
    let mut rng = StdRng::seed_from_u64(0xA1A);
    let mut samples = awgn_vec(&mut rng, gap, 1.0);
    let collisions = order.len();
    let mut ends = Vec::new();
    for buf in order {
        samples.extend_from_slice(&buf);
        ends.push(samples.len());
        samples.extend(awgn_vec(&mut rng, gap, 1.0));
    }
    Air { registry, samples, collisions, ends }
}

fn outcome_key(r: &zigzag::core::stream::RegionOutcome) -> (usize, usize, usize, &[ReceiverEvent]) {
    (r.seq, r.start, r.len, &r.events)
}

/// The tentpole gate: carve the air once, decode the pre-cut regions
/// through `process_batch`, then decode the same air through
/// `process_stream` at several shard counts and queue depths — regions
/// and events must be bit-identical, with every sample accounted for.
#[test]
fn stream_matches_precut_across_backends_and_shards() {
    let air = build_air(&[([1, 2], [-0.13, 0.14], 420, 0), ([3, 4], [-0.08, 0.02], 300, 1)], 5000);
    let scfg = StreamConfig::default();
    for backend in [BackendKind::Scalar, BackendKind::Simd] {
        let cfg = DecoderConfig { backend, ..DecoderConfig::shared_ap() };
        let regions = carve_buffer(&air.samples, &cfg, &air.registry, &scfg);
        assert_eq!(regions.len(), air.collisions, "one region per spliced collision ({backend:?})");

        // the receive_detected seam: the detections the scanner attached
        // must equal a from-scratch scan of the carved buffer
        for r in &regions {
            let mut ws = Scratch::with_backend(cfg.backend);
            let pre = Preamble::default_len();
            let rescan = detect_packets(&r.samples, &pre, &air.registry, &cfg, &mut ws);
            assert_eq!(
                rescan, r.detections,
                "attached detections diverge from re-scan (region {} {backend:?})",
                r.seq
            );
        }

        let buffers: Vec<Vec<Complex>> = regions.iter().map(|r| r.samples.clone()).collect();
        let mut precut_rx = ShardedReceiver::new(
            cfg.clone(),
            ShardConfig { shards: 1, queue_depth: 4 },
            air.registry.clone(),
        );
        let precut = precut_rx.process_batch(&buffers);
        let delivered = precut
            .iter()
            .flatten()
            .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
            .count();
        assert!(delivered >= 4, "both pairs must resolve through the carve: {delivered}");

        for (shards, depth) in [(1, 1), (2, 1), (4, 1), (2, 4)] {
            let mut rx = ShardedReceiver::new(
                cfg.clone(),
                ShardConfig { shards, queue_depth: depth },
                air.registry.clone(),
            );
            let out = rx.process_stream(&scfg, |src| {
                for chunk in air.samples.chunks(1234) {
                    src.push_samples(chunk);
                }
            });
            assert_eq!(out.stats.samples, air.samples.len() as u64, "no sample may be dropped");
            assert_eq!(out.regions.len(), regions.len(), "{backend:?} {shards}x{depth}");
            for (got, want) in out.regions.iter().zip(&regions) {
                assert_eq!(
                    (got.seq, got.start, got.len),
                    (want.seq, want.start, want.samples.len()),
                    "region geometry diverged ({backend:?} shards {shards} depth {depth})"
                );
            }
            let events: Vec<Vec<ReceiverEvent>> = out.events();
            assert_eq!(
                events, precut,
                "stream events diverged from pre-cut ({backend:?} shards {shards} depth {depth})"
            );
        }
    }
}

/// A collision whose second packet starts in a later detect window must
/// land in one region and decode identically to the pre-cut buffer.
#[test]
fn collision_straddling_a_window_boundary_decodes_identically() {
    // window 512 ≪ Δ = 700: the second packet's preamble spike commits
    // two windows after the first packet's
    let air = build_air(&[([1, 2], [-0.13, 0.14], 700, 2)], 5000);
    let scfg = StreamConfig { window: 512, ..StreamConfig::default() };
    let cfg = DecoderConfig::shared_ap();
    let regions = carve_buffer(&air.samples, &cfg, &air.registry, &scfg);
    assert_eq!(regions.len(), air.collisions);
    for r in &regions {
        assert!(
            r.detections.len() >= 2,
            "run-spanning detections must stay in one region: {:?}",
            r.detections
        );
    }
    // the first collision's Δ = 700 > 512: its second packet commits two
    // detect windows after the first, yet stays in one region
    let delta = regions[0].detections[1].pos - regions[0].detections[0].pos;
    assert!(delta > scfg.window, "Δ = {delta} must straddle the {} window", scfg.window);
    // wide-window carve is identical: the commit grid must not leak into
    // region shapes
    let wide = carve_buffer(&air.samples, &cfg, &air.registry, &StreamConfig::default());
    assert_eq!(regions, wide, "region geometry must be window-size invariant");

    let buffers: Vec<Vec<Complex>> = regions.iter().map(|r| r.samples.clone()).collect();
    let mut precut_rx = ShardedReceiver::new(
        cfg.clone(),
        ShardConfig { shards: 1, queue_depth: 4 },
        air.registry.clone(),
    );
    let precut = precut_rx.process_batch(&buffers);
    let mut rx =
        ShardedReceiver::new(cfg, ShardConfig { shards: 2, queue_depth: 2 }, air.registry.clone());
    let out = rx.process_stream(&scfg, |src| {
        for chunk in air.samples.chunks(497) {
            src.push_samples(chunk);
        }
    });
    assert_eq!(out.events(), precut);
    let delivered = out
        .regions
        .iter()
        .flat_map(|r| &r.events)
        .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
        .count();
    assert_eq!(delivered, 2, "the straddling pair must fully resolve");
}

/// The synchronous single-core path — carve the air in one shot, then
/// decode each region on one `ReceiverCore` with its attached
/// detections — must produce the same regions and events as the
/// threaded sharded driver.
#[test]
fn sync_process_air_matches_threaded_stream() {
    let air = build_air(&[([1, 2], [-0.13, 0.14], 420, 3)], 5000);
    let cfg = DecoderConfig::shared_ap();
    let scfg = StreamConfig::default();
    let mut sync_rx = ReceiverCore::new(cfg.clone(), air.registry.clone());
    let pipeline = Pipeline::standard();
    let sync_out: Vec<_> = carve_buffer(&air.samples, &cfg, &air.registry, &scfg)
        .into_iter()
        .map(|r| {
            let events = sync_rx.receive_detected(&pipeline, &r.samples, r.detections);
            (r.seq, r.start, r.samples.len(), events)
        })
        .collect();
    let mut rx =
        ShardedReceiver::new(cfg, ShardConfig { shards: 2, queue_depth: 1 }, air.registry.clone());
    let out = rx.process_stream(&scfg, |src| src.push_samples(&air.samples));
    assert_eq!(
        sync_out
            .iter()
            .map(|(seq, start, len, ev)| (*seq, *start, *len, &ev[..]))
            .collect::<Vec<_>>(),
        out.regions.iter().map(outcome_key).collect::<Vec<_>>(),
    );
}

/// Capture-band air: `groups` hidden pairs of the same two clients 10 dB
/// apart at growing offsets, so every collision is a capture candidate
/// and each group's weak frame collides twice (a weak decode that fails
/// its CRC leaves a faulty version for the MRC retry). `typical` draws
/// impaired links at 24/12 dB, as `mixed`'s capture class does, where
/// capture delivers; otherwise the links are clean at 22/14 dB, where
/// interference cancellation also delivers.
fn capture_air(typical: bool, groups: usize, seed: u64) -> Air {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = if typical {
        [24.0, 12.0].map(|snr| LinkProfile::typical(snr, &mut rng))
    } else {
        [LinkProfile::clean_with_omega(22.0, -0.13), LinkProfile::clean_with_omega(14.0, 0.14)]
    };
    let pairs: Vec<_> = (0..groups)
        .map(|g| ([1, 2], links.clone(), [200 + 30 * g, 60 + 20 * g], seed * 10 + g as u64))
        .collect();
    splice_pairs(&pairs, 5000)
}

/// Holds the first region a pipeline decodes for [`HOLD`]: its shard
/// worker falls behind the segmenting thread, which then prepares the
/// capture attempts of the regions queued behind it. Capture-band
/// regions decode faster than the segmenting thread scans the air
/// between them, so without the hold no attempt would be prepared.
struct HoldFirst(AtomicBool);

/// How long [`HoldFirst`] holds its region.
const HOLD: Duration = Duration::from_millis(200);

impl DecodeStage for HoldFirst {
    fn name(&self) -> &'static str {
        "hold-first"
    }

    fn run(&self, _: &mut ReceiverCore, _: &mut UnitCtx<'_>, _: &mut Vec<ReceiverEvent>) -> Flow {
        if !self.0.swap(true, Ordering::Relaxed) {
            std::thread::sleep(HOLD);
        }
        Flow::Continue
    }
}

/// The prepared-capture identity where capture succeeds: capture-band
/// air through `process_stream`, whose segmenting thread prepares a
/// region's capture attempt whenever the region's shard has a job
/// waiting, must equal the same air cut by `carve_buffer` and decoded
/// region by region through one inline `ReceiverCore`, at queue depth 1
/// and 8 and at 1 and 2 shards. Capture and interference cancellation
/// must both deliver, and at depth 8 the segmenting thread must have
/// prepared attempts (the first region is held, see [`HoldFirst`]), so
/// the identity is not vacuous. Which regions get a prepared attempt
/// depends on thread timing; the unit test
/// `engine::stage::tests::prepared_attempt_equals_inline_capture` pins
/// the prepared path on every region.
#[test]
fn prepared_capture_matches_inline_capture_in_the_capture_band() {
    let cfg = DecoderConfig::shared_ap();
    let scfg = StreamConfig::default();
    let mut delivered = Vec::new();
    for air in [capture_air(true, 4, 2), capture_air(false, 4, 0)] {
        let regions = carve_buffer(&air.samples, &cfg, &air.registry, &scfg);
        assert_eq!(regions.len(), air.collisions, "one region per spliced collision");
        let mut core = ReceiverCore::new(cfg.clone(), air.registry.clone());
        let inline: Vec<Vec<ReceiverEvent>> =
            regions.iter().map(|r| core.process(&r.samples)).collect();
        for (shards, depth) in [(1, 1), (1, 8), (2, 1), (2, 8)] {
            let mut pipeline = Pipeline::standard();
            pipeline.insert(0, Box::new(HoldFirst(AtomicBool::new(false))));
            let mut rx = ShardedReceiver::with_pipeline(
                cfg.clone(),
                ShardConfig { shards, queue_depth: depth },
                air.registry.clone(),
                pipeline,
            );
            let out = rx.process_stream(&scfg, |src| {
                for chunk in air.samples.chunks(4096) {
                    src.push_samples(chunk);
                }
            });
            assert_eq!(out.stats.samples, air.samples.len() as u64, "{shards}x{depth}: drops");
            assert_eq!(out.events(), inline, "{shards}x{depth}: prepared capture diverged");
            if depth > 2 {
                // regions 3.. queue behind the held one
                assert!(out.stats.capture_attempts > 0, "{shards}x{depth}: nothing prepared");
            }
        }
        delivered.extend(inline.into_iter().flatten().filter_map(|e| match e {
            ReceiverEvent::Delivered { path, .. } => Some(path),
            _ => None,
        }));
    }
    for path in [DecodePath::Capture, DecodePath::InterferenceCancellation] {
        assert!(delivered.contains(&path), "no {path:?} delivery: {delivered:?}");
    }
}

/// Backpressure with the smallest possible buffers: queue depth 1 and
/// the segmenter's one-advance ring. A slow shard must throttle the
/// source end-to-end — bounded memory, zero drops, events unchanged.
#[test]
fn depth_one_backpressure_never_drops_a_sample() {
    let air = build_air(&[([1, 2], [-0.13, 0.14], 420, 4), ([3, 4], [-0.08, 0.02], 300, 5)], 5000);
    let cfg = DecoderConfig::shared_ap();
    // window 1024 keeps the one-advance ring (~1.2k samples) far
    // smaller than the ~37k-sample air
    let scfg = StreamConfig { window: 1024, ..StreamConfig::default() };
    let l = Preamble::default_len().len();
    let regions = carve_buffer(&air.samples, &cfg, &air.registry, &scfg);
    let buffers: Vec<Vec<Complex>> = regions.iter().map(|r| r.samples.clone()).collect();
    let mut precut_rx = ShardedReceiver::new(
        cfg.clone(),
        ShardConfig { shards: 1, queue_depth: 4 },
        air.registry.clone(),
    );
    let precut = precut_rx.process_batch(&buffers);

    let mut rx =
        ShardedReceiver::new(cfg, ShardConfig { shards: 2, queue_depth: 1 }, air.registry.clone());
    let out = rx.process_stream(&scfg, |src| {
        for chunk in air.samples.chunks(777) {
            src.push_samples(chunk);
        }
    });
    assert_eq!(out.stats.samples, air.samples.len() as u64, "zero drops under backpressure");
    assert_eq!(out.stats.regions, regions.len());
    assert_eq!(out.events(), precut, "backpressure must change pacing, never events");
    assert!(
        out.stats.ring_high_water <= scfg.ring_capacity(l),
        "ring must stay bounded: {} > {}",
        out.stats.ring_high_water,
        scfg.ring_capacity(l)
    );
    // per-shard queue telemetry: one entry per shard, bounded by the depth
    assert_eq!(out.stats.shard_stalls.len(), rx.shards());
    assert_eq!(out.stats.queue_high_water.len(), rx.shards());
    for &hw in &out.stats.queue_high_water {
        assert!(hw <= 1, "depth-1 queues can never exceed one entry: {hw}");
    }
}

/// A decode panic on a shard worker must unwind out of
/// `process_stream` at the smallest queue depth, not leave the
/// producer's push blocked on the dead worker's full queue.
#[test]
fn worker_panic_in_a_stream_propagates_instead_of_hanging() {
    struct PanicStage;
    impl DecodeStage for PanicStage {
        fn name(&self) -> &'static str {
            "panic"
        }
        fn run(
            &self,
            _: &mut ReceiverCore,
            _: &mut UnitCtx<'_>,
            _: &mut Vec<ReceiverEvent>,
        ) -> Flow {
            panic!("injected decode failure");
        }
    }
    let air = build_air(&[([1, 2], [-0.13, 0.14], 420, 4), ([3, 4], [-0.08, 0.02], 300, 5)], 5000);
    let scfg = StreamConfig { window: 1024, ..StreamConfig::default() };
    let mut rx = ShardedReceiver::with_pipeline(
        DecoderConfig::shared_ap(),
        ShardConfig { shards: 2, queue_depth: 1 },
        air.registry.clone(),
        Pipeline::from_stages(vec![Box::new(PanicStage)]),
    );
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rx.process_stream(&scfg, |src| {
            for chunk in air.samples.chunks(777) {
                src.push_samples(chunk);
            }
        })
    }));
    assert!(run.is_err(), "worker panic must propagate, not deadlock");
}

/// A producer that panics mid-stream must unwind out of
/// `process_stream`: the producer runs on the caller's thread, so the
/// guard that closes the shard queues as that thread unwinds is what
/// lets the workers drain and exit instead of waiting for regions
/// that will never come.
#[test]
fn producer_panic_in_a_stream_propagates_instead_of_hanging() {
    let air = build_air(&[([1, 2], [-0.13, 0.14], 420, 4), ([3, 4], [-0.08, 0.02], 300, 5)], 5000);
    let first_region_end = air.ends[0] + StreamConfig::default().max_packet;
    let mut rx = ShardedReceiver::new(
        DecoderConfig::shared_ap(),
        ShardConfig { shards: 2, queue_depth: 1 },
        air.registry.clone(),
    );
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        rx.process_stream(&StreamConfig::default(), |src| {
            // past the first region, so a worker holds a job when the
            // producer dies
            for chunk in air.samples[..first_region_end + 8192].chunks(777) {
                src.push_samples(chunk);
            }
            panic!("injected producer failure");
        })
    }));
    assert!(run.is_err(), "producer panic must propagate, not deadlock");
}

/// A burst of non-finite samples (a glitching front end) in the quiet
/// gap between two carved regions must not touch them: a non-finite
/// correlation is never a spike, so both the pre-cut carve and the
/// stream carve equal the clean air's, the events are the clean air's,
/// and nothing is stored for the burst. Without the rule, the windows
/// holding the burst produced spurious detections that extended the
/// first region over the second collision, and the merged region was
/// rejected whole.
#[test]
fn non_finite_burst_in_a_gap_leaves_regions_and_events_unchanged() {
    let clean = build_air(&[([1, 2], [-0.13, 0.14], 420, 0)], 5000);
    let cfg = DecoderConfig::shared_ap();
    let scfg = StreamConfig::default();
    let shard = ShardConfig { shards: 2, queue_depth: 2 };
    let decode = |samples: &[Complex]| {
        let mut rx = ShardedReceiver::new(cfg.clone(), shard, clean.registry.clone());
        let out = rx.process_stream(&scfg, |src| {
            for chunk in samples.chunks(1500) {
                src.push_samples(chunk);
            }
        });
        let key: Vec<_> = out.regions.iter().map(|r| (r.seq, r.start, r.len)).collect();
        (key, out.events(), rx.stored_collisions())
    };
    let want_regions = carve_buffer(&clean.samples, &cfg, &clean.registry, &scfg);
    assert_eq!(want_regions.len(), clean.collisions, "one region per collision");
    let want = decode(&clean.samples);
    assert!(want.1[0].contains(&ReceiverEvent::CollisionStored), "{:?}", want.1);
    let delivered =
        want.1.iter().flatten().filter(|e| matches!(e, ReceiverEvent::Delivered { .. })).count();
    assert_eq!(delivered, 2, "the clean air delivers both frames");

    // the quiet air between the two regions, not just between the two
    // collisions: a region runs `max_packet` past its last spike
    let (first, second) = (&want_regions[0], &want_regions[1]);
    let gap = first.start + first.samples.len()..second.start;
    assert!(gap.start > clean.ends[0] && gap.len() > 1500 + 2 * 64, "gap {gap:?}");
    for value in [f64::NAN, f64::INFINITY] {
        for burst in [1, 64, 1500] {
            let at = (gap.start + gap.end - burst) / 2;
            let mut samples = clean.samples.clone();
            samples[at..at + burst].fill(Complex::new(value, value));
            let regions = carve_buffer(&samples, &cfg, &clean.registry, &scfg);
            assert_eq!(regions, want_regions, "pre-cut carve moved ({value} × {burst})");
            assert_eq!(decode(&samples), want, "stream decode moved ({value} × {burst})");
        }
    }
}

/// Shared fixture for the chunking proptest: one air, carved once.
fn chunking_fixture() -> &'static (DecoderConfig, Air, StreamConfig, Vec<CarvedRegion>) {
    static FIXTURE: OnceLock<(DecoderConfig, Air, StreamConfig, Vec<CarvedRegion>)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let air = build_air(&[([1, 2], [-0.13, 0.14], 420, 6)], 4500);
        let cfg = DecoderConfig::shared_ap();
        let scfg = StreamConfig { window: 1024, ..StreamConfig::default() };
        let regions = carve_buffer(&air.samples, &cfg, &air.registry, &scfg);
        assert!(!regions.is_empty());
        (cfg, air, scfg, regions)
    })
}

proptest! {
    /// Push chunking is invisible: any sequence of chunk sizes fed to the
    /// segmenter yields exactly the one-shot carve — same sample bytes,
    /// same detections, same region geometry.
    #[test]
    fn carve_is_invariant_to_push_chunking(sizes in collection::vec(1usize..4000, 1..24)) {
        let (cfg, air, scfg, reference) = chunking_fixture();
        let mut seg = Segmenter::new(cfg, &air.registry, scfg);
        let mut out = Vec::new();
        let (mut fed, mut i) = (0, 0);
        while fed < air.samples.len() {
            let n = sizes[i % sizes.len()].min(air.samples.len() - fed);
            seg.push(&air.samples[fed..fed + n], &mut out);
            fed += n;
            i += 1;
        }
        seg.finish(&mut out);
        prop_assert_eq!(&out, reference);
    }
}
