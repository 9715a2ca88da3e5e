//! `stream`: the access point's production path. Continuous air of
//! hidden-pair collision bursts is pushed by a saturating producer
//! through `ShardedReceiver::process_stream` (one shard, so two busy
//! threads: the segmenting caller thread and the decode worker). Each pass
//! decodes a fresh air drawn from the run's seed.

use crate::common::{paired, peak_rss_mb, secs, Bench, Deliveries, Offered};
use crate::layers::{finish_trace, Layers};
use crate::report::{median, percentile, samples_for, Metric, Report};
use crate::trace::{totals, unit_pipeline, Recorder};
use std::time::Instant;
use zigzag_channel::fading::LinkProfile;
use zigzag_core::config::{DecoderConfig, ShardConfig, StreamConfig};
use zigzag_core::engine::{unit_seed, Pipeline, ReceiverCore, ShardedReceiver};
use zigzag_core::stream::{carve_buffer, Segmenter, StreamOutcome};
use zigzag_core::ReceiverEvent;
use zigzag_phy::frame::Frame;
use zigzag_testbed::{continuous_air, ExperimentConfig, SetScenario, StreamAir};

/// Retransmission groups per air: two bursts and two frames each.
const GROUPS: usize = 32;
const PAYLOAD: usize = 200;
/// Noise between bursts; longer than `StreamConfig::max_packet`, so
/// every burst carves into a region of its own.
const GAP: usize = 5000;
/// Samples per producer push.
const CHUNK: usize = 4096;

fn scenario(seed: u64) -> SetScenario {
    SetScenario {
        links: vec![
            LinkProfile::clean_with_omega(17.0, -0.13),
            LinkProfile::clean_with_omega(17.0, 0.14),
        ],
        p_sense: 0.0,
        seed,
    }
}

/// Pass `k`'s air.
fn synth_air(seed: u64, k: usize) -> StreamAir {
    let exp = ExperimentConfig { payload: PAYLOAD, ..Default::default() };
    continuous_air(&scenario(unit_seed(seed, k)), &exp, GROUPS, GAP)
}

/// The frames `continuous_air` offers: group `g`'s senders 1 and 2 send
/// sequence number `g` with the testbed's per-`(src, seq)` payload seed.
fn offered() -> Offered {
    let mut offered = Offered::default();
    for g in 0..GROUPS as u16 {
        for src in 1..=2u16 {
            let payload_seed = (u64::from(src) << 32) | u64::from(g);
            offered.insert(Frame::with_random_payload(0, src, g, PAYLOAD, payload_seed));
        }
    }
    offered
}

fn receiver(air: &StreamAir, pipeline: Pipeline) -> ShardedReceiver {
    ShardedReceiver::with_pipeline(
        DecoderConfig::shared_ap(),
        ShardConfig { shards: 1, queue_depth: 8 },
        air.registry.clone(),
        pipeline,
    )
}

/// One pass over the whole air, from first push to last region decoded.
fn pass(rx: &mut ShardedReceiver, air: &StreamAir) -> (StreamOutcome, f64) {
    let start = Instant::now();
    let out = rx.process_stream(&StreamConfig::default(), |src| {
        for chunk in air.samples.chunks(CHUNK) {
            src.push_samples(chunk);
        }
    });
    (out, secs(start))
}

/// The gate reference: the same air cut by `carve_buffer` and decoded
/// region by region through one `ReceiverCore`.
fn precut_events(air: &StreamAir) -> Vec<Vec<ReceiverEvent>> {
    let cfg = DecoderConfig::shared_ap();
    let regions = carve_buffer(&air.samples, &cfg, &air.registry, &StreamConfig::default());
    let mut core = ReceiverCore::new(cfg, air.registry.clone());
    let pipeline = Pipeline::standard();
    regions.iter().map(|r| core.receive(&pipeline, &r.samples)).collect()
}

/// The untimed warm-up: decodes pass 0's air and gates it against the
/// pre-cut reference. Returns the events pass 0 must reproduce.
fn warm_up(seed: u64, pipeline: Pipeline, report: &mut Report) -> Vec<Vec<ReceiverEvent>> {
    let air = synth_air(seed, 0);
    let (first, _) = pass(&mut receiver(&air, pipeline), &air);
    let events = first.events();
    let same = events == precut_events(&air);
    let all_in = first.stats.samples == air.samples.len() as u64;
    report.notes.push(format!(
        "gate stream==precut on pass 0: {same} ({} regions, {}/{} samples accepted)",
        events.len(),
        first.stats.samples,
        air.samples.len()
    ));
    report.correct = same && all_in;
    events
}

/// Scores a pass's deliveries; events that differ from the warm-up on
/// pass 0, or frames that were never offered, fail their region.
fn check(
    k: usize,
    out: &StreamOutcome,
    first: &[Vec<ReceiverEvent>],
    offered: &Offered,
    report: &mut Report,
) -> Deliveries {
    report.attempted += out.regions.len() as u64;
    let d = offered.score(out.regions.iter().flat_map(|r| &r.events));
    report.failed += d.wrong;
    if k == 0 && out.events() != first {
        report.failed += out.regions.len() as u64;
    }
    d
}

pub fn e2e(bench: &Bench) -> Report {
    let mut report = Report::default();
    let rec = Recorder::new();
    let first = warm_up(bench.seed, unit_pipeline(&rec, false), &mut report);
    rec.take();
    let offered = offered();

    let (mut setup, mut latencies_ms) = (Vec::new(), Vec::new());
    let (mut samples, mut wall, mut deliveries) = (0u64, 0.0, Deliveries::default());
    for k in 0.. {
        if wall >= bench.seconds && latencies_ms.len() >= samples_for(0.9) {
            break;
        }
        let start = Instant::now();
        let air = synth_air(bench.seed, k);
        let mut rx = receiver(&air, unit_pipeline(&rec, false));
        setup.push(secs(start));
        let (out, dt) = pass(&mut rx, &air);
        deliveries.add(check(k, &out, &first, &offered, &mut report));
        wall += dt;
        samples += out.stats.samples;
        latencies_ms
            .extend(rec.take().iter().filter(|s| s.name == "unit").map(|s| s.ns() as f64 / 1e6));
    }
    let p50 = percentile(&latencies_ms, 0.5).expect("measured until p50 has its samples");
    let p90 = percentile(&latencies_ms, 0.9).expect("measured until p90 has its samples");
    report.correct &= report.failed == 0;
    report.notes.push(format!(
        "measured {} passes, {} regions in {wall:.2} s; delivered {}/{} intact, {} wrong",
        setup.len(),
        report.attempted,
        deliveries.delivered,
        deliveries.offered,
        deliveries.wrong
    ));
    report.metrics = vec![
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("throughput", "items/s", samples as f64 / wall),
        Metric::new("latency_p50_ms", "ms", p50),
        Metric::new("latency_p90_ms", "ms", p90),
        Metric::new("delivered_ratio", "ratio", deliveries.ratio()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    report
}

pub fn traced(bench: &Bench) -> Report {
    let mut report = Report::default();
    let mut layers = Layers::default();
    let (plain_rec, traced_rec) = (Recorder::new(), Recorder::new());
    let first = warm_up(bench.seed, unit_pipeline(&plain_rec, false), &mut report);
    plain_rec.take();
    let offered = offered();

    // each air is decoded untraced and traced, so drift hits both alike
    let (mut synth_ms, mut scan_ms, mut ratios) = (0.0, 0.0, Vec::new());
    let (mut traced_s, mut waits_ms) = (Vec::new(), Vec::new());
    let mut stats = [0.0f64; 6];
    let start = Instant::now();
    for k in 0.. {
        if secs(start) >= bench.seconds && waits_ms.len() >= samples_for(0.99) {
            break;
        }
        let t = Instant::now();
        let air = synth_air(bench.seed, k);
        synth_ms += secs(t) * 1e3;
        let ((plain, plain_dt), (out, dt)) = paired(
            k,
            || pass(&mut receiver(&air, unit_pipeline(&plain_rec, false)), &air),
            || pass(&mut receiver(&air, unit_pipeline(&traced_rec, true)), &air),
        );
        plain_rec.take();
        check(k, &out, &first, &offered, &mut report);
        if out.events() != plain.events() {
            report.failed += out.regions.len() as u64;
        }
        traced_s.push(dt);
        ratios.push(dt / plain_dt);
        waits_ms.extend(out.regions.iter().map(|r| r.queue_wait_ns as f64 / 1e6));
        let s = &out.stats;
        for (acc, v) in stats.iter_mut().zip([
            s.regions as f64,
            s.carved_samples as f64,
            s.source_stalls as f64,
            s.ring_high_water as f64,
            s.shard_stalls.iter().sum::<u64>() as f64,
            s.queue_high_water.iter().copied().max().unwrap_or(0) as f64,
        ]) {
            *acc += v;
        }
        scan_ms += scan(&air, &out, &mut report) * 1e3;
    }
    // one take, so parent indices stay valid across passes
    let spans = traced_rec.take();
    let passes = traced_s.len();
    let per_pass = |v: f64| v / passes as f64;
    report.correct &= report.failed == 0;
    report.notes.push(format!(
        "gate traced==untraced and standalone carve==stream carve: {} over {passes} airs",
        report.failed == 0
    ));

    let stage_ms = layers.set_stages(&spans, passes);
    let worker = totals(&spans, "unit");
    let worker_ms = per_pass(worker.busy_ns as f64) / 1e6;
    let wall_ms = per_pass(traced_s.iter().sum::<f64>()) * 1e3;
    layers.set("channel.synth_ms", per_pass(synth_ms));
    layers.set("stream.scan_busy_ms", per_pass(scan_ms));
    layers.set("engine.worker_busy_ms", worker_ms);
    layers.set("engine.worker_idle_ms", wall_ms - worker_ms);
    let wait_p50 = percentile(&waits_ms, 0.5).expect("measured until p50 has its samples");
    let wait_p99 = percentile(&waits_ms, 0.99).expect("measured until p99 has its samples");
    layers.set("engine.queue_wait_p50_ms", wait_p50);
    layers.set("engine.queue_wait_p99_ms", wait_p99);
    for (name, total) in [
        "stream.regions",
        "stream.carved_samples",
        "stream.source_stalls",
        "stream.ring_high_water",
        "engine.shard_stalls",
        "engine.queue_high_water",
    ]
    .into_iter()
    .zip(stats)
    {
        layers.set(name, per_pass(total));
    }
    layers.set("trace.overhead_pct", (median(&ratios) - 1.0) * 100.0);
    // the worker's self time: region spans not covered by a stage span
    layers.set("trace.unaccounted_pct", worker.self_ns as f64 / worker.busy_ns as f64 * 100.0);
    report.notes.push(format!(
        "accounting: stage busy {stage_ms:.1} ms of worker busy {worker_ms:.1} ms per pass; worker idle {:.1} ms of {wall_ms:.1} ms wall",
        wall_ms - worker_ms
    ));
    finish_trace(&mut report, layers, &spans, "stream", bench.seed);
    report
}

/// Times the front end alone — a `Segmenter` over the same air in the
/// same chunks — and fails the pass unless it carves what the stream did.
fn scan(air: &StreamAir, out: &StreamOutcome, report: &mut Report) -> f64 {
    let start = Instant::now();
    let mut seg =
        Segmenter::new(&DecoderConfig::shared_ap(), &air.registry, &StreamConfig::default());
    let mut regions = Vec::new();
    for chunk in air.samples.chunks(CHUNK) {
        seg.push(chunk, &mut regions);
    }
    seg.finish(&mut regions);
    let dt = secs(start);
    let same = regions.len() == out.regions.len()
        && regions
            .iter()
            .zip(&out.regions)
            .all(|(r, o)| r.start == o.start && r.samples.len() == o.len);
    if !same {
        report.failed += out.regions.len() as u64;
    }
    dt
}
