//! `mixed`: the same decode stages driven differently. One caller, closed
//! loop, feeds pre-cut collision buffers from independent hidden pairs,
//! each pair to its own `ReceiverCore`. Three classes at 2:5:1 — a power
//! differential where capture can succeed, typical-link pairs ZigZag
//! peels, and equal offsets (Δ₁ = Δ₂) that only algebraic recovery
//! decodes.
//! The stream front end is bypassed. Each pass decodes fresh pairs drawn
//! from the run's seed.

use crate::common::{paired, peak_rss_mb, secs, Bench, Deliveries, Offered};
use crate::layers::{finish_trace, Layers};
use crate::report::{median, percentile, samples_for, Metric, Report};
use crate::trace::{totals, unit_pipeline, Recorder};
use rand::prelude::*;
use std::time::Instant;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::hidden_pair;
use zigzag_core::config::{ClientRegistry, DecoderConfig, RecoveryConfig};
use zigzag_core::engine::{unit_seed, Pipeline, ReceiverCore};
use zigzag_core::ReceiverEvent;
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

/// Hidden pairs per pass, a multiple of the eight-pair class cycle: two
/// collision buffers and two frames each.
const GROUPS: usize = 64;
const PAYLOAD: usize = 100;

/// One hidden pair: its registry, both collisions, and what it offered.
struct Group {
    registry: ClientRegistry,
    buffers: [Vec<Complex>; 2],
    offered: Offered,
}

fn config() -> DecoderConfig {
    DecoderConfig {
        key_window: 1024,
        recovery: RecoveryConfig::robust(),
        ..DecoderConfig::default()
    }
}

fn group(seed: u64, i: usize) -> Group {
    let mut rng = StdRng::seed_from_u64(unit_seed(seed, i));
    let (d1, d2) = (200 + 10 * (i % 12), 60 + 10 * (i % 5));
    // Per eight pairs: two in the capture band, five zigzag, one Δ₁ = Δ₂.
    // One Δ₁ = Δ₂ pair costs 1–300 ms against a few ms for the others,
    // so at this mix recovery does about half the work while its slow
    // buffers stay under 5% of all buffers: p90 then falls inside the
    // dense zigzag cluster instead of on the gap between the two.
    let (la, lb, d1, d2) = match i % 8 {
        0 | 4 => {
            (LinkProfile::typical(24.0, &mut rng), LinkProfile::typical(12.0, &mut rng), d1, d2)
        }
        7 => {
            let d = 280 + 20 * (i % 3);
            (
                LinkProfile::clean_with_omega(17.0, -0.13),
                LinkProfile::clean_with_omega(17.0, 0.14),
                d,
                d,
            )
        }
        _ => (LinkProfile::typical(16.0, &mut rng), LinkProfile::typical(16.0, &mut rng), d1, d2),
    };
    let seq = i as u16;
    let frames: [Frame; 2] = [1u16, 2].map(|src| {
        Frame::with_random_payload(0, src, seq, PAYLOAD, unit_seed(seed ^ u64::from(src), i))
    });
    let [a, b] =
        [0, 1].map(|k| encode_frame(&frames[k], Modulation::Bpsk, &Preamble::default_len()));
    let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
    let mut offered = Offered::default();
    for f in frames {
        offered.insert(f);
    }
    Group {
        registry: zigzag_testbed::registry_for(&[(1, &la), (2, &lb)]),
        buffers: [hp.collision1.buffer, hp.collision2.buffer],
        offered,
    }
}

/// Pass `k`'s pairs, each with a fresh receiver.
fn setup(seed: u64, k: usize) -> (Vec<Group>, Vec<ReceiverCore>) {
    let batch = unit_seed(seed, k);
    let groups: Vec<Group> = (0..GROUPS).map(|i| group(batch, i)).collect();
    let cores = groups.iter().map(|g| ReceiverCore::new(config(), g.registry.clone())).collect();
    (groups, cores)
}

/// One pass: every pair's two buffers through its own core. Returns
/// per-buffer events, per-buffer `receive` seconds, and the receive
/// loop's wall time.
fn pass(
    groups: &[Group],
    cores: &mut [ReceiverCore],
    pipeline: &Pipeline,
) -> (Vec<Vec<ReceiverEvent>>, Vec<f64>, f64) {
    let mut events = Vec::with_capacity(2 * groups.len());
    let mut latencies = Vec::with_capacity(2 * groups.len());
    let start = Instant::now();
    for (group, core) in groups.iter().zip(cores.iter_mut()) {
        for buffer in &group.buffers {
            let t = Instant::now();
            events.push(core.receive(pipeline, buffer));
            latencies.push(secs(t));
        }
    }
    (events, latencies, secs(start))
}

/// Scores a pass's deliveries against each pair's offered frames;
/// frames never offered fail their buffer, and so does every buffer of
/// pass 0 whose events differ from the warm-up's.
fn check(
    k: usize,
    groups: &[Group],
    events: &[Vec<ReceiverEvent>],
    first: &[Vec<ReceiverEvent>],
    report: &mut Report,
) -> Deliveries {
    let mut d = Deliveries::default();
    for (group, ev) in groups.iter().zip(events.chunks(2)) {
        d.add(group.offered.score(ev.iter().flatten()));
    }
    report.attempted += events.len() as u64;
    report.failed += d.wrong;
    if k == 0 {
        report.failed += count_differing(events, first);
    }
    d
}

fn count_differing(events: &[Vec<ReceiverEvent>], reference: &[Vec<ReceiverEvent>]) -> u64 {
    let differ = events.iter().zip(reference).filter(|(a, b)| a != b).count();
    (differ + events.len().abs_diff(reference.len())) as u64
}

/// The untimed warm-up on pass 0's pairs; returns the events pass 0
/// must reproduce.
fn warm_up(seed: u64) -> Vec<Vec<ReceiverEvent>> {
    let (groups, mut cores) = setup(seed, 0);
    pass(&groups, &mut cores, &Pipeline::standard()).0
}

pub fn e2e(bench: &Bench) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let first = warm_up(bench.seed);
    let pipeline = Pipeline::standard();
    let (mut setup_s, mut latencies_ms) = (Vec::new(), Vec::new());
    let (mut wall, mut deliveries) = (0.0, Deliveries::default());
    for k in 0.. {
        if wall >= bench.seconds && latencies_ms.len() >= samples_for(0.9) {
            break;
        }
        let start = Instant::now();
        let (groups, mut cores) = setup(bench.seed, k);
        setup_s.push(secs(start));
        let (events, lat, dt) = pass(&groups, &mut cores, &pipeline);
        deliveries.add(check(k, &groups, &events, &first, &mut report));
        wall += dt;
        latencies_ms.extend(lat.iter().map(|s| s * 1e3));
    }
    let p50 = percentile(&latencies_ms, 0.5).expect("measured until p50 has its samples");
    let p90 = percentile(&latencies_ms, 0.9).expect("measured until p90 has its samples");
    report.correct &= report.failed == 0;
    report.notes.push(format!(
        "gate pass 0 == warm-up, delivered frames offered: {}; measured {} passes, {} buffers in {wall:.2} s; delivered {}/{}",
        report.failed == 0,
        setup_s.len(),
        report.attempted,
        deliveries.delivered,
        deliveries.offered
    ));
    report.metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("throughput", "items/s", report.attempted as f64 / wall),
        Metric::new("latency_p50_ms", "ms", p50),
        Metric::new("latency_p90_ms", "ms", p90),
        Metric::new("delivered_ratio", "ratio", deliveries.ratio()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    report
}

pub fn traced(bench: &Bench) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let mut layers = Layers::default();
    let first = warm_up(bench.seed);
    let plain = Pipeline::standard();
    let rec = Recorder::new();
    let traced = unit_pipeline(&rec, true);

    // each batch is decoded untraced and traced, so drift hits both alike
    let (mut synth_ms, mut loop_s, mut ratios) = (0.0, 0.0, Vec::new());
    let start = Instant::now();
    for k in 0.. {
        if secs(start) >= bench.seconds {
            break;
        }
        let t = Instant::now();
        let (groups, mut cores) = setup(bench.seed, k);
        synth_ms += secs(t) * 1e3;
        let mut traced_cores: Vec<ReceiverCore> =
            groups.iter().map(|g| ReceiverCore::new(config(), g.registry.clone())).collect();
        let ((plain_events, _, plain_dt), (events, lat, dt)) = paired(
            k,
            || pass(&groups, &mut cores, &plain),
            || pass(&groups, &mut traced_cores, &traced),
        );
        check(k, &groups, &events, &first, &mut report);
        report.failed += count_differing(&events, &plain_events);
        ratios.push(dt / plain_dt);
        loop_s += lat.iter().sum::<f64>();
    }
    // one take, so parent indices stay valid across passes
    let spans = rec.take();
    let passes = ratios.len();
    report.correct &= report.failed == 0;
    report
        .notes
        .push(format!("gate traced==untraced: {} over {passes} batches", report.failed == 0));
    let stage_ms = layers.set_stages(&spans, passes);
    let loop_ms = loop_s / passes as f64 * 1e3;
    let unit_ms = totals(&spans, "unit").busy_ns as f64 / passes as f64 / 1e6;
    layers.set("channel.synth_ms", synth_ms / passes as f64);
    layers.set("trace.overhead_pct", (median(&ratios) - 1.0) * 100.0);
    layers.set("trace.unaccounted_pct", (loop_ms - stage_ms) / loop_ms * 100.0);
    report.notes.push(format!(
        "accounting: stage busy {stage_ms:.1} ms of receive loop {loop_ms:.1} ms per pass (buffer spans {unit_ms:.1} ms)"
    ));
    finish_trace(&mut report, layers, &spans, "mixed", bench.seed);
    report
}
