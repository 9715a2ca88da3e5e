//! `cell`: the MAC co-simulation. A million DCF stations over eight
//! two-group hidden-terminal cells; 5% of collision episodes are lowered
//! to synthesized IQ and decoded by the real receiver (one decode
//! thread), the rest are resolved by the symbolic model. Each pass
//! simulates a fresh cell drawn from the run's seed.

use crate::common::{paired, peak_rss_mb, secs, Bench};
use crate::layers::{finish_trace, Layers};
use crate::report::{median, percentile, samples_for, Metric, Report};
use crate::trace::{totals, Recorder, Span, TimedResolver};
use std::sync::Arc;
use std::time::Instant;
use zigzag_core::engine::unit_seed;
use zigzag_mac::cell::{run_cell, CellConfig, CellOutcome, CellPreset, DecodeModel, SplitResolver};
use zigzag_testbed::SignalResolver;

const STATIONS: u32 = 1_000_000;
const SLOTS: u64 = 10_000;
const OFFERED_PER_SLOT: f64 = 0.8;
/// Share of collision episodes lowered to the signal level.
const LOWERED: f64 = 0.05;
const MAX_K: usize = 4;
const SETUP_REPS: usize = 5;
/// Constructions per setup sample: one takes ~0.1 µs, so a sample times
/// enough of them to last over 10 ms.
const SETUP_BATCH: usize = 200_000;

fn config(seed: u64) -> CellConfig {
    CellPreset::DcfHidden { cells: 8, groups_per_cell: 2 }.config(
        STATIONS,
        SLOTS,
        OFFERED_PER_SLOT,
        seed,
    )
}

/// Pass `k`'s simulation, with fresh resolvers; the signal resolver runs
/// under a `service` span per call. Returns the outcome and the
/// `run_cell` wall time.
fn pass(seed: u64, k: usize, rec: &Arc<Recorder>) -> (CellOutcome, f64) {
    let seed = unit_seed(seed, k);
    let cfg = &config(seed);
    let mut signal = SignalResolver::with_seed(seed, 1);
    let mut timed = TimedResolver { inner: &mut signal, rec: rec.clone() };
    let mut split =
        SplitResolver::new(DecodeModel::zigzag_ap(seed), &mut timed, LOWERED, MAX_K, seed);
    let start = Instant::now();
    let out = run_cell(cfg, &mut split);
    (out, secs(start))
}

/// Mean seconds to go from the seed to resolvers ready for `run_cell`.
fn setup_sample(seed: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..SETUP_BATCH {
        let cfg = config(seed);
        let mut signal = SignalResolver::with_seed(seed, 1);
        let split =
            SplitResolver::new(DecodeModel::zigzag_ap(seed), &mut signal, LOWERED, MAX_K, seed);
        std::hint::black_box((&cfg, &split));
    }
    secs(start) / SETUP_BATCH as f64
}

fn same_run(a: &CellOutcome, b: &CellOutcome) -> bool {
    a.trace_hash == b.trace_hash && a.stats == b.stats
}

fn service_ms(spans: &[Span]) -> Vec<f64> {
    spans.iter().filter(|s| s.name == "service").map(|s| s.ns() as f64 / 1e6).collect()
}

pub fn e2e(bench: &Bench) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let setup_s: Vec<f64> = (0..SETUP_REPS).map(|_| setup_sample(bench.seed)).collect();
    let rec = Recorder::new();
    // the untimed warm-up replays pass 0, whose trace must match it
    let (first, _) = pass(bench.seed, 0, &rec);
    rec.take();

    let (mut wall, mut delivered_ratios, mut latencies_ms) = (0.0, Vec::new(), Vec::new());
    let (mut delivered, mut offered, mut lowered) = (0, 0, 0);
    for k in 0.. {
        if wall >= bench.seconds && latencies_ms.len() >= samples_for(0.9) {
            break;
        }
        let (out, dt) = pass(bench.seed, k, &rec);
        wall += dt;
        report.attempted += 1;
        report.failed += u64::from(k == 0 && !same_run(&out, &first));
        delivered += out.stats.delivered_frames;
        offered += out.stats.offered_frames;
        delivered_ratios.push(out.stats.delivered_frames as f64 / out.stats.offered_frames as f64);
        lowered += out.stats.lowered_rounds;
        latencies_ms.extend(service_ms(&rec.take()));
    }
    let p50 = percentile(&latencies_ms, 0.5).expect("measured until p50 has its samples");
    let p90 = percentile(&latencies_ms, 0.9).expect("measured until p90 has its samples");
    report.correct = report.failed == 0 && lowered > 0;
    report.notes.push(format!(
        "gate pass 0 trace hash {:016x} == warm-up: {}; {} passes, {lowered} lowered rounds, {delivered}/{offered} frames delivered",
        first.trace_hash,
        report.failed == 0,
        report.attempted
    ));
    report.metrics = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("throughput", "items/s", (SLOTS * report.attempted) as f64 / wall),
        Metric::new("latency_p50_ms", "ms", p50),
        Metric::new("latency_p90_ms", "ms", p90),
        // a median, because a few cells deliver twice the typical share
        Metric::new("delivered_ratio", "ratio", median(&delivered_ratios)),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    report
}

pub fn traced(bench: &Bench) -> Report {
    let mut report = Report { correct: true, ..Report::default() };
    let mut layers = Layers::default();
    let (plain_rec, traced_rec) = (Recorder::new(), Recorder::new());

    // The resolver span is the only seam the cell run exposes, and the
    // untraced run needs it for its latency, so both passes carry it:
    // the overhead reported here is the spread between identical passes.
    let (mut ratios, mut traced_s) = (Vec::new(), Vec::new());
    let mut stats = [0.0f64; 4];
    let start = Instant::now();
    for k in 0.. {
        if secs(start) >= bench.seconds {
            break;
        }
        let ((plain, plain_dt), (out, dt)) =
            paired(k, || pass(bench.seed, k, &plain_rec), || pass(bench.seed, k, &traced_rec));
        plain_rec.take();
        traced_s.push(dt);
        ratios.push(dt / plain_dt);
        report.attempted += 1;
        report.failed += u64::from(!same_run(&out, &plain));
        let s = &out.stats;
        for (acc, v) in stats.iter_mut().zip([
            s.collision_rounds,
            s.lowered_rounds,
            s.tx_starts,
            s.stations_active,
        ]) {
            *acc += v as f64;
        }
    }
    let spans = traced_rec.take();
    let passes = traced_s.len() as f64;
    report.correct = report.failed == 0;
    report.notes.push(format!(
        "gate traced==untraced trace hash: {} over {passes} cells",
        report.failed == 0
    ));
    let service = totals(&spans, "service");
    let service_ms = service.busy_ns as f64 / passes / 1e6;
    let wall_ms = traced_s.iter().sum::<f64>() / passes * 1e3;
    layers.set("service.busy_ms", service_ms);
    layers.set("service.calls", service.calls as f64 / passes);
    layers.set("service.rounds", service.count as f64 / passes);
    layers.set("cell.sim_self_ms", wall_ms - service_ms);
    for (name, total) in
        ["cell.collision_rounds", "cell.lowered_rounds", "cell.tx_starts", "cell.stations_active"]
            .into_iter()
            .zip(stats)
    {
        layers.set(name, total / passes);
    }
    layers.set("trace.overhead_pct", (median(&ratios) - 1.0) * 100.0);
    // run_cell's wall time is split into the resolver's spans and the
    // simulator's self time, so nothing is left unaccounted by definition
    layers.set("trace.unaccounted_pct", 0.0);
    report.notes.push(format!(
        "accounting: service busy {service_ms:.1} ms + sim self {:.1} ms = run_cell wall {wall_ms:.1} ms per pass",
        wall_ms - service_ms
    ));
    finish_trace(&mut report, layers, &spans, "cell", bench.seed);
    report
}
