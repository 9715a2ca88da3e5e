//! Criterion benches of the receiver's hot phy primitives, run on both
//! kernel backends (`zigzag_phy::kernel`): the sliding correlation
//! scan, FIR filtering, windowed-sinc resampling, MRC combining and the
//! §4.2.2 match metric (raw and footprint-backed), plus the equalizer
//! design and Viterbi decoding baselines. These quantify the
//! per-buffer detection cost the §4.6 complexity discussion treats as
//! "typical functionality". Two `plan_all` rows time the §4.5 chunk
//! scheduler alone on retransmission pairs of 1,760-symbol packets: at
//! Δ 300/100 and at the near-equal Δ 19/20, where every chunk is one
//! symbol, so the per-step cost of finding runs dominates. Two
//! `channel_apply` rows time the channel simulator's per-transmission
//! synthesis (`ChannelParams::apply`) on a drift-free and on a drifting
//! link, and a `resample_4096_drift20ppm` pair times the resampler on a
//! 20 ppm drifting grid, where every output needs a fresh tap fill and
//! both backends share the one closed-form fill (so it is timed, not
//! counted in the breadth gate below).
//!
//! Besides timing, this bench is a regression gate: each primitive's
//! outputs are checked against the scalar reference (within 1e-9) on
//! the bench inputs, the simd correlation scan must be ≥ 3× the scalar
//! one on buffers ≥ 4096 samples (the dominant detect cost), and the
//! simd backend must beat scalar ≥ 1.5× on at least five of the seven
//! primitive benches. Set `ZIGZAG_BENCH_RELAXED=1` to relax the perf
//! gates (shared CI runners); the equivalence assertions always run.
//! Results are written to `BENCH_phy.json` at the repo root so the perf
//! trajectory is tracked across PRs. The absolute ns of one run drift
//! with the machine by more than most changes move a row, so each row
//! is also written as `vs_reference`: its time over the
//! `viterbi_decode_1024` row's time in the same run (a convolutional
//! decoder no kernel backend touches). Compare those ratios across
//! commits, not the ns.
//!
//! A `resample_chunks_64x64` pair times the resampler at the chunk
//! decoder's call shape, 64 calls of 64 outputs, where per-call setup
//! is not amortized over a whole buffer. It is checked for equivalence
//! like every row, and timed but not counted in the breadth gate.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use std::fmt::Write as _;
use zigzag_channel::fading::LinkProfile;
use zigzag_core::schedule::{pair_layouts, PlanOutcome, PlanState};
use zigzag_phy::coding;
use zigzag_phy::complex::Complex;
use zigzag_phy::equalize::{design_inverse, estimate_channel_taps};
use zigzag_phy::filter::Fir;
use zigzag_phy::kernel::{BackendKind, CorrFootprint, Kernel, MatchScore};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

const BACKENDS: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Simd];

fn noise(n: usize, seed: u64) -> Vec<Complex> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

/// Checks the simd backend's bench output against the scalar
/// reference (`outputs[0]`), within 1e-9. Always runs, even when the
/// perf gates are relaxed.
fn assert_equivalent(outputs: &[Vec<Complex>], what: &str) {
    let a = &outputs[0];
    for (fast, kind) in outputs[1..].iter().zip(&BACKENDS[1..]) {
        assert_eq!(a.len(), fast.len(), "{what}: backend output lengths differ");
        for (k, (x, y)) in a.iter().zip(fast.iter()).enumerate() {
            assert!(
                (*x - *y).abs() < 1e-9,
                "{what}[{k}]: scalar {x:?} vs {} {y:?} — backend regression",
                kind.name()
            );
        }
    }
}

/// The row every result is also written relative to (`vs_reference` =
/// its ns over this row's ns, from the same run). No kernel backend
/// touches it, so the ratio cancels a slowdown that hits the whole run.
const REFERENCE_ROW: &str = "viterbi_decode_1024";

/// Timing results collected across the benches, flushed to JSON at the
/// end of the run.
struct Results {
    entries: Vec<(String, f64)>,
}

impl Results {
    fn record(&mut self, name: &str, ns: f64) {
        self.entries.push((name.to_string(), ns));
    }

    fn ns(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, ns)| *ns)
    }

    fn write_json(&self, path: &str) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ref_ns = self.ns(REFERENCE_ROW).expect("the reference row is benched every run");
        let mut s = format!("{{\n  \"bench\": \"primitives\",\n  \"nproc\": {nproc},\n");
        let _ = writeln!(s, "  \"reference\": \"{REFERENCE_ROW}\",");
        s.push_str("  \"results\": [\n");
        for (i, (name, ns)) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let rel = ns / ref_ns;
            let _ = writeln!(
                s,
                "    {{\"name\": \"{name}\", \"ns_per_iter\": {ns:.1}, \"vs_reference\": {rel:.5}}}{comma}"
            );
        }
        s.push_str("  ],\n  \"speedups\": {\n");
        // one column per non-reference backend: speedup vs scalar
        let rows: Vec<(String, Vec<(String, f64)>)> = self
            .entries
            .iter()
            .filter(|(n, _)| n.ends_with("/scalar"))
            .map(|(n, scalar_ns)| {
                let base = n.trim_end_matches("/scalar");
                let cols = BACKENDS[1..]
                    .iter()
                    .filter_map(|kind| {
                        self.ns(&format!("{base}/{}", kind.name()))
                            .map(|ns| (kind.name().to_string(), scalar_ns / ns))
                    })
                    .collect();
                (base.to_string(), cols)
            })
            .collect();
        for (i, (base, cols)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let inner: Vec<String> =
                cols.iter().map(|(name, sp)| format!("\"{name}\": {sp:.2}")).collect();
            let _ = writeln!(s, "    \"{base}\": {{{}}}{comma}", inner.join(", "));
        }
        s.push_str("  }\n}\n");
        if let Err(e) = std::fs::write(path, &s) {
            eprintln!("could not write {path}: {e}");
        }
    }
}

fn bench_correlation(c: &mut Criterion, r: &mut Results) {
    let p = Preamble::default_len();
    for n in [4096usize, 16384] {
        let buf = noise(n, 1);
        let mut outputs: Vec<Vec<Complex>> = Vec::new();
        for kind in BACKENDS {
            let mut kernel = Kernel::new(kind);
            let mut out = Vec::new();
            let name = format!("scan_into_{n}/{}", kind.name());
            c.bench_function(&name, |b| {
                b.iter(|| {
                    kernel.scan_into(&buf, p.symbols(), 0.01, 0..buf.len(), &mut out);
                    out.last().copied()
                })
            });
            r.record(&name, c.last_ns);
            kernel.scan_into(&buf, p.symbols(), 0.01, 0..buf.len(), &mut out);
            outputs.push(out.clone());
        }
        assert_equivalent(&outputs, &format!("scan_into_{n}"));
    }
}

fn bench_fir(c: &mut Criterion, r: &mut Results) {
    let buf = noise(4096, 2);
    let fir = Fir::new(
        vec![
            Complex::new(0.05, 0.01),
            Complex::new(0.12, -0.03),
            Complex::real(1.0),
            Complex::new(0.2, 0.05),
            Complex::new(0.07, -0.02),
        ],
        2,
    );
    let mut outputs: Vec<Vec<Complex>> = Vec::new();
    for kind in BACKENDS {
        let mut kernel = Kernel::new(kind);
        let mut out = Vec::new();
        let name = format!("fir_apply_4096_5tap/{}", kind.name());
        c.bench_function(&name, |b| {
            b.iter(|| {
                kernel.fir_apply_into(&fir, &buf, &mut out);
                out.last().copied()
            })
        });
        r.record(&name, c.last_ns);
        kernel.fir_apply_into(&fir, &buf, &mut out);
        outputs.push(out.clone());
    }
    assert_equivalent(&outputs, "fir_apply_4096_5tap");
}

/// Windowed-sinc resampling of 4096 samples at µ = 0.37 on a unit grid
/// (one tap fill per call on the cached-tap backend) and on a grid
/// drifting by 20 ppm (`step = 1 + 2e-5`, a fresh tap fill per output,
/// as on the channel simulator's `typical` links).
fn bench_resample(c: &mut Criterion, r: &mut Results) {
    let buf = noise(4096, 3);
    for (tag, step) in [("mu037", 1.0), ("drift20ppm", 1.0 + 2e-5)] {
        let mut outputs: Vec<Vec<Complex>> = Vec::new();
        for kind in BACKENDS {
            let mut kernel = Kernel::new(kind);
            let mut out = Vec::new();
            let name = format!("resample_4096_{tag}/{}", kind.name());
            c.bench_function(&name, |b| {
                b.iter(|| {
                    kernel.resample_into(&buf, 0.37, step, buf.len(), &mut out);
                    out.last().copied()
                })
            });
            r.record(&name, c.last_ns);
            kernel.resample_into(&buf, 0.37, step, buf.len(), &mut out);
            outputs.push(out.clone());
        }
        assert_equivalent(&outputs, &format!("resample_4096_{tag}"));
    }
}

/// The chunk decoder's call shape: 64 calls of 64 outputs each at
/// µ = 0.37 on a unit grid, walking a 4096-sample buffer, so each call
/// pays its own setup (tap-cache check, run test, clipped edges) over
/// few outputs, where `resample_4096_mu037` pays it once per 4096.
fn bench_resample_chunks(c: &mut Criterion, r: &mut Results) {
    let buf = noise(4096, 9);
    let chunk = 64usize;
    let mut outputs: Vec<Vec<Complex>> = Vec::new();
    for kind in BACKENDS {
        let mut kernel = Kernel::new(kind);
        let mut out = Vec::new();
        let name = format!("resample_chunks_64x64/{}", kind.name());
        c.bench_function(&name, |b| {
            b.iter(|| {
                let mut last = None;
                for start in (0..buf.len()).step_by(chunk) {
                    kernel.resample_into(&buf, start as f64 + 0.37, 1.0, chunk, &mut out);
                    last = out.last().copied();
                }
                last
            })
        });
        r.record(&name, c.last_ns);
        let mut all = Vec::new();
        for start in (0..buf.len()).step_by(chunk) {
            kernel.resample_into(&buf, start as f64 + 0.37, 1.0, chunk, &mut out);
            all.extend_from_slice(&out);
        }
        outputs.push(all);
    }
    assert_equivalent(&outputs, "resample_chunks_64x64");
}

fn bench_mrc(c: &mut Criterion, r: &mut Results) {
    let s1 = noise(4096, 4);
    let s2 = noise(4096, 5);
    let mut outputs: Vec<Vec<Complex>> = Vec::new();
    for kind in BACKENDS {
        let mut kernel = Kernel::new(kind);
        let mut out = Vec::new();
        let name = format!("mrc_combine_4096_x2/{}", kind.name());
        c.bench_function(&name, |b| {
            b.iter(|| {
                kernel.combine_weighted_into(&[(&s1, 2.0), (&s2, 0.7)], &mut out);
                out.last().copied()
            })
        });
        r.record(&name, c.last_ns);
        kernel.combine_weighted_into(&[(&s1, 2.0), (&s2, 0.7)], &mut out);
        outputs.push(out.clone());
    }
    assert_equivalent(&outputs, "mrc_combine_4096_x2");
}

/// The §4.2.2 match metric at the matcher's production shape: a
/// 512-sample window swept over τ ∈ [−1, 1] at 0.25 steps, raw-buffer
/// and footprint-backed, on both backends. `buf_b` is a shifted, phase-
/// rotated, noisy copy of `buf_a` so the metric is a realistic match
/// (≈ the threshold regime the funnel operates in), not a noise floor.
fn bench_matching(c: &mut Criterion, r: &mut Results) {
    let window = 512usize;
    let buf_a = noise(4096, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let rot = Complex::cis(0.4);
    let buf_b: Vec<Complex> = (0..4096)
        .map(|k| {
            let src = if k >= 32 { buf_a[k - 32] } else { Complex::default() };
            src * rot + Complex::new(rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2))
        })
        .collect();
    let (p, q) = (100usize, 132usize); // aligned spans (32-sample shift)
    let mut fp = CorrFootprint::default();
    Kernel::new(BackendKind::Simd).ensure_footprint(&mut fp, &buf_b, 0.25, &mut Vec::new);
    let mut raw_scores: Vec<MatchScore> = Vec::new();
    let mut fp_scores: Vec<MatchScore> = Vec::new();
    for kind in BACKENDS {
        let mut kernel = Kernel::new(kind);
        let name = format!("match_score_{window}/{}", kind.name());
        c.bench_function(&name, |b| {
            b.iter(|| kernel.match_score(&buf_a, p, &buf_b, q, window, 0.25, None).metric)
        });
        r.record(&name, c.last_ns);
        raw_scores.push(kernel.match_score(&buf_a, p, &buf_b, q, window, 0.25, None));

        let name = format!("match_score_fp_{window}/{}", kind.name());
        c.bench_function(&name, |b| {
            b.iter(|| kernel.match_score_fp(&buf_a, p, &fp, q, window, 0.25, None).metric)
        });
        r.record(&name, c.last_ns);
        fp_scores.push(kernel.match_score_fp(&buf_a, p, &fp, q, window, 0.25, None));
    }
    for (what, scores) in [("match_score", &raw_scores), ("match_score_fp", &fp_scores)] {
        for (fast, kind) in scores[1..].iter().zip(&BACKENDS[1..]) {
            assert!(
                (scores[0].metric - fast.metric).abs() < 1e-9
                    && (scores[0].tau - fast.tau).abs() < 0.25 + 1e-9,
                "{what}: scalar {:?} vs {} {:?} — backend regression",
                scores[0],
                kind.name(),
                fast
            );
        }
    }
    assert!(
        raw_scores[0].metric > 0.5,
        "bench operands must be a genuine match, got {}",
        raw_scores[0].metric
    );
    assert!(
        (raw_scores[0].metric - fp_scores[0].metric).abs() < 1e-9,
        "footprint path diverged from raw: {} vs {}",
        raw_scores[0].metric,
        fp_scores[0].metric
    );
}

fn bench_equalizer(c: &mut Criterion, r: &mut Results) {
    let p = Preamble::standard(64);
    let ch =
        Fir::new(vec![Complex::new(0.1, 0.02), Complex::real(1.0), Complex::new(0.2, -0.05)], 1);
    let rx = ch.apply(p.symbols());
    c.bench_function("channel_estimate_plus_inverse", |b| {
        b.iter(|| {
            let taps = estimate_channel_taps(&rx, p.symbols(), 5, 2).unwrap();
            design_inverse(&taps, 11).unwrap()
        })
    });
    r.record("channel_estimate_plus_inverse", c.last_ns);
}

fn bench_viterbi(c: &mut Criterion, r: &mut Results) {
    let mut rng = StdRng::seed_from_u64(3);
    let bits: Vec<u8> = (0..1024).map(|_| rng.gen_range(0..2u8)).collect();
    let coded = coding::encode(&bits);
    c.bench_function("viterbi_decode_1024", |b| b.iter(|| coding::decode_hard(&coded)));
    r.record("viterbi_decode_1024", c.last_ns);
}

fn bench_schedule(c: &mut Criterion, r: &mut Results) {
    for (d1, d2) in [(19usize, 20usize), (300, 100)] {
        let fresh = PlanState::new(vec![1760; 2], pair_layouts(1760, 1760, d1, d2));
        let name = format!("plan_all_pair_1760_d{d1}_{d2}");
        c.bench_function(&name, |b| b.iter(|| fresh.clone().plan_all().1));
        r.record(&name, c.last_ns);
        assert_eq!(fresh.clone().plan_all().1, PlanOutcome::Complete, "{name}");
    }
}

/// `ChannelParams::apply` on a 620-symbol BPSK frame (between the cell
/// co-simulation's 480-symbol 40-byte frames and the 960 symbols of a
/// 100-byte frame) over a drift-free `clean_with_omega`
/// link, whose resampler reuses one tap vector per binade of the
/// position, and over a `typical` link, whose drifting sampling clock
/// refills the taps at every sample (plus ISI and phase noise; the
/// `resample_4096_drift20ppm` rows time that refill alone).
fn bench_channel_apply(c: &mut Criterion, r: &mut Results) {
    let mut rng = StdRng::seed_from_u64(8);
    let bits: Vec<u8> = (0..620).map(|_| rng.gen_range(0..2u8)).collect();
    let tx = Modulation::Bpsk.modulate(&bits);
    let links = [
        ("clean", LinkProfile::clean_with_omega(17.0, 0.02)),
        ("typical", LinkProfile::typical(17.0, &mut rng)),
    ];
    for (tag, link) in links {
        let ch = link.draw(&mut rng);
        assert_eq!(ch.sampling_drift == 0.0, tag == "clean", "{tag}: drift {}", ch.sampling_drift);
        let name = format!("channel_apply_620_{tag}");
        c.bench_function(&name, |b| b.iter(|| ch.apply(&tx, &mut rng).len()));
        r.record(&name, c.last_ns);
    }
}

fn run(c: &mut Criterion) {
    let mut r = Results { entries: Vec::new() };
    bench_correlation(c, &mut r);
    bench_fir(c, &mut r);
    bench_resample(c, &mut r);
    bench_resample_chunks(c, &mut r);
    bench_mrc(c, &mut r);
    bench_matching(c, &mut r);
    bench_equalizer(c, &mut r);
    bench_viterbi(c, &mut r);
    bench_schedule(c, &mut r);
    bench_channel_apply(c, &mut r);

    for n in [4096usize, 16384] {
        let scalar = r.ns(&format!("scan_into_{n}/scalar")).unwrap();
        let simd = r.ns(&format!("scan_into_{n}/simd")).unwrap();
        let speedup = scalar / simd;
        println!("scan_into_{n}: simd {speedup:.1}x scalar");
        // The acceptance gate: the dominant detect cost must be >= 3x on
        // buffers >= 4096 samples. Shared/noisy runners relax it but keep
        // the equivalence assertions above.
        if std::env::var_os("ZIGZAG_BENCH_RELAXED").is_none() {
            assert!(
                speedup >= 3.0,
                "simd scan_into must be >= 3x scalar on {n}-sample buffers, got {speedup:.2}x"
            );
        }
    }

    // The breadth gate: the simd backend must beat the scalar reference
    // >= 1.5x on at least five of the seven primitive benches (measured:
    // six clear 2x on AVX2 hardware; mrc is memory-bound). Relaxable on
    // shared runners like the scan gate; the equivalence assertions
    // above never relax.
    let primitive_benches = [
        "scan_into_4096",
        "scan_into_16384",
        "fir_apply_4096_5tap",
        "resample_4096_mu037",
        "mrc_combine_4096_x2",
        "match_score_512",
        "match_score_fp_512",
    ];
    let mut beats = 0;
    for base in primitive_benches {
        let scalar = r.ns(&format!("{base}/scalar")).unwrap();
        let simd = r.ns(&format!("{base}/simd")).unwrap();
        let speedup = scalar / simd;
        println!("{base}: simd {speedup:.2}x scalar");
        if speedup >= 1.5 {
            beats += 1;
        }
    }
    if std::env::var_os("ZIGZAG_BENCH_RELAXED").is_none() {
        assert!(
            beats >= 5,
            "simd must be >= 1.5x scalar on at least 5 of {} primitive benches, got {beats}",
            primitive_benches.len()
        );
    }
    r.write_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phy.json"));
    println!("wrote BENCH_phy.json");
}

criterion_group!(benches, run);
criterion_main!(benches);
