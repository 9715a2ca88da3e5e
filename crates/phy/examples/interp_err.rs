//! Measures fractional-interpolation truncation error vs TX band-limiting,
//! then compares the kernel backends on the production resampling path —
//! minimal usage docs for constructing a `zigzag_phy::kernel::Kernel`
//! explicitly and checking scalar/simd agreement.
use rand::prelude::*;
use zigzag_phy::complex::Complex;
use zigzag_phy::filter::Fir;
use zigzag_phy::interp::interp_at_width;
use zigzag_phy::kernel::{BackendKind, Kernel};

fn lowpass(n: usize, cutoff: f64) -> Fir {
    // Hamming-windowed sinc, linear phase, unit energy
    let half = (n / 2) as isize;
    let mut taps: Vec<f64> = (-half..=half)
        .map(|k| {
            let x = k as f64;
            let s = if x == 0.0 {
                cutoff
            } else {
                (std::f64::consts::PI * cutoff * x).sin() / (std::f64::consts::PI * x)
            };
            let w = 0.54 + 0.46 * (std::f64::consts::PI * x / (half as f64 + 1.0)).cos();
            s * w
        })
        .collect();
    let e: f64 = taps.iter().map(|t| t * t).sum::<f64>().sqrt();
    for t in taps.iter_mut() {
        *t /= e;
    }
    Fir::from_real(&taps, half as usize)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let n = 4096;
    let x: Vec<Complex> =
        (0..n).map(|_| Complex::real(if rng.gen_bool(0.5) { 1.0 } else { -1.0 })).collect();
    for (name, pulse) in [
        ("none        ", Fir::identity()),
        ("lp11 c=0.88 ", lowpass(11, 0.88)),
        ("lp13 c=0.85 ", lowpass(13, 0.85)),
        ("lp17 c=0.80 ", lowpass(17, 0.80)),
        ("lp21 c=0.75 ", lowpass(21, 0.75)),
    ] {
        let s = pulse.apply(&x);
        for w in [8usize, 12] {
            let mut err2 = 0.0;
            let mut sig2 = 0.0;
            for k in 600..n - 600 {
                let t = k as f64 + 0.5;
                let approx = interp_at_width(&s, t, w);
                let reference = interp_at_width(&s, t, 512);
                err2 += (approx - reference).norm_sq();
                sig2 += reference.norm_sq();
            }
            println!("{name} w={w}: err {:.1} dB", 10.0 * (err2 / sig2).log10());
        }
        // main tap fraction (gain convention)
        let main = pulse.taps()[pulse.delay()].abs();
        println!("{name} main tap {main:.3}");
    }

    // --- kernel backends on the production resample path ---
    // A Kernel is a backend choice + its SoA scratch; construct one per
    // decode context and reuse it across calls.
    let mut scalar = Kernel::new(BackendKind::Scalar);
    let mut simd = Kernel::new(BackendKind::Simd);
    let (mut ys, mut yo) = (Vec::new(), Vec::new());
    for (label, start, step) in
        [("half-sample grid", 0.5, 1.0), ("drifting grid   ", 0.37, 1.0 + 1.5e-5)]
    {
        let t = std::time::Instant::now();
        scalar.resample_into(&x, start, step, n, &mut ys);
        let t_s = t.elapsed();
        let t = std::time::Instant::now();
        simd.resample_into(&x, start, step, n, &mut yo);
        let t_o = t.elapsed();
        let max_err = ys.iter().zip(yo.iter()).map(|(a, b)| (*a - *b).abs()).fold(0.0f64, f64::max);
        println!(
            "backend {label}: scalar {:>7.1?}  simd {:>7.1?}  ({:.1}x)  max |Δ| {max_err:.2e}",
            t_s,
            t_o,
            t_s.as_secs_f64() / t_o.as_secs_f64().max(1e-12),
        );
    }
}
