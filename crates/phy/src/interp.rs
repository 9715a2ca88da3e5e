//! Band-limited fractional-delay interpolation.
//!
//! §4.2.3(b): "we leverage the fact that we have a band-limited signal
//! sampled according to the Nyquist criterion. Nyquist says that under
//! these conditions, one can interpolate the signal at any discrete
//! position … with complete accuracy using `y[n+µ] = Σ y[i]·sinc(π(n+µ−i))`.
//! In practice, the above equation is approximated by taking the summation
//! over few symbols (about 8 symbols) in the neighbourhood of n."
//!
//! We use exactly that: a truncated sinc kernel, Hann-windowed to tame the
//! truncation sidelobes, with a default half-width of 8 taps per side. Both
//! the channel simulator (applying a *sampling offset*, §3.1.2) and the
//! ZigZag re-encoder (reconstructing a chunk image on the receiver's
//! sampling grid) use this module — which is important: re-encoding inverts
//! the channel's resampling only because both sides share the same
//! interpolation model.
//!
//! There is one tap definition, [`fill_taps`]: the kernel at fractional
//! position `f ∈ [0, 1]` in closed form, from one sine and one rotation
//! rather than two transcendentals per tap. The scalar reference
//! [`interp_at_width`], the simd backend's cached tap vector and the
//! decoder's preamble correlator all call it, so the channel's air, both
//! kernel backends and the decoder's sub-sample search agree by
//! construction.

use crate::complex::{Complex, ZERO};
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Default interpolation half-width (taps each side), per §4.2.3(b).
pub const DEFAULT_HALF_WIDTH: usize = 8;

/// The kernel window at fractional position `frac ∈ [0, 1]` of a point
/// `t = ⌊t⌋ + frac`: the first tap's offset `j_lo = ⌈frac − w⌉` from
/// `⌊t⌋` and the tap count `⌊frac + w⌋ − j_lo + 1` (`2w`, or `2w + 1`
/// when `frac` is 0 or 1) — every sample within `w` of `t`.
#[inline]
pub fn tap_window(frac: f64, half_width: usize) -> (isize, usize) {
    let w = half_width as f64;
    // With frac in [0, 1] the first operand is ≤ 0 and the second ≥ 0, so
    // truncation toward zero is that ceil and that floor exactly, without
    // a libm call.
    let j_lo = (frac - w) as isize;
    let j_hi = (frac + w) as isize;
    (j_lo, (j_hi - j_lo + 1) as usize)
}

/// Fills `taps` with the Hann-windowed sinc kernel at fractional position
/// `frac ∈ [0, 1]`: `taps[i] = sinc(d)·hann(d, w + 1)` at distance
/// `d = frac − j` for `j = j_lo + i`, where `(j_lo, taps.len())` is
/// [`tap_window`]`(frac, w)` and `w = half_width`.
///
/// Closed form, not per-tap libm: `sin(π(frac − j)) = (−1)^j·sin(π·frac)`,
/// so one sine serves every tap, taken at `min(frac, 1 − frac)` (`1 − frac`
/// is exact) so the main tap stays accurate as `frac → 1`. The window term
/// `cos(π(frac − j)/(w + 1))` is one `sin_cos(π·frac/(w + 1))` rotated by
/// the fixed angle `−π·j/(w + 1)` (angle addition against a per-width
/// table), so the taps are independent of each other and the loop
/// vectorizes. The result matches the per-tap libm form within 1e-15
/// absolute (the `closed_form_taps_match_the_libm_oracle` test) and is the
/// same bits wherever it is called.
pub fn fill_taps(frac: f64, half_width: usize, taps: &mut [f64]) {
    debug_assert!((0.0..=1.0).contains(&frac), "fraction {frac} outside [0, 1]");
    let (j_lo, count) = tap_window(frac, half_width);
    assert_eq!(taps.len(), count, "tap vector length for fraction {frac}");
    let first = (j_lo + half_width as isize) as usize;
    if half_width == DEFAULT_HALF_WIDTH {
        static DEFAULT: OnceLock<TapTable> = OnceLock::new();
        DEFAULT.get_or_init(|| TapTable::new(DEFAULT_HALF_WIDTH)).fill(frac, first, taps);
    } else {
        TapTable::new(half_width).fill(frac, first, taps);
    }
    // d = 0, where the closed form reads 0/0: sinc and window are both 1
    if frac == 0.0 || frac == 1.0 {
        taps[(frac as isize - j_lo) as usize] = 1.0;
    }
}

/// The per-width constants of [`fill_taps`]: the window half-width
/// `w + 1`, and for `j = −w..=w + 1` at index `j + w`, `j` itself, the
/// sinc sign `(−1)^j` and the `cos` and `sin` of the fixed angle
/// `π·j/(w + 1)` the window term is rotated by.
struct TapTable {
    window: f64,
    j: Vec<f64>,
    sign: Vec<f64>,
    cos: Vec<f64>,
    sin: Vec<f64>,
}

impl TapTable {
    fn new(half_width: usize) -> Self {
        let (window, hw) = (half_width as f64 + 1.0, half_width as isize);
        let js = -hw..=hw + 1;
        Self {
            window,
            j: js.clone().map(|j| j as f64).collect(),
            sign: js.clone().map(|j| if j & 1 == 0 { 1.0 } else { -1.0 }).collect(),
            cos: js.clone().map(|j| (PI * j as f64 / window).cos()).collect(),
            sin: js.map(|j| (PI * j as f64 / window).sin()).collect(),
        }
    }

    /// The closed-form taps for `j` from table index `first` on.
    fn fill(&self, frac: f64, first: usize, taps: &mut [f64]) {
        let s = (PI * frac.min(1.0 - frac)).sin();
        let (s0, c0) = (PI * frac / self.window).sin_cos();
        let range = first..first + taps.len();
        let (j, sign) = (&self.j[range.clone()], &self.sign[range.clone()]);
        let (cos, sin) = (&self.cos[range.clone()], &self.sin[range]);
        for i in 0..taps.len() {
            let hann = 0.5 * (1.0 + (c0 * cos[i] + s0 * sin[i]));
            taps[i] = sign[i] * s / (PI * (frac - j[i])) * hann;
        }
    }
}

/// The in-buffer part of the window of `count` taps starting at sample
/// `f0 + j_lo` (`f0` an integer-valued position): `(i_lo, j0, n)` with
/// samples `i_lo..i_lo + n` meeting taps `j0..j0 + n`, or `None` when no
/// tap lands in a buffer of `len` samples. The range test runs in `f64`
/// before any cast, so no position — however far out — can wrap an index.
#[inline]
pub(crate) fn window_span(
    f0: f64,
    j_lo: isize,
    count: usize,
    len: usize,
) -> Option<(usize, usize, usize)> {
    let base = f0 + j_lo as f64;
    if !(base < len as f64 && base + count as f64 > 0.0) {
        return None;
    }
    // base ∈ (−count, len): an exact small integer from here on
    let base = base as isize;
    let i_lo = base.max(0);
    let i_hi = (base + count as isize).min(len as isize);
    Some((i_lo as usize, (i_lo - base) as usize, (i_hi - i_lo) as usize))
}

/// `Σ samples[i]·taps[i]`, accumulated in ascending order — the one
/// accumulation every interpolation uses.
#[inline]
pub(crate) fn dot_taps(samples: &[Complex], taps: &[f64]) -> Complex {
    let mut acc_re = 0.0;
    let mut acc_im = 0.0;
    for (v, &tap) in samples.iter().zip(taps) {
        acc_re += v.re * tap;
        acc_im += v.im * tap;
    }
    Complex::new(acc_re, acc_im)
}

/// Interpolates `samples` at fractional position `t` (in sample units) with
/// the given kernel half-width. Positions outside the buffer are treated as
/// zero (signals are zero-padded at the edges, like a quiet channel), and
/// so are non-finite positions.
pub fn interp_at_width(samples: &[Complex], t: f64, half_width: usize) -> Complex {
    let f0 = t.floor();
    if !f0.is_finite() {
        return ZERO;
    }
    let frac = t - f0;
    let (j_lo, count) = tap_window(frac, half_width);
    let Some((i_lo, j0, n)) = window_span(f0, j_lo, count, samples.len()) else {
        return ZERO;
    };
    // the default width's taps live on the stack; wider kernels allocate
    let mut stack = [0.0; 2 * DEFAULT_HALF_WIDTH + 1];
    let mut heap = Vec::new();
    let taps = if count <= stack.len() {
        &mut stack[..count]
    } else {
        heap.resize(count, 0.0);
        &mut heap[..]
    };
    fill_taps(frac, half_width, taps);
    dot_taps(&samples[i_lo..i_lo + n], &taps[j0..j0 + n])
}

/// Interpolates at position `t` with the default half-width.
pub fn interp_at(samples: &[Complex], t: f64) -> Complex {
    interp_at_width(samples, t, DEFAULT_HALF_WIDTH)
}

/// Resamples a signal at positions `start + k·step` for `k = 0..n`,
/// filling `out` (cleared first) and reusing its allocation.
///
/// `step = 1 + drift` models sampling-clock drift (§3.1.2: "the drift in
/// the transmitter's and receiver's clocks results in a drift in the
/// sampling offset"). This is the numerical reference the kernel
/// backends' `resample_into` must reproduce bit for bit; hot paths call
/// [`crate::kernel::Kernel::resample_into`], which caches the taps.
pub fn resample_into(samples: &[Complex], start: f64, step: f64, n: usize, out: &mut Vec<Complex>) {
    out.clear();
    out.extend((0..n).map(|k| interp_at(samples, start + k as f64 * step)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A band-limited test signal: sum of slow complex exponentials
    /// (well inside the Nyquist band).
    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|k| {
                let t = k as f64;
                Complex::cis(0.05 * t)
                    + Complex::cis(-0.11 * t).scale(0.5)
                    + Complex::cis(0.23 * t).scale(0.25)
            })
            .collect()
    }

    fn reference(t: f64) -> Complex {
        Complex::cis(0.05 * t)
            + Complex::cis(-0.11 * t).scale(0.5)
            + Complex::cis(0.23 * t).scale(0.25)
    }

    #[test]
    fn integer_positions_are_exact() {
        let s = test_signal(64);
        for k in 10..50 {
            let v = interp_at(&s, k as f64);
            assert!((v - s[k]).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn fractional_positions_match_analytic_signal() {
        let s = test_signal(256);
        for k in 20..230 {
            for frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
                let t = k as f64 + frac;
                let v = interp_at(&s, t);
                let r = reference(t);
                assert!((v - r).abs() < 2e-3, "t={t}: got {v:?} want {r:?} err {}", (v - r).abs());
            }
        }
    }

    #[test]
    fn wider_kernel_is_more_accurate() {
        let s = test_signal(256);
        let t = 100.37;
        let r = reference(t);
        let e4 = (interp_at_width(&s, t, 4) - r).abs();
        let e16 = (interp_at_width(&s, t, 16) - r).abs();
        assert!(e16 < e4, "e4={e4} e16={e16}");
    }

    #[test]
    fn out_of_range_is_zero() {
        let s = test_signal(16);
        assert_eq!(interp_at(&s, -100.0), ZERO);
        assert_eq!(interp_at(&s, 1e6), ZERO);
    }

    #[test]
    fn resample_identity() {
        let s = test_signal(64);
        let mut r = Vec::new();
        resample_into(&s, 0.0, 1.0, 64, &mut r);
        for k in 8..56 {
            assert!((r[k] - s[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_shift_then_unshift() {
        // Shifting by +µ then by −µ must reproduce the original (away from
        // the edges) — the core requirement for re-encoding (§4.2.3b).
        let s = test_signal(256);
        let mu = 0.31;
        let (mut shifted, mut back) = (Vec::new(), Vec::new());
        resample_into(&s, mu, 1.0, 256, &mut shifted);
        resample_into(&shifted, -mu, 1.0, 256, &mut back);
        for k in 32..224 {
            assert!((back[k] - s[k]).abs() < 5e-3, "k={k} err={}", (back[k] - s[k]).abs());
        }
    }

    /// The per-tap libm form [`fill_taps`] replaces: normalised sinc
    /// times a Hann window of half-width `w`, two transcendentals per tap.
    fn oracle_tap(d: f64, half_width: usize) -> f64 {
        let sinc = if d.abs() < 1e-12 { 1.0 } else { (PI * d).sin() / (PI * d) };
        let t = (d / (half_width as f64 + 1.0)).clamp(-1.0, 1.0);
        sinc * 0.5 * (1.0 + (PI * t).cos())
    }

    #[test]
    fn sinc_values() {
        assert_eq!(oracle_tap(0.0, 8), 1.0);
        assert!(oracle_tap(1.0, 8).abs() < 1e-12);
        assert!(oracle_tap(2.0, 8).abs() < 1e-12);
        let hann_half = 0.5 * (1.0 + (PI * 0.5 / 9.0).cos());
        assert!((oracle_tap(0.5, 8) - 2.0 / PI * hann_half).abs() < 1e-12);
    }

    /// Asserts [`fill_taps`] at `frac` is within 1e-15 of the oracle on
    /// every tap, and that every tap lies inside the window.
    fn assert_taps_match_oracle(frac: f64, half_width: usize) -> f64 {
        let (j_lo, count) = tap_window(frac, half_width);
        let mut taps = vec![f64::NAN; count];
        fill_taps(frac, half_width, &mut taps);
        let mut worst = 0.0f64;
        for (i, &tap) in taps.iter().enumerate() {
            let d = frac - (j_lo + i as isize) as f64;
            assert!(d.abs() <= half_width as f64, "tap {i} at {frac} lies outside the window");
            let err = (tap - oracle_tap(d, half_width)).abs();
            assert!(
                err <= 1e-15,
                "w {half_width}, frac {frac}, d {d}: {tap} vs oracle, err {err:e}"
            );
            worst = worst.max(err);
        }
        worst
    }

    proptest! {
        #[test]
        fn closed_form_taps_match_the_oracle_at_random_fractions(
            frac in 0.0f64..1.0,
            pick in 0usize..3,
        ) {
            assert_taps_match_oracle(frac, [4, 8, 16][pick]);
        }
    }

    #[test]
    fn closed_form_taps_match_the_libm_oracle() {
        let eps = f64::EPSILON;
        let dense = (0..=20_000).map(|k| k as f64 / 20_000.0);
        let edges = [0.0, eps, 0.5, 1.0 - eps, 1.0 - eps / 2.0, 1.0, 1e-300, 0.25, 0.75];
        for half_width in [4usize, 8, 16] {
            let worst = dense
                .clone()
                .chain(edges)
                .map(|frac| assert_taps_match_oracle(frac, half_width))
                .fold(0.0, f64::max);
            println!("half-width {half_width}: worst tap error {worst:e}");
        }
    }

    #[test]
    fn integer_and_unit_fractions_are_pass_through() {
        for frac in [0.0, 1.0] {
            let (j_lo, count) = tap_window(frac, DEFAULT_HALF_WIDTH);
            assert_eq!(count, 2 * DEFAULT_HALF_WIDTH + 1);
            let mut taps = vec![f64::NAN; count];
            fill_taps(frac, DEFAULT_HALF_WIDTH, &mut taps);
            for (i, &tap) in taps.iter().enumerate() {
                let j = j_lo + i as isize;
                assert_eq!(
                    tap.abs(),
                    if j as f64 == frac { 1.0 } else { 0.0 },
                    "frac {frac}, j {j}"
                );
            }
        }
    }

    #[test]
    fn non_finite_and_far_positions_are_zero() {
        let s = test_signal(16);
        for t in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e19, -1e19, 1e300, -1e300] {
            for half_width in [4, DEFAULT_HALF_WIDTH, 40] {
                let v = interp_at_width(&s, t, half_width);
                assert_eq!((v.re.to_bits(), v.im.to_bits()), (0, 0), "t {t}, w {half_width}");
            }
        }
    }
}
