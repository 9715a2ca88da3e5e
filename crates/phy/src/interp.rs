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

use crate::complex::{Complex, ZERO};

/// Default interpolation half-width (taps each side), per §4.2.3(b).
pub const DEFAULT_HALF_WIDTH: usize = 8;

/// Normalised sinc, `sin(πx)/(πx)`.
#[inline]
pub fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

/// Hann window of half-width `w` evaluated at offset `x ∈ [−w, w]`.
/// Shared with the simd kernel backend's cached-tap resampler.
#[inline]
pub(crate) fn hann(x: f64, w: f64) -> f64 {
    let t = (x / w).clamp(-1.0, 1.0);
    0.5 * (1.0 + (std::f64::consts::PI * t).cos())
}

/// Weight of the sample at distance `d = t − i` from the interpolation
/// point, for a kernel of the given half-width: the Hann-windowed sinc
/// tap [`interp_at_width`] applies to every `|d| ≤ half_width`.
#[inline]
pub fn tap_weight(d: f64, half_width: usize) -> f64 {
    sinc(d) * hann(d, half_width as f64 + 1.0)
}

/// Interpolates `samples` at fractional position `t` (in sample units) with
/// the given kernel half-width. Positions outside the buffer are treated as
/// zero (signals are zero-padded at the edges, like a quiet channel).
pub fn interp_at_width(samples: &[Complex], t: f64, half_width: usize) -> Complex {
    let w = half_width as f64;
    let lo = (t - w).ceil() as isize;
    let hi = (t + w).floor() as isize;
    let mut acc = ZERO;
    for i in lo..=hi {
        if i < 0 || i as usize >= samples.len() {
            continue;
        }
        acc += samples[i as usize] * tap_weight(t - i as f64, half_width);
    }
    acc
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

    #[test]
    fn sinc_values() {
        assert_eq!(sinc(0.0), 1.0);
        assert!(sinc(1.0).abs() < 1e-12);
        assert!(sinc(2.0).abs() < 1e-12);
        assert!((sinc(0.5) - 2.0 / std::f64::consts::PI).abs() < 1e-12);
    }
}
