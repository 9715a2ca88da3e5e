//! Channel (ISI) estimation and linear equalization.
//!
//! §3.1.3: "neighbouring symbols affect each other to some extent.
//! Practical receivers apply linear equalizers to mitigate the effect of
//! ISI." §4.2.4(d): when ZigZag reconstructs a chunk image it must re-apply
//! "any distortion that the chunk experienced because of multipath effects,
//! hardware distortion, filters, etc. To do so, we need to invert the
//! linear filter (i.e., the equalizer) that a typical decoder uses."
//!
//! Concretely:
//! * [`estimate_channel_taps`] fits an FIR channel model to the known
//!   preamble by least squares — this is the decoder-side view of the
//!   distortion.
//! * The **equalizer** is the least-squares (zero-forcing) FIR inverse of
//!   those taps ([`design_inverse`]).
//! * The **re-encoder's inverse filter** is the estimated channel FIR
//!   itself, i.e. the inverse of the equalizer, exactly as §4.2.4d
//!   prescribes.

use crate::complex::{Complex, ZERO};
use crate::filter::Fir;
use crate::linalg::lstsq;

/// Default equalizer length.
pub const DEFAULT_EQUALIZER_TAPS: usize = 11;

/// Fits an `n_taps`-tap FIR channel `rx[n] ≈ Σ_l h[l]·known[n+delay−l]` to
/// the observed `rx` over the span of `known`, by regularised least
/// squares. `delay` is the precursor count (index of the main tap).
///
/// Returns `None` when the training span is too short or degenerate.
pub fn estimate_channel_taps(
    rx: &[Complex],
    known: &[Complex],
    n_taps: usize,
    delay: usize,
) -> Option<Fir> {
    assert!(delay < n_taps);
    let n = known.len().min(rx.len());
    if n < n_taps + 4 {
        return None;
    }
    // Use only output positions whose full tap window lies inside `known`,
    // so edge effects don't bias the fit.
    let first = n_taps; // conservative: skip the first n_taps outputs
    let last = n.saturating_sub(n_taps);
    if last <= first + n_taps {
        return None;
    }
    let mut rows = Vec::with_capacity(last - first);
    let mut obs = Vec::with_capacity(last - first);
    #[allow(clippy::needless_range_loop)] // `out` indexes both rx and the tap window
    for out in first..last {
        let mut row = Vec::with_capacity(n_taps);
        for l in 0..n_taps {
            let idx = out as isize + delay as isize - l as isize;
            row.push(if idx >= 0 && (idx as usize) < n { known[idx as usize] } else { ZERO });
        }
        rows.push(row);
        obs.push(rx[out]);
    }
    let taps = lstsq(&rows, &obs, 1e-9)?;
    Some(Fir::new(taps, delay))
}

/// Designs a least-squares FIR inverse `g` of channel `h`, such that
/// `h ∘ g ≈ δ` (a pure delay). The returned filter's `delay` is set so that
/// applying it to `h.apply(x)` re-aligns with `x`.
pub fn design_inverse(channel: &Fir, inv_len: usize) -> Option<Fir> {
    assert!(inv_len >= 1);
    let h = channel.taps();
    let g_delay = inv_len / 2;
    // Target: conv(h, g)[k] = δ[k − (channel.delay + g_delay)] over the full
    // convolution support of length h.len()+inv_len−1.
    let out_len = h.len() + inv_len - 1;
    let target_idx = channel.delay() + g_delay;
    let mut rows = Vec::with_capacity(out_len);
    let mut obs = Vec::with_capacity(out_len);
    for k in 0..out_len {
        let mut row = vec![ZERO; inv_len];
        for (j, cell) in row.iter_mut().enumerate() {
            let i = k as isize - j as isize;
            if i >= 0 && (i as usize) < h.len() {
                *cell = h[i as usize];
            }
        }
        rows.push(row);
        obs.push(if k == target_idx { Complex::real(1.0) } else { ZERO });
    }
    let g = lstsq(&rows, &obs, 1e-9)?;
    Some(Fir::new(g, g_delay))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble::Preamble;
    use rand::prelude::*;

    fn random_symbols(rng: &mut StdRng, n: usize) -> Vec<Complex> {
        (0..n).map(|_| Complex::real(if rng.gen_bool(0.5) { 1.0 } else { -1.0 })).collect()
    }

    #[test]
    fn estimates_known_channel() {
        let true_ch = Fir::new(
            vec![Complex::new(0.08, 0.02), Complex::new(0.95, -0.1), Complex::new(0.15, 0.05)],
            1,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let train = random_symbols(&mut rng, 64);
        let rx = true_ch.apply(&train);
        let est = estimate_channel_taps(&rx, &train, 3, 1).unwrap();
        for (a, b) in est.taps().iter().zip(true_ch.taps()) {
            assert!((*a - *b).abs() < 1e-6, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn estimate_with_more_taps_than_channel() {
        // Extra taps must come out near zero.
        let true_ch = Fir::from_real(&[1.0, 0.3], 0);
        let mut rng = StdRng::seed_from_u64(2);
        let train = random_symbols(&mut rng, 96);
        let rx = true_ch.apply(&train);
        let est = estimate_channel_taps(&rx, &train, 5, 2).unwrap();
        let y_true = true_ch.apply(&train);
        let y_est = est.apply(&train);
        for k in 8..88 {
            assert!((y_true[k] - y_est[k]).abs() < 1e-6);
        }
    }

    #[test]
    fn inverse_cancels_channel() {
        let ch = Fir::new(
            vec![Complex::new(0.1, -0.05), Complex::new(1.0, 0.2), Complex::new(0.2, 0.1)],
            1,
        );
        let inv = design_inverse(&ch, 15).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_symbols(&mut rng, 128);
        let y = inv.apply(&ch.apply(&x));
        for k in 16..112 {
            assert!((y[k] - x[k]).abs() < 0.02, "k={k} err {}", (y[k] - x[k]).abs());
        }
    }

    #[test]
    fn inverse_of_identity_is_identity_like() {
        let inv = design_inverse(&Fir::identity(), 7).unwrap();
        let x: Vec<Complex> = (0..32).map(|k| Complex::cis(k as f64 * 0.4)).collect();
        let y = inv.apply(&x);
        for k in 4..28 {
            assert!((y[k] - x[k]).abs() < 1e-6);
        }
    }

    #[test]
    fn train_on_preamble_roundtrip() {
        // End-to-end: distort the preamble, train, verify equalized output
        // matches the clean preamble.
        let p = Preamble::standard(64);
        let ch = Fir::new(
            vec![Complex::new(0.12, 0.03), Complex::new(0.9, -0.15), Complex::new(0.18, -0.02)],
            1,
        );
        let rx = ch.apply(p.symbols());
        let channel = estimate_channel_taps(&rx, p.symbols(), 5, 2).unwrap();
        let inverse = design_inverse(&channel, DEFAULT_EQUALIZER_TAPS).unwrap();
        // equalization is `inverse.apply`; the engine's hot path uses the
        // in-place `apply_into`, asserted equal below
        let recovered = inverse.apply(&rx);
        #[allow(clippy::needless_range_loop)]
        for k in 8..56 {
            assert!(
                (recovered[k] - p.symbols()[k]).abs() < 0.05,
                "k={k} err {}",
                (recovered[k] - p.symbols()[k]).abs()
            );
        }
        // the in-place variant must agree exactly
        let mut out = Vec::new();
        inverse.apply_into(&rx, &mut out);
        assert_eq!(out, recovered);
    }

    #[test]
    fn reencode_path_matches_channel_output() {
        // §4.2.4d: the re-encoder applies the *estimated channel* to clean
        // symbols; the result must match what the receiver actually saw.
        let p = Preamble::standard(64);
        let ch = Fir::new(
            vec![Complex::new(0.1, 0.0), Complex::new(1.0, 0.0), Complex::new(0.2, 0.0)],
            1,
        );
        let rx = ch.apply(p.symbols());
        let channel = estimate_channel_taps(&rx, p.symbols(), 5, 2).unwrap();
        let reencoded = channel.apply(p.symbols());
        for k in 4..60 {
            assert!((reencoded[k] - rx[k]).abs() < 1e-6);
        }
    }

    #[test]
    fn too_short_training_returns_none() {
        let p = Preamble::standard(6);
        assert!(estimate_channel_taps(p.symbols(), p.symbols(), 5, 2).is_none());
    }
}
