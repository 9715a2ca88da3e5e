//! Maximal-ratio combining (MRC).
//!
//! §4.1 footnote: "If the AP receives two versions of the iᵗʰ bit … MRC
//! estimates the bit as the average of these two receptions" (for equal
//! channel gains; in general, receptions are weighted by their
//! signal-to-noise ratios, Brennan 1955). ZigZag uses MRC twice:
//!
//! * combining the **forward and backward decoding passes** of a collision
//!   pair (§4.3b), which is why ZigZag's BER beats collision-free
//!   transmission (every symbol is received twice);
//! * combining **two faulty versions of Bob's packet** recovered by
//!   subtracting different Alice packets in capture scenarios (Fig 4-1d).

use crate::complex::{Complex, ZERO};

/// Combines two equally-weighted soft symbol streams (the equal-gain case
/// of MRC — appropriate when both copies traversed the same quasi-static
/// channel, as for the two collisions of a retransmission pair).
///
/// Streams may have different lengths; the tail of the longer one is passed
/// through unchanged.
pub fn combine_pair(a: &[Complex], b: &[Complex]) -> Vec<Complex> {
    let n = a.len().max(b.len());
    (0..n)
        .map(|k| match (a.get(k), b.get(k)) {
            (Some(&x), Some(&y)) => (x + y).scale(0.5),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => ZERO,
        })
        .collect()
}

/// Full MRC: combines streams with per-stream weights
/// `w_i = SNRᵢ` (∝ |Hᵢ|²/σᵢ²), returning `Σ wᵢ·sᵢ / Σ wᵢ` per symbol.
///
/// Panics if `streams` is empty. Missing symbols (short streams) simply
/// drop out of the weighted sum for that position.
pub fn combine_weighted(streams: &[(&[Complex], f64)]) -> Vec<Complex> {
    let mut out = Vec::new();
    combine_weighted_into(streams, &mut out);
    out
}

/// In-place variant of [`combine_weighted`]: fills `out` (cleared first)
/// with the combined stream, reusing its allocation.
pub fn combine_weighted_into(streams: &[(&[Complex], f64)], out: &mut Vec<Complex>) {
    assert!(!streams.is_empty(), "MRC needs at least one stream");
    let n = streams.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    out.clear();
    out.extend((0..n).map(|k| {
        let mut num = ZERO;
        let mut den = 0.0;
        for &(s, w) in streams {
            if let Some(&v) = s.get(k) {
                num += v.scale(w);
                den += w;
            }
        }
        if den > 0.0 {
            num / den
        } else {
            ZERO
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::Modulation;
    use rand::prelude::*;

    fn awgn(rng: &mut StdRng, sigma: f64) -> Complex {
        let u1: f64 = rng.gen_range(1e-12..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        Complex::from_polar(
            (-2.0 * u1.ln()).sqrt() * sigma / 2.0_f64.sqrt(),
            2.0 * std::f64::consts::PI * u2,
        )
    }

    #[test]
    fn paper_footnote_example() {
        // "The first version is −0.2 and the second is +0.5 … MRC estimates
        // the bit as the average (0.5 − 0.2)/2 = 0.15 > 0 hence a 1 bit."
        let combined = combine_pair(&[Complex::real(-0.2)], &[Complex::real(0.5)]);
        assert!((combined[0].re - 0.15).abs() < 1e-12);
        let mut bits = Vec::new();
        Modulation::Bpsk.decide_bits(combined[0], &mut bits);
        assert_eq!(bits, [1]);
    }

    #[test]
    fn combining_halves_error_rate_significantly() {
        // Two noisy BPSK copies at ~7 dB: combined BER must be well below
        // single-copy BER (this is the §4.3b mechanism behind Fig 5-3's
        // 1.4x BER gain).
        let mut rng = StdRng::seed_from_u64(10);
        let n = 60_000;
        let bits: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        let clean = Modulation::Bpsk.modulate(&bits);
        let sigma = 0.45_f64; // ~6.9 dB
        let copy = |rng: &mut StdRng| -> Vec<Complex> {
            clean.iter().map(|&s| s + awgn(rng, sigma)).collect()
        };
        let a = copy(&mut rng);
        let b = copy(&mut rng);
        let ber = |syms: &[Complex]| -> f64 {
            let dec = Modulation::Bpsk.demodulate(syms);
            crate::bits::bit_error_rate(&bits, &dec)
        };
        let single = ber(&a);
        let combined = ber(&combine_pair(&a, &b));
        assert!(single > 0.0);
        assert!(combined < single / 3.0, "single {single:.5} combined {combined:.5}");
    }

    #[test]
    fn weighted_favours_strong_stream() {
        // A clean stream with weight 9 against garbage with weight 1: the
        // combination must follow the clean stream's sign.
        let good = [Complex::real(1.0); 8];
        let bad = [Complex::real(-1.0); 8];
        let out = combine_weighted(&[(&good, 9.0), (&bad, 1.0)]);
        for v in out {
            assert!(v.re > 0.5);
        }
    }

    #[test]
    fn weighted_equal_weights_matches_pair() {
        let a: Vec<Complex> = (0..16).map(|k| Complex::cis(k as f64 * 0.3)).collect();
        let b: Vec<Complex> = (0..16).map(|k| Complex::cis(k as f64 * -0.2)).collect();
        let w = combine_weighted(&[(&a, 1.0), (&b, 1.0)]);
        let p = combine_pair(&a, &b);
        for (x, y) in w.iter().zip(p.iter()) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }

    #[test]
    fn length_mismatch_passes_through_tail() {
        let a = [Complex::real(1.0); 4];
        let b = [Complex::real(0.0); 2];
        let out = combine_pair(&a, &b);
        assert_eq!(out.len(), 4);
        assert!((out[0].re - 0.5).abs() < 1e-12);
        assert!((out[3].re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_weight_yields_zero() {
        let a = [Complex::real(1.0); 2];
        let out = combine_weighted(&[(&a, 0.0)]);
        assert_eq!(out[0], ZERO);
    }
}
