//! Sliding correlation against known sequences.
//!
//! §4.2.1: "The AP detects a collision by correlating the known preamble
//! with the received signal … the AP should compute the value of the
//! correlation after compensating for the frequency offset:
//! `Γ'(Δ) = Σ_k s*[k]·y[k+Δ]·e^{−j2πkδf_B T}`. The magnitude of Γ'(Δ) …
//! spikes when the preamble aligns with the beginning of Bob's packet."
//!
//! The same primitive, pointed at stored samples instead of the preamble,
//! implements collision *matching* (§4.2.2).

use crate::complex::{Complex, ZERO};

/// Frequency-compensated correlation of the known sequence `s` against `y`
/// at offset `delta`:
/// `Γ'(Δ) = Σ_k s*[k] · y[Δ+k] · e^{−j·ω·k}` where `ω = 2π·δf·T` is the
/// frequency offset in radians per sample. Samples past the end of `y`
/// contribute zero.
pub fn corr_at(y: &[Complex], s: &[Complex], delta: usize, omega: f64) -> Complex {
    let mut acc = ZERO;
    let end = s.len().min(y.len().saturating_sub(delta));
    for k in 0..end {
        acc += s[k].conj() * y[delta + k] * Complex::cis(-omega * k as f64);
    }
    acc
}

/// Runs the sliding correlation over `positions` (typically
/// `0..y.len()`): fills `out` (cleared first) with the correlation at
/// each offset, reusing its allocation. The collision
/// detector runs one full-buffer scan per associated client per sampling
/// grid, so this is the single largest allocation in the receive path.
pub fn scan_into(
    y: &[Complex],
    s: &[Complex],
    omega: f64,
    positions: std::ops::Range<usize>,
    out: &mut Vec<Complex>,
) {
    out.clear();
    out.extend(positions.map(|d| corr_at(y, s, d, omega)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble::Preamble;

    #[test]
    fn peak_value_estimates_channel() {
        // §4.2.4a: at the peak, Γ' = H·Σ|s|².
        let p = Preamble::standard(32);
        let h = Complex::from_polar(0.8, 1.1);
        let mut y = vec![ZERO; 100];
        for (k, &s) in p.symbols().iter().enumerate() {
            y[30 + k] = h * s;
        }
        let c = corr_at(&y, p.symbols(), 30, 0.0);
        let h_est = c / p.energy();
        assert!((h_est - h).abs() < 1e-9);
    }

    #[test]
    fn frequency_offset_destroys_uncompensated_correlation() {
        // §4.2.1: "the terms inside the sum have different angles and may
        // cancel each other" — and compensation restores the spike.
        let p = Preamble::standard(64);
        let omega = 0.25; // strong offset: ~2.5 full rotations over the preamble
        let mut y = vec![ZERO; 128];
        for (k, &s) in p.symbols().iter().enumerate() {
            y[20 + k] = s * Complex::cis(omega * k as f64);
        }
        let plain = corr_at(&y, p.symbols(), 20, 0.0).abs();
        let comp = corr_at(&y, p.symbols(), 20, omega).abs();
        assert!(comp > 0.99 * p.energy());
        assert!(plain < 0.3 * comp, "plain {plain} comp {comp}");
    }

    #[test]
    fn corr_beyond_buffer_is_partial() {
        let p = Preamble::standard(32);
        let y = vec![Complex::real(1.0); 16];
        // Only 16 of 32 samples overlap; must not panic.
        let c = corr_at(&y, p.symbols(), 0, 0.0);
        assert!(c.abs() <= 16.0 + 1e-9);
    }
}
