//! FIR filtering.
//!
//! Two places in the system are FIR filters: the multipath/hardware
//! distortion the channel applies (§3.1.3, inter-symbol interference), and
//! the receiver's linear equalizer that undoes it (§3.1.3: "practical
//! receivers apply linear equalizers to mitigate the effect of ISI").
//! ZigZag additionally needs to *re-apply* the distortion when it
//! reconstructs a chunk image ("we can take the filter from the decoder and
//! invert it", §4.2.4d), so the filter type is shared by all three users.

use crate::complex::{Complex, ZERO};

/// A finite-impulse-response filter with complex taps.
///
/// `delay` is the index of the tap treated as "time zero": applying the
/// filter with delay `d` produces an output aligned with the input (the
/// output at index `n` is `Σ_l taps[l]·x[n + d − l]`). This matches the
/// paper's two-sided sum `x[i] = Σ_{l=−L..L} h_l·x_isi[i+l]` with
/// `delay = L`.
#[derive(Clone, Debug, PartialEq)]
pub struct Fir {
    taps: Vec<Complex>,
    delay: usize,
}

impl Fir {
    /// Creates a filter from taps and its nominal delay (index of the
    /// "main" tap).
    pub fn new(taps: Vec<Complex>, delay: usize) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        assert!(delay < taps.len(), "delay must index a tap");
        Self { taps, delay }
    }

    /// A pass-through (identity) filter.
    pub fn identity() -> Self {
        Self { taps: vec![Complex::real(1.0)], delay: 0 }
    }

    /// Creates a causal filter (delay 0) from real taps.
    pub fn from_real(taps: &[f64], delay: usize) -> Self {
        Self::new(taps.iter().map(|&t| Complex::real(t)).collect(), delay)
    }

    /// The taps.
    pub fn taps(&self) -> &[Complex] {
        &self.taps
    }

    /// The delay (index of the time-zero tap).
    pub fn delay(&self) -> usize {
        self.delay
    }

    /// Number of taps.
    #[allow(clippy::len_without_is_empty)] // non-empty by construction
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if the filter is the exact identity.
    pub fn is_identity(&self) -> bool {
        self.taps.len() == 1 && self.delay == 0 && self.taps[0] == Complex::real(1.0)
    }

    /// Filters a signal, producing an output of the same length aligned
    /// with the input (out-of-range input treated as zero).
    pub fn apply(&self, x: &[Complex]) -> Vec<Complex> {
        let mut y = Vec::new();
        self.apply_into(x, &mut y);
        y
    }

    /// In-place variant of [`Fir::apply`]: fills `y` (cleared first) with
    /// the filtered signal, reusing its allocation. This is the hot-path
    /// entry point used by the decode engine's scratch buffers.
    pub fn apply_into(&self, x: &[Complex], y: &mut Vec<Complex>) {
        y.clear();
        if self.is_identity() {
            y.extend_from_slice(x);
            return;
        }
        y.resize(x.len(), ZERO);
        for (n, out) in y.iter_mut().enumerate() {
            *out = self.tap_sum(x, n);
        }
    }

    /// The shared tap-accumulation loop: output sample `n` is
    /// `Σ_l taps[l]·x[n + delay − l]` with out-of-range inputs as zero.
    /// Both [`Fir::apply_into`] and [`Fir::apply_at`] (the equalizer's
    /// single-sample path) go through this, so they cannot drift apart.
    #[inline]
    fn tap_sum(&self, x: &[Complex], n: usize) -> Complex {
        let mut acc = ZERO;
        for (l, &t) in self.taps.iter().enumerate() {
            let idx = n as isize + self.delay as isize - l as isize;
            if idx >= 0 && (idx as usize) < x.len() {
                acc += t * x[idx as usize];
            }
        }
        acc
    }

    /// Filters a single output sample at position `n` of signal `x`.
    pub fn apply_at(&self, x: &[Complex], n: usize) -> Complex {
        self.tap_sum(x, n)
    }

    /// Energy of the taps, `Σ|h_l|²`.
    pub fn energy(&self) -> f64 {
        self.taps.iter().map(|t| t.norm_sq()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: usize) -> Vec<Complex> {
        (0..n).map(|k| Complex::cis(0.3 * k as f64).scale(1.0 + 0.1 * (k % 5) as f64)).collect()
    }

    #[test]
    fn identity_passthrough() {
        let x = sig(20);
        assert_eq!(Fir::identity().apply(&x), x);
    }

    #[test]
    fn delay_alignment() {
        // taps [0, 1] with delay 1 is the identity; with delay 0 it is a
        // one-sample delay.
        let x = sig(10);
        let f_id = Fir::from_real(&[0.0, 1.0], 1);
        let got = f_id.apply(&x);
        for k in 0..10 {
            assert!((got[k] - x[k]).abs() < 1e-12);
        }
        let f_delay = Fir::from_real(&[0.0, 1.0], 0);
        let got = f_delay.apply(&x);
        for k in 1..10 {
            assert!((got[k] - x[k - 1]).abs() < 1e-12);
        }
        assert_eq!(got[0], ZERO);
    }

    #[test]
    fn symmetric_isi_filter() {
        // The paper's two-sided ISI sum: h = [0.1, 1.0, 0.2], delay 1.
        let f = Fir::from_real(&[0.1, 1.0, 0.2], 1);
        let x = vec![ZERO, Complex::real(1.0), ZERO, ZERO];
        let y = f.apply(&x);
        // impulse response centered at the impulse position
        assert!((y[0].re - 0.1).abs() < 1e-12);
        assert!((y[1].re - 1.0).abs() < 1e-12);
        assert!((y[2].re - 0.2).abs() < 1e-12);
    }

    #[test]
    fn apply_at_matches_apply() {
        let f = Fir::from_real(&[0.2, 0.9, -0.1, 0.05], 1);
        let x = sig(32);
        let y = f.apply(&x);
        #[allow(clippy::needless_range_loop)]
        for n in 0..32 {
            assert!((f.apply_at(&x, n) - y[n]).abs() < 1e-12);
        }
    }

    #[test]
    fn energy() {
        let f = Fir::from_real(&[3.0, 4.0], 0);
        assert!((f.energy() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_taps_panics() {
        let _ = Fir::new(vec![], 0);
    }

    #[test]
    #[should_panic]
    fn bad_delay_panics() {
        let _ = Fir::from_real(&[1.0], 1);
    }
}
