//! Modulation and demodulation.
//!
//! The prototype in the paper runs BPSK ("the modulation scheme that 802.11
//! uses at low rates", §5.1b), but a key claim of the design is that ZigZag
//! "can employ a standard 802.11 decoder as a black-box …, which allows it
//! to work with collisions independent of their underlying modulation
//! scheme" (§1). We therefore implement the whole constellation family used
//! by 802.11 single-carrier rates — BPSK, QPSK (called 4-QAM in §4.3),
//! 16-QAM and 64-QAM — behind one [`Modulation`] type, and the test suite
//! exercises ZigZag over all of them, including collisions whose two packets
//! use *different* modulations.
//!
//! All constellations are normalised to unit average symbol energy so that
//! SNR has the same meaning for every scheme.

use crate::complex::Complex;

/// A linear memoryless modulation scheme (one constellation).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Modulation {
    /// Binary phase-shift keying: bit 0 → −1, bit 1 → +1 (§3).
    Bpsk,
    /// Quadrature PSK / 4-QAM, Gray mapped, 2 bits per symbol.
    Qpsk,
    /// 16-QAM, Gray mapped per axis, 4 bits per symbol.
    Qam16,
    /// 64-QAM, Gray mapped per axis, 6 bits per symbol.
    Qam64,
}

impl Modulation {
    /// All supported schemes, in increasing spectral efficiency.
    pub const ALL: [Modulation; 4] =
        [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];

    /// Bits carried by one symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Per-axis amplitude normaliser giving unit average symbol energy.
    fn axis_scale(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            // E[|s|^2] for square M-QAM with levels ±1,±3,… is 2(M-1)/3 per
            // complex symbol before scaling; normalise it away.
            Modulation::Qpsk => 1.0 / (2.0f64).sqrt(),
            Modulation::Qam16 => 1.0 / (10.0f64).sqrt(),
            Modulation::Qam64 => 1.0 / (42.0f64).sqrt(),
        }
    }

    /// Number of amplitude levels per axis (1 axis for BPSK).
    fn levels_per_axis(self) -> usize {
        match self {
            Modulation::Bpsk => 2,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 8,
        }
    }

    /// Maps a group of [`Self::bits_per_symbol`] bits to one constellation
    /// point. Missing bits (short final group) are treated as 0.
    pub fn map(self, bits: &[u8]) -> Complex {
        let bit = |i: usize| -> usize { bits.get(i).map_or(0, |&b| (b & 1) as usize) };
        match self {
            Modulation::Bpsk => Complex::real(if bit(0) == 1 { 1.0 } else { -1.0 }),
            Modulation::Qpsk => {
                let s = self.axis_scale();
                Complex::new(axis_level(bit(0), 2) * s, axis_level(bit(1), 2) * s)
            }
            Modulation::Qam16 => {
                let s = self.axis_scale();
                let i = bit(0) | (bit(1) << 1);
                let q = bit(2) | (bit(3) << 1);
                Complex::new(axis_level(i, 4) * s, axis_level(q, 4) * s)
            }
            Modulation::Qam64 => {
                let s = self.axis_scale();
                let i = bit(0) | (bit(1) << 1) | (bit(2) << 2);
                let q = bit(3) | (bit(4) << 1) | (bit(5) << 2);
                Complex::new(axis_level(i, 8) * s, axis_level(q, 8) * s)
            }
        }
    }

    /// Modulates a full bit stream into symbols. The final group is
    /// zero-padded if `bits.len()` is not a multiple of the symbol size.
    pub fn modulate(self, bits: &[u8]) -> Vec<Complex> {
        bits.chunks(self.bits_per_symbol()).map(|g| self.map(g)).collect()
    }

    /// The one hard-decision rule: the per-axis level ordinals of the
    /// nearest constellation point, clamped to the outermost level (BPSK
    /// has one axis, `i`; its `q` is unused). A NaN coordinate decides
    /// to ordinal 0, ±∞ to the outermost levels, and BPSK decides `±0`
    /// to bit 1.
    fn nearest(self, y: Complex) -> (u32, u32) {
        match self {
            Modulation::Bpsk => (u32::from(y.re >= 0.0), 0),
            Modulation::Qpsk | Modulation::Qam16 | Modulation::Qam64 => {
                let (n, s) = (self.levels_per_axis(), self.axis_scale());
                (nearest_level(y.re / s, n), nearest_level(y.im / s, n))
            }
        }
    }

    /// Hard decision, point form: the clean constellation point nearest
    /// `y` (the point [`Self::map`] gives for the bits
    /// [`Self::decide_bits`] appends).
    ///
    /// The clean point feeds two consumers: the decision-directed PLL
    /// (phase error = ∠(y·conj(decision))) and ZigZag's re-encoder, which
    /// re-modulates decided chunks before subtracting them from the other
    /// collision (§4.2.3b).
    pub fn decide_point(self, y: Complex) -> Complex {
        let (i, q) = self.nearest(y);
        match self {
            Modulation::Bpsk => Complex::real(if i == 1 { 1.0 } else { -1.0 }),
            Modulation::Qpsk | Modulation::Qam16 | Modulation::Qam64 => {
                let (n, s) = (self.levels_per_axis(), self.axis_scale());
                Complex::new(ordinal_level(i, n) * s, ordinal_level(q, n) * s)
            }
        }
    }

    /// Hard decision, bit form: appends the [`Self::bits_per_symbol`]
    /// decided bits of `y` to `bits` (Gray coded, in-phase axis first).
    pub fn decide_bits(self, y: Complex, bits: &mut Vec<u8>) {
        let (i, q) = self.nearest(y);
        match self {
            Modulation::Bpsk => bits.push(i as u8),
            Modulation::Qpsk | Modulation::Qam16 | Modulation::Qam64 => {
                let half = self.bits_per_symbol() / 2;
                for axis in [i, q] {
                    let g = gray_encode(axis);
                    bits.extend((0..half).map(|k| ((g >> k) & 1) as u8));
                }
            }
        }
    }

    /// Demodulates a symbol stream with hard decisions.
    pub fn demodulate(self, symbols: &[Complex]) -> Vec<u8> {
        let mut bits = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        for &y in symbols {
            self.decide_bits(y, &mut bits);
        }
        bits
    }

    /// Number of symbols needed to carry `n_bits`.
    pub fn symbols_for_bits(self, n_bits: usize) -> usize {
        n_bits.div_ceil(self.bits_per_symbol())
    }

    /// Minimum distance between constellation points (unit-energy scale).
    /// Determines the noise margin of a hard decision.
    pub fn min_distance(self) -> f64 {
        match self {
            Modulation::Bpsk => 2.0,
            _ => 2.0 * self.axis_scale(),
        }
    }
}

/// Amplitude of the `idx`-th Gray-coded level out of `n` (odd integers
/// −(n−1)…(n−1)).
fn axis_level(gray_idx: usize, n: usize) -> f64 {
    ordinal_level(gray_decode(gray_idx as u32), n)
}

/// Amplitude of the `ordinal`-th level out of `n`, counted from the most
/// negative.
fn ordinal_level(ordinal: u32, n: usize) -> f64 {
    debug_assert!((ordinal as usize) < n);
    (2 * ordinal as usize) as f64 - (n - 1) as f64
}

/// Nearest level ordinal for amplitude `a` among odd integers of an `n`-level
/// axis, clamped to the outermost level.
fn nearest_level(a: f64, n: usize) -> u32 {
    let ordinal = ((a + (n - 1) as f64) / 2.0).round();
    ordinal.clamp(0.0, (n - 1) as f64) as u32
}

fn gray_encode(x: u32) -> u32 {
    x ^ (x >> 1)
}

fn gray_decode(mut g: u32) -> u32 {
    let mut x = g;
    while g > 0 {
        g >>= 1;
        x ^= g;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use rand::prelude::*;

    #[test]
    fn bpsk_mapping_matches_paper() {
        // §3: BPSK maps a "0" bit to −1 and a "1" bit to 1.
        assert_eq!(Modulation::Bpsk.map(&[0]), Complex::real(-1.0));
        assert_eq!(Modulation::Bpsk.map(&[1]), Complex::real(1.0));
    }

    #[test]
    fn all_schemes_unit_energy() {
        let mut rng = StdRng::seed_from_u64(7);
        for m in Modulation::ALL {
            let bits: Vec<u8> = (0..6000).map(|_| rng.gen_range(0..2u8)).collect();
            let syms = m.modulate(&bits);
            let p = mean_power(&syms);
            assert!((p - 1.0).abs() < 0.05, "{m:?} mean power {p}");
        }
    }

    #[test]
    fn roundtrip_noiseless_all_schemes() {
        let mut rng = StdRng::seed_from_u64(42);
        for m in Modulation::ALL {
            let n = 120 * m.bits_per_symbol();
            let bits: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
            let syms = m.modulate(&bits);
            assert_eq!(m.demodulate(&syms), bits, "{m:?} roundtrip failed");
        }
    }

    #[test]
    fn decide_returns_consistent_point() {
        let mut rng = StdRng::seed_from_u64(3);
        for m in Modulation::ALL {
            for _ in 0..200 {
                let y = Complex::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
                let mut bits = Vec::new();
                m.decide_bits(y, &mut bits);
                assert_eq!(m.map(&bits), m.decide_point(y), "{m:?} decide/map mismatch");
            }
        }
    }

    #[test]
    fn decide_is_nearest_neighbour() {
        // Exhaustive: the decided point must be at least as close as every
        // other constellation point.
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            let all_points: Vec<Complex> = (0..(1usize << bps))
                .map(|v| {
                    let bits: Vec<u8> = (0..bps).map(|k| ((v >> k) & 1) as u8).collect();
                    m.map(&bits)
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..500 {
                let y = Complex::new(rng.gen_range(-1.5..1.5), rng.gen_range(-1.5..1.5));
                let p = m.decide_point(y);
                let d = (y - p).norm_sq();
                for &q in &all_points {
                    assert!(d <= (y - q).norm_sq() + 1e-12, "{m:?}: {y:?} -> {p:?} not nearest");
                }
            }
        }
    }

    /// The allocating hard decision both forms replaced, kept verbatim as
    /// their oracle: the decided bits and the point `map` gives for them.
    fn decide_oracle(m: Modulation, y: Complex) -> (Vec<u8>, Complex) {
        match m {
            Modulation::Bpsk => {
                let bit = u8::from(y.re >= 0.0);
                (vec![bit], m.map(&[bit]))
            }
            Modulation::Qpsk | Modulation::Qam16 | Modulation::Qam64 => {
                let n = m.levels_per_axis();
                let s = m.axis_scale();
                let i = nearest_level(y.re / s, n);
                let q = nearest_level(y.im / s, n);
                let half = m.bits_per_symbol() / 2;
                let mut bits = Vec::with_capacity(m.bits_per_symbol());
                for k in 0..half {
                    bits.push(((gray_encode(i) >> k) & 1) as u8);
                }
                for k in 0..half {
                    bits.push(((gray_encode(q) >> k) & 1) as u8);
                }
                let point = m.map(&bits);
                (bits, point)
            }
        }
    }

    /// One coordinate: mostly near the constellation, sometimes one of
    /// the edge values (±0, decision boundaries, huge, non-finite).
    fn coordinate(rng: &mut StdRng) -> f64 {
        let edges = [
            0.0,
            -0.0,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            2.0 / 1.0e1_f64.sqrt(),
            -4.0 / 42.0_f64.sqrt(),
        ];
        if rng.gen_range(0..4u8) == 0 {
            edges[rng.gen_range(0..edges.len())]
        } else {
            rng.gen_range(-2.0..2.0)
        }
    }

    proptest::proptest! {
        /// The point form and the bit form equal the allocating decision
        /// they replaced, bit for bit, on every modulation.
        #[test]
        fn decision_forms_equal_the_allocating_decide(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let y = Complex::new(coordinate(&mut rng), coordinate(&mut rng));
                for m in Modulation::ALL {
                    let (want_bits, want_point) = decide_oracle(m, y);
                    let mut bits = vec![7u8];
                    m.decide_bits(y, &mut bits);
                    assert_eq!(bits[0], 7, "{m:?} {y:?}: bits must append");
                    assert_eq!(bits[1..], want_bits[..], "{m:?} {y:?}: bits");
                    let point = m.decide_point(y);
                    assert_eq!(
                        (point.re.to_bits(), point.im.to_bits()),
                        (want_point.re.to_bits(), want_point.im.to_bits()),
                        "{m:?} {y:?}: point"
                    );
                }
            }
        }
    }

    #[test]
    fn gray_neighbours_differ_by_one_bit() {
        // Adjacent amplitude levels must differ in exactly one bit — the
        // property that makes small noise cause single-bit errors.
        for n in [2usize, 4, 8] {
            for ord in 0..n - 1 {
                let g1 = gray_encode(ord as u32);
                let g2 = gray_encode(ord as u32 + 1);
                assert_eq!((g1 ^ g2).count_ones(), 1);
            }
        }
    }

    #[test]
    fn gray_encode_decode_roundtrip() {
        for x in 0..64u32 {
            assert_eq!(gray_decode(gray_encode(x)), x);
        }
    }

    #[test]
    fn symbols_for_bits_rounds_up() {
        assert_eq!(Modulation::Qpsk.symbols_for_bits(5), 3);
        assert_eq!(Modulation::Bpsk.symbols_for_bits(8), 8);
        assert_eq!(Modulation::Qam16.symbols_for_bits(0), 0);
    }

    #[test]
    fn min_distance_ordering() {
        // Denser constellations have smaller minimum distance.
        let d: Vec<f64> = Modulation::ALL.iter().map(|m| m.min_distance()).collect();
        for w in d.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn clamping_of_out_of_range_samples() {
        // A wildly out-of-range sample still decides to the outermost point.
        let mut bits = Vec::new();
        Modulation::Qam16.decide_bits(Complex::new(100.0, -100.0), &mut bits);
        let p = Modulation::Qam16.map(&bits);
        let max_axis = 3.0 / (10.0f64).sqrt();
        assert!((p.re - max_axis).abs() < 1e-12);
        assert!((p.im + max_axis).abs() < 1e-12);
    }
}
