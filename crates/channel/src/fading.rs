//! The flat-fading quasi-static channel with real-radio impairments.
//!
//! §3 models reception as `y[n] = H·x[n] + w[n]` with `H = h·e^{jγ}`
//! ("flat-fading quasi-static channels"), and §3.1 adds the three
//! practical impairments a decoder must handle:
//!
//! 1. **Frequency offset** (§3.1.1): `y[n] = H·x[n]·e^{j2πnδfT} + w[n]` —
//!    modelled by `omega` in radians/sample.
//! 2. **Sampling offset** (§3.1.2): the receiver samples the band-limited
//!    continuous signal `µ` seconds away from the transmitter's sample
//!    points, and clock drift makes `µ` wander — modelled by windowed-sinc
//!    resampling at positions `n·(1+drift) + µ`. The resampling runs on the
//!    kernel's cached-tap resampler ([`Kernel::resample_into`]), which is
//!    bit-identical to the scalar reference
//!    [`zigzag_phy::interp::resample_into`] and refills its 16–17 sinc·Hann
//!    taps only when the fractional position changes. On a drift-free
//!    link that is about `log₂(len)` times per frame (positions `µ + n`
//!    share one fraction within each binade); a drifting link moves the
//!    fraction at every sample and fills fresh taps per output. A fill is
//!    the closed form of [`zigzag_phy::interp::fill_taps`] — one sine and
//!    one rotated `sin_cos` for all taps, not two transcendentals per tap —
//!    so a drifting link costs a few times a drift-free one, not ten.
//! 3. **Inter-symbol interference** (§3.1.3): neighbouring symbols leak
//!    into each other via multipath/filters — modelled by a short FIR.
//!
//! Beyond §3.1 we add **oscillator phase noise** (a small per-symbol phase
//! random walk). Real USRP front-ends have it, and it is what bounds
//! interference-cancellation quality at very high SNR — the effect behind
//! Fig 5-4's observation that when Alice's power is excessively high,
//! "even a small imperfection in subtracting her signal" swamps Bob.
//! (See DESIGN.md §2.)

use crate::noise::amplitude_for_snr_db;
use rand::Rng;
use zigzag_phy::complex::Complex;
use zigzag_phy::filter::Fir;
use zigzag_phy::kernel::{BackendKind, Kernel};

/// Ground-truth parameters of one transmitter→receiver channel for one
/// packet transmission.
#[derive(Clone, Debug)]
pub struct ChannelParams {
    /// Complex channel gain `H = h·e^{jγ}` (§3: attenuation + phase shift).
    pub gain: Complex,
    /// Carrier-frequency offset in radians per sample (`2π·δf·T`).
    pub omega: f64,
    /// Fractional sampling offset `µ` in samples.
    pub sampling_offset: f64,
    /// Sampling-clock drift in samples per sample (ppm-scale).
    pub sampling_drift: f64,
    /// Multipath / hardware ISI taps (main tap ≈ 1; `gain` carries the
    /// overall scale).
    pub isi: Fir,
    /// Phase-noise random-walk standard deviation per symbol, radians.
    pub phase_noise: f64,
}

impl ChannelParams {
    /// An impairment-free unit channel (useful as a test baseline).
    pub fn ideal() -> Self {
        Self {
            gain: Complex::real(1.0),
            omega: 0.0,
            sampling_offset: 0.0,
            sampling_drift: 0.0,
            isi: Fir::identity(),
            phase_noise: 0.0,
        }
    }

    /// An ideal channel with amplitude set for the given SNR against
    /// unit-variance noise.
    pub fn ideal_with_snr(snr_db: f64) -> Self {
        Self { gain: Complex::real(amplitude_for_snr_db(snr_db)), ..Self::ideal() }
    }

    /// The SNR this channel produces against unit-variance noise, in dB.
    pub fn snr_db(&self) -> f64 {
        20.0 * self.gain.abs().log10()
    }

    /// Re-randomises what changes between two transmissions over the same
    /// link: the carrier phase at packet start (each transmission begins at
    /// an arbitrary oscillator phase) and the fractional sampling offset.
    /// Amplitude, frequency offset, ISI and drift are quasi-static across a
    /// retransmission pair.
    pub fn new_transmission<R: Rng + ?Sized>(&self, rng: &mut R) -> ChannelParams {
        let mut p = self.clone();
        p.gain = Complex::from_polar(
            self.gain.abs(),
            rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        );
        p.sampling_offset = rng.gen_range(-0.5..0.5);
        p
    }

    /// Passes a transmitted symbol stream through the channel (noiseless —
    /// noise is added once per *receiver* by the [`crate::mixer`], because
    /// colliding signals share one front end).
    ///
    /// Pipeline: resample at `n(1+drift)+µ` → ISI FIR → gain, frequency
    /// offset, phase-noise walk.
    ///
    /// The resampler is the default backend's [`Kernel::resample_into`],
    /// whose output equals the scalar windowed-sinc reference bit for bit.
    /// It caches the tap vector per fractional position, so a drift-free
    /// link (`sampling_drift == 0`) fills taps about `log₂(len)` times per
    /// transmission; a drifting link fills them for every sample, each
    /// fill one sine, one `sin_cos` and a division per tap
    /// ([`zigzag_phy::interp::fill_taps`]).
    pub fn apply<R: Rng + ?Sized>(&self, tx: &[Complex], rng: &mut R) -> Vec<Complex> {
        let mut resampled = Vec::new();
        if self.sampling_offset == 0.0 && self.sampling_drift == 0.0 {
            resampled.extend_from_slice(tx);
        } else {
            Kernel::new(BackendKind::default()).resample_into(
                tx,
                self.sampling_offset,
                1.0 + self.sampling_drift,
                tx.len(),
                &mut resampled,
            );
        }
        let shaped = self.isi.apply(&resampled);
        let mut pn = 0.0f64;
        shaped
            .iter()
            .enumerate()
            .map(|(n, &s)| {
                if self.phase_noise > 0.0 {
                    // Gaussian step via Box–Muller (single value).
                    let u1: f64 = rng.gen_range(1e-300..1.0);
                    let u2: f64 = rng.gen_range(0.0..1.0);
                    let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    pn += g * self.phase_noise;
                }
                self.gain * s * Complex::cis(self.omega * n as f64 + pn)
            })
            .collect()
    }
}

/// The long-lived radio profile of one sender as seen by one receiver:
/// what is *stable* across packets (nominal oscillator offset, multipath,
/// average SNR) versus what is *redrawn* per packet (oscillator jitter,
/// sampling phase).
///
/// The stable part is what an AP can learn at association time (§4.2.1:
/// "the AP can maintain coarse estimates of the frequency offsets of
/// active clients as obtained at the time of association"); the per-packet
/// part is what the decoder's tracking loops must absorb.
#[derive(Clone, Debug)]
pub struct LinkProfile {
    /// Mean SNR at the receiver, dB (unit noise).
    pub snr_db: f64,
    /// Nominal oscillator offset, radians/sample.
    pub omega_nominal: f64,
    /// Oscillator wander: actual ω per packet is uniform in
    /// `nominal ± jitter`. Default ≈2.5e-4 rad/sample puts the quarter-turn
    /// phase-error point near bit 6000 of a 1500-byte packet, matching
    /// Fig 5-2(a).
    pub omega_jitter: f64,
    /// Static multipath/hardware ISI for this link.
    pub isi: Fir,
    /// Sampling-clock drift (samples/sample).
    pub sampling_drift: f64,
    /// Phase-noise random-walk σ per symbol.
    pub phase_noise: f64,
    /// Quasi-static channel phase γ (stable across a retransmission pair).
    pub phase: f64,
}

/// Default oscillator jitter (rad/sample); see [`LinkProfile::omega_jitter`].
pub const DEFAULT_OMEGA_JITTER: f64 = 2.5e-4;
/// Default sampling-clock drift magnitude (20 ppm).
pub const DEFAULT_SAMPLING_DRIFT: f64 = 2.0e-5;
/// Default phase-noise random-walk σ per symbol (radians).
pub const DEFAULT_PHASE_NOISE: f64 = 0.012;

impl LinkProfile {
    /// Draws a typical link: random oscillator nominal (±0.1 rad/sample),
    /// random mild 5-tap ISI, random static phase — everything else at
    /// defaults.
    pub fn typical<R: Rng + ?Sized>(snr_db: f64, rng: &mut R) -> Self {
        let isi = Fir::new(
            vec![
                Complex::from_polar(rng.gen_range(0.02..0.10), rng.gen_range(-3.0..3.0)),
                Complex::from_polar(rng.gen_range(0.03..0.12), rng.gen_range(-3.0..3.0)),
                Complex::real(1.0),
                Complex::from_polar(rng.gen_range(0.08..0.22), rng.gen_range(-3.0..3.0)),
                Complex::from_polar(rng.gen_range(0.02..0.10), rng.gen_range(-3.0..3.0)),
            ],
            2,
        );
        Self {
            snr_db,
            omega_nominal: rng.gen_range(-0.1..0.1),
            omega_jitter: DEFAULT_OMEGA_JITTER,
            isi,
            sampling_drift: rng.gen_range(-DEFAULT_SAMPLING_DRIFT..DEFAULT_SAMPLING_DRIFT),
            phase_noise: DEFAULT_PHASE_NOISE,
            phase: rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
        }
    }

    /// A benign link for unit tests: no ISI, no drift, no phase noise,
    /// small fixed oscillator offset.
    pub fn clean(snr_db: f64) -> Self {
        Self::clean_with_omega(snr_db, 0.02)
    }

    /// A benign link with an explicit oscillator offset. Multi-sender
    /// receiver scenarios need this: the AP tells clients apart by their
    /// frequency-compensated correlations (§4.2.1), so every sender in a
    /// k-way workload must sit at a distinct ω — [`LinkProfile::clean`]
    /// pins all clients to the same oscillator, which makes them
    /// physically indistinguishable to the detector.
    pub fn clean_with_omega(snr_db: f64, omega_nominal: f64) -> Self {
        Self {
            snr_db,
            omega_nominal,
            omega_jitter: 0.0,
            isi: Fir::identity(),
            sampling_drift: 0.0,
            phase_noise: 0.0,
            phase: 0.7,
        }
    }

    /// Draws the concrete channel realisation for one packet transmission.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> ChannelParams {
        let omega = if self.omega_jitter > 0.0 {
            self.omega_nominal + rng.gen_range(-self.omega_jitter..self.omega_jitter)
        } else {
            self.omega_nominal
        };
        ChannelParams {
            gain: Complex::from_polar(amplitude_for_snr_db(self.snr_db), self.phase),
            omega,
            sampling_offset: rng.gen_range(-0.5..0.5),
            sampling_drift: self.sampling_drift,
            isi: self.isi.clone(),
            phase_noise: self.phase_noise,
        }
    }

    /// What the AP learned about this client at association: the nominal
    /// oscillator offset (the "coarse estimate" of §4.2.1).
    pub fn association_omega(&self) -> f64 {
        self.omega_nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use zigzag_phy::complex::mean_power;
    use zigzag_phy::modulation::Modulation;

    fn bpsk(rng: &mut StdRng, n: usize) -> Vec<Complex> {
        let bits: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();
        Modulation::Bpsk.modulate(&bits)
    }

    #[test]
    fn ideal_channel_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = bpsk(&mut rng, 100);
        let y = ChannelParams::ideal().apply(&x, &mut rng);
        assert_eq!(y, x);
    }

    #[test]
    fn gain_scales_power() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = bpsk(&mut rng, 5000);
        let ch = ChannelParams::ideal_with_snr(10.0);
        let y = ch.apply(&x, &mut rng);
        let p = mean_power(&y);
        assert!((p - 10.0).abs() < 0.3, "power {p}");
    }

    #[test]
    fn frequency_offset_rotates_linearly() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = vec![Complex::real(1.0); 200];
        let ch = ChannelParams { omega: 0.01, ..ChannelParams::ideal() };
        let y = ch.apply(&x, &mut rng);
        for (n, v) in y.iter().enumerate() {
            let expected = 0.01 * n as f64;
            let diff = (v.arg() - expected).rem_euclid(2.0 * std::f64::consts::PI);
            assert!(!(1e-9..=2.0 * std::f64::consts::PI - 1e-9).contains(&diff), "n={n}");
        }
    }

    #[test]
    fn sampling_offset_shifts_signal() {
        // A fractional offset must reproduce the sinc-interpolated stream.
        let mut rng = StdRng::seed_from_u64(4);
        let x = bpsk(&mut rng, 256);
        let ch = ChannelParams { sampling_offset: 0.3, ..ChannelParams::ideal() };
        let y = ch.apply(&x, &mut rng);
        let mut expected = Vec::new();
        zigzag_phy::interp::resample_into(&x, 0.3, 1.0, 256, &mut expected);
        assert_eq!(y, expected, "the channel must reproduce the scalar reference exactly");
    }

    #[test]
    fn isi_mixes_neighbours() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut x = vec![Complex::default(); 64];
        x[32] = Complex::real(1.0);
        let ch =
            ChannelParams { isi: Fir::from_real(&[0.2, 1.0, 0.3], 1), ..ChannelParams::ideal() };
        let y = ch.apply(&x, &mut rng);
        assert!((y[31].re - 0.2).abs() < 1e-12);
        assert!((y[32].re - 1.0).abs() < 1e-12);
        assert!((y[33].re - 0.3).abs() < 1e-12);
    }

    #[test]
    fn phase_noise_wanders_but_preserves_power() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = vec![Complex::real(1.0); 10_000];
        let ch = ChannelParams { phase_noise: 0.01, ..ChannelParams::ideal() };
        let y = ch.apply(&x, &mut rng);
        assert!((mean_power(&y) - 1.0).abs() < 1e-9);
        // The endpoint phase should have wandered noticeably
        // (σ·√n ≈ 0.01·100 = 1 rad scale).
        let drift = y[9999].arg().abs();
        assert!(drift > 0.05, "phase walked only {drift}");
    }

    #[test]
    fn profile_draw_respects_jitter_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = LinkProfile::typical(12.0, &mut rng);
        for _ in 0..100 {
            let ch = p.draw(&mut rng);
            assert!((ch.omega - p.omega_nominal).abs() <= p.omega_jitter + 1e-12);
            assert!((ch.snr_db() - 12.0).abs() < 1e-9);
        }
    }

    #[test]
    fn clean_profile_is_deterministic_apart_from_sampling_phase() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = LinkProfile::clean(15.0);
        let ch = p.draw(&mut rng);
        assert_eq!(ch.omega, 0.02);
        assert_eq!(ch.phase_noise, 0.0);
        assert!(ch.isi.is_identity());
    }

    #[test]
    fn quasi_static_gain_stable_across_draws() {
        // §4.3's MRC assumes "the channel has not changed between the two
        // receptions": H must be identical across draws of one profile.
        let mut rng = StdRng::seed_from_u64(9);
        let p = LinkProfile::typical(9.0, &mut rng);
        let a = p.draw(&mut rng);
        let b = p.draw(&mut rng);
        assert_eq!(a.gain, b.gain);
    }
}
