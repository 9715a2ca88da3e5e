//! Pluggable compute backends for the phy hot loops.
//!
//! The receiver spends essentially all of its cycles in four primitives
//! (§4.2, §4.6): the sliding preamble **correlation** that detects and
//! aligns collisions, the **FIR** convolution that applies/undoes ISI,
//! the windowed-sinc **resampling** that moves chunks between sampling
//! grids, and the **MRC** combiner of the forward/backward passes. This
//! module puts those four behind a [`Backend`] trait with two
//! implementations:
//!
//! * [`Scalar`] — delegates to the original loops in [`crate::correlate`],
//!   [`crate::filter`], [`crate::interp`] and [`crate::mrc`]. It is the
//!   numerical reference the differential tests compare against.
//! * [`Simd`] — the production backend. Structure-of-arrays staging
//!   (`re`/`im` split `f64` slices) plus the algorithmic wins: the
//!   correlation pre-derotates the reference once per scan instead of
//!   paying a sin/cos per inner-loop sample, the FIR runs a single-pass
//!   interior sweep, and the resampler keeps one sinc·hann tap vector,
//!   cached across calls and refilled only when the exact fractional
//!   offset changes. On a unit grid it finds each whole run of outputs
//!   that share that vector and sweeps the run's in-buffer part sixteen
//!   outputs per block. The inner loops are explicit four-lane kernels
//!   (the private `lanes` module): stable `std::arch` AVX2 intrinsics
//!   behind a once-cached runtime [`is_x86_feature_detected!`] check,
//!   and a portable `[f64; 4]` fallback with identical per-lane
//!   arithmetic everywhere else, so the AVX2 and portable paths agree
//!   bit for bit.
//!
//! A fifth primitive joined in the k-way matching PR: the normalized
//! **match metric** of §4.2.2 (`match_score`), the correlation of a span
//! of one collision buffer against a sub-sample-interpolated span of
//! another, maximized over a τ sweep. It is the inner product the k-way
//! alignment path evaluates thousands of times per buffer, so it gets
//! the same treatment as the scan: the `Simd` backend hoists the
//! interpolation out of the τ loop onto pre-built sub-sample *lattices*
//! ([`SubLattice`]), reuses window energies via prefix sums, and can
//! abandon a candidate mid-accumulation once a Cauchy–Schwarz bound
//! proves it cannot reach the caller's decision threshold. A
//! [`CorrFootprint`] caches those lattices per stored collision so a
//! buffer is characterized once, not re-interpolated per arrival.
//!
//! A [`Kernel`] bundles a backend choice with its [`KernelScratch`]
//! temporaries; one lives in every `zigzag-core` scratch arena, so the
//! backend is selected once per engine/work unit and the SoA staging
//! buffers are reused across calls. A future `std::simd` or GPU backend
//! is one more `impl Backend` — the decode logic never changes.

use crate::complex::{Complex, ZERO};
use crate::filter::Fir;
use crate::interp::{dot_taps, fill_taps, tap_window, window_span, DEFAULT_HALF_WIDTH};
use std::ops::Range;

/// Which backend a [`Kernel`] dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// The original scalar loops (numerical reference).
    Scalar,
    /// SoA staging with explicit fixed-lane-width kernels:
    /// runtime-detected `std::arch` AVX2 paths on x86_64, a portable
    /// 4-lane array fallback elsewhere (bit-identical to each other).
    Simd,
}

impl BackendKind {
    /// Backend selected by the `ZIGZAG_BACKEND` environment variable
    /// (`scalar` or `simd`, case-insensitive); defaults to
    /// [`BackendKind::Simd`] when unset. The variable is read once per
    /// process.
    ///
    /// An unrecognized value **panics** with the accepted names: a
    /// silent fallback would let a typo (`Scalar `, `avx`, …) run the
    /// whole differential suite against the backend it was supposed to
    /// cross-check.
    pub fn from_env() -> Self {
        use std::sync::OnceLock;
        static KIND: OnceLock<BackendKind> = OnceLock::new();
        *KIND.get_or_init(|| match std::env::var("ZIGZAG_BACKEND") {
            Err(_) => BackendKind::Simd,
            Ok(v) => Self::from_name(&v).unwrap_or_else(|| {
                panic!("unrecognized ZIGZAG_BACKEND value {v:?}: expected \"scalar\" or \"simd\"")
            }),
        })
    }

    /// Parses a backend name, case-insensitively: `"scalar"` / `"simd"`.
    /// The single parser behind [`Self::from_env`] and the debug
    /// examples' command lines.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(BackendKind::Scalar),
            "simd" => Some(BackendKind::Simd),
            _ => None,
        }
    }

    /// The backend implementation this kind names.
    pub fn backend(self) -> &'static dyn Backend {
        match self {
            BackendKind::Scalar => &Scalar,
            BackendKind::Simd => &Simd,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        self.backend().name()
    }
}

impl Default for BackendKind {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The τ grid of [`Backend::match_score`]: `-1 + i·tau_step` for
/// `i = 0..=⌊2/tau_step⌋`, covering `[-1, +1]` inclusive.
///
/// The iteration count is derived once from the step (with an epsilon
/// guard for non-dyadic steps whose quotient rounds to just under an
/// integer), so the sweep always reaches the `+1.0` endpoint. The
/// historical `tau += tau_step` accumulation only terminated correctly
/// for dyadic steps: at step 0.2 the accumulated τ drifted past the
/// `tau <= 1.0` bound one iteration early and the final alignment was
/// silently never evaluated. For dyadic steps (1.0, 0.5, 0.25 — all the
/// decode path uses) the values here are bit-identical to the old
/// accumulation; non-dyadic steps may carry 1-ulp rounding in the last
/// values.
pub fn tau_sweep(tau_step: f64) -> impl Iterator<Item = f64> + Clone {
    assert!(tau_step > 0.0, "tau_step must be positive, got {tau_step}");
    let steps = (2.0 / tau_step + 1e-9).floor() as usize;
    (0..=steps).map(move |i| -1.0 + i as f64 * tau_step)
}

/// Result of a [`Backend::match_score`] τ sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MatchScore {
    /// The best normalized correlation over the sweep:
    /// `max_τ |Σ_k a[sa+k]·conj(b(sb+k+τ))| / √(Σ|a|²·Σ|b(τ)|²)`,
    /// in `[0, 1]` (0 when the overlap is empty or either side has no
    /// energy).
    pub metric: f64,
    /// The τ achieving the best metric (the earliest such τ on exact
    /// ties — both backends sweep in ascending τ order).
    pub tau: f64,
}

/// One pre-interpolated sub-sample lane of a [`CorrFootprint`]: the
/// source buffer evaluated at fractional position `m − 1 + frac` for
/// every integer `m` in `0..len + 2` (one sample of margin each side),
/// plus energy prefix sums.
///
/// Every τ of a sweep decomposes as `n + frac` with `n ∈ {−1, 0, +1}`,
/// so against a lane the sub-sample interpolation of the match metric
/// collapses to an integer-shifted dot product, and any window's energy
/// `Σ|b(τ)|²` is two prefix-sum reads instead of a re-accumulation.
/// Lanes are built with [`Backend::resample_into`], which is
/// bit-identical across backends — so a footprint's contents never
/// depend on which backend built it.
#[derive(Clone, Debug, Default)]
pub struct SubLattice {
    frac: f64,
    samples: Vec<Complex>,
    energy: Vec<f64>,
}

impl SubLattice {
    /// The fractional offset this lane was interpolated at.
    pub fn frac(&self) -> f64 {
        self.frac
    }

    /// The interpolated samples: `samples[m] = b(m − 1 + frac)`.
    pub fn samples(&self) -> &[Complex] {
        &self.samples
    }

    /// `Σ |samples[m]|²` over `lo..hi` — two prefix-sum reads.
    pub fn window_energy(&self, lo: usize, hi: usize) -> f64 {
        self.energy[hi] - self.energy[lo]
    }

    /// Recomputes the energy prefix sums from `samples`.
    fn refresh_energy(&mut self) {
        self.energy.clear();
        self.energy.reserve(self.samples.len() + 1);
        let mut acc = 0.0;
        self.energy.push(acc);
        for v in &self.samples {
            acc += v.norm_sq();
            self.energy.push(acc);
        }
    }
}

/// The cached correlation footprint of a stored collision buffer:
/// sub-sample interpolation lanes (plus their energy prefix sums) over
/// the whole buffer, built lazily by [`Kernel::ensure_footprint`] the
/// first time the buffer is scored and reused for every later arrival.
///
/// The k-way matcher re-correlates each stored collision against every
/// new same-key buffer; without the footprint each of those evaluations
/// re-ran the 17-tap windowed-sinc interpolation per sample per τ. With
/// it, a stored collision is characterized **once** and each evaluation
/// is a handful of dot products.
#[derive(Clone, Debug, Default)]
pub struct CorrFootprint {
    len: usize,
    lanes: Vec<SubLattice>,
}

impl CorrFootprint {
    /// Length of the source buffer the lanes were interpolated from
    /// (0 until the first [`Kernel::ensure_footprint`]).
    pub fn source_len(&self) -> usize {
        self.len
    }

    /// The lane at exactly this fractional offset, if built.
    pub fn lane(&self, frac: f64) -> Option<&SubLattice> {
        self.lanes.iter().find(|l| l.frac == frac)
    }

    /// All built lanes.
    pub fn lanes(&self) -> &[SubLattice] {
        &self.lanes
    }

    /// `true` once every lane of the τ sweep at `tau_step` is built for
    /// a buffer of `len` samples.
    pub fn covers(&self, len: usize, tau_step: f64) -> bool {
        self.len == len && tau_sweep(tau_step).all(|tau| self.lane(tau - tau.floor()).is_some())
    }

    /// Drops every lane (e.g. when the source buffer changed).
    pub fn clear(&mut self) {
        self.len = 0;
        self.lanes.clear();
    }
}

/// Reusable staging buffers for a backend (SoA copies of the operands,
/// accumulators, the cached resampling tap vector). Contents between
/// calls are unspecified; only capacity is retained.
#[derive(Debug, Default)]
pub struct KernelScratch {
    // SoA image of the long operand (receive buffer / input signal).
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    // SoA image of the short operand (derotated reference, FIR taps).
    b_re: Vec<f64>,
    b_im: Vec<f64>,
    // SoA output accumulators.
    c_re: Vec<f64>,
    c_im: Vec<f64>,
    // Per-position MRC weight sums.
    den: Vec<f64>,
    // Cached windowed-sinc taps for the fractional offset `taps_frac`.
    taps: Vec<f64>,
    taps_frac: f64,
    taps_valid: bool,
    // a-side energy prefix sums for `match_score` normalization and
    // early abandonment.
    ea_prefix: Vec<f64>,
    // Per-call lattice spans staged by raw-buffer `match_score` calls
    // (footprint-backed calls use the caller's lanes instead).
    lanes: Vec<SubLattice>,
}

impl KernelScratch {
    /// Fills the cached windowed-sinc tap vector for fractional offset
    /// `frac = t − ⌊t⌋ ∈ [0, 1]` with [`crate::interp::fill_taps`] — the
    /// taps the scalar reference computes per call — unless it already
    /// holds exactly that offset's taps, from this call or an earlier
    /// one (the taps depend on `frac` alone). A drifting grid refills per
    /// output; the closed-form fill costs one sine, one `sin_cos` and a
    /// division per tap.
    fn ensure_taps(&mut self, frac: f64) {
        if self.taps_valid && self.taps_frac == frac {
            return;
        }
        self.taps.resize(tap_window(frac, DEFAULT_HALF_WIDTH).1, 0.0);
        fill_taps(frac, DEFAULT_HALF_WIDTH, &mut self.taps);
        self.taps_frac = frac;
        self.taps_valid = true;
    }
}

fn split_soa(x: &[Complex], re: &mut Vec<f64>, im: &mut Vec<f64>) {
    re.clear();
    im.clear();
    re.extend(x.iter().map(|c| c.re));
    im.extend(x.iter().map(|c| c.im));
}

/// Stages the a-side span of a `match_score` call: SoA copies plus the
/// energy prefix sums the sweep needs for normalization and for the
/// early-abandonment tail bound.
fn stage_a_span(ws: &mut KernelScratch, buf_a: &[Complex], start_a: usize, n: usize) {
    ws.a_re.clear();
    ws.a_im.clear();
    ws.ea_prefix.clear();
    ws.ea_prefix.reserve(n + 1);
    let mut acc = 0.0;
    ws.ea_prefix.push(acc);
    for &v in &buf_a[start_a..start_a + n] {
        ws.a_re.push(v.re);
        ws.a_im.push(v.im);
        acc += v.norm_sq();
        ws.ea_prefix.push(acc);
    }
}

/// Partial correlations are checked against the abandonment bound once
/// per this many accumulated samples — rarely enough that the check is
/// noise, often enough that a hopeless candidate dies early.
const ABANDON_BLOCK: usize = 64;

/// The interior output range of a FIR application over `n` input
/// samples — outputs whose every tap index `k + delay − l` is in range —
/// plus the per-output clamped edge accumulator of the `Simd` backend.
/// The edge closure accumulates only
/// the in-range taps, in ascending `l` order: exactly the terms and
/// order of the scalar reference's `tap_sum`, so edge outputs are
/// bit-identical too.
fn fir_interior(fir: &Fir, n: usize) -> (usize, usize, impl Fn(&[Complex], usize) -> Complex + '_) {
    let l_count = fir.taps().len();
    let delay = fir.delay();
    // in-range for all l ∈ 0..L ⟺ k + delay − (L−1) ≥ 0 and k + delay < n
    let lo = (l_count - 1).saturating_sub(delay).min(n);
    let hi = n.saturating_sub(delay).max(lo);
    let edge = move |x: &[Complex], k: usize| -> Complex {
        let taps = fir.taps();
        let l_lo = (k + delay + 1).saturating_sub(n).min(l_count);
        let l_hi = (k + delay + 1).min(l_count);
        let mut acc_re = 0.0;
        let mut acc_im = 0.0;
        for l in l_lo..l_hi {
            let t = taps[l];
            let v = x[k + delay - l];
            acc_re += t.re * v.re - t.im * v.im;
            acc_im += t.re * v.im + t.im * v.re;
        }
        Complex::new(acc_re, acc_im)
    };
    (lo, hi, edge)
}

/// Builds the per-call lattice lanes of a raw-buffer `match_score` span:
/// one lane per *distinct fractional offset* of the sweep (a 0.25-step
/// sweep has 9 τ candidates but only 4 fracs), each built with the
/// `Simd` cached-tap resampler — one closed-form tap fill
/// ([`crate::interp::fill_taps`]) per lane instead of one per sample
/// per τ. The spans are taken out of the scratch while
/// `resample_into` borrows it; the caller puts the returned vector back
/// so the allocations persist across calls. Lanes are written into the
/// vector's prefix, so a stale same-frac lane from an earlier, longer
/// sweep can never shadow a fresh one in the sweep's `find`.
///
/// Span lattice geometry: `lane.samples[m] = b(start_b − 1 + frac + m)`
/// — the footprint geometry with `base0 = 0`. `resample_into` is
/// bit-identical across backends, so so are the lanes.
fn build_span_lanes(
    ws: &mut KernelScratch,
    buf_b: &[Complex],
    start_b: usize,
    n: usize,
    tau_step: f64,
) -> (Vec<SubLattice>, usize) {
    let mut lanes = std::mem::take(&mut ws.lanes);
    let mut built = 0usize;
    for tau in tau_sweep(tau_step) {
        let frac = tau - tau.floor();
        if lanes[..built].iter().any(|l| l.frac == frac) {
            continue;
        }
        if built == lanes.len() {
            lanes.push(SubLattice::default());
        }
        let lane = &mut lanes[built];
        lane.frac = frac;
        Simd.resample_into(ws, buf_b, start_b as f64 - 1.0 + frac, 1.0, n + 2, &mut lane.samples);
        lane.refresh_energy();
        built += 1;
    }
    (lanes, built)
}

/// The `Simd` τ sweep over pre-built lattice lanes, shared by the raw
/// and footprint-backed `match_score` paths. `ar`/`ai`/`ea_prefix` are
/// the staged a-span (`n` samples, `n + 1` prefix entries); lane sample
/// index for alignment `τ = n_int + frac` at span offset `k` is
/// `base0 + n_int + 1 + k` (`base0 = start_b` for whole-buffer
/// footprints, 0 for per-call spans).
///
/// τ candidates are visited in ascending order with a strict-greater
/// best update — the same tie-breaking as the `Scalar` reference — and
/// with `bail` set, a candidate is dropped mid-accumulation
/// (`lanes::match_candidate`) when the Cauchy–Schwarz tail bound
/// `(|acc| + √(ea_rem·eb_rem))/√(ea·eb)` cannot reach
/// `max(bail, best-so-far)`.
fn simd_sweep(
    ar: &[f64],
    ai: &[f64],
    ea_prefix: &[f64],
    lane_set: &[SubLattice],
    base0: usize,
    tau_step: f64,
    bail: Option<f64>,
) -> MatchScore {
    let n = ar.len();
    let ea_tot = ea_prefix[n];
    let mut best = MatchScore::default();
    if ea_tot <= 0.0 {
        return best;
    }
    for tau in tau_sweep(tau_step) {
        let f = tau.floor();
        let frac = tau - f;
        let lane = lane_set
            .iter()
            .find(|l| l.frac == frac)
            .unwrap_or_else(|| panic!("no lattice lane for τ = {tau} (frac {frac})"));
        let base = (base0 as isize + f as isize + 1) as usize;
        let eb_tot = lane.window_energy(base, base + n);
        if eb_tot <= 0.0 {
            continue;
        }
        let denom = (ea_tot * eb_tot).sqrt();
        let cutoff = bail.map(|t| t.max(best.metric));
        let lat = &lane.samples[base..base + n];
        let Some((re, im)) =
            lanes::match_candidate(ar, ai, lat, ea_prefix, lane, base, denom, ea_tot, cutoff)
        else {
            continue;
        };
        let metric = (re * re + im * im).sqrt() / denom;
        if metric > best.metric {
            best = MatchScore { metric, tau };
        }
    }
    best
}

/// One implementation of the four phy hot-loop primitives.
///
/// All methods are semantically identical across backends: the
/// differential property tests (`crates/phy/tests/backend_diff.rs`) pin
/// every implementation to [`Scalar`] within 1e-9 over random inputs, and
/// the FIR/resample/MRC kernels are bit-identical by construction (same
/// operations in the same order, only the memory layout differs).
pub trait Backend: std::fmt::Debug + Send + Sync {
    /// Stable display name (`"scalar"`, `"simd"`).
    fn name(&self) -> &'static str;

    /// Frequency-compensated sliding correlation, as
    /// [`crate::correlate::scan_into`]: fills `out` (cleared first) with
    /// `Γ'(Δ) = Σ_k s*[k]·y[Δ+k]·e^{−jωk}` for each `Δ` in `positions`.
    fn scan_into(
        &self,
        ws: &mut KernelScratch,
        y: &[Complex],
        s: &[Complex],
        omega: f64,
        positions: Range<usize>,
        out: &mut Vec<Complex>,
    );

    /// FIR filtering, as [`Fir::apply_into`]: fills `y` (cleared first)
    /// with the filtered signal, same length as `x`, zero-padded edges.
    fn fir_apply_into(
        &self,
        ws: &mut KernelScratch,
        fir: &Fir,
        x: &[Complex],
        y: &mut Vec<Complex>,
    );

    /// Windowed-sinc resampling, as [`crate::interp::resample_into`]:
    /// fills `out` (cleared first) with interpolations at
    /// `start + k·step` for `k = 0..n`.
    fn resample_into(
        &self,
        ws: &mut KernelScratch,
        samples: &[Complex],
        start: f64,
        step: f64,
        n: usize,
        out: &mut Vec<Complex>,
    );

    /// Weighted MRC, as [`crate::mrc::combine_weighted_into`]: fills
    /// `out` (cleared first) with `Σ wᵢ·sᵢ / Σ wᵢ` per symbol position.
    fn combine_weighted_into(
        &self,
        ws: &mut KernelScratch,
        streams: &[(&[Complex], f64)],
        out: &mut Vec<Complex>,
    );

    /// §4.2.2's normalized match metric between packet-aligned spans of
    /// two collision buffers, maximized over the [`tau_sweep`] of
    /// sub-sample alignments of the second buffer:
    ///
    /// `max_τ |Σ_k a[sa+k]·conj(b(sb+k+τ))| / √(Σ_k|a[sa+k]|²·Σ_k|b(sb+k+τ)|²)`
    ///
    /// over `k < n` with `n = window` clamped to both buffer tails
    /// (`b(t)` is the windowed-sinc interpolation of
    /// [`crate::interp::interp_at`]). Returns the zero score when the
    /// clamped overlap is empty.
    ///
    /// `bail`, when `Some(t)`: the implementation may abandon a τ
    /// candidate mid-accumulation once a Cauchy–Schwarz bound proves its
    /// metric cannot reach `max(t, best-so-far)`. The returned metric is
    /// **exact whenever it is ≥ t**; below `t` it is only guaranteed to
    /// genuinely be `< t` — callers must treat sub-`t` values as a
    /// rejection, not as a measurement. `Scalar` ignores `bail` and is
    /// always exact (it is the reference the differential tests pin the
    /// `bail: None` behaviour to).
    #[allow(clippy::too_many_arguments)]
    fn match_score(
        &self,
        ws: &mut KernelScratch,
        buf_a: &[Complex],
        start_a: usize,
        buf_b: &[Complex],
        start_b: usize,
        window: usize,
        tau_step: f64,
        bail: Option<f64>,
    ) -> MatchScore;

    /// [`Backend::match_score`] against a pre-built [`CorrFootprint`] of
    /// the second buffer instead of the raw samples: the τ sweep reads
    /// the footprint's lanes (integer-shifted dot products, prefix-sum
    /// energies) and never re-interpolates. The footprint must cover the
    /// sweep ([`CorrFootprint::covers`] for this `tau_step`) — see
    /// [`Kernel::ensure_footprint`].
    #[allow(clippy::too_many_arguments)]
    fn match_score_fp(
        &self,
        ws: &mut KernelScratch,
        buf_a: &[Complex],
        start_a: usize,
        fp: &CorrFootprint,
        start_b: usize,
        window: usize,
        tau_step: f64,
        bail: Option<f64>,
    ) -> MatchScore;
}

/// The original scalar loops — the numerical reference backend.
#[derive(Clone, Copy, Debug, Default)]
pub struct Scalar;

impl Backend for Scalar {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn scan_into(
        &self,
        _ws: &mut KernelScratch,
        y: &[Complex],
        s: &[Complex],
        omega: f64,
        positions: Range<usize>,
        out: &mut Vec<Complex>,
    ) {
        crate::correlate::scan_into(y, s, omega, positions, out);
    }

    fn fir_apply_into(
        &self,
        _ws: &mut KernelScratch,
        fir: &Fir,
        x: &[Complex],
        y: &mut Vec<Complex>,
    ) {
        fir.apply_into(x, y);
    }

    fn resample_into(
        &self,
        _ws: &mut KernelScratch,
        samples: &[Complex],
        start: f64,
        step: f64,
        n: usize,
        out: &mut Vec<Complex>,
    ) {
        crate::interp::resample_into(samples, start, step, n, out);
    }

    fn combine_weighted_into(
        &self,
        _ws: &mut KernelScratch,
        streams: &[(&[Complex], f64)],
        out: &mut Vec<Complex>,
    ) {
        crate::mrc::combine_weighted_into(streams, out);
    }

    // The historical `matcher::match_metric_with_step` loop: one 17-tap
    // interpolation per sample per τ, energies re-accumulated per τ.
    // `bail` is deliberately ignored — Scalar is the always-exact
    // reference the differential tests (and the staged-vs-exhaustive
    // matchset proptest) pin the simd path against.
    fn match_score(
        &self,
        _ws: &mut KernelScratch,
        buf_a: &[Complex],
        start_a: usize,
        buf_b: &[Complex],
        start_b: usize,
        window: usize,
        tau_step: f64,
        _bail: Option<f64>,
    ) -> MatchScore {
        let n = window
            .min(buf_a.len().saturating_sub(start_a))
            .min(buf_b.len().saturating_sub(start_b));
        let mut best = MatchScore::default();
        if n == 0 {
            return best;
        }
        for tau in tau_sweep(tau_step) {
            let mut acc = Complex::default();
            let mut ea = 0.0;
            let mut eb = 0.0;
            for k in 0..n {
                let x = buf_a[start_a + k];
                let y = crate::interp::interp_at(buf_b, start_b as f64 + k as f64 + tau);
                acc += x * y.conj();
                ea += x.norm_sq();
                eb += y.norm_sq();
            }
            if ea > 0.0 && eb > 0.0 {
                let metric = acc.abs() / (ea * eb).sqrt();
                if metric > best.metric {
                    best = MatchScore { metric, tau };
                }
            }
        }
        best
    }

    fn match_score_fp(
        &self,
        _ws: &mut KernelScratch,
        buf_a: &[Complex],
        start_a: usize,
        fp: &CorrFootprint,
        start_b: usize,
        window: usize,
        tau_step: f64,
        _bail: Option<f64>,
    ) -> MatchScore {
        let n = window
            .min(buf_a.len().saturating_sub(start_a))
            .min(fp.source_len().saturating_sub(start_b));
        let mut best = MatchScore::default();
        if n == 0 {
            return best;
        }
        for tau in tau_sweep(tau_step) {
            let f = tau.floor();
            let frac = tau - f;
            let lane = fp
                .lane(frac)
                .unwrap_or_else(|| panic!("footprint missing lane for τ = {tau} (frac {frac})"));
            let base = (start_b as isize + f as isize + 1) as usize;
            let mut acc = Complex::default();
            let mut ea = 0.0;
            let mut eb = 0.0;
            for k in 0..n {
                let x = buf_a[start_a + k];
                let y = lane.samples[base + k];
                acc += x * y.conj();
                ea += x.norm_sq();
                eb += y.norm_sq();
            }
            if ea > 0.0 && eb > 0.0 {
                let metric = acc.abs() / (ea * eb).sqrt();
                if metric > best.metric {
                    best = MatchScore { metric, tau };
                }
            }
        }
        best
    }
}

/// The production backend: SoA staging (a pre-derotated correlation
/// reference, the cached resampler tap vector, energy prefix sums for
/// the match metric) with the inner loops run four `f64` lanes wide —
/// through stable `std::arch` AVX2 intrinsics when the host CPU has them
/// (runtime [`is_x86_feature_detected!`] dispatch, cached once per
/// process) and through a portable `[f64; 4]` array path otherwise,
/// including on every non-x86_64 target.
///
/// Both paths evaluate **exactly** the same per-lane arithmetic — the
/// same multiply/add/sub ordering and no FMA contraction (a fused
/// multiply-add rounds once where `a·b + c` rounds twice) — and
/// cross-lane reductions pair lanes as `(l0+l1)+(l2+l3)`, so AVX2 and
/// portable output are bit-identical on all five primitives. FIR,
/// resample and MRC accumulate each output in the `Scalar` reference's
/// order and match it bit for bit; scan and match metric differ from
/// it only in reduction order.
#[derive(Clone, Copy, Debug, Default)]
pub struct Simd;

impl Backend for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn scan_into(
        &self,
        ws: &mut KernelScratch,
        y: &[Complex],
        s: &[Complex],
        omega: f64,
        positions: Range<usize>,
        out: &mut Vec<Complex>,
    ) {
        out.clear();
        // Hoist the frequency-offset rotation out of the O(N·L) loop:
        // s*[k]·e^{−jωk} does not depend on Δ, so the sin/cos pair is paid
        // L times per scan instead of N·L times. The per-Δ inner product
        // runs on the lane kernels over an SoA copy of the buffer.
        let l = s.len();
        ws.b_re.clear();
        ws.b_im.clear();
        for (k, &sk) in s.iter().enumerate() {
            let r = sk.conj() * Complex::cis(-omega * k as f64);
            ws.b_re.push(r.re);
            ws.b_im.push(r.im);
        }
        split_soa(y, &mut ws.a_re, &mut ws.a_im);
        out.reserve(positions.len());
        for d in positions {
            let end = l.min(y.len().saturating_sub(d));
            if end == 0 {
                out.push(ZERO);
                continue;
            }
            let (re, im) = lanes::corr_dot(
                &ws.b_re[..end],
                &ws.b_im[..end],
                &ws.a_re[d..d + end],
                &ws.a_im[d..d + end],
            );
            out.push(Complex::new(re, im));
        }
    }

    fn fir_apply_into(
        &self,
        _ws: &mut KernelScratch,
        fir: &Fir,
        x: &[Complex],
        y: &mut Vec<Complex>,
    ) {
        y.clear();
        if fir.is_identity() {
            y.extend_from_slice(x);
            return;
        }
        // Single-pass sweep with the interior run four outputs wide: per
        // tap, a broadcast coefficient against four deinterleaved input
        // samples. x is read once and y written once, so the tap count
        // only changes register work. Lanes are outputs, so no cross-lane
        // reduction; per output the taps accumulate in ascending order
        // exactly like the scalar reference.
        let (lo, hi, edge) = fir_interior(fir, x.len());
        y.resize(x.len(), ZERO);
        for (k, yk) in y.iter_mut().enumerate().take(lo) {
            *yk = edge(x, k);
        }
        lanes::fir_interior_fill(fir.taps(), fir.delay(), x, lo, hi, y);
        for (k, yk) in y.iter_mut().enumerate().skip(hi) {
            *yk = edge(x, k);
        }
    }

    fn resample_into(
        &self,
        ws: &mut KernelScratch,
        samples: &[Complex],
        start: f64,
        step: f64,
        n: usize,
        out: &mut Vec<Complex>,
    ) {
        out.clear();
        out.reserve(n);
        // Whole runs, not outputs: on a unit grid, from output k,
        // `lanes::unit_run` finds (with the reference's own
        // `t = start + k·step` arithmetic) how many outputs share t's
        // exact fraction and sit one whole sample apart. They share one
        // tap vector, and the part of the run whose windows lie fully in
        // the buffer is one `lanes::resample_run` sweep, sixteen outputs
        // per block, read in place from the caller's buffer (a chunk
        // decoder passes the full residual, so copying it would cost more
        // than the reads). The run's clipped edges take the per-output
        // body, and so does every output of a drifting grid, which
        // refills the taps per output anyway. The tap vector stays cached
        // across calls, keyed on the exact fraction. Every output is the
        // reference's `interp_at`, bit for bit.
        let len = samples.len() as f64;
        let mut k = 0;
        while k < n {
            let t = start + k as f64 * step;
            let f0 = t.floor();
            if !f0.is_finite() {
                out.push(ZERO);
                k += 1;
                continue;
            }
            let frac = t - f0;
            let (j_lo, count) = tap_window(frac, DEFAULT_HALF_WIDTH);
            ws.ensure_taps(frac);
            let edge = |u: usize| match window_span(f0 + u as f64, j_lo, count, samples.len()) {
                Some((i_lo, j0, n_in)) => {
                    dot_taps(&samples[i_lo..i_lo + n_in], &ws.taps[j0..j0 + n_in])
                }
                None => ZERO,
            };
            if step != 1.0 {
                out.push(edge(0));
                k += 1;
                continue;
            }
            let run = lanes::unit_run(start, step, k, n, f0, frac);
            // Output k + u reads samples base + u ..+ count. The full
            // windows are u in lo..hi; the bounds are worked out in f64,
            // so a far-out position cannot wrap the index arithmetic.
            let base = f0 + j_lo as f64;
            let lo = (-base).clamp(0.0, run as f64) as usize;
            let hi = (len - count as f64 - base + 1.0).clamp(lo as f64, run as f64) as usize;
            out.extend((0..lo).map(edge));
            if hi > lo {
                let at = out.len();
                out.resize(at + (hi - lo), ZERO);
                lanes::resample_run(samples, (base + lo as f64) as usize, &ws.taps, &mut out[at..]);
            }
            out.extend((hi..run).map(edge));
            k += run;
        }
    }

    fn combine_weighted_into(
        &self,
        ws: &mut KernelScratch,
        streams: &[(&[Complex], f64)],
        out: &mut Vec<Complex>,
    ) {
        assert!(!streams.is_empty(), "MRC needs at least one stream");
        out.clear();
        // Every accumulation below mirrors the scalar loop's order and
        // operations exactly (weighted terms in stream order added to a
        // zero accumulator, then one real division), so the result is
        // bit-identical to the reference. This is a memory-bound
        // two-multiply loop: plain single-pass code outruns explicit
        // lane kernels here (BENCH_phy.json, mrc_combine_4096_x2).
        match *streams {
            // The receiver only ever combines one stream (forward-only
            // decode) or two (forward + backward, the two faulty capture
            // versions); these run single-pass with no staging arrays.
            [(s, w)] => {
                out.extend(s.iter().map(|&v| if w > 0.0 { v.scale(w) / w } else { ZERO }));
            }
            [(s1, w1), (s2, w2)] => {
                let both = s1.len().min(s2.len());
                let dw = w1 + w2;
                out.reserve(s1.len().max(s2.len()));
                for k in 0..both {
                    let re = s1[k].re * w1 + s2[k].re * w2;
                    let im = s1[k].im * w1 + s2[k].im * w2;
                    out.push(if dw > 0.0 { Complex::new(re / dw, im / dw) } else { ZERO });
                }
                let (tail, w) = if s1.len() > both { (&s1[both..], w1) } else { (&s2[both..], w2) };
                out.extend(tail.iter().map(|&v| if w > 0.0 { v.scale(w) / w } else { ZERO }));
            }
            _ => {
                let n = streams.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
                ws.c_re.clear();
                ws.c_re.resize(n, 0.0);
                ws.c_im.clear();
                ws.c_im.resize(n, 0.0);
                ws.den.clear();
                ws.den.resize(n, 0.0);
                for &(s, weight) in streams {
                    for (k, &v) in s.iter().enumerate() {
                        ws.c_re[k] += v.re * weight;
                        ws.c_im[k] += v.im * weight;
                        ws.den[k] += weight;
                    }
                }
                out.extend((0..n).map(|k| {
                    if ws.den[k] > 0.0 {
                        Complex::new(ws.c_re[k], ws.c_im[k]) / ws.den[k]
                    } else {
                        ZERO
                    }
                }));
            }
        }
    }

    fn match_score(
        &self,
        ws: &mut KernelScratch,
        buf_a: &[Complex],
        start_a: usize,
        buf_b: &[Complex],
        start_b: usize,
        window: usize,
        tau_step: f64,
        bail: Option<f64>,
    ) -> MatchScore {
        let n = window
            .min(buf_a.len().saturating_sub(start_a))
            .min(buf_b.len().saturating_sub(start_b));
        if n == 0 {
            return MatchScore::default();
        }
        stage_a_span(ws, buf_a, start_a, n);
        let (lanes_v, built) = build_span_lanes(ws, buf_b, start_b, n, tau_step);
        let score =
            simd_sweep(&ws.a_re, &ws.a_im, &ws.ea_prefix, &lanes_v[..built], 0, tau_step, bail);
        ws.lanes = lanes_v;
        score
    }

    fn match_score_fp(
        &self,
        ws: &mut KernelScratch,
        buf_a: &[Complex],
        start_a: usize,
        fp: &CorrFootprint,
        start_b: usize,
        window: usize,
        tau_step: f64,
        bail: Option<f64>,
    ) -> MatchScore {
        let n = window
            .min(buf_a.len().saturating_sub(start_a))
            .min(fp.source_len().saturating_sub(start_b));
        if n == 0 {
            return MatchScore::default();
        }
        stage_a_span(ws, buf_a, start_a, n);
        simd_sweep(&ws.a_re, &ws.a_im, &ws.ea_prefix, fp.lanes(), start_b, tau_step, bail)
    }
}

/// The fixed-width lane kernels behind [`Simd`]: every routine has an
/// AVX2 implementation (x86_64 only, guarded by a once-cached runtime
/// [`is_x86_feature_detected!`]) and a portable `[f64; 4]` implementation
/// with identical per-lane arithmetic, so results never depend on which
/// path ran.
///
/// Complex operands arrive either as SoA `f64` slices (already split by
/// the kernel staging) or as `&[Complex]`, which `flat`/`flat_mut`
/// reinterpret as the interleaved `re, im, …` f64 view (`Complex` is
/// `repr(C)`). AVX2 paths deinterleave AoS loads with
/// `unpacklo/unpackhi`, which yields the lane permutation `[0, 2, 1, 3]`
/// — harmless for element-wise kernels (the inverse permutation is
/// applied by the matching interleaved store) and compensated explicitly
/// in reductions so the reduction tree matches the portable path's
/// `(l0+l1)+(l2+l3)` exactly.
mod lanes {
    use super::{Complex, SubLattice, ABANDON_BLOCK};

    #[cfg(test)]
    thread_local! {
        /// Test-only override: while set, [`avx2`] reports `false` on
        /// this thread so the portable kernels run on an AVX2 host too.
        static FORCE_PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Runs `f` with the portable lane kernels forced on this thread.
    #[cfg(test)]
    pub fn portable<R>(f: impl FnOnce() -> R) -> R {
        FORCE_PORTABLE.with(|p| p.set(true));
        let r = f();
        FORCE_PORTABLE.with(|p| p.set(false));
        r
    }

    /// `true` when the AVX2 paths may run; detected once per process.
    #[inline]
    pub fn avx2() -> bool {
        #[cfg(test)]
        if FORCE_PORTABLE.with(|p| p.get()) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static HAS: OnceLock<bool> = OnceLock::new();
            *HAS.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Reinterprets complex samples as the interleaved `re, im, re, im…`
    /// flat f64 view.
    #[inline]
    pub fn flat(x: &[Complex]) -> &[f64] {
        // SAFETY: `Complex` is `#[repr(C)] { re: f64, im: f64 }`, so a
        // slice of n `Complex` is layout-identical to 2n contiguous f64s.
        unsafe { std::slice::from_raw_parts(x.as_ptr().cast::<f64>(), x.len() * 2) }
    }

    /// Mutable [`flat`].
    #[inline]
    pub fn flat_mut(x: &mut [Complex]) -> &mut [f64] {
        // SAFETY: as in `flat`.
        unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast::<f64>(), x.len() * 2) }
    }

    /// The scan inner product `Σ s′[k]·y[d+k]` over SoA operands, with
    /// a four-accumulator pairing: lane `u` holds
    /// sample offsets `≡ u (mod 4)`, the scalar remainder accumulates
    /// onto lane 0, and the reduction is `(l0+l1)+(l2+l3)`.
    pub fn corr_dot(sr: &[f64], si: &[f64], yr: &[f64], yi: &[f64]) -> (f64, f64) {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` verified the CPU feature.
            return unsafe { corr_dot_avx2(sr, si, yr, yi) };
        }
        corr_dot_portable(sr, si, yr, yi)
    }

    fn corr_dot_portable(sr: &[f64], si: &[f64], yr: &[f64], yi: &[f64]) -> (f64, f64) {
        let n = sr.len();
        let mut ar = [0.0f64; 4];
        let mut ai = [0.0f64; 4];
        let mut k = 0;
        while k + 4 <= n {
            for u in 0..4 {
                ar[u] += sr[k + u] * yr[k + u] - si[k + u] * yi[k + u];
                ai[u] += sr[k + u] * yi[k + u] + si[k + u] * yr[k + u];
            }
            k += 4;
        }
        while k < n {
            ar[0] += sr[k] * yr[k] - si[k] * yi[k];
            ai[0] += sr[k] * yi[k] + si[k] * yr[k];
            k += 1;
        }
        ((ar[0] + ar[1]) + (ar[2] + ar[3]), (ai[0] + ai[1]) + (ai[2] + ai[3]))
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn corr_dot_avx2(sr: &[f64], si: &[f64], yr: &[f64], yi: &[f64]) -> (f64, f64) {
        use std::arch::x86_64::*;
        let n = sr.len();
        let mut vre = _mm256_setzero_pd();
        let mut vim = _mm256_setzero_pd();
        let mut k = 0;
        while k + 4 <= n {
            let a = _mm256_loadu_pd(sr.as_ptr().add(k));
            let b = _mm256_loadu_pd(si.as_ptr().add(k));
            let c = _mm256_loadu_pd(yr.as_ptr().add(k));
            let d = _mm256_loadu_pd(yi.as_ptr().add(k));
            vre = _mm256_add_pd(vre, _mm256_sub_pd(_mm256_mul_pd(a, c), _mm256_mul_pd(b, d)));
            vim = _mm256_add_pd(vim, _mm256_add_pd(_mm256_mul_pd(a, d), _mm256_mul_pd(b, c)));
            k += 4;
        }
        let mut ar = [0.0f64; 4];
        let mut ai = [0.0f64; 4];
        _mm256_storeu_pd(ar.as_mut_ptr(), vre);
        _mm256_storeu_pd(ai.as_mut_ptr(), vim);
        while k < n {
            ar[0] += sr[k] * yr[k] - si[k] * yi[k];
            ai[0] += sr[k] * yi[k] + si[k] * yr[k];
            k += 1;
        }
        ((ar[0] + ar[1]) + (ar[2] + ar[3]), (ai[0] + ai[1]) + (ai[2] + ai[3]))
    }

    /// The FIR interior sweep `y[k] = Σ_l taps[l]·x[k+delay−l]` for
    /// `k ∈ lo..hi`, written in place. Lanes are outputs (no cross-lane
    /// reduction); per output the taps accumulate in ascending order.
    pub fn fir_interior_fill(
        taps: &[Complex],
        delay: usize,
        x: &[Complex],
        lo: usize,
        hi: usize,
        y: &mut [Complex],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` verified the CPU feature.
            unsafe { fir_interior_avx2(taps, delay, x, lo, hi, y) };
            return;
        }
        fir_interior_portable(taps, delay, x, lo, hi, y);
    }

    fn fir_interior_portable(
        taps: &[Complex],
        delay: usize,
        x: &[Complex],
        lo: usize,
        hi: usize,
        y: &mut [Complex],
    ) {
        let mut k = lo;
        while k + 4 <= hi {
            let base = k + delay;
            let mut ar = [0.0f64; 4];
            let mut ai = [0.0f64; 4];
            for (l, &t) in taps.iter().enumerate() {
                let first = base - l;
                for u in 0..4 {
                    let v = x[first + u];
                    ar[u] += t.re * v.re - t.im * v.im;
                    ai[u] += t.re * v.im + t.im * v.re;
                }
            }
            for u in 0..4 {
                y[k + u] = Complex::new(ar[u], ai[u]);
            }
            k += 4;
        }
        while k < hi {
            let base = k + delay;
            let mut acc_re = 0.0;
            let mut acc_im = 0.0;
            for (l, &t) in taps.iter().enumerate() {
                let v = x[base - l];
                acc_re += t.re * v.re - t.im * v.im;
                acc_im += t.re * v.im + t.im * v.re;
            }
            y[k] = Complex::new(acc_re, acc_im);
            k += 1;
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fir_interior_avx2(
        taps: &[Complex],
        delay: usize,
        x: &[Complex],
        lo: usize,
        hi: usize,
        y: &mut [Complex],
    ) {
        use std::arch::x86_64::*;
        let xf = flat(x);
        let mut k = lo;
        while k + 4 <= hi {
            let base = k + delay;
            let mut accr = _mm256_setzero_pd();
            let mut acci = _mm256_setzero_pd();
            for (l, &t) in taps.iter().enumerate() {
                let first = base - l;
                let v0 = _mm256_loadu_pd(xf.as_ptr().add(2 * first));
                let v1 = _mm256_loadu_pd(xf.as_ptr().add(2 * first + 4));
                // deinterleave: re/im lanes in permuted output order
                // [k, k+2, k+1, k+3] — consistent across taps, restored
                // by the interleaving store below
                let vr = _mm256_unpacklo_pd(v0, v1);
                let vi = _mm256_unpackhi_pd(v0, v1);
                let tr = _mm256_set1_pd(t.re);
                let ti = _mm256_set1_pd(t.im);
                accr = _mm256_add_pd(
                    accr,
                    _mm256_sub_pd(_mm256_mul_pd(tr, vr), _mm256_mul_pd(ti, vi)),
                );
                acci = _mm256_add_pd(
                    acci,
                    _mm256_add_pd(_mm256_mul_pd(tr, vi), _mm256_mul_pd(ti, vr)),
                );
            }
            let yf = flat_mut(&mut y[k..k + 4]);
            _mm256_storeu_pd(yf.as_mut_ptr(), _mm256_unpacklo_pd(accr, acci));
            _mm256_storeu_pd(yf.as_mut_ptr().add(4), _mm256_unpackhi_pd(accr, acci));
            k += 4;
        }
        while k < hi {
            let base = k + delay;
            let mut acc_re = 0.0;
            let mut acc_im = 0.0;
            for (l, &t) in taps.iter().enumerate() {
                let v = x[base - l];
                acc_re += t.re * v.re - t.im * v.im;
                acc_im += t.re * v.im + t.im * v.re;
            }
            y[k] = Complex::new(acc_re, acc_im);
            k += 1;
        }
    }

    /// The number of outputs from `k` (at most `n − k`, at least 1) that
    /// share output k's tap vector and step one whole sample: each later
    /// `t = start + (k+u)·step` — the reference's arithmetic — must have
    /// floor `f0 + u` and fraction exactly `frac`, where `f0` and `frac`
    /// are output k's. On AVX2 hosts the test runs in the AVX2 build,
    /// where `floor` is one rounding instruction instead of a libm call.
    pub fn unit_run(start: f64, step: f64, k: usize, n: usize, f0: f64, frac: f64) -> usize {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` verified the CPU feature.
            return unsafe { unit_run_avx2(start, step, k, n, f0, frac) };
        }
        unit_run_body(start, step, k, n, f0, frac)
    }

    #[inline(always)]
    fn unit_run_body(start: f64, step: f64, k: usize, n: usize, f0: f64, frac: f64) -> usize {
        let mut u = 1;
        while k + u < n {
            let t = start + (k + u) as f64 * step;
            let f = t.floor();
            if f != f0 + u as f64 || t - f != frac {
                break;
            }
            u += 1;
        }
        u
    }

    /// # Safety
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn unit_run_avx2(
        start: f64,
        step: f64,
        k: usize,
        n: usize,
        f0: f64,
        frac: f64,
    ) -> usize {
        unit_run_body(start, step, k, n, f0, frac)
    }

    /// Consecutive resampler outputs sharing one tap vector:
    /// `out[u] = Σ_j samples[base0+u+j]·taps[j]` for every `u`, each
    /// output accumulating its taps in ascending order from zero with a
    /// separate multiply and add (the reference's `dot_taps`). Every
    /// window must lie in the buffer. Lanes hold the interleaved
    /// `re, im` of two outputs, so the samples are read in place with no
    /// shuffle, and the AVX2 path runs sixteen outputs per block on
    /// eight independent accumulators, so eight add chains advance side
    /// by side where a single block of four waited on two.
    pub fn resample_run(samples: &[Complex], base0: usize, taps: &[f64], out: &mut [Complex]) {
        assert!(
            base0 + out.len() + taps.len() <= samples.len() + 1,
            "resample run reads past the buffer"
        );
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` verified the CPU feature, and the assert
            // above keeps every window inside `samples`.
            return unsafe { resample_run_avx2(samples, base0, taps, out) };
        }
        resample_run_portable(samples, base0, taps, out);
    }

    /// The `[f64; 4]` form: one lane per component of two outputs.
    fn resample_run_portable(samples: &[Complex], base0: usize, taps: &[f64], out: &mut [Complex]) {
        let sf = flat(samples);
        for (i, o) in flat_mut(out).chunks_mut(4).enumerate() {
            let first = 2 * base0 + 4 * i;
            let mut acc = [0.0f64; 4];
            for (j, &tap) in taps.iter().enumerate() {
                let v = &sf[first + 2 * j..];
                for (a, &x) in acc.iter_mut().zip(&v[..o.len()]) {
                    *a += x * tap;
                }
            }
            o.copy_from_slice(&acc[..o.len()]);
        }
    }

    /// # Safety
    /// The CPU must support AVX2, and every window of `out` must lie in
    /// `samples` (`base0 + out.len() + taps.len() ≤ samples.len() + 1`).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn resample_run_avx2(
        samples: &[Complex],
        base0: usize,
        taps: &[f64],
        out: &mut [Complex],
    ) {
        use std::arch::x86_64::*;
        let src = flat(samples).as_ptr().add(2 * base0);
        let dst = flat_mut(out).as_mut_ptr();
        let m = out.len();
        let mut u = 0;
        while u + 16 <= m {
            let p = src.add(2 * u);
            let mut acc = [_mm256_setzero_pd(); 8];
            for (j, &tap) in taps.iter().enumerate() {
                let tv = _mm256_set1_pd(tap);
                let q = p.add(2 * j);
                for (l, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_pd(*a, _mm256_mul_pd(_mm256_loadu_pd(q.add(4 * l)), tv));
                }
            }
            for (l, a) in acc.iter().enumerate() {
                _mm256_storeu_pd(dst.add(2 * u + 4 * l), *a);
            }
            u += 16;
        }
        while u + 2 <= m {
            let p = src.add(2 * u);
            let mut acc = _mm256_setzero_pd();
            for (j, &tap) in taps.iter().enumerate() {
                acc = _mm256_add_pd(
                    acc,
                    _mm256_mul_pd(_mm256_loadu_pd(p.add(2 * j)), _mm256_set1_pd(tap)),
                );
            }
            _mm256_storeu_pd(dst.add(2 * u), acc);
            u += 2;
        }
        if u < m {
            let p = src.add(2 * u);
            let mut acc = _mm_setzero_pd();
            for (j, &tap) in taps.iter().enumerate() {
                acc = _mm_add_pd(acc, _mm_mul_pd(_mm_loadu_pd(p.add(2 * j)), _mm_set1_pd(tap)));
            }
            _mm_storeu_pd(dst.add(2 * u), acc);
        }
    }

    /// One τ candidate of the match sweep: accumulates
    /// `Σ_k a[k]·conj(lat[k])` in [`ABANDON_BLOCK`] chunks, testing the
    /// Cauchy–Schwarz tail bound between chunks exactly like
    /// the reference sweep. Returns `None` when the candidate is abandoned,
    /// otherwise the `(l0+l1)+(l2+l3)`-reduced correlation.
    #[allow(clippy::too_many_arguments)]
    pub fn match_candidate(
        ar: &[f64],
        ai: &[f64],
        lat: &[Complex],
        ea_prefix: &[f64],
        lane: &SubLattice,
        base: usize,
        denom: f64,
        ea_tot: f64,
        cutoff: Option<f64>,
    ) -> Option<(f64, f64)> {
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2()` verified the CPU feature.
            return unsafe {
                match_candidate_avx2(ar, ai, lat, ea_prefix, lane, base, denom, ea_tot, cutoff)
            };
        }
        match_candidate_portable(ar, ai, lat, ea_prefix, lane, base, denom, ea_tot, cutoff)
    }

    #[allow(clippy::too_many_arguments)]
    fn match_candidate_portable(
        ar: &[f64],
        ai: &[f64],
        lat: &[Complex],
        ea_prefix: &[f64],
        lane: &SubLattice,
        base: usize,
        denom: f64,
        ea_tot: f64,
        cutoff: Option<f64>,
    ) -> Option<(f64, f64)> {
        let n = ar.len();
        let mut vr = [0.0f64; 4];
        let mut vi = [0.0f64; 4];
        let mut k = 0;
        while k < n {
            let stop = (k + ABANDON_BLOCK).min(n);
            while k + 4 <= stop {
                for u in 0..4 {
                    let (xr, xi) = (ar[k + u], ai[k + u]);
                    let y = lat[k + u];
                    vr[u] += xr * y.re + xi * y.im;
                    vi[u] += xi * y.re - xr * y.im;
                }
                k += 4;
            }
            while k < stop {
                let (xr, xi) = (ar[k], ai[k]);
                let y = lat[k];
                vr[0] += xr * y.re + xi * y.im;
                vi[0] += xi * y.re - xr * y.im;
                k += 1;
            }
            if k >= n {
                break;
            }
            if let Some(cut) = cutoff {
                let re = (vr[0] + vr[1]) + (vr[2] + vr[3]);
                let im = (vi[0] + vi[1]) + (vi[2] + vi[3]);
                let part = (re * re + im * im).sqrt();
                let ea_rem = ea_tot - ea_prefix[k];
                let eb_rem = lane.window_energy(base + k, base + n);
                let ub = (part + (ea_rem * eb_rem).sqrt()) / denom;
                if ub * (1.0 + 1e-12) < cut {
                    return None;
                }
            }
        }
        Some(((vr[0] + vr[1]) + (vr[2] + vr[3]), (vi[0] + vi[1]) + (vi[2] + vi[3])))
    }

    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn match_candidate_avx2(
        ar: &[f64],
        ai: &[f64],
        lat: &[Complex],
        ea_prefix: &[f64],
        lane: &SubLattice,
        base: usize,
        denom: f64,
        ea_tot: f64,
        cutoff: Option<f64>,
    ) -> Option<(f64, f64)> {
        use std::arch::x86_64::*;
        let n = ar.len();
        let lf = flat(lat);
        // Vector lanes hold sample offsets in the unpack permutation
        // [0, 2, 1, 3]; `reduce` compensates so the reduction tree is
        // (l0+l1)+(l2+l3) in *sample* order, matching the portable
        // path's `(vr[0]+vr[1])+(vr[2]+vr[3])`. The scalar remainder —
        // which only ever occurs in the final block, since ABANDON_BLOCK
        // is a multiple of 4 — spills the vectors to arrays first and
        // appends onto element 0, continuing the sample-lane-0 chain
        // exactly as the portable path appends onto `vr[0]`.
        let spill = |acc: __m256d| -> [f64; 4] {
            let mut l = [0.0f64; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), acc);
            l
        };
        let reduce = |l: [f64; 4]| -> f64 { (l[0] + l[2]) + (l[1] + l[3]) };
        let mut accr = _mm256_setzero_pd();
        let mut acci = _mm256_setzero_pd();
        let mut k = 0;
        while k < n {
            let stop = (k + ABANDON_BLOCK).min(n);
            while k + 4 <= stop {
                let xr = _mm256_loadu_pd(ar.as_ptr().add(k));
                let xi = _mm256_loadu_pd(ai.as_ptr().add(k));
                let v0 = _mm256_loadu_pd(lf.as_ptr().add(2 * k));
                let v1 = _mm256_loadu_pd(lf.as_ptr().add(2 * k + 4));
                let yr0 = _mm256_unpacklo_pd(v0, v1);
                let yi0 = _mm256_unpackhi_pd(v0, v1);
                // x lanes must match the permuted y lanes: permute x by
                // [0, 2, 1, 3] (a self-inverse permutation)
                let xr = _mm256_permute4x64_pd::<0b11_01_10_00>(xr);
                let xi = _mm256_permute4x64_pd::<0b11_01_10_00>(xi);
                accr = _mm256_add_pd(
                    accr,
                    _mm256_add_pd(_mm256_mul_pd(xr, yr0), _mm256_mul_pd(xi, yi0)),
                );
                acci = _mm256_add_pd(
                    acci,
                    _mm256_sub_pd(_mm256_mul_pd(xi, yr0), _mm256_mul_pd(xr, yi0)),
                );
                k += 4;
            }
            if k < stop {
                // final partial block: finish scalar and return
                let mut lr = spill(accr);
                let mut li = spill(acci);
                while k < stop {
                    let (xr, xi) = (ar[k], ai[k]);
                    let y = lat[k];
                    lr[0] += xr * y.re + xi * y.im;
                    li[0] += xi * y.re - xr * y.im;
                    k += 1;
                }
                return Some((reduce(lr), reduce(li)));
            }
            if k >= n {
                break;
            }
            if let Some(cut) = cutoff {
                let re = reduce(spill(accr));
                let im = reduce(spill(acci));
                let part = (re * re + im * im).sqrt();
                let ea_rem = ea_tot - ea_prefix[k];
                let eb_rem = lane.window_energy(base + k, base + n);
                let ub = (part + (ea_rem * eb_rem).sqrt()) / denom;
                if ub * (1.0 + 1e-12) < cut {
                    return None;
                }
            }
        }
        Some((reduce(spill(accr)), reduce(spill(acci))))
    }
}

/// A backend choice bundled with its reusable scratch buffers — the
/// object the decode engine threads through its hot loops.
#[derive(Debug, Default)]
pub struct Kernel {
    kind: BackendKind,
    ws: KernelScratch,
}

impl Kernel {
    /// A kernel dispatching to the given backend.
    pub fn new(kind: BackendKind) -> Self {
        Self { kind, ws: KernelScratch::default() }
    }

    /// The backend this kernel dispatches to.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// See [`Backend::scan_into`].
    pub fn scan_into(
        &mut self,
        y: &[Complex],
        s: &[Complex],
        omega: f64,
        positions: Range<usize>,
        out: &mut Vec<Complex>,
    ) {
        self.kind.backend().scan_into(&mut self.ws, y, s, omega, positions, out);
    }

    /// See [`Backend::fir_apply_into`].
    pub fn fir_apply_into(&mut self, fir: &Fir, x: &[Complex], y: &mut Vec<Complex>) {
        self.kind.backend().fir_apply_into(&mut self.ws, fir, x, y);
    }

    /// See [`Backend::resample_into`].
    pub fn resample_into(
        &mut self,
        samples: &[Complex],
        start: f64,
        step: f64,
        n: usize,
        out: &mut Vec<Complex>,
    ) {
        self.kind.backend().resample_into(&mut self.ws, samples, start, step, n, out);
    }

    /// See [`Backend::combine_weighted_into`].
    pub fn combine_weighted_into(&mut self, streams: &[(&[Complex], f64)], out: &mut Vec<Complex>) {
        self.kind.backend().combine_weighted_into(&mut self.ws, streams, out);
    }

    /// See [`Backend::match_score`].
    #[allow(clippy::too_many_arguments)]
    pub fn match_score(
        &mut self,
        buf_a: &[Complex],
        start_a: usize,
        buf_b: &[Complex],
        start_b: usize,
        window: usize,
        tau_step: f64,
        bail: Option<f64>,
    ) -> MatchScore {
        self.kind.backend().match_score(
            &mut self.ws,
            buf_a,
            start_a,
            buf_b,
            start_b,
            window,
            tau_step,
            bail,
        )
    }

    /// See [`Backend::match_score_fp`].
    #[allow(clippy::too_many_arguments)]
    pub fn match_score_fp(
        &mut self,
        buf_a: &[Complex],
        start_a: usize,
        fp: &CorrFootprint,
        start_b: usize,
        window: usize,
        tau_step: f64,
        bail: Option<f64>,
    ) -> MatchScore {
        self.kind.backend().match_score_fp(
            &mut self.ws,
            buf_a,
            start_a,
            fp,
            start_b,
            window,
            tau_step,
            bail,
        )
    }

    /// Builds (or completes) `fp` so it covers every lane of the τ sweep
    /// at `tau_step` for `buf` — after this, [`Kernel::match_score_fp`]
    /// can score any span of `buf` at that step (or any coarser step
    /// whose fracs are a subset, e.g. 0.5 after 0.25) without touching
    /// the raw samples. Already-built lanes are kept; a length change in
    /// the source buffer drops them all first.
    ///
    /// Lanes are interpolated with [`Backend::resample_into`], which is
    /// bit-identical across backends, so footprint contents never depend
    /// on which backend built them. `alloc` supplies the sample vectors
    /// (the caller's buffer pool — this crate has no allocator seam of
    /// its own).
    pub fn ensure_footprint(
        &mut self,
        fp: &mut CorrFootprint,
        buf: &[Complex],
        tau_step: f64,
        alloc: &mut dyn FnMut() -> Vec<Complex>,
    ) {
        if fp.len != buf.len() {
            fp.clear();
            fp.len = buf.len();
        }
        for tau in tau_sweep(tau_step) {
            let frac = tau - tau.floor();
            if fp.lane(frac).is_some() {
                continue;
            }
            let mut lane = SubLattice { frac, samples: alloc(), energy: Vec::new() };
            self.resample_into(buf, -1.0 + frac, 1.0, buf.len() + 2, &mut lane.samples);
            lane.refresh_energy();
            fp.lanes.push(lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: usize, seed: u64) -> Vec<Complex> {
        (0..n)
            .map(|k| {
                let t = (k as u64).wrapping_mul(seed.wrapping_add(1)) as f64;
                Complex::cis(0.13 * t).scale(1.0 + 0.2 * ((k % 7) as f64))
            })
            .collect()
    }

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (k, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!((*x - *y).abs() < tol, "{what}[{k}]: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn backend_names_parse_case_insensitively() {
        for s in ["scalar", "Scalar", "SCALAR"] {
            assert_eq!(BackendKind::from_name(s), Some(BackendKind::Scalar), "{s}");
        }
        for s in ["simd", "Simd", "SIMD"] {
            assert_eq!(BackendKind::from_name(s), Some(BackendKind::Simd), "{s}");
        }
    }

    #[test]
    fn unknown_backend_names_are_rejected() {
        // Regression: `from_env` used to treat every unrecognized value
        // (typos, wrong case, not-yet-implemented backends) as the
        // default, silently running differential jobs on the wrong
        // backend. The shared parser must reject them so `from_env` can
        // fail loudly. `optimized` named a backend that was folded into
        // `simd`; it is an unknown name now.
        for s in ["gpu", "avx2", "scalarr", "optimized", "optimised", "", " scalar", "simd "] {
            assert_eq!(BackendKind::from_name(s), None, "{s:?} must not parse");
        }
    }

    #[test]
    fn backends_agree_on_scan() {
        let y = sig(300, 3);
        let s = sig(32, 7);
        for omega in [0.0, 0.043, -0.12] {
            let mut a = Vec::new();
            let mut b = Vec::new();
            Kernel::new(BackendKind::Scalar).scan_into(&y, &s, omega, 0..y.len(), &mut a);
            Kernel::new(BackendKind::Simd).scan_into(&y, &s, omega, 0..y.len(), &mut b);
            assert_close(&a, &b, 1e-9, "simd");
        }
    }

    #[test]
    fn backends_agree_on_fir_bit_exact() {
        // 131 inputs: the Simd interior (odd length) ends in a scalar
        // remainder, exercising both the 4-wide and tail paths.
        let x = sig(131, 5);
        let fir = Fir::new(
            vec![Complex::new(0.1, 0.02), Complex::real(1.0), Complex::new(0.2, -0.06)],
            1,
        );
        let mut a = Vec::new();
        Kernel::new(BackendKind::Scalar).fir_apply_into(&fir, &x, &mut a);
        let mut b = Vec::new();
        Kernel::new(BackendKind::Simd).fir_apply_into(&fir, &x, &mut b);
        assert_eq!(a, b, "simd FIR must be bit-identical");
    }

    #[test]
    fn backends_agree_on_resample_bit_exact() {
        let x = sig(256, 11);
        for (start, step) in [(0.37, 1.0), (-3.2, 1.0), (5.0, 1.0005), (250.9, 1.0), (0.0, 0.33)] {
            let mut a = Vec::new();
            Kernel::new(BackendKind::Scalar).resample_into(&x, start, step, 301, &mut a);
            let mut b = Vec::new();
            Kernel::new(BackendKind::Simd).resample_into(&x, start, step, 301, &mut b);
            assert_eq!(a, b, "simd resample must be bit-identical at {start}+k*{step}");
        }
    }

    #[test]
    fn backends_agree_on_mrc_bit_exact() {
        let s1 = sig(41, 1);
        let s2 = sig(25, 2);
        let s3 = sig(33, 3);
        // one stream, two streams (+tail), three streams, zero weights
        let cases: Vec<Vec<(&[Complex], f64)>> = vec![
            vec![(&s1, 2.0)],
            vec![(&s1, 0.0)],
            vec![(&s1, 2.0), (&s2, 0.5)],
            vec![(&s2, 0.5), (&s1, 2.0)],
            vec![(&s1, 2.0), (&s2, 0.5), (&s3, 0.0)],
        ];
        for streams in &cases {
            let mut a = Vec::new();
            Kernel::new(BackendKind::Scalar).combine_weighted_into(streams, &mut a);
            let mut b = Vec::new();
            Kernel::new(BackendKind::Simd).combine_weighted_into(streams, &mut b);
            assert_eq!(a, b, "simd MRC must be bit-identical");
        }
    }

    #[test]
    fn kind_names_and_dispatch() {
        assert_eq!(BackendKind::Scalar.name(), "scalar");
        assert_eq!(BackendKind::Simd.name(), "simd");
        assert_eq!(Kernel::new(BackendKind::Scalar).kind(), BackendKind::Scalar);
        assert_eq!(Kernel::new(BackendKind::Simd).kind(), BackendKind::Simd);
    }

    #[test]
    fn tau_sweep_reaches_both_endpoints() {
        for (step, count) in [(1.0, 3), (0.5, 5), (0.25, 9)] {
            let taus: Vec<f64> = tau_sweep(step).collect();
            assert_eq!(taus.len(), count, "step {step}");
            assert_eq!(taus[0], -1.0);
            assert_eq!(*taus.last().unwrap(), 1.0, "dyadic steps hit +1 exactly");
        }
        // Regression for the float-drift bug: the accumulated `tau +=
        // 0.2` sweep drifted past the `tau <= 1.0` bound one iteration
        // early and never evaluated the +1.0 alignment.
        let taus: Vec<f64> = tau_sweep(0.2).collect();
        assert_eq!(taus.len(), 11, "0.2 sweep covers all 11 grid points");
        assert!((taus.last().unwrap() - 1.0).abs() < 1e-9, "last τ ≈ +1.0");
    }

    /// Two buffers carrying the same band-limited signal, the second one
    /// delayed by `shift` samples — the matched-collision shape of
    /// §4.2.2, where the metric should spike near 1 at τ ≈ 0.
    fn matched_pair(n: usize, shift: f64) -> (Vec<Complex>, Vec<Complex>) {
        let wave = |t: f64| {
            Complex::cis(0.05 * t)
                + Complex::cis(-0.11 * t).scale(0.5)
                + Complex::cis(0.23 * t).scale(0.25)
        };
        let a: Vec<Complex> = (0..n).map(|k| wave(k as f64)).collect();
        let b: Vec<Complex> = (0..n).map(|k| wave(k as f64 - shift)).collect();
        (a, b)
    }

    #[test]
    fn backends_agree_on_match_score() {
        let (a, b) = matched_pair(400, 0.3);
        let mut s = Kernel::new(BackendKind::Scalar);
        let mut o = Kernel::new(BackendKind::Simd);
        for step in [0.25, 0.5, 1.0] {
            let ms = s.match_score(&a, 64, &b, 64, 256, step, None);
            let mo = o.match_score(&a, 64, &b, 64, 256, step, None);
            assert!((ms.metric - mo.metric).abs() < 1e-9, "step {step}: {ms:?} vs {mo:?}");
            assert!((ms.tau - mo.tau).abs() < step + 1e-12, "step {step}: {ms:?} vs {mo:?}");
        }
        // the matched pair actually spikes, and the argmax τ cancels the
        // applied fractional delay (b delayed by 0.3 → reading b at k + τ
        // with τ ≈ +0.3 re-aligns it; nearest 0.25-grid point is +0.25)
        let ms = s.match_score(&a, 64, &b, 64, 256, 0.25, None);
        assert!(ms.metric > 0.9, "matched metric {ms:?}");
        assert_eq!(ms.tau, 0.25, "argmax τ snaps to the applied delay");
    }

    #[test]
    fn footprint_matches_raw_on_all_backends() {
        let (a, b) = matched_pair(300, 0.4);
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let mut k = Kernel::new(kind);
            let mut fp = CorrFootprint::default();
            k.ensure_footprint(&mut fp, &b, 0.25, &mut Vec::new);
            assert!(fp.covers(b.len(), 0.25));
            assert!(fp.covers(b.len(), 0.5), "0.5 fracs are a subset of 0.25's");
            assert!(!fp.covers(b.len() + 1, 0.25));
            for (sa, sb, window) in [(32, 32, 200), (0, 0, 64), (250, 10, 512)] {
                let raw = k.match_score(&a, sa, &b, sb, window, 0.25, None);
                let viafp = k.match_score_fp(&a, sa, &fp, sb, window, 0.25, None);
                assert!(
                    (raw.metric - viafp.metric).abs() < 1e-9,
                    "{} ({sa},{sb},{window}): {raw:?} vs {viafp:?}",
                    kind.name()
                );
                assert!((raw.tau - viafp.tau).abs() < 0.25 + 1e-12);
            }
        }
    }

    #[test]
    fn bail_returns_exact_metric_at_or_above_threshold() {
        let (a, b) = matched_pair(400, 0.2);
        let mut o = Kernel::new(BackendKind::Simd);
        let exact = o.match_score(&a, 50, &b, 50, 300, 0.25, None);
        assert!(exact.metric > 0.5, "sanity: {exact:?}");
        // bail below the true metric: the result must be bit-identical
        let bailed = o.match_score(&a, 50, &b, 50, 300, 0.25, Some(0.15));
        assert_eq!(exact, bailed, "metric ≥ bail must be exact");
        // bail above the true metric: only the rejection is guaranteed
        let over = o.match_score(&a, 50, &b, 50, 300, 0.25, Some(exact.metric + 0.01));
        assert!(over.metric < exact.metric + 0.01, "sub-bail values mean rejection");
        // same contract through the footprint path
        let mut fp = CorrFootprint::default();
        o.ensure_footprint(&mut fp, &b, 0.25, &mut Vec::new);
        let fp_exact = o.match_score_fp(&a, 50, &fp, 50, 300, 0.25, None);
        let fp_bailed = o.match_score_fp(&a, 50, &fp, 50, 300, 0.25, Some(0.15));
        assert_eq!(fp_exact, fp_bailed);
    }

    #[test]
    fn match_score_empty_overlaps_are_zero() {
        let (a, b) = matched_pair(64, 0.0);
        let mut fp = CorrFootprint::default();
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let mut k = Kernel::new(kind);
            k.ensure_footprint(&mut fp, &b, 0.25, &mut Vec::new);
            // start past either buffer's end, empty buffers, zero window
            for (ba, sa, bb, sb, w) in [
                (&a[..], 64usize, &b[..], 0usize, 128usize),
                (&a[..], 0, &b[..], 64, 128),
                (&[][..], 0, &b[..], 0, 128),
                (&a[..], 0, &[][..], 0, 128),
                (&a[..], 0, &b[..], 0, 0),
            ] {
                assert_eq!(k.match_score(ba, sa, bb, sb, w, 0.25, None), MatchScore::default());
            }
            assert_eq!(k.match_score_fp(&a, 64, &fp, 0, 128, 0.25, None), MatchScore::default());
            assert_eq!(k.match_score_fp(&a, 0, &fp, 64, 128, 0.25, None), MatchScore::default());
        }
    }

    fn to_complex(raw: &[(f64, f64)]) -> Vec<Complex> {
        raw.iter().map(|&(re, im)| Complex::new(re, im)).collect()
    }

    fn flat64(v: &[Complex]) -> Vec<f64> {
        v.iter().flat_map(|c| [c.re, c.im]).collect()
    }

    /// Runs `f` on a fresh `Simd` kernel twice — once on the host's lane
    /// path (AVX2 where the CPU has it) and once with the portable
    /// `[f64; 4]` path forced — and asserts the outputs agree bit for bit
    /// (`to_bits`, so even the sign of a zero must match).
    fn assert_avx2_eq_portable(what: &str, f: impl Fn(&mut Kernel) -> Vec<f64>) {
        let native = f(&mut Kernel::new(BackendKind::Simd));
        let portable = lanes::portable(|| f(&mut Kernel::new(BackendKind::Simd)));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&native), bits(&portable), "{what}: AVX2 and portable lane paths diverged");
    }

    #[test]
    fn portable_override_is_scoped_to_the_closure() {
        assert!(!lanes::portable(lanes::avx2), "forced portable must hide AVX2");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(lanes::avx2(), std::arch::is_x86_feature_detected!("avx2"));
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn avx2_matches_portable_scan(
            y_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..300),
            s_raw in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..80),
            omega in -0.5f64..0.5,
        ) {
            let (y, s) = (to_complex(&y_raw), to_complex(&s_raw));
            assert_avx2_eq_portable("scan", |k| {
                let mut out = Vec::new();
                k.scan_into(&y, &s, omega, 0..y.len() + 4, &mut out);
                flat64(&out)
            });
        }

        #[test]
        fn avx2_matches_portable_fir(
            x_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..200),
            taps_raw in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1..12),
            delay_pick in 0usize..12,
        ) {
            let (x, taps) = (to_complex(&x_raw), to_complex(&taps_raw));
            let fir = Fir::new(taps.clone(), delay_pick % taps.len());
            assert_avx2_eq_portable("fir", |k| {
                let mut out = Vec::new();
                k.fir_apply_into(&fir, &x, &mut out);
                flat64(&out)
            });
        }

        #[test]
        fn avx2_matches_portable_resample(
            x_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..200),
            start in -20.0f64..220.0,
            drift in -0.01f64..0.01,
            n in 0usize..250,
            integer_step in 0u8..2,
        ) {
            let x = to_complex(&x_raw);
            let step = if integer_step == 1 { 1.0 } else { 1.0 + drift };
            assert_avx2_eq_portable("resample", |k| {
                let mut out = Vec::new();
                k.resample_into(&x, start, step, n, &mut out);
                flat64(&out)
            });
        }

        /// The wide resampler block on its own (`lanes::resample_run`
        /// with any tap vector, output counts at and around its block
        /// boundaries) and through `resample_into` on unit grids whose
        /// runs cross a power of two or are clipped by the buffer's end.
        #[test]
        fn avx2_matches_portable_wide_block(
            x_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 280..600),
            taps in proptest::collection::vec(-1.0f64..1.0, 1..20),
            pick in 0usize..1000,
            mu in 0.0f64..1.0,
            power in 4u32..10,
        ) {
            const BLOCK_EDGES: [usize; 9] = [15, 16, 17, 31, 32, 33, 255, 256, 257];
            let x = to_complex(&x_raw);
            let m = BLOCK_EDGES[pick % BLOCK_EDGES.len()];
            let base0 = pick % (x.len() + 2 - taps.len() - m);
            assert_avx2_eq_portable("resample_run", |_| {
                let mut out = vec![ZERO; m];
                lanes::resample_run(&x, base0, &taps, &mut out);
                flat64(&out)
            });
            let crossing = (1u64 << power) as f64 - (pick % 20) as f64 + mu;
            let clipped = (x.len() - m) as f64 + mu + (pick % 12) as f64;
            for start in [crossing, clipped] {
                assert_avx2_eq_portable("resample block path", |k| {
                    let mut out = Vec::new();
                    k.resample_into(&x, start, 1.0, m, &mut out);
                    flat64(&out)
                });
            }
        }

        #[test]
        fn avx2_matches_portable_mrc(
            s1_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..120),
            s2_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..120),
            s3_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..120),
            weights in (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0),
        ) {
            let (s1, s2, s3) = (to_complex(&s1_raw), to_complex(&s2_raw), to_complex(&s3_raw));
            let streams: Vec<(&[Complex], f64)> =
                vec![(&s1, weights.0), (&s2, weights.1), (&s3, weights.2)];
            for take in 1..=streams.len() {
                assert_avx2_eq_portable("mrc", |k| {
                    let mut out = Vec::new();
                    k.combine_weighted_into(&streams[..take], &mut out);
                    flat64(&out)
                });
            }
        }

        #[test]
        fn avx2_matches_portable_match_score(
            a_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..260),
            b_raw in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 0..260),
            starts in (0usize..280, 0usize..280),
            window in 0usize..200,
            step_pick in 0u8..3,
            bail in 0.0f64..1.0,
        ) {
            let (a, b) = (to_complex(&a_raw), to_complex(&b_raw));
            let (start_a, start_b) = starts;
            let tau_step = [0.25, 0.5, 1.0][step_pick as usize];
            let mut fp = CorrFootprint::default();
            Kernel::new(BackendKind::Simd).ensure_footprint(&mut fp, &b, tau_step, &mut Vec::new);
            for cut in [None, Some(bail)] {
                assert_avx2_eq_portable("match_score", |k| {
                    let m = k.match_score(&a, start_a, &b, start_b, window, tau_step, cut);
                    vec![m.metric, m.tau]
                });
                assert_avx2_eq_portable("match_score_fp", |k| {
                    let m = k.match_score_fp(&a, start_a, &fp, start_b, window, tau_step, cut);
                    vec![m.metric, m.tau]
                });
            }
        }
    }
}
