//! Per-(packet × collision) channel view: estimation, chunk decoding,
//! image synthesis, and parameter tracking.
//!
//! Everything ZigZag does to a packet inside one receive buffer goes
//! through a [`ChannelView`]:
//!
//! * **Estimation** (§4.2.4a): the channel `H` comes from the correlation
//!   trick `Ĥ = Γ'(Δ)/Σ|s[k]|²`, which works even when the packet's
//!   preamble is *immersed* in another sender's signal ("this is the
//!   harder case since the preamble in Bob's packet … is immersed in
//!   noise" — the interferer's data is uncorrelated with the preamble and
//!   averages out). The frequency offset starts from the association-time
//!   coarse estimate (§4.2.1); the fractional timing from a small search
//!   around the correlation peak; the static ISI taps from the
//!   association registry or, when the preamble is clean, a fresh
//!   least-squares fit.
//! * **Chunk decoding** (§4.2.3a): "the decoder operates on a chunk after
//!   it has been rid from interference, and hence can use standard
//!   techniques" — de-rotate by the phase model, equalize, slice, with a
//!   decision-directed PLL and Mueller–Müller timing loop running inside
//!   the chunk. Works forward or backward (§4.3b).
//! * **Image synthesis** (§4.2.3b, §4.2.4d): re-modulate decided symbols,
//!   re-apply the ISI taps ("invert the equalizer"), the gain, the phase
//!   ramp, and sinc-interpolate onto the receiver's sampling grid.
//! * **Feedback tracking** (§4.2.4b–c): comparing a synthesized chunk
//!   image with the actual received image (exposed once the other
//!   packet's chunk is subtracted) yields phase, frequency
//!   (`δf̂ += α·δφ/δt`), amplitude and timing corrections.

use crate::config::{debug_pll, DecoderConfig};
use crate::engine::scratch::BufPool;
use zigzag_phy::bits::bits_to_bytes;
use zigzag_phy::complex::{inner, Complex, ZERO};
use zigzag_phy::equalize::{design_inverse, estimate_channel_taps, DEFAULT_EQUALIZER_TAPS};
use zigzag_phy::filter::Fir;
use zigzag_phy::frame::PlcpHeader;
use zigzag_phy::interp::{fill_taps, interp_at, tap_window, DEFAULT_HALF_WIDTH};
use zigzag_phy::kernel::Kernel;
use zigzag_phy::modulation::Modulation;
use zigzag_phy::sync::estimate_freq;

/// Gain α of the reconstruction frequency update `δf̂ += α·δφ/δt`.
const ALPHA_FREQ: f64 = 0.3;

// Cool loop gains: at the evaluation's SNRs the BPSK decision noise is
// ~0.35 rad/symbol, and a hot integral gain turns it into frequency
// jitter that wrecks whole blocks. kp alone keeps ramp lag at
// ω_resid/kp ≈ 0.006 rad for the association-jitter residual.
/// Decision-directed PLL proportional gain of the chunk decoder.
const PLL_KP: f64 = 0.04;
/// Decision-directed PLL integral gain of the chunk decoder.
const PLL_KI: f64 = 2e-4;

/// Mueller–Müller timing loop gain, applied once per block to the
/// block-averaged timing error (see [`ChannelView::decode_chunk_into`]).
const MM_GAIN: f64 = 0.3;

/// Sub-block size (symbols) between timing re-interpolations.
const BLOCK: usize = 128;

/// Proportional gain of the recovery solver's per-window PI phase
/// tracker ([`Tracking::Window`]). A sweep of the impaired-link reclaim
/// over kp ∈ [0.05, 1.6] × ki ∈ [0, 0.4], at four impairment classes up
/// to 3× the typical phase noise and drift, peaked at 21/144 on a plateau
/// holding kp 0.65 with ki ≤ 0.08. Reclaim collapses below kp ≈ 0.1 (the
/// loop cannot follow the walk) and above kp ≈ 1.6 or ki ≈ 0.4 (noise
/// amplification). 0.65 is the plateau centre, the gain most tolerant of
/// a deployment's oscillator differing from the model.
const WINDOW_PLL_KP: f64 = 0.65;

/// Integral gain of the per-window PI phase tracker (absorbs residual
/// frequency offset); the centre of the same plateau as
/// [`WINDOW_PLL_KP`].
const WINDOW_PLL_KI: f64 = 0.02;

/// Decode direction (§4.3b forward/backward decoding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Process symbols in increasing index order.
    Forward,
    /// Process symbols in decreasing index order.
    Backward,
}

/// Linear phase model `φ(n) = phase + ω·(n − ref_n)` over symbol index.
#[derive(Clone, Debug)]
pub struct PhaseModel {
    phase: f64,
    ref_n: f64,
    omega: f64,
}

impl PhaseModel {
    /// New model anchored at symbol `ref_n`.
    pub fn new(phase: f64, ref_n: f64, omega: f64) -> Self {
        Self { phase, ref_n, omega }
    }

    /// Phase at symbol `n`.
    pub fn at(&self, n: f64) -> f64 {
        self.phase + self.omega * (n - self.ref_n)
    }

    /// Moves the anchor to `n` without changing the model.
    pub fn rebase(&mut self, n: f64) {
        self.phase = self.at(n);
        self.ref_n = n;
    }

    /// Current frequency (rad/symbol).
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Adds `dphase` at the anchor and `domega` to the slope.
    pub fn correct(&mut self, dphase: f64, domega: f64) {
        self.phase += dphase;
        self.omega += domega;
    }
}

/// A packet's symbol-level layout, shared by all of its views.
#[derive(Clone, Debug)]
pub struct PacketLayout {
    /// Known preamble symbols (BPSK ±1).
    pub preamble: Vec<Complex>,
    /// Number of PLCP symbols following the preamble (BPSK).
    pub plcp_syms: usize,
    /// Modulation of the MPDU body. Starts as the PLCP default (BPSK) and
    /// is updated once the PLCP is parsed.
    pub payload_mod: Modulation,
    /// Total symbol count of the packet. May start as an upper bound
    /// (until the PLCP reveals the MPDU length) and shrink.
    pub total_syms: usize,
}

impl PacketLayout {
    /// Layout for a packet whose PLCP has not been read yet: body assumed
    /// BPSK, length capped at `max_syms`.
    pub fn unknown(preamble: Vec<Complex>, plcp_syms: usize, max_syms: usize) -> Self {
        Self { preamble, plcp_syms, payload_mod: Modulation::Bpsk, total_syms: max_syms }
    }

    /// Modulation in effect at symbol `n` (preamble/PLCP are BPSK).
    pub fn modulation_at(&self, n: usize) -> Modulation {
        if n < self.preamble.len() + self.plcp_syms {
            Modulation::Bpsk
        } else {
            self.payload_mod
        }
    }

    /// Known symbol at `n` (preamble positions only).
    pub fn known_symbol(&self, n: usize) -> Option<Complex> {
        self.preamble.get(n).copied()
    }

    /// First symbol index of the MPDU body.
    pub fn body_start(&self) -> usize {
        self.preamble.len() + self.plcp_syms
    }

    /// Reads the PLCP from the packet's decided symbols (`symbol(n)` is
    /// the constellation point at symbol `n`, `None` while undecided) and
    /// learns the body modulation and length from it. The length only
    /// ever shrinks: a header announcing more symbols than `total_syms`
    /// leaves it as is. Returns the header and whether the announced body
    /// fits; `None`, with the layout untouched, while a PLCP symbol is
    /// undecided or when the header fails its CRC-8.
    pub(crate) fn learn_plcp(
        &mut self,
        symbol: impl Fn(usize) -> Option<Complex>,
    ) -> Option<(PlcpHeader, bool)> {
        let span = self.preamble.len()..self.body_start();
        if !span.clone().all(|n| symbol(n).is_some()) {
            return None;
        }
        let mut bits = Vec::with_capacity(span.len());
        for n in span {
            Modulation::Bpsk.decide_bits(symbol(n).expect("checked above"), &mut bits);
        }
        let plcp = PlcpHeader::from_bytes(&bits_to_bytes(&bits))?;
        let total =
            self.body_start() + plcp.modulation.symbols_for_bits(plcp.mpdu_len as usize * 8);
        self.payload_mod = plcp.modulation;
        let fits = total <= self.total_syms;
        if fits {
            self.total_syms = total;
        }
        Some((plcp, fits))
    }

    /// Slices a whole-packet symbol stream (symbol 0 first) to the
    /// scrambled MPDU bits: every symbol from [`PacketLayout::body_start`]
    /// on, at the modulation in effect there.
    pub(crate) fn body_bits(&self, symbols: impl IntoIterator<Item = Complex>) -> Vec<u8> {
        let mut bits = Vec::new();
        for (n, s) in symbols.into_iter().enumerate().skip(self.body_start()) {
            self.modulation_at(n).decide_bits(s, &mut bits);
        }
        bits
    }
}

/// Output of decoding one chunk.
#[derive(Clone, Debug, Default)]
pub struct ChunkDecode {
    /// Soft (normalised) symbol estimates, one per symbol in the chunk,
    /// in **symbol-index order** regardless of decode direction.
    pub soft: Vec<Complex>,
    /// Hard-decision constellation points, same order.
    pub decided: Vec<Complex>,
}

/// Per-loop state of the recovery solver's windowed PI phase tracker
/// (one per collision × packet — see [`Tracking::Window`]). The
/// integrator accumulates the persistent part of the per-window phase
/// error, i.e. the residual frequency offset the association-time ω
/// estimate missed, while the proportional term absorbs the phase-noise
/// walk window by window.
#[derive(Clone, Debug, Default)]
pub(crate) struct WindowPll {
    /// Integrated phase correction (radians per window).
    integ: f64,
}

/// How [`ChannelView::feedback`] turns a rendered image's reconstruction
/// error into parameter corrections.
pub(crate) enum Tracking<'a> {
    /// No feedback: the image is rendered and subtracted only (the
    /// executor's re-render after a re-estimate).
    Off,
    /// The §4.2.4 one-shot correction: the full measured `δφ` plus an
    /// `α·δφ/δt` frequency nudge (the executor's chunks, capture's
    /// blocks).
    Chunk,
    /// The recovery solver's per-window damped PI loop: the phase
    /// correction is `kp·δφ + ∫ki·δφ`. The proportional term follows the
    /// phase-noise walk with bounded response to any single noisy window
    /// (the observed span is still contaminated by the *other* packets'
    /// undecided symbols mid-solve), and the integrator converges on the
    /// residual frequency offset.
    Window(&'a mut WindowPll),
}

/// A synthesized image of a chunk, on the receive-buffer sample grid.
#[derive(Clone, Debug, Default)]
pub struct Image {
    /// First buffer index the image occupies.
    pub first: usize,
    /// Image samples (to subtract from the buffer).
    pub samples: Vec<Complex>,
}

impl Image {
    /// Buffer range covered.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.samples.len()
    }

    /// Subtracts the image from a buffer (clipped to the buffer).
    pub fn subtract_from(&self, buffer: &mut [Complex]) {
        for (k, &s) in self.samples.iter().enumerate() {
            if let Some(b) = buffer.get_mut(self.first + k) {
                *b -= s;
            }
        }
    }

    /// Adds the image back to a buffer (undo of
    /// [`Image::subtract_from`]).
    pub fn add_to(&self, buffer: &mut [Complex]) {
        for (k, &s) in self.samples.iter().enumerate() {
            if let Some(b) = buffer.get_mut(self.first + k) {
                *b += s;
            }
        }
    }
}

/// The receiver's model of one packet inside one receive buffer.
#[derive(Clone, Debug)]
pub struct ChannelView {
    /// Integer start position the detector reported.
    pub start: usize,
    /// Fractional timing offset relative to `start` (tracked).
    pub mu: f64,
    /// Channel amplitude estimate `|H|` (tracked).
    pub gain: f64,
    /// Phase/frequency model (tracked).
    pub phase: PhaseModel,
    /// Static ISI taps (unit main tap).
    pub taps: Fir,
    /// Zero-forcing equalizer (inverse of `taps`).
    pub inv: Fir,
    /// Symbol index of the last reconstruction feedback (for `δφ/δt`).
    last_fb_n: Option<f64>,
    cfg: DecoderConfig,
}

impl ChannelView {
    /// Estimates a view from the packet's preamble region in `buffer`.
    ///
    /// * `start` — integer sample index where the packet begins (from the
    ///   collision detector).
    /// * `omega_init` — coarse frequency offset. `Some(ω)` means a trusted
    ///   association-time estimate (§4.2.1); it is **not** re-estimated,
    ///   because a preamble-length fit at operating SNR is an order of
    ///   magnitude noisier than the long-term registry value, and a bad ω
    ///   wrecks cross-collision image synthesis within ~100 symbols.
    ///   `None` self-estimates from the preamble (only sensible when the
    ///   preamble is clean).
    /// * `taps_hint` — static per-link ISI taps if known; when `None` and
    ///   `clean_preamble` is set, taps are fitted from the preamble;
    ///   otherwise identity.
    /// * `clean_preamble` — whether the preamble region is known to be
    ///   interference-free.
    ///
    /// Returns `None` if the correlation at `start` is too weak to carry
    /// an estimate.
    pub fn estimate(
        buffer: &[Complex],
        start: usize,
        preamble: &[Complex],
        omega_init: Option<f64>,
        taps_hint: Option<&Fir>,
        clean_preamble: bool,
        cfg: &DecoderConfig,
    ) -> Option<ChannelView> {
        let l = preamble.len();
        if start + l + 1 > buffer.len() {
            return None;
        }
        // For the µ search we only need ω to hold the preamble coherent;
        // an unknown ω starts at 0 and is re-estimated below.
        let omega_search = omega_init.unwrap_or(0.0);
        // 1. fractional timing: search the frequency-compensated
        //    correlation over µ ∈ [−1.05, 1.05] (±0.15 for the parabola).
        let corr = PreambleCorr::new(buffer, start, preamble, omega_search, -1.25, 1.25);
        // ±1.05 samples: the integer `start` from the detector can be off
        // by one sample when the true fractional offset is near ±0.5
        let mut best_mu = 0.0;
        let mut best_mag = -1.0;
        let mut mu = -1.05;
        while mu <= 1.05 {
            let m = corr.at(mu).abs();
            if m > best_mag {
                best_mag = m;
                best_mu = mu;
            }
            mu += 0.15;
        }
        // parabolic refinement
        let (m_l, m_c, m_r) =
            (corr.at(best_mu - 0.15).abs(), best_mag, corr.at(best_mu + 0.15).abs());
        let denom = m_l - 2.0 * m_c + m_r;
        if denom.abs() > 1e-12 {
            let frac = 0.5 * (m_l - m_r) / denom;
            best_mu += 0.15 * frac.clamp(-1.0, 1.0);
        }

        // 2. channel: Ĥ = Γ'(µ*)/Σ|s|² (§4.2.4a).
        let peak = corr.at(best_mu);
        let energy: f64 = preamble.iter().map(|s| s.norm_sq()).sum();
        let h = peak / energy;
        if h.abs() < 1e-6 {
            return None;
        }

        // The preamble resampled at µ*, shared by the ω self-estimate and
        // the tap fit (both only on clean preambles).
        let fit_taps = cfg.use_isi_filter && taps_hint.is_none();
        let rx: Vec<Complex> = if clean_preamble && (omega_init.is_none() || fit_taps) {
            (0..l).map(|k| interp_at(buffer, start as f64 + best_mu + k as f64)).collect()
        } else {
            Vec::new()
        };

        // 3. frequency: trust the registry when available; self-estimate
        //    from the preamble otherwise (clean preambles only — the Fitz
        //    estimate under interference would alias onto the interferer).
        let omega = match omega_init {
            Some(w) => w,
            None if clean_preamble => estimate_freq(&rx, preamble),
            None => 0.0,
        };

        // 4. ISI taps.
        let taps = if !cfg.use_isi_filter {
            Fir::identity()
        } else if let Some(t) = taps_hint {
            t.clone()
        } else if clean_preamble {
            // fit on the de-rotated, gain-normalised preamble
            let derot: Vec<Complex> = rx
                .iter()
                .enumerate()
                .map(|(k, &y)| y * Complex::cis(-omega * k as f64) / h)
                .collect();
            estimate_channel_taps(&derot, preamble, 5, 2)
                .map(normalise_main_tap)
                .unwrap_or_else(Fir::identity)
        } else {
            Fir::identity()
        };
        Some(ChannelView::from_params(start, best_mu, h.abs(), h.arg(), omega, taps, cfg))
    }

    /// Builds a view from known parameters: what [`ChannelView::estimate`]
    /// found, or a test oracle's truth.
    pub fn from_params(
        start: usize,
        mu: f64,
        gain: f64,
        phase0: f64,
        omega: f64,
        taps: Fir,
        cfg: &DecoderConfig,
    ) -> ChannelView {
        let inv = if taps.is_identity() {
            Fir::identity()
        } else {
            design_inverse(&taps, DEFAULT_EQUALIZER_TAPS).unwrap_or_else(Fir::identity)
        };
        ChannelView {
            start,
            mu,
            gain,
            phase: PhaseModel::new(phase0, 0.0, omega),
            taps,
            inv,
            last_fb_n: None,
            cfg: cfg.clone(),
        }
    }

    /// Buffer position of symbol `n` under the current timing estimate.
    pub fn position(&self, n: f64) -> f64 {
        self.start as f64 + self.mu + n
    }

    /// Decodes symbols `range` of the packet from `buffer` (which must be
    /// interference-free over the chunk — the ZigZag executor guarantees
    /// this by subtraction). Preamble symbols are treated as known
    /// (data-aided); PLCP and body symbols are sliced per `layout`.
    ///
    /// Tracking loops (PLL + Mueller–Müller) run inside the chunk and
    /// leave the view's phase/timing models positioned at the chunk's far
    /// end (in processing direction). Fills `out` (cleared first) and
    /// draws temporary grids from `pool`, so the per-block
    /// resample/equalize buffers are reused across chunks. The block
    /// resampling and equalization run on `kernel`'s backend.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_chunk_into(
        &mut self,
        buffer: &[Complex],
        range: std::ops::Range<usize>,
        layout: &PacketLayout,
        dir: Direction,
        pool: &mut BufPool,
        kernel: &mut Kernel,
        out: &mut ChunkDecode,
    ) {
        let n_syms = range.len();
        out.soft.clear();
        out.soft.resize(n_syms, ZERO);
        out.decided.clear();
        out.decided.resize(n_syms, ZERO);
        let (soft, decided) = (&mut out.soft, &mut out.decided);
        if n_syms == 0 {
            return;
        }
        let margin = self.inv.len();
        let block = BLOCK;

        // iterate blocks in processing order
        let mut blocks: Vec<(usize, usize)> = Vec::new();
        let mut s = range.start;
        while s < range.end {
            let e = (s + block).min(range.end);
            blocks.push((s, e));
            s = e;
        }
        if dir == Direction::Backward {
            blocks.reverse();
        }

        // fine PLL residual state folded into the model per block
        let mut fine_phase = 0.0f64;
        let mut fine_freq = 0.0f64;
        let (kp, ki, mm_g) = (PLL_KP, PLL_KI, MM_GAIN);
        let mm_sign = if dir == Direction::Forward { 1.0 } else { -1.0 };
        let mut prev_soft = ZERO;
        let mut prev_dec = ZERO;
        let mut primed = false;
        // Timing updates are decimated to once per block: the sampling grid
        // is fixed while a block is being processed, so applying
        // Mueller–Müller per symbol would integrate error with ~1 block of
        // actuation delay and go unstable. One damped update per block
        // (error averaged over the block) keeps the loop well inside its
        // stability margin while still tracking ppm-scale clock drift.
        let mut mm_acc = 0.0f64;
        let mut mm_n = 0usize;
        let mut grid = pool.take();
        let mut eq_buf = pool.take();

        for &(bs, be) in &blocks {
            // resample block (+ equalizer margin) on the symbol grid —
            // positions step by exactly one symbol, which is the cached-
            // tap fast path of the simd backend
            let lo = bs as isize - margin as isize;
            let hi = be as isize + margin as isize;
            kernel.resample_into(
                buffer,
                self.position(lo as f64),
                1.0,
                (hi - lo) as usize,
                &mut grid,
            );
            // de-rotate with the *model* (fine residual applied per
            // symbol below)
            for (i, v) in grid.iter_mut().enumerate() {
                *v *= Complex::cis(-self.phase.at((lo + i as isize) as f64));
            }
            let eq: &[Complex] = if self.inv.is_identity() {
                &grid
            } else {
                kernel.fir_apply_into(&self.inv, &grid, &mut eq_buf);
                &eq_buf
            };

            let idx_of = |n: usize| (n as isize - lo) as usize;
            let sym_iter: Box<dyn Iterator<Item = usize>> =
                if dir == Direction::Forward { Box::new(bs..be) } else { Box::new((bs..be).rev()) };
            for n in sym_iter {
                let y = eq[idx_of(n)] * Complex::cis(-fine_phase) / self.gain;
                let dec_point = match layout.known_symbol(n) {
                    Some(k) => k,
                    None => layout.modulation_at(n).decide_point(y),
                };
                soft[n - range.start] = y;
                decided[n - range.start] = dec_point;
                // decision-directed PLL (data-aided on known symbols)
                let err =
                    if dec_point.norm_sq() > 0.0 { (y * dec_point.conj()).arg() } else { 0.0 };
                // `fine_freq` is the residual phase velocity per *processing
                // step* (negated model-frequency error when running
                // backward); the advance is therefore direction-agnostic,
                // and only the fold into the model's ω flips sign.
                fine_freq += ki * err;
                fine_phase += kp * err + fine_freq;
                // Mueller–Müller timing (accumulated; applied per block)
                if primed {
                    let te = (prev_dec.conj() * y - dec_point.conj() * prev_soft).re;
                    mm_acc += te;
                    mm_n += 1;
                }
                prev_soft = y;
                prev_dec = dec_point;
                primed = true;
            }
            // fold fine residual into the model at the block's far edge
            let edge = if dir == Direction::Forward { be as f64 } else { bs as f64 };
            if debug_pll() {
                eprintln!(
                    "block {bs}..{be}: fold fine_phase={fine_phase:.4} fine_freq={fine_freq:.6} model_omega={:.6} mu={:.4}",
                    self.phase.omega(),
                    self.mu
                );
            }
            self.phase.rebase(edge);
            self.phase.correct(
                fine_phase,
                fine_freq * if dir == Direction::Forward { 1.0 } else { -1.0 },
            );
            fine_phase = 0.0;
            fine_freq = 0.0;
            if mm_n > 0 {
                let step = (mm_sign * mm_g * mm_acc / mm_n as f64).clamp(-0.1, 0.1);
                self.mu += step;
                mm_acc = 0.0;
                mm_n = 0;
            }
        }
        pool.put(grid);
        pool.put(eq_buf);
    }

    /// Synthesizes the image of symbols `range` on the buffer grid, from
    /// the clean constellation points in `symbols` (indexed by absolute
    /// symbol index; `None` for undecoded neighbours, treated as zero at
    /// the margins). Fills `out` (reusing its sample buffer) and draws
    /// temporaries from `pool`; the ISI shaping and grid interpolation
    /// run on `kernel`'s backend.
    pub fn synthesize_into(
        &self,
        range: std::ops::Range<usize>,
        symbols: &dyn Fn(usize) -> Option<Complex>,
        pool: &mut BufPool,
        kernel: &mut Kernel,
        out: &mut Image,
    ) {
        self.synthesize_at_into(range, symbols, &self.phase, pool, kernel, &mut [(self.mu, out)]);
    }

    /// Symbols an image reaches past its range on either side: the ISI
    /// taps plus the sinc-interpolation skirt.
    pub(crate) fn margin(&self) -> usize {
        self.taps.len() + 9
    }

    /// The unit-impulse column image: the buffer-grid samples this view
    /// produces for a lone `1 + 0j` at symbol `n` (every other symbol
    /// zero), over a symbol window wide enough to capture the full ISI +
    /// interpolation skirt. The oracle [`ChannelView::unit_column`] is
    /// checked against.
    #[cfg(test)]
    pub(crate) fn synthesize_unit_into(
        &self,
        n: usize,
        total_syms: usize,
        pool: &mut BufPool,
        kernel: &mut Kernel,
        out: &mut Image,
    ) {
        let unit = |i: usize| (i == n).then(|| Complex::real(1.0));
        self.synthesize_into(self.unit_window(n, total_syms), &unit, pool, kernel, out);
    }

    /// The symbol window of a unit image of symbol `n` in a packet of
    /// `total_syms` symbols: every symbol within the margin of `n`,
    /// clipped at symbol 0 and at `total_syms`.
    fn unit_window(&self, n: usize, total_syms: usize) -> std::ops::Range<usize> {
        let margin = self.margin();
        n.saturating_sub(margin)..(n + margin + 1).min(total_syms)
    }

    /// Recovery's column template: the image of a lone `1 + 0j` at symbol
    /// `margin()` with the carrier phase zeroed there, over that symbol's
    /// unit window. The phase model is linear and image positions step
    /// one sample per symbol, so every unit column of the view is this
    /// template shifted and rotated ([`ChannelView::unit_column`]).
    pub(crate) fn unit_template_into(
        &self,
        pool: &mut BufPool,
        kernel: &mut Kernel,
        out: &mut Image,
    ) {
        let n0 = self.margin();
        let unit = |i: usize| (i == n0).then(|| Complex::real(1.0));
        let phase = PhaseModel::new(0.0, n0 as f64, self.phase.omega());
        let window = self.unit_window(n0, 2 * n0 + 1);
        self.synthesize_at_into(window, &unit, &phase, pool, kernel, &mut [(self.mu, out)]);
    }

    /// Unit column `n` of a packet of `total_syms` symbols, read off the
    /// view's `template` ([`ChannelView::unit_template_into`]): `(p, a)`
    /// for every buffer position `p` of the unit window's owned span
    /// (clipped at buffer position 0), with `a = cis(φ(n)) · T(p − n)`.
    /// Positions past the template's ends lie beyond every tap's reach
    /// and read as zero.
    pub(crate) fn unit_column<'t>(
        &self,
        template: &'t Image,
        n: usize,
        total_syms: usize,
    ) -> impl Iterator<Item = (usize, Complex)> + 't {
        let rot = Complex::cis(self.phase.at(n as f64));
        // buffer position p sits at template position p − n + margin
        let (m, first) = (self.margin(), template.first);
        self.owned_span(self.unit_window(n, total_syms), self.mu).map(move |p| {
            let t = (p + m).checked_sub(n + first).and_then(|i| template.samples.get(i));
            (p, t.map_or(ZERO, |&t| rot * t))
        })
    }

    /// Buffer positions whose nearest symbol index, at fractional timing
    /// `mu`, falls in `range` — the span an image of `range` owns, which
    /// tiles exactly across adjacent chunks.
    fn owned_span(&self, range: std::ops::Range<usize>, mu: f64) -> std::ops::Range<usize> {
        let first = (self.start as f64 + mu + range.start as f64 - 0.5).ceil().max(0.0) as usize;
        let last = (self.start as f64 + mu + range.end as f64 - 0.5).ceil().max(0.0) as usize;
        first..last.max(first)
    }

    /// The one synthesis body. Shapes symbols `range`, widened by the
    /// margin, on the symbol grid once (ISI taps, gain, `phase` ramp),
    /// then resamples that grid onto the buffer once per `(µ, image)` in
    /// `outs`, so the timing gate's early and late images share a
    /// shaping.
    fn synthesize_at_into(
        &self,
        range: std::ops::Range<usize>,
        symbols: &dyn Fn(usize) -> Option<Complex>,
        phase: &PhaseModel,
        pool: &mut BufPool,
        kernel: &mut Kernel,
        outs: &mut [(f64, &mut Image)],
    ) {
        let m = self.margin();
        let lo = range.start as isize - m as isize;
        let hi = range.end as isize + m as isize;
        // clean symbols over the margin window
        let mut xw = pool.take();
        xw.extend((lo..hi).map(|n| if n < 0 { ZERO } else { symbols(n as usize).unwrap_or(ZERO) }));
        let mut shaped_buf = pool.take();
        let shaped: &mut Vec<Complex> = if self.taps.is_identity() {
            &mut xw
        } else {
            kernel.fir_apply_into(&self.taps, &xw, &mut shaped_buf);
            &mut shaped_buf
        };
        // apply gain + phase ramp on the symbol grid, in place; an exact
        // zero stays zero, so it skips the trig (a unit impulse is zero
        // everywhere but its few ISI taps)
        for (i, v) in shaped.iter_mut().enumerate() {
            if *v == ZERO {
                continue;
            }
            let n = (lo + i as isize) as f64;
            *v = *v * self.gain * Complex::cis(phase.at(n));
        }
        for (mu, out) in outs.iter_mut() {
            let span = self.owned_span(range.clone(), *mu);
            out.first = span.start;
            // image positions step by exactly one sample in symbol units —
            // another constant-fraction resampling the backend can cache
            let t0 = span.start as f64 - self.start as f64 - *mu - lo as f64;
            kernel.resample_into(shaped, t0, 1.0, span.len(), &mut out.samples);
        }
        pool.put(xw);
        pool.put(shaped_buf);
    }

    /// Reconstruction-tracking feedback (§4.2.4b–c): given the *actual*
    /// received image of a chunk (`observed`, i.e. the buffer span with
    /// every other contribution subtracted) and our synthesized `image`,
    /// update phase and frequency as `tracking` says, then amplitude and
    /// timing.
    ///
    /// `range`'s centre symbol is the `δt` reference. Does nothing under
    /// [`Tracking::Off`]; each tracked quantity is skipped when disabled
    /// in the configuration. The timing early/late-gate images share one
    /// shaping and are resampled into pooled buffers on `kernel`'s
    /// backend.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn feedback(
        &mut self,
        observed: &[Complex],
        image: &Image,
        range: std::ops::Range<usize>,
        symbols: &dyn Fn(usize) -> Option<Complex>,
        pool: &mut BufPool,
        kernel: &mut Kernel,
        tracking: Tracking<'_>,
    ) {
        if matches!(tracking, Tracking::Off)
            || observed.len() != image.samples.len()
            || observed.is_empty()
        {
            return;
        }
        let c = inner(observed, &image.samples);
        let e_img: f64 = image.samples.iter().map(|s| s.norm_sq()).sum();
        if e_img < 1e-9 || c.abs() < 1e-12 {
            return;
        }
        let ratio = c / e_img; // observed ≈ ratio · image
        let mid_n = (range.start + range.end) as f64 / 2.0;

        if self.cfg.track_phase {
            let dphi = ratio.arg();
            match tracking {
                Tracking::Window(state) => {
                    state.integ += WINDOW_PLL_KI * dphi;
                    self.phase.rebase(mid_n);
                    self.phase.correct(WINDOW_PLL_KP * dphi + state.integ, 0.0);
                }
                Tracking::Chunk | Tracking::Off => {
                    let domega = match self.last_fb_n {
                        Some(last) if mid_n > last + 1.0 => ALPHA_FREQ * dphi / (mid_n - last),
                        _ => 0.0,
                    };
                    self.phase.rebase(mid_n);
                    self.phase.correct(dphi, domega);
                }
            }
            self.last_fb_n = Some(mid_n);
        }
        if self.cfg.track_gain {
            let g = ratio.abs().clamp(0.5, 2.0);
            self.gain *= 1.0 + 0.5 * (g - 1.0); // damped amplitude update
        }
        if self.cfg.track_timing {
            // early/late gate: compare correlation against images shifted
            // ±0.3 samples
            let delta = 0.3;
            let mut early = Image { first: 0, samples: pool.take() };
            let mut late = Image { first: 0, samples: pool.take() };
            let gates = &mut [(self.mu - delta, &mut early), (self.mu + delta, &mut late)];
            self.synthesize_at_into(range.clone(), symbols, &self.phase, pool, kernel, gates);
            let ce = corr_clipped(observed, image.first, &early);
            let cl = corr_clipped(observed, image.first, &late);
            // quality gate: a contaminated span (other packets still live
            // over it) decorrelates observed vs image; don't let it jolt µ
            let e_obs: f64 = observed.iter().map(|s| s.norm_sq()).sum();
            let rho = c.norm_sq() / (e_obs * e_img).max(1e-12);
            let denom = ce + cl;
            if denom > 1e-9 && rho > 0.25 {
                let e = (cl - ce) / denom;
                self.mu += 0.3 * delta * e.clamp(-1.0, 1.0);
            }
            pool.put(early.samples);
            pool.put(late.samples);
        }
    }

    /// Re-anchors the phase model at the packet start: keeps everything
    /// the decode tracked (µ, gain, ω, taps) and re-derives only the
    /// carrier phase at symbol 0 from the preamble correlation. Used when
    /// a view whose phase model sits at the packet's *end* (after a full
    /// decode) is needed for synthesis from the *start* — a linear model
    /// cannot be extrapolated backwards across a whole packet of
    /// phase-noise walk. (A full re-estimate would discard the tracked µ,
    /// whose correlation-peak initialisation is biased by the ISI group
    /// delay.)
    pub fn reanchored(&self, buffer: &[Complex], preamble: &[Complex]) -> Option<ChannelView> {
        let omega = self.phase.omega();
        let acc =
            PreambleCorr::new(buffer, self.start, preamble, omega, self.mu, self.mu).at(self.mu);
        let energy: f64 = preamble.iter().map(|s| s.norm_sq()).sum();
        if energy <= 0.0 || acc.abs() < 1e-9 {
            return None;
        }
        let h = acc / energy;
        let mut v = self.clone();
        v.phase = PhaseModel::new(h.arg(), 0.0, omega);
        v.last_fb_n = None;
        Some(v)
    }
}

/// The frequency-compensated preamble correlation at fractional timing µ,
///
/// `Γ'(µ) = Σ_k conj(s_k)·e^{−iωk}·y(start + µ + k)`,
///
/// with `y(·)` the windowed-sinc interpolation of [`interp_at`]. At a
/// fixed µ that interpolation is one fixed FIR over the integer lags
/// `j ∈ [⌈µ−W⌉, ⌊µ+W⌋]`, so the sum factors as `Γ'(µ) = Σ_j w(µ−j)·C[j]`
/// with `C[j] = Σ_k conj(s_k)·e^{−iωk}·y[start+k+j]` independent of µ.
/// `new` computes `C` once for every lag a µ range can reach (samples
/// outside the buffer count as zero, as in `interp_at`); each
/// [`PreambleCorr::at`] then costs one tap vector and `2W+1`
/// multiply-adds instead of a full interpolation per preamble symbol.
struct PreambleCorr {
    /// Lag of `lags[0]`.
    j0: isize,
    /// `C[j0 + i]`.
    lags: Vec<Complex>,
}

impl PreambleCorr {
    /// Correlator for `preamble` at integer `start` under frequency
    /// `omega`, evaluable at any µ in `[mu_lo, mu_hi]`.
    fn new(
        buffer: &[Complex],
        start: usize,
        preamble: &[Complex],
        omega: f64,
        mu_lo: f64,
        mu_hi: f64,
    ) -> Self {
        let j0 = Self::window(mu_lo).0;
        let (hi_first, hi_count) = Self::window(mu_hi);
        let j1 = hi_first + hi_count as isize - 1;
        let mut lags = vec![ZERO; (j1 - j0 + 1).max(0) as usize];
        for (k, &s) in preamble.iter().enumerate() {
            let a = s.conj() * Complex::cis(-omega * k as f64);
            let base = start as isize + k as isize + j0;
            for (i, c) in lags.iter_mut().enumerate() {
                let p = base + i as isize;
                if p >= 0 {
                    if let Some(&y) = buffer.get(p as usize) {
                        *c += a * y;
                    }
                }
            }
        }
        Self { j0, lags }
    }

    /// The interpolation window at µ, as `interp_at` places it: the
    /// first lag it reads and the tap count. Both ends are monotone in µ,
    /// so the windows of a µ range lie between those of its ends.
    fn window(mu: f64) -> (isize, usize) {
        let (j_lo, count) = tap_window(mu - mu.floor(), DEFAULT_HALF_WIDTH);
        (mu.floor() as isize + j_lo, count)
    }

    /// `Γ'(µ)`; µ must lie in the range the correlator was built for.
    fn at(&self, mu: f64) -> Complex {
        let (first, count) = Self::window(mu);
        let mut taps = [0.0; 2 * DEFAULT_HALF_WIDTH + 1];
        fill_taps(mu - mu.floor(), DEFAULT_HALF_WIDTH, &mut taps[..count]);
        let lags = &self.lags[(first - self.j0) as usize..][..count];
        let mut acc = ZERO;
        for (&c, &tap) in lags.iter().zip(&taps) {
            acc += c * tap;
        }
        acc
    }
}

/// |correlation| of `observed` (anchored at buffer index `obs_first`)
/// with a shifted image, over their overlap.
fn corr_clipped(observed: &[Complex], obs_first: usize, img: &Image) -> f64 {
    let mut acc = ZERO;
    for (k, &s) in img.samples.iter().enumerate() {
        let p = img.first + k;
        if p >= obs_first {
            if let Some(&o) = observed.get(p - obs_first) {
                acc += o * s.conj();
            }
        }
    }
    acc.abs()
}

fn normalise_main_tap(f: Fir) -> Fir {
    let main = f.taps()[f.delay()];
    if main.abs() < 1e-9 {
        return f;
    }
    let inv = main.inv();
    Fir::new(f.taps().iter().map(|&t| t * inv).collect(), f.delay())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::scratch::Scratch;
    use rand::prelude::*;
    use zigzag_channel::fading::ChannelParams;
    use zigzag_channel::noise::add_awgn;
    use zigzag_phy::bits::bit_error_rate;
    use zigzag_phy::frame::{encode_frame, Frame};
    use zigzag_phy::preamble::Preamble;

    fn air(len: usize) -> zigzag_phy::frame::AirFrame {
        let f = Frame::with_random_payload(0, 1, 7, len, 99);
        encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
    }

    fn layout_for(a: &zigzag_phy::frame::AirFrame) -> PacketLayout {
        PacketLayout {
            preamble: Preamble::default_len().symbols().to_vec(),
            plcp_syms: zigzag_phy::frame::PLCP_SYMBOLS,
            payload_mod: a.modulation,
            total_syms: a.len(),
        }
    }

    /// Decodes `range` through `ws`'s chunk buffers; returns a copy of
    /// the decode.
    fn decode(
        ws: &mut Scratch,
        v: &mut ChannelView,
        buf: &[Complex],
        range: std::ops::Range<usize>,
        layout: &PacketLayout,
        dir: Direction,
    ) -> ChunkDecode {
        let Scratch { pool, chunk, kernel, .. } = ws;
        v.decode_chunk_into(buf, range, layout, dir, pool, kernel, chunk);
        chunk.clone()
    }

    /// Synthesizes `range` through `ws`'s image buffer; returns a copy of
    /// the image.
    fn synth(
        ws: &mut Scratch,
        v: &ChannelView,
        range: std::ops::Range<usize>,
        symbols: &dyn Fn(usize) -> Option<Complex>,
    ) -> Image {
        let Scratch { pool, image, kernel, .. } = ws;
        v.synthesize_into(range, symbols, pool, kernel, image);
        image.clone()
    }

    /// Builds a clean single-packet reception and returns
    /// (buffer, airframe, params).
    fn reception(
        snr_db: f64,
        ch: ChannelParams,
        len: usize,
        seed: u64,
    ) -> (Vec<Complex>, zigzag_phy::frame::AirFrame, ChannelParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = air(len);
        let ch = ChannelParams {
            gain: Complex::from_polar(
                zigzag_channel::noise::amplitude_for_snr_db(snr_db),
                ch.gain.arg(),
            ),
            ..ch
        };
        let mut buf = ch.apply(&a.symbols, &mut rng);
        buf.extend(std::iter::repeat_n(ZERO, 32));
        add_awgn(&mut rng, &mut buf, 1.0);
        (buf, a, ch)
    }

    #[test]
    fn estimate_recovers_parameters_clean() {
        let ch = ChannelParams {
            gain: Complex::from_polar(1.0, 1.2),
            omega: 0.03,
            sampling_offset: 0.2,
            ..ChannelParams::ideal()
        };
        let (buf, _a, ch) = reception(20.0, ch, 200, 5);
        let cfg = DecoderConfig::default();
        let p = Preamble::default_len();
        let v = ChannelView::estimate(&buf, 0, p.symbols(), Some(0.03), None, true, &cfg).unwrap();
        assert!((v.gain - ch.gain.abs()).abs() / ch.gain.abs() < 0.1, "gain {}", v.gain);
        // the channel resamples tx at µ + k, i.e. the packet appears
        // *advanced* by µ: the receiver's best alignment is mu ≈ −µ
        assert!((v.mu + 0.2).abs() < 0.12, "mu {}", v.mu);
        assert!((v.phase.omega() - 0.03).abs() < 2e-3, "omega {}", v.phase.omega());
        // phase at symbol 0 should match the channel phase (γ)
        let dp = (v.phase.at(0.0) - 1.2).rem_euclid(2.0 * std::f64::consts::PI);
        assert!(
            !(0.35..=2.0 * std::f64::consts::PI - 0.35).contains(&dp),
            "phase {}",
            v.phase.at(0.0)
        );
    }

    #[test]
    fn estimate_immersed_in_interferer() {
        // Bob's preamble under Alice's signal (§4.2.4a "harder case"):
        // H_B must still come out of the correlation.
        let mut rng = StdRng::seed_from_u64(6);
        let a = air(400);
        let b = air(400);
        let ch_a = ChannelParams {
            gain: Complex::from_polar(3.16, 0.4), // 10 dB
            omega: 0.01,
            ..ChannelParams::ideal()
        };
        let ch_b = ChannelParams {
            gain: Complex::from_polar(3.16, -0.9),
            omega: -0.02,
            ..ChannelParams::ideal()
        };
        let ya = ch_a.apply(&a.symbols, &mut rng);
        let yb = ch_b.apply(&b.symbols, &mut rng);
        let delta = 500;
        let mut buf = vec![ZERO; delta + yb.len() + 32];
        for (k, &s) in ya.iter().enumerate() {
            buf[k] += s;
        }
        for (k, &s) in yb.iter().enumerate() {
            buf[delta + k] += s;
        }
        add_awgn(&mut rng, &mut buf, 1.0);
        let cfg = DecoderConfig::default();
        let p = Preamble::default_len();
        let v = ChannelView::estimate(&buf, delta, p.symbols(), Some(-0.02), None, false, &cfg)
            .expect("estimate");
        assert!((v.gain - 3.16).abs() / 3.16 < 0.35, "immersed gain {} vs 3.16", v.gain);
    }

    #[test]
    fn decode_full_packet_with_all_impairments() {
        let ch = ChannelParams {
            gain: Complex::from_polar(1.0, -0.7),
            omega: 0.05,
            sampling_offset: 0.25,
            sampling_drift: 1.5e-5,
            isi: Fir::new(
                vec![Complex::new(0.08, 0.02), Complex::real(1.0), Complex::new(0.18, -0.06)],
                1,
            ),
            phase_noise: 0.01,
        };
        // 12 dB, 400-byte payload
        let (buf, a, _ch) = reception(12.0, ch, 400, 7);
        let cfg = DecoderConfig::default();
        let p = Preamble::default_len();
        // coarse omega off by 2e-4 (association-time jitter)
        let mut v =
            ChannelView::estimate(&buf, 0, p.symbols(), Some(0.05 + 2e-4), None, true, &cfg)
                .unwrap();
        let layout = layout_for(&a);
        let mut ws = Scratch::with_backend(cfg.backend);
        let out = decode(&mut ws, &mut v, &buf, 0..a.len(), &layout, Direction::Forward);
        // compare MPDU bits
        let bits = Modulation::Bpsk.demodulate(&out.decided[a.mpdu_start()..]);
        let ber = bit_error_rate(&a.mpdu_bits, &bits[..a.mpdu_bits.len()]);
        assert!(ber < 1e-3, "BER {ber}");
    }

    #[test]
    fn decode_backward_matches_forward_quality() {
        let ch = ChannelParams {
            gain: Complex::from_polar(1.0, 0.3),
            omega: 0.02,
            sampling_offset: -0.2,
            ..ChannelParams::ideal()
        };
        let (buf, a, _ch) = reception(14.0, ch, 300, 8);
        let cfg = DecoderConfig::default();
        let p = Preamble::default_len();
        let layout = layout_for(&a);
        // forward pass to get end-state
        let mut vf =
            ChannelView::estimate(&buf, 0, p.symbols(), Some(0.02), None, true, &cfg).unwrap();
        let mut ws = Scratch::with_backend(cfg.backend);
        let fwd = decode(&mut ws, &mut vf, &buf, 0..a.len(), &layout, Direction::Forward);
        // backward pass: clone the *post-forward* view (model at packet end)
        let mut vb = vf.clone();
        let bwd = decode(&mut ws, &mut vb, &buf, 0..a.len(), &layout, Direction::Backward);
        let ber_of = |out: &ChunkDecode| {
            let bits = Modulation::Bpsk.demodulate(&out.decided[a.mpdu_start()..]);
            bit_error_rate(&a.mpdu_bits, &bits[..a.mpdu_bits.len()])
        };
        assert!(ber_of(&fwd) < 1e-3, "fwd {}", ber_of(&fwd));
        assert!(ber_of(&bwd) < 1e-3, "bwd {}", ber_of(&bwd));
    }

    #[test]
    fn synthesize_then_subtract_cancels_signal() {
        // The core ZigZag subtraction: decode a clean packet, synthesize
        // its image, subtract — residual must be near the noise floor.
        let ch = ChannelParams {
            gain: Complex::from_polar(3.16, 0.9), // 10 dB
            omega: 0.03,
            sampling_offset: 0.15,
            isi: Fir::new(
                vec![Complex::new(0.1, 0.0), Complex::real(1.0), Complex::new(0.2, 0.05)],
                1,
            ),
            ..ChannelParams::ideal()
        };
        let (buf, a, _) = reception(10.0, ch, 300, 9);
        let cfg = DecoderConfig::default();
        let p = Preamble::default_len();
        let mut v =
            ChannelView::estimate(&buf, 0, p.symbols(), Some(0.03), None, true, &cfg).unwrap();
        let layout = layout_for(&a);
        let mut ws = Scratch::with_backend(cfg.backend);
        let out = decode(&mut ws, &mut v, &buf, 0..a.len(), &layout, Direction::Forward);
        // rebuild image with the post-decode view (fully tracked)
        let decided = out.decided.clone();
        let img = synth(&mut ws, &v, 0..a.len(), &|n| decided.get(n).copied());
        let mut resid = buf.clone();
        img.subtract_from(&mut resid);
        // residual power over the packet interior vs pre-subtraction power
        let span = 100..a.len() - 100;
        let before = zigzag_phy::complex::mean_power(&buf[span.clone()]);
        let after = zigzag_phy::complex::mean_power(&resid[span]);
        // signal ~ 10+1; residual should be close to noise (1.0): require
        // at least 7 dB of cancellation and residual < 2x noise.
        assert!(after < before / 5.0, "before {before} after {after}");
        assert!(after < 2.0, "residual power {after}");
    }

    #[test]
    fn feedback_corrects_phase_error() {
        // Build a clean signal, make a view with a deliberate phase bias,
        // and check feedback pulls it back.
        let mut rng = StdRng::seed_from_u64(10);
        let a = air(100);
        let ch = ChannelParams { gain: Complex::from_polar(3.16, 0.5), ..ChannelParams::ideal() };
        let buf = {
            let mut b = ch.apply(&a.symbols, &mut rng);
            b.extend(std::iter::repeat_n(ZERO, 16));
            b
        };
        let cfg = DecoderConfig::default();
        let clean_syms = a.symbols.clone();
        let sym_fn = |n: usize| clean_syms.get(n).copied();
        let mut v = ChannelView::from_params(
            0,
            0.0,
            3.16,
            0.5 + 0.2, // 0.2 rad phase error
            0.0,
            Fir::identity(),
            &cfg,
        );
        let range = 100..300;
        let mut ws = Scratch::with_backend(cfg.backend);
        let img = synth(&mut ws, &v, range.clone(), &sym_fn);
        let observed: Vec<Complex> = buf[img.range()].to_vec();
        let before = v.phase.at(200.0);
        let (mut pool, mut kernel) = (BufPool::new(), Kernel::new(cfg.backend));
        v.feedback(&observed, &img, range, &sym_fn, &mut pool, &mut kernel, Tracking::Chunk);
        let after = v.phase.at(200.0);
        assert!(
            (after - 0.5).abs() < (before - 0.5).abs(),
            "phase error not reduced: {before} -> {after}"
        );
        assert!((after - 0.5).abs() < 0.05, "after {after}");
    }

    #[test]
    fn feedback_corrects_timing_error() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = air(100);
        let ch = ChannelParams {
            gain: Complex::from_polar(3.16, 0.0),
            sampling_offset: 0.2,
            ..ChannelParams::ideal()
        };
        let buf = {
            let mut b = ch.apply(&a.symbols, &mut rng);
            b.extend(std::iter::repeat_n(ZERO, 16));
            b
        };
        let cfg = DecoderConfig::default();
        let clean_syms = a.symbols.clone();
        let sym_fn = |n: usize| clean_syms.get(n).copied();
        // view believes mu = 0; the channel advanced the packet by 0.2, so
        // the correct alignment is mu = −0.2
        let mut v = ChannelView::from_params(0, 0.0, 3.16, 0.0, 0.0, Fir::identity(), &cfg);
        let mut ws = Scratch::with_backend(cfg.backend);
        for _ in 0..40 {
            let range = 100..300;
            let img = synth(&mut ws, &v, range.clone(), &sym_fn);
            let observed: Vec<Complex> = buf[img.range()].to_vec();
            let (mut pool, mut kernel) = (BufPool::new(), Kernel::new(cfg.backend));
            v.feedback(&observed, &img, range, &sym_fn, &mut pool, &mut kernel, Tracking::Chunk);
        }
        assert!((v.mu + 0.2).abs() < 0.08, "mu {} want -0.2", v.mu);
    }

    /// `synthesize_unit_into` without the zero skip: every shaped entry
    /// goes through gain × phase ramp, as the loop did before the skip.
    fn synthesize_unit_unskipped(v: &ChannelView, n: usize, total_syms: usize) -> Image {
        let mut kernel = Kernel::new(v.cfg.backend);
        let margin = v.taps.len() + 9;
        let range = n.saturating_sub(margin)..(n + margin + 1).min(total_syms);
        let lo = range.start as isize - margin as isize;
        let hi = range.end as isize + margin as isize;
        let xw: Vec<Complex> =
            (lo..hi).map(|i| if i == n as isize { Complex::real(1.0) } else { ZERO }).collect();
        let mut shaped = xw.clone();
        if !v.taps.is_identity() {
            kernel.fir_apply_into(&v.taps, &xw, &mut shaped);
        }
        for (i, s) in shaped.iter_mut().enumerate() {
            let ni = (lo + i as isize) as f64;
            *s = *s * v.gain * Complex::cis(v.phase.at(ni));
        }
        let p_first = (v.start as f64 + v.mu + range.start as f64 - 0.5).ceil().max(0.0) as usize;
        let p_last = (v.start as f64 + v.mu + range.end as f64 - 0.5).ceil().max(0.0) as usize;
        let t0 = p_first as f64 - v.start as f64 - v.mu - lo as f64;
        let mut out = Image { first: p_first, samples: Vec::new() };
        kernel.resample_into(&shaped, t0, 1.0, p_last.saturating_sub(p_first), &mut out.samples);
        out
    }

    #[test]
    fn unit_image_zero_skip_matches_unskipped_loop() {
        let cfg = DecoderConfig::default();
        let isi = Fir::new(
            vec![Complex::new(0.2, -0.1), Complex::real(1.0), Complex::new(-0.15, 0.05)],
            1,
        );
        let total_syms = 120;
        let mut pool = BufPool::new();
        let mut kernel = Kernel::new(cfg.backend);
        let mut out = Image::default();
        for taps in [Fir::identity(), isi] {
            let v = ChannelView::from_params(30, 0.37, 0.8, 0.6, -0.07, taps.clone(), &cfg);
            for n in [0, 1, 57, total_syms - 2, total_syms - 1] {
                v.synthesize_unit_into(n, total_syms, &mut pool, &mut kernel, &mut out);
                let want = synthesize_unit_unskipped(&v, n, total_syms);
                assert_eq!(out.first, want.first, "n {n}, taps {}", taps.len());
                assert_eq!(out.samples, want.samples, "n {n}, taps {}", taps.len());
                assert!(out.samples.iter().any(|&s| s != ZERO), "n {n}: empty image");
            }
        }
    }

    #[test]
    fn unit_columns_match_the_unit_image_oracle() {
        let cfg = DecoderConfig::default();
        let isi = Fir::new(
            vec![Complex::new(0.2, -0.1), Complex::real(1.0), Complex::new(-0.15, 0.05)],
            1,
        );
        let total = 300;
        let mut pool = BufPool::new();
        let mut kernel = Kernel::new(cfg.backend);
        let (mut template, mut want) = (Image::default(), Image::default());
        for taps in [Fir::identity(), isi] {
            for start in [0, 500] {
                for mu in [-0.45, 0.0, 0.37, 0.49] {
                    // the phase anchor sits ~1000 symbols from every column
                    for (omega, anchor) in
                        [(0.0, 0.0), (1.3, -900.0), (-1.3, 1400.0), (0.21, 800.0)]
                    {
                        let mut v =
                            ChannelView::from_params(start, mu, 0.8, 0.0, 0.0, taps.clone(), &cfg);
                        v.phase = PhaseModel::new(0.6, anchor, omega);
                        let m = v.margin();
                        v.unit_template_into(&mut pool, &mut kernel, &mut template);
                        for n in [0, 1, m - 1, m, total / 2, total - m - 1, total - 2, total - 1] {
                            let at = format!(
                                "taps {}, start {start}, µ {mu}, ω {omega}, n {n}",
                                taps.len()
                            );
                            v.synthesize_unit_into(n, total, &mut pool, &mut kernel, &mut want);
                            let got: Vec<(usize, Complex)> =
                                v.unit_column(&template, n, total).collect();
                            assert_eq!(got.len(), want.samples.len(), "{at}");
                            let peak = want.samples.iter().map(|s| s.abs()).fold(0.0, f64::max);
                            assert!(peak > 0.1, "{at}: empty oracle column");
                            for (k, (&(p, a), &w)) in got.iter().zip(&want.samples).enumerate() {
                                assert_eq!(p, want.first + k, "{at}");
                                assert!(
                                    (a - w).abs() <= 1e-12 * peak,
                                    "{at}, p {p}: {a:?} vs {w:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `feedback` as it ran before the gate shared its shaping: phase and
    /// gain through `feedback` with timing off, then the early and late
    /// images from two single-µ syntheses.
    fn feedback_two_call(
        v: &mut ChannelView,
        observed: &[Complex],
        image: &Image,
        range: std::ops::Range<usize>,
        symbols: &dyn Fn(usize) -> Option<Complex>,
        tracking: Tracking<'_>,
    ) {
        let (mut pool, mut kernel) = (BufPool::new(), Kernel::new(v.cfg.backend));
        v.cfg.track_timing = false;
        v.feedback(observed, image, range.clone(), symbols, &mut pool, &mut kernel, tracking);
        v.cfg.track_timing = true;
        let c = inner(observed, &image.samples);
        let e_img: f64 = image.samples.iter().map(|s| s.norm_sq()).sum();
        if observed.len() != image.samples.len() || e_img < 1e-9 || c.abs() < 1e-12 {
            return;
        }
        let delta = 0.3;
        let (mut early, mut late) = (Image::default(), Image::default());
        for (mu, out) in [(v.mu - delta, &mut early), (v.mu + delta, &mut late)] {
            let outs = &mut [(mu, out)];
            v.synthesize_at_into(range.clone(), symbols, &v.phase, &mut pool, &mut kernel, outs);
        }
        let ce = corr_clipped(observed, image.first, &early);
        let cl = corr_clipped(observed, image.first, &late);
        let e_obs: f64 = observed.iter().map(|s| s.norm_sq()).sum();
        let rho = c.norm_sq() / (e_obs * e_img).max(1e-12);
        let denom = ce + cl;
        if denom > 1e-9 && rho > 0.25 {
            let e = (cl - ce) / denom;
            v.mu += 0.3 * delta * e.clamp(-1.0, 1.0);
        }
    }

    proptest::proptest! {
        /// One shaping for both timing gates leaves µ, gain, the phase
        /// model and the window integrator bit-equal to two syntheses.
        #[test]
        fn shared_gate_shaping_matches_two_syntheses(
            seed: u64,
            isi: bool,
            window: bool,
            start in 0usize..40,
            mu in -0.5f64..0.5,
            gain in 0.3f64..3.0,
            phi in -3.0f64..3.0,
            omega in -0.3f64..0.3,
            from in 0usize..80,
            len in 8usize..120,
            dmu in -0.3f64..0.3,
            dphi in -0.4f64..0.4,
            integ in -0.2f64..0.2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = DecoderConfig::default();
            let taps = if isi {
                Fir::new(vec![Complex::new(0.2, -0.1), Complex::real(1.0), Complex::new(-0.15, 0.05)], 1)
            } else {
                Fir::identity()
            };
            let total = from + len + 20;
            let syms: Vec<Complex> = (0..total)
                .map(|_| Complex::cis(std::f64::consts::FRAC_PI_2 * rng.gen_range(0..4) as f64))
                .collect();
            let symbols = |n: usize| syms.get(n).copied();
            let range = from..from + len;
            let v = ChannelView::from_params(start, mu, gain, phi, omega, taps.clone(), &cfg);
            let truth = ChannelView::from_params(start, mu + dmu, gain, phi + dphi, omega, taps, &cfg);
            let mut ws = Scratch::with_backend(cfg.backend);
            let mut buf = vec![ZERO; start + total + 40];
            synth(&mut ws, &truth, range.clone(), &symbols).add_to(&mut buf);
            for b in buf.iter_mut() {
                *b += Complex::new(rng.gen_range(-0.05..0.05), rng.gen_range(-0.05..0.05));
            }
            let img = synth(&mut ws, &v, range.clone(), &symbols);
            let observed = buf[img.range()].to_vec();
            let (mut once, mut twice) = (v.clone(), v);
            let (mut pll_once, mut pll_twice) = (WindowPll { integ }, WindowPll { integ });
            let (track_once, track_twice) = if window {
                (Tracking::Window(&mut pll_once), Tracking::Window(&mut pll_twice))
            } else {
                (Tracking::Chunk, Tracking::Chunk)
            };
            let Scratch { pool, kernel, .. } = &mut ws;
            once.feedback(&observed, &img, range.clone(), &symbols, pool, kernel, track_once);
            feedback_two_call(&mut twice, &observed, &img, range, &symbols, track_twice);
            proptest::prop_assert_eq!(once.mu.to_bits(), twice.mu.to_bits());
            proptest::prop_assert_eq!(once.gain.to_bits(), twice.gain.to_bits());
            let bits = |p: &PhaseModel| [p.phase.to_bits(), p.ref_n.to_bits(), p.omega.to_bits()];
            proptest::prop_assert_eq!(bits(&once.phase), bits(&twice.phase));
            proptest::prop_assert_eq!(once.last_fb_n.map(f64::to_bits), twice.last_fb_n.map(f64::to_bits));
            proptest::prop_assert_eq!(pll_once.integ.to_bits(), pll_twice.integ.to_bits());
        }
    }

    #[test]
    fn images_tile_exactly_across_chunks() {
        let cfg = DecoderConfig::default();
        let v = ChannelView::from_params(10, 0.3, 1.0, 0.0, 0.0, Fir::identity(), &cfg);
        let mut ws = Scratch::with_backend(cfg.backend);
        let i1 = synth(&mut ws, &v, 0..50, &|_| Some(Complex::real(1.0)));
        let i2 = synth(&mut ws, &v, 50..100, &|_| Some(Complex::real(1.0)));
        assert_eq!(i1.range().end, i2.range().start, "chunks must tile");
    }

    /// The preamble correlation as `estimate` computed it before it was
    /// factored: one full windowed-sinc interpolation per symbol. Also
    /// returns the sum's L1 scale (every |sample| the interpolations
    /// touch; |s_k| = 1 and taps are ≤ 1), the yardstick of the
    /// relative bound below.
    fn direct_corr(
        buffer: &[Complex],
        start: usize,
        preamble: &[Complex],
        omega: f64,
        mu: f64,
    ) -> (Complex, f64) {
        let w = DEFAULT_HALF_WIDTH as f64;
        let (mut acc, mut scale) = (ZERO, 0.0);
        for (k, &s) in preamble.iter().enumerate() {
            let t = start as f64 + mu + k as f64;
            let y = interp_at(buffer, t);
            acc += s.conj() * y * Complex::cis(-omega * k as f64);
            for i in (t - w).ceil() as isize..=(t + w).floor() as isize {
                if i >= 0 {
                    scale += buffer.get(i as usize).map_or(0.0, |y| y.abs());
                }
            }
        }
        (acc, scale)
    }

    /// `estimate`'s µ search, parabolic refinement and peak written
    /// against [`direct_corr`]: returns (µ*, Ĥ).
    fn direct_search(
        buffer: &[Complex],
        start: usize,
        preamble: &[Complex],
        omega: f64,
    ) -> (f64, Complex) {
        let corr = |mu: f64| direct_corr(buffer, start, preamble, omega, mu).0;
        let (mut best_mu, mut best_mag) = (0.0, -1.0);
        let mut mu = -1.05;
        while mu <= 1.05 {
            let m = corr(mu).abs();
            if m > best_mag {
                best_mag = m;
                best_mu = mu;
            }
            mu += 0.15;
        }
        let (m_l, m_c, m_r) = (corr(best_mu - 0.15).abs(), best_mag, corr(best_mu + 0.15).abs());
        let denom = m_l - 2.0 * m_c + m_r;
        if denom.abs() > 1e-12 {
            best_mu += 0.15 * (0.5 * (m_l - m_r) / denom).clamp(-1.0, 1.0);
        }
        let energy: f64 = preamble.iter().map(|s| s.norm_sq()).sum();
        (best_mu, corr(best_mu) / energy)
    }

    /// Unit-power complex noise plus, from `start`, the preamble and
    /// random BPSK symbols at amplitude `amp` under phase `phi` and
    /// frequency `omega`.
    fn preamble_buffer(
        rng: &mut StdRng,
        len: usize,
        start: usize,
        amp: f64,
        phi: f64,
        omega: f64,
    ) -> Vec<Complex> {
        let p = Preamble::default_len();
        (0..len)
            .map(|n| {
                let noise = Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
                let sym = match n.checked_sub(start) {
                    Some(k) if k < p.len() => p.symbols()[k],
                    Some(_) => Complex::real(if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 }),
                    None => ZERO,
                };
                let k = n as f64 - start as f64;
                noise + sym * amp * Complex::cis(phi + omega * k)
            })
            .collect()
    }

    proptest::proptest! {
        /// The factored correlator equals the direct interpolate-then-
        /// correlate sum, including where the interpolation runs off
        /// either end of the buffer.
        #[test]
        fn preamble_corr_matches_direct_sum(
            seed: u64,
            len in 40usize..160,
            omega in -0.2f64..0.2,
            mu in -1.2f64..1.2,
            tail in 1usize..11,
            at_end: bool,
            amp in 0.0f64..4.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let start = if at_end { len - tail } else { 0 };
            let buf = preamble_buffer(&mut rng, len, start, amp, 0.7, omega);
            let pre = Preamble::default_len();
            let (want, scale) = direct_corr(&buf, start, pre.symbols(), omega, mu);
            let search = PreambleCorr::new(&buf, start, pre.symbols(), omega, -1.25, 1.25);
            let single = PreambleCorr::new(&buf, start, pre.symbols(), omega, mu, mu);
            for got in [search.at(mu), single.at(mu)] {
                proptest::prop_assert!(
                    (got - want).abs() <= 1e-12 * scale.max(1e-300),
                    "µ {mu}: factored {got:?} direct {want:?} scale {scale}"
                );
            }
        }

        /// `estimate` lands on the µ, gain and phase the direct search
        /// finds, on clean and immersed preambles alike.
        #[test]
        fn estimate_matches_direct_search(
            seed: u64,
            len in 48usize..200,
            omega in -0.2f64..0.2,
            amp in 0.0f64..4.0,
            phi in -3.0f64..3.0,
            near_end: bool,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let l = Preamble::default_len().len();
            let start = if near_end { len - l - 1 } else { rng.gen_range(0..len - l) };
            let buf = preamble_buffer(&mut rng, len, start, amp, phi, omega);
            let pre = Preamble::default_len();
            let (mu, h) = direct_search(&buf, start, pre.symbols(), omega);
            let cfg = DecoderConfig::default();
            let v = ChannelView::estimate(&buf, start, pre.symbols(), Some(omega), None, false, &cfg);
            match v {
                None => proptest::prop_assert!(h.abs() < 1e-6, "estimate refused |Ĥ| {}", h.abs()),
                Some(v) => {
                    proptest::prop_assert!((v.mu - mu).abs() <= 1e-9, "µ {} vs {mu}", v.mu);
                    proptest::prop_assert!(
                        (v.gain - h.abs()).abs() <= 1e-9 * h.abs(),
                        "gain {} vs {}", v.gain, h.abs()
                    );
                    let dphi = (v.phase.at(0.0) - h.arg() + std::f64::consts::PI)
                        .rem_euclid(2.0 * std::f64::consts::PI)
                        - std::f64::consts::PI;
                    proptest::prop_assert!(dphi.abs() <= 1e-9, "phase {} vs {}", v.phase.at(0.0), h.arg());
                }
            }
        }
    }

    /// An encoded QPSK frame, its header, and a layout that has not read
    /// the header yet, capped at `cap` symbols.
    fn unread(cap: usize) -> (zigzag_phy::frame::AirFrame, PlcpHeader, PacketLayout) {
        let f = Frame::with_random_payload(0, 3, 9, 120, 5);
        let a = encode_frame(&f, Modulation::Qpsk, &Preamble::default_len());
        let h = PlcpHeader {
            modulation: Modulation::Qpsk,
            seed: f.scramble_seed(),
            mpdu_len: (a.mpdu_bits.len() / 8) as u16,
        };
        let layout = PacketLayout::unknown(
            Preamble::default_len().symbols().to_vec(),
            zigzag_phy::frame::PLCP_SYMBOLS,
            cap,
        );
        (a, h, layout)
    }

    #[test]
    fn learn_plcp_reads_the_header_and_shrinks_the_length() {
        let (a, h, mut layout) = unread(5000);
        let syms = a.symbols.clone();
        assert_eq!(layout.learn_plcp(|n| syms.get(n).copied()), Some((h, true)));
        assert_eq!(layout.total_syms, a.len());
        assert_eq!(layout.payload_mod, Modulation::Qpsk);
    }

    #[test]
    fn learn_plcp_leaves_the_layout_alone_without_a_header() {
        let (a, _, mut layout) = unread(5000);
        let before = format!("{layout:?}");
        // a flipped PLCP symbol fails the CRC-8
        let mut syms = a.symbols.clone();
        let k = a.preamble_len + 3;
        syms[k] = -syms[k];
        assert!(layout.learn_plcp(|n| syms.get(n).copied()).is_none());
        assert_eq!(format!("{layout:?}"), before);
        // so does a PLCP symbol still undecided
        let syms = a.symbols.clone();
        assert!(layout.learn_plcp(|n| (n != k).then(|| syms[n])).is_none());
        assert_eq!(format!("{layout:?}"), before);
    }

    #[test]
    fn learn_plcp_never_grows_the_length() {
        let (a, _, _) = unread(0);
        let (_, h, mut layout) = unread(a.len() - 1);
        let syms = a.symbols.clone();
        assert_eq!(layout.learn_plcp(|n| syms.get(n).copied()), Some((h, false)));
        assert_eq!(layout.total_syms, a.len() - 1, "the cap stands");
        assert_eq!(layout.payload_mod, Modulation::Qpsk, "the modulation is still learnt");
    }

    #[test]
    fn phase_model_algebra() {
        let mut m = PhaseModel::new(1.0, 0.0, 0.1);
        assert!((m.at(10.0) - 2.0).abs() < 1e-12);
        m.rebase(10.0);
        assert!((m.at(10.0) - 2.0).abs() < 1e-12);
        assert!((m.at(0.0) - 1.0).abs() < 1e-12);
        m.correct(0.5, 0.0);
        assert!((m.at(10.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn image_add_undoes_subtract() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = air(64);
        let ch = ChannelParams::ideal_with_snr(10.0);
        let buf = ch.apply(&a.symbols, &mut rng);
        let mut work = buf.clone();
        let cfg = DecoderConfig::default();
        let v = ChannelView::from_params(0, 0.0, 3.16, 0.0, 0.0, Fir::identity(), &cfg);
        let syms = a.symbols.clone();
        let img =
            synth(&mut Scratch::with_backend(cfg.backend), &v, 10..40, &|n| syms.get(n).copied());
        img.subtract_from(&mut work);
        img.add_to(&mut work);
        for (x, y) in work.iter().zip(buf.iter()) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }
}
