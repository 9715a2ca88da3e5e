//! Collision detection (§4.2.1) — "Is it a collision?"
//!
//! The AP correlates the known preamble against the received signal,
//! compensating for each associated client's coarse frequency offset.
//! "When the correlation spikes in the middle of a reception, it indicates
//! a collision. Further, the position of the spike corresponds to the
//! beginning of the second packet, and hence shows Δ, the offset between
//! the colliding packets" (Fig 4-2).
//!
//! The detection threshold follows §5.3(a): `Γ'(Δ) > β·L·ĥ` where L is
//! the preamble length and `ĥ` the coarse channel-amplitude estimate of
//! the candidate client (from previously decoded packets); `β = 0.65`
//! balances false positives against false negatives (Table 5.1).
//!
//! # One detector for buffers and streams
//!
//! `WindowScanner` is the only implementation of the rules. Per
//! associated client (in id order) and per sampling grid (integer, then
//! half-sample) it computes the frequency-compensated correlation at
//! every position and keeps a position as a spike when its magnitude is
//! finite, reaches the client's threshold and is the largest within ±L
//! (of two equal magnitudes the earlier wins). Spikes from all clients
//! and grids are then merged: runs closer than L/2 collapse to the
//! highest score, the first of equal scores kept.
//!
//! The scanner advances over a stream in windows, in absolute stream
//! coordinates, and scans nothing twice. Between advances it carries only
//! what the next window reads:
//!
//! * per (client, grid), the last `2·L` correlation values: `L` of left
//!   context for the ±L rule, and the `L` positions scanned past the
//!   commit point whose right context had not arrived yet;
//! * the `L` half-sample values past the correlation frontier;
//! * the merge head, which a spike less than L/2 later may still replace.
//!
//! A position is committed only once its `+L` right context exists, so a
//! windowed advance must see `lookahead(L)` = `2·L + 8` samples past its
//! target. A final advance commits through the end with a buffer's edge
//! semantics (truncated correlation sums, clamped ±L windows).
//! [`detect_packets`] is one final advance over a whole buffer, which is
//! why a stream's detections equal those of the same air cut into
//! buffers.

use crate::config::{ClientRegistry, DecoderConfig};
use crate::engine::scratch::Scratch;
use zigzag_channel::noise::amplitude_for_snr_db;
use zigzag_phy::complex::Complex;
use zigzag_phy::preamble::Preamble;

/// A detected packet start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Detection {
    /// Sample index where the packet begins.
    pub pos: usize,
    /// The client whose frequency compensation produced the spike.
    pub client: u16,
    /// Correlation value at the spike (≈ `H·L`, §4.2.4a).
    pub corr: Complex,
    /// Detection score: correlation magnitude over this client's
    /// threshold (≥ 1 by construction).
    pub score: f64,
}

/// The §5.3(a) detection threshold for one associated client:
/// `β·L·ĥ`, with `ĥ` the coarse channel-amplitude estimate implied by
/// the client's associated SNR.
fn client_threshold(cfg: &DecoderConfig, preamble_len: usize, snr_db: f64) -> f64 {
    cfg.beta * preamble_len as f64 * amplitude_for_snr_db(snr_db)
}

/// Samples a windowed advance must see past its commit target for
/// preamble length `l`: the ±L rule reads `l` correlation values to the
/// right, each correlation sums `l` samples further, and the half-sample
/// interpolation reads 8 taps beyond that.
pub(crate) const fn lookahead(l: usize) -> usize {
    2 * l + 8
}

/// Scans a receive buffer for packet starts from every associated client.
///
/// Returns detections sorted by position, merged across clients and
/// sampling grids (see module docs): one final `WindowScanner` advance
/// over the whole buffer. The correlation scans (one per associated
/// client per sampling grid) draw their buffers from the scratch pool and
/// run on its kernel backend.
pub fn detect_packets(
    buffer: &[Complex],
    preamble: &Preamble,
    registry: &ClientRegistry,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Vec<Detection> {
    WindowScanner::new(preamble, registry, cfg).advance(buffer, 0, buffer.len(), true, ws).merged
}

/// What one scanner advance committed: the finalized merged detections
/// and every spike position before the merge, both in absolute stream
/// coordinates and ascending order. The stream carver shapes regions from
/// `raw` (every spike is evidence of a packet, even one the merge
/// collapsed) and attaches `merged`.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ScanSpan {
    pub merged: Vec<Detection>,
    pub raw: Vec<usize>,
}

#[derive(Debug)]
struct ClientScan {
    id: u16,
    omega: f64,
    threshold: f64,
    /// Correlation values at `[corr_base, corr_next)`, integer grid then
    /// half-sample grid.
    carry: [Vec<Complex>; 2],
}

/// The §4.2.1 detector, advanced window by window (see module docs).
#[derive(Debug)]
pub(crate) struct WindowScanner {
    symbols: Vec<Complex>,
    l: usize,
    clients: Vec<ClientScan>,
    /// First position not yet committed.
    commit: usize,
    /// Absolute position of each carry's first value.
    corr_base: usize,
    /// First position without correlation values.
    corr_next: usize,
    /// `half[i]` is the stream interpolated at `corr_next + i + 0.5`, up
    /// to `half_next`.
    half: Vec<Complex>,
    half_next: usize,
    /// The merge head, not yet final.
    pending: Option<Detection>,
    mags: Vec<f64>,
    tmp: Vec<Complex>,
}

impl WindowScanner {
    /// A scanner for the given association snapshot, scanning clients in
    /// id order.
    pub fn new(preamble: &Preamble, registry: &ClientRegistry, cfg: &DecoderConfig) -> Self {
        let l = preamble.len();
        Self {
            symbols: preamble.symbols().to_vec(),
            l,
            clients: registry
                .iter()
                .map(|(id, info)| ClientScan {
                    id,
                    omega: info.omega,
                    threshold: client_threshold(cfg, l, info.snr_db),
                    carry: Default::default(),
                })
                .collect(),
            commit: 0,
            corr_base: 0,
            corr_next: 0,
            half: Vec::new(),
            half_next: 0,
            pending: None,
            mags: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// First position not yet committed.
    pub fn commit(&self) -> usize {
        self.commit
    }

    /// Commits every position in `[commit, target)`, or through the end
    /// of `slice` when `final_`, and returns the span's spikes. `slice`
    /// holds stream samples `[base, base + slice.len())` and must start
    /// at or before the commit point; a non-final advance needs
    /// `base + slice.len() ≥ target + lookahead(L)`.
    pub fn advance(
        &mut self,
        slice: &[Complex],
        base: usize,
        target: usize,
        final_: bool,
        ws: &mut Scratch,
    ) -> ScanSpan {
        let l = self.l;
        let end = base + slice.len();
        let mut span = ScanSpan::default();
        if target <= self.commit && !final_ {
            return span;
        }
        let commit_hi = if final_ { end.max(self.commit) } else { target };
        if self.clients.is_empty() {
            self.commit = commit_hi;
            return span;
        }
        // correlation values must reach `L` past the commit point, and the
        // half-sample values under them `L` further; at stream end both
        // stop at `end`, exactly as at a buffer's edge
        let (corr_hi, vals_hi) =
            if final_ { (end, end) } else { (commit_hi + l, commit_hi + 2 * l) };
        let n_corr = corr_hi - self.corr_next;
        let keep = commit_hi.saturating_sub(l).max(self.corr_base);
        let Scratch { pool, kernel, .. } = ws;
        let (mut half, mut corr) = (pool.take(), pool.take());

        // the shared half-sample grid, each value interpolated once
        half.extend_from_slice(&self.half);
        let start = (self.half_next - base) as f64 + 0.5;
        append(&mut half, &mut self.tmp, |out| {
            kernel.resample_into(slice, start, 1.0, vals_hi - self.half_next, out)
        });

        let mut all: Vec<Detection> = Vec::new();
        for c in &mut self.clients {
            let grids: [(&[Complex], usize); 2] = [(slice, self.corr_next - base), (&half, 0)];
            for ((grid, off), carry) in grids.into_iter().zip(&mut c.carry) {
                corr.clear();
                corr.extend_from_slice(carry);
                append(&mut corr, &mut self.tmp, |out| {
                    kernel.scan_into(grid, &self.symbols, c.omega, off..off + n_corr, out)
                });
                // a magnitude (a `hypot`) is computed once, and only where
                // the rule reads it: at positions whose squared magnitude
                // nears the threshold and in their ±L neighbourhoods.
                // `floor` sits below the squared threshold by more than
                // the rounding of either side, subnormals included
                let floor = c.threshold * c.threshold * (1.0 - 1e-9) - f64::MIN_POSITIVE;
                self.mags.clear();
                self.mags.resize(corr.len(), -1.0);
                let mags = &mut self.mags;
                let mut mag = |i: usize| {
                    if mags[i] < 0.0 {
                        mags[i] = corr[i].abs();
                    }
                    mags[i]
                };
                for p in self.commit..commit_hi {
                    let i = p - self.corr_base;
                    if corr[i].norm_sq() < floor {
                        continue;
                    }
                    let m = mag(i);
                    if m < c.threshold || !m.is_finite() {
                        continue;
                    }
                    let lo = i.saturating_sub(l);
                    let hi = (i + l + 1).min(corr.len());
                    if (lo..hi).any(|j| mag(j) > m || (mag(j) == m && j < i)) {
                        continue;
                    }
                    all.push(Detection {
                        pos: p,
                        client: c.id,
                        corr: corr[i],
                        score: m / c.threshold,
                    });
                }
                carry.clear();
                carry.extend_from_slice(&corr[keep - self.corr_base..]);
            }
        }

        // merge (< L/2 ⇒ keep the highest score): the head is final once
        // every position within L/2 after it is committed
        all.sort_by(|a, b| a.pos.cmp(&b.pos).then(b.score.total_cmp(&a.score)));
        span.raw.extend(all.iter().map(|d| d.pos));
        span.raw.dedup();
        for d in all {
            match self.pending {
                Some(h) if d.pos - h.pos < l / 2 => {
                    if d.score > h.score {
                        self.pending = Some(d);
                    }
                }
                head => {
                    span.merged.extend(head);
                    self.pending = Some(d);
                }
            }
        }
        if let Some(h) = self.pending {
            if final_ || h.pos + l / 2 <= commit_hi {
                span.merged.push(h);
                self.pending = None;
            }
        }

        self.half.clear();
        self.half.extend_from_slice(&half[n_corr..]);
        self.half_next = vals_hi;
        self.corr_base = keep;
        self.corr_next = corr_hi;
        self.commit = commit_hi;
        pool.put(corr);
        pool.put(half);
        span
    }
}

/// Appends what `fill` writes to `out`. The kernel's `_into` calls clear
/// their target, so when `out` already holds carried values the fresh
/// ones go through `tmp`.
fn append(out: &mut Vec<Complex>, tmp: &mut Vec<Complex>, fill: impl FnOnce(&mut Vec<Complex>)) {
    if out.is_empty() {
        fill(out);
    } else {
        fill(tmp);
        out.extend_from_slice(tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientInfo;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::noise::awgn_vec;
    use zigzag_channel::scenario::{clean_reception, hidden_pair};
    use zigzag_phy::filter::Fir;
    use zigzag_phy::frame::{encode_frame, Frame};
    use zigzag_phy::modulation::Modulation;

    fn setup_registry(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
        let mut r = ClientRegistry::new();
        for (id, l) in links {
            r.associate(
                *id,
                ClientInfo {
                    omega: l.association_omega(),
                    snr_db: l.snr_db,
                    taps: Fir::identity(),
                },
            );
        }
        r
    }

    fn air(src: u16, len: usize) -> zigzag_phy::frame::AirFrame {
        let f = Frame::with_random_payload(0, src, 1, len, src as u64 * 7);
        encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
    }

    fn detect(buffer: &[Complex], reg: &ClientRegistry) -> Vec<Detection> {
        let (p, cfg) = (Preamble::default_len(), DecoderConfig::default());
        detect_packets(buffer, &p, reg, &cfg, &mut Scratch::with_backend(cfg.backend))
    }

    /// One final advance over `buffer` with threshold `beta·L` (a client
    /// at ω = 0 and 0 dB, so `ĥ = 1`): the bare-preamble fixtures below
    /// state their thresholds as fractions of the preamble energy.
    fn scan_at_beta(buffer: &[Complex], beta: f64) -> ScanSpan {
        let reg = setup_registry(&[(1, &LinkProfile::clean_with_omega(0.0, 0.0))]);
        let cfg = DecoderConfig { beta, ..DecoderConfig::default() };
        let mut ws = Scratch::with_backend(cfg.backend);
        WindowScanner::new(&Preamble::default_len(), &reg, &cfg).advance(
            buffer,
            0,
            buffer.len(),
            true,
            &mut ws,
        )
    }

    fn embed(y: &mut [Complex], at: usize, gain: Complex) {
        for (k, &s) in Preamble::default_len().symbols().iter().enumerate() {
            y[at + k] += s * gain;
        }
    }

    #[test]
    fn detects_single_clean_packet() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = LinkProfile::typical(12.0, &mut rng);
        let a = air(1, 300);
        let rx = clean_reception(&a, &l, &mut rng);
        let det = detect(&rx.buffer, &setup_registry(&[(1, &l)]));
        assert_eq!(det.len(), 1, "{det:?}");
        assert!(det[0].pos <= 1, "pos {}", det[0].pos);
        assert_eq!(det[0].client, 1);
    }

    #[test]
    fn detects_collision_and_offset() {
        // Fig 4-2: the spike mid-reception reveals Δ.
        let mut rng = StdRng::seed_from_u64(2);
        let la = LinkProfile::typical(12.0, &mut rng);
        let lb = LinkProfile::typical(12.0, &mut rng);
        let a = air(1, 400);
        let b = air(2, 400);
        let hp = hidden_pair(&a, &b, &la, &lb, 700, 200, &mut rng);
        let det = detect(&hp.collision1.buffer, &setup_registry(&[(1, &la), (2, &lb)]));
        assert!(det.len() > 1, "{det:?}");
        let positions: Vec<usize> = det.iter().map(|d| d.pos).collect();
        assert!(positions.iter().any(|&p| p <= 1));
        assert!(
            positions.iter().any(|&p| (699..=701).contains(&p)),
            "offset spike missing: {positions:?}"
        );
    }

    #[test]
    fn attributes_clients_correctly() {
        let mut rng = StdRng::seed_from_u64(3);
        // distinct oscillator offsets so attribution is meaningful
        let mut la = LinkProfile::typical(14.0, &mut rng);
        la.omega_nominal = 0.07;
        let mut lb = LinkProfile::typical(14.0, &mut rng);
        lb.omega_nominal = -0.06;
        let a = air(1, 300);
        let b = air(2, 300);
        let hp = hidden_pair(&a, &b, &la, &lb, 500, 150, &mut rng);
        let det = detect(&hp.collision1.buffer, &setup_registry(&[(1, &la), (2, &lb)]));
        let first = det.iter().find(|d| d.pos <= 1).expect("first pkt");
        let second = det.iter().find(|d| d.pos >= 490).expect("second pkt");
        assert_eq!(first.client, 1);
        assert_eq!(second.client, 2);
    }

    #[test]
    fn no_detection_in_pure_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = LinkProfile::clean(12.0);
        let buffer = awgn_vec(&mut rng, 4000, 1.0);
        let det = detect(&buffer, &setup_registry(&[(1, &l)]));
        assert!(det.is_empty(), "{det:?}");
    }

    #[test]
    fn empty_registry_detects_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = LinkProfile::clean(12.0);
        let a = air(1, 100);
        let rx = clean_reception(&a, &l, &mut rng);
        assert!(detect(&rx.buffer, &ClientRegistry::new()).is_empty());
    }

    #[test]
    fn higher_beta_misses_weak_packets() {
        // The §5.3a trade-off: raising β turns detections into misses.
        let mut rng = StdRng::seed_from_u64(6);
        let l = LinkProfile::clean(6.0);
        let a = air(1, 200);
        let rx = clean_reception(&a, &l, &mut rng);
        let reg = setup_registry(&[(1, &l)]);
        let lo = detect_packets(
            &rx.buffer,
            &Preamble::default_len(),
            &reg,
            &DecoderConfig { beta: 0.65, ..DecoderConfig::default() },
            &mut Scratch::default(),
        );
        let hi = detect_packets(
            &rx.buffer,
            &Preamble::default_len(),
            &reg,
            &DecoderConfig { beta: 3.0, ..DecoderConfig::default() },
            &mut Scratch::default(),
        );
        assert!(!lo.is_empty());
        assert!(hi.len() <= lo.len());
    }

    #[test]
    fn one_spike_at_an_embedded_preamble() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut y = awgn_vec(&mut rng, 500, 0.3);
        embed(&mut y, 200, Complex::real(1.0));
        let span = scan_at_beta(&y, 0.6);
        assert_eq!(span.merged.len(), 1, "{:?}", span.merged);
        assert_eq!(span.merged[0].pos, 200);
    }

    #[test]
    fn spike_at_a_mid_reception_start() {
        // Fig 4-2: a second preamble inside the first packet's body spikes
        // at the colliding packet's start.
        let mut rng = StdRng::seed_from_u64(5);
        let data: Vec<Complex> =
            (0..400).map(|_| Complex::real(if rng.gen_bool(0.5) { 1.0 } else { -1.0 })).collect();
        let mut y = vec![Complex::real(0.0); 600];
        embed(&mut y, 50, Complex::real(1.0));
        for (k, &d) in data.iter().enumerate() {
            y[50 + 32 + k] += d;
        }
        embed(&mut y, 300, Complex::real(1.0));
        for (k, &d) in data.iter().take(200).enumerate() {
            y[300 + 32 + k] += d * Complex::cis(1.0);
        }
        let span = scan_at_beta(&y, 0.62);
        let positions: Vec<usize> = span.merged.iter().map(|d| d.pos).collect();
        assert!(positions.contains(&50), "positions {positions:?}");
        assert!(positions.contains(&300), "positions {positions:?}");
    }

    #[test]
    fn no_spike_in_noise() {
        let mut rng = StdRng::seed_from_u64(17);
        let y = awgn_vec(&mut rng, 2000, 1.0);
        let span = scan_at_beta(&y, 0.65);
        assert!(span.raw.is_empty(), "false spikes: {:?}", span.raw);
        assert!(span.merged.is_empty());
    }

    #[test]
    fn one_spike_for_a_strong_isolated_preamble() {
        // Autocorrelation sidelobes extend over the whole ±(L−1) overlap,
        // which the ±L rule covers: a strong preamble against a low
        // threshold spikes once per grid, at its start.
        let mut y = vec![Complex::real(0.0); 100];
        embed(&mut y, 40, Complex::real(2.0));
        let span = scan_at_beta(&y, 0.3);
        assert!(span.raw.iter().all(|&p| p.abs_diff(40) <= 1), "shoulder spikes: {:?}", span.raw);
        assert_eq!(span.merged.len(), 1, "{:?}", span.merged);
        assert_eq!(span.merged[0].pos, 40);
    }

    #[test]
    fn identical_clients_resolve_to_the_lowest_id() {
        // LinkProfile::clean pins every client to one ω, so exact ties
        // between clients are ordinary. The tie must not depend on how
        // the registry was built: the first client in id order wins.
        let link = LinkProfile::clean(12.0);
        let mut rng = StdRng::seed_from_u64(8);
        let rx = clean_reception(&air(2, 200), &link, &mut rng);
        let links = [(3, &link), (1, &link), (2, &link)];
        for _ in 0..8 {
            let (a, b) = (setup_registry(&links), setup_registry(&links));
            let (da, db) = (detect(&rx.buffer, &a), detect(&rx.buffer, &b));
            assert_eq!(da.len(), 1, "{da:?}");
            assert_eq!(da[0].client, 1);
            assert_eq!(da, db);
            let regions = crate::stream::carve_buffer(
                &rx.buffer,
                &DecoderConfig::default(),
                &a,
                &crate::config::StreamConfig::default(),
            );
            let carved: Vec<Detection> = regions
                .iter()
                .flat_map(|r| r.detections.iter().map(|d| Detection { pos: d.pos + r.start, ..*d }))
                .collect();
            assert_eq!(carved, da);
        }
    }

    /// A random hidden-pair buffer heard by 1–3 associated clients, with
    /// a NaN or ±∞ burst in some cases, and in some scaled by a power of
    /// ten (the registry's SNRs with it) far into the subnormal or
    /// overflowing ranges of the squared magnitudes.
    fn random_buffer(rng: &mut StdRng) -> (Vec<Complex>, ClientRegistry) {
        let n_clients = rng.gen_range(1..4usize);
        let mut links: Vec<LinkProfile> =
            (0..n_clients).map(|_| LinkProfile::typical(rng.gen_range(8.0..18.0), rng)).collect();
        let (a, b) = (air(1, rng.gen_range(40..200)), air(2, rng.gen_range(40..200)));
        let lb = links.get(1).unwrap_or(&links[0]);
        let (d1, d2) = (rng.gen_range(0..400usize), rng.gen_range(0..400usize));
        let mut buffer = hidden_pair(&a, &b, &links[0], lb, d1, d2, rng).collision1.buffer;
        if rng.gen_bool(0.5) {
            let value = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            let burst = rng.gen_range(1..100usize).min(buffer.len());
            let at = rng.gen_range(0..=buffer.len() - burst);
            buffer[at..at + burst].fill(Complex::new(value, value));
        }
        if rng.gen_bool(0.3) {
            let e = rng.gen_range(-160..160i32);
            buffer.iter_mut().for_each(|x| *x = *x * 10f64.powi(e));
            links.iter_mut().for_each(|l| l.snr_db += 20.0 * e as f64);
        }
        let ids: Vec<(u16, &LinkProfile)> =
            links.iter().enumerate().map(|(i, l)| (i as u16 + 1, l)).collect();
        (buffer, setup_registry(&ids))
    }

    /// The spike rule written out plainly, every magnitude computed: the
    /// raw spike positions of a whole-buffer scan.
    fn raw_oracle(buffer: &[Complex], reg: &ClientRegistry, cfg: &DecoderConfig) -> Vec<usize> {
        let p = Preamble::default_len();
        let l = p.len();
        let kernel = &mut Scratch::with_backend(cfg.backend).kernel;
        let mut half = Vec::new();
        kernel.resample_into(buffer, 0.5, 1.0, buffer.len(), &mut half);
        let mut raw = Vec::new();
        for (_, info) in reg.iter() {
            let t = client_threshold(cfg, l, info.snr_db);
            for grid in [buffer, &half[..]] {
                let mut corr = Vec::new();
                kernel.scan_into(grid, p.symbols(), info.omega, 0..grid.len(), &mut corr);
                let mags: Vec<f64> = corr.iter().map(|v| v.abs()).collect();
                for (i, &m) in mags.iter().enumerate() {
                    let mut hood = i.saturating_sub(l)..(i + l + 1).min(mags.len());
                    if m >= t
                        && m.is_finite()
                        && !hood.any(|j| mags[j] > m || (mags[j] == m && j < i))
                    {
                        raw.push(i);
                    }
                }
            }
        }
        raw.sort_unstable();
        raw.dedup();
        raw
    }

    proptest::proptest! {
        /// Windowed advances at random window sizes, with each advance
        /// given a random stretch of the buffer (as a stream ring would
        /// hold it), commit exactly the one-shot scan: the same merged
        /// detections as `detect_packets` and the same raw spikes, which
        /// are the plainly computed rule's.
        #[test]
        fn windowed_advances_equal_the_one_shot_scan(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (buffer, reg) = random_buffer(&mut rng);
            let (p, cfg) = (Preamble::default_len(), DecoderConfig::default());
            let mut ws = Scratch::with_backend(cfg.backend);
            let one_shot = WindowScanner::new(&p, &reg, &cfg).advance(&buffer, 0, buffer.len(), true, &mut ws);
            proptest::prop_assert_eq!(&one_shot.merged, &detect_packets(&buffer, &p, &reg, &cfg, &mut ws));
            proptest::prop_assert_eq!(&one_shot.raw, &raw_oracle(&buffer, &reg, &cfg));

            let (l, n) = (p.len(), buffer.len());
            let max_window = [8, 64, 512, 4096][rng.gen_range(0..4usize)];
            let mut scanner = WindowScanner::new(&p, &reg, &cfg);
            let mut windowed = ScanSpan::default();
            loop {
                let target = scanner.commit() + rng.gen_range(1..=max_window);
                let need = target + lookahead(l);
                let final_ = need > n || rng.gen_bool(0.02);
                let hi = if final_ { n } else { rng.gen_range(need..=n) };
                let lo = rng.gen_range(0..=scanner.commit().min(hi));
                let span = scanner.advance(&buffer[lo..hi], lo, target, final_, &mut ws);
                windowed.merged.extend(span.merged);
                windowed.raw.extend(span.raw);
                if final_ {
                    break;
                }
            }
            proptest::prop_assert_eq!(windowed, one_shot);
        }
    }
}
