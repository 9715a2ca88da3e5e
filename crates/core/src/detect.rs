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

use crate::config::{ClientRegistry, DecoderConfig};
use crate::engine::scratch::Scratch;
use zigzag_channel::noise::amplitude_for_snr_db;
use zigzag_phy::complex::Complex;
use zigzag_phy::correlate::find_peaks;
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

/// Scans a receive buffer for packet starts from every associated client.
///
/// The §5.3(a) detection threshold for one associated client:
/// `β·L·ĥ`, with `ĥ` the coarse channel-amplitude estimate implied by
/// the client's associated SNR. Shared by the one-shot scan below and
/// the windowed scanner of [`crate::stream`], so both paths gate spikes
/// identically.
pub fn client_threshold(cfg: &DecoderConfig, preamble_len: usize, snr_db: f64) -> f64 {
    cfg.beta * preamble_len as f64 * amplitude_for_snr_db(snr_db)
}

/// Merges near-duplicate detections across clients and sampling grids:
/// sorts by `(pos, score desc)` and collapses runs closer than half a
/// preamble, keeping the highest score (the true client's compensation
/// yields the strongest coherent sum). The windowed scanner replicates
/// this incrementally; this is the one-shot reference both paths share.
pub fn merge_detections(mut all: Vec<Detection>, preamble_len: usize) -> Vec<Detection> {
    all.sort_by(|a, b| a.pos.cmp(&b.pos).then(b.score.total_cmp(&a.score)));
    let mut merged: Vec<Detection> = Vec::new();
    for d in all {
        match merged.last() {
            Some(last) if d.pos.saturating_sub(last.pos) < preamble_len / 2 => {
                if d.score > last.score {
                    *merged.last_mut().unwrap() = d;
                }
            }
            _ => merged.push(d),
        }
    }
    merged
}

/// Scans a receive buffer for packet starts from every associated client.
///
/// Returns detections sorted by position. Spikes from different clients
/// within half a preamble of each other are merged, keeping the highest
/// score (the true client's compensation yields the strongest coherent
/// sum). The full-buffer correlation scans (one per associated client per
/// sampling grid — the largest transient buffers in the receive path) are
/// drawn from the scratch pool and run on its kernel backend.
pub fn detect_packets(
    buffer: &[Complex],
    preamble: &Preamble,
    registry: &ClientRegistry,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Vec<Detection> {
    let Scratch { pool, kernel, .. } = ws;
    let l = preamble.len();
    // A packet's fractional sampling offset attenuates the integer-grid
    // correlation peak (by sinc(µ), down to ~0.64 at µ=±0.5) — enough to
    // push marginal preambles under the threshold. Scan a half-sample
    // grid: the buffer interpolated at +0.5 is computed once and shared
    // by all clients.
    let mut half = pool.take();
    kernel.resample_into(buffer, 0.5, 1.0, buffer.len(), &mut half);
    let mut corr = pool.take();
    let mut all: Vec<Detection> = Vec::new();
    for (client, info) in registry.iter() {
        let threshold = client_threshold(cfg, l, info.snr_db);
        for grid in [buffer, half.as_slice()] {
            kernel.scan_into(grid, preamble.symbols(), info.omega, 0..grid.len(), &mut corr);
            // a non-finite correlation (a NaN or ±∞ sample inside the
            // preamble window) is never a spike: it would merge its
            // neighbours into one bogus region
            for p in find_peaks(&corr, threshold, l).into_iter().filter(|p| p.mag().is_finite()) {
                all.push(Detection {
                    pos: p.pos,
                    client,
                    corr: p.value,
                    score: p.mag() / threshold,
                });
            }
        }
    }
    pool.put(corr);
    pool.put(half);
    // merge near-duplicates across clients
    merge_detections(all, l)
}

/// Classifies a buffer: `true` if more than one packet start was detected
/// (or a start appears mid-reception) — the §4.2 decision point "the
/// ZigZag receiver will check whether the packet has suffered a
/// collision".
pub fn is_collision(detections: &[Detection]) -> bool {
    detections.len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientInfo;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
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

    #[test]
    fn detects_single_clean_packet() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = LinkProfile::typical(12.0, &mut rng);
        let a = air(1, 300);
        let rx = clean_reception(&a, &l, &mut rng);
        let reg = setup_registry(&[(1, &l)]);
        let det = detect_packets(
            &rx.buffer,
            &Preamble::default_len(),
            &reg,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        assert_eq!(det.len(), 1, "{det:?}");
        assert!(det[0].pos <= 1, "pos {}", det[0].pos);
        assert_eq!(det[0].client, 1);
        assert!(!is_collision(&det));
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
        let reg = setup_registry(&[(1, &la), (2, &lb)]);
        let det = detect_packets(
            &hp.collision1.buffer,
            &Preamble::default_len(),
            &reg,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        assert!(is_collision(&det), "{det:?}");
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
        let reg = setup_registry(&[(1, &la), (2, &lb)]);
        let det = detect_packets(
            &hp.collision1.buffer,
            &Preamble::default_len(),
            &reg,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        let first = det.iter().find(|d| d.pos <= 1).expect("first pkt");
        let second = det.iter().find(|d| d.pos >= 490).expect("second pkt");
        assert_eq!(first.client, 1);
        assert_eq!(second.client, 2);
    }

    #[test]
    fn no_detection_in_pure_noise() {
        let mut rng = StdRng::seed_from_u64(4);
        let l = LinkProfile::clean(12.0);
        let buffer = zigzag_channel::noise::awgn_vec(&mut rng, 4000, 1.0);
        let reg = setup_registry(&[(1, &l)]);
        let det = detect_packets(
            &buffer,
            &Preamble::default_len(),
            &reg,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        assert!(det.is_empty(), "{det:?}");
    }

    #[test]
    fn empty_registry_detects_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = LinkProfile::clean(12.0);
        let a = air(1, 100);
        let rx = clean_reception(&a, &l, &mut rng);
        let det = detect_packets(
            &rx.buffer,
            &Preamble::default_len(),
            &ClientRegistry::new(),
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        assert!(det.is_empty());
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
}
