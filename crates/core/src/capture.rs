//! Capture-effect decoding and successive interference cancellation
//! (Fig 4-1d, Fig 4-1e; §4.1).
//!
//! When one sender's power at the AP is much higher than the other's,
//! "like current APs, a ZigZag AP decodes every packet from Alice, the
//! high power sender. Unlike current APs however, ZigZag subtracts
//! Alice's packet from the collision signal and tries to decode Bob's
//! packet" — interference cancellation from a *single* collision
//! (Fig 4-1e). If the residual is too dirty for Bob, the next collision
//! brings a new Alice packet over a retransmission of the *same* Bob
//! packet (Fig 4-1d): the two faulty versions of Bob are combined with
//! MRC to correct the errors.
//!
//! The same subtract-the-known-packet machinery implements the ANC-style
//! decode (§2.1): if the receiver already *knows* one colliding packet's
//! content, one collision suffices.

use crate::config::{ClientRegistry, DecoderConfig};
use crate::detect::Detection;
use crate::engine::scratch::Scratch;
use crate::sic::MIN_FEEDBACK_CHUNK;
use crate::standard::{decode_frame, decode_single, SingleDecode};
use crate::view::{ChannelView, Image, Tracking};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::Frame;

use zigzag_phy::preamble::Preamble;

/// Result of a capture/IC attempt on one collision.
#[derive(Clone, Debug)]
pub struct CaptureResult {
    /// The strong packet's decode (CRC-passing frame required for the
    /// subtraction to have been attempted).
    pub strong: SingleDecode,
    /// The weak packet's decode from the post-subtraction residual. Its
    /// `frame` may be `None` (too much residual noise) — keep the soft
    /// symbols for cross-collision MRC (Fig 4-1d).
    pub weak: Option<SingleDecode>,
}

/// Subtracts a decoded packet from a buffer, returning the residual.
/// Renders the decode's hard-decision symbols block-by-block through a
/// re-anchored channel view. A CRC pass is **not** required: even a
/// decode with a handful of symbol errors cancels almost all of the
/// packet energy (each wrong symbol leaves a single-sample glitch), which
/// is exactly how the paper's capture path operates below the CRC
/// threshold (decodability is judged by BER, §5.1f).
pub fn subtract_decoded(
    buffer: &[Complex],
    decoded: &SingleDecode,
    preamble: &Preamble,
    ws: &mut Scratch,
) -> Vec<Complex> {
    // the decode left the view's linear phase model at the packet end;
    // re-anchor it at the preamble for front-to-back synthesis
    let view =
        decoded.view.reanchored(buffer, preamble.symbols()).unwrap_or_else(|| decoded.view.clone());
    subtract_known(buffer, &decoded.decided, &view, ws)
}

/// Subtracts a packet with *known clean symbols* through a channel view —
/// the ANC primitive. The subtraction proceeds block-by-block with the
/// §4.2.4 reconstruction tracking: each block's residual feedback corrects
/// phase/frequency/amplitude/timing before the next block is rendered, so
/// oscillator phase noise cannot accumulate across the packet (a one-shot
/// linear-phase image would). Per-block images and observed spans are
/// drawn from `ws`.
pub fn subtract_known(
    buffer: &[Complex],
    symbols: &[Complex],
    view: &ChannelView,
    ws: &mut Scratch,
) -> Vec<Complex> {
    let mut residual = buffer.to_vec();
    let mut v = view.clone();
    let sym_fn = |n: usize| symbols.get(n).copied();
    let Scratch { pool, kernel, .. } = ws;
    let mut img = Image { first: 0, samples: pool.take() };
    let mut observed = pool.take();
    // Small blocks: cancellation depth is set by how far the oscillator
    // phase-noise walk gets between feedback corrections. 32 symbols keeps
    // the within-block walk ≈0.07 rad ⇒ ≈−28 dB residual, enough to expose
    // a sender 15–20 dB below the subtracted one (the Fig 5-4 regime).
    let block = 32;
    let mut s = 0usize;
    while s < symbols.len() {
        let e = (s + block).min(symbols.len());
        v.synthesize_into(s..e, &sym_fn, pool, kernel, &mut img);
        let blen = residual.len();
        let span = img.first.min(blen)..img.range().end.min(blen);
        observed.clear();
        observed.extend_from_slice(&residual[span.clone()]);
        img.subtract_from(&mut residual);
        if e - s >= MIN_FEEDBACK_CHUNK && observed.len() == img.samples.len() {
            v.feedback(&observed, &img, s..e, &sym_fn, pool, kernel, Tracking::Chunk);
        }
        s = e;
    }
    pool.put(img.samples);
    pool.put(observed);
    residual
}

/// Attempts capture + interference cancellation on a single collision:
/// decode the packet at `strong_start` treating the other as noise; on
/// CRC success subtract it and decode the packet at `weak_start` from the
/// residual (Fig 4-1e).
#[allow(clippy::too_many_arguments)]
pub fn capture_decode(
    buffer: &[Complex],
    strong_start: usize,
    strong_client: Option<u16>,
    weak_start: usize,
    weak_client: Option<u16>,
    registry: &ClientRegistry,
    preamble: &Preamble,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Option<CaptureResult> {
    let strong =
        decode_single(buffer, strong_start, strong_client, registry, preamble, false, cfg, ws)?;
    // Subtract whenever the strong decode looks self-consistent: the PLCP
    // must have been readable (else even the length is a guess) and the
    // decisions must sit close to the soft symbols (EVM gate). A CRC pass
    // is not required — see `subtract_decoded`.
    let plausible = strong.plcp.is_some() && {
        let n = strong.soft.len().max(1) as f64;
        let evm: f64 = strong
            .soft
            .iter()
            .zip(strong.decided.iter())
            .map(|(s, d)| (*s - *d).abs())
            .sum::<f64>()
            / n;
        evm < 0.7
    };
    if !plausible {
        return Some(CaptureResult { strong, weak: None });
    }
    let residual = subtract_decoded(buffer, &strong, preamble, ws);
    let weak = decode_single(&residual, weak_start, weak_client, registry, preamble, true, cfg, ws);
    Some(CaptureResult { strong, weak })
}

/// The pure part of the receiver's capture path on one collision: which
/// detection anchors a CRC-passing capture decode, and what the weak
/// packet decodes to once that anchor is cancelled. A function of the
/// buffer, its detections, the association registry and the decoder
/// configuration alone, so it can run on any thread ahead of the
/// receiver that consumes it (see [`capture_attempt`]).
#[derive(Clone, Debug)]
pub struct CaptureAttempt {
    /// The detections the attempt was computed from: a consumer whose
    /// detections differ (a custom stage may edit them) must recompute.
    pub(crate) detections: Vec<Detection>,
    /// `None` when no anchor candidate passed its CRC.
    pub(crate) captured: Option<Captured>,
}

/// What the receiver's stateful capture tail reads of a successful
/// attempt.
#[derive(Clone, Debug)]
pub(crate) struct Captured {
    /// The anchor's CRC-passing frame.
    pub frame: Frame,
    /// The weak packet's client and its decode from the residual, when
    /// another detection lies outside the anchor's preamble and the
    /// residual decode produced anything.
    pub weak: Option<(u16, SingleDecode)>,
}

/// Runs every decode of the receiver's capture path on `buffer` (§4.1,
/// Fig 4-1e): up to four detections, best correlation first, are tried
/// as the capture anchor, and the first whose frame passes its CRC is
/// cancelled from the buffer so that the best-scoring other detection
/// outside its preamble can be decoded from the residual.
///
/// Correlation strength alone is not a reliable anchor — a data sidelobe
/// of a strong sender can out-score the (fractionally attenuated) true
/// preamble peak — a CRC-passing decode is (§5.3a: false positives are
/// harmless beyond the wasted attempt).
///
/// The attempt touches no receiver state; `CaptureStage` delivers from
/// it and runs the stateful tail (delivery dedup, the Fig 4-1d MRC retry
/// against stored weak versions). Events are the same whether the
/// attempt is computed inline by the stage or ahead of it.
pub fn capture_attempt(
    buffer: &[Complex],
    detections: &[Detection],
    registry: &ClientRegistry,
    preamble: &Preamble,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> CaptureAttempt {
    let mut by_power = detections.to_vec();
    by_power.sort_by(|a, b| b.corr.abs().total_cmp(&a.corr.abs()));
    let anchor = by_power.iter().take(4).find_map(|cand| {
        decode_frame(buffer, cand.pos, Some(cand.client), registry, preamble, false, cfg, ws)
            .map(|d| (*cand, d))
    });
    let captured = anchor.map(|(strong, strong_decode)| {
        // best-scoring other detection outside the anchor's preamble
        let weak_det = by_power.iter().find(|d| d.pos.abs_diff(strong.pos) >= preamble.len());
        let weak = weak_det.and_then(|weak| {
            let residual = subtract_decoded(buffer, &strong_decode, preamble, ws);
            let client = Some(weak.client);
            let w = decode_single(&residual, weak.pos, client, registry, preamble, true, cfg, ws)?;
            Some((weak.client, w))
        });
        let frame = strong_decode.frame.expect("decode_frame returns CRC-passing decodes");
        Captured { frame, weak }
    });
    CaptureAttempt { detections: detections.to_vec(), captured }
}

/// Fig 4-1d: MRC-combines two faulty versions of the same (weak) packet
/// recovered from different collisions and re-slices the scrambled MPDU
/// bits. Returns `None` when the versions are inconsistent (no readable
/// PLCP, length mismatch).
pub fn mrc_combined_bits(v1: &SingleDecode, v2: &SingleDecode) -> Option<Vec<u8>> {
    let plcp = v1.plcp.or(v2.plcp)?;
    let body_start = {
        // preamble + PLCP symbols — identical for both versions
        v1.soft
            .len()
            .min(v2.soft.len())
            .checked_sub(plcp.modulation.symbols_for_bits(plcp.mpdu_len as usize * 8))?
    };
    let w1 = v1.view.gain * v1.view.gain;
    let w2 = v2.view.gain * v2.view.gain;
    let combined = zigzag_phy::mrc::combine_weighted(&[(&v1.soft, w1), (&v2.soft, w2)]);
    let mut bits = Vec::new();
    for &s in combined.iter().skip(body_start) {
        plcp.modulation.decide_bits(s, &mut bits);
    }
    let want = plcp.mpdu_len as usize * 8;
    if bits.len() < want {
        return None;
    }
    bits.truncate(want);
    Some(bits)
}

/// Fig 4-1d: combines two faulty versions of the same (weak) packet
/// recovered from different collisions, using MRC, and retries the CRC.
pub fn mrc_combine_retry(v1: &SingleDecode, v2: &SingleDecode) -> Option<Frame> {
    let plcp = v1.plcp.or(v2.plcp)?;
    plcp.frame_from_bits(&mrc_combined_bits(v1, v2)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientInfo;
    use crate::standard::decode_single;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::scenario::{synth_collision, PlacedTx};
    use zigzag_phy::frame::encode_frame;
    use zigzag_phy::modulation::Modulation;

    fn air(src: u16, seq: u16, len: usize) -> zigzag_phy::frame::AirFrame {
        let f = Frame::with_random_payload(0, src, seq, len, 900 + src as u64 + seq as u64);
        encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
    }

    fn registry(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
        let mut r = ClientRegistry::new();
        for (id, l) in links {
            r.associate(
                *id,
                ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
            );
        }
        r
    }

    /// One collision: strong Alice over weak Bob, Bob offset by delta.
    fn capture_scenario(
        snr_a: f64,
        snr_b: f64,
        delta: usize,
        seed: u64,
    ) -> (Vec<Complex>, zigzag_phy::frame::AirFrame, zigzag_phy::frame::AirFrame, ClientRegistry)
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let la = LinkProfile::typical(snr_a, &mut rng);
        let lb = LinkProfile::typical(snr_b, &mut rng);
        let a = air(1, 1, 300);
        let b = air(2, 1, 300);
        let ca = la.draw(&mut rng);
        let cb = lb.draw(&mut rng);
        let sc = synth_collision(
            &[
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: delta },
            ],
            1.0,
            &mut rng,
        );
        (sc.buffer, a, b, registry(&[(1, &la), (2, &lb)]))
    }

    #[test]
    fn strong_packet_captures_through_interference() {
        // Alice far above Bob: her packet decodes despite the overlap.
        let (buf, a, _b, reg) = capture_scenario(30.0, 12.0, 200, 1);
        let out = capture_decode(
            &buf,
            0,
            Some(1),
            200,
            Some(2),
            &reg,
            &Preamble::default_len(),
            &DecoderConfig::default(),
            &mut Scratch::default(),
        )
        .expect("capture");
        assert_eq!(out.strong.frame.as_ref(), Some(&a.frame));
    }

    #[test]
    fn interference_cancellation_recovers_weak_packet() {
        // Fig 4-1e: both packets from ONE collision when powers permit.
        // ΔSNR ≈ 8 dB is the sweet spot: the strong packet decodes through
        // the interference (BER ≪ 1e-3) and the −20 dB cancellation floor
        // leaves the weak packet ~9 dB effective SNR. (See DESIGN.md §2 on
        // the 1-sample/symbol cancellation floor.)
        let (buf, a, b, reg) = capture_scenario(20.0, 12.0, 200, 2);
        let out = capture_decode(
            &buf,
            0,
            Some(1),
            200,
            Some(2),
            &reg,
            &Preamble::default_len(),
            &DecoderConfig::default(),
            &mut Scratch::default(),
        )
        .expect("capture");
        // the paper's delivery criterion: uncoded BER below 1e-3 (§5.1f)
        let ber_a = zigzag_phy::bits::bit_error_rate(&a.mpdu_bits, &out.strong.scrambled_bits);
        assert!(ber_a < 1e-3, "strong should capture: BER {ber_a}");
        let weak = out.weak.expect("weak decode attempted");
        let ber = zigzag_phy::bits::bit_error_rate(&b.mpdu_bits, &weak.scrambled_bits);
        // recovered to within the residual-limited SIR (the Fig 5-4 sweep
        // maps out exactly where this crosses the 1e-3 delivery bar)
        assert!(ber < 1e-2, "IC should recover Bob: BER {ber}");
    }

    #[test]
    fn equal_power_collision_fails_capture() {
        let (buf, _a, _b, reg) = capture_scenario(12.0, 12.0, 200, 3);
        let out = capture_decode(
            &buf,
            0,
            Some(1),
            200,
            Some(2),
            &reg,
            &Preamble::default_len(),
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        let ok = out.map(|o| o.strong.frame.is_some()).unwrap_or(false);
        assert!(!ok, "equal powers must not capture");
    }

    #[test]
    fn anc_subtract_known_recovers_other() {
        // ANC (§2.1): receiver knows Alice's symbols a priori; one
        // collision suffices even at equal power.
        let mut rng = StdRng::seed_from_u64(4);
        let la = LinkProfile::clean(16.0);
        let lb = LinkProfile::clean(16.0);
        let a = air(1, 1, 300);
        let b = air(2, 1, 300);
        let ca = la.draw(&mut rng);
        let cb = lb.draw(&mut rng);
        let sc = synth_collision(
            &[
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: 150 },
            ],
            1.0,
            &mut rng,
        );
        let reg = registry(&[(1, &la), (2, &lb)]);
        let cfg = DecoderConfig::default();
        let p = Preamble::default_len();
        // estimate Alice's view from her (clean) preamble, subtract her
        // KNOWN symbols, decode Bob from the residual
        let va = ChannelView::estimate(
            &sc.buffer,
            0,
            p.symbols(),
            Some(la.association_omega()),
            Some(&la.isi),
            true,
            &cfg,
        )
        .unwrap();
        let mut ws = Scratch::default();
        let residual = subtract_known(&sc.buffer, &a.symbols, &va, &mut ws);
        let out =
            decode_single(&residual, 150, Some(2), &reg, &p, true, &cfg, &mut ws).expect("decode");
        let ber = zigzag_phy::bits::bit_error_rate(&b.mpdu_bits, &out.scrambled_bits);
        assert!(ber < 1e-3, "ANC should recover Bob: BER {ber}");
    }

    #[test]
    fn mrc_retry_combines_two_faulty_versions() {
        // Fig 4-1d: Bob marginal after cancellation in each collision
        // alone, decodable after combining.
        let mut found_case = false;
        for seed in 0..8u64 {
            let (buf1, _a1, b, reg) = capture_scenario(22.0, 9.0, 200, 50 + seed);
            // second collision: new Alice packet, same Bob packet
            let mut rng = StdRng::seed_from_u64(150 + seed);
            let la = LinkProfile::typical(22.0, &mut rng);
            let lb = LinkProfile::typical(9.0, &mut rng);
            let a2 = air(1, 2, 300);
            let ca = la.draw(&mut rng);
            let cb = lb.draw(&mut rng);
            let sc2 = synth_collision(
                &[
                    PlacedTx { air: &a2, base: &ca, start: 0 },
                    PlacedTx { air: &b, base: &cb, start: 140 },
                ],
                1.0,
                &mut rng,
            );
            // Fresh link draws model a fresh association: both clients'
            // registry entries must match the links actually in the air.
            let mut reg2 = reg.clone();
            reg2.associate(
                1,
                ClientInfo { omega: la.association_omega(), snr_db: 22.0, taps: la.isi.clone() },
            );
            reg2.associate(
                2,
                ClientInfo { omega: lb.association_omega(), snr_db: 9.0, taps: lb.isi.clone() },
            );
            let cfg = DecoderConfig::default();
            let p = Preamble::default_len();
            let mut ws = Scratch::default();
            let r1 = capture_decode(&buf1, 0, Some(1), 200, Some(2), &reg, &p, &cfg, &mut ws);
            let r2 =
                capture_decode(&sc2.buffer, 0, Some(1), 140, Some(2), &reg2, &p, &cfg, &mut ws);
            let (Some(r1), Some(r2)) = (r1, r2) else { continue };
            let (Some(w1), Some(w2)) = (r1.weak, r2.weak) else { continue };
            if let Some(f) = mrc_combine_retry(&w1, &w2) {
                assert_eq!(&f, &b.frame);
                found_case = true;
                break;
            }
            // MRC must at least improve the BER over either faulty copy
            let b1 = zigzag_phy::bits::bit_error_rate(&b.mpdu_bits, &w1.scrambled_bits);
            let b2 = zigzag_phy::bits::bit_error_rate(&b.mpdu_bits, &w2.scrambled_bits);
            let bits = mrc_combined_bits(&w1, &w2);
            if let Some(bits) = bits {
                let bc = zigzag_phy::bits::bit_error_rate(&b.mpdu_bits, &bits);
                if bc < b1.min(b2) {
                    found_case = true;
                    break;
                }
            }
            if w1.frame.is_some() || w2.frame.is_some() {
                found_case = true;
                break;
            }
        }
        assert!(found_case, "no seed produced a recoverable Fig 4-1d case");
    }
}
