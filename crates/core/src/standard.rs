//! The standard single-packet decoder ("current 802.11" receiver).
//!
//! This is the black box ZigZag builds on (§4.2.3a) and the baseline the
//! evaluation compares against (§5.1e "Current 802.11: this approach uses
//! the same underlying decoder as ZigZag but operates over individual
//! packets"). It decodes one packet from a buffer — synchronise on the
//! preamble, read the PLCP, demodulate the body with PLL/timing tracking,
//! descramble, CRC-check — treating everything else in the buffer as
//! noise.

use crate::config::{ClientRegistry, DecoderConfig};
use crate::engine::scratch::Scratch;
use crate::view::{ChannelView, Direction, PacketLayout};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{Frame, PlcpHeader, PLCP_SYMBOLS};
use zigzag_phy::preamble::Preamble;

/// Output of a single-packet decode attempt.
#[derive(Clone, Debug)]
pub struct SingleDecode {
    /// The recovered frame if the CRC-32 passed.
    pub frame: Option<Frame>,
    /// Parsed PLCP header (None ⇒ even the header was unreadable).
    pub plcp: Option<PlcpHeader>,
    /// Best-effort scrambled MPDU bits for BER scoring.
    pub scrambled_bits: Vec<u8>,
    /// Soft (normalised) symbol estimates over the whole packet.
    pub soft: Vec<Complex>,
    /// Hard-decision constellation points over the whole packet
    /// (data-aided over the preamble) — what the capture path subtracts.
    pub decided: Vec<Complex>,
    /// The channel view after decoding (for subtraction / capture).
    pub view: ChannelView,
    /// Packet start in the buffer.
    pub start: usize,
    /// Total packet length in symbols (from the PLCP).
    pub total_syms: usize,
}

/// Attempts a standard decode of the packet starting at `start`.
///
/// * `client` keys the association registry for coarse ω / ISI taps;
///   `None` falls back to self-estimation on the preamble (valid for
///   clean receptions, e.g. association frames).
/// * `clean` indicates the preamble region is believed interference-free.
///
/// Per-chunk temporaries are drawn from `ws` (and run on its kernel
/// backend), so repeated decodes reuse their buffers.
///
/// Returns `None` only when not even a channel estimate was possible.
/// An unreadable PLCP still yields soft symbols: the rest of the buffer
/// is demodulated as BPSK, for BER scoring and capture subtraction.
#[allow(clippy::too_many_arguments)]
pub fn decode_single(
    buffer: &[Complex],
    start: usize,
    client: Option<u16>,
    registry: &ClientRegistry,
    preamble: &Preamble,
    clean: bool,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Option<SingleDecode> {
    let header = decode_header(buffer, start, client, registry, preamble, clean, cfg, ws)?;
    Some(decode_body(buffer, start, header, ws))
}

/// [`decode_single`] for callers that only want a frame: returns `Some`
/// exactly when `decode_single` would return a decode whose CRC-32
/// passed, and then the same decode. The body is never demodulated when
/// the PLCP fails its CRC-8 or announces a body that runs past the end
/// of the buffer — in both cases no frame can come out of it.
#[allow(clippy::too_many_arguments)]
pub fn decode_frame(
    buffer: &[Complex],
    start: usize,
    client: Option<u16>,
    registry: &ClientRegistry,
    preamble: &Preamble,
    clean: bool,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Option<SingleDecode> {
    let header = decode_header(buffer, start, client, registry, preamble, clean, cfg, ws)?;
    if !header.body_fits {
        return None;
    }
    let decode = decode_body(buffer, start, header, ws);
    decode.frame.is_some().then_some(decode)
}

/// A packet decoded up to the end of its PLCP.
struct Header {
    view: ChannelView,
    /// Body modulation and length set from the PLCP (BPSK over the rest
    /// of the buffer when it is unreadable).
    layout: PacketLayout,
    plcp: Option<PlcpHeader>,
    /// The PLCP passed its CRC-8 and its body ends inside the buffer.
    body_fits: bool,
    soft: Vec<Complex>,
    decided: Vec<Complex>,
}

/// Header phase: channel estimate, preamble and PLCP.
#[allow(clippy::too_many_arguments)]
fn decode_header(
    buffer: &[Complex],
    start: usize,
    client: Option<u16>,
    registry: &ClientRegistry,
    preamble: &Preamble,
    clean: bool,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Option<Header> {
    let info = client.and_then(|c| registry.get(c));
    let omega = info.map(|i| i.omega);
    let taps = info.map(|i| i.taps.clone());
    let mut view =
        ChannelView::estimate(buffer, start, preamble.symbols(), omega, taps.as_ref(), clean, cfg)?;

    let mut layout = PacketLayout::unknown(
        preamble.symbols().to_vec(),
        PLCP_SYMBOLS,
        buffer.len().saturating_sub(start),
    );

    let Scratch { pool, chunk, kernel, .. } = ws;
    view.decode_chunk_into(
        buffer,
        0..layout.body_start(),
        &layout,
        Direction::Forward,
        pool,
        kernel,
        chunk,
    );
    let soft = std::mem::take(&mut chunk.soft);
    let decided = std::mem::take(&mut chunk.decided);
    // an unreadable header leaves the layout as is: the rest of the
    // buffer decodes as BPSK so the caller can still score bits /
    // attempt capture subtraction
    let header = layout.learn_plcp(|n| decided.get(n).copied());
    let (plcp, body_fits) = (header.map(|(h, _)| h), header.is_some_and(|(_, fits)| fits));
    Some(Header { view, layout, plcp, body_fits, soft, decided })
}

/// Body phase: demodulates the MPDU and checks its CRC-32.
fn decode_body(buffer: &[Complex], start: usize, header: Header, ws: &mut Scratch) -> SingleDecode {
    let Header { mut view, layout, plcp, mut soft, mut decided, .. } = header;
    let Scratch { pool, chunk, kernel, .. } = ws;
    view.decode_chunk_into(
        buffer,
        layout.body_start()..layout.total_syms,
        &layout,
        Direction::Forward,
        pool,
        kernel,
        chunk,
    );
    soft.extend_from_slice(&chunk.soft);
    decided.extend_from_slice(&chunk.decided);

    let scrambled_bits = layout.body_bits(decided.iter().copied());
    let frame = plcp.and_then(|h| h.frame_from_bits(&scrambled_bits));

    let total_syms = layout.total_syms;
    SingleDecode { frame, plcp, scrambled_bits, soft, decided, view, start, total_syms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientInfo;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::scenario::clean_reception;
    use zigzag_phy::bits::bit_error_rate;
    use zigzag_phy::filter::Fir;
    use zigzag_phy::frame::encode_frame;
    use zigzag_phy::modulation::Modulation;

    fn air(src: u16, len: usize, m: Modulation) -> zigzag_phy::frame::AirFrame {
        let f = Frame::with_random_payload(0, src, 3, len, 55 + src as u64);
        encode_frame(&f, m, &Preamble::default_len())
    }

    #[test]
    fn decodes_clean_reception_with_registry() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = LinkProfile::typical(12.0, &mut rng);
        let a = air(1, 500, Modulation::Bpsk);
        let rx = clean_reception(&a, &l, &mut rng);
        let mut reg = ClientRegistry::new();
        reg.associate(
            1,
            ClientInfo { omega: l.association_omega(), snr_db: 12.0, taps: l.isi.clone() },
        );
        let out = decode_single(
            &rx.buffer,
            0,
            Some(1),
            &reg,
            &Preamble::default_len(),
            true,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        )
        .expect("decode");
        assert_eq!(out.frame.as_ref(), Some(&a.frame));
        assert_eq!(out.total_syms, a.len());
    }

    #[test]
    fn decodes_without_registry_association_case() {
        // Association frames arrive before the AP knows the client.
        let mut rng = StdRng::seed_from_u64(3);
        let l = LinkProfile::typical(14.0, &mut rng);
        let a = air(7, 200, Modulation::Bpsk);
        let rx = clean_reception(&a, &l, &mut rng);
        let out = decode_single(
            &rx.buffer,
            0,
            None,
            &ClientRegistry::new(),
            &Preamble::default_len(),
            true,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        )
        .expect("decode");
        let ber = bit_error_rate(&a.mpdu_bits, &out.scrambled_bits);
        assert!(ber < 1e-2, "BER {ber}");
        // at 14 dB a clean association frame should CRC
        assert!(out.frame.is_some());
    }

    #[test]
    fn decodes_qam_bodies() {
        // Dense constellations are exercised at a small fractional timing
        // offset: at one sample per symbol the fractional-delay
        // interpolation of a full-band signal has a truncation error floor
        // (≈0.2 RMS at µ=0.5) that swamps 16/64-QAM margins — the paper's
        // prototype ran 2 samples/symbol (§5.1c) where this vanishes. See
        // DESIGN.md §2. BPSK/QPSK are unaffected at any µ.
        use zigzag_channel::fading::ChannelParams;
        use zigzag_channel::noise::{add_awgn, amplitude_for_snr_db};
        let mut rng = StdRng::seed_from_u64(3);
        for (m, snr) in
            [(Modulation::Qpsk, 20.0), (Modulation::Qam16, 24.0), (Modulation::Qam64, 32.0)]
        {
            let a = air(1, 300, m);
            let ch = ChannelParams {
                gain: Complex::from_polar(amplitude_for_snr_db(snr), 0.8),
                omega: 0.02,
                sampling_offset: 0.08,
                ..ChannelParams::ideal()
            };
            let mut buffer = ch.apply(&a.symbols, &mut rng);
            buffer.extend(std::iter::repeat_n(Complex::default(), 32));
            add_awgn(&mut rng, &mut buffer, 1.0);
            let mut reg = ClientRegistry::new();
            reg.associate(1, ClientInfo { omega: 0.02, snr_db: snr, taps: Fir::identity() });
            let out = decode_single(
                &buffer,
                0,
                Some(1),
                &reg,
                &Preamble::default_len(),
                true,
                &DecoderConfig::default(),
                &mut Scratch::default(),
            )
            .expect("decode");
            assert_eq!(out.plcp.unwrap().modulation, m);
            let ber = bit_error_rate(&a.mpdu_bits, &out.scrambled_bits);
            assert!(ber < 1e-3, "{m:?} BER {ber}");
            if m != Modulation::Qam64 {
                assert_eq!(out.frame.as_ref(), Some(&a.frame), "{m:?}");
            }
        }
    }

    #[test]
    fn collision_breaks_standard_decode() {
        // The §1 premise: a standard receiver cannot decode overlapping
        // equal-power packets.
        let mut rng = StdRng::seed_from_u64(4);
        let la = LinkProfile::typical(12.0, &mut rng);
        let lb = LinkProfile::typical(12.0, &mut rng);
        let a = air(1, 400, Modulation::Bpsk);
        let b = air(2, 400, Modulation::Bpsk);
        let hp = zigzag_channel::scenario::hidden_pair(&a, &b, &la, &lb, 120, 40, &mut rng);
        let mut reg = ClientRegistry::new();
        reg.associate(
            1,
            ClientInfo { omega: la.association_omega(), snr_db: 12.0, taps: la.isi.clone() },
        );
        let out = decode_single(
            &hp.collision1.buffer,
            0,
            Some(1),
            &reg,
            &Preamble::default_len(),
            true,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        let ok = out.map(|o| o.frame.is_some()).unwrap_or(false);
        assert!(!ok, "equal-power collision should not decode");
    }

    /// Runs both decoders on the same input and checks the PLCP gate is
    /// exact: `decode_frame` yields a decode precisely when
    /// `decode_single`'s frame passed its CRC, and then the very same
    /// decode. Returns `decode_single`'s output for case assertions.
    fn gate_agrees(
        buffer: &[Complex],
        start: usize,
        reg: &ClientRegistry,
        clean: bool,
    ) -> Option<SingleDecode> {
        let (p, cfg) = (Preamble::default_len(), DecoderConfig::default());
        let single =
            decode_single(buffer, start, Some(1), reg, &p, clean, &cfg, &mut Scratch::default());
        let frame =
            decode_frame(buffer, start, Some(1), reg, &p, clean, &cfg, &mut Scratch::default());
        let passed = single.as_ref().filter(|d| d.frame.is_some());
        assert_eq!(frame.is_some(), passed.is_some(), "gate disagrees at start {start}");
        if let (Some(f), Some(s)) = (&frame, passed) {
            assert_eq!(format!("{f:?}"), format!("{s:?}"), "decodes differ at start {start}");
        }
        single
    }

    #[test]
    fn decode_frame_is_decode_single_when_the_crc_passes() {
        let mut rng = StdRng::seed_from_u64(4);
        let la = LinkProfile::typical(12.0, &mut rng);
        let lb = LinkProfile::typical(12.0, &mut rng);
        let mut reg = ClientRegistry::new();
        reg.associate(
            1,
            ClientInfo { omega: la.association_omega(), snr_db: 12.0, taps: la.isi.clone() },
        );

        // a clean reception: both decode the frame
        let a = air(1, 400, Modulation::Bpsk);
        let rx = clean_reception(&a, &la, &mut rng);
        let clean = gate_agrees(&rx.buffer, 0, &reg, true).expect("estimate");
        assert_eq!(clean.frame.as_ref(), Some(&a.frame));

        // cut right after its last symbol: the body just fits
        let exact = gate_agrees(&rx.buffer[..a.len()], 0, &reg, true).expect("estimate");
        assert_eq!(exact.frame.as_ref(), Some(&a.frame));

        // cut inside the body: the PLCP reads, but its body runs past
        // the buffer
        let cut = &rx.buffer[..a.len() / 2];
        let truncated = gate_agrees(cut, 0, &reg, true).expect("estimate");
        assert!(truncated.plcp.is_some() && truncated.frame.is_none());

        // an equal-power collision: the first packet's PLCP is clean but
        // its body collides (CRC-32 fails); the second packet's PLCP is
        // buried under the first (CRC-8 fails)
        let b = air(2, 400, Modulation::Bpsk);
        let hp = zigzag_channel::scenario::hidden_pair(&a, &b, &la, &lb, 120, 40, &mut rng);
        let buf = &hp.collision1.buffer;
        let first = gate_agrees(buf, 0, &reg, false).expect("estimate");
        assert!(first.plcp.is_some() && first.frame.is_none(), "first: {:?}", first.plcp);
        let second = gate_agrees(buf, 120, &reg, false).expect("estimate");
        assert!(second.plcp.is_none(), "second: {:?}", second.plcp);

        // pure noise: an estimate, but no readable PLCP
        let noise: Vec<Complex> = (0..2000)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let junk = gate_agrees(&noise, 0, &reg, false).expect("estimate");
        assert!(junk.plcp.is_none());
    }

    #[test]
    fn low_snr_fails_crc_but_returns_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let l = LinkProfile::clean(-2.0);
        let a = air(1, 200, Modulation::Bpsk);
        let rx = clean_reception(&a, &l, &mut rng);
        let out = decode_single(
            &rx.buffer,
            0,
            None,
            &ClientRegistry::new(),
            &Preamble::default_len(),
            true,
            &DecoderConfig::default(),
            &mut Scratch::default(),
        );
        if let Some(o) = out {
            assert!(o.frame.is_none());
        }
    }
}
