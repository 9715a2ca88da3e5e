//! Frame anatomy and symbol-level encoding.
//!
//! Over-the-air layout (mirroring 802.11's PLCP + MPDU split):
//!
//! ```text
//! | preamble (BPSK, known) | PLCP header (BPSK) |   MPDU (payload rate)    |
//! |   32 symbols default   |  5 bytes = 40 syms | (9 + payload + 4) bytes  |
//! ```
//!
//! * The **preamble** is the network-wide known sequence (§4.2.1).
//! * The **PLCP header** is always BPSK (like 802.11's base-rate PLCP) and
//!   carries `{rate, scramble seed, MPDU length}` plus a CRC-8, so the
//!   receiver learns how to decode the body. This is what lets two colliding
//!   packets use different modulations "without requiring any special
//!   treatment" (§4.2.3a).
//! * The **MPDU** is `{dst, src, seq, flags} ‖ payload ‖ CRC-32`, scrambled
//!   (whitened) with the seed advertised in the PLCP. Scrambling keeps the
//!   body pseudo-random, which collision detection and matching rely on.
//!
//! Retransmissions are bit-identical: the scramble seed is derived from
//! `(src, seq)` and the retry flag is not flipped over the air (see
//! DESIGN.md §2 for why this is a faithful simplification).

use crate::bits::{bits_to_bytes, bytes_to_bits, read_u16, write_u16};
use crate::complex::Complex;
use crate::crc::{append_crc, verify_crc};
use crate::modulation::Modulation;
use crate::preamble::Preamble;
use crate::scramble::Scrambler;

/// MPDU header length: dst(2) + src(2) + seq(2) + flags(1) = 7 bytes.
pub const MPDU_HEADER_LEN: usize = 7;
/// CRC-32 trailer length.
pub const CRC_LEN: usize = 4;
/// PLCP header length: rate(1) + seed(1) + length(2) + crc8(1) = 5 bytes.
pub const PLCP_LEN: usize = 5;
/// PLCP header length in BPSK symbols.
pub const PLCP_SYMBOLS: usize = PLCP_LEN * 8;
/// Default payload size used throughout the evaluation (§5.1c: 1500 bytes).
pub const DEFAULT_PAYLOAD_LEN: usize = 1500;

/// A link-layer frame, before PHY encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Destination node id (the AP in the evaluation scenarios).
    pub dst: u16,
    /// Source node id.
    pub src: u16,
    /// MAC sequence number; with `src` it identifies a packet across
    /// retransmissions.
    pub seq: u16,
    /// Retry flag (kept in metadata; not flipped over the air).
    pub retry: bool,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame with the given addressing and payload.
    pub fn new(dst: u16, src: u16, seq: u16, payload: Vec<u8>) -> Self {
        Self { dst, src, seq, retry: false, payload }
    }

    /// A frame with a deterministic pseudo-random payload of `len` bytes —
    /// handy for experiments that only care about bit statistics.
    pub fn with_random_payload(dst: u16, src: u16, seq: u16, len: usize, seed: u64) -> Self {
        // xorshift64* keeps this dependency-free and reproducible.
        let mut state = seed.wrapping_mul(2_685_821_657_736_338_717).wrapping_add(1);
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            payload.push((state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8);
        }
        Self::new(dst, src, seq, payload)
    }

    /// The scramble seed used for this frame (deterministic in `(src, seq)`
    /// so retransmissions whiten identically).
    pub fn scramble_seed(&self) -> u8 {
        let s = (self.src.wrapping_mul(31) ^ self.seq.wrapping_mul(131)) as u8;
        (s | 1) & 0x7F // never zero
    }

    /// Serialises the MPDU: header ‖ payload ‖ CRC-32 (unscrambled).
    pub fn mpdu_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MPDU_HEADER_LEN + self.payload.len() + CRC_LEN);
        write_u16(&mut out, self.dst);
        write_u16(&mut out, self.src);
        write_u16(&mut out, self.seq);
        out.push(u8::from(self.retry));
        out.extend_from_slice(&self.payload);
        append_crc(&mut out);
        out
    }

    /// Parses and CRC-checks an (already descrambled) MPDU.
    pub fn from_mpdu(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < MPDU_HEADER_LEN + CRC_LEN || !verify_crc(bytes) {
            return None;
        }
        Some(Self {
            dst: read_u16(&bytes[0..2]),
            src: read_u16(&bytes[2..4]),
            seq: read_u16(&bytes[4..6]),
            retry: bytes[6] != 0,
            payload: bytes[MPDU_HEADER_LEN..bytes.len() - CRC_LEN].to_vec(),
        })
    }

    /// MPDU length in bytes for this frame.
    pub fn mpdu_len(&self) -> usize {
        MPDU_HEADER_LEN + self.payload.len() + CRC_LEN
    }
}

/// PLCP rate field encoding of a [`Modulation`].
fn rate_code(m: Modulation) -> u8 {
    match m {
        Modulation::Bpsk => 0,
        Modulation::Qpsk => 1,
        Modulation::Qam16 => 2,
        Modulation::Qam64 => 3,
    }
}

/// Decodes a PLCP rate field.
fn rate_from_code(code: u8) -> Option<Modulation> {
    match code {
        0 => Some(Modulation::Bpsk),
        1 => Some(Modulation::Qpsk),
        2 => Some(Modulation::Qam16),
        3 => Some(Modulation::Qam64),
        _ => None,
    }
}

/// CRC-8 (poly 0x07) protecting the PLCP header.
fn crc8(data: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in data {
        crc ^= b;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 { (crc << 1) ^ 0x07 } else { crc << 1 };
        }
    }
    crc
}

/// Contents of a decoded PLCP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlcpHeader {
    /// Payload (MPDU) modulation.
    pub modulation: Modulation,
    /// Scramble seed for the MPDU.
    pub seed: u8,
    /// MPDU length in bytes.
    pub mpdu_len: u16,
}

impl PlcpHeader {
    /// Serialises the PLCP header (5 bytes, CRC-8 protected).
    pub fn to_bytes(self) -> [u8; PLCP_LEN] {
        let mut b = [0u8; PLCP_LEN];
        b[0] = rate_code(self.modulation);
        b[1] = self.seed;
        b[2..4].copy_from_slice(&self.mpdu_len.to_le_bytes());
        b[4] = crc8(&b[..4]);
        b
    }

    /// Parses and validates a PLCP header.
    pub fn from_bytes(b: &[u8]) -> Option<Self> {
        if b.len() < PLCP_LEN || crc8(&b[..4]) != b[4] {
            return None;
        }
        Some(Self {
            modulation: rate_from_code(b[0])?,
            seed: b[1],
            mpdu_len: u16::from_le_bytes([b[2], b[3]]),
        })
    }

    /// The frame this header announces, from the demodulated scrambled
    /// MPDU bits: the first `mpdu_len · 8` bits through [`decode_mpdu`].
    /// `None` when fewer bits arrived or the CRC-32 fails.
    pub fn frame_from_bits(&self, scrambled_bits: &[u8]) -> Option<Frame> {
        let want = self.mpdu_len as usize * 8;
        decode_mpdu(scrambled_bits.get(..want)?, self.seed)
    }
}

/// A fully PHY-encoded frame: the transmitted symbol stream plus the
/// reference data needed by the evaluation (transmitted bits for BER).
#[derive(Clone, Debug)]
pub struct AirFrame {
    /// The link-layer frame this encodes.
    pub frame: Frame,
    /// MPDU modulation.
    pub modulation: Modulation,
    /// Complete over-the-air symbol stream
    /// (preamble ‖ PLCP ‖ modulated scrambled MPDU).
    pub symbols: Vec<Complex>,
    /// Scrambled MPDU bits exactly as modulated — the reference stream for
    /// uncoded-BER measurements (§5.1f measures BER before channel coding).
    pub mpdu_bits: Vec<u8>,
    /// Preamble length in symbols (offset of the PLCP).
    pub preamble_len: usize,
}

impl AirFrame {
    /// Symbol index where the MPDU starts.
    pub fn mpdu_start(&self) -> usize {
        self.preamble_len + PLCP_SYMBOLS
    }

    /// Total length in symbols.
    #[allow(clippy::len_without_is_empty)] // frames are never empty
    pub fn len(&self) -> usize {
        self.symbols.len()
    }
}

/// Encodes a frame into its over-the-air symbol stream.
pub fn encode_frame(frame: &Frame, modulation: Modulation, preamble: &Preamble) -> AirFrame {
    let seed = frame.scramble_seed();
    let mpdu = frame.mpdu_bytes();
    let plcp = PlcpHeader { modulation, seed, mpdu_len: mpdu.len() as u16 };

    let mut scrambled = mpdu;
    Scrambler::new(seed).apply_bytes(&mut scrambled);
    let mpdu_bits = bytes_to_bits(&scrambled);

    let mut symbols = Vec::with_capacity(
        preamble.len() + PLCP_SYMBOLS + modulation.symbols_for_bits(mpdu_bits.len()),
    );
    symbols.extend_from_slice(preamble.symbols());
    symbols.extend(Modulation::Bpsk.modulate(&bytes_to_bits(&plcp.to_bytes())));
    symbols.extend(modulation.modulate(&mpdu_bits));

    AirFrame { frame: frame.clone(), modulation, symbols, mpdu_bits, preamble_len: preamble.len() }
}

/// Decodes an MPDU from its (already demodulated) scrambled bits.
///
/// Returns the frame if the CRC-32 passes. This is the tail end of the
/// "standard decoder" black box; the sample-to-bits front half lives in
/// `zigzag-core::standard`.
pub fn decode_mpdu(scrambled_bits: &[u8], seed: u8) -> Option<Frame> {
    let mut bytes = bits_to_bytes(scrambled_bits);
    Scrambler::new(seed).apply_bytes(&mut bytes);
    Frame::from_mpdu(&bytes)
}

/// Number of symbols an encoded frame occupies for a given payload length
/// and modulation (with the default preamble).
pub fn frame_symbol_len(payload_len: usize, modulation: Modulation, preamble_len: usize) -> usize {
    let mpdu_bits = (MPDU_HEADER_LEN + payload_len + CRC_LEN) * 8;
    preamble_len + PLCP_SYMBOLS + modulation.symbols_for_bits(mpdu_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_frame() -> Frame {
        Frame::with_random_payload(1, 2, 77, 256, 0xABCD)
    }

    #[test]
    fn mpdu_roundtrip() {
        let f = test_frame();
        let parsed = Frame::from_mpdu(&f.mpdu_bytes()).expect("parse");
        assert_eq!(parsed, f);
    }

    #[test]
    fn mpdu_rejects_corruption() {
        let f = test_frame();
        let mut bytes = f.mpdu_bytes();
        bytes[10] ^= 0x40;
        assert!(Frame::from_mpdu(&bytes).is_none());
    }

    #[test]
    fn plcp_roundtrip() {
        let h = PlcpHeader { modulation: Modulation::Qam16, seed: 0x3C, mpdu_len: 1511 };
        assert_eq!(PlcpHeader::from_bytes(&h.to_bytes()), Some(h));
    }

    #[test]
    fn plcp_rejects_bad_crc() {
        let h = PlcpHeader { modulation: Modulation::Bpsk, seed: 1, mpdu_len: 100 };
        let mut b = h.to_bytes();
        b[2] ^= 1;
        assert!(PlcpHeader::from_bytes(&b).is_none());
    }

    #[test]
    fn plcp_rejects_unknown_rate() {
        let mut b = [9u8, 1, 0, 1, 0];
        b[4] = super::crc8(&b[..4]);
        assert!(PlcpHeader::from_bytes(&b).is_none());
    }

    #[test]
    fn encode_decode_noiseless() {
        let f = test_frame();
        let p = Preamble::default_len();
        for m in Modulation::ALL {
            let air = encode_frame(&f, m, &p);
            // Demodulate the MPDU region noiselessly and parse.
            let mpdu_syms = &air.symbols[air.mpdu_start()..];
            let bits = m.demodulate(mpdu_syms);
            let bits = &bits[..air.mpdu_bits.len()];
            let decoded = decode_mpdu(bits, f.scramble_seed()).expect("decode");
            assert_eq!(decoded, f, "{m:?}");
        }
    }

    #[test]
    fn frame_from_bits_reads_only_the_announced_length() {
        let f = test_frame();
        let air = encode_frame(&f, Modulation::Qpsk, &Preamble::default_len());
        let plcp = PlcpHeader {
            modulation: Modulation::Qpsk,
            seed: f.scramble_seed(),
            mpdu_len: (air.mpdu_bits.len() / 8) as u16,
        };
        // trailing bits (a symbol's padding) are ignored
        let mut padded = air.mpdu_bits.clone();
        padded.extend([1, 0, 1]);
        assert_eq!(plcp.frame_from_bits(&padded), Some(f));
        // one bit short of the announced length: no frame
        assert!(plcp.frame_from_bits(&air.mpdu_bits[..air.mpdu_bits.len() - 1]).is_none());
        // a flipped bit fails the CRC-32
        padded[40] ^= 1;
        assert!(plcp.frame_from_bits(&padded).is_none());
    }

    #[test]
    fn retransmission_is_bit_identical() {
        let f = test_frame();
        let mut retry = f.clone();
        retry.retry = false; // MAC metadata only; over-the-air stream derives from (src, seq)
        let p = Preamble::default_len();
        let a = encode_frame(&f, Modulation::Bpsk, &p);
        let b = encode_frame(&retry, Modulation::Bpsk, &p);
        assert_eq!(a.mpdu_bits, b.mpdu_bits);
    }

    #[test]
    fn frame_symbol_len_matches_encoder() {
        let p = Preamble::default_len();
        for m in Modulation::ALL {
            for len in [0usize, 1, 100, 1500] {
                let f = Frame::with_random_payload(1, 2, 3, len, 9);
                let air = encode_frame(&f, m, &p);
                assert_eq!(air.len(), frame_symbol_len(len, m, p.len()), "{m:?} len {len}");
            }
        }
    }

    #[test]
    fn paper_default_frame_size() {
        // §5.1c: 32-bit preamble, 1500-byte payload, 32-bit CRC, BPSK.
        let n = frame_symbol_len(DEFAULT_PAYLOAD_LEN, Modulation::Bpsk, 32);
        // 32 + 40 + (7 + 1500 + 4)*8 = 12160
        assert_eq!(n, 12160);
    }

    #[test]
    fn different_frames_have_different_bits() {
        let p = Preamble::default_len();
        let a = encode_frame(&Frame::with_random_payload(1, 2, 1, 64, 5), Modulation::Bpsk, &p);
        let b = encode_frame(&Frame::with_random_payload(1, 2, 2, 64, 6), Modulation::Bpsk, &p);
        assert_ne!(a.mpdu_bits, b.mpdu_bits);
    }

    #[test]
    fn seed_never_zero() {
        for src in 0..64u16 {
            for seq in 0..64u16 {
                let f = Frame::new(0, src, seq, vec![]);
                assert_ne!(f.scramble_seed(), 0);
            }
        }
    }
}
