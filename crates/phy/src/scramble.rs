//! Data scrambler (whitener).
//!
//! 802.11 scrambles every frame with the self-synchronising LFSR
//! `S(x) = x⁷ + x⁴ + 1` so that the transmitted bit stream looks
//! pseudo-random regardless of payload content. ZigZag *depends* on this
//! property twice:
//!
//! * collision detection (§4.2.1) requires the preamble to be uncorrelated
//!   with "Alice's data", and
//! * collision matching (§4.2.2) requires two *different* packets to be
//!   uncorrelated with each other.
//!
//! A run of zero bytes in an unscrambled payload would violate both. We use
//! the synchronous (additive) form: the same seed regenerates the same
//! whitening sequence, so scrambling is its own inverse.

/// 802.11 frame scrambler, LFSR `x⁷ + x⁴ + 1`.
#[derive(Clone, Debug)]
pub struct Scrambler {
    state: u8, // 7-bit state, never all-zero
}

impl Scrambler {
    /// Creates a scrambler from a 7-bit seed. An all-zero seed would lock
    /// the LFSR, so it is mapped to the 802.11 default `0b1011101`.
    pub fn new(seed: u8) -> Self {
        let s = seed & 0x7F;
        Self { state: if s == 0 { 0b101_1101 } else { s } }
    }

    /// Produces the next whitening bit and advances the LFSR.
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        // Feedback = x7 xor x4 (bits 6 and 3 of the 7-bit state).
        let fb = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | fb) & 0x7F;
        fb
    }

    /// Scrambles (or descrambles) a byte slice in place, LSB-first.
    pub fn apply_bytes(&mut self, bytes: &mut [u8]) {
        for byte in bytes {
            let mut mask = 0u8;
            for i in 0..8 {
                mask |= self.next_bit() << i;
            }
            *byte ^= mask;
        }
    }
}

/// Scrambles a copy of `bytes` with the given seed.
pub fn scramble(bytes: &[u8], seed: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    Scrambler::new(seed).apply_bytes(&mut out);
    out
}

/// Descrambles a copy of `bytes` with the given seed (same as
/// [`scramble`]; XOR whitening is an involution).
pub fn descramble(bytes: &[u8], seed: u8) -> Vec<u8> {
    scramble(bytes, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let data: Vec<u8> = (0..200).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(descramble(&scramble(&data, 0x5A), 0x5A), data);
    }

    #[test]
    fn zero_seed_does_not_lock() {
        let zeros = vec![0u8; 64];
        let s = scramble(&zeros, 0);
        assert_ne!(s, zeros, "scrambler with zero seed must still whiten");
    }

    #[test]
    fn whitens_constant_input() {
        // A run of zeros must come out with roughly balanced bit counts.
        let zeros = vec![0u8; 512];
        let s = scramble(&zeros, 0x7F);
        let ones: u32 = s.iter().map(|b| b.count_ones()).sum();
        let total = 512 * 8;
        let frac = ones as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn lfsr_period_is_127() {
        // x^7+x^4+1 is primitive: the whitening sequence repeats every 127 bits.
        let mut s = Scrambler::new(1);
        let seq: Vec<u8> = (0..254).map(|_| s.next_bit()).collect();
        assert_eq!(&seq[..127], &seq[127..]);
        // and no shorter period
        for p in 1..127 {
            if 127 % p == 0 && p < 127 && seq[..127 - p] == seq[p..127] {
                panic!("period {p} < 127");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = vec![0u8; 32];
        assert_ne!(scramble(&data, 1), scramble(&data, 2));
    }

    #[test]
    fn bit_and_byte_paths_agree() {
        let bytes = vec![0xC3u8; 16];
        let mut by = bytes.clone();
        Scrambler::new(0x2B).apply_bytes(&mut by);

        let mut s = Scrambler::new(0x2B);
        let bits: Vec<u8> =
            crate::bits::bytes_to_bits(&bytes).iter().map(|b| b ^ s.next_bit()).collect();
        assert_eq!(crate::bits::bits_to_bytes(&bits), by);
    }
}
