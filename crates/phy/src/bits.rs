//! Bit/byte packing utilities.
//!
//! The frame layer works in bytes, the modulator works in bits. All bit
//! streams in this workspace are **LSB-first within each byte**, matching
//! the serialisation order of 802.11's scrambler and convolutional encoder.

/// Expands bytes into bits, LSB first within each byte.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1);
        }
    }
    bits
}

/// Packs bits (LSB first within each byte) into bytes.
///
/// If `bits.len()` is not a multiple of 8, the final partial byte is
/// zero-padded in its high positions.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(bits.len().div_ceil(8));
    for chunk in bits.chunks(8) {
        let mut b = 0u8;
        for (i, &bit) in chunk.iter().enumerate() {
            debug_assert!(bit <= 1, "bit streams must contain only 0/1");
            b |= (bit & 1) << i;
        }
        bytes.push(b);
    }
    bytes
}

/// Counts positions where two bit slices differ, over the shorter length.
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).filter(|(x, y)| x != y).count()
}

/// Bit error rate between a reference and a received bit stream.
///
/// The comparison runs over the shorter of the two; missing bits in the
/// received stream are counted as errors (a truncated packet is a bad
/// packet). Returns 0.0 when the reference is empty.
pub fn bit_error_rate(reference: &[u8], received: &[u8]) -> f64 {
    if reference.is_empty() {
        return 0.0;
    }
    let overlap = reference.len().min(received.len());
    let errs = hamming_distance(&reference[..overlap], &received[..overlap])
        + reference.len().saturating_sub(received.len());
    errs as f64 / reference.len() as f64
}

/// Reads a little-endian `u16` from two bytes.
pub fn read_u16(bytes: &[u8]) -> u16 {
    u16::from_le_bytes([bytes[0], bytes[1]])
}

/// Writes a little-endian `u16` into a buffer.
pub fn write_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes_bits() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn lsb_first_order() {
        assert_eq!(bytes_to_bits(&[0b0000_0001]), vec![1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes_to_bits(&[0b1000_0000]), vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn partial_byte_zero_padded() {
        assert_eq!(bits_to_bytes(&[1, 1, 1]), vec![0b0000_0111]);
    }

    #[test]
    fn hamming_counts_differences() {
        assert_eq!(hamming_distance(&[0, 1, 0, 1], &[0, 1, 1, 0]), 2);
        assert_eq!(hamming_distance(&[1], &[1, 0, 0]), 0);
    }

    #[test]
    fn ber_counts_truncation_as_errors() {
        let reference = vec![1u8; 10];
        let received = vec![1u8; 5];
        assert!((bit_error_rate(&reference, &received) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ber_zero_for_identical() {
        let v = vec![0u8, 1, 1, 0, 1];
        assert_eq!(bit_error_rate(&v, &v), 0.0);
    }

    #[test]
    fn ber_empty_reference() {
        assert_eq!(bit_error_rate(&[], &[1, 0]), 0.0);
    }

    #[test]
    fn u16_roundtrip() {
        let mut buf = Vec::new();
        write_u16(&mut buf, 0xBEEF);
        assert_eq!(buf, [0xEF, 0xBE]);
        assert_eq!(read_u16(&buf), 0xBEEF);
    }
}
