//! Golden air: pins the exact bits of synthesized receive buffers.
//!
//! Every decode event, figure row and end-to-end identity check in the
//! workspace starts from buffers this crate synthesizes, so a change to
//! the channel's arithmetic (resampler, FIR, carrier rotation, noise) that
//! moves even one ulp shows up here first, named by scenario. The hashes
//! are an FNV-1a fold over the little-endian bytes of `f64::to_bits` of
//! every sample's real and imaginary parts, buffer by buffer.
//!
//! The cases cover both link classes the channel treats differently:
//! drift-free `LinkProfile::clean` links (a constant resampling fraction)
//! and drawn `LinkProfile::typical` links (ISI, phase noise and a drifting
//! sampling clock), at the 200 B and 1500 B frame sizes of the evaluation.
//!
//! If a change is meant to alter the air, re-record the table and say so:
//! the change then also moves every downstream identity gate.

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{clean_reception, hidden_pair};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, AirFrame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds a buffer's length and every sample's bits into `h`.
fn fold_buffer(h: u64, buf: &[Complex]) -> u64 {
    buf.iter().fold(fold(h, buf.len() as u64), |h, s| fold(fold(h, s.re.to_bits()), s.im.to_bits()))
}

fn air(src: u16, payload: usize, seed: u64) -> AirFrame {
    let f = Frame::with_random_payload(0, src, 0, payload, seed);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

#[derive(Clone, Copy, Debug)]
enum Link {
    Clean,
    Typical,
}

/// Hashes of one case: the hidden pair's two collision buffers, then a
/// clean reception of Alice's frame, all drawn from one seeded stream.
fn case_hashes(link: Link, payload: usize, seed: u64) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (la, lb) = match link {
        Link::Clean => (LinkProfile::clean(12.0), LinkProfile::clean_with_omega(12.0, -0.03)),
        Link::Typical => {
            (LinkProfile::typical(12.0, &mut rng), LinkProfile::typical(12.0, &mut rng))
        }
    };
    let a = air(1, payload, 100 + seed);
    let b = air(2, payload, 200 + seed);
    let hp = hidden_pair(&a, &b, &la, &lb, 120, 40, &mut rng);
    let pair = fold_buffer(fold_buffer(FNV_OFFSET, &hp.collision1.buffer), &hp.collision2.buffer);
    let solo = fold_buffer(FNV_OFFSET, &clean_reception(&a, &la, &mut rng).buffer);
    (pair, solo)
}

/// `(link, payload bytes, seed, hidden-pair hash, clean-reception hash)`.
const GOLDEN: [(Link, usize, u64, u64, u64); 8] = [
    (Link::Clean, 200, 1, 0x8eb2545f7d304450, 0xc853fec1e032f94e),
    (Link::Clean, 200, 2, 0x28bdefbf9200cec3, 0x7e576586bb442d94),
    (Link::Clean, 1500, 1, 0x8e9a89b9bd8cfb43, 0x9ca7b727dac99eb2),
    (Link::Clean, 1500, 2, 0x512dd58be01627c3, 0x3aa50331f3871e43),
    (Link::Typical, 200, 1, 0xc9b16765838dc1c9, 0x02148379043d5fab),
    (Link::Typical, 200, 2, 0xb0e4335283bcca7d, 0xe6695d4cc079bf36),
    (Link::Typical, 1500, 1, 0x2ce617da944f27eb, 0xc314d540e9964588),
    (Link::Typical, 1500, 2, 0xf584041fa4499e8e, 0x7b0d9ffe1ba1f825),
];

#[test]
fn synthesized_air_matches_the_golden_hashes() {
    let mut mismatches = Vec::new();
    for (link, payload, seed, pair, solo) in GOLDEN {
        let got = case_hashes(link, payload, seed);
        if got != (pair, solo) {
            mismatches.push(format!("{link:?} {payload} B seed {seed}: got {got:#x?}"));
        }
    }
    assert!(mismatches.is_empty(), "synthesized air moved:\n{}", mismatches.join("\n"));
}
