//! The §6(a) coding extension: convolutional coding on top of ZigZag.
//!
//! ZigZag leaves a residual uncoded BER (the paper targets < 1e-3 and
//! notes practical channel codes clean that up). This example runs a
//! hidden-terminal pair at a marginal SNR, then shows the 802.11
//! rate-1/2 K=7 convolutional code recovering the payload bits exactly.
//!
//! Run: `cargo run --release --example coded_zigzag`

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::hidden_pair;
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::engine::Scratch;
use zigzag::core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag::phy::bits::{bit_error_rate, bits_to_bytes, bytes_to_bits, hamming_distance};
use zigzag::phy::coding;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn main() {
    let mut rng = StdRng::seed_from_u64(6);
    let la = LinkProfile::typical(9.0, &mut rng);
    let lb = LinkProfile::typical(9.0, &mut rng);

    // Alice's payload is itself a coded stream: info bits -> conv encode
    // -> payload bytes.
    let info: Vec<u8> = (0..1200).map(|_| rng.gen_range(0..2u8)).collect();
    let coded_bits = coding::encode(&info);
    let payload = bits_to_bytes(&coded_bits);
    let fa = Frame::new(0, 1, 1, payload);
    let fb = Frame::with_random_payload(0, 2, 1, fa.payload.len(), 2);
    let preamble = Preamble::default_len();
    let a = encode_frame(&fa, Modulation::Bpsk, &preamble);
    let b = encode_frame(&fb, Modulation::Bpsk, &preamble);
    let hp = hidden_pair(&a, &b, &la, &lb, 340, 110, &mut rng);

    let mut reg = ClientRegistry::new();
    reg.associate(
        1,
        ClientInfo { omega: la.association_omega(), snr_db: 9.0, taps: la.isi.clone() },
    );
    reg.associate(
        2,
        ClientInfo { omega: lb.association_omega(), snr_db: 9.0, taps: lb.isi.clone() },
    );
    let cfg = DecoderConfig::default();
    let mut ws = Scratch::with_backend(cfg.backend);
    let dec = ZigzagDecoder::new(cfg, &reg);
    let out = dec.decode(
        &[
            CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, 340)] },
            CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, 110)] },
        ],
        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
        &mut ws,
    );

    let uncoded_ber = bit_error_rate(&a.mpdu_bits, &out.packets[0].scrambled_bits);
    println!("zigzag uncoded BER for Alice at 9 dB: {uncoded_ber:.2e}");

    // descramble the recovered bits back into the payload and run Viterbi
    let mpdu = {
        let mut bytes = bits_to_bytes(&out.packets[0].scrambled_bits);
        zigzag::phy::scramble::Scrambler::new(fa.scramble_seed()).apply_bytes(&mut bytes);
        bytes
    };
    // payload starts after the 7-byte header
    let payload_rx = &mpdu[7..7 + fa.payload.len()];
    let coded_rx = bytes_to_bits(payload_rx);
    let decoded_info = coding::decode_hard(&coded_rx[..coded_bits.len()]);
    let residual = hamming_distance(&decoded_info, &info);
    println!("after rate-1/2 K=7 Viterbi: {residual} residual errors in {} info bits", info.len());
    assert_eq!(residual, 0, "coding should clean up the residual BER");
    println!("the coding layer turns BER<1e-3 deliveries into exact payloads (the paper's footnote 1, §5.1f)");
}
