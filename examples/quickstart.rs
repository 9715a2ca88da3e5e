//! Quickstart: decode one hidden-terminal collision pair with ZigZag.
//!
//! Builds the Fig 1-2 scenario end to end — two senders that cannot hear
//! each other collide twice with different offsets — and shows the ZigZag
//! receiver recovering **both** packets, where a standard 802.11 receiver
//! recovers neither.
//!
//! Run: `cargo run --release --example quickstart`

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::hidden_pair;
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::Scratch;
use zigzag_core::standard::decode_single;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn main() {
    let mut rng = StdRng::seed_from_u64(2008);

    // Alice and Bob: 12 dB links to the AP, realistic radio impairments
    // (frequency offset, sampling offset + drift, multipath ISI, phase
    // noise).
    let alice_link = LinkProfile::typical(12.0, &mut rng);
    let bob_link = LinkProfile::typical(12.0, &mut rng);

    // One 700-byte packet each.
    let alice_pkt = Frame::with_random_payload(0, 1, 1, 700, 0xA11CE);
    let bob_pkt = Frame::with_random_payload(0, 2, 1, 700, 0xB0B);
    let preamble = Preamble::default_len();
    let alice_air = encode_frame(&alice_pkt, Modulation::Bpsk, &preamble);
    let bob_air = encode_frame(&bob_pkt, Modulation::Bpsk, &preamble);

    // They can't hear each other, so they collide; 802.11 retransmission
    // jitter gives the two collisions different offsets (Δ1=340, Δ2=90
    // samples here).
    let (d1, d2) = (340, 90);
    let hp = hidden_pair(&alice_air, &bob_air, &alice_link, &bob_link, d1, d2, &mut rng);
    println!("two collisions synthesized: offsets D1={d1}, D2={d2} samples");

    // What the AP knows from association time: coarse per-client
    // frequency offsets and static ISI taps.
    let mut registry = ClientRegistry::new();
    registry.associate(
        1,
        ClientInfo {
            omega: alice_link.association_omega(),
            snr_db: 12.0,
            taps: alice_link.isi.clone(),
        },
    );
    registry.associate(
        2,
        ClientInfo {
            omega: bob_link.association_omega(),
            snr_db: 12.0,
            taps: bob_link.isi.clone(),
        },
    );

    // Decoders draw their temporaries from a reusable scratch arena,
    // which also carries the phy kernel backend.
    let cfg = DecoderConfig::default();
    let mut ws = Scratch::with_backend(cfg.backend);

    // A standard 802.11 receiver fails on either collision:
    let std_try =
        decode_single(&hp.collision1.buffer, 0, Some(1), &registry, &preamble, true, &cfg, &mut ws);
    let std_ber =
        std_try.map(|d| bit_error_rate(&alice_air.mpdu_bits, &d.scrambled_bits)).unwrap_or(1.0);
    println!("standard 802.11 decode of collision 1: BER {std_ber:.3} (garbage)");

    // ZigZag decodes both packets from the matched pair:
    let decoder = ZigzagDecoder::new(cfg.clone(), &registry);
    let out = decoder.decode(
        &[
            CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, d1)] },
            CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, d2)] },
        ],
        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
        &mut ws,
    );
    for (name, air, res) in
        [("Alice", &alice_air, &out.packets[0]), ("Bob  ", &bob_air, &out.packets[1])]
    {
        let ber = bit_error_rate(&air.mpdu_bits, &res.scrambled_bits);
        println!(
            "ZigZag {name}: BER {ber:.2e}  frame CRC: {}",
            if res.frame.is_some() { "PASS" } else { "fail (delivered if BER<1e-3 with coding)" }
        );
        assert!(ber < 1e-2, "zigzag should recover {name}");
    }
    println!("scheduler outcome: {:?}", out.outcome);
}
