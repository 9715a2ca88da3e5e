//! Capture effect and single-collision interference cancellation
//! (Fig 4-1d/e).
//!
//! A strong sender's packet is decoded straight through the collision;
//! ZigZag then subtracts it and recovers the weak sender from the same
//! single collision — two packets, one airtime slot.
//!
//! Run: `cargo run --release --example capture_effect`

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::capture::capture_decode;
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::Scratch;
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn main() {
    let mut rng = StdRng::seed_from_u64(41);
    // Alice close to the AP (24 dB), Bob further away (12 dB).
    let alice = LinkProfile::typical(24.0, &mut rng);
    let bob = LinkProfile::typical(12.0, &mut rng);

    let fa = Frame::with_random_payload(0, 1, 9, 400, 3);
    let fb = Frame::with_random_payload(0, 2, 9, 400, 4);
    let preamble = Preamble::default_len();
    let a = encode_frame(&fa, Modulation::Bpsk, &preamble);
    let b = encode_frame(&fb, Modulation::Bpsk, &preamble);

    let ca = alice.draw(&mut rng);
    let cb = bob.draw(&mut rng);
    let delta = 260;
    let collision = synth_collision(
        &[PlacedTx { air: &a, base: &ca, start: 0 }, PlacedTx { air: &b, base: &cb, start: delta }],
        1.0,
        &mut rng,
    );
    println!("one collision: Alice at 24 dB, Bob at 12 dB, offset {delta} samples");

    let mut reg = ClientRegistry::new();
    reg.associate(
        1,
        ClientInfo { omega: alice.association_omega(), snr_db: 24.0, taps: alice.isi.clone() },
    );
    reg.associate(
        2,
        ClientInfo { omega: bob.association_omega(), snr_db: 12.0, taps: bob.isi.clone() },
    );

    let cfg = DecoderConfig::default();
    let res = capture_decode(
        &collision.buffer,
        0,
        Some(1),
        delta,
        Some(2),
        &reg,
        &preamble,
        &cfg,
        &mut Scratch::with_backend(cfg.backend),
    )
    .expect("capture attempt");

    let ber_a = bit_error_rate(&a.mpdu_bits, &res.strong.scrambled_bits);
    println!("capture: Alice decoded through Bob's interference, BER {ber_a:.2e}");
    assert!(ber_a < 1e-3);

    let weak = res.weak.expect("weak decode attempted");
    let ber_b = bit_error_rate(&b.mpdu_bits, &weak.scrambled_bits);
    println!("interference cancellation: Bob recovered after subtraction, BER {ber_b:.2e}");
    assert!(ber_b < 5e-2, "Bob should be recovered (BER {ber_b})");
    println!("two packets from ONE collision -> normalized throughput 2.0 (Fig 5-4's mid band)");
}
