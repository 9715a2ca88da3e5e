//! When ZigZag fails — and algebra doesn't.
//!
//! The paper's §4.5 failure condition: two collisions of the same two
//! packets with **identical** relative offsets (Δ₁ = Δ₂) are the same
//! combinatorial equation, so the chunk scheduler never finds an
//! interference-free chunk and the iterative decoder is provably stuck.
//! This happens on real air whenever two stations' backoff counters
//! freeze in lockstep (both deafened through the same busy period) and
//! they retransmit with the same spacing, again and again.
//!
//! The two receptions are *not* the same linear equation, though: each
//! carries fresh channel coefficients (carrier phase, fractional timing),
//! so the per-symbol 2×2 systems stay invertible. `zigzag_core::recovery`
//! solves them jointly — block Gaussian elimination over channel-view
//! equations, CRC-gated — and turns the provably-undecodable stream into
//! delivered frames.
//!
//! Run with `cargo run --release --example algebraic_recovery`.

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::{synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::core::ReceiverCore;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn main() {
    // Two hidden senders at distinct oscillator offsets (how the AP
    // tells them apart, §4.2.1), 17 dB each.
    let la = LinkProfile::clean_with_omega(17.0, -0.08);
    let lb = LinkProfile::clean_with_omega(17.0, 0.09);
    let fa = Frame::with_random_payload(0, 1, 3, 120, 70_134);
    let fb = Frame::with_random_payload(0, 2, 3, 120, 70_265);
    let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
    let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());

    let mut reg = ClientRegistry::new();
    for (id, l) in [(1u16, &la), (2, &lb)] {
        reg.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }

    // Both collisions place Alice at 0 and Bob at 300 — Δ₁ = Δ₂ = 300.
    // (Channel phase and sampling offset still differ per transmission,
    // as they would over real air.)
    let mut rng = StdRng::seed_from_u64(3);
    let (ca, cb) = (la.draw(&mut rng), lb.draw(&mut rng));
    let collide = |rng: &mut StdRng| {
        synth_collision(
            &[
                PlacedTx { air: &a, base: &ca, start: 0 },
                PlacedTx { air: &b, base: &cb, start: 300 },
            ],
            1.0,
            rng,
        )
        .buffer
    };
    let c1 = collide(&mut rng);
    let c2 = collide(&mut rng);

    // The paper's receiver: stores the first collision, *rejects* the
    // second (the pure-shift alignment is the Δ₁ = Δ₂ case its scheduler
    // cannot decode), stores it too. Nothing ever delivers.
    let mut zigzag_only = ReceiverCore::new(DecoderConfig::default(), reg.clone());
    let mut delivered = 0;
    for c in [&c1, &c2] {
        delivered += zigzag_only
            .process(c)
            .iter()
            .filter(|e| matches!(e, ReceiverEvent::Delivered { .. }))
            .count();
    }
    println!("zigzag-only receiver: {delivered} frames from the Δ₁ = Δ₂ pair (provably stuck)");

    // The recovery-enabled receiver: the confirmed-but-undecodable
    // alignment goes to the algebraic batch solver, which decodes both
    // packets jointly across the two buffers.
    let mut rx = ReceiverCore::new(DecoderConfig::with_recovery(), reg);
    let _ = rx.process(&c1);
    for ev in rx.process(&c2) {
        if let ReceiverEvent::Delivered { frame, path } = ev {
            assert_eq!(path, DecodePath::Recovered);
            let ok = frame == fa || frame == fb;
            println!(
                "recovered src {} seq {} ({} bytes) CRC ok, matches transmitted: {ok}",
                frame.src,
                frame.seq,
                frame.payload.len()
            );
        }
    }
}
