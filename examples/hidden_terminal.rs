//! Hidden-terminal flow through the full AP receiver front end.
//!
//! Drives [`zigzag_core::engine::ReceiverCore`] the way a radio would:
//! buffers arrive one at a time; the first collision is detected and
//! stored, the retransmission is matched (§4.2.2) and both frames pop out
//! of the ZigZag path with their CRCs intact.
//!
//! Run: `cargo run --release --example hidden_terminal`

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::hidden_pair;
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::ReceiverCore;
use zigzag_core::receiver::ReceiverEvent;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let alice = LinkProfile::typical(16.0, &mut rng);
    let bob = LinkProfile::typical(16.0, &mut rng);

    let mut ap = ReceiverCore::new(DecoderConfig::default(), ClientRegistry::new());
    ap.associate(
        1,
        ClientInfo { omega: alice.association_omega(), snr_db: 16.0, taps: alice.isi.clone() },
    );
    ap.associate(
        2,
        ClientInfo { omega: bob.association_omega(), snr_db: 16.0, taps: bob.isi.clone() },
    );

    let fa = Frame::with_random_payload(0, 1, 42, 400, 1);
    let fb = Frame::with_random_payload(0, 2, 43, 400, 2);
    let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
    let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());
    // 802.11 senders retransmit until acked, so the AP keeps receiving
    // collision pairs (fresh jitter each time) until both CRCs pass.
    let mut recovered = 0usize;
    'outer: for (round, (d1, d2)) in [(420, 140), (300, 90), (380, 210)].iter().enumerate() {
        let hp = hidden_pair(&a, &b, &alice, &bob, *d1, *d2, &mut rng);
        println!("-> collision pair {} (offsets {d1}/{d2})", round + 1);
        for buf in [&hp.collision1.buffer, &hp.collision2.buffer] {
            for ev in ap.process(buf) {
                println!("   event: {}", describe(&ev));
                if let ReceiverEvent::Delivered { frame, .. } = &ev {
                    assert!(frame == &fa || frame == &fb);
                    recovered += 1;
                }
            }
            if recovered == 2 {
                break 'outer;
            }
        }
    }
    assert_eq!(recovered, 2, "both frames should be recovered");
    println!("both packets recovered from successive collisions — the hidden");
    println!("terminals got the throughput of separate time slots.");
}

fn describe(ev: &ReceiverEvent) -> String {
    match ev {
        ReceiverEvent::Delivered { frame, path } => {
            format!("Delivered src={} seq={} via {:?}", frame.src, frame.seq, path)
        }
        ReceiverEvent::CollisionStored => {
            "CollisionStored (awaiting a matching retransmission)".into()
        }
        ReceiverEvent::DecodeFailed => "DecodeFailed".into(),
    }
}
