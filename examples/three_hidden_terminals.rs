//! Three hidden terminals through the full receiver (§4.5, Fig 4-6, §5.7).
//!
//! Three senders, hidden from each other, collide three times with
//! different MAC offsets. Every receive buffer goes through the actual
//! AP pipeline (`ReceiverCore::process`):
//! the first two collisions are detected as unresolvable and parked in
//! the keyed collision store; the third completes a decodable 3×3 match
//! set, and the k-way matcher + greedy scheduler + executor recover all
//! three packets in one pass.
//!
//! Run: `cargo run --release --example three_hidden_terminals`

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::{synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::engine::ReceiverCore;
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);
    let payload = 150;

    // Three clients at distinct oscillator offsets — that is how the AP
    // tells senders apart in the correlation detector (§4.2.1).
    let omegas = [-0.08, 0.02, 0.09];
    let links: Vec<LinkProfile> =
        (0..3).map(|i| LinkProfile::clean_with_omega(18.0, omegas[i])).collect();
    let airs: Vec<_> = (0..3)
        .map(|i| {
            let f = Frame::with_random_payload(0, i as u16 + 1, 5, payload, 600 + i as u64);
            encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
        })
        .collect();
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();

    // Per-round offsets as the MAC's backoff jitter would place them:
    // three distinct interference patterns (a decodable 3×3 system; with
    // identical patterns the receiver would keep storing and wait for
    // more retransmissions).
    let offsets = [[0usize, 310, 620], [0, 620, 310], [100, 0, 450]];

    let mut registry = ClientRegistry::new();
    for (i, l) in links.iter().enumerate() {
        registry.associate(
            i as u16 + 1,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    let mut rx = ReceiverCore::new(DecoderConfig::default(), registry);

    let mut recovered = Vec::new();
    for (round, offs) in offsets.iter().enumerate() {
        let placed: Vec<PlacedTx<'_>> =
            (0..3).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: offs[i] }).collect();
        let sc = synth_collision(&placed, 1.0, &mut rng);
        let events = rx.process(&sc.buffer);
        print!("collision {} (offsets {:?}): ", round + 1, offs);
        for ev in events {
            match ev {
                ReceiverEvent::CollisionStored => {
                    print!("stored unmatched (store now holds {})", rx.store().len())
                }
                ReceiverEvent::Delivered { frame, path } => {
                    print!("delivered src {} via {:?}  ", frame.src, path);
                    recovered.push((frame, path));
                }
                ReceiverEvent::DecodeFailed => print!("decode failed"),
            }
        }
        println!();
    }

    assert_eq!(recovered.len(), 3, "all three packets should be recovered");
    for (frame, path) in &recovered {
        assert_eq!(*path, DecodePath::Zigzag);
        let sent: &Frame = &airs[(frame.src - 1) as usize].frame;
        assert_eq!(frame, sent, "recovered frame must be bit-exact");
    }
    assert_eq!(rx.store().len(), 0, "matched store entries are consumed");
    println!(
        "all three packets recovered bit-exact through the receiver's k-way \
         store/match/zigzag path — each sender effectively got 1/3 of the medium (Fig 5-9)"
    );
}
