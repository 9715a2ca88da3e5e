//! Two hidden-terminal client sets through the sharded multi-core
//! receiver.
//!
//! One AP serves two *disjoint* saturated client sets — {1,2} and {3,4}
//! — whose collisions interleave on the air. A `ShardedReceiver` routes
//! each receive buffer by the hash of its detected client set (a
//! detect-only pre-pass whose detections the shard pipeline then
//! reuses), so each set's collisions accumulate in — and match against —
//! their own shard's `CollisionStore`, decoding in parallel. The merged
//! event stream is bit-identical to a single `ReceiverCore` processing
//! the same buffers in order; this example checks that too.
//!
//! Run: `cargo run --release --example sharded_receiver`

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::hidden_pair;
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig};
use zigzag::core::engine::{ReceiverCore, ShardedReceiver};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::phy::complex::Complex;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn air(src: u16, seq: u16, seed: u64) -> zigzag::phy::frame::AirFrame {
    let f = Frame::with_random_payload(0, src, seq, 150, seed);
    encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
}

/// One set's hidden pair: two collisions of the same frames at
/// different MAC offsets (store → match → zigzag).
fn pair_group(ids: [u16; 2], omegas: [f64; 2], seed: u64) -> ([LinkProfile; 2], Vec<Vec<Complex>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = [
        LinkProfile::clean_with_omega(17.0, omegas[0]),
        LinkProfile::clean_with_omega(17.0, omegas[1]),
    ];
    let a = air(ids[0], seed as u16, 60_000 + seed * 7);
    let b = air(ids[1], seed as u16, 61_000 + seed * 11);
    let offsets = [(420, 140), (300, 120)][seed as usize % 2];
    let hp = hidden_pair(&a, &b, &links[0], &links[1], offsets.0, offsets.1, &mut rng);
    (links, vec![hp.collision1.buffer, hp.collision2.buffer])
}

fn main() {
    let (links_a, bufs_a) = pair_group([1, 2], [-0.13, 0.14], 0);
    let (links_b, bufs_b) = pair_group([3, 4], [-0.08, 0.02], 1);

    let mut registry = ClientRegistry::new();
    for (id, l) in [(1u16, &links_a[0]), (2, &links_a[1]), (3, &links_b[0]), (4, &links_b[1])] {
        registry.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }

    // Interleave the two sets' collisions, as the air would.
    let stream: Vec<Vec<Complex>> =
        vec![bufs_a[0].clone(), bufs_b[0].clone(), bufs_a[1].clone(), bufs_b[1].clone()];

    let mut rx = ShardedReceiver::new(
        DecoderConfig::shared_ap(),
        ShardConfig { shards: 2, queue_depth: 4 },
        registry.clone(),
    );
    println!("sharded receiver: {} shards, queue depth 4", rx.shards());
    let events = rx.process_batch(&stream);
    let mut delivered = 0;
    for (i, evs) in events.iter().enumerate() {
        print!("buffer {i}: ");
        for ev in evs {
            match ev {
                ReceiverEvent::CollisionStored => print!("stored unmatched  "),
                ReceiverEvent::Delivered { frame, path } => {
                    print!("delivered src {} via {path:?}  ", frame.src);
                    delivered += 1;
                    assert_eq!(*path, DecodePath::Zigzag);
                }
                ReceiverEvent::DecodeFailed => print!("decode failed  "),
            }
        }
        println!();
    }
    println!("shard loads: {:?}", rx.loads());
    assert_eq!(delivered, 4, "both pairs must decode through their shards");
    assert!(
        rx.loads().iter().filter(|&&l| l > 0).count() == 2,
        "the two client sets must route to different shards: {:?}",
        rx.loads()
    );

    // The sharding contract: bit-identical to one ReceiverCore fed the
    // same sequence.
    let mut single = ReceiverCore::new(DecoderConfig::shared_ap(), registry);
    let reference: Vec<Vec<ReceiverEvent>> = stream.iter().map(|b| single.process(b)).collect();
    assert_eq!(events, reference, "sharded output must equal the single-core receiver's");
    println!("sharded events identical to a single ReceiverCore — all four frames recovered");
}
