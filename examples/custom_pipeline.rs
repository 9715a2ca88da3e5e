//! The reorderable decode pipeline: build a receiver whose stage set
//! differs from the standard §5.1d flow.
//!
//! Here an AP drops the ZigZag stages entirely (a "store-only" receiver
//! that still detects and captures but never runs matched-collision
//! decoding — e.g. a monitoring node), and we show that matched stored
//! collisions are preserved, not destroyed, when no stage consumes them.

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::hidden_pair;
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::engine::{
    CaptureStage, DetectStage, MatchStage, Pipeline, ReceiverCore, StandardDecodeStage, StoreStage,
};
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let la = LinkProfile::typical(16.0, &mut rng);
    let lb = LinkProfile::typical(16.0, &mut rng);
    let a = encode_frame(
        &Frame::with_random_payload(0, 1, 7, 300, 1),
        Modulation::Bpsk,
        &Preamble::default_len(),
    );
    let b = encode_frame(
        &Frame::with_random_payload(0, 2, 9, 300, 2),
        Modulation::Bpsk,
        &Preamble::default_len(),
    );
    let hp = hidden_pair(&a, &b, &la, &lb, 420, 140, &mut rng);

    let mut registry = ClientRegistry::new();
    for (id, l) in [(1u16, &la), (2u16, &lb)] {
        registry.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }

    // store-only pipeline: no Plan/Zigzag stages
    let pipeline = Pipeline::from_stages(vec![
        Box::new(DetectStage),
        Box::new(StandardDecodeStage),
        Box::new(CaptureStage),
        Box::new(MatchStage),
        Box::new(StoreStage),
    ]);
    let mut rx = ReceiverCore::new(DecoderConfig::default(), registry);
    println!("custom pipeline: {:?}", pipeline.stage_names());

    for (k, buf) in [&hp.collision1.buffer, &hp.collision2.buffer].iter().enumerate() {
        let events = rx.receive(&pipeline, buf);
        println!(
            "collision {}: events {:?}  stored collisions now: {}",
            k + 1,
            events,
            rx.store().len()
        );
    }
    assert_eq!(rx.store().len(), 2, "matched pair must be preserved, not destroyed");
    println!("both collisions retained in the store (nothing consumed them) — contract holds");
}
