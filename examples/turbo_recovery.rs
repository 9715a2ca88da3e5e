//! Recovery on a typical link: phase-tracking turbo recovery.
//!
//! `algebraic_recovery` shows the joint solver beating the §4.5
//! Δ₁ = Δ₂ failure case on benign channels. Real links are not benign:
//! oscillators walk (phase noise), sampling clocks drift, and channel
//! estimates taken once from each preamble decohere over the packet.
//! Solved with those estimates alone, the CRC fails and the group is
//! lost even though the equations were there.
//!
//! The recovery solver (`DecoderConfig::with_recovery`) survives this
//! with three coordinated mechanisms:
//!
//! * a per-window PI phase-locked loop that keeps every `ChannelView`'s
//!   phase estimate tracking the walk as the sliding window advances;
//! * a conditioning gate on salvage-pool recruitment, so near-collinear
//!   equation sets are skipped instead of solved against;
//! * turbo re-estimation — after a CRC-failed pass, each packet's
//!   channel is re-derived from the interference-cancelled buffer (the
//!   other packets' decision images subtracted) and the group is solved
//!   again, until convergence or the iteration cap.
//!
//! Run with `cargo run --release --example turbo_recovery`.

use rand::prelude::*;
use zigzag::channel::fading::{LinkProfile, DEFAULT_PHASE_NOISE, DEFAULT_SAMPLING_DRIFT};
use zigzag::channel::scenario::{synth_collision, PlacedTx};
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::receiver::{DecodePath, ReceiverEvent};
use zigzag::core::ReceiverCore;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn main() {
    // Two hidden senders on TYPICAL links: 15 dB, the default
    // phase-noise walk and full sampling drift on top of the
    // oscillator offsets the AP knows them by.
    let impaired = |omega: f64| {
        let mut l = LinkProfile::clean_with_omega(15.0, omega);
        l.phase_noise = DEFAULT_PHASE_NOISE;
        l.sampling_drift = DEFAULT_SAMPLING_DRIFT;
        l
    };
    let la = impaired(-0.08);
    let lb = impaired(0.09);
    let fa = Frame::with_random_payload(0, 1, 0, 120, 70_131);
    let fb = Frame::with_random_payload(0, 2, 0, 120, 70_262);
    let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
    let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());

    let mut reg = ClientRegistry::new();
    for (id, l) in [(1u16, &la), (2, &lb)] {
        reg.associate(
            id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }

    // The §4.5 degenerate pair again: Δ₁ = Δ₂ = 300, un-peelable by
    // construction — only the joint solver can decode this stream.
    let mut rng = StdRng::seed_from_u64(0);
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

    let recovered = |cfg: DecoderConfig| -> Vec<Frame> {
        let mut rx = ReceiverCore::new(cfg, reg.clone());
        [&c1, &c2]
            .iter()
            .flat_map(|c| rx.process(c))
            .filter_map(|ev| match ev {
                ReceiverEvent::Delivered { frame, path: DecodePath::Recovered } => Some(frame),
                _ => None,
            })
            .collect()
    };

    // The window PLL keeps the estimates on the walk, and re-estimation
    // from the first pass's decision images converges to CRC-clean
    // frames.
    let turbo = recovered(DecoderConfig::with_recovery());
    println!("turbo recovery on the impaired link: {} frames", turbo.len());
    for frame in &turbo {
        let ok = *frame == fa || *frame == fb;
        println!(
            "  recovered src {} seq {} ({} bytes) CRC ok, matches transmitted: {ok}",
            frame.src,
            frame.seq,
            frame.payload.len()
        );
    }
    assert!(
        turbo.len() == 2 && turbo.contains(&fa) && turbo.contains(&fb),
        "recovery must reclaim both frames of this group"
    );
}
