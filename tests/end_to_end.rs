//! Cross-crate integration tests: the full pipeline from frames through
//! the channel simulator into the ZigZag receiver, spanning phy +
//! channel + mac + core + testbed.

use rand::prelude::*;
use zigzag::channel::fading::LinkProfile;
use zigzag::channel::scenario::hidden_pair;
use zigzag::core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag::core::engine::{ReceiverCore, Scratch};
use zigzag::core::receiver::ReceiverEvent;
use zigzag::core::schedule::PlanOutcome;
use zigzag::core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag::mac::{Backoff, MacParams};
use zigzag::phy::bits::bit_error_rate;
use zigzag::phy::frame::{encode_frame, Frame};
use zigzag::phy::modulation::Modulation;
use zigzag::phy::preamble::Preamble;

fn registry(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
    let mut reg = ClientRegistry::new();
    for (id, l) in links {
        reg.associate(
            *id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    reg
}

/// The headline claim, end to end with MAC-drawn offsets: hidden
/// terminals' successive collisions decode as if scheduled separately.
#[test]
fn mac_driven_hidden_pair_decodes() {
    let params = MacParams::default();
    let policy = Backoff::Exponential;
    let mut rng = StdRng::seed_from_u64(2008);
    let mut decoded_pairs = 0usize;
    let mut attempts = 0usize;
    let mut ws = Scratch::with_backend(DecoderConfig::default().backend);
    for t in 0..6u64 {
        // draw distinct-offset collisions like a real retransmission pair
        let (d1, d2) = loop {
            let a1 = policy.draw(&params, 0, &mut rng);
            let b1 = policy.draw(&params, 0, &mut rng);
            let a2 = policy.draw(&params, 1, &mut rng);
            let b2 = policy.draw(&params, 1, &mut rng);
            let s1 = b1 as i64 - a1 as i64;
            let s2 = b2 as i64 - a2 as i64;
            if s1 >= 0 && s2 >= 0 && s1 != s2 {
                break (params.slots_to_symbols(s1 as u32), params.slots_to_symbols(s2 as u32));
            }
        };
        let la = LinkProfile::typical(13.0, &mut rng);
        let lb = LinkProfile::typical(13.0, &mut rng);
        let fa = Frame::with_random_payload(0, 1, t as u16, 400, t);
        let fb = Frame::with_random_payload(0, 2, t as u16, 400, 100 + t);
        let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
        let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());
        let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
        let reg = registry(&[(1, &la), (2, &lb)]);
        let dec = ZigzagDecoder::new(DecoderConfig::default(), &reg);
        let out = dec.decode(
            &[
                CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, d1)] },
                CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, d2)] },
            ],
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
            &mut ws,
        );
        attempts += 1;
        if out.outcome == PlanOutcome::Complete
            && bit_error_rate(&a.mpdu_bits, &out.packets[0].scrambled_bits) < 1e-3
            && bit_error_rate(&b.mpdu_bits, &out.packets[1].scrambled_bits) < 1e-3
        {
            decoded_pairs += 1;
        }
    }
    // MAC-drawn offsets include one-slot (10-symbol) differences, which
    // are marginal for the immersed bootstrap at this substrate's
    // 1 sample/symbol; table5_1 measures ≈70-85% packet success at 12 dB.
    assert!(decoded_pairs * 2 >= attempts, "only {decoded_pairs}/{attempts} pairs decoded");
}

/// The full receiver FSM over the same scenario: store → match → deliver.
#[test]
fn receiver_front_end_delivers_both_frames() {
    let mut rng = StdRng::seed_from_u64(99);
    let la = LinkProfile::typical(18.0, &mut rng);
    let lb = LinkProfile::typical(18.0, &mut rng);
    let fa = Frame::with_random_payload(0, 1, 7, 300, 1);
    let fb = Frame::with_random_payload(0, 2, 8, 300, 2);
    let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
    let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());
    // An 802.11 sender retransmits until acked; feed the AP successive
    // collisions until both frames come out (frame-level delivery needs a
    // clean CRC, so a marginal pass just waits for the next pair).
    let mut ap = ReceiverCore::new(DecoderConfig::default(), registry(&[(1, &la), (2, &lb)]));
    let mut delivered: Vec<(u16, u16)> = Vec::new();
    for (round, (d1, d2)) in [(360, 130), (280, 90), (420, 180)].iter().enumerate() {
        let hp = hidden_pair(&a, &b, &la, &lb, *d1, *d2, &mut rng);
        for buf in [&hp.collision1.buffer, &hp.collision2.buffer] {
            for e in ap.process(buf) {
                if let ReceiverEvent::Delivered { frame, .. } = e {
                    delivered.push((frame.src, frame.seq));
                }
            }
        }
        if delivered.contains(&(1, 7)) && delivered.contains(&(2, 8)) {
            println!("both frames delivered after {} collision pair(s)", round + 1);
            break;
        }
    }
    assert!(delivered.contains(&(1, 7)), "{delivered:?}");
    assert!(delivered.contains(&(2, 8)), "{delivered:?}");
}

/// ZigZag introduces no overhead without collisions (§4.1): clean frames
/// flow through the standard path untouched.
#[test]
fn no_collision_no_overhead() {
    let mut rng = StdRng::seed_from_u64(5);
    let l = LinkProfile::typical(15.0, &mut rng);
    let mut ap = ReceiverCore::new(DecoderConfig::default(), registry(&[(1, &l)]));
    for seq in 0..4u16 {
        let f = Frame::with_random_payload(0, 1, seq, 250, seq as u64);
        let a = encode_frame(&f, Modulation::Bpsk, &Preamble::default_len());
        let rx = zigzag::channel::scenario::clean_reception(&a, &l, &mut rng);
        let ev = ap.process(&rx.buffer);
        assert!(
            ev.iter().any(|e| matches!(
                e,
                ReceiverEvent::Delivered { frame, .. } if frame == &f
            )),
            "seq {seq}: {ev:?}"
        );
    }
}

/// The coding extension (§6a): a convolutionally-coded payload survives a
/// BER that would kill the uncoded CRC.
#[test]
fn coded_payload_rides_through_residual_errors() {
    use zigzag::phy::coding;
    let mut rng = StdRng::seed_from_u64(77);
    let info: Vec<u8> = (0..2000).map(|_| rng.gen_range(0..2u8)).collect();
    let mut coded = coding::encode(&info);
    // a residual BER of 1e-2 — far beyond CRC tolerance
    for b in coded.iter_mut() {
        if rng.gen_bool(0.01) {
            *b ^= 1;
        }
    }
    let decoded = coding::decode_hard(&coded);
    assert_eq!(decoded, info, "conv code should clean up 1e-2 BER");
}

/// Sanity of the whole-testbed harness: a hidden pair's ZigZag throughput
/// approaches the collision-free scheduler's.
#[test]
fn testbed_pair_run_consistency() {
    let mut rng = StdRng::seed_from_u64(11);
    let la = LinkProfile::typical(14.0, &mut rng);
    let lb = LinkProfile::typical(14.0, &mut rng);
    let cfg = zigzag::testbed::ExperimentConfig { payload: 200, rounds: 12, ..Default::default() };
    let run = zigzag::testbed::run_pair(&la, &lb, 0.0, &cfg, 7);
    assert!(run.zigzag.total_throughput() > run.s802.total_throughput());
    assert!(run.cfs.total_throughput() > 0.7);
}
