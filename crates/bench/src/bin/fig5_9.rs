//! Figure 5-9: three hidden terminals.
//!
//! Three senders collide three times (fresh jitter per round); ZigZag's
//! greedy multi-packet decoder recovers all three. Reports the CDF of
//! per-sender normalized throughput — the paper shows all three senders
//! near ⅓ of the medium ("almost as if each … transmitted in a separate
//! time slot").

use rand::prelude::*;
use zigzag_bench::{airframe, trials};
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::config::DecoderConfig;
use zigzag_core::engine::{unit_seed, BatchEngine, Scratch};
use zigzag_core::schedule::PlanOutcome;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_mac::backoff::episode_offsets;
use zigzag_mac::{Backoff, MacParams};
use zigzag_phy::bits::bit_error_rate;
use zigzag_testbed::Samples;

fn main() {
    let n_trials = trials(60, 10);
    let payload = 300;
    let snr: f64 = std::env::var("FIG59_SNR").ok().and_then(|v| v.parse().ok()).unwrap_or(16.0);
    let params = MacParams::default();
    println!("Figure 5-9: three hidden terminals ({n_trials} episodes, {snr} dB, {payload} B)");

    let mut per_sender = Samples::new();
    let mut fail_bers = Samples::new();
    let mut episodes_ok = 0usize;
    let engine = BatchEngine::new(0);
    println!("({} threads)", engine.threads());
    let mode = std::env::var("FIG59_MODE").unwrap_or_default();
    let cfg9 = if mode == "fwd" { DecoderConfig::forward_only() } else { DecoderConfig::default() };
    // one independent work unit per episode, seeded by episode index
    let ts: Vec<usize> = (0..n_trials).collect();
    let episodes = engine.map(&ts, |_, &t| {
        let mut rng = StdRng::seed_from_u64(unit_seed(99, t));
        let links: Vec<LinkProfile> = (0..3).map(|_| LinkProfile::typical(snr, &mut rng)).collect();
        let airs: Vec<_> = (0..3)
            .map(|i| airframe(i as u16 + 1, t as u16, payload, 70_000 + t as u64 * 3 + i as u64))
            .collect();
        let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
        // three collision rounds with MAC jitter; retry until the offsets
        // are decodable in the abstract (the AP would wait for more
        // retransmissions otherwise)
        let rounds = loop {
            let r = episode_offsets(3, 3, Backoff::Exponential, &params, &mut rng);
            let lens = vec![payload * 8 + 112; 3];
            let layouts: Vec<zigzag_core::schedule::CollisionLayout> = r
                .iter()
                .map(|offs| zigzag_core::schedule::CollisionLayout {
                    placements: offs
                        .iter()
                        .enumerate()
                        .map(|(q, &o)| zigzag_core::schedule::Placement {
                            packet: q,
                            start: params.slots_to_symbols(o),
                        })
                        .collect(),
                    len: params.slots_to_symbols(*offs.iter().max().unwrap()) + lens[0] + 64,
                })
                .collect();
            if zigzag_core::schedule::decodable(&lens, &layouts) {
                break r;
            }
        };
        let buffers: Vec<_> = rounds
            .iter()
            .map(|offs| {
                let placed: Vec<PlacedTx<'_>> = (0..3)
                    .map(|i| PlacedTx {
                        air: &airs[i],
                        base: &chans[i],
                        start: params.slots_to_symbols(offs[i]),
                    })
                    .collect();
                synth_collision(&placed, 1.0, &mut rng)
            })
            .collect();
        let reg = zigzag_testbed::registry_for(&[(1, &links[0]), (2, &links[1]), (3, &links[2])]);
        let dec = ZigzagDecoder::new(cfg9.clone(), &reg);
        let specs: Vec<CollisionSpec<'_>> = buffers
            .iter()
            .zip(rounds.iter())
            .map(|(b, offs)| CollisionSpec {
                buffer: &b.buffer,
                placements: (0..3).map(|i| (i, params.slots_to_symbols(offs[i]))).collect(),
            })
            .collect();
        let out = dec.decode(
            &specs,
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }, PacketSpec { client: 3 }],
            &mut Scratch::with_backend(cfg9.backend),
        );
        let bers: Vec<f64> = (0..3)
            .map(|i| bit_error_rate(&airs[i].mpdu_bits, &out.packets[i].scrambled_bits))
            .collect();
        if std::env::var_os("FIG59_DEBUG").is_some() {
            for (i, ber) in bers.iter().enumerate() {
                if *ber >= 1e-3 {
                    eprintln!("  fail: episode {t} sender {i} BER {ber:.4} offsets {rounds:?}");
                }
            }
        }
        (out.outcome == PlanOutcome::Complete, bers)
    });
    for (complete, bers) in &episodes {
        if *complete {
            episodes_ok += 1;
        }
        // three packets over three collision rounds: perfect = 1/3 each
        for &ber in bers {
            per_sender.push(if ber < 1e-3 { 1.0 / 3.0 } else { 0.0 });
            if ber >= 1e-3 {
                fail_bers.push(ber);
            }
        }
    }

    println!("episodes fully scheduled: {episodes_ok}/{n_trials}");
    print!("per-sender normalized throughput CDF:");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        print!("  p{:02.0}={:.3}", q * 100.0, per_sender.quantile(q));
    }
    println!("  mean={:.3}", per_sender.mean());
    if !fail_bers.is_empty() {
        println!(
            "packets over the 1e-3 bar: {} (median BER {:.1e}, p90 {:.1e}) — near-threshold, not catastrophic",
            fail_bers.len(),
            fail_bers.quantile(0.5),
            fail_bers.quantile(0.9)
        );
    }
    println!("paper shape: all three senders near 1/3 of the medium.");
}
