//! Figure 5-4: normalized throughput in capture-effect scenarios.
//!
//! Alice moves closer to the AP: ΔSNR = SNR_A − SNR_B sweeps 0..16 dB
//! with SNR_B fixed. Plots (a) Alice's, (b) Bob's, (c) total normalized
//! throughput for 802.11, the Collision-Free Scheduler and ZigZag.
//!
//! Paper shape: 802.11 starves Bob and ramps Alice up once capture kicks
//! in (4–6 dB); the scheduler is flat at 0.5/0.5; ZigZag rides capture +
//! interference cancellation to a total of ≈2 in the mid band and falls
//! back toward 1 when Alice's power buries Bob (the cancellation-floor
//! regime; ours sits at −20 dB, see DESIGN.md §2).

use rand::prelude::*;
use zigzag_bench::trials;
use zigzag_channel::fading::LinkProfile;
use zigzag_core::engine::BatchEngine;
use zigzag_testbed::{run_pair, ExperimentConfig, PairScenario};

fn main() {
    let rounds = trials(40, 12);
    let snr_b = 12.0;
    let cfg = ExperimentConfig { payload: 300, rounds, ..Default::default() };
    let engine = BatchEngine::new(0);
    println!(
        "Figure 5-4: capture sweep (SNR_B = {snr_b} dB, {rounds} rounds/point, {} threads)",
        engine.threads()
    );
    println!(
        "{:>6} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "dSNR", "A:802", "A:cfs", "A:zz", "B:802", "B:cfs", "B:zz", "T:802", "T:cfs", "T:zz"
    );
    // one scenario per ΔSNR point, fanned across the engine
    let points = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0];
    let scenarios: Vec<PairScenario> = points
        .iter()
        .map(|&dsnr| {
            let mut rng = StdRng::seed_from_u64(7_000 + dsnr as u64);
            PairScenario {
                link_a: LinkProfile::typical(snr_b + dsnr, &mut rng),
                link_b: LinkProfile::typical(snr_b, &mut rng),
                p_sense: 0.0,
                seed: 600 + dsnr as u64,
            }
        })
        .collect();
    let runs =
        engine.map(&scenarios, |_, s| run_pair(&s.link_a, &s.link_b, s.p_sense, &cfg, s.seed));
    for (dsnr, run) in points.iter().zip(runs.iter()) {
        println!(
            "{dsnr:>6.1} | {:>7.2} {:>7.2} {:>7.2} | {:>7.2} {:>7.2} {:>7.2} | {:>7.2} {:>7.2} {:>7.2}",
            run.s802.throughput(0),
            run.cfs.throughput(0),
            run.zigzag.throughput(0),
            run.s802.throughput(1),
            run.cfs.throughput(1),
            run.zigzag.throughput(1),
            run.s802.total_throughput(),
            run.cfs.total_throughput(),
            run.zigzag.total_throughput(),
        );
    }
    println!("\npaper shape: zigzag ≥ max(802.11, scheduler) everywhere; total");
    println!("exceeds 1 in the capture band; 802.11 starves Bob at high dSNR.");
}
