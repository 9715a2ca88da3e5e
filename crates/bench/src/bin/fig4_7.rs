//! Figure 4-7: greedy-decoder failure probability vs number of colliding
//! nodes, for fixed congestion windows (a) and exponential backoff (b).
//!
//! Workload: n hidden senders collide n times (one equation per unknown);
//! each round every node redraws its jitter. A trial fails when the
//! position-wise peeling decoder (equivalent to §4.5's greedy algorithm)
//! cannot recover all packets.

use rand::prelude::*;
use zigzag_bench::{section, trials};
use zigzag_core::engine::{unit_seed, BatchEngine};
use zigzag_core::schedule::{decodable, CollisionLayout, Placement};
use zigzag_mac::backoff::episode_offsets;
use zigzag_mac::{Backoff, MacParams};

/// Packet length in slots (1500 B at 500 kb/s ≈ 24 ms ≈ 1212 slots; a
/// shorter abstract length keeps the Monte Carlo fast without changing
/// the combinatorial structure, which is set by the offsets).
const PKT_SLOTS: usize = 256;

/// Monte Carlo over the `BatchEngine`: trials are split into fixed-size
/// chunks, each chunk's RNG seeded from its index, so the result is
/// deterministic at any thread count and on any machine.
fn failure_probability(
    engine: &BatchEngine,
    n: usize,
    policy: Backoff,
    n_trials: usize,
    seed: u64,
) -> f64 {
    let params = MacParams::default();
    // Fixed chunk size: the chunk index seeds the RNG stream, so the split
    // must not depend on the machine's core count or the printed numbers
    // would vary across machines.
    let chunk = 250;
    let chunks: Vec<(usize, usize)> =
        (0..n_trials).step_by(chunk).map(|s| (s, (s + chunk).min(n_trials))).collect();
    let fails: usize = engine
        .map(&chunks, |ci, &(lo, hi)| {
            let mut rng = StdRng::seed_from_u64(unit_seed(seed, ci));
            let mut fails = 0usize;
            for _ in lo..hi {
                let rounds = episode_offsets(n, n, policy, &params, &mut rng);
                let collisions: Vec<CollisionLayout> = rounds
                    .iter()
                    .map(|offs| CollisionLayout {
                        placements: offs
                            .iter()
                            .enumerate()
                            .map(|(q, &o)| Placement { packet: q, start: o as usize })
                            .collect(),
                        len: *offs.iter().max().unwrap_or(&0) as usize + PKT_SLOTS + 4,
                    })
                    .collect();
                let lens = vec![PKT_SLOTS; n];
                if !decodable(&lens, &collisions) {
                    fails += 1;
                }
            }
            fails
        })
        .into_iter()
        .sum();
    fails as f64 / n_trials as f64
}

fn main() {
    let n_trials = trials(20_000, 2_000);
    let engine = BatchEngine::new(0);
    println!("Figure 4-7: failure probability of the linear-time greedy decoder");
    println!(
        "({n_trials} trials per point; n collisions of n packets; {} threads)",
        engine.threads()
    );

    section("(a) fixed congestion windows");
    println!("{:>6} {:>10} {:>10} {:>10}", "nodes", "cw=8", "cw=16", "cw=32");
    for n in 2..=9 {
        let p8 = failure_probability(&engine, n, Backoff::Fixed(8), n_trials, 100 + n as u64);
        let p16 = failure_probability(&engine, n, Backoff::Fixed(16), n_trials, 200 + n as u64);
        let p32 = failure_probability(&engine, n, Backoff::Fixed(32), n_trials, 300 + n as u64);
        println!("{n:>6} {p8:>10.4} {p16:>10.4} {p32:>10.4}");
    }

    section("(b) 802.11 exponential backoff (CWmin=31, CWmax=1023)");
    println!("{:>6} {:>12}", "nodes", "P(failure)");
    for n in 2..=9 {
        let p = failure_probability(&engine, n, Backoff::Exponential, n_trials, 400 + n as u64);
        println!("{n:>6} {p:>12.5}");
    }
    println!("\npaper shape: failure probability decreases with cw and stays");
    println!("low (<~1e-2) for >2 nodes under exponential backoff.");
}
