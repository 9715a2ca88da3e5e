//! Figures 5-5 to 5-8: whole-testbed throughput and loss.
//!
//! Random sender pairs with a common AP on the 14-node testbed, each run
//! under current 802.11 and ZigZag (plus the Collision-Free Scheduler
//! reference). Reports:
//! * Fig 5-5 — CDF of pairwise aggregate normalized throughput
//!   (paper: ZigZag +31% mean);
//! * Fig 5-6 — CDF of per-flow loss rate (paper: 18.9% → 0.2% mean);
//! * Fig 5-7 — scatter of per-pair throughput, ZigZag vs 802.11
//!   ("helps, never hurts");
//! * Fig 5-8 — loss CDF restricted to full/partial hidden pairs
//!   (paper: 82.3% → 0.7% mean).

use rand::prelude::*;
use zigzag_bench::{section, trials};
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::pathloss::Sensing;
use zigzag_core::engine::BatchEngine;
use zigzag_testbed::{run_pair, ExperimentConfig, PairScenario, Samples, Testbed};

fn cdf_print(name: &str, s: &Samples) {
    print!("{name} CDF:");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
        print!("  p{:02.0}={:.2}", q * 100.0, s.quantile(q));
    }
    println!("  mean={:.3}", s.mean());
}

fn main() {
    let tb = Testbed::paper_like(7);
    let (h, p, f) = tb.sensing_mix();
    println!(
        "testbed sensing mix: hidden {:.0}% / partial {:.0}% / perfect {:.0}%  (paper: 12/8/80)",
        h * 100.0,
        p * 100.0,
        f * 100.0
    );

    let n_pairs = trials(40, 10);
    let cfg = ExperimentConfig { payload: 300, rounds: trials(30, 12), ..Default::default() };
    let engine = BatchEngine::new(0);
    println!("running {n_pairs} sampled pairs on {} threads", engine.threads());
    let mut rng = StdRng::seed_from_u64(42);

    let mut tput_802 = Samples::new();
    let mut tput_zz = Samples::new();
    let mut loss_802 = Samples::new();
    let mut loss_zz = Samples::new();
    let mut hidden_loss_802 = Samples::new();
    let mut hidden_loss_zz = Samples::new();
    let mut scatter: Vec<(f64, f64, bool)> = Vec::new();

    // Sample the pair scenarios sequentially (cheap, keeps the draw order
    // deterministic), then fan the expensive flow experiments across the
    // engine.
    let pairs = tb.sender_pairs();
    let mut scenarios: Vec<PairScenario> = Vec::new();
    let mut hidden_flags: Vec<bool> = Vec::new();
    while scenarios.len() < n_pairs {
        let &(a, b) = pairs.choose(&mut rng).unwrap();
        let aps = tb.common_aps(a, b, 6.0);
        let Some(&ap) = aps.choose(&mut rng) else { continue };
        let snr_a = tb.link_snr_db(a, ap).min(25.0);
        let snr_b = tb.link_snr_db(b, ap).min(25.0);
        let sensing = tb.sensing(a, b);
        scenarios.push(PairScenario {
            link_a: LinkProfile::typical(snr_a, &mut rng),
            link_b: LinkProfile::typical(snr_b, &mut rng),
            p_sense: sensing.probability(),
            seed: 5_000 + scenarios.len() as u64,
        });
        hidden_flags.push(matches!(sensing, Sensing::Hidden | Sensing::Partial(_)));
    }
    let runs =
        engine.map(&scenarios, |_, s| run_pair(&s.link_a, &s.link_b, s.p_sense, &cfg, s.seed));
    for (run, &is_ht) in runs.iter().zip(hidden_flags.iter()) {
        tput_802.push(run.s802.total_throughput());
        tput_zz.push(run.zigzag.total_throughput());
        // per-flow loss, the paper's Fig 5-6/5-8 unit
        for s in 0..2 {
            loss_802.push(run.s802.flow_loss(s));
            loss_zz.push(run.zigzag.flow_loss(s));
        }
        if is_ht {
            for s in 0..2 {
                hidden_loss_802.push(run.s802.flow_loss(s));
                hidden_loss_zz.push(run.zigzag.flow_loss(s));
            }
        }
        scatter.push((run.s802.total_throughput(), run.zigzag.total_throughput(), is_ht));
    }

    section("Figure 5-5: aggregate normalized throughput (whole testbed)");
    cdf_print("  802.11", &tput_802);
    cdf_print("  zigzag", &tput_zz);
    let gain = if tput_802.mean() > 0.0 {
        (tput_zz.mean() / tput_802.mean() - 1.0) * 100.0
    } else {
        f64::INFINITY
    };
    println!("  mean throughput gain: {gain:+.0}%   (paper: +31%)");

    section("Figure 5-6: per-flow loss rate (whole testbed)");
    cdf_print("  802.11", &loss_802);
    cdf_print("  zigzag", &loss_zz);
    println!(
        "  mean loss: 802.11 {:.1}% -> zigzag {:.2}%   (paper: 18.9% -> 0.2%)",
        loss_802.mean() * 100.0,
        loss_zz.mean() * 100.0
    );

    section("Figure 5-7: scatter of pair throughputs (zigzag vs 802.11)");
    println!("  {:>8} {:>8}  hidden?", "802.11", "zigzag");
    for (x, y, ht) in &scatter {
        println!("  {x:>8.2} {y:>8.2}  {}", if *ht { "yes" } else { "" });
    }
    let hurts = scatter.iter().filter(|(x, y, _)| y + 0.12 < *x).count();
    println!("  pairs where zigzag hurts (>0.12): {hurts} of {} (paper: 0)", scatter.len());

    section("Figure 5-8: loss at (full or partial) hidden terminals");
    if hidden_loss_802.is_empty() {
        println!("  (no hidden pairs sampled — increase --quick trials)");
    } else {
        cdf_print("  802.11", &hidden_loss_802);
        cdf_print("  zigzag", &hidden_loss_zz);
        println!(
            "  mean hidden-terminal loss: 802.11 {:.1}% -> zigzag {:.2}%   (paper: 82.3% -> 0.7%)",
            hidden_loss_802.mean() * 100.0,
            hidden_loss_zz.mean() * 100.0
        );
    }
}
