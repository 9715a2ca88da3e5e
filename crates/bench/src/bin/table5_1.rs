//! Table 5.1: micro-evaluation of ZigZag's components.
//!
//! Rows:
//! * correlation-based collision detection — false positive / false
//!   negative rates at β = 0.65 over SNR ∈ [6, 20] dB (paper: 3.1% / 1.9%);
//! * frequency & phase tracking — fraction of colliding packets decodable
//!   (BER < 10⁻³) with and without the §4.2.4 tracking, for 800 B and
//!   1500 B packets (paper: 99.6/98.2% with; 89/0% without);
//! * ISI filter — with and without the §4.2.4d inverse filter at 10 and
//!   20 dB (paper: 99.6/100% with; 47/96% without).

use rand::prelude::*;
use zigzag_bench::{airframe, draw_offsets, run_zigzag_pair, section, trials};
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{clean_reception, hidden_pair};
use zigzag_core::config::DecoderConfig;
use zigzag_core::detect::detect_packets;
use zigzag_core::engine::{unit_seed, BatchEngine, Scratch};
use zigzag_phy::preamble::Preamble;

fn correlation_rates(n_trials: usize) -> (f64, f64) {
    let cfg = DecoderConfig::default();
    let preamble = Preamble::default_len();
    let mut ws = Scratch::with_backend(cfg.backend);
    let mut fp = 0usize;
    let mut fneg = 0usize;
    let mut rng = StdRng::seed_from_u64(51);
    for t in 0..n_trials {
        let snr = 6.0 + 14.0 * (t as f64 / n_trials as f64);
        let la = LinkProfile::typical(snr, &mut rng);
        let lb = LinkProfile::typical(snr, &mut rng);
        let reg = zigzag_testbed::registry_for(&[(1, &la), (2, &lb)]);
        let a = airframe(1, t as u16, 300, 900 + t as u64);
        let b = airframe(2, t as u16, 300, 901 + t as u64);
        // clean packet: any extra detection is a false positive
        let rx = clean_reception(&a, &la, &mut rng);
        let det = detect_packets(&rx.buffer, &preamble, &reg, &cfg, &mut ws);
        if det.len() > 1 {
            fp += 1;
        }
        // collision: missing it is a false negative
        let (d1, _) = draw_offsets(&mut rng);
        let hp = hidden_pair(&a, &b, &la, &lb, d1.max(40), 0, &mut rng);
        let det = detect_packets(&hp.collision1.buffer, &preamble, &reg, &cfg, &mut ws);
        if det.len() < 2 {
            fneg += 1;
        }
    }
    (fp as f64 / n_trials as f64, fneg as f64 / n_trials as f64)
}

/// Fraction of colliding packets decodable (BER < 1e-3), fanned across
/// the engine one trial per work unit.
fn success_rate(
    engine: &BatchEngine,
    payload: usize,
    cfg: &DecoderConfig,
    snr_db: f64,
    n_trials: usize,
    seed: u64,
) -> f64 {
    let ts: Vec<usize> = (0..n_trials).collect();
    let ok: usize = engine
        .map(&ts, |_, &t| {
            let mut rng = StdRng::seed_from_u64(unit_seed(seed, t));
            let (d1, d2) = draw_offsets(&mut rng);
            let out = run_zigzag_pair(snr_db, payload, d1, d2, cfg, true, seed * 1000 + t as u64);
            out.ber.iter().filter(|&&b| b < 1e-3).count()
        })
        .into_iter()
        .sum();
    ok as f64 / (2 * n_trials) as f64
}

fn main() {
    println!("Table 5.1: micro-evaluation of ZigZag's components");
    let n = trials(250, 30);
    let engine = BatchEngine::new(0);

    section("Correlation collision detector (beta = 0.78; paper used 0.65 at 2 sps)");
    let (fp, fneg) = correlation_rates(trials(500, 60));
    println!("false positives: {:.1}%   (paper: 3.1%)", fp * 100.0);
    println!("false negatives: {:.1}%   (paper: 1.9%)", fneg * 100.0);

    section("Frequency & phase tracking (12 dB)");
    let with = DecoderConfig::default();
    let without = DecoderConfig::without_tracking();
    for (payload, paper_with, paper_without) in [(800, "99.6%", "89%"), (1500, "98.2%", "0%")] {
        let s_with = success_rate(&engine, payload, &with, 12.0, n, 7000 + payload as u64);
        let s_without = success_rate(&engine, payload, &without, 12.0, n, 8000 + payload as u64);
        println!(
            "{payload:>5} B: with {:.1}% (paper {paper_with})   without {:.1}% (paper {paper_without})",
            s_with * 100.0,
            s_without * 100.0
        );
    }

    section("ISI filter");
    let with = DecoderConfig::default();
    let without = DecoderConfig::without_isi_filter();
    for (snr, paper_with, paper_without) in [(10.0, "99.6%", "47%"), (20.0, "100%", "96%")] {
        let s_with = success_rate(&engine, 800, &with, snr, n, 9000 + snr as u64);
        let s_without = success_rate(&engine, 800, &without, snr, n, 9500 + snr as u64);
        println!(
            "{snr:>4} dB: with {:.1}% (paper {paper_with})   without {:.1}% (paper {paper_without})",
            s_with * 100.0,
            s_without * 100.0
        );
    }
}
