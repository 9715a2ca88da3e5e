//! Empirical sweep behind the staged-matching `PRE_T` prefilter margin
//! (`matchset.rs`): regenerates the staged-vs-exhaustive proptest corpus
//! (clean k = 2 / k = 3 workloads, random offsets in 0..500) and
//! measures, for every same-client candidate pair the funnel evaluates,
//! the integer-τ half-window prefilter metric alongside the exact
//! full-window (τ = 0.25) and coarse bucket (τ = 0.5) metrics.
//!
//! The prefilter may cut a pair without breaking staged ≡ exhaustive
//! identity only if neither exact metric clears `MATCH_THRESHOLD`, so
//! the tightest safe bar is the minimum prefilter metric over all
//! threshold-clearing pairs. The sweep prints that floor (as a fraction
//! of the threshold), the sub-threshold noise ceiling, and a cut-rate
//! table over candidate factors — the numbers quoted in `PRE_T`'s
//! documentation.
//!
//!     cargo run --release -p zigzag-core --example pre_t_sweep [seeds]

use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig, MatchSearch};
use zigzag_core::detect::{detect_packets, Detection};
use zigzag_core::engine::scratch::Scratch;
use zigzag_core::matcher::{MATCH_THRESHOLD, MATCH_WINDOW};
use zigzag_core::matchset::{find_match_set, CollisionStore};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::kernel::Kernel;
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

/// One candidate pair's three metrics: the integer-τ half-window
/// prefilter, and the two exact stages it gates.
struct Probe {
    pre: f64,
    full: f64,
    coarse: f64,
}

fn workload(k: usize, seed: u64) -> (Vec<Vec<Complex>>, Vec<Vec<Detection>>, ClientRegistry) {
    let mut rng = StdRng::seed_from_u64(seed);
    let omegas = [-0.08, 0.02, 0.09];
    let links: Vec<LinkProfile> =
        (0..k).map(|i| LinkProfile::clean_with_omega(17.5, omegas[i])).collect();
    let airs: Vec<_> = (0..k)
        .map(|i| {
            let f = Frame::with_random_payload(
                0,
                i as u16 + 1,
                i as u16,
                80,
                seed.wrapping_mul(131).wrapping_add(i as u64),
            );
            encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
        })
        .collect();
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    let mut off_rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
    let buffers: Vec<Vec<Complex>> = (0..k)
        .map(|_| {
            let placed: Vec<PlacedTx<'_>> = (0..k)
                .map(|i| PlacedTx {
                    air: &airs[i],
                    base: &chans[i],
                    start: off_rng.gen_range(0..500),
                })
                .collect();
            synth_collision(&placed, 1.0, &mut rng).buffer
        })
        .collect();
    let mut reg = ClientRegistry::new();
    for (i, l) in links.iter().enumerate() {
        reg.associate(
            i as u16 + 1,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    let cfg = DecoderConfig::default();
    let pre = Preamble::default_len();
    let mut ws = Scratch::with_backend(cfg.backend);
    let dets: Vec<Vec<Detection>> =
        buffers.iter().map(|b| detect_packets(b, &pre, &reg, &cfg, &mut ws)).collect();
    (buffers, dets, reg)
}

/// Outcome-level identity check: staged-vs-exhaustive `find_match_set`
/// divergence count over the corpus, at whatever prefilter bar the
/// `ZIGZAG_PRE_T` override set for this process.
fn identity_divergences(seeds: u64) -> usize {
    let pre = Preamble::default_len();
    let mut divergences = 0;
    for seed in 0..seeds {
        for k in [2usize, 3] {
            let (buffers, dets, reg) = workload(k, seed);
            let mut store = CollisionStore::new(8);
            for (b, d) in buffers[..k - 1].iter().zip(&dets) {
                store.insert(b.clone(), d.clone());
            }
            let mut ws = Scratch::default();
            let cur = &buffers[k - 1];
            let cur_dets = &dets[k - 1];
            let staged =
                find_match_set(MatchSearch::Staged, &mut ws, cur, cur_dets, &store, &reg, &pre);
            let exhaustive =
                find_match_set(MatchSearch::Exhaustive, &mut ws, cur, cur_dets, &store, &reg, &pre);
            if staged != exhaustive {
                divergences += 1;
            }
        }
    }
    divergences
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // child mode of the outcome-identity leg: the prefilter bar is fixed
    // per process (OnceLock), so the parent re-execs once per factor
    if args.get(1).map(String::as_str) == Some("--identity") {
        let seeds: u64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(400);
        println!("{}", identity_divergences(seeds));
        return;
    }
    let seeds: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(400);
    let mut kernel = Kernel::default();
    let mut probes: Vec<Probe> = Vec::new();
    for seed in 0..seeds {
        for k in [2usize, 3] {
            let (buffers, dets, _) = workload(k, seed);
            // every stored/current buffer ordering the funnel can see
            let cur = k - 1;
            for stored in 0..k - 1 {
                for dc in &dets[cur] {
                    for ds in &dets[stored] {
                        if dc.client != ds.client {
                            continue;
                        }
                        let (a, p) = (&buffers[cur], dc.pos);
                        let (b, q) = (&buffers[stored], ds.pos);
                        probes.push(Probe {
                            pre: kernel.match_score(a, p, b, q, MATCH_WINDOW / 2, 1.0, None).metric,
                            full: kernel.match_score(a, p, b, q, MATCH_WINDOW, 0.25, None).metric,
                            coarse: kernel
                                .match_score(a, p, b, q, MATCH_WINDOW / 2, 0.5, None)
                                .metric,
                        });
                    }
                }
            }
        }
    }

    // identity constraint: a pair either exact stage would accept must
    // survive the prefilter
    let survivors: Vec<&Probe> =
        probes.iter().filter(|p| p.full > MATCH_THRESHOLD || p.coarse > MATCH_THRESHOLD).collect();
    let cuttable: Vec<&Probe> = probes
        .iter()
        .filter(|p| p.full <= MATCH_THRESHOLD && p.coarse <= MATCH_THRESHOLD)
        .collect();
    let floor = survivors.iter().map(|p| p.pre).fold(f64::INFINITY, f64::min);
    let noise_ceiling = cuttable.iter().map(|p| p.pre).fold(0.0f64, f64::max);
    println!(
        "corpus: {} pairs ({} must survive, {} cuttable) over {seeds} seeds × k ∈ {{2,3}}",
        probes.len(),
        survivors.len(),
        cuttable.len()
    );
    println!(
        "survivor prefilter floor: {floor:.4} = {:.3}·MATCH_THRESHOLD",
        floor / MATCH_THRESHOLD
    );
    println!("sub-threshold noise ceiling: {noise_ceiling:.4}");
    println!();
    println!("factor   bar      cut-rate  pairs-lost  outcome-divergences");
    let exe = std::env::current_exe().expect("current_exe");
    for f in [0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90] {
        let bar = f * MATCH_THRESHOLD;
        let cut = cuttable.iter().filter(|p| p.pre <= bar).count();
        let lost = survivors.iter().filter(|p| p.pre <= bar).count();
        // outcome identity needs the bar live inside the funnel; it is
        // process-wide, so run each factor in a child process
        let out = std::process::Command::new(&exe)
            .args(["--identity", &seeds.to_string()])
            .env("ZIGZAG_PRE_T", f.to_string())
            .output()
            .expect("identity child");
        let diverged = String::from_utf8_lossy(&out.stdout).trim().to_string();
        println!(
            "{f:.2}     {bar:.4}   {:5.1}%    {lost:4}        {diverged}",
            100.0 * cut as f64 / cuttable.len().max(1) as f64
        );
    }
}
