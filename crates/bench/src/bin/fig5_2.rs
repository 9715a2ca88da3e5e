//! Figure 5-2: effects of residual frequency offset and ISI.
//!
//! (a) With reconstruction tracking disabled, bit errors start thousands
//!     of bits into a 1500 B packet and grow — the residual frequency
//!     error's phase ramp (paper: errors from ≈bit 6000).
//! (b) The received value of a BPSK bit depends on its neighbours (ISI):
//!     a "1" preceded by a "1" sits higher than one preceded by a "0".

use rand::prelude::*;
use zigzag_bench::{airframe, section, trials};
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{clean_reception, hidden_pair};
use zigzag_core::config::DecoderConfig;
use zigzag_core::engine::Scratch;
use zigzag_core::standard::decode_single;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_phy::preamble::Preamble;

fn main() {
    section("(a) error distribution without frequency/phase tracking (1500 B)");
    let n_trials = trials(12, 4);
    let mut rng = StdRng::seed_from_u64(11);
    let buckets = 12;
    let mut errors = vec![0usize; buckets];
    let cfg = DecoderConfig::without_tracking();
    let mut ws = Scratch::with_backend(cfg.backend);
    let mut total_bits = 0usize;
    for t in 0..n_trials {
        let la = LinkProfile::typical(12.0, &mut rng);
        let lb = LinkProfile::typical(12.0, &mut rng);
        let a = airframe(1, t as u16, 1500, 400 + t as u64);
        let b = airframe(2, t as u16, 1500, 500 + t as u64);
        let hp = hidden_pair(&a, &b, &la, &lb, 400, 120, &mut rng);
        let reg = zigzag_testbed::registry_for(&[(1, &la), (2, &lb)]);
        let dec = ZigzagDecoder::new(cfg.clone(), &reg);
        let out = dec.decode(
            &[
                CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, 400)] },
                CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, 120)] },
            ],
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
            &mut ws,
        );
        let bits = &out.packets[0].scrambled_bits;
        let n = a.mpdu_bits.len().min(bits.len());
        total_bits = n;
        for i in 0..n {
            if a.mpdu_bits[i] != bits[i] {
                errors[i * buckets / n] += 1;
            }
        }
    }
    let per = total_bits / buckets;
    println!("bit-position bucket : error rate (over {n_trials} packets)");
    for (k, e) in errors.iter().enumerate() {
        let rate = *e as f64 / (per * n_trials) as f64;
        let bar = "#".repeat((rate * 40.0).min(40.0) as usize);
        println!("{:>6}..{:<6} {:>8.4} {bar}", k * per, (k + 1) * per, rate);
    }
    println!("paper shape: clean early bits, errors growing after ~6000 bits.");

    section("(b) ISI-prone symbols: received value vs neighbour bits");
    let mut rng = StdRng::seed_from_u64(12);
    let l = LinkProfile::typical(20.0, &mut rng);
    let a = airframe(1, 1, 800, 77);
    let rx = clean_reception(&a, &l, &mut rng);
    let reg = zigzag_testbed::registry_for(&[(1, &l)]);
    // disable equalization so the raw ISI shows (the §5.3c "off" view)
    let cfg = DecoderConfig::without_isi_filter();
    let preamble = Preamble::default_len();
    let d = decode_single(&rx.buffer, 0, Some(1), &reg, &preamble, true, &cfg, &mut ws)
        .expect("decode");
    // group soft BPSK values of a "1" bit by the previous bit
    let body = 72;
    let mut v_after_one = (0.0, 0usize);
    let mut v_after_zero = (0.0, 0usize);
    for n in 1..a.mpdu_bits.len().min(d.soft.len() - body) {
        if a.mpdu_bits[n] == 1 {
            let v = d.soft[body + n].re;
            if a.mpdu_bits[n - 1] == 1 {
                v_after_one = (v_after_one.0 + v, v_after_one.1 + 1);
            } else {
                v_after_zero = (v_after_zero.0 + v, v_after_zero.1 + 1);
            }
        }
    }
    let m1 = v_after_one.0 / v_after_one.1.max(1) as f64;
    let m0 = v_after_zero.0 / v_after_zero.1.max(1) as f64;
    println!("mean received value of a '1' bit preceded by '1': {m1:+.3}");
    println!("mean received value of a '1' bit preceded by '0': {m0:+.3}");
    println!("paper shape: the two differ — neighbouring bits leak into each other.");
}
