//! Scratch diagnostic for the capture/IC path.
//!
//! Doubles as minimal kernel-backend usage for the capture flow: the
//! backend is picked explicitly (`scalar`/`simd` as first argument)
//! and one `Scratch` is threaded through every decode entry point.
use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::capture::{capture_decode, subtract_decoded};
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::Scratch;
use zigzag_core::standard::decode_single;
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::complex::mean_power;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::kernel::BackendKind;
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn main() {
    let backend =
        std::env::args().nth(1).and_then(|a| BackendKind::from_name(&a)).unwrap_or_default();
    println!("kernel backend: {}", backend.name());
    let mut ws = Scratch::with_backend(backend);
    let mut rng = StdRng::seed_from_u64(3);
    let la = LinkProfile::typical(22.0, &mut rng);
    let lb = LinkProfile::typical(13.0, &mut rng);
    let fa = Frame::with_random_payload(0, 1, 1, 250, 901);
    let fb = Frame::with_random_payload(0, 2, 1, 250, 902);
    let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
    let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());
    let ca = la.draw(&mut rng);
    let cb = lb.draw(&mut rng);
    let delta = 300;
    let sc = synth_collision(
        &[PlacedTx { air: &a, base: &ca, start: 0 }, PlacedTx { air: &b, base: &cb, start: delta }],
        1.0,
        &mut rng,
    );
    let mut reg = ClientRegistry::new();
    reg.associate(
        1,
        ClientInfo { omega: la.association_omega(), snr_db: 22.0, taps: la.isi.clone() },
    );
    reg.associate(
        2,
        ClientInfo { omega: lb.association_omega(), snr_db: 13.0, taps: lb.isi.clone() },
    );
    let cfg = DecoderConfig::with_backend(backend);
    let p = Preamble::default_len();

    let strong = decode_single(&sc.buffer, 0, Some(1), &reg, &p, false, &cfg, &mut ws).unwrap();
    println!("strong frame ok: {}", strong.frame.is_some());
    println!(
        "strong view: gain={:.2} (true {:.2}) omega={:.5} (true {:.5}) mu={:.3} (true {:.3})",
        strong.view.gain,
        ca.gain.abs(),
        strong.view.phase.omega(),
        ca.omega,
        strong.view.mu,
        -ca.sampling_offset
    );
    let residual = subtract_decoded(&sc.buffer, &strong, &p, &mut ws);
    // power profile: before vs after over A-only region [0,200) and overlap
    println!(
        "pwr A-only [50,200): {:.1} -> {:.2}",
        mean_power(&sc.buffer[50..200]),
        mean_power(&residual[50..200])
    );
    println!(
        "pwr overlap [300,2000): {:.1} -> {:.2}",
        mean_power(&sc.buffer[300..2000]),
        mean_power(&residual[300..2000])
    );
    let weak = decode_single(&residual, delta, Some(2), &reg, &p, true, &cfg, &mut ws).unwrap();
    println!(
        "weak view: gain={:.2} (true {:.2}) mu={:.3} omega={:.5} (true {:.5})",
        weak.view.gain,
        cb.gain.abs(),
        weak.view.mu,
        weak.view.phase.omega(),
        cb.omega
    );
    let ber = bit_error_rate(&b.mpdu_bits, &weak.scrambled_bits);
    println!("weak BER {ber:.4} plcp {:?}", weak.plcp.is_some());

    // cancellation depth with ORACLE view (true params)
    {
        use zigzag_core::view::ChannelView;
        let tp = &sc.truth[0].params;
        let v = ChannelView::from_params(
            0,
            -tp.sampling_offset,
            tp.gain.abs(),
            tp.gain.arg(),
            tp.omega,
            tp.isi.clone(),
            &cfg,
        );
        let resid2 = zigzag_core::capture::subtract_known(&sc.buffer, &a.symbols, &v, &mut ws);
        println!(
            "oracle-view cancellation [50,200): {:.1} -> {:.2}, overlap: {:.2}",
            mean_power(&sc.buffer[50..200]),
            mean_power(&resid2[50..200]),
            mean_power(&resid2[300..2000])
        );
    }

    // also through capture_decode
    let r =
        capture_decode(&sc.buffer, 0, Some(1), delta, Some(2), &reg, &p, &cfg, &mut ws).unwrap();
    let w = r.weak.unwrap();
    println!("via capture_decode: weak BER {:.4}", bit_error_rate(&b.mpdu_bits, &w.scrambled_bits));
}

// ---- appended experiment: cancellation depth vs mu accuracy ----
#[allow(dead_code)]
fn extra() {}
