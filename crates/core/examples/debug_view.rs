//! Scratch diagnostic for the ChannelView decode path (not part of the
//! public examples; see /examples at the workspace root for those).
//!
//! Doubles as minimal kernel-backend usage at the lowest level: the
//! backend is constructed explicitly (`scalar`/`simd` as first
//! argument) and passed to `decode_chunk_into` alongside the buffer pool.
use rand::prelude::*;
use zigzag_channel::fading::ChannelParams;
use zigzag_channel::noise::{add_awgn, amplitude_for_snr_db};
use zigzag_core::config::DecoderConfig;
use zigzag_core::engine::BufPool;
use zigzag_core::view::{ChannelView, ChunkDecode, Direction, PacketLayout};
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::complex::{Complex, ZERO};
use zigzag_phy::filter::Fir;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::kernel::{BackendKind, Kernel};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn backend() -> BackendKind {
    std::env::args().nth(1).and_then(|a| BackendKind::from_name(&a)).unwrap_or_default()
}

fn run(name: &str, ch: ChannelParams, snr_db: f64, omega_hint: f64, payload: usize) {
    let mut rng = StdRng::seed_from_u64(7);
    let f = Frame::with_random_payload(0, 1, 7, payload, 99);
    let a = encode_frame(&f, Modulation::Bpsk, &Preamble::default_len());
    let ch = ChannelParams {
        gain: Complex::from_polar(amplitude_for_snr_db(snr_db), ch.gain.arg()),
        ..ch
    };
    let mut buf = ch.apply(&a.symbols, &mut rng);
    buf.extend(std::iter::repeat_n(ZERO, 32));
    add_awgn(&mut rng, &mut buf, 1.0);

    let cfg = DecoderConfig::with_backend(backend());
    let p = Preamble::default_len();
    let v = ChannelView::estimate(&buf, 0, p.symbols(), Some(omega_hint), None, true, &cfg);
    let Some(mut v) = v else {
        println!("{name}: ESTIMATE FAILED");
        return;
    };
    println!(
        "{name}: est gain={:.3} (true {:.3}) mu={:.3} omega={:.5} (true {:.5}) taps={:?}",
        v.gain,
        ch.gain.abs(),
        v.mu,
        v.phase.omega(),
        ch.omega,
        v.taps.taps().iter().map(|t| (t.abs() * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    let layout = PacketLayout {
        preamble: p.symbols().to_vec(),
        plcp_syms: zigzag_phy::frame::PLCP_SYMBOLS,
        payload_mod: a.modulation,
        total_syms: a.len(),
    };
    let mut pool = BufPool::new();
    let mut kernel = Kernel::new(backend());
    let mut out = ChunkDecode::default();
    v.decode_chunk_into(
        &buf,
        0..a.len(),
        &layout,
        Direction::Forward,
        &mut pool,
        &mut kernel,
        &mut out,
    );
    let bits = Modulation::Bpsk.demodulate(&out.decided[a.mpdu_start()..]);
    let ber = bit_error_rate(&a.mpdu_bits, &bits[..a.mpdu_bits.len()]);
    // where do errors start?
    let first_err = a.mpdu_bits.iter().zip(bits.iter()).position(|(x, y)| x != y);
    println!("    BER {ber:.5} first_err {first_err:?} of {}", a.mpdu_bits.len());
}

fn main() {
    run("clean           ", ChannelParams::ideal(), 14.0, 0.0, 300);
    run(
        "phase only      ",
        ChannelParams { gain: Complex::from_polar(1.0, 0.3), ..ChannelParams::ideal() },
        14.0,
        0.0,
        300,
    );
    run(
        "omega           ",
        ChannelParams { omega: 0.02, ..ChannelParams::ideal() },
        14.0,
        0.02,
        300,
    );
    run(
        "mu              ",
        ChannelParams { sampling_offset: -0.2, ..ChannelParams::ideal() },
        14.0,
        0.0,
        300,
    );
    run(
        "omega+mu+phase  ",
        ChannelParams {
            gain: Complex::from_polar(1.0, 0.3),
            omega: 0.02,
            sampling_offset: -0.2,
            ..ChannelParams::ideal()
        },
        14.0,
        0.02,
        300,
    );
    run(
        "isi             ",
        ChannelParams {
            isi: Fir::new(
                vec![Complex::new(0.08, 0.02), Complex::real(1.0), Complex::new(0.18, -0.06)],
                1,
            ),
            ..ChannelParams::ideal()
        },
        14.0,
        0.0,
        300,
    );
    run(
        "phase noise     ",
        ChannelParams { phase_noise: 0.01, ..ChannelParams::ideal() },
        14.0,
        0.0,
        300,
    );
    run(
        "drift           ",
        ChannelParams { sampling_drift: 1.5e-5, ..ChannelParams::ideal() },
        14.0,
        0.0,
        1500,
    );
    run(
        "all 12dB        ",
        ChannelParams {
            gain: Complex::from_polar(1.0, -0.7),
            omega: 0.05,
            sampling_offset: 0.25,
            sampling_drift: 1.5e-5,
            isi: Fir::new(
                vec![Complex::new(0.08, 0.02), Complex::real(1.0), Complex::new(0.18, -0.06)],
                1,
            ),
            phase_noise: 0.01,
        },
        12.0,
        0.05 + 2e-4,
        400,
    );
}
