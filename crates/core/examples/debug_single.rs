//! Scratch diagnostic for decode_single paths.
//!
//! Doubles as minimal kernel-backend usage: the phy backend is
//! constructed explicitly (`DecoderConfig::with_backend` +
//! `Scratch::with_backend`) and threaded through `decode_single`.
//! Pass `scalar` or `simd` as the first argument to pick one.
use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::clean_reception;
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::Scratch;
use zigzag_core::standard::decode_single;
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::kernel::BackendKind;
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn main() {
    // backend from argv (`scalar`/`simd`), else the process default
    let backend =
        std::env::args().nth(1).and_then(|a| BackendKind::from_name(&a)).unwrap_or_default();
    let cfg = DecoderConfig::with_backend(backend);
    let mut ws = Scratch::with_backend(backend);
    println!("kernel backend: {}", backend.name());
    for (m, snr) in [
        (Modulation::Bpsk, 12.0),
        (Modulation::Qpsk, 22.0),
        (Modulation::Qam16, 22.0),
        (Modulation::Qam16, 28.0),
        (Modulation::Qam64, 30.0),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let l = LinkProfile::clean(snr);
        let f = Frame::with_random_payload(0, 1, 3, 300, 56);
        let a = encode_frame(&f, m, &Preamble::default_len());
        let rx = clean_reception(&a, &l, &mut rng);
        let mut reg = ClientRegistry::new();
        reg.associate(
            1,
            ClientInfo { omega: l.association_omega(), snr_db: snr, taps: l.isi.clone() },
        );
        let out = decode_single(
            &rx.buffer,
            0,
            Some(1),
            &reg,
            &Preamble::default_len(),
            true,
            &cfg,
            &mut ws,
        )
        .unwrap();
        let ber = bit_error_rate(&a.mpdu_bits, &out.scrambled_bits);
        let first = a.mpdu_bits.iter().zip(out.scrambled_bits.iter()).position(|(x, y)| x != y);
        println!(
            "{m:?} @{snr}dB: plcp={:?} frame_ok={} BER={ber:.4} first_err={first:?} len_bits={} got={}",
            out.plcp.map(|p| p.modulation),
            out.frame.is_some(),
            a.mpdu_bits.len(),
            out.scrambled_bits.len(),
        );
    }
}
