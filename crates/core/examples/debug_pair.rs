//! Scratch diagnostic: full pair decode with error-position mapping.
//!
//! Doubles as minimal kernel-backend usage for the ZigZag executor: the
//! backend is picked explicitly (`scalar`/`simd` as first argument)
//! and threaded via an explicit `Scratch`.
use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::hidden_pair;
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::engine::Scratch;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::kernel::BackendKind;
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn main() {
    let backend =
        std::env::args().nth(1).and_then(|a| BackendKind::from_name(&a)).unwrap_or_default();
    println!("kernel backend: {}", backend.name());
    let seed = 21;
    let mut rng = StdRng::seed_from_u64(seed);
    let snr = 12.0;
    let payload = 1500;
    let (d1, d2) = (400usize, 120usize);
    let la = LinkProfile::typical(snr, &mut rng);
    let lb = LinkProfile::typical(snr, &mut rng);
    let fa = Frame::with_random_payload(0, 1, 10, payload, 1001);
    let fb = Frame::with_random_payload(0, 2, 20, payload, 1002);
    let a = encode_frame(&fa, Modulation::Bpsk, &Preamble::default_len());
    let b = encode_frame(&fb, Modulation::Bpsk, &Preamble::default_len());
    let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
    let mut reg = ClientRegistry::new();
    reg.associate(
        1,
        ClientInfo { omega: la.association_omega(), snr_db: snr, taps: la.isi.clone() },
    );
    reg.associate(
        2,
        ClientInfo { omega: lb.association_omega(), snr_db: snr, taps: lb.isi.clone() },
    );
    let dec = ZigzagDecoder::new(DecoderConfig::with_backend(backend), &reg);
    let mut ws = Scratch::with_backend(backend);
    let out = dec.decode(
        &[
            CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, d1)] },
            CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, d2)] },
        ],
        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
        &mut ws,
    );
    for (name, air, res) in [("A", &a, &out.packets[0]), ("B", &b, &out.packets[1])] {
        let errs: Vec<usize> = air
            .mpdu_bits
            .iter()
            .zip(res.scrambled_bits.iter())
            .enumerate()
            .filter(|(_, (x, y))| x != y)
            .map(|(i, _)| i)
            .collect();
        println!(
            "{name}: {} errors of {} (frame ok: {})",
            errs.len(),
            air.mpdu_bits.len(),
            res.frame.is_some()
        );
        println!("  positions: {:?}", &errs[..errs.len().min(40)]);
    }
}
