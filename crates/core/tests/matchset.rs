//! Property tests for the k-way collision match layer: permutation
//! invariance of detection order, rejection of mismatched client sets,
//! k=2 equivalence with the historical `pair_collisions`, and the
//! degenerate-offset regression.

use proptest::prelude::*;
use rand::prelude::*;
use zigzag_channel::fading::LinkProfile;
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig, MatchSearch};
use zigzag_core::detect::{detect_packets, Detection};
use zigzag_core::engine::scratch::Scratch;
use zigzag_core::matchset::{client_key, find_match_set, pair_collisions, CollisionStore};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

fn det(client: u16, pos: usize) -> Detection {
    Detection { pos, client, corr: Complex::real(1.0), score: 1.2 }
}

fn dets_from(raw: &[(u16, usize)]) -> Vec<Detection> {
    raw.iter().map(|&(c, p)| det(c, p)).collect()
}

/// The historical `pair_collisions` semantics (pre-refactor), with the
/// two sanctioned fixes applied: reject equal-shift alignments instead
/// of only the fully-overlapped special case, and take the earliest
/// *distinct-client* current detection as the second packet (a
/// same-client data-sidelobe detection between the true starts used to
/// degenerate the pairing).
fn reference_pair(
    current: &[Detection],
    stored: &[Detection],
) -> Option<[(Detection, Detection); 2]> {
    if current.len() < 2 || stored.len() < 2 {
        return None;
    }
    let c1 = current[0];
    let c2 = *current.iter().find(|d| d.client != c1.client)?;
    let s1 = stored.iter().find(|d| d.client == c1.client)?;
    let s2 = stored.iter().find(|d| d.client == c2.client)?;
    if c1.pos as i64 - s1.pos as i64 == c2.pos as i64 - s2.pos as i64 {
        return None;
    }
    Some([(c1, *s1), (c2, *s2)])
}

proptest! {
    /// k=2 equivalence on random detection lists: the refactored
    /// `pair_collisions` is the old alignment, element for element.
    #[test]
    fn pair_matches_reference_on_random_lists(
        raw_cur in collection::vec((1u16..5, 0usize..2000), 0..6),
        raw_old in collection::vec((1u16..5, 0usize..2000), 0..6),
    ) {
        let current = dets_from(&raw_cur);
        let stored = dets_from(&raw_old);
        prop_assert_eq!(pair_collisions(&current, &stored), reference_pair(&current, &stored));
    }

    /// Stored-side detection order is irrelevant when clients are
    /// distinct (the alignment is by client id, not list position).
    #[test]
    fn pair_invariant_under_stored_permutation(
        c1 in 0usize..2000, c2 in 0usize..2000,
        s1 in 0usize..2000, s2 in 0usize..2000, s3 in 0usize..2000,
        swap_seed: u64,
    ) {
        let current = dets_from(&[(1, c1), (2, c2)]);
        let mut stored = dets_from(&[(1, s1), (2, s2), (3, s3)]);
        let baseline = pair_collisions(&current, &stored);
        let mut rng = StdRng::seed_from_u64(swap_seed);
        for _ in 0..4 {
            let (i, j) = (rng.gen_range(0..stored.len()), rng.gen_range(0..stored.len()));
            stored.swap(i, j);
            prop_assert_eq!(pair_collisions(&current, &stored), baseline.clone());
        }
    }

    /// A stored collision missing one of the current clients never pairs.
    #[test]
    fn pair_rejects_mismatched_client_sets(
        c1 in 0usize..2000, c2 in 0usize..2000,
        s1 in 0usize..2000, s2 in 0usize..2000,
    ) {
        let current = dets_from(&[(1, c1), (2, c2)]);
        let stored = dets_from(&[(1, s1), (3, s2)]); // client 2 absent
        prop_assert!(pair_collisions(&current, &stored).is_none());
    }

    /// Degenerate-offset regression: any pure time shift is rejected,
    /// not just the historical fully-overlapped special case.
    #[test]
    fn pair_rejects_every_equal_shift_alignment(
        base1 in 0usize..1000, delta in 0usize..500, shift in 0usize..500,
    ) {
        let current = dets_from(&[(1, base1 + shift), (2, base1 + delta + shift)]);
        let stored = dets_from(&[(1, base1), (2, base1 + delta)]);
        prop_assert!(pair_collisions(&current, &stored).is_none(), "shift {shift} must be degenerate");
        // breaking the shift on one packet restores the pairing
        let skewed = dets_from(&[(1, base1), (2, base1 + delta + 7)]);
        prop_assert!(pair_collisions(&current, &skewed).is_some());
    }

    /// `client_key` is order-insensitive, sorted, and duplicate-free.
    #[test]
    fn client_key_is_canonical(
        raw in collection::vec((1u16..6, 0usize..2000), 0..8),
        swap_seed: u64,
    ) {
        let mut dets = dets_from(&raw);
        let baseline = client_key(&dets);
        prop_assert!(baseline.windows(2).all(|w| w[0] < w[1]));
        let mut rng = StdRng::seed_from_u64(swap_seed);
        for _ in 0..4 {
            if dets.len() >= 2 {
                let (i, j) = (rng.gen_range(0..dets.len()), rng.gen_range(0..dets.len()));
                dets.swap(i, j);
            }
            prop_assert_eq!(client_key(&dets), baseline.clone());
        }
    }

    /// The store's keyed candidate lookup matches exactly the entries
    /// whose distinct-client set equals the key, oldest first.
    #[test]
    fn store_candidates_respect_key(
        entries in collection::vec(collection::vec((1u16..4, 0usize..500), 1..4), 1..6),
        probe in collection::vec((1u16..4, 0usize..500), 1..4),
    ) {
        let mut store = CollisionStore::new(16);
        let mut expected = Vec::new();
        let key = client_key(&dets_from(&probe));
        for raw in &entries {
            let dets = dets_from(raw);
            let id = store.insert(Vec::new(), dets.clone());
            if client_key(&dets) == key {
                expected.push(id);
            }
        }
        let got: Vec<u64> = store.candidates(&key).map(|e| e.id).collect();
        prop_assert_eq!(got, expected);
    }
}

/// Builds a k-sender collision workload (k buffers, each containing all
/// k transmissions at the given per-buffer offsets) plus the registry
/// and per-buffer detection lists, mirroring what the receiver front end
/// hands the match layer.
#[allow(clippy::type_complexity)]
fn synth_workload(
    k: usize,
    offs: &[Vec<usize>],
    seed: u64,
) -> (Vec<Vec<Complex>>, Vec<Vec<Detection>>, ClientRegistry) {
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
    let buffers: Vec<Vec<Complex>> = offs
        .iter()
        .map(|o| {
            let placed: Vec<PlacedTx<'_>> =
                (0..k).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: o[i] }).collect();
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

proptest! {
    /// The staged coarse-to-fine funnel is a pure speedup: on random
    /// clean k = 2 and k = 3 workloads it selects exactly the match set
    /// the exhaustive sweep selects — same members, same alignment, and
    /// the same no-match outcomes (degenerate or undetectable layouts
    /// must be rejected identically by both paths).
    #[test]
    fn staged_search_selects_the_exhaustive_match_set(
        seed: u64,
        k_pick in 0u8..2,
    ) {
        let k = 2 + k_pick as usize;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A);
        // k buffers (k − 1 stored + 1 current), each with all k packets
        // at independent offsets — occasionally degenerate by design
        let offs: Vec<Vec<usize>> =
            (0..k).map(|_| (0..k).map(|_| rng.gen_range(0..500)).collect()).collect();
        let (buffers, dets, reg) = synth_workload(k, &offs, seed);
        let pre = Preamble::default_len();
        let mut store = CollisionStore::new(8);
        for (b, d) in buffers[..k - 1].iter().zip(&dets) {
            store.insert(b.clone(), d.clone());
        }
        let cur = &buffers[k - 1];
        let cur_dets = &dets[k - 1];
        let mut ws = Scratch::default();
        let staged =
            find_match_set(MatchSearch::Staged, &mut ws, cur, cur_dets, &store, &reg, &pre);
        let exhaustive =
            find_match_set(MatchSearch::Exhaustive, &mut ws, cur, cur_dets, &store, &reg, &pre);
        prop_assert_eq!(staged, exhaustive);
    }
}

/// Signal-level permutation invariance of the k-way matcher: shuffling
/// the order of a stored entry's detection list (what a different merge
/// order would produce) must not change the match-set alignment.
#[test]
fn kway_match_invariant_under_detection_permutation() {
    let mut rng = StdRng::seed_from_u64(3);
    let omegas = [-0.08, 0.02, 0.09];
    let links: Vec<LinkProfile> =
        (0..3).map(|i| LinkProfile::clean_with_omega(18.0, omegas[i])).collect();
    let airs: Vec<_> = (0..3)
        .map(|i| {
            let f = Frame::with_random_payload(
                0,
                i as u16 + 1,
                i as u16,
                150,
                40_000 + (i as u64 + 1) * 131 + i as u64,
            );
            encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
        })
        .collect();
    let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
    let offs = [[0usize, 310, 620], [0, 620, 310], [100, 0, 450]];
    let buffers: Vec<Vec<Complex>> = offs
        .iter()
        .map(|o| {
            let placed: Vec<PlacedTx<'_>> =
                (0..3).map(|i| PlacedTx { air: &airs[i], base: &chans[i], start: o[i] }).collect();
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
    let stored_dets: Vec<Vec<Detection>> =
        buffers[..2].iter().map(|b| detect_packets(b, &pre, &reg, &cfg, &mut ws)).collect();
    let cur_dets = detect_packets(&buffers[2], &pre, &reg, &cfg, &mut ws);

    let run = |perm_seed: Option<u64>| {
        let mut store = CollisionStore::new(4);
        for (b, dets) in buffers[..2].iter().zip(stored_dets.iter()) {
            let mut dets = dets.clone();
            if let Some(s) = perm_seed {
                let mut prng = StdRng::seed_from_u64(s);
                for i in (1..dets.len()).rev() {
                    dets.swap(i, prng.gen_range(0..=i));
                }
            }
            store.insert(b.clone(), dets);
        }
        let mut ws = Scratch::default();
        find_match_set(MatchSearch::Staged, &mut ws, &buffers[2], &cur_dets, &store, &reg, &pre)
            .expect("3-way set must match")
            .alignment
            .iter()
            .map(|row| row.iter().map(|d| (d.client, d.pos)).collect::<Vec<_>>())
            .collect::<Vec<_>>()
    };
    let baseline = run(None);
    for s in 0..4 {
        assert_eq!(run(Some(s)), baseline, "permutation seed {s} changed the alignment");
    }
}
