//! Per-episode decode service: the seam between a MAC-level cell
//! simulator and the signal-level receiver.
//!
//! The cell co-simulator (`zigzag_mac::cell`) resolves the overwhelming
//! majority of traffic symbolically and lowers only *genuine* collisions
//! to IQ samples. Each lowered collision belongs to an **episode** — one
//! set of contending senders retransmitting until resolution — and
//! ZigZag's whole point is that the rounds of an episode are decoded
//! *jointly*: the first collision is stored, the second is matched and
//! peeled against it, and a later clean solo retransmission reaps the
//! still-buried peers out of the store (§4.1).
//!
//! [`CollisionService`] owns that per-episode receiver state. Rounds
//! arrive batched (everything that closed in one simulated slot); the
//! service decodes them through the [`BatchEngine`]'s keyed map with the
//! episode as key, so independent episodes run in parallel while each
//! episode's rounds stay sequential through its own [`ReceiverCore`].
//! Outputs are returned in input order and are bit-identical across
//! thread counts: episodes share no state. (A sharded batch is the same
//! keyed map with a different key: there one shard core serves many
//! client sets.)

use std::collections::HashMap;

use crate::config::{ClientRegistry, DecoderConfig};
use crate::engine::{BatchEngine, ReceiverCore};
use crate::receiver::ReceiverEvent;
use zigzag_phy::complex::Complex;

/// One lowered round: the synthesized air of everything that overlapped
/// at the AP during one reception window of one episode (`k ≥ 2`
/// transmitters for a true collision, `k = 1` for a solo retransmission
/// offered to the §4.1 reap path).
#[derive(Clone, Debug)]
pub struct EpisodeRound {
    /// Episode key — rounds with the same key share one receiver.
    pub episode: u64,
    /// Association registry for the episode's receiver. Consulted only
    /// when this round is the first the service sees for the episode;
    /// later rounds may pass an empty registry.
    pub registry: ClientRegistry,
    /// The received IQ buffer.
    pub buffer: Vec<Complex>,
}

/// Stateful per-episode decode service over a worker pool.
pub struct CollisionService {
    engine: BatchEngine,
    cfg: DecoderConfig,
    episodes: HashMap<u64, ReceiverCore>,
}

impl CollisionService {
    /// A service decoding with `cfg` over `threads` workers (`0` = one
    /// per CPU). Pass [`DecoderConfig::with_solo_reap`] to enable the
    /// §4.1 clean-retransmission reap — the configuration the cell
    /// simulator's signal resolver wants.
    pub fn new(cfg: DecoderConfig, threads: usize) -> Self {
        Self { engine: BatchEngine::new(threads), cfg, episodes: HashMap::new() }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Episodes currently holding receiver state.
    pub fn active_episodes(&self) -> usize {
        self.episodes.len()
    }

    /// Stored (unresolved) collisions held for `episode`, if it is
    /// active.
    pub fn episode_depth(&self, episode: u64) -> Option<usize> {
        self.episodes.get(&episode).map(|rx| rx.store().len())
    }

    /// Decodes a batch of rounds and returns each round's receiver
    /// events, in input order.
    ///
    /// Rounds of distinct episodes decode in parallel; rounds sharing an
    /// episode run sequentially, in input order, through that episode's
    /// receiver — exactly the semantics of the serial loop, independent
    /// of the worker count.
    pub fn decode_rounds(&mut self, rounds: &[EpisodeRound]) -> Vec<Vec<ReceiverEvent>> {
        // check each touched episode's receiver out of the map (creating
        // it on first sight), in first-appearance order
        let mut slot: HashMap<u64, usize> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut cores: Vec<ReceiverCore> = Vec::new();
        for r in rounds {
            slot.entry(r.episode).or_insert_with(|| {
                order.push(r.episode);
                cores.push(
                    self.episodes
                        .remove(&r.episode)
                        .unwrap_or_else(|| ReceiverCore::new(self.cfg.clone(), r.registry.clone())),
                );
                cores.len() - 1
            });
        }
        let out = self.engine.map_keyed(
            &mut cores,
            rounds.iter().collect(),
            |r| slot[&r.episode],
            |rx, r| rx.process(&r.buffer),
        );
        self.episodes.extend(order.into_iter().zip(cores));
        out
    }

    /// Drops `episode`'s receiver state (stored collisions included).
    /// Call when the MAC layer knows every member frame is delivered or
    /// abandoned — the stored air can no longer help anyone.
    pub fn retire(&mut self, episode: u64) {
        self.episodes.remove(&episode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientInfo;
    use crate::receiver::DecodePath;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::scenario::{clean_reception, hidden_pair};
    use zigzag_phy::frame::{encode_frame, Frame};
    use zigzag_phy::modulation::Modulation;
    use zigzag_phy::preamble::Preamble;

    fn air(src: u16, seq: u16, len: usize) -> zigzag_phy::frame::AirFrame {
        let f = Frame::with_random_payload(0, src, seq, len, 4000 + src as u64 * 13 + seq as u64);
        encode_frame(&f, Modulation::Bpsk, &Preamble::default_len())
    }

    fn registry_for(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
        let mut reg = ClientRegistry::new();
        for (id, l) in links {
            reg.associate(
                *id,
                ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
            );
        }
        reg
    }

    /// One episode's material: two collisions of the same pair plus a
    /// clean solo of sender 1.
    struct Episode {
        registry: ClientRegistry,
        collision1: Vec<Complex>,
        collision2: Vec<Complex>,
        solo: Vec<Complex>,
    }

    fn make_episode(seed: u64) -> Episode {
        // benign links at distinct oscillator lanes: the service tests
        // exercise episode routing and state, not decode robustness — the
        // impairment sweeps live in the receiver and testbed tests
        let mut rng = StdRng::seed_from_u64(seed);
        let la = LinkProfile::clean_with_omega(17.0, 0.015);
        let lb = LinkProfile::clean_with_omega(17.0, 0.035);
        let a = air(1, 7, 300);
        let b = air(2, 9, 300);
        let hp = hidden_pair(&a, &b, &la, &lb, 420, 140, &mut rng);
        let solo = clean_reception(&a, &la, &mut rng);
        Episode {
            registry: registry_for(&[(1, &la), (2, &lb)]),
            collision1: hp.collision1.buffer,
            collision2: hp.collision2.buffer,
            solo: solo.buffer,
        }
    }

    fn delivered(events: &[ReceiverEvent]) -> Vec<(u16, DecodePath)> {
        events
            .iter()
            .filter_map(|e| match e {
                ReceiverEvent::Delivered { frame, path } => Some((frame.src, *path)),
                _ => None,
            })
            .collect()
    }

    /// Seeds whose per-transmission draws (sampling offset, phase, noise)
    /// let both rounds of the pair decode — chunk decoding of 300-byte
    /// frames is genuinely marginal, and the cell model's `p_pair < 1`
    /// encodes exactly that. Found by sweeping `make_episode(0..60)`.
    const GOOD_SEEDS: [u64; 4] = [16, 19, 22, 23];

    #[test]
    fn episodes_decode_jointly_and_in_parallel() {
        // four independent episodes, two rounds each, in one batch: the
        // second round of each must peel against the first (Zigzag path),
        // which only works if rounds of one episode share a receiver
        let eps: Vec<Episode> = GOOD_SEEDS.iter().map(|&s| make_episode(s)).collect();
        let mut svc = CollisionService::new(DecoderConfig::with_solo_reap(), 4);
        let mut rounds = Vec::new();
        for (i, ep) in eps.iter().enumerate() {
            rounds.push(EpisodeRound {
                episode: i as u64,
                registry: ep.registry.clone(),
                buffer: ep.collision1.clone(),
            });
        }
        for (i, ep) in eps.iter().enumerate() {
            rounds.push(EpisodeRound {
                episode: i as u64,
                registry: ClientRegistry::new(),
                buffer: ep.collision2.clone(),
            });
        }
        let out = svc.decode_rounds(&rounds);
        assert_eq!(out.len(), 8);
        for i in 0..4 {
            assert_eq!(out[i], vec![ReceiverEvent::CollisionStored], "episode {i} round 1");
            let got = delivered(&out[4 + i]);
            assert_eq!(got.len(), 2, "episode {i} round 2 must deliver both: {:?}", out[4 + i]);
            assert!(got.contains(&(1, DecodePath::Zigzag)));
            assert!(got.contains(&(2, DecodePath::Zigzag)));
        }
        assert_eq!(svc.active_episodes(), 4);
        for i in 0..4 {
            svc.retire(i as u64);
        }
        assert_eq!(svc.active_episodes(), 0);
    }

    #[test]
    fn solo_round_reaps_the_stored_partner() {
        let ep = make_episode(11);
        let mut svc = CollisionService::new(DecoderConfig::with_solo_reap(), 1);
        let out = svc.decode_rounds(&[
            EpisodeRound { episode: 9, registry: ep.registry.clone(), buffer: ep.collision1 },
            EpisodeRound { episode: 9, registry: ClientRegistry::new(), buffer: ep.solo },
        ]);
        assert_eq!(out[0], vec![ReceiverEvent::CollisionStored]);
        let got = delivered(&out[1]);
        assert!(got.contains(&(1, DecodePath::Standard)), "solo decodes standardly: {got:?}");
        assert!(
            got.contains(&(2, DecodePath::InterferenceCancellation)),
            "partner reaped from the store: {got:?}"
        );
        assert_eq!(svc.episode_depth(9), Some(0), "the reaped collision leaves the store");
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let eps: Vec<Episode> = (0..6).map(|i| make_episode(90 + i)).collect();
        let rounds: Vec<EpisodeRound> = eps
            .iter()
            .enumerate()
            .flat_map(|(i, ep)| {
                [
                    EpisodeRound {
                        episode: i as u64,
                        registry: ep.registry.clone(),
                        buffer: ep.collision1.clone(),
                    },
                    EpisodeRound {
                        episode: i as u64,
                        registry: ClientRegistry::new(),
                        buffer: ep.collision2.clone(),
                    },
                ]
            })
            .collect();
        let mut outs = Vec::new();
        for threads in [1, 2, 4] {
            let mut svc = CollisionService::new(DecoderConfig::with_solo_reap(), threads);
            outs.push(svc.decode_rounds(&rounds));
        }
        assert_eq!(outs[0], outs[1], "1 vs 2 threads");
        assert_eq!(outs[0], outs[2], "1 vs 4 threads");
    }

    #[test]
    fn interleaved_rounds_equal_a_serial_loop_per_episode() {
        // six episodes, three rounds each (collision, retransmission,
        // solo), interleaved in a scrambled order and split over two
        // batches so receiver state must persist between calls
        let eps: Vec<Episode> = (0..6).map(|i| make_episode(90 + i)).collect();
        let mut rounds: Vec<EpisodeRound> = Vec::new();
        for step in 0..3 {
            for i in [3usize, 0, 5, 1, 4, 2] {
                let ep = &eps[i];
                let buffer = [&ep.collision1, &ep.collision2, &ep.solo][step].clone();
                rounds.push(EpisodeRound {
                    episode: 100 + i as u64,
                    registry: if step == 0 { ep.registry.clone() } else { ClientRegistry::new() },
                    buffer,
                });
            }
        }
        // the reference: one ReceiverCore per episode, rounds in order
        let mut serial: HashMap<u64, ReceiverCore> = HashMap::new();
        let want: Vec<Vec<ReceiverEvent>> = rounds
            .iter()
            .map(|r| {
                serial
                    .entry(r.episode)
                    .or_insert_with(|| {
                        ReceiverCore::new(DecoderConfig::with_solo_reap(), r.registry.clone())
                    })
                    .process(&r.buffer)
            })
            .collect();
        assert!(want.iter().flatten().any(|e| matches!(e, ReceiverEvent::Delivered { .. })));
        for threads in [1, 2, 4] {
            let mut svc = CollisionService::new(DecoderConfig::with_solo_reap(), threads);
            let (first, second) = rounds.split_at(7);
            let mut got = svc.decode_rounds(first);
            got.extend(svc.decode_rounds(second));
            assert_eq!(got, want, "service diverged from the serial loop at {threads} threads");
            assert_eq!(svc.active_episodes(), 6);
        }
    }
}
