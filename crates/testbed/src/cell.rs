//! Signal-level collision resolver for the cell co-simulator.
//!
//! [`SignalResolver`] is the slow path of `zigzag_mac::cell`: the
//! simulator lowers a [`CollisionRound`] here, and this module
//! synthesises the collided air — one quasi-static channel per episode
//! member, fresh per-round phase/timing, slot offsets scaled to PHY
//! symbols plus sub-slot jitter — and decodes it through the real
//! receiver pipeline via [`CollisionService`]. Per-episode receivers
//! keep stored collisions alive across rounds, so ZigZag pairs peel and
//! a later clean solo reaps its buried peers (§4.1).
//!
//! **Determinism.** Every random draw is keyed: member channels by
//! `(seed, episode, station)`, payloads by `(seed, episode, station,
//! seq)`, per-round synthesis by `(seed, episode, round, slot)`. Decode
//! fan-out runs over a `BatchEngine` whose outputs are order-stable, so
//! resolutions are bit-identical across thread counts.

use std::collections::HashMap;

use rand::prelude::*;
use zigzag_channel::fading::{ChannelParams, LinkProfile};
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig};
use zigzag_core::receiver::ReceiverEvent;
use zigzag_core::{CollisionService, EpisodeRound};
use zigzag_mac::cell::{
    mix3, CollisionResolver, CollisionRound, FrameRef, RoundResolution, Verdict,
};
use zigzag_phy::frame::{encode_frame, AirFrame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

const CHAN_TAG: u64 = 0x5a5a_4348_414e_4e45; // "ZZCHANNE"
const FRAME_TAG: u64 = 0x5a5a_4652_414d_4553; // "ZZFRAMES"
const AIR_TAG: u64 = 0x5a5a_4149_5252_4e47; // "ZZAIRRNG"

/// Knobs of the signal-level lowering.
#[derive(Clone, Debug)]
pub struct SignalCellConfig {
    /// Master seed; every stream below derives from it.
    pub seed: u64,
    /// Decode worker threads (`0` = one per CPU).
    pub threads: usize,
    /// Receiver configuration. The default enables the §4.1 solo reap —
    /// without it, lowered solo rounds can never recover peers.
    pub decoder: DecoderConfig,
    /// Per-member link SNR (dB).
    pub snr_db: f64,
    /// Payload bytes of synthesised frames.
    pub payload_bytes: usize,
    /// PHY symbols per MAC slot (802.11g Appendix A: 20 µs slot / 2 µs
    /// symbol = 10).
    pub symbols_per_slot: usize,
    /// Sub-slot start jitter in symbols — the §1 "short random interval"
    /// that gives slot-aligned (ALOHA) collisions their ZigZag Δ.
    pub jitter_symbols: usize,
}

impl SignalCellConfig {
    /// Defaults for `seed`: reaping receiver, 17 dB links, 40-byte
    /// payloads, 802.11g slot scaling, 8-symbol jitter.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            threads: 1,
            decoder: DecoderConfig::with_solo_reap(),
            snr_db: 17.0,
            payload_bytes: 40,
            symbols_per_slot: 10,
            jitter_symbols: 8,
        }
    }
}

/// One episode member's synthesis state: rank-based client identity, the
/// encoded frame, and a quasi-static channel reused across the episode's
/// rounds (fresh phase and sampling offset are drawn per transmission,
/// as in the scenario builders).
struct Member {
    client: u16,
    seq: u32,
    air: AirFrame,
    chan: ChannelParams,
}

struct EpisodeAir {
    members: HashMap<u32, Member>,
    registry: ClientRegistry,
}

/// Decodes lowered collision rounds through the real receiver pipeline.
pub struct SignalResolver {
    cfg: SignalCellConfig,
    svc: CollisionService,
    episodes: HashMap<u64, EpisodeAir>,
    rounds_decoded: u64,
}

impl SignalResolver {
    /// A resolver lowering with `cfg`.
    pub fn new(cfg: SignalCellConfig) -> Self {
        let svc = CollisionService::new(cfg.decoder.clone(), cfg.threads);
        Self { cfg, svc, episodes: HashMap::new(), rounds_decoded: 0 }
    }

    /// Convenience: default config for `seed` over `threads` workers.
    pub fn with_seed(seed: u64, threads: usize) -> Self {
        Self::new(SignalCellConfig { threads, ..SignalCellConfig::new(seed) })
    }

    /// Rounds actually synthesised and decoded so far.
    pub fn rounds_decoded(&self) -> u64 {
        self.rounds_decoded
    }

    /// Episodes currently holding receiver + synthesis state.
    pub fn active_episodes(&self) -> usize {
        self.episodes.len()
    }

    /// Distinct oscillator lane per member rank: the AP tells clients
    /// apart by frequency-compensated correlation (§4.2.1), so every
    /// member of an episode sits at its own ω.
    fn lane(rank: usize) -> f64 {
        0.01 + 0.015 * rank as f64
    }

    /// Gets or creates the member entry for `(station, seq)` in
    /// `episode`, registering it with the episode's receiver registry.
    fn member_for(
        cfg: &SignalCellConfig,
        air: &mut EpisodeAir,
        episode: u64,
        station: u32,
        seq: u32,
    ) -> u16 {
        if let Some(m) = air.members.get(&station) {
            return m.client;
        }
        let rank = air.members.len();
        let client = rank as u16 + 1;
        let link = LinkProfile::clean_with_omega(cfg.snr_db, Self::lane(rank));
        let mut chan_rng =
            StdRng::seed_from_u64(mix3(cfg.seed ^ CHAN_TAG, episode, u64::from(station)));
        let chan = link.draw(&mut chan_rng);
        let payload_seed =
            mix3(cfg.seed ^ FRAME_TAG, episode, (u64::from(station) << 32) | u64::from(seq));
        let frame =
            Frame::with_random_payload(0, client, seq as u16, cfg.payload_bytes, payload_seed);
        let encoded = encode_frame(&frame, Modulation::Bpsk, &Preamble::default_len());
        air.registry.associate(
            client,
            ClientInfo {
                omega: link.association_omega(),
                snr_db: link.snr_db,
                taps: link.isi.clone(),
            },
        );
        air.members.insert(station, Member { client, seq, air: encoded, chan });
        client
    }

    /// Lowers one round to an [`EpisodeRound`]: ensures members exist,
    /// then synthesises the receive buffer.
    fn lower_round(&mut self, round: &CollisionRound) -> EpisodeRound {
        let air = self.episodes.entry(round.episode).or_insert_with(|| EpisodeAir {
            members: HashMap::new(),
            registry: ClientRegistry::new(),
        });
        for tx in &round.txs {
            Self::member_for(&self.cfg, air, round.episode, tx.station, tx.seq);
        }
        let mut rng = StdRng::seed_from_u64(mix3(
            self.cfg.seed ^ AIR_TAG,
            round.episode,
            (u64::from(round.round) << 48) ^ round.slot,
        ));
        let jitter_max = self.cfg.jitter_symbols.max(1);
        let placed: Vec<(usize, &Member)> = round
            .txs
            .iter()
            .map(|tx| {
                let start = tx.offset_slots as usize * self.cfg.symbols_per_slot
                    + rng.gen_range(0..jitter_max as u32) as usize;
                (start, &air.members[&tx.station])
            })
            .collect();
        let placements: Vec<PlacedTx<'_>> = placed
            .iter()
            .map(|(start, m)| PlacedTx { air: &m.air, base: &m.chan, start: *start })
            .collect();
        let synth = synth_collision(&placements, 1.0, &mut rng);
        self.rounds_decoded += 1;
        EpisodeRound {
            episode: round.episode,
            registry: air.registry.clone(),
            buffer: synth.buffer,
        }
    }

    /// Maps one round's receiver events back onto MAC verdicts.
    fn adjudicate(&self, round: &CollisionRound, events: &[ReceiverEvent]) -> RoundResolution {
        let air = &self.episodes[&round.episode];
        let client_to_station: HashMap<u16, (u32, u32)> =
            air.members.iter().map(|(&st, m)| (m.client, (st, m.seq))).collect();
        let mut delivered_stations: Vec<(u32, u32)> = events
            .iter()
            .filter_map(|e| match e {
                ReceiverEvent::Delivered { frame, .. } => {
                    client_to_station.get(&frame.src).copied()
                }
                _ => None,
            })
            .collect();
        delivered_stations.sort_unstable();
        delivered_stations.dedup();
        let stored = events.iter().any(|e| matches!(e, ReceiverEvent::CollisionStored))
            || self.svc.episode_depth(round.episode).unwrap_or(0) > 0;
        let verdicts = round
            .txs
            .iter()
            .map(|tx| {
                if delivered_stations.iter().any(|&(st, _)| st == tx.station) {
                    Verdict::Delivered
                } else if stored {
                    Verdict::Pending
                } else {
                    Verdict::Lost
                }
            })
            .collect();
        // deliveries of members who were NOT transmitting this round can
        // only come from reaping the store (§4.1)
        let mut recovered: Vec<FrameRef> = delivered_stations
            .iter()
            .filter(|(st, _)| !round.txs.iter().any(|tx| tx.station == *st))
            .map(|&(station, seq)| FrameRef { station, seq })
            .collect();
        recovered.sort_unstable();
        RoundResolution { verdicts, recovered, lowered: true }
    }
}

impl CollisionResolver for SignalResolver {
    fn resolve(&mut self, rounds: &[CollisionRound]) -> Vec<RoundResolution> {
        let service_rounds: Vec<EpisodeRound> =
            rounds.iter().map(|r| self.lower_round(r)).collect();
        let events = self.svc.decode_rounds(&service_rounds);
        rounds.iter().zip(&events).map(|(r, ev)| self.adjudicate(r, ev)).collect()
    }

    fn retire(&mut self, episode: u64) {
        self.episodes.remove(&episode);
        self.svc.retire(episode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zigzag_mac::cell::TxAttempt;

    fn pair_round(episode: u64, round_no: u32, slot: u64, d: u32) -> CollisionRound {
        CollisionRound {
            episode,
            round: round_no,
            slot,
            cell: 0,
            txs: vec![
                TxAttempt { station: 10, seq: 3, attempt: round_no - 1, offset_slots: 0 },
                TxAttempt { station: 20, seq: 5, attempt: round_no - 1, offset_slots: d },
            ],
            peers: Vec::new(),
        }
    }

    fn solo_round(episode: u64, round_no: u32, slot: u64) -> CollisionRound {
        CollisionRound {
            episode,
            round: round_no,
            slot,
            cell: 0,
            txs: vec![TxAttempt { station: 10, seq: 3, attempt: round_no, offset_slots: 0 }],
            peers: vec![FrameRef { station: 20, seq: 5 }],
        }
    }

    /// Runs a two-collision episode across a seed range and returns how
    /// often both members were eventually delivered.
    fn pair_success_rate(seeds: std::ops::Range<u64>) -> f64 {
        let total = seeds.end - seeds.start;
        let mut ok = 0u32;
        for seed in seeds {
            let mut r = SignalResolver::with_seed(seed, 1);
            let r1 = r.resolve(&[pair_round(1, 1, 100, 8)]);
            let r2 = r.resolve(&[pair_round(1, 2, 200, 20)]);
            let mut delivered = [false; 2];
            for res in [&r1[0], &r2[0]] {
                for (i, v) in res.verdicts.iter().enumerate() {
                    if *v == Verdict::Delivered {
                        delivered[i] = true;
                    }
                }
                for fr in &res.recovered {
                    if fr.station == 10 {
                        delivered[0] = true;
                    }
                    if fr.station == 20 {
                        delivered[1] = true;
                    }
                }
            }
            if delivered == [true, true] {
                ok += 1;
            }
        }
        f64::from(ok) / total as f64
    }

    #[test]
    fn pair_peels_across_rounds() {
        // decode success per round is probabilistic (timing/phase draws
        // and the size of the interference-free bootstrap stretch);
        // across seeds the two-collision pair must resolve a healthy
        // fraction of the time
        let rate = pair_success_rate(0..24);
        assert!(rate >= 0.4, "pair peel success rate {rate} too low");
    }

    #[test]
    fn first_collision_is_stored_not_lost() {
        let mut r = SignalResolver::with_seed(3, 1);
        let res = r.resolve(&[pair_round(1, 1, 100, 4)]);
        assert!(res[0].lowered);
        assert_eq!(res[0].verdicts.len(), 2);
        assert!(
            res[0].verdicts.iter().any(|v| *v != Verdict::Delivered),
            "a first 2-way collision should not fully resolve: {:?}",
            res[0].verdicts
        );
        assert!(
            res[0].verdicts.iter().all(|v| *v != Verdict::Lost),
            "the stored collision keeps undecoded members pending: {:?}",
            res[0].verdicts
        );
    }

    #[test]
    fn solo_reaps_buried_peer_at_the_signal_level() {
        // collision then a clean solo of station 10: across seeds, the
        // §4.1 reap must recover station 20's frame in a healthy fraction
        let mut reaped = 0u32;
        let trials = 24u64;
        for seed in 0..trials {
            let mut r = SignalResolver::with_seed(seed, 1);
            let _ = r.resolve(&[pair_round(1, 1, 100, 8)]);
            let res = r.resolve(&[solo_round(1, 1, 200)]);
            if res[0].recovered.contains(&FrameRef { station: 20, seq: 5 }) {
                reaped += 1;
            }
        }
        let rate = f64::from(reaped) / trials as f64;
        assert!(rate >= 0.4, "solo reap rate {rate} too low");
    }

    #[test]
    fn resolutions_are_deterministic_across_thread_counts() {
        let rounds1 = [pair_round(1, 1, 100, 4), pair_round(2, 1, 100, 7)];
        let rounds2 = [pair_round(1, 2, 200, 9), solo_round(2, 1, 200)];
        let mut outs = Vec::new();
        for threads in [1, 2, 4] {
            let mut r = SignalResolver::with_seed(11, threads);
            let a = r.resolve(&rounds1);
            let b = r.resolve(&rounds2);
            outs.push((a, b));
        }
        assert_eq!(outs[0], outs[1], "1 vs 2 threads");
        assert_eq!(outs[0], outs[2], "1 vs 4 threads");
    }

    #[test]
    fn retire_releases_state() {
        let mut r = SignalResolver::with_seed(5, 1);
        let _ = r.resolve(&[pair_round(1, 1, 100, 4)]);
        assert_eq!(r.active_episodes(), 1);
        r.retire(1);
        assert_eq!(r.active_episodes(), 0);
    }
}
