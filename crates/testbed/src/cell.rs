//! Signal-level collision resolver for the cell co-simulator.
//!
//! [`SignalResolver`] is the slow path of `zigzag_mac::cell`: the
//! simulator lowers a [`CollisionRound`] here, and this module
//! synthesises the collided air — one quasi-static channel per episode
//! member, fresh per-round phase/timing, slot offsets scaled to PHY
//! symbols plus sub-slot jitter — and decodes it through the real
//! receiver pipeline. Each episode owns one entry: its members and the
//! [`ReceiverCore`] that keeps its stored collisions alive across
//! rounds, so ZigZag pairs peel and a later clean solo reaps its buried
//! peers (§4.1). Rounds of distinct episodes decode in parallel through
//! [`BatchEngine::map_keyed`] (key = episode); one episode's rounds run
//! in batch order on its own receiver.
//!
//! **Determinism.** Every random draw is keyed: member channels by
//! `(seed, episode, station)`, payloads by `(seed, episode, station,
//! seq)`, per-round synthesis by `(seed, episode, round, slot)`. The
//! keyed map's outputs are order-stable and episodes share no state, so
//! resolutions are bit-identical across thread counts.

use std::collections::HashMap;

use rand::prelude::*;
use zigzag_channel::fading::{ChannelParams, LinkProfile};
use zigzag_channel::scenario::{synth_collision, PlacedTx};
use zigzag_core::config::DecoderConfig;
use zigzag_core::engine::{BatchEngine, ReceiverCore};
use zigzag_core::receiver::ReceiverEvent;
use zigzag_mac::cell::{
    mix3, CollisionResolver, CollisionRound, FrameRef, RoundResolution, TxAttempt, Verdict,
};
use zigzag_mac::MacParams;
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, AirFrame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

use crate::experiment::registry_for;

const CHAN_TAG: u64 = 0x5a5a_4348_414e_4e45; // "ZZCHANNE"
const FRAME_TAG: u64 = 0x5a5a_4652_414d_4553; // "ZZFRAMES"
const AIR_TAG: u64 = 0x5a5a_4149_5252_4e47; // "ZZAIRRNG"

/// Per-member link SNR (dB).
const SNR_DB: f64 = 17.0;
/// Payload bytes of synthesised frames.
const PAYLOAD_BYTES: usize = 40;
/// Sub-slot start jitter in symbols — the §1 "short random interval"
/// that gives slot-aligned (ALOHA) collisions their ZigZag Δ.
const JITTER_SYMBOLS: u32 = 8;

/// One episode member's synthesis state: its station and frame, the
/// encoded air, and a quasi-static channel reused across the episode's
/// rounds (fresh phase and sampling offset are drawn per transmission,
/// as in the scenario builders). Its client id is its rank + 1.
struct Member {
    station: u32,
    seq: u32,
    air: AirFrame,
    chan: ChannelParams,
}

/// Everything a lowered episode holds: its members by rank and the
/// receiver that stores its collisions.
struct Episode {
    members: Vec<Member>,
    rx: ReceiverCore,
}

/// The member link of `rank`. Every member sits at its own oscillator
/// lane: the AP tells clients apart by frequency-compensated correlation
/// (§4.2.1).
fn member_link(rank: usize) -> LinkProfile {
    LinkProfile::clean_with_omega(SNR_DB, 0.01 + 0.015 * rank as f64)
}

impl Episode {
    /// Opens `episode` on the first round it is seen in: its
    /// transmitters become the members, and the receiver's registry
    /// associates exactly them.
    fn open(seed: u64, episode: u64, txs: &[TxAttempt]) -> Self {
        let mut members = Vec::new();
        for tx in txs {
            Self::rank_of(&mut members, seed, episode, tx);
        }
        let links: Vec<LinkProfile> = (0..members.len()).map(member_link).collect();
        let clients: Vec<(u16, &LinkProfile)> = (1..).zip(&links).collect();
        Self {
            members,
            rx: ReceiverCore::new(DecoderConfig::with_solo_reap(), registry_for(&clients)),
        }
    }

    /// The rank of `tx`'s station, drawing its member state on first
    /// sight.
    fn rank_of(members: &mut Vec<Member>, seed: u64, episode: u64, tx: &TxAttempt) -> usize {
        if let Some(rank) = members.iter().position(|m| m.station == tx.station) {
            return rank;
        }
        let rank = members.len();
        let mut chan_rng =
            StdRng::seed_from_u64(mix3(seed ^ CHAN_TAG, episode, u64::from(tx.station)));
        let chan = member_link(rank).draw(&mut chan_rng);
        let payload_seed =
            mix3(seed ^ FRAME_TAG, episode, (u64::from(tx.station) << 32) | u64::from(tx.seq));
        let client = rank as u16 + 1;
        let frame =
            Frame::with_random_payload(0, client, tx.seq as u16, PAYLOAD_BYTES, payload_seed);
        let air = encode_frame(&frame, Modulation::Bpsk, &Preamble::default_len());
        members.push(Member { station: tx.station, seq: tx.seq, air, chan });
        rank
    }

    /// Synthesises the receive buffer of `round`, drawing any newcomer's
    /// member state first.
    fn lower(&mut self, seed: u64, round: &CollisionRound) -> Vec<Complex> {
        let ranks: Vec<usize> = round
            .txs
            .iter()
            .map(|tx| Self::rank_of(&mut self.members, seed, round.episode, tx))
            .collect();
        let mut rng = StdRng::seed_from_u64(mix3(
            seed ^ AIR_TAG,
            round.episode,
            (u64::from(round.round) << 48) ^ round.slot,
        ));
        let mac = MacParams::default();
        let placements: Vec<PlacedTx<'_>> = round
            .txs
            .iter()
            .zip(ranks)
            .map(|(tx, rank)| {
                let m = &self.members[rank];
                let start = mac.slots_to_symbols(tx.offset_slots)
                    + rng.gen_range(0..JITTER_SYMBOLS) as usize;
                PlacedTx { air: &m.air, base: &m.chan, start }
            })
            .collect();
        synth_collision(&placements, 1.0, &mut rng).buffer
    }

    /// Maps one round's receiver events back onto MAC verdicts. Reads the
    /// store as it stands after the whole batch.
    fn adjudicate(&self, round: &CollisionRound, events: &[ReceiverEvent]) -> RoundResolution {
        let mut delivered: Vec<FrameRef> = events
            .iter()
            .filter_map(|e| match e {
                ReceiverEvent::Delivered { frame, .. } => {
                    let m = self.members.get(usize::from(frame.src).checked_sub(1)?)?;
                    Some(FrameRef { station: m.station, seq: m.seq })
                }
                _ => None,
            })
            .collect();
        delivered.sort_unstable();
        delivered.dedup();
        let stored = events.iter().any(|e| matches!(e, ReceiverEvent::CollisionStored))
            || !self.rx.store().is_empty();
        let verdicts = round
            .txs
            .iter()
            .map(|tx| {
                if delivered.iter().any(|f| f.station == tx.station) {
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
        let recovered = delivered
            .into_iter()
            .filter(|f| !round.txs.iter().any(|tx| tx.station == f.station))
            .collect();
        RoundResolution { verdicts, recovered, lowered: true }
    }
}

/// Decodes lowered collision rounds through the real receiver pipeline.
pub struct SignalResolver {
    seed: u64,
    engine: BatchEngine,
    episodes: HashMap<u64, Episode>,
    rounds_decoded: u64,
}

impl SignalResolver {
    /// A resolver for master `seed` (every stream derives from it),
    /// decoding over `threads` workers (`0` = one per CPU).
    pub fn with_seed(seed: u64, threads: usize) -> Self {
        Self {
            seed,
            engine: BatchEngine::new(threads),
            episodes: HashMap::new(),
            rounds_decoded: 0,
        }
    }

    /// Rounds actually synthesised and decoded so far.
    pub fn rounds_decoded(&self) -> u64 {
        self.rounds_decoded
    }
}

impl CollisionResolver for SignalResolver {
    fn resolve(&mut self, rounds: &[CollisionRound]) -> Vec<RoundResolution> {
        // check each touched episode out of the map (opening it on first
        // sight), in first-appearance order, and lower its rounds
        let mut slot: HashMap<u64, usize> = HashMap::new();
        let mut touched: Vec<(u64, Episode)> = Vec::new();
        let mut items = Vec::with_capacity(rounds.len());
        for round in rounds {
            let k = *slot.entry(round.episode).or_insert_with(|| {
                let ep = self
                    .episodes
                    .remove(&round.episode)
                    .unwrap_or_else(|| Episode::open(self.seed, round.episode, &round.txs));
                touched.push((round.episode, ep));
                touched.len() - 1
            });
            items.push((k, touched[k].1.lower(self.seed, round)));
        }
        self.rounds_decoded += rounds.len() as u64;
        let events = self.engine.map_keyed(
            &mut touched,
            items,
            |&(k, _)| k,
            |(_, ep), (_, buffer)| ep.rx.process(&buffer),
        );
        let out = rounds
            .iter()
            .zip(&events)
            .map(|(r, ev)| touched[slot[&r.episode]].1.adjudicate(r, ev))
            .collect();
        self.episodes.extend(touched);
        out
    }

    fn retire(&mut self, episode: u64) {
        self.episodes.remove(&episode);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // §4.1 reap must recover station 20's frame in a healthy fraction,
        // and a reap takes the collision out of the episode's store
        let mut reaped = 0u32;
        let trials = 24u64;
        for seed in 0..trials {
            let mut r = SignalResolver::with_seed(seed, 1);
            let _ = r.resolve(&[pair_round(1, 1, 100, 8)]);
            let res = r.resolve(&[solo_round(1, 1, 200)]);
            if res[0].recovered.contains(&FrameRef { station: 20, seq: 5 }) {
                reaped += 1;
                assert!(
                    r.episodes[&1].rx.store().is_empty(),
                    "seed {seed}: reaped air stays stored"
                );
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
        assert_eq!(r.episodes.len(), 1);
        r.retire(1);
        assert!(r.episodes.is_empty());
    }

    #[test]
    fn interleaved_episodes_resolve_as_if_alone() {
        // six episodes, three rounds each (collision, retransmission,
        // solo), interleaved in a scrambled order and split over two
        // batches, so an episode's state must persist between calls
        let mut batch: Vec<CollisionRound> = Vec::new();
        for step in 0..3u32 {
            for e in [3u64, 0, 5, 1, 4, 2] {
                let slot = 100 * u64::from(step + 1);
                batch.push(match step {
                    0 => pair_round(e, 1, slot, 2 + e as u32),
                    1 => pair_round(e, 2, slot, 9 + 2 * e as u32),
                    _ => solo_round(e, 3, slot),
                });
            }
        }
        let batches = [&batch[..7], &batch[7..]];
        // the reference: each episode on its own fresh resolver, fed only
        // its own rounds of each batch
        let mut want = Vec::new();
        let mut alone: HashMap<u64, SignalResolver> = HashMap::new();
        for b in batches {
            let mut out: Vec<Option<RoundResolution>> = vec![None; b.len()];
            for e in 0..6u64 {
                let idx: Vec<usize> = (0..b.len()).filter(|&i| b[i].episode == e).collect();
                let own: Vec<CollisionRound> = idx.iter().map(|&i| b[i].clone()).collect();
                let r = alone.entry(e).or_insert_with(|| SignalResolver::with_seed(7, 1));
                for (i, res) in idx.into_iter().zip(r.resolve(&own)) {
                    out[i] = Some(res);
                }
            }
            want.extend(out.into_iter().map(Option::unwrap));
        }
        assert!(
            want.iter().any(|r| r.verdicts.contains(&Verdict::Delivered)),
            "nothing decoded: the comparison would be vacuous"
        );
        for threads in [1, 2, 4] {
            let mut r = SignalResolver::with_seed(7, threads);
            let got: Vec<RoundResolution> = batches.iter().flat_map(|b| r.resolve(b)).collect();
            assert_eq!(got, want, "episodes interfered at {threads} threads");
            assert_eq!(r.episodes.len(), 6);
        }
    }
}
