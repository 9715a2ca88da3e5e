//! The cell-scale discrete-event simulator.
//!
//! One tick per 802.11 slot. Stations are lazy: of a million configured
//! ids, only those whose first arrival falls inside the run are ever
//! materialised, so memory tracks *active* stations. A station's first
//! uniform draw is computed in closed form from its seed, and one at or
//! above a precomputed cutoff is skipped without building its generator
//! or evaluating the geometric gap (two logarithms). The materialised
//! stations form a dense table in ascending id order, each row keeping
//! its cell and sensing group; wheel wakes carry the table index, so a
//! wake reaches its station by one array access, and only the
//! resolver-facing paths (verdicts, §4.1 reap peers) map an id back to
//! its index, by binary search. Each station
//! owns an RNG stream seeded from `(seed, id)` — every decision a station
//! makes consumes only its own stream, so behaviour is independent of
//! event interleaving and decode thread count.
//!
//! Per slot, the loop does two things in a fixed order:
//!
//! 1. **Close receptions.** Every cell whose in-flight component
//!    (maximal run of overlapping transmissions at one AP) ends this
//!    slot resolves: a single transmission delivers symbolically; `k ≥ 2`
//!    becomes a [`CollisionRound`], and all rounds closing this slot go
//!    to the [`CollisionResolver`] as one batch (which the signal-level
//!    resolver fans over `BatchEngine`). Verdicts feed straight back
//!    into [`BackoffState`] and retry counters.
//! 2. **Wake stations.** Arrivals queue a frame and schedule the first
//!    attempt; attempts carrier-sense (DCF) or fire frame-aligned
//!    (slotted ALOHA) and join their cell's component.
//!
//! Every externally visible event is folded into an FNV-1a trace hash —
//! the determinism contract is `trace_hash` equality, bit-for-bit. Most
//! events are carrier-sense deferrals, so the fold takes each field at
//! the byte width it fits: a zero byte's FNV step is a bare multiply,
//! and the high zero bytes fold into one.

use super::{
    hash_fraction, mix2, CollisionResolver, CollisionRound, Discipline, FrameRef, SensingGraph,
    TxAttempt, Verdict,
};
use crate::backoff::BackoffState;
use crate::cell::wheel::{EventWheel, Wake};
use crate::params::MacParams;
use rand::prelude::*;
use std::collections::HashMap;

const STATION_TAG: u64 = 0x5a5a_5354_4154_494f; // "ZZSTATIO"

/// How stations source traffic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalModel {
    /// Aggregate Poisson offered load of `per_slot` frames per slot,
    /// spread over the station population (per-station geometric
    /// inter-arrival gaps; arrivals are suppressed while a station's
    /// previous frame is still in service).
    Poisson {
        /// Offered frames per slot across the whole population.
        per_slot: f64,
    },
    /// Every station always has a frame queued (saturation analysis).
    Saturated,
}

/// Full configuration of one cell-simulation run.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Station population (ids `0..stations`).
    pub stations: u32,
    /// Slots of traffic generation. Components still in flight at the
    /// end are drained (no new transmissions start after this).
    pub slots: u64,
    /// The MAC discipline every station runs.
    pub discipline: Discipline,
    /// Who senses whom, and the cell/AP layout.
    pub sensing: SensingGraph,
    /// Traffic model.
    pub arrivals: ArrivalModel,
    /// Transmission duration in slots.
    pub packet_slots: u32,
    /// SIFS + ACK turnaround in slots (feedback reaches the sender this
    /// many slots after the reception closes).
    pub ack_slots: u32,
    /// 802.11 timing/contention parameters.
    pub mac: MacParams,
    /// Master seed; all station and resolver streams derive from it.
    pub seed: u64,
    /// Keep the full event list in [`CellOutcome::trace`] (the hash is
    /// always computed).
    pub record_trace: bool,
}

/// Per-station outcome counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StationCounters {
    /// Frames that arrived at this station.
    pub offered: u32,
    /// Frames delivered (acked).
    pub delivered: u32,
    /// Frames dropped at the retry limit.
    pub dropped: u32,
    /// Collision verdicts received (retries caused).
    pub collisions: u32,
    /// Carrier-sense deferrals.
    pub defers: u32,
}

/// One simulator event, as folded into the trace hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A frame arrived at a station.
    Arrival {
        /// Slot of the arrival.
        slot: u64,
        /// Station id.
        station: u32,
    },
    /// A station started transmitting.
    TxStart {
        /// Slot the transmission starts.
        slot: u64,
        /// Station id.
        station: u32,
        /// Backoff stage in effect (collisions so far for this frame).
        stage: u32,
    },
    /// A DCF station sensed the medium busy and deferred.
    Defer {
        /// Slot of the deferral.
        slot: u64,
        /// Station id.
        station: u32,
        /// Backoff stage — unchanged by the deferral.
        stage: u32,
    },
    /// A resolver round closed at an AP: a `k ≥ 2` collision, or a
    /// `k = 1` solo retransmission routed through the resolver because
    /// its peers may still be reaped from stored collisions (§4.1).
    Collision {
        /// Slot the reception closed.
        slot: u64,
        /// Cell (AP) index.
        cell: u32,
        /// Number of overlapping transmissions (1 for a reap round).
        k: u32,
        /// Episode key.
        episode: u64,
        /// 1-based collision count of the episode.
        round: u32,
        /// Whether the round was lowered to the signal level.
        lowered: bool,
    },
    /// A frame was delivered.
    Deliver {
        /// Slot the verdict was applied.
        slot: u64,
        /// Station id.
        station: u32,
        /// `true` if the delivering decode ran at the signal level.
        lowered: bool,
    },
    /// A frame was dropped at the retry limit.
    Drop {
        /// Slot of the drop.
        slot: u64,
        /// Station id.
        station: u32,
    },
}

/// Aggregate run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Stations that ever became active.
    pub stations_active: u64,
    /// Frames offered.
    pub offered_frames: u64,
    /// Frames delivered.
    pub delivered_frames: u64,
    /// Frames dropped at the retry limit.
    pub dropped_frames: u64,
    /// Clean single-transmission receptions (resolved symbolically).
    pub singles: u64,
    /// Collision rounds (`k ≥ 2`) handed to the resolver.
    pub collision_rounds: u64,
    /// Solo-retransmission rounds handed to the resolver because the
    /// transmitter had live collision episodes (§4.1 reap opportunities).
    pub recovery_rounds: u64,
    /// Frames delivered by §4.1 reaping — the peer never retransmitted.
    pub recovered_frames: u64,
    /// Rounds actually lowered to the signal level.
    pub lowered_rounds: u64,
    /// Deliveries whose verdict came from a signal-level decode.
    pub lowered_deliveries: u64,
    /// Retries caused by a signal-level verdict.
    pub lowered_retries: u64,
    /// Carrier-sense deferrals.
    pub defers: u64,
    /// Transmissions started.
    pub tx_starts: u64,
    /// Widest collision seen (k).
    pub max_k: u32,
    /// Frames still unresolved when the run ended.
    pub in_flight_at_end: u64,
}

impl CellStats {
    /// Delivered frames per traffic slot.
    pub fn throughput(&self, slots: u64) -> f64 {
        self.delivered_frames as f64 / slots.max(1) as f64
    }

    /// Number of [`TraceEvent`]s the run folded into its trace hash: one
    /// per arrival, transmission start, deferral, resolver round,
    /// delivery and drop.
    pub fn trace_events(&self) -> u64 {
        self.offered_frames
            + self.tx_starts
            + self.defers
            + self.collision_rounds
            + self.recovery_rounds
            + self.delivered_frames
            + self.dropped_frames
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Aggregate statistics.
    pub stats: CellStats,
    /// FNV-1a hash over every [`TraceEvent`] — the determinism witness.
    pub trace_hash: u64,
    /// The full event list, if [`CellConfig::record_trace`] was set.
    pub trace: Vec<TraceEvent>,
    /// Counters of every station that became active, sorted by id.
    pub counters: Vec<(u32, StationCounters)>,
}

/// The gap [`geometric`] returns for a success probability of zero.
const NEVER: u64 = u64::MAX / 4;

/// Relative widening of the first-arrival cutoff. The cutoff and
/// [`geometric_from`] share `ln(1 − p)`, so they disagree only by a few
/// ulps of rounding; widening by far more than that keeps every skipped
/// draw one that [`geometric_from`] would also have put past the run.
const CUTOFF_MARGIN: f64 = 1e-9;

/// Absolute widening of the first-arrival cutoff. [`geometric_from`]
/// sees `u` only through `1 − u`, rounded to the grid of doubles below 1
/// (spacing `EPSILON / 2`). For a cutoff under about 1e-7 — a small
/// `slots · p` — the relative margin is finer than that grid, and a draw
/// just above the cutoff can round back onto an in-run gap; eight grid
/// steps put every skipped draw strictly past it.
const CUTOFF_FLOOR: f64 = 4.0 * f64::EPSILON;

/// Geometric inter-arrival gap: number of Bernoulli(`p`) slots until the
/// first success, `≥ 1`. `p ≤ 0`, or a `p` so small that `1 − p` rounds
/// to 1, returns effectively-never. Draws one uniform unless `p ≤ 0` or
/// `p ≥ 1`.
pub fn geometric<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
    if p >= 1.0 || p <= 0.0 {
        return geometric_from(0.0, p);
    }
    geometric_from(rng.next_f64(), p)
}

/// [`geometric`]'s gap for the uniform draw `u ∈ [0, 1)`, by inversion.
/// A `p` so small that `1 − p` rounds to 1 is effectively never, like
/// `p ≤ 0`.
fn geometric_from(u: f64, p: f64) -> u64 {
    if p >= 1.0 {
        return 1;
    }
    let log_q = (1.0 - p).ln();
    if p <= 0.0 || log_q == 0.0 {
        return NEVER;
    }
    let gap = ((1.0 - u).ln() / log_q).floor();
    (gap as u64).saturating_add(1).min(NEVER)
}

/// The first-arrival cutoff for `0 < p < 1`: a station whose first
/// uniform is at least this has [`geometric_from`]` − 1 ≥ slots`, so its
/// first arrival falls outside a run of `slots` slots. The exact bound is
/// `P(first < slots) = 1 − (1 − p)^slots`, computed with the same
/// `ln(1 − p)` as [`geometric_from`] and widened by [`CUTOFF_MARGIN`]
/// and [`CUTOFF_FLOOR`].
fn first_arrival_cutoff(p: f64, slots: u64) -> f64 {
    -(slots as f64 * (1.0 - p).ln()).exp_m1() * (1.0 + CUTOFF_MARGIN) + CUTOFF_FLOOR
}

/// A uniform cutoff as a bound on a raw draw's top 53 bits. The uniform
/// is those bits times 2⁻⁵³ exactly, so it reaches `u_cut` iff they
/// reach ⌈u_cut·2⁵³⌉.
fn cutoff_bits(u_cut: f64) -> u64 {
    (u_cut * (1u64 << 53) as f64).ceil() as u64
}

/// [`Station::pending_attempt`] with no attempt queued: past every slot a
/// wheel can hold. A plain `u64` rather than an `Option` keeps a station
/// row at 112 bytes with the sensing coordinates in it.
const NO_ATTEMPT: u64 = u64::MAX;

struct Station {
    rng: StdRng,
    /// The station's cell (AP) and its sensing group within that cell,
    /// from [`SensingGraph::cell_of`] and [`SensingGraph::group_of`] at
    /// materialisation.
    cell: u32,
    group: u32,
    backoff: BackoffState,
    retries: u32,
    seq: u32,
    has_frame: bool,
    /// The slot of this station's one outstanding attempt wake, or
    /// [`NO_ATTEMPT`]. A wake only fires when it matches — a §4.1 peer
    /// recovery delivers the frame while its retransmission wake is still
    /// queued, and the stale wake must fall through.
    pending_attempt: u64,
    episodes: Vec<u64>,
    counters: StationCounters,
}

impl Station {
    fn new(rng: StdRng, cell: u32, group: u32) -> Self {
        Self {
            rng,
            cell,
            group,
            backoff: BackoffState::new(),
            retries: 0,
            seq: 0,
            has_frame: false,
            pending_attempt: NO_ATTEMPT,
            episodes: Vec::new(),
            counters: StationCounters::default(),
        }
    }

    /// Whether the frame `seq` is still in service here.
    fn serving(&self, seq: u32) -> bool {
        self.has_frame && self.seq == seq
    }

    /// Queues this station's one attempt wake (at table index `index`).
    /// Beyond the horizon the run is over and the frame counts as
    /// in-flight at the end.
    fn await_attempt(&mut self, wheel: &mut EventWheel, index: u32, slot: u64) {
        self.pending_attempt = slot;
        let _ = wheel.schedule(slot, Wake::Attempt(index));
    }
}

#[derive(Clone, Copy)]
struct Tx {
    /// Dense table index of the transmitter.
    index: u32,
    /// Its station id.
    station: u32,
    seq: u32,
    attempt: u32,
    start: u64,
}

#[derive(Default)]
struct Component {
    txs: Vec<Tx>,
    close_at: u64,
}

/// Book-keeping for one collision episode (a set of frames that collided
/// together at least once).
struct EpisodeState {
    /// The `(station, seq)` members, sorted.
    members: Vec<(u32, u32)>,
    /// Collisions accumulated so far.
    rounds: u32,
    /// Members whose frames are still in service; the episode retires
    /// (and the resolver may release its stored air) only when this
    /// reaches zero — a §4.1 reap can still need the store after *one*
    /// member finished.
    live: u32,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^n`, wrapping.
const fn fnv_prime_pow(n: u32) -> u64 {
    let mut p = 1u64;
    let mut i = 0;
    while i < n {
        p = p.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    p
}

/// FNV-1a over the eight little-endian bytes of `v`, whose bytes above
/// the low `N` are zero. A zero byte's step only multiplies by the
/// prime, so the `8 − N` high bytes fold into one multiply by
/// `P^(8 − N)`: the same hash as eight byte steps.
#[inline(always)]
fn fnv_low<const N: u32>(mut h: u64, v: u64) -> u64 {
    debug_assert!(N >= 8 || v >> (8 * N) == 0, "{v:#x} is wider than {N} bytes");
    for i in 0..N {
        h ^= (v >> (8 * i)) & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    if N < 8 {
        h.wrapping_mul(const { fnv_prime_pow(8 - N) })
    } else {
        h
    }
}

/// FNV-1a over the eight little-endian bytes of `v`.
fn fnv_word(h: u64, v: u64) -> u64 {
    fnv_low::<8>(h, v)
}

/// [`fnv_word`] of a `u32` field.
#[inline(always)]
fn fnv_u32(h: u64, v: u32) -> u64 {
    fnv_low::<4>(h, u64::from(v))
}

/// [`fnv_word`] of an event tag or a flag: one byte.
#[inline(always)]
fn fnv_byte(h: u64, v: u8) -> u64 {
    fnv_low::<1>(h, u64::from(v))
}

/// [`fnv_word`] of a slot number. Slots only grow, so each width test
/// flips once per run and the branches are predicted.
#[inline(always)]
fn fnv_slot(h: u64, slot: u64) -> u64 {
    if slot >> 16 == 0 {
        fnv_low::<2>(h, slot)
    } else if slot >> 32 == 0 {
        fnv_low::<4>(h, slot)
    } else {
        fnv_low::<8>(h, slot)
    }
}

/// [`fnv_word`] of a station id. Every id of a population under 2²⁴
/// takes the first branch.
#[inline(always)]
fn fnv_station(h: u64, id: u32) -> u64 {
    if id >> 24 == 0 {
        fnv_low::<3>(h, u64::from(id))
    } else {
        fnv_low::<4>(h, u64::from(id))
    }
}

/// [`fnv_word`] of a backoff stage, which the retry limit keeps far
/// below 256.
#[inline(always)]
fn fnv_stage(h: u64, stage: u32) -> u64 {
    if stage >> 8 == 0 {
        fnv_low::<1>(h, u64::from(stage))
    } else {
        fnv_low::<4>(h, u64::from(stage))
    }
}

fn episode_key(txs: &[Tx]) -> u64 {
    let mut keys: Vec<u64> =
        txs.iter().map(|t| (u64::from(t.station) << 32) | u64::from(t.seq)).collect();
    keys.sort_unstable();
    let mut h = FNV_OFFSET;
    for k in keys {
        h = fnv_word(h, k);
    }
    h
}

fn align_up(x: u64, m: u64) -> u64 {
    let m = m.max(1);
    x.div_ceil(m) * m
}

/// The FNV-1a trace hash, and the event list when it is recorded.
struct TraceLog {
    hash: u64,
    record: bool,
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Folds `ev` into the hash: every field as a little-endian `u64`,
    /// each narrow field through the [`fnv_low`] width it fits.
    fn emit(&mut self, ev: TraceEvent) {
        let h = self.hash;
        self.hash = match ev {
            TraceEvent::Arrival { slot, station } => {
                fnv_station(fnv_slot(fnv_byte(h, 1), slot), station)
            }
            TraceEvent::TxStart { slot, station, stage } => {
                fnv_stage(fnv_station(fnv_slot(fnv_byte(h, 2), slot), station), stage)
            }
            TraceEvent::Defer { slot, station, stage } => {
                fnv_stage(fnv_station(fnv_slot(fnv_byte(h, 3), slot), station), stage)
            }
            TraceEvent::Collision { slot, cell, k, episode, round, lowered } => {
                let x = fnv_u32(fnv_slot(fnv_byte(h, 4), slot), cell);
                let x = fnv_u32(fnv_word(fnv_u32(x, k), episode), round);
                fnv_byte(x, u8::from(lowered))
            }
            TraceEvent::Deliver { slot, station, lowered } => {
                fnv_byte(fnv_station(fnv_slot(fnv_byte(h, 5), slot), station), u8::from(lowered))
            }
            TraceEvent::Drop { slot, station } => {
                fnv_station(fnv_slot(fnv_byte(h, 6), slot), station)
            }
        };
        if self.record {
            self.events.push(ev);
        }
    }
}

/// Releases a finished frame's episodes: each loses one live member,
/// and an episode with none left is queued for retirement.
fn finish_episodes(
    frame_episodes: &mut Vec<u64>,
    episodes: &mut HashMap<u64, EpisodeState>,
    retired: &mut Vec<u64>,
) {
    for ep in frame_episodes.drain(..) {
        if let Some(state) = episodes.get_mut(&ep) {
            state.live = state.live.saturating_sub(1);
            if state.live == 0 {
                retired.push(ep);
            }
        }
    }
}

struct Sim<'a> {
    cfg: &'a CellConfig,
    arrival_p: f64,
    horizon: u64,
    /// Ids of the materialised stations, ascending. A station's position
    /// here is its dense index: `stations[i]` is station `ids[i]`, and
    /// wheel wakes carry `i`.
    ids: Vec<u32>,
    stations: Vec<Station>,
    wheel: EventWheel,
    media: Vec<Component>,
    /// Per sensing group, cell-major (`cell · groups_per_cell + group`):
    /// the slot through which the group's latest transmission and its
    /// ACK keep the medium busy.
    busy_until: Vec<u64>,
    closes: Vec<Vec<u32>>,
    episodes: HashMap<u64, EpisodeState>,
    retired: Vec<u64>,
    stats: CellStats,
    log: TraceLog,
}

impl<'a> Sim<'a> {
    fn new(cfg: &'a CellConfig) -> Self {
        let horizon = cfg.slots + u64::from(cfg.packet_slots) + u64::from(cfg.ack_slots) + 2;
        let arrival_p = match cfg.arrivals {
            ArrivalModel::Poisson { per_slot } => {
                (per_slot / cfg.stations.max(1) as f64).clamp(0.0, 1.0)
            }
            ArrivalModel::Saturated => 1.0,
        };
        Sim {
            cfg,
            arrival_p,
            horizon,
            ids: Vec::new(),
            stations: Vec::new(),
            wheel: EventWheel::new(horizon),
            media: (0..cfg.sensing.cells()).map(|_| Component::default()).collect(),
            busy_until: vec![0; cfg.sensing.group_count()],
            closes: vec![Vec::new(); horizon as usize],
            episodes: HashMap::new(),
            retired: Vec::new(),
            stats: CellStats::default(),
            log: TraceLog { hash: FNV_OFFSET, record: cfg.record_trace, events: Vec::new() },
        }
    }

    /// Dense index of station `id`, if it was ever materialised.
    fn index_of(&self, id: u32) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Whether station `id` is still serving frame `seq`.
    fn serving(&self, id: u32, seq: u32) -> bool {
        self.index_of(id).is_some_and(|i| self.stations[i].serving(seq))
    }

    /// Materialises every station whose first arrival falls inside the
    /// run, in ascending id order. For Poisson arrivals a station's first
    /// uniform draw decides, and it is computed in closed form
    /// ([`StdRng::first_u64`]) without building the generator; a draw at
    /// or above [`first_arrival_cutoff`] is skipped without evaluating
    /// [`geometric_from`]. Only a station that stays gets its generator,
    /// advanced past that first draw, so its stream is the one it would
    /// have had if the draw came from the generator.
    fn init_arrivals(&mut self) {
        let seed = self.cfg.seed ^ STATION_TAG;
        let p = self.arrival_p;
        // `None`: every station arrives in slot 0 without a draw
        // (saturation, or a per-station probability of 1)
        let cutoff = match self.cfg.arrivals {
            ArrivalModel::Poisson { .. } if p < 1.0 => {
                Some(cutoff_bits(first_arrival_cutoff(p, self.cfg.slots)))
            }
            _ => None,
        };
        let sensing = &self.cfg.sensing;
        for id in 0..self.cfg.stations {
            let key = mix2(seed, u64::from(id));
            let first = match cutoff {
                None => 0,
                Some(bits_cut) => {
                    let x = StdRng::first_u64(key);
                    if x >> 11 >= bits_cut {
                        continue;
                    }
                    geometric_from(hash_fraction(x), p) - 1
                }
            };
            if first < self.cfg.slots {
                let mut rng = StdRng::seed_from_u64(key);
                if cutoff.is_some() {
                    // the first draw, already taken in closed form
                    rng.next_u64();
                }
                self.wheel.schedule(first, Wake::Arrival(self.ids.len() as u32));
                self.ids.push(id);
                self.stations.push(Station::new(rng, sensing.cell_of(id), sensing.group_of(id)));
            }
        }
        self.stats.stations_active = self.ids.len() as u64;
    }

    fn on_arrival(&mut self, i: usize, t: u64) {
        let id = self.ids[i];
        let st = &mut self.stations[i];
        debug_assert!(!st.has_frame, "arrival while a frame is in service");
        st.has_frame = true;
        st.retries = 0;
        st.seq = st.counters.offered;
        st.counters.offered += 1;
        self.stats.offered_frames += 1;
        self.log.emit(TraceEvent::Arrival { slot: t, station: id });
        let at = match self.cfg.discipline {
            Discipline::Dcf { policy } => {
                t + 1 + u64::from(st.backoff.draw(policy, &self.cfg.mac, &mut st.rng))
            }
            Discipline::SlottedAloha { .. } => align_up(t + 1, u64::from(self.cfg.packet_slots)),
        };
        st.await_attempt(&mut self.wheel, i as u32, at);
    }

    fn on_attempt(&mut self, i: usize, t: u64) {
        if t >= self.cfg.slots {
            // generation window over: the frame stays queued and is
            // counted as in-flight at the end
            return;
        }
        let id = self.ids[i];
        let st = &mut self.stations[i];
        if !st.has_frame || st.pending_attempt != t {
            // stale wake: the frame was delivered by a §4.1 reap (or
            // rescheduled) while this wake sat in the wheel
            return;
        }
        st.pending_attempt = NO_ATTEMPT;
        if let Discipline::Dcf { policy } = self.cfg.discipline {
            let sensing = &self.cfg.sensing;
            let base = (st.cell * sensing.groups_per_cell()) as usize;
            let mut release = 0u64;
            let mut sensed = false;
            for g in 0..sensing.groups_per_cell() {
                let busy = self.busy_until[base + g as usize];
                if busy > t {
                    let p = sensing.group_sense_prob(st.group, g);
                    let hit = p >= 1.0 || (p > 0.0 && st.rng.gen_bool(p));
                    if hit {
                        sensed = true;
                        release = release.max(busy);
                    }
                }
            }
            if sensed {
                st.counters.defers += 1;
                st.backoff.on_defer();
                self.stats.defers += 1;
                self.log.emit(TraceEvent::Defer {
                    slot: t,
                    station: id,
                    stage: st.backoff.stage(),
                });
                let d = u64::from(st.backoff.draw(policy, &self.cfg.mac, &mut st.rng));
                st.await_attempt(&mut self.wheel, i as u32, release + 1 + d);
                return;
            }
        }
        self.start_tx(i, t);
    }

    fn start_tx(&mut self, i: usize, t: u64) {
        let id = self.ids[i];
        let st = &self.stations[i];
        self.log.emit(TraceEvent::TxStart { slot: t, station: id, stage: st.backoff.stage() });
        self.stats.tx_starts += 1;
        let cell = st.cell as usize;
        let end = t + u64::from(self.cfg.packet_slots);
        let comp = &mut self.media[cell];
        if comp.txs.is_empty() {
            comp.close_at = end;
        } else {
            debug_assert!(comp.close_at > t, "joining a closed component");
            comp.close_at = comp.close_at.max(end);
        }
        comp.txs.push(Tx {
            index: i as u32,
            station: id,
            seq: st.seq,
            attempt: st.retries,
            start: t,
        });
        let close_at = comp.close_at;
        if let Some(bucket) = self.closes.get_mut(close_at as usize) {
            bucket.push(cell as u32);
        }
        let g = (st.cell * self.cfg.sensing.groups_per_cell() + st.group) as usize;
        let busy_through = end + u64::from(self.cfg.ack_slots);
        self.busy_until[g] = self.busy_until[g].max(busy_through);
    }

    fn feedback(&mut self, i: usize, seq: u32, verdict: Verdict, t: u64, lowered: bool) {
        let station = self.ids[i];
        let st = &mut self.stations[i];
        debug_assert!(st.serving(seq), "verdict for a stale frame");
        let finished = match verdict {
            Verdict::Delivered => {
                st.counters.delivered += 1;
                st.backoff.on_success();
                self.stats.delivered_frames += 1;
                if lowered {
                    self.stats.lowered_deliveries += 1;
                }
                self.log.emit(TraceEvent::Deliver { slot: t, station, lowered });
                true
            }
            Verdict::Pending | Verdict::Lost => {
                st.counters.collisions += 1;
                st.retries += 1;
                st.backoff.on_collision();
                if lowered {
                    self.stats.lowered_retries += 1;
                }
                if st.retries > self.cfg.mac.retry_limit {
                    st.counters.dropped += 1;
                    st.backoff.on_drop();
                    self.stats.dropped_frames += 1;
                    self.log.emit(TraceEvent::Drop { slot: t, station });
                    true
                } else {
                    let earliest = t + u64::from(self.cfg.ack_slots) + 1;
                    let at = match self.cfg.discipline {
                        Discipline::Dcf { policy } => {
                            earliest
                                + u64::from(st.backoff.draw(policy, &self.cfg.mac, &mut st.rng))
                        }
                        Discipline::SlottedAloha { backoff } => {
                            let frame = u64::from(self.cfg.packet_slots);
                            let delay = backoff.delay_frames(st.backoff.stage(), &mut st.rng);
                            align_up(earliest, frame) + (delay - 1) * frame
                        }
                    };
                    st.await_attempt(&mut self.wheel, i as u32, at);
                    false
                }
            }
        };
        if finished {
            st.retries = 0;
            st.has_frame = false;
            st.pending_attempt = NO_ATTEMPT;
            finish_episodes(&mut st.episodes, &mut self.episodes, &mut self.retired);
            let next = match self.cfg.arrivals {
                ArrivalModel::Saturated => t + 1,
                ArrivalModel::Poisson { .. } => t + geometric(&mut st.rng, self.arrival_p),
            };
            if next < self.cfg.slots {
                self.wheel.schedule(next, Wake::Arrival(i as u32));
            }
        }
    }

    /// [`Self::feedback`] for a verdict the resolver addressed by station
    /// id.
    fn feedback_id(&mut self, station: u32, seq: u32, verdict: Verdict, t: u64, lowered: bool) {
        let i = self.index_of(station).expect("verdict for unknown station");
        self.feedback(i, seq, verdict, t, lowered);
    }

    fn close_components(&mut self, t: u64, resolver: &mut dyn CollisionResolver) {
        let mut due = std::mem::take(&mut self.closes[t as usize]);
        if due.is_empty() {
            return;
        }
        due.sort_unstable();
        due.dedup();
        let mut batch: Vec<CollisionRound> = Vec::new();
        for cell in due {
            let comp = &mut self.media[cell as usize];
            if comp.close_at != t || comp.txs.is_empty() {
                continue; // superseded by a later extension of the component
            }
            let mut txs = std::mem::take(&mut comp.txs);
            // index order is id order
            txs.sort_by_key(|tx| (tx.start, tx.index));
            if txs.len() == 1 {
                let tx = txs[0];
                // §4.1 reap opportunity: a solo retransmission of a frame
                // whose earlier attempts sit in stored collisions routes
                // through the resolver as a k = 1 round so the buried
                // peers can be recovered. A solo with no live episodes
                // stays on the symbolic fast path.
                let (episode, round_no, peers) = self.solo_reap_target(tx.index as usize);
                if peers.is_empty() {
                    self.stats.singles += 1;
                    self.feedback(tx.index as usize, tx.seq, Verdict::Delivered, t, false);
                    continue;
                }
                self.stats.recovery_rounds += 1;
                batch.push(CollisionRound {
                    episode,
                    round: round_no,
                    slot: t,
                    cell,
                    txs: vec![TxAttempt {
                        station: tx.station,
                        seq: tx.seq,
                        attempt: tx.attempt,
                        offset_slots: 0,
                    }],
                    peers,
                });
                continue;
            }
            self.stats.max_k = self.stats.max_k.max(txs.len() as u32);
            self.stats.collision_rounds += 1;
            let episode = episode_key(&txs);
            let state = self.episodes.entry(episode).or_insert_with(|| {
                let mut members: Vec<(u32, u32)> =
                    txs.iter().map(|tx| (tx.station, tx.seq)).collect();
                members.sort_unstable();
                EpisodeState { members, rounds: 0, live: txs.len() as u32 }
            });
            state.rounds += 1;
            let round_no = state.rounds;
            let base = txs.iter().map(|tx| tx.start).min().unwrap_or(t);
            for tx in &txs {
                let st = &mut self.stations[tx.index as usize];
                if !st.episodes.contains(&episode) {
                    st.episodes.push(episode);
                }
            }
            batch.push(CollisionRound {
                episode,
                round: round_no,
                slot: t,
                cell,
                txs: txs
                    .iter()
                    .map(|tx| TxAttempt {
                        station: tx.station,
                        seq: tx.seq,
                        attempt: tx.attempt,
                        offset_slots: (tx.start - base) as u32,
                    })
                    .collect(),
                peers: Vec::new(),
            });
        }
        if !batch.is_empty() {
            let resolutions = resolver.resolve(&batch);
            assert_eq!(resolutions.len(), batch.len(), "resolver returned a full batch");
            for (round, res) in batch.iter().zip(&resolutions) {
                assert_eq!(res.verdicts.len(), round.txs.len(), "one verdict per transmission");
                if res.lowered {
                    self.stats.lowered_rounds += 1;
                }
                self.log.emit(TraceEvent::Collision {
                    slot: t,
                    cell: round.cell,
                    k: round.txs.len() as u32,
                    episode: round.episode,
                    round: round.round,
                    lowered: res.lowered,
                });
                for (tx, v) in round.txs.iter().zip(&res.verdicts) {
                    self.feedback_id(tx.station, tx.seq, *v, t, res.lowered);
                }
                // §4.1 reap deliveries: guarded, because an earlier round
                // of this same batch may already have finished the peer
                for fr in &res.recovered {
                    if self.serving(fr.station, fr.seq) {
                        self.stats.recovered_frames += 1;
                        self.feedback_id(fr.station, fr.seq, Verdict::Delivered, t, res.lowered);
                    }
                }
            }
        }
        if !self.retired.is_empty() {
            let mut retired = std::mem::take(&mut self.retired);
            retired.sort_unstable();
            retired.dedup();
            for ep in retired {
                self.episodes.remove(&ep);
                resolver.retire(ep);
            }
        }
    }

    /// For a solo transmission by the station at index `i`: the most
    /// recent live episode (its key and accumulated round count) and every
    /// still-pending peer frame across *all* of the station's live
    /// episodes — the §4.1 reap set. Empty peers ⇒ no reap opportunity.
    fn solo_reap_target(&self, i: usize) -> (u64, u32, Vec<FrameRef>) {
        let station = self.ids[i];
        let st = &self.stations[i];
        let Some(&episode) = st.episodes.last() else {
            return (0, 0, Vec::new());
        };
        let mut peers: Vec<FrameRef> = Vec::new();
        for ep in &st.episodes {
            if let Some(state) = self.episodes.get(ep) {
                for &(s, q) in &state.members {
                    if s == station {
                        continue;
                    }
                    if self.serving(s, q) && !peers.contains(&FrameRef { station: s, seq: q }) {
                        peers.push(FrameRef { station: s, seq: q });
                    }
                }
            }
        }
        peers.sort_unstable();
        let rounds = self.episodes.get(&episode).map_or(0, |s| s.rounds);
        (episode, rounds, peers)
    }

    fn finish(mut self) -> CellOutcome {
        let mut counters: Vec<(u32, StationCounters)> = Vec::with_capacity(self.ids.len());
        for (&id, st) in self.ids.iter().zip(&self.stations) {
            if st.has_frame {
                self.stats.in_flight_at_end += 1;
            }
            counters.push((id, st.counters));
        }
        CellOutcome {
            stats: self.stats,
            trace_hash: self.log.hash,
            trace: self.log.events,
            counters,
        }
    }
}

/// Runs one cell simulation against `resolver`.
pub fn run_cell(cfg: &CellConfig, resolver: &mut dyn CollisionResolver) -> CellOutcome {
    assert!(cfg.packet_slots >= 1, "packets must occupy at least one slot");
    assert!(cfg.slots >= 1, "need at least one slot");
    let mut sim = Sim::new(cfg);
    sim.init_arrivals();
    let mut wakes = Vec::new();
    for t in 0..sim.horizon {
        sim.close_components(t, resolver);
        sim.wheel.drain(t, &mut wakes);
        for &wake in &wakes {
            match wake {
                Wake::Arrival(i) => sim.on_arrival(i as usize, t),
                Wake::Attempt(i) => sim.on_attempt(i as usize, t),
            }
        }
    }
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::Backoff;
    use crate::cell::DecodeModel;

    fn dcf_cfg(stations: u32, slots: u64, seed: u64) -> CellConfig {
        CellConfig {
            stations,
            slots,
            discipline: Discipline::Dcf { policy: Backoff::Exponential },
            sensing: SensingGraph::hidden_groups(2, 2),
            arrivals: ArrivalModel::Poisson { per_slot: 0.05 },
            packet_slots: 12,
            ack_slots: 2,
            mac: MacParams::default(),
            seed,
            record_trace: true,
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let cfg = dcf_cfg(200, 2_000, 42);
        let mut m1 = DecodeModel::zigzag_ap(42);
        let mut m2 = DecodeModel::zigzag_ap(42);
        let a = run_cell(&cfg, &mut m1);
        let b = run_cell(&cfg, &mut m2);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.counters, b.counters);
        assert!(a.stats.offered_frames > 0, "traffic flowed");
        assert_eq!(a.stats.trace_events(), a.trace.len() as u64);
    }

    #[test]
    fn different_seed_different_trace() {
        let mut m1 = DecodeModel::zigzag_ap(1);
        let mut m2 = DecodeModel::zigzag_ap(1);
        let a = run_cell(&dcf_cfg(200, 2_000, 1), &mut m1);
        let b = run_cell(&dcf_cfg(200, 2_000, 2), &mut m2);
        assert_ne!(a.trace_hash, b.trace_hash);
    }

    #[test]
    fn frames_are_conserved() {
        let cfg = dcf_cfg(300, 3_000, 7);
        let mut model = DecodeModel::zigzag_ap(7);
        let out = run_cell(&cfg, &mut model);
        let s = out.stats;
        assert_eq!(
            s.offered_frames,
            s.delivered_frames + s.dropped_frames + s.in_flight_at_end,
            "every offered frame is delivered, dropped, or in flight"
        );
        let per_station: u64 = out.counters.iter().map(|(_, c)| u64::from(c.delivered)).sum();
        assert_eq!(per_station, s.delivered_frames);
    }

    #[test]
    fn hidden_groups_collide_cliques_do_not() {
        let mut hidden_cfg = dcf_cfg(64, 4_000, 9);
        hidden_cfg.sensing = SensingGraph::hidden_groups(1, 2);
        hidden_cfg.arrivals = ArrivalModel::Poisson { per_slot: 0.2 };
        let mut model = DecodeModel::zigzag_ap(9);
        let hidden = run_cell(&hidden_cfg, &mut model);
        assert!(hidden.stats.collision_rounds > 0, "hidden groups must collide");

        let mut clique_cfg = hidden_cfg.clone();
        clique_cfg.sensing = SensingGraph::clique(1);
        let mut model = DecodeModel::zigzag_ap(9);
        let clique = run_cell(&clique_cfg, &mut model);
        assert!(clique.stats.defers > 0, "a clique defers instead");
        assert!(
            clique.stats.collision_rounds < hidden.stats.collision_rounds / 2,
            "perfect sensing prevents most collisions ({} vs {})",
            clique.stats.collision_rounds,
            hidden.stats.collision_rounds
        );
    }

    #[test]
    fn deferral_keeps_stage_collision_bumps_it() {
        let mut cfg = dcf_cfg(64, 4_000, 11);
        cfg.sensing = SensingGraph::hidden_groups(1, 2);
        cfg.arrivals = ArrivalModel::Poisson { per_slot: 0.25 };
        let mut model = DecodeModel::zigzag_ap(11);
        let out = run_cell(&cfg, &mut model);

        // For every station: walk its Defer/TxStart events; the TxStart
        // following a Defer must carry the *same* stage (802.11: deferral
        // does not consume a backoff stage).
        use std::collections::HashMap;
        let mut last_defer: HashMap<u32, u32> = HashMap::new();
        let mut checked = 0;
        for ev in &out.trace {
            match *ev {
                TraceEvent::Defer { station, stage, .. } => {
                    last_defer.insert(station, stage);
                }
                TraceEvent::TxStart { station, stage, .. } => {
                    if let Some(ds) = last_defer.remove(&station) {
                        assert_eq!(stage, ds, "deferral must not advance the backoff stage");
                        checked += 1;
                    }
                }
                // The deferred frame can finish out-of-band — e.g. a §4.1
                // reap delivers it while it waits — so the next TxStart is
                // a fresh frame at stage 0. Stop tracking it.
                TraceEvent::Deliver { station, .. } | TraceEvent::Drop { station, .. } => {
                    last_defer.remove(&station);
                }
                _ => {}
            }
        }
        assert!(checked > 0, "need deferral-then-transmit pairs to check");

        // And stages do advance on collisions: some retransmission starts
        // at stage >= 1.
        assert!(
            out.trace
                .iter()
                .any(|ev| matches!(ev, TraceEvent::TxStart { stage, .. } if *stage >= 1)),
            "collisions must advance stages"
        );
    }

    #[test]
    fn retry_limit_drops_frames() {
        // two hidden stations, saturated, and a resolver that never
        // delivers: every frame must exhaust its retries and drop
        use crate::cell::RoundResolution;
        struct NeverDeliver;
        impl CollisionResolver for NeverDeliver {
            fn resolve(&mut self, rounds: &[CollisionRound]) -> Vec<RoundResolution> {
                rounds
                    .iter()
                    .map(|r| RoundResolution {
                        verdicts: vec![Verdict::Lost; r.txs.len()],
                        recovered: Vec::new(),
                        lowered: false,
                    })
                    .collect()
            }
        }
        let cfg = CellConfig {
            stations: 2,
            slots: 60_000,
            discipline: Discipline::Dcf { policy: Backoff::Exponential },
            sensing: SensingGraph::hidden_groups(1, 2),
            arrivals: ArrivalModel::Saturated,
            packet_slots: 12,
            ack_slots: 2,
            mac: MacParams::default(),
            seed: 13,
            record_trace: false,
        };
        let out = run_cell(&cfg, &mut NeverDeliver);
        assert!(out.stats.dropped_frames > 0, "lost verdicts must eventually drop frames");
        // singles still deliver (when backoff happens to separate them)
        for (_, c) in &out.counters {
            assert!(c.collisions > 0);
        }
    }

    #[test]
    fn solo_reaps_recover_buried_peers() {
        // slotted ALOHA at moderate load: pairs collide, one member's
        // eventual solo retransmission must route through the resolver as
        // a k = 1 recovery round and reap the buried peer (§4.1)
        let cfg = CellConfig {
            stations: 400,
            slots: 4_000,
            discipline: Discipline::SlottedAloha {
                backoff: crate::cell::AlohaBackoff::BinaryExponential { base: 2, cap: 64 },
            },
            sensing: SensingGraph::clique(1),
            arrivals: ArrivalModel::Poisson { per_slot: 0.5 },
            packet_slots: 1,
            ack_slots: 1,
            mac: MacParams::default(),
            seed: 21,
            record_trace: false,
        };
        let mut model = DecodeModel::zigzag_ap(21);
        let zz = run_cell(&cfg, &mut model);
        assert!(zz.stats.recovery_rounds > 0, "solos of collided frames route via the resolver");
        assert!(zz.stats.recovered_frames > 0, "a ZigZag AP reaps buried peers");
        assert_eq!(
            zz.stats.offered_frames,
            zz.stats.delivered_frames + zz.stats.dropped_frames + zz.stats.in_flight_at_end,
            "conservation holds with reap deliveries"
        );

        // a conventional AP offers the same recovery rounds but never
        // recovers anything from them
        let mut model = DecodeModel::plain_ap(21);
        let plain = run_cell(&cfg, &mut model);
        assert!(plain.stats.recovery_rounds > 0);
        assert_eq!(plain.stats.recovered_frames, 0, "a conventional AP never reaps");
    }

    #[test]
    fn aloha_attempts_are_frame_aligned() {
        let cfg = CellConfig {
            stations: 500,
            slots: 2_000,
            discipline: Discipline::SlottedAloha {
                backoff: crate::cell::AlohaBackoff::FixedWindow(4),
            },
            sensing: SensingGraph::clique(1),
            arrivals: ArrivalModel::Poisson { per_slot: 0.4 },
            packet_slots: 4,
            ack_slots: 1,
            mac: MacParams::default(),
            seed: 17,
            record_trace: true,
        };
        let mut model = DecodeModel::zigzag_ap(17);
        let out = run_cell(&cfg, &mut model);
        assert!(out.stats.tx_starts > 0);
        for ev in &out.trace {
            if let TraceEvent::TxStart { slot, .. } = ev {
                assert_eq!(slot % 4, 0, "slotted ALOHA transmits on frame boundaries");
            }
        }
        // frame-aligned overlap means full overlap: offsets are all zero,
        // so the same pair colliding twice gives the zigzag-favourable
        // Δ1 ≠ Δ2 only at the signal level (jitter) — symbolically we
        // just check collisions happen and deliver eventually
        assert!(out.stats.collision_rounds > 0);
        assert!(out.stats.delivered_frames > 0);
    }

    #[test]
    fn lazy_materialisation_keeps_population_sparse() {
        let cfg = CellConfig {
            stations: 1_000_000,
            slots: 200,
            discipline: Discipline::Dcf { policy: Backoff::Exponential },
            sensing: SensingGraph::hidden_groups(8, 2),
            arrivals: ArrivalModel::Poisson { per_slot: 1.0 },
            packet_slots: 12,
            ack_slots: 2,
            mac: MacParams::default(),
            seed: 23,
            record_trace: false,
        };
        let mut model = DecodeModel::zigzag_ap(23);
        let out = run_cell(&cfg, &mut model);
        // ~200 expected arrivals over a million stations: the active set
        // must stay within the same order of magnitude
        assert!(out.stats.stations_active < 1_000, "{} active", out.stats.stations_active);
        assert!(out.stats.offered_frames > 50);
    }

    /// Reference gap: direct inversion of its own uniform draw, which
    /// [`geometric`] must reproduce draw for draw wherever `1 − p` does
    /// not round to 1.
    fn geometric_oracle<R: Rng + ?Sized>(rng: &mut R, p: f64) -> u64 {
        if p >= 1.0 {
            return 1;
        }
        if p <= 0.0 {
            return u64::MAX / 4;
        }
        let u = rng.next_f64();
        let gap = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
        (gap as u64).saturating_add(1).min(u64::MAX / 4)
    }

    proptest::proptest! {
        /// A first uniform at or above the cutoff always puts the first
        /// arrival at or past the run's end, at the cutoff, at its
        /// neighbouring floats and within 1e-12 of it; and the factored
        /// gap equals the oracle's on the same stream.
        #[test]
        fn cutoff_never_skips_an_arrival_inside_the_run(
            ln_p in 1e-9f64.ln()..0.5f64.ln(),
            ln_slots in 0f64..10_000_000f64.ln(),
            seed: u64,
        ) {
            // log-uniform p over [1e-9, 0.5] and slots over [1, 1e7], so
            // the small `slots · p` cutoffs that only the absolute floor
            // protects come up as often as the large ones
            let p = ln_p.exp().clamp(1e-9, 0.5);
            let slots = (ln_slots.exp() as u64).clamp(1, 10_000_000);
            let u_cut = first_arrival_cutoff(p, slots);
            let probes = [
                u_cut,
                u_cut.next_up(),
                u_cut.next_down(),
                u_cut * (1.0 + 1e-12),
                u_cut * (1.0 - 1e-12),
            ];
            for u in probes.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                if u >= u_cut {
                    proptest::prop_assert!(
                        // first arrival in slot gap − 1, at or past `slots`
                        geometric_from(u, p) > slots,
                        "p {p:e}, slots {slots}: u {u:e} >= cutoff {u_cut:e} arrives inside the run"
                    );
                }
            }
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            for _ in 0..64 {
                proptest::prop_assert_eq!(geometric(&mut a, p), geometric_oracle(&mut b, p));
            }
        }
    }

    /// FNV-1a the plain way: eight byte steps per little-endian word.
    fn fnv_bytewise(h: u64, v: u64) -> u64 {
        v.to_le_bytes().into_iter().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    }

    /// One event folded into `h` the plain way: its tag, then every field
    /// widened to a `u64` word, in declaration order.
    fn emit_bytewise(h: u64, ev: TraceEvent) -> u64 {
        let words = match ev {
            TraceEvent::Arrival { slot, station } => vec![1, slot, station.into()],
            TraceEvent::TxStart { slot, station, stage } => {
                vec![2, slot, station.into(), stage.into()]
            }
            TraceEvent::Defer { slot, station, stage } => {
                vec![3, slot, station.into(), stage.into()]
            }
            TraceEvent::Collision { slot, cell, k, episode, round, lowered } => {
                vec![4, slot, cell.into(), k.into(), episode, round.into(), lowered.into()]
            }
            TraceEvent::Deliver { slot, station, lowered } => {
                vec![5, slot, station.into(), lowered.into()]
            }
            TraceEvent::Drop { slot, station } => vec![6, slot, station.into()],
        };
        words.into_iter().fold(h, fnv_bytewise)
    }

    /// A value of exactly `bits` significant bits (0 for none), the
    /// rest of them from `raw`.
    fn widen(raw: u64, bits: u32) -> u64 {
        (raw | 1 << 63).checked_shr(64 - bits).unwrap_or(0)
    }

    /// The stations [`Sim::init_arrivals`] must materialise, the plain
    /// way: every id's generator seeded, its first uniform drawn from it
    /// and compared with the cutoff as a float. Returns each survivor's
    /// id, first arrival slot and generator after that draw.
    fn init_reference(cfg: &CellConfig, p: f64) -> Vec<(u32, u64, StdRng)> {
        let seed = cfg.seed ^ STATION_TAG;
        let u_cut = first_arrival_cutoff(p, cfg.slots);
        (0..cfg.stations)
            .filter_map(|id| {
                let mut rng = StdRng::seed_from_u64(mix2(seed, u64::from(id)));
                let u = rng.next_f64();
                if u >= u_cut {
                    return None;
                }
                let first = geometric_from(u, p) - 1;
                (first < cfg.slots).then_some((id, first, rng))
            })
            .collect()
    }

    proptest::proptest! {
        /// Every width-folded FNV step equals eight byte steps, for a
        /// value of every bit length, so every width branch is taken on
        /// both sides of its bound.
        #[test]
        fn folded_fnv_equals_bytewise(h: u64, raw: u64) {
            for bits in 0..=64 {
                let v = widen(raw, bits);
                let want = fnv_bytewise(h, v);
                proptest::prop_assert_eq!(fnv_word(h, v), want);
                proptest::prop_assert_eq!(fnv_slot(h, v), want, "slot {v:#x}");
                if let Ok(v) = u32::try_from(v) {
                    proptest::prop_assert_eq!(fnv_u32(h, v), want, "u32 {v:#x}");
                    proptest::prop_assert_eq!(fnv_station(h, v), want, "station {v:#x}");
                    proptest::prop_assert_eq!(fnv_stage(h, v), want, "stage {v:#x}");
                }
                if let Ok(v) = u8::try_from(v) {
                    proptest::prop_assert_eq!(fnv_byte(h, v), want, "byte {v:#x}");
                }
            }
        }

        /// [`TraceLog::emit`] equals the byte-wise fold of every event's
        /// words, whatever each field's width.
        #[test]
        fn emit_equals_bytewise(
            h: u64,
            raw in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            bits in (0u32..65, 0u32..33, 0u32..33, 0u32..33),
            lowered: bool,
        ) {
            let slot = widen(raw.0, bits.0);
            let station = widen(raw.1, bits.1) as u32;
            let stage = widen(raw.2, bits.2) as u32;
            let cell = widen(raw.3, bits.3) as u32;
            let episode = raw.3;
            let events = [
                TraceEvent::Arrival { slot, station },
                TraceEvent::TxStart { slot, station, stage },
                TraceEvent::Defer { slot, station, stage },
                TraceEvent::Collision { slot, cell, k: stage, episode, round: station, lowered },
                TraceEvent::Deliver { slot, station, lowered },
                TraceEvent::Drop { slot, station },
            ];
            for ev in events {
                let mut log = TraceLog { hash: h, record: false, events: Vec::new() };
                log.emit(ev);
                proptest::prop_assert_eq!(log.hash, emit_bytewise(h, ev), "{:?}", ev);
            }
        }

        /// The closed-form first draw is the generator's first output, and
        /// [`Sim::init_arrivals`] materialises exactly the stations, first
        /// arrival slots and post-draw streams of [`init_reference`] —
        /// across loads whose per-station probability reaches 1, where no
        /// draw is taken at all.
        #[test]
        fn closed_form_first_draw_equals_the_seeded_generator(
            seed: u64,
            stations in 1u32..3_000,
            slots in 1u64..3_000,
            ln_load in 1e-3f64.ln()..4_000f64.ln(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            proptest::prop_assert_eq!(StdRng::first_u64(seed), rng.next_u64());

            let mut cfg = dcf_cfg(stations, slots, seed);
            cfg.arrivals = ArrivalModel::Poisson { per_slot: ln_load.exp() };
            let mut sim = Sim::new(&cfg);
            sim.init_arrivals();
            let mut first = vec![u64::MAX; sim.ids.len()];
            let mut wakes = Vec::new();
            for t in 0..slots {
                sim.wheel.drain(t, &mut wakes);
                for wake in &wakes {
                    if let Wake::Arrival(i) = *wake {
                        first[i as usize] = t;
                    }
                }
            }
            let got: Vec<(u32, u64, Vec<u64>)> = sim
                .ids
                .iter()
                .zip(&sim.stations)
                .zip(first)
                .map(|((&id, st), first)| {
                    let mut rng = st.rng.clone();
                    (id, first, (0..4).map(|_| rng.next_u64()).collect())
                })
                .collect();
            let want: Vec<(u32, u64, Vec<u64>)> = if sim.arrival_p < 1.0 {
                init_reference(&cfg, sim.arrival_p)
                    .into_iter()
                    .map(|(id, first, mut rng)| {
                        (id, first, (0..4).map(|_| rng.next_u64()).collect())
                    })
                    .collect()
            } else {
                (0..stations)
                    .map(|id| {
                        let key = mix2(seed ^ STATION_TAG, u64::from(id));
                        let mut rng = StdRng::seed_from_u64(key);
                        (id, 0, (0..4).map(|_| rng.next_u64()).collect())
                    })
                    .collect()
            };
            proptest::prop_assert_eq!(got, want);
        }

        /// The integer cutoff test equals the float one, at the cutoff's
        /// own 53-bit neighbours and at a random draw.
        #[test]
        fn integer_cutoff_equals_the_float_comparison(u_cut in 1e-16f64..1.01, x: u64) {
            let bits_cut = cutoff_bits(u_cut);
            let near = (bits_cut.min(1 << 53) << 11) | (x & 0x7ff);
            for x in [x, near, near.wrapping_sub(1 << 11), near.wrapping_add(1 << 11)] {
                proptest::prop_assert_eq!(x >> 11 >= bits_cut, hash_fraction(x) >= u_cut);
            }
        }

        /// Every contention window spans a power of two, where
        /// `gen_range` masks instead of taking the remainder: the same
        /// value as the modulo formula, for the backoff draw and for any
        /// power-of-two span and offset.
        #[test]
        fn power_of_two_draws_equal_the_modulo_formula(
            seed: u64,
            k in 0u32..64,
            lo in 0u64..1 << 20,
            stage in 0u32..12,
        ) {
            let span = 1u64 << k;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut raw = rng.clone();
            for _ in 0..8 {
                let want = lo + raw.next_u64() % span;
                proptest::prop_assert_eq!(rng.gen_range(lo..lo + span), want);
            }
            let mac = MacParams::default();
            let mut backoff = BackoffState::new();
            for _ in 0..stage {
                backoff.on_collision();
            }
            let window = u64::from(backoff.window(Backoff::Exponential, &mac)) + 1;
            proptest::prop_assert!(window.is_power_of_two(), "window {window}");
            for _ in 0..8 {
                let d = backoff.draw(Backoff::Exponential, &mac, &mut rng);
                proptest::prop_assert_eq!(u64::from(d), raw.next_u64() % window);
            }
        }
    }

    #[test]
    fn cutoff_edges_at_zero_and_one() {
        // p = 1 arrives at once without a draw, so it never takes the
        // cutoff path; its gap is 1 whatever the uniform
        let mut rng = StdRng::seed_from_u64(3);
        let mut untouched = rng.clone();
        assert_eq!(geometric(&mut rng, 1.0), 1);
        assert_eq!(rng.next_u64(), untouched.next_u64(), "p = 1 draws nothing");
        assert_eq!(geometric_from(0.999, 1.0), 1);
        // p = 0 never arrives: the cutoff is the absolute floor alone, so
        // nearly every uniform skips, and the formula puts the rest (and
        // every other draw) past the run too
        assert_eq!(first_arrival_cutoff(0.0, 10_000), CUTOFF_FLOOR);
        for u in [0.0, CUTOFF_FLOOR.next_down(), 0.5, 1.0f64.next_down()] {
            assert!(geometric_from(u, 0.0) > 10_000);
        }
        assert_eq!(geometric(&mut rng, 0.0), geometric_oracle(&mut untouched, 0.0));
        // a p whose 1 − p rounds to 1 is as never as p = 0
        assert_eq!(first_arrival_cutoff(1e-17, 10_000), CUTOFF_FLOOR);
        assert_eq!(geometric_from(0.5, 1e-17), geometric_from(0.5, 0.0));
    }

    #[test]
    fn cutoff_floor_covers_small_slot_probability_products() {
        // slots · p ≈ 1.4e-8: a purely relative margin puts the cutoff
        // within one rounding step of 1 − u, and the draw just above it
        // still arrives in slot 5
        let (p, slots): (f64, u64) = (2.390_606_037_967_338_5e-9, 6);
        let relative_only = -(slots as f64 * (1.0 - p).ln()).exp_m1() * (1.0 + CUTOFF_MARGIN);
        assert!(geometric_from(relative_only, p) <= slots, "the relative margin alone is short");
        let u_cut = first_arrival_cutoff(p, slots);
        for u in [u_cut, u_cut.next_up(), u_cut * (1.0 + 1e-12)] {
            assert!(geometric_from(u, p) > slots, "u {u:e} skipped an in-run arrival");
        }
    }

    #[test]
    fn tiny_loads_materialise_no_stations() {
        for per_slot in [0.0, 1e-12] {
            let mut cfg = dcf_cfg(1_000_000, 500, 5);
            cfg.arrivals = ArrivalModel::Poisson { per_slot };
            let out = run_cell(&cfg, &mut DecodeModel::zigzag_ap(5));
            assert_eq!(out.stats.stations_active, 0, "per_slot {per_slot}");
        }
    }

    #[test]
    fn geometric_is_positive_and_mean_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = 0.2;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| geometric(&mut rng, p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
        assert_eq!(geometric(&mut rng, 1.0), 1);
        assert!(geometric(&mut rng, 0.0) > 1 << 40);
    }
}
