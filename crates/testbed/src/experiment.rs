//! Flow experiments: saturated sender pairs under the three compared
//! schemes (§5.1e).
//!
//! * **Current 802.11** — the standard decoder over individual packets;
//!   in a collision each packet is decoded treating the other as noise
//!   (so the capture effect emerges naturally).
//! * **ZigZag** — capture/IC on single collisions plus chunk-by-chunk
//!   decoding of matched collision pairs, exactly the §5.1d flow.
//! * **Collision-Free Scheduler** — each sender in its own time slot.
//!
//! Senders are saturated (always have the next packet ready), retransmit
//! with fresh jitter until delivered or the retry limit, and a packet is
//! *delivered* when its uncoded BER is below 10⁻³ (§5.1f; the paper's
//! footnote notes practical channel codes then meet the packet-error
//! target — equivalently, the AP acks on post-coding success).

use crate::metrics::{delivered, SchemeOutcome};
use rand::prelude::*;
use zigzag_channel::fading::{ChannelParams, LinkProfile};
use zigzag_channel::scenario::{synth_collision, PlacedTx, SynthCollision};
use zigzag_core::capture::capture_decode;
use zigzag_core::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig};
use zigzag_core::engine::{BatchEngine, ReceiverCore, Scratch, ShardedReceiver};
use zigzag_core::receiver::{DecodePath, ReceiverEvent};
use zigzag_core::schedule::PlanOutcome;
use zigzag_core::standard::decode_single;
use zigzag_core::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use zigzag_mac::{Backoff, MacParams};
use zigzag_phy::bits::bit_error_rate;
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{encode_frame, AirFrame, Frame};
use zigzag_phy::modulation::Modulation;
use zigzag_phy::preamble::Preamble;

/// Experiment knobs.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Payload bytes per packet (paper: 1500; smaller values trade
    /// delivery-granularity for speed).
    pub payload: usize,
    /// Number of airtime rounds to simulate per scheme.
    pub rounds: usize,
    /// MAC parameters.
    pub mac: MacParams,
    /// Receiver configuration.
    pub decoder: DecoderConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            payload: 300,
            rounds: 24,
            mac: MacParams::default(),
            decoder: DecoderConfig::default(),
        }
    }
}

/// Results of one pair experiment under all three schemes.
#[derive(Clone, Debug)]
pub struct PairRun {
    /// Current 802.11.
    pub s802: SchemeOutcome,
    /// ZigZag receiver.
    pub zigzag: SchemeOutcome,
    /// Collision-free (TDMA) scheduler.
    pub cfs: SchemeOutcome,
}

/// Per-sender transmit state in the saturated model.
struct TxState {
    seq: u16,
    retries: u32,
    air: AirFrame,
    /// per-packet channel realisation (quasi-static across its
    /// retransmissions)
    chan: ChannelParams,
}

impl TxState {
    fn new(src: u16, seq: u16, payload: usize, link: &LinkProfile, rng: &mut StdRng) -> Self {
        let f = Frame::with_random_payload(0, src, seq, payload, (src as u64) << 32 | seq as u64);
        let air = encode_frame(&f, Modulation::Bpsk, &Preamble::default_len());
        TxState { seq, retries: 0, air, chan: link.draw(rng) }
    }

    fn advance(&mut self, src: u16, payload: usize, link: &LinkProfile, rng: &mut StdRng) {
        self.seq = self.seq.wrapping_add(1);
        *self = TxState::new(src, self.seq, payload, link, rng);
    }

    /// The retry-or-advance step after a round: a delivered frame, or one
    /// past the retry limit (dropped), makes way for the sender's next
    /// frame; anything else is retried. Returns `true` when the frame
    /// left the queue (it counts as offered).
    fn settle(
        &mut self,
        delivered: bool,
        src: u16,
        link: &LinkProfile,
        cfg: &ExperimentConfig,
        rng: &mut StdRng,
    ) -> bool {
        if !delivered {
            self.retries += 1;
            if self.retries <= cfg.mac.retry_limit {
                return false;
            }
        }
        self.advance(src, cfg.payload, link, rng);
        true
    }
}

/// Builds the association registry for a sender pair (what the AP learned
/// at association time, §4.2.1).
pub fn registry_for(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
    let mut reg = ClientRegistry::new();
    for (id, l) in links {
        reg.associate(
            *id,
            ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() },
        );
    }
    reg
}

/// The senders' frames collided at the given start offsets.
fn collide(tx: &[TxState], starts: &[usize], rng: &mut StdRng) -> SynthCollision {
    let placed: Vec<PlacedTx<'_>> = tx
        .iter()
        .zip(starts)
        .map(|(t, &start)| PlacedTx { air: &t.air, base: &t.chan, start })
        .collect();
    synth_collision(&placed, 1.0, rng)
}

/// Fresh exponential-backoff jitter for each sender at its retry count,
/// as start offsets from the earliest sender.
fn jitter_starts(
    retries: impl Iterator<Item = u32>,
    cfg: &ExperimentConfig,
    rng: &mut StdRng,
) -> Vec<usize> {
    let jitters: Vec<u32> = retries.map(|r| Backoff::Exponential.draw(&cfg.mac, r, rng)).collect();
    let m = *jitters.iter().min().expect("k >= 1");
    jitters.iter().map(|&j| cfg.mac.slots_to_symbols(j - m)).collect()
}

fn clean_ber(
    tx: &TxState,
    reg: &ClientRegistry,
    cfg: &ExperimentConfig,
    src: u16,
    rng: &mut StdRng,
    ws: &mut Scratch,
) -> f64 {
    let chan = tx.chan.new_transmission(rng);
    let sc = synth_collision(&[PlacedTx { air: &tx.air, base: &chan, start: 0 }], 1.0, rng);
    let preamble = Preamble::default_len();
    match decode_single(&sc.buffer, 0, Some(src), reg, &preamble, true, &cfg.decoder, ws) {
        Some(d) => bit_error_rate(&tx.air.mpdu_bits, &d.scrambled_bits),
        None => 1.0,
    }
}

/// Runs the Collision-Free Scheduler: alternate clean slots.
fn run_cfs(
    links: [&LinkProfile; 2],
    reg: &ClientRegistry,
    cfg: &ExperimentConfig,
    seed: u64,
) -> SchemeOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCF5);
    let mut ws = Scratch::with_backend(cfg.decoder.backend);
    let mut out = SchemeOutcome::default();
    let mut tx = [
        TxState::new(1, 0, cfg.payload, links[0], &mut rng),
        TxState::new(2, 0, cfg.payload, links[1], &mut rng),
    ];
    for round in 0..cfg.rounds {
        let s = round % 2;
        let src = (s + 1) as u16;
        let ber = clean_ber(&tx[s], reg, cfg, src, &mut rng, &mut ws);
        out.offered[s] += 1;
        out.airtime += 1.0;
        out.bits += tx[s].air.mpdu_bits.len();
        out.bit_errors += (ber * tx[s].air.mpdu_bits.len() as f64).round() as usize;
        if delivered(ber) {
            out.delivered[s] += 1;
        }
        tx[s].advance(src, cfg.payload, links[s], &mut rng);
    }
    out
}

/// Shared saturated-pair driver; `zigzag` toggles the ZigZag receiver
/// behaviours (capture subtraction, matched-collision decoding).
fn run_contending(
    links: [&LinkProfile; 2],
    p_sense: f64,
    reg: &ClientRegistry,
    cfg: &ExperimentConfig,
    zigzag: bool,
    seed: u64,
) -> SchemeOutcome {
    let mut rng = StdRng::seed_from_u64(seed ^ if zigzag { 0x219 } else { 0x802 });
    let mut ws = Scratch::with_backend(cfg.decoder.backend);
    let mut out = SchemeOutcome::default();
    let mut tx = [
        TxState::new(1, 0, cfg.payload, links[0], &mut rng),
        TxState::new(2, 0, cfg.payload, links[1], &mut rng),
    ];
    // stored unmatched collision: (seqs, signed offset in slots, buffer,
    // starts)
    type StoredRound = ((u16, u16), i64, SynthCollision, [usize; 2]);
    let mut stored: Option<StoredRound> = None;
    let preamble = Preamble::default_len();

    let handle_delivery =
        |out: &mut SchemeOutcome, tx: &mut [TxState; 2], s: usize, ber: f64, rng: &mut StdRng| {
            out.bits += tx[s].air.mpdu_bits.len();
            out.bit_errors += (ber * tx[s].air.mpdu_bits.len() as f64).round() as usize;
            let ok = delivered(ber);
            if ok {
                out.delivered[s] += 1;
            }
            if tx[s].settle(ok, (s + 1) as u16, links[s], cfg, rng) {
                out.offered[s] += 1;
            }
            ok
        };

    let mut round = 0usize;
    while round < cfg.rounds {
        if rng.gen_bool(p_sense.clamp(0.0, 1.0)) {
            // carrier sense worked: two clean slots
            for s in 0..2 {
                let src = (s + 1) as u16;
                let ber = clean_ber(&tx[s], reg, cfg, src, &mut rng, &mut ws);
                handle_delivery(&mut out, &mut tx, s, ber, &mut rng);
                out.airtime += 1.0;
                round += 1;
            }
            stored = None;
            continue;
        }

        // collision: both transmit with fresh jitter
        let starts = jitter_starts(tx.iter().map(|t| t.retries), cfg, &mut rng);
        let (sa, sb) = (starts[0], starts[1]);
        let signed_offset = sb as i64 - sa as i64;
        let sc = collide(&tx, &starts, &mut rng);
        out.airtime += 1.0;
        round += 1;

        // capture / interference cancellation (both schemes attempt the
        // strong decode; only ZigZag subtracts to reach the weak one)
        let mut got = [false; 2];
        let order = if tx[0].chan.gain.abs() >= tx[1].chan.gain.abs() { [0, 1] } else { [1, 0] };
        if zigzag {
            let (s_strong, s_weak) = (order[0], order[1]);
            if let Some(res) = capture_decode(
                &sc.buffer,
                if s_strong == 0 { sa } else { sb },
                Some((s_strong + 1) as u16),
                if s_weak == 0 { sa } else { sb },
                Some((s_weak + 1) as u16),
                reg,
                &preamble,
                &cfg.decoder,
                &mut ws,
            ) {
                let ber_s = bit_error_rate(&tx[s_strong].air.mpdu_bits, &res.strong.scrambled_bits);
                if delivered(ber_s) {
                    got[s_strong] = true;
                    if let Some(w) = &res.weak {
                        let ber_w = bit_error_rate(&tx[s_weak].air.mpdu_bits, &w.scrambled_bits);
                        if delivered(ber_w) {
                            got[s_weak] = true;
                        }
                    }
                }
            }
        } else {
            // plain 802.11: each packet decoded over the raw collision
            for s in 0..2 {
                let start = if s == 0 { sa } else { sb };
                if let Some(d) = decode_single(
                    &sc.buffer,
                    start,
                    Some((s + 1) as u16),
                    reg,
                    &preamble,
                    false,
                    &cfg.decoder,
                    &mut ws,
                ) {
                    let ber = bit_error_rate(&tx[s].air.mpdu_bits, &d.scrambled_bits);
                    got[s] = delivered(ber);
                }
            }
        }

        // ZigZag: match against the stored collision of the same pair
        if zigzag && !(got[0] && got[1]) {
            let key = (tx[0].seq, tx[1].seq);
            if let Some((k, off, prev, starts)) = &stored {
                if *k == key && *off != signed_offset {
                    let dec = ZigzagDecoder::new(cfg.decoder.clone(), reg);
                    let res = dec.decode(
                        &[
                            CollisionSpec {
                                buffer: &prev.buffer,
                                placements: vec![(0, starts[0]), (1, starts[1])],
                            },
                            CollisionSpec {
                                buffer: &sc.buffer,
                                placements: vec![(0, sa), (1, sb)],
                            },
                        ],
                        &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
                        &mut ws,
                    );
                    if res.outcome == PlanOutcome::Complete {
                        for s in 0..2 {
                            let ber = bit_error_rate(
                                &tx[s].air.mpdu_bits,
                                &res.packets[s].scrambled_bits,
                            );
                            got[s] = got[s] || delivered(ber);
                        }
                    }
                }
            }
        }

        // bookkeeping: store this collision if unresolved, then advance
        let both = got[0] && got[1];
        #[allow(clippy::needless_range_loop)] // `s` indexes got/tx/links in lockstep
        for s in 0..2 {
            let ber = if got[s] { 0.0 } else { 1.0 };
            // deliveries already decided; reuse handler for advance logic
            let _ = handle_delivery(&mut out, &mut tx, s, ber, &mut rng);
        }
        stored = if zigzag && !both {
            Some(((tx[0].seq, tx[1].seq), signed_offset, sc, [sa, sb]))
        } else {
            None
        };
    }
    out
}

/// Runs all three schemes for one sender pair.
pub fn run_pair(
    link_a: &LinkProfile,
    link_b: &LinkProfile,
    p_sense: f64,
    cfg: &ExperimentConfig,
    seed: u64,
) -> PairRun {
    let reg = registry_for(&[(1, link_a), (2, link_b)]);
    PairRun {
        s802: run_contending([link_a, link_b], p_sense, &reg, cfg, false, seed),
        zigzag: run_contending([link_a, link_b], p_sense, &reg, cfg, true, seed),
        cfs: run_cfs([link_a, link_b], &reg, cfg, seed),
    }
}

/// One sender-pair scenario for batched runs: everything [`run_pair`]
/// needs, self-contained so units are independent across threads.
#[derive(Clone, Debug)]
pub struct PairScenario {
    /// Sender 1's link to the AP.
    pub link_a: LinkProfile,
    /// Sender 2's link to the AP.
    pub link_b: LinkProfile,
    /// Probability the senders hear each other per round (0 = hidden).
    pub p_sense: f64,
    /// Per-scenario RNG seed (deterministic regardless of scheduling).
    pub seed: u64,
}

/// One k-sender scenario for the full-stack receiver flow: `k` saturated
/// senders (one link each), a carrier-sense probability, and a seed.
///
/// Where [`PairScenario`]/[`run_pair`] compare the three schemes with a
/// hand-rolled decode flow, a `SetScenario` drives every receive buffer
/// through the *actual* receiver pipeline
/// ([`ReceiverCore::process`](zigzag_core::ReceiverCore::process)):
/// collisions accumulate in the keyed store until a decodable k×k match
/// set exists, then ZigZag recovers all k frames. This is the
/// generalization the pair flow is the k=2 shadow of.
#[derive(Clone, Debug)]
pub struct SetScenario {
    /// Per-sender links to the AP (sender `i` gets client id `i+1`).
    /// Clients must sit at distinct oscillator offsets — that is what
    /// the AP tells them apart by (§4.2.1).
    pub links: Vec<LinkProfile>,
    /// Probability the senders hear each other per round (0 = hidden).
    pub p_sense: f64,
    /// Per-scenario RNG seed (deterministic regardless of scheduling).
    pub seed: u64,
}

/// Per-sender outcome of one k-sender full-stack run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SetOutcome {
    /// Packets delivered per sender.
    pub delivered: Vec<usize>,
    /// Packets offered per sender (delivered or dropped at retry limit).
    pub offered: Vec<usize>,
    /// Airtime consumed, in packet durations.
    pub airtime: f64,
    /// How many collisions the receiver stored unmatched.
    pub collisions_stored: usize,
    /// Deliveries that took the matched-collision ZigZag path.
    pub zigzag_delivered: usize,
    /// Deliveries that took the algebraic batch-recovery path
    /// (`zigzag_core::recovery`) — collisions the chunk scheduler could
    /// not peel, solved jointly instead of dropped.
    pub recovered_delivered: usize,
}

impl SetOutcome {
    /// Per-sender normalized throughput.
    pub fn throughput(&self, sender: usize) -> f64 {
        if self.airtime <= 0.0 {
            0.0
        } else {
            self.delivered[sender] as f64 / self.airtime
        }
    }

    /// Aggregate normalized throughput of the set.
    pub fn total_throughput(&self) -> f64 {
        (0..self.delivered.len()).map(|s| self.throughput(s)).sum()
    }
}

/// How a client set's senders contend each round.
#[derive(Clone, Copy, Debug)]
enum Contention<'a> {
    /// Exponential backoff behind a carrier-sense draw: with probability
    /// `p_sense` the senders hear each other and take k clean slots,
    /// otherwise all k collide with fresh MAC jitter.
    Backoff { p_sense: f64 },
    /// All senders collide at these fixed offsets every round, with no
    /// sense draw (§4.5's degenerate backoff).
    Fixed(&'a [usize]),
}

/// One saturated client set in flight: its senders, its own RNG stream
/// and its tally. Sender `i` is client `base + i + 1`.
struct SetRun<'a> {
    links: &'a [LinkProfile],
    contention: Contention<'a>,
    base: u16,
    rng: StdRng,
    tx: Vec<TxState>,
    out: SetOutcome,
}

impl<'a> SetRun<'a> {
    fn new(
        links: &'a [LinkProfile],
        contention: Contention<'a>,
        base: u16,
        seed: u64,
        cfg: &ExperimentConfig,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let tx = links
            .iter()
            .enumerate()
            .map(|(i, l)| TxState::new(base + i as u16 + 1, 0, cfg.payload, l, &mut rng))
            .collect();
        let out = SetOutcome {
            delivered: vec![0; links.len()],
            offered: vec![0; links.len()],
            ..SetOutcome::default()
        };
        Self { links, contention, base, rng, tx, out }
    }

    /// Synthesizes this round's receive buffers onto `batch` (one
    /// collision, or k clean slots after a carrier-sense success) and
    /// charges their airtime; returns how many buffers it added.
    fn synth_round(&mut self, cfg: &ExperimentConfig, batch: &mut Vec<Vec<Complex>>) -> usize {
        let Self { contention, tx, rng, out, .. } = self;
        let starts: Vec<usize> = match *contention {
            Contention::Fixed(offsets) => offsets.to_vec(),
            Contention::Backoff { p_sense } => {
                if rng.gen_bool(p_sense.clamp(0.0, 1.0)) {
                    for t in tx.iter() {
                        batch.push(collide(std::slice::from_ref(t), &[0], rng).buffer);
                    }
                    out.airtime += tx.len() as f64;
                    return tx.len();
                }
                jitter_starts(tx.iter().map(|t| t.retries), cfg, rng)
            }
        };
        batch.push(collide(tx, &starts, rng).buffer);
        out.airtime += 1.0;
        1
    }
}

/// The shared saturated-set driver, one contention round: every set
/// synthesizes its buffers, `decode` turns the whole round's batch into
/// per-buffer events (one receiver core, or a sharded batch), the events
/// are scored against each set's in-flight frames, and every sender
/// retries or advances.
fn contend_round(
    sets: &mut [SetRun<'_>],
    cfg: &ExperimentConfig,
    decode: &mut impl FnMut(&[Vec<Complex>]) -> Vec<Vec<ReceiverEvent>>,
) {
    let mut batch = Vec::new();
    let mut owner = Vec::new();
    for (j, set) in sets.iter_mut().enumerate() {
        let added = set.synth_round(cfg, &mut batch);
        owner.extend(std::iter::repeat_n(j, added));
    }
    let mut got: Vec<Vec<bool>> = sets.iter().map(|set| vec![false; set.tx.len()]).collect();
    for (events, &j) in decode(&batch).iter().zip(&owner) {
        let set = &mut sets[j];
        for ev in events {
            record_set_event(ev, set.base, &set.tx, &mut got[j], &mut set.out);
        }
    }
    for (set, got) in sets.iter_mut().zip(got) {
        for (i, t) in set.tx.iter_mut().enumerate() {
            if got[i] {
                set.out.delivered[i] += 1;
            }
            if t.settle(got[i], set.base + i as u16 + 1, &set.links[i], cfg, &mut set.rng) {
                set.out.offered[i] += 1;
            }
        }
    }
}

/// Decodes a round's buffers one by one on a single receiver core.
fn on_core(rx: &mut ReceiverCore) -> impl FnMut(&[Vec<Complex>]) -> Vec<Vec<ReceiverEvent>> + '_ {
    |batch| batch.iter().map(|b| rx.process(b)).collect()
}

/// The registry of one set's senders, client ids `1..=k`.
fn set_registry(links: &[LinkProfile]) -> ClientRegistry {
    let ids: Vec<(u16, &LinkProfile)> =
        links.iter().enumerate().map(|(i, l)| (i as u16 + 1, l)).collect();
    registry_for(&ids)
}

/// Runs one saturated k-sender scenario end-to-end through the receiver
/// pipeline. Each contention round either resolves by carrier sense
/// (clean slots, one per sender) or all k senders collide with fresh
/// MAC jitter; every receive buffer goes through
/// `ReceiverCore::process`, so delivery happens exactly when the
/// pipeline's detect/match/plan/zigzag stages recover a frame. Runs
/// until `cfg.rounds` packet durations of airtime are spent.
pub fn run_set(scenario: &SetScenario, cfg: &ExperimentConfig) -> SetOutcome {
    let mut rx = ReceiverCore::new(cfg.decoder.clone(), set_registry(&scenario.links));
    let contention = Contention::Backoff { p_sense: scenario.p_sense };
    let mut set = [SetRun::new(&scenario.links, contention, 0, scenario.seed ^ 0x5E7, cfg)];
    while set[0].out.airtime < cfg.rounds as f64 {
        contend_round(&mut set, cfg, &mut on_core(&mut rx));
    }
    let [set] = set;
    set.out
}

/// A degenerate-backoff hidden-sender scenario: every collision round
/// places the senders at the **same** relative offsets.
///
/// This models the pathological-but-real regime the paper's §4.5 calls
/// out as ZigZag's failure condition (Δ₁ = Δ₂): stations whose backoff
/// counters froze in lockstep (e.g. both deafened through the same busy
/// period) retransmit with identical spacing, so every collision is the
/// same combinatorial equation and the chunk scheduler never finds an
/// interference-free boundary. The iterative receiver stores such
/// collisions forever; the algebraic recovery path
/// (`DecoderConfig::with_recovery`) jointly solves consecutive ones —
/// [`run_recovery_set`] measures exactly that difference.
#[derive(Clone, Debug)]
pub struct RecoveryScenario {
    /// Per-sender links to the AP (sender `i` gets client id `i+1`), at
    /// distinct oscillator offsets.
    pub links: Vec<LinkProfile>,
    /// Fixed start offset of each sender in every collision round.
    pub offsets: Vec<usize>,
    /// Per-scenario RNG seed.
    pub seed: u64,
}

/// Runs one degenerate-backoff scenario end-to-end through the receiver
/// pipeline: every round all senders collide at the scenario's fixed
/// offsets, and each buffer goes through `ReceiverCore::process`.
/// With recovery disabled the outcome is (by §4.5) zero deliveries; with
/// recovery enabled, consecutive collisions jointly solve.
pub fn run_recovery_set(scenario: &RecoveryScenario, cfg: &ExperimentConfig) -> SetOutcome {
    assert_eq!(scenario.links.len(), scenario.offsets.len(), "one fixed offset per sender");
    let mut rx = ReceiverCore::new(cfg.decoder.clone(), set_registry(&scenario.links));
    let contention = Contention::Fixed(&scenario.offsets);
    let mut set = [SetRun::new(&scenario.links, contention, 0, scenario.seed ^ 0x41EC, cfg)];
    for _ in 0..cfg.rounds {
        contend_round(&mut set, cfg, &mut on_core(&mut rx));
    }
    let [set] = set;
    set.out
}

/// One cell of the typical-link impairment sweep: a phase-noise class ×
/// SNR × timing-drift point at which degenerate-backoff (§4.5,
/// un-peelable) collisions are offered to the recovery layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImpairmentPoint {
    /// Phase-noise walk step σ, radians/symbol (`0.0` = coherent
    /// oscillator, `DEFAULT_PHASE_NOISE` = the typical-link class).
    pub phase_noise: f64,
    /// Link SNR in dB.
    pub snr_db: f64,
    /// Sampling-clock drift magnitude (timing-jitter class; each link
    /// draws its sign and offset per transmission as usual).
    pub sampling_drift: f64,
}

/// What the receiver reclaimed at one [`ImpairmentPoint`]: how many of
/// the offered §4.5-style un-peelable packets it delivered. The
/// denominator is the *offered* count (`rounds × senders` summed over the
/// cell's scenarios).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReclaimPoint {
    /// The sweep cell.
    pub point: ImpairmentPoint,
    /// Un-peelable packets offered.
    pub offered: usize,
    /// Packets delivered.
    pub delivered: usize,
}

impl ReclaimPoint {
    /// Reclaim fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.delivered as f64 / self.offered.max(1) as f64
    }
}

/// Builds the degenerate-backoff scenario for one sweep cell: `senders`
/// typical-link clients ([`LinkProfile::typical`] — random nominal ω,
/// mild random ISI) with the cell's phase-noise and drift classes
/// substituted in, colliding at fixed equal spacing every round (the
/// §4.5 Δ₁ = Δ₂ pattern peeling provably cannot decode).
pub fn impaired_recovery_scenario(
    point: &ImpairmentPoint,
    senders: usize,
    seed: u64,
) -> RecoveryScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_1417);
    let links: Vec<LinkProfile> = (0..senders)
        .map(|_| {
            let mut l = LinkProfile::typical(point.snr_db, &mut rng);
            l.phase_noise = point.phase_noise;
            l.sampling_drift = point.sampling_drift * l.sampling_drift.signum();
            l
        })
        .collect();
    let delta = 280 + (seed as usize % 3) * 20;
    let offsets: Vec<usize> = (0..senders).map(|s| s * delta).collect();
    RecoveryScenario { links, offsets, seed }
}

/// Runs the typical-link robustness sweep: at every [`ImpairmentPoint`],
/// `seeds.len()` degenerate-backoff scenarios are driven end-to-end
/// through the receiver under `cfg` (normally with
/// `DecoderConfig::with_recovery`), and the delivered counts are
/// aggregated into one [`ReclaimPoint`] per cell. All runs fan out across
/// the [`BatchEngine`]; results are in point order and thread-count
/// invariant (each scenario run is self-contained).
pub fn run_impairment_sweep(
    engine: &BatchEngine,
    points: &[ImpairmentPoint],
    senders: usize,
    seeds: &[u64],
    cfg: &ExperimentConfig,
) -> Vec<ReclaimPoint> {
    // flatten to (point, seed) jobs so the engine sees one batch
    let jobs: Vec<(usize, RecoveryScenario)> = points
        .iter()
        .enumerate()
        .flat_map(|(pi, point)| {
            seeds.iter().map(move |&seed| (pi, impaired_recovery_scenario(point, senders, seed)))
        })
        .collect();
    let outcomes = engine.map(&jobs, |_, (_, scenario)| run_recovery_set(scenario, cfg));
    let mut curve: Vec<ReclaimPoint> =
        points.iter().map(|&point| ReclaimPoint { point, offered: 0, delivered: 0 }).collect();
    for ((pi, _), out) in jobs.iter().zip(outcomes) {
        let cell = &mut curve[*pi];
        cell.delivered += out.delivered.iter().sum::<usize>();
        // every round offers each sender's packet once
        cell.offered += cfg.rounds * senders;
    }
    curve
}

/// Outcome of a [`run_sharded_sets`] run: per-set §5.1f outcomes plus
/// how the router spread the buffers over shards.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedRun {
    /// One [`SetOutcome`] per input set, in input order.
    pub outcomes: Vec<SetOutcome>,
    /// Buffers each shard decoded (`ShardedReceiver::loads`).
    pub shard_loads: Vec<u64>,
}

/// Drives several *disjoint* saturated client sets through **one**
/// sharded AP receiver — the multi-client-set scenario the
/// client-set-hash routing exists for.
///
/// Set `j`'s sender `i` gets the global client id `base_j + i + 1`
/// (bases are cumulative set sizes), and every set's links must sit at
/// globally distinct oscillator offsets — the AP-wide registry tells
/// clients apart by ω (§4.2.1). Each contention round, every set either
/// resolves by carrier sense (k clean slots) or collides with fresh MAC
/// jitter, exactly as in [`run_set`] (but `cfg.rounds` counts contention
/// rounds here, not airtime); the round's buffers from *all* sets are
/// then interleaved into one batch through
/// [`ShardedReceiver::process_batch`], so collisions of different sets
/// land on (and accumulate in) their owning shard's store concurrently.
///
/// Deterministic for a given scenario list and config at **any** shard
/// count — that is the sharding contract, pinned by the testbed tests.
pub fn run_sharded_sets(
    scenarios: &[SetScenario],
    cfg: &ExperimentConfig,
    shard: ShardConfig,
) -> ShardedRun {
    let mut ids: Vec<(u16, &LinkProfile)> = Vec::new();
    let mut sets: Vec<SetRun<'_>> = Vec::new();
    for s in scenarios {
        let base = ids.len() as u16;
        ids.extend(s.links.iter().enumerate().map(|(i, l)| (base + i as u16 + 1, l)));
        let contention = Contention::Backoff { p_sense: s.p_sense };
        sets.push(SetRun::new(&s.links, contention, base, s.seed ^ 0x5A4D, cfg));
    }
    let mut rx = ShardedReceiver::new(cfg.decoder.clone(), shard, registry_for(&ids));
    for _ in 0..cfg.rounds {
        contend_round(&mut sets, cfg, &mut |batch| rx.process_batch(batch));
    }
    ShardedRun {
        outcomes: sets.into_iter().map(|set| set.out).collect(),
        shard_loads: rx.loads().to_vec(),
    }
}

/// One continuous stretch of receiver air synthesized from a k-sender
/// scenario — what the streaming front end (`zigzag_core::stream`)
/// ingests, where every other experiment driver hands the receiver
/// pre-cut buffers.
#[derive(Clone, Debug)]
pub struct StreamAir {
    /// The AP-wide association registry for the scenario's senders.
    pub registry: ClientRegistry,
    /// The air: collision bursts spliced into unit-variance channel
    /// noise.
    pub samples: Vec<Complex>,
    /// Collision bursts spliced in — with gaps longer than the stream
    /// config's `max_packet`, the carver cuts exactly this many regions.
    pub bursts: usize,
}

/// Emits one continuous air for a k-sender scenario: `groups`
/// retransmission groups, each contributing k collisions of the same k
/// frames at fresh MAC jitter (the §4.3 story: enough collisions for a
/// k×k match set), separated by `gap` samples of unit-variance noise.
///
/// The gap must exceed the stream config's `max_packet` for bursts to
/// carve into separate regions. Deterministic in `scenario.seed`.
pub fn continuous_air(
    scenario: &SetScenario,
    cfg: &ExperimentConfig,
    groups: usize,
    gap: usize,
) -> StreamAir {
    let k = scenario.links.len();
    let mut rng = StdRng::seed_from_u64(scenario.seed ^ 0x57AE);
    let mut samples = zigzag_channel::noise::awgn_vec(&mut rng, gap, 1.0);
    let mut bursts = 0;
    for g in 0..groups {
        let txs: Vec<TxState> = (0..k)
            .map(|s| {
                TxState::new(s as u16 + 1, g as u16, cfg.payload, &scenario.links[s], &mut rng)
            })
            .collect();
        for retry in 0..k as u32 {
            let starts = jitter_starts(txs.iter().map(|_| retry), cfg, &mut rng);
            samples.extend_from_slice(&collide(&txs, &starts, &mut rng).buffer);
            samples.extend(zigzag_channel::noise::awgn_vec(&mut rng, gap, 1.0));
            bursts += 1;
        }
    }
    StreamAir { registry: set_registry(&scenario.links), samples, bursts }
}

/// Scores one receiver event against a set's in-flight frames, with the
/// set's global client-id base.
fn record_set_event(
    ev: &ReceiverEvent,
    base: u16,
    tx: &[TxState],
    got: &mut [bool],
    out: &mut SetOutcome,
) {
    match ev {
        ReceiverEvent::Delivered { frame, path } => {
            let s = frame.src.wrapping_sub(base) as usize;
            if s >= 1 && s <= tx.len() && frame.seq == tx[s - 1].seq {
                got[s - 1] = true;
                if *path == DecodePath::Zigzag {
                    out.zigzag_delivered += 1;
                }
                if *path == DecodePath::Recovered {
                    out.recovered_delivered += 1;
                }
            }
        }
        ReceiverEvent::CollisionStored => out.collisions_stored += 1,
        ReceiverEvent::DecodeFailed => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig { payload: 200, rounds: 12, ..Default::default() }
    }

    #[test]
    fn hidden_pair_zigzag_beats_802() {
        let mut rng = StdRng::seed_from_u64(1);
        let la = LinkProfile::typical(12.0, &mut rng);
        let lb = LinkProfile::typical(12.0, &mut rng);
        let run = run_pair(&la, &lb, 0.0, &quick_cfg(), 42);
        // 802.11 hidden terminals: both senders mostly lose
        assert!(run.s802.total_throughput() < 0.4, "802.11 {:?}", run.s802.total_throughput());
        // ZigZag: close to the collision-free scheduler (≈1.0)
        assert!(run.zigzag.total_throughput() > 0.6, "zigzag {:?}", run.zigzag.total_throughput());
        assert!(run.zigzag.total_throughput() > run.s802.total_throughput());
    }

    #[test]
    fn perfect_sensing_all_schemes_equal() {
        let mut rng = StdRng::seed_from_u64(2);
        let la = LinkProfile::typical(14.0, &mut rng);
        let lb = LinkProfile::typical(14.0, &mut rng);
        let run = run_pair(&la, &lb, 1.0, &quick_cfg(), 43);
        // with CSMA working there are no collisions: everything ≈ CFS
        assert!(run.s802.total_throughput() > 0.8, "{}", run.s802.total_throughput());
        assert!(run.zigzag.total_throughput() > 0.8);
        assert!(run.cfs.total_throughput() > 0.8);
        assert!(run.s802.loss_rate() < 0.15);
    }

    #[test]
    fn capture_asymmetry_under_802() {
        // strong Alice (22 dB) vs weak Bob (10 dB), hidden: under plain
        // 802.11 Alice captures, Bob starves (§5.5's unfairness).
        let mut rng = StdRng::seed_from_u64(3);
        let la = LinkProfile::typical(22.0, &mut rng);
        let lb = LinkProfile::typical(10.0, &mut rng);
        let run = run_pair(&la, &lb, 0.0, &quick_cfg(), 44);
        assert!(
            run.s802.throughput(0) > run.s802.throughput(1),
            "Alice {} Bob {}",
            run.s802.throughput(0),
            run.s802.throughput(1)
        );
        // ZigZag is at least as fair and at least as fast in aggregate
        assert!(run.zigzag.total_throughput() >= run.s802.total_throughput() - 0.05);
    }

    #[test]
    fn cfs_throughput_near_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let la = LinkProfile::typical(16.0, &mut rng);
        let lb = LinkProfile::typical(16.0, &mut rng);
        let run = run_pair(&la, &lb, 0.0, &quick_cfg(), 45);
        assert!(run.cfs.total_throughput() > 0.85, "{}", run.cfs.total_throughput());
    }

    fn omega_spread_links(k: usize, snr: f64) -> Vec<LinkProfile> {
        let omegas = [-0.08, 0.02, 0.09, -0.03];
        (0..k).map(|s| LinkProfile::clean_with_omega(snr, omegas[s])).collect()
    }

    #[test]
    fn three_hidden_senders_deliver_through_kway_store() {
        // The tentpole flow at testbed level: three hidden senders, every
        // buffer through the receiver pipeline; collisions accumulate in
        // the keyed store until a 3×3 match set decodes.
        let scenarios: Vec<SetScenario> = (0..4)
            .map(|i| SetScenario {
                links: omega_spread_links(3, 17.0),
                p_sense: 0.0,
                seed: 900 + i,
            })
            .collect();
        let cfg = ExperimentConfig { payload: 150, rounds: 18, ..Default::default() };
        let outs = BatchEngine::single_threaded().map(&scenarios, |_, s| run_set(s, &cfg));
        let zigzag: usize = outs.iter().map(|o| o.zigzag_delivered).sum();
        assert!(zigzag > 0, "the k-way matched-collision path must fire: {outs:?}");
        for o in &outs {
            assert!(o.total_throughput() > 0.3, "{o:?}");
            assert!(o.collisions_stored > 0, "hidden senders must produce stored collisions");
        }
    }

    #[test]
    fn degenerate_backoff_delivers_only_with_recovery() {
        // §4.5's Δ₁ = Δ₂ regime at testbed level: every round the two
        // hidden senders collide at identical offsets. The zigzag-only
        // receiver provably delivers nothing; the algebraic recovery
        // path decodes CRC-verified packets out of the same air.
        let scenario = RecoveryScenario {
            links: vec![
                LinkProfile::clean_with_omega(17.0, -0.08),
                LinkProfile::clean_with_omega(17.0, 0.09),
            ],
            offsets: vec![0, 300],
            seed: 224,
        };
        let cfg = ExperimentConfig { payload: 120, rounds: 8, ..Default::default() };
        let plain = run_recovery_set(&scenario, &cfg);
        assert_eq!(
            plain.delivered.iter().sum::<usize>(),
            0,
            "zigzag-only must deliver nothing under degenerate backoff: {plain:?}"
        );
        assert_eq!(plain.recovered_delivered, 0);
        assert!(plain.collisions_stored > 0);

        let cfg_rec = ExperimentConfig { decoder: DecoderConfig::with_recovery(), ..cfg.clone() };
        let rec = run_recovery_set(&scenario, &cfg_rec);
        assert!(
            rec.recovered_delivered >= 2,
            "recovery must decode packets zigzag cannot: {rec:?}"
        );
        assert!(
            rec.delivered.iter().sum::<usize>() > plain.delivered.iter().sum::<usize>(),
            "recovery must raise delivered throughput: {rec:?} vs {plain:?}"
        );
    }

    #[test]
    fn impairment_sweep_reclaims_its_floor() {
        // The tracked robustness curve in miniature: the benign point and
        // the typical-link phase-noise class each reclaim at least the
        // count pinned when the single-pass solver was retired.
        use zigzag_channel::fading::{DEFAULT_PHASE_NOISE, DEFAULT_SAMPLING_DRIFT};
        let points = [
            ImpairmentPoint { phase_noise: 0.0, snr_db: 17.0, sampling_drift: 0.0 },
            ImpairmentPoint {
                phase_noise: DEFAULT_PHASE_NOISE,
                snr_db: 15.0,
                sampling_drift: DEFAULT_SAMPLING_DRIFT,
            },
        ];
        let cfg = ExperimentConfig {
            payload: 120,
            rounds: 6,
            decoder: DecoderConfig::with_recovery(),
            ..Default::default()
        };
        let curve =
            run_impairment_sweep(&BatchEngine::single_threaded(), &points, 2, &[41, 42, 43], &cfg);
        for (cell, floor) in curve.iter().zip([8, 6]) {
            eprintln!(
                "phase_noise={:.3} snr={:.0} reclaimed={}/{}",
                cell.point.phase_noise, cell.point.snr_db, cell.delivered, cell.offered,
            );
            assert_eq!(cell.offered, 36, "{cell:?}");
            assert!(cell.delivered >= floor, "reclaim fell below its floor of {floor}: {cell:?}");
        }
    }

    #[test]
    fn recovery_sets_are_thread_count_invariant() {
        let scenarios: Vec<RecoveryScenario> = (0..3)
            .map(|i| RecoveryScenario {
                links: vec![
                    LinkProfile::clean_with_omega(17.0, -0.08),
                    LinkProfile::clean_with_omega(17.0, 0.09),
                ],
                offsets: vec![0, 280 + 20 * i as usize],
                seed: 300 + i,
            })
            .collect();
        let cfg = ExperimentConfig {
            payload: 120,
            rounds: 6,
            decoder: DecoderConfig::with_recovery(),
            ..Default::default()
        };
        let run = |engine: BatchEngine| engine.map(&scenarios, |_, s| run_recovery_set(s, &cfg));
        let seq = run(BatchEngine::single_threaded());
        let par = run(BatchEngine::new(3));
        assert_eq!(seq, par, "batched recovery sets must be thread-count invariant");
    }

    #[test]
    fn two_sender_set_reduces_to_pair_flow() {
        // k = 2 through run_set exercises the same pairwise match path
        // the pair flow uses.
        let s = SetScenario { links: omega_spread_links(2, 16.0), p_sense: 0.0, seed: 901 };
        let cfg = ExperimentConfig { payload: 150, rounds: 16, ..Default::default() };
        let out = run_set(&s, &cfg);
        assert!(out.total_throughput() > 0.4, "{out:?}");
        assert!(out.zigzag_delivered > 0, "{out:?}");
    }

    #[test]
    fn sharded_multi_set_run_is_shard_count_invariant() {
        // Two disjoint hidden client sets (a k=2 pair and a k=3 triple)
        // saturating one sharded AP: outcomes must be bit-identical at
        // every shard count — the sharding contract — and the router
        // must actually spread the sets over shards.
        let scenarios = vec![
            SetScenario {
                links: vec![
                    LinkProfile::clean_with_omega(17.0, -0.13),
                    LinkProfile::clean_with_omega(17.0, 0.14),
                ],
                p_sense: 0.0,
                seed: 1201,
            },
            SetScenario { links: omega_spread_links(3, 17.0), p_sense: 0.0, seed: 1202 },
        ];
        let cfg = ExperimentConfig {
            payload: 150,
            rounds: 10,
            decoder: DecoderConfig::shared_ap(),
            ..Default::default()
        };
        let r1 = run_sharded_sets(&scenarios, &cfg, ShardConfig::with_shards(1));
        let r2 = run_sharded_sets(&scenarios, &cfg, ShardConfig::with_shards(2));
        let r4 = run_sharded_sets(&scenarios, &cfg, ShardConfig { shards: 4, queue_depth: 2 });
        assert_eq!(r1.outcomes, r2.outcomes, "2-shard run diverged from single-shard");
        assert_eq!(r1.outcomes, r4.outcomes, "4-shard run diverged from single-shard");
        let zigzag: usize = r1.outcomes.iter().map(|o| o.zigzag_delivered).sum();
        assert!(zigzag > 0, "matched-collision decoding must fire: {:?}", r1.outcomes);
        for o in &r1.outcomes {
            assert!(o.collisions_stored > 0, "hidden sets must store collisions: {o:?}");
        }
        assert!(
            r4.shard_loads.iter().filter(|&&l| l > 0).count() >= 2,
            "multi-set traffic must exercise routing: {:?}",
            r4.shard_loads
        );
    }

    #[test]
    fn batched_sets_match_sequential_runs() {
        let scenarios: Vec<SetScenario> = (0..3)
            .map(|i| SetScenario { links: omega_spread_links(3, 16.0), p_sense: 0.2, seed: 70 + i })
            .collect();
        let cfg = ExperimentConfig { payload: 120, rounds: 9, ..Default::default() };
        let run = |engine: BatchEngine| engine.map(&scenarios, |_, s| run_set(s, &cfg));
        let seq = run(BatchEngine::single_threaded());
        let par = run(BatchEngine::new(3));
        assert_eq!(seq, par, "batched sets must be thread-count invariant");
    }

    #[test]
    fn continuous_air_carves_one_region_per_burst() {
        let scenario = SetScenario {
            links: vec![
                LinkProfile::clean_with_omega(17.0, -0.13),
                LinkProfile::clean_with_omega(17.0, 0.14),
            ],
            p_sense: 0.0,
            seed: 3,
        };
        let cfg = ExperimentConfig { payload: 150, ..Default::default() };
        let air = continuous_air(&scenario, &cfg, 2, 5000);
        assert_eq!(air.bursts, 4, "k collisions per group, k = 2, 2 groups");
        let regions = zigzag_core::stream::carve_buffer(
            &air.samples,
            &cfg.decoder,
            &air.registry,
            &zigzag_core::config::StreamConfig::default(),
        );
        assert_eq!(regions.len(), air.bursts, "gap > max_packet ⇒ one region per burst");
        assert!(regions.iter().all(|r| !r.detections.is_empty()));
    }

    #[test]
    fn batched_pairs_match_sequential_runs() {
        let mut rng = StdRng::seed_from_u64(9);
        let scenarios: Vec<PairScenario> = (0..3)
            .map(|i| PairScenario {
                link_a: LinkProfile::typical(13.0, &mut rng),
                link_b: LinkProfile::typical(13.0, &mut rng),
                p_sense: 0.0,
                seed: 80 + i,
            })
            .collect();
        let cfg = ExperimentConfig { payload: 150, rounds: 6, ..Default::default() };
        let run = |engine: BatchEngine| {
            engine.map(&scenarios, |_, s| run_pair(&s.link_a, &s.link_b, s.p_sense, &cfg, s.seed))
        };
        let seq = run(BatchEngine::single_threaded());
        let par = run(BatchEngine::new(3));
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.zigzag.delivered, b.zigzag.delivered);
            assert_eq!(a.s802.delivered, b.s802.delivered);
            assert_eq!(a.cfs.delivered, b.cfs.delivered);
            assert_eq!(a.zigzag.bit_errors, b.zigzag.bit_errors);
        }
    }
}
