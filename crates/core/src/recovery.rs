//! Algebraic batch collision recovery — joint Gaussian elimination over
//! collision groups the chunk scheduler cannot peel.
//!
//! ZigZag (§4.2.3/§4.5) decodes one interference-free chunk at a time, so
//! a match set with no usable chunk boundary is dead weight to it: the
//! §4.5 failure case Δ₁ = Δ₂ (two collisions with identical relative
//! offsets) is *provably* undecodable by peeling, because both collisions
//! are the same combinatorial equation. But they are **not** the same
//! linear equation over the air: each reception carries its own channel
//! coefficients (fresh carrier phase, fractional timing, gain), so the
//! per-symbol systems
//!
//! ```text
//!   y₁[p] = H₁ᴬ·a[n] + H₁ᴮ·b[n−Δ] + w₁
//!   y₂[p] = H₂ᴬ·a[n] + H₂ᴮ·b[n−Δ] + w₂
//! ```
//!
//! stay invertible — the "Collision Helps" observation (arXiv:1001.1948)
//! that jointly solving *many* collisions as one linear system recovers
//! packets no single collision can yield, and the shift-structure-as-
//! erasure-code view of zigzag-decodable fountain codes (arXiv:1605.09125).
//!
//! This module is that joint solver, grown on the receiver's existing
//! machinery:
//!
//! * **Inputs** — a [`RecoveryGroup`]: m collision buffers over the same
//!   k packets, assembled from (a) the alignments
//!   [`classify_match`](crate::matchset::classify_match) confirms but
//!   [`schedule::decodability`](crate::schedule::decodability) rejects
//!   as under-determined, and (b) the [`SalvagePool`] of collisions the
//!   bounded store evicted — eviction becomes signal instead of loss.
//! * **Equations** — extracted from per-(collision × packet)
//!   [`ChannelView`]s, exactly the estimation the ZigZag executor uses:
//!   each unknown symbol's coefficient column is the view's unit-impulse
//!   image (gain, phase ramp, fractional timing, ISI taps). Per window,
//!   each view renders one such image as a template through the
//!   pluggable [`kernel::Backend`](zigzag_phy::kernel), so equation
//!   extraction rides the same scalar/simd seam as the rest of the phy;
//!   every column is that template shifted to its symbol and rotated by
//!   the view's carrier phase there.
//! * **Solver** — a sliding window of per-packet frontier symbols is
//!   solved by regularised least squares (Gaussian elimination on the
//!   normal equations, [`zigzag_phy::linalg::lstsq_cond`], with a ridge
//!   scaled from each window's measured observation spread); well-
//!   observed symbols are sliced to their constellation, committed, their
//!   images delta-subtracted from every buffer through the cancellation
//!   core the ZigZag executor uses (with per-window PI phase tracking of
//!   every view), and the window advances. This is block
//!   Gaussian elimination with decision feedback: peelable regions cost
//!   one well-conditioned triangular solve, and regions peeling cannot
//!   touch (duplicate offsets) are carried by the cross-collision channel
//!   diversity. A CRC-failed solve is retried from re-estimated channels
//!   (turbo re-estimation, arXiv:1401.7374; see [`solve_group`]).
//! * **Output** — per-packet frames, emitted **only** when the CRC-32
//!   checks out ([`PlcpHeader::frame_from_bits`]); the receiver's
//!   `(src, seq)` delivery dedup makes emission idempotent across the
//!   zigzag and recovery paths.
//!
//! The pipeline hosts this as
//! [`RecoverStage`](crate::engine::stage::RecoverStage) (after the
//! ZigZag stage, shard-local so the sharded receiver stays
//! bit-deterministic), which solves one group at a time through
//! [`solve_group`].

use crate::config::{debug_trace, ClientRegistry, DecoderConfig};
use crate::detect::Detection;
use crate::engine::scratch::Scratch;
use crate::matcher::{MATCH_THRESHOLD, MATCH_WINDOW};
use crate::matchset::{
    footprint_metric, pair_alignment, RejectedSet, StoredCollision, MAX_KWAY, MAX_TRACKED_KEYS,
};
use crate::schedule::{min_coverage_lens, shift_signature, CollisionLayout};
use crate::sic::Cancellation;
use crate::view::{ChannelView, Image, PacketLayout, Tracking, WindowPll};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use zigzag_phy::complex::{Complex, ZERO};
use zigzag_phy::frame::{Frame, PlcpHeader, PLCP_SYMBOLS};
use zigzag_phy::linalg::{gram_conditioning, lstsq_cond};
use zigzag_phy::preamble::Preamble;

/// Solver window width, in symbols per packet: how many undecided
/// symbols of each packet enter one joint least-squares solve.
const WINDOW: usize = 32;

/// Symbols committed (sliced and subtracted) per window advance; the
/// rest of the window is look-ahead context.
const COMMIT: usize = 16;

/// Tikhonov ridge of the per-window normal equations, relative to the
/// mean observation energy before the spread scaling. Keeps
/// barely-observed look-ahead symbols from destabilising the solve.
const LAMBDA: f64 = 1e-4;

/// Observation gate: a symbol is only committed when its equation energy
/// (the normal-matrix diagonal) reaches this fraction of the window's
/// strongest symbol — under-observed symbols wait for the window to
/// slide instead of committing garbage.
const MIN_OBSERVATION: f64 = 0.25;

/// Turbo re-estimation passes after a CRC-failed first solve (see
/// [`solve_group`]).
const TURBO_ITERS: usize = 2;

/// Conditioning floor for salvage-pool member admission: a candidate is
/// recruited only while the group's channel-proxy Gram matrix keeps at
/// least this normalised determinant ([`gram_conditioning`], `1.0` =
/// orthogonal equations, `0.0` = collinear).
const MIN_CONDITIONING: f64 = 0.02;

/// A collision buffer the bounded store evicted, retained for joint
/// solves instead of dropped.
#[derive(Clone, Debug)]
pub struct SalvagedCollision {
    /// The client-set key it was stored under.
    pub key: Vec<u16>,
    /// The raw receive buffer.
    pub buffer: Vec<Complex>,
    /// The detections found in it at store time.
    pub detections: Vec<Detection>,
    /// The entry's cached correlation footprint, carried over from the
    /// store so salvage-pool confirmation reuses the characterization a
    /// member accumulated during its store lifetime instead of
    /// re-interpolating the buffer (see
    /// [`StoredCollision::footprint`](crate::matchset::StoredCollision)).
    pub footprint: RefCell<zigzag_phy::kernel::CorrFootprint>,
    /// Monotone admission stamp (pool-local; the global valve's age
    /// order).
    stamp: u64,
}

/// The keyed, bounded pool of salvaged collisions: what the receiver
/// keeps of buffers the [`CollisionStore`](crate::matchset::CollisionStore)
/// evicted, so a later retransmission can still recruit their equations.
///
/// Bounding mirrors the store: at most `cap` entries per client-set key
/// (oldest dropped first — for good, this is the last stop), plus a
/// `cap × 16` global valve against key floods. Keys never interact, so
/// the pool is shard-decomposable exactly like the store — the property
/// the sharded receiver's bit-determinism rests on.
#[derive(Clone, Debug, Default)]
pub struct SalvagePool {
    by_key: HashMap<Vec<u16>, VecDeque<SalvagedCollision>>,
    cap: usize,
    next_stamp: u64,
    total: usize,
}

impl SalvagePool {
    /// An empty pool holding at most `cap` salvaged collisions per
    /// client-set key.
    pub fn new(cap: usize) -> Self {
        Self { by_key: HashMap::new(), cap, next_stamp: 0, total: 0 }
    }

    /// Number of salvaged collisions, over all keys.
    pub fn len(&self) -> usize {
        self.total
    }

    /// `true` if nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of salvaged collisions under `key`.
    pub fn key_len(&self, key: &[u16]) -> usize {
        self.by_key.get(key).map_or(0, VecDeque::len)
    }

    /// Drops every pooled collision.
    pub fn clear(&mut self) {
        self.by_key.clear();
        self.total = 0;
    }

    /// Absorbs a store eviction under its existing key. The entry's
    /// correlation footprint rides along: characterization survives the
    /// store→pool transition.
    pub fn absorb(&mut self, evicted: StoredCollision) {
        let StoredCollision { key, buffer, detections, footprint, .. } = evicted;
        self.push(SalvagedCollision { key, buffer, detections, footprint, stamp: 0 });
    }

    fn push(&mut self, mut entry: SalvagedCollision) {
        if self.cap == 0 {
            return;
        }
        entry.stamp = self.next_stamp;
        self.next_stamp += 1;
        let order = self.by_key.entry(entry.key.clone()).or_default();
        order.push_back(entry);
        if order.len() > self.cap {
            order.pop_front();
            self.total = self.total.wrapping_sub(1);
        }
        self.total += 1;
        // global valve: shed the oldest entry anywhere (deterministic —
        // stamps are totally ordered)
        while self.total > self.cap * MAX_TRACKED_KEYS {
            let victim = self
                .by_key
                .iter()
                .filter_map(|(k, v)| v.front().map(|e| (e.stamp, k.clone())))
                .min()
                .map(|(_, k)| k)
                .expect("over-capacity pool has entries");
            let order = self.by_key.get_mut(&victim).expect("victim key present");
            order.pop_front();
            if order.is_empty() {
                self.by_key.remove(&victim);
            }
            self.total -= 1;
        }
    }

    /// Pooled collisions under `key`, oldest first.
    pub fn candidates<'a>(
        &'a self,
        key: &[u16],
    ) -> impl Iterator<Item = &'a SalvagedCollision> + 'a {
        self.by_key.get(key).into_iter().flatten()
    }

    /// Removes the entries at `indices` (into the oldest-first candidate
    /// order) under `key` — what a successful joint solve consumes.
    pub fn consume(&mut self, key: &[u16], indices: &[usize]) {
        let Some(order) = self.by_key.get_mut(key) else {
            return;
        };
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_unstable();
        for &i in sorted.iter().rev() {
            if i < order.len() {
                order.remove(i);
                self.total -= 1;
            }
        }
        if order.is_empty() {
            self.by_key.remove(key);
        }
    }
}

/// One jointly-solvable unit: `m` collision buffers over the same `k`
/// packets, with every packet's start known in every buffer.
///
/// Collision 0 is conventionally the *current* receive buffer; the rest
/// come from the store (via a rejected
/// [`MatchSet`](crate::matchset::MatchSet)) and/or the [`SalvagePool`].
#[derive(Clone, Debug)]
pub struct RecoveryGroup {
    /// The collision buffers (owned — group assembly copies them out of
    /// the store/pool so the solve is self-contained).
    pub buffers: Vec<Vec<Complex>>,
    /// `(packet index, start sample)` placements per collision, aligned
    /// with `buffers`.
    pub placements: Vec<Vec<(usize, usize)>>,
    /// Client id of each packet.
    pub clients: Vec<u16>,
}

impl RecoveryGroup {
    /// Number of packets in the system.
    pub fn packets(&self) -> usize {
        self.clients.len()
    }

    /// Number of collision buffers.
    pub fn collisions(&self) -> usize {
        self.buffers.len()
    }
}

/// Result of the joint solve for one packet.
#[derive(Clone, Debug)]
pub struct RecoveredPacket {
    /// The packet's sender.
    pub client: u16,
    /// The recovered frame, if its CRC-32 checked out.
    pub frame: Option<Frame>,
    /// Best-effort scrambled MPDU bits (BER scoring even when the CRC
    /// fails).
    pub scrambled_bits: Vec<u8>,
    /// `true` if every symbol up to the learned length was committed.
    pub complete: bool,
}

/// Assembles a group from a confirmed-but-undecodable match set, pulling
/// the member buffers out of the store by id. Returns `None` if any
/// member id has since left the store (a custom stage consumed it).
pub fn group_from_rejected(
    buffer: &[Complex],
    rejected: &RejectedSet,
    store: &crate::matchset::CollisionStore,
) -> Option<RecoveryGroup> {
    let set = &rejected.set;
    let mut buffers = Vec::with_capacity(set.collisions());
    buffers.push(buffer.to_vec());
    for &id in &set.members {
        buffers.push(store.get(id)?.buffer.clone());
    }
    let placements = (0..set.collisions()).map(|j| set.placements(j)).collect();
    Some(RecoveryGroup { buffers, placements, clients: set.clients() })
}

/// Pairs a current collision's detections against a pooled candidate's,
/// one pair per client of `key` — the k ≥ 3 generalisation of the
/// pairwise [`pair_alignment`]: each side contributes its **earliest**
/// detection per client (true packet starts cluster at the front of a
/// collision; later same-client spikes are §5.3a data sidelobes), and
/// packets are ordered by their current-buffer start (ties by client id),
/// mirroring the pairwise convention that packet 0 is the earliest
/// current detection.
fn kway_pairing(
    detections: &[Detection],
    cand_detections: &[Detection],
    key: &[u16],
) -> Option<Vec<(Detection, Detection)>> {
    let earliest = |dets: &[Detection], client: u16| -> Option<Detection> {
        dets.iter().filter(|d| d.client == client).min_by_key(|d| d.pos).copied()
    };
    let mut pairs: Vec<(Detection, Detection)> = key
        .iter()
        .map(|&client| Some((earliest(detections, client)?, earliest(cand_detections, client)?)))
        .collect::<Option<_>>()?;
    pairs.sort_by_key(|&(c, _)| (c.pos, c.client));
    Some(pairs)
}

/// One collision's row in the conditioning proxy: its per-packet channel
/// coefficients (the detection correlations, ≈ `H·L`) embedded in a
/// coordinate block keyed by the collision's shift signature. Equations
/// from different signatures are independent by structure (they couple
/// different symbol index pairs), so their rows are made orthogonal
/// outright; same-signature collisions — §4.5's degenerate case — are
/// left to be scored by their channel diversity alone.
fn proxy_row(
    signatures: &mut Vec<Vec<Option<isize>>>,
    pairing_starts: &[(usize, usize)],
    corrs: &[Complex],
) -> (usize, Vec<Complex>) {
    let k = corrs.len();
    let sig = shift_signature(k, &CollisionLayout::from_pairs(pairing_starts, 0));
    let block = signatures.iter().position(|s| *s == sig).unwrap_or_else(|| {
        signatures.push(sig);
        signatures.len() - 1
    });
    let mut row = vec![ZERO; (block + 1) * k];
    row[block * k..].copy_from_slice(corrs);
    (block, row)
}

/// Pads every proxy row to the widest block width so
/// [`gram_conditioning`] sees a rectangular system.
fn proxy_conditioning(rows: &[(usize, Vec<Complex>)]) -> f64 {
    let width = rows.iter().map(|(_, r)| r.len()).max().unwrap_or(0);
    let dense: Vec<Vec<Complex>> = rows
        .iter()
        .map(|(_, r)| {
            let mut d = r.clone();
            d.resize(width, ZERO);
            d
        })
        .collect();
    gram_conditioning(&dense)
}

/// Assembles a group from the salvage pool: pairs the current collision's
/// detections against each same-key pooled entry by client, confirms the
/// alignment by sample correlation on **every** packet, and admits up to
/// `max_members` members. Returns the group plus the candidate indices it
/// used (so a successful solve can [`SalvagePool::consume`] them).
///
/// Handles any key size up to the matcher's `MAX_KWAY`: two-client keys
/// keep the historical [`pair_alignment`] pairing bit-for-bit; larger
/// keys pair earliest-detection-per-client (`kway_pairing`). Every
/// confirmation runs through the candidate's **cached** correlation
/// footprint, so a pooled buffer is characterized once across all
/// recruitment rounds it survives, not once per round.
///
/// Pure-shift members are admitted on purpose — cross-collision channel
/// diversity is exactly what the joint solver exploits. But diversity is
/// measurable: each candidate is admitted only while the group's
/// channel-proxy Gram matrix (detection correlations, block-keyed by
/// placement shift signature) keeps a normalised determinant of at least
/// 0.02 — a recruit whose equations are near-collinear with the rows
/// already admitted would only poison the joint `lstsq`, so it is skipped
/// rather than solved against.
pub fn group_from_pool(
    ws: &mut Scratch,
    buffer: &[Complex],
    detections: &[Detection],
    key: &[u16],
    pool: &SalvagePool,
    max_members: usize,
) -> Option<(RecoveryGroup, Vec<usize>)> {
    let k = key.len();
    if !(2..=MAX_KWAY).contains(&k) || max_members == 0 {
        return None;
    }
    let mut buffers = vec![buffer.to_vec()];
    let mut placements: Vec<Vec<(usize, usize)>> = Vec::new();
    let mut clients: Vec<u16> = Vec::new();
    let mut used = Vec::new();
    let mut signatures: Vec<Vec<Option<isize>>> = Vec::new();
    let mut proxy: Vec<(usize, Vec<Complex>)> = Vec::new();
    for (i, cand) in pool.candidates(key).enumerate() {
        if placements.len() > max_members {
            break;
        }
        // the historical pairwise alignment for k = 2; earliest-per-client
        // consensus for k ≥ 3
        let pairing: Vec<(Detection, Detection)> = if k == 2 {
            match pair_alignment(detections, &cand.detections) {
                Some((pairing, _pure_shift)) => pairing.to_vec(),
                None => continue,
            }
        } else {
            match kway_pairing(detections, &cand.detections, key) {
                Some(pairing) => pairing,
                None => continue,
            }
        };
        // the §4.2.2 confirmation, through the candidate's cached
        // footprint; above the threshold the bailed metric is exact, so
        // the decision matches an unbailed `is_match`
        if !pairing.iter().all(|&(c, s)| {
            footprint_metric(
                ws,
                buffer,
                c.pos,
                &cand.buffer,
                &cand.footprint,
                s.pos,
                MATCH_WINDOW,
                0.25,
                Some(MATCH_THRESHOLD),
            ) > MATCH_THRESHOLD
        }) {
            continue;
        }
        if placements.is_empty() {
            // first member fixes the packet order (current-buffer starts)
            placements.push(pairing.iter().enumerate().map(|(q, &(c, _))| (q, c.pos)).collect());
            clients = pairing.iter().map(|&(c, _)| c.client).collect();
            let current_corrs: Vec<Complex> = pairing.iter().map(|&(c, _)| c.corr).collect();
            proxy.push(proxy_row(&mut signatures, &placements[0], &current_corrs));
        }
        // subsequent members must agree on the current-buffer pairing
        if pairing.iter().map(|&(c, _)| (c.client, c.pos)).collect::<Vec<_>>()
            != clients
                .iter()
                .zip(placements[0].iter())
                .map(|(&cl, &(_, p))| (cl, p))
                .collect::<Vec<_>>()
        {
            continue;
        }
        // conditioning gate: score the equation set *with* this recruit
        // before committing to it
        let cand_placements: Vec<(usize, usize)> =
            pairing.iter().enumerate().map(|(q, &(_, s))| (q, s.pos)).collect();
        let cand_corrs: Vec<Complex> = pairing.iter().map(|&(_, s)| s.corr).collect();
        let row = proxy_row(&mut signatures, &cand_placements, &cand_corrs);
        proxy.push(row);
        if proxy_conditioning(&proxy) < MIN_CONDITIONING {
            proxy.pop();
            continue;
        }
        buffers.push(cand.buffer.clone());
        placements.push(cand_placements);
        used.push(i);
    }
    if used.is_empty() {
        return None;
    }
    Some((RecoveryGroup { buffers, placements, clients }, used))
}

/// Jointly solves one group: sliding-window regularised least squares
/// over [`ChannelView`]-extracted equations, decision commits, image
/// subtraction with tracking feedback, PLCP learning, CRC gate. See the
/// module docs for the algorithm.
///
/// A CRC-failed first pass is followed by up to two turbo re-estimation
/// passes (the SIC iteration of arXiv:1401.7374): every [`ChannelView`]
/// is re-derived from its own interference-cancelled buffer — the first
/// pass's decision images of *other* packets subtracted expose each
/// packet's preamble nearly clean — and the group is solved again.
/// Iteration stops at the cap, when every CRC passes, or when the
/// decisions stop changing (converged — another pass would repeat it).
/// Per packet, the first CRC-valid frame across passes wins; a later
/// pass can only add deliveries, never lose one.
pub fn solve_group(
    group: &RecoveryGroup,
    registry: &ClientRegistry,
    preamble: &Preamble,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Vec<RecoveredPacket> {
    let Some(mut solver) = Solver::new(group, registry, preamble, cfg) else {
        return group
            .clients
            .iter()
            .map(|&client| RecoveredPacket {
                client,
                frame: None,
                scrambled_bits: Vec::new(),
                complete: false,
            })
            .collect();
    };
    let mut best = solver.run(ws);
    if best.iter().all(|p| p.frame.is_some()) {
        return best;
    }
    let mut prev_decided = solver.decided.clone();
    for _pass in 0..TURBO_ITERS {
        let Some(mut next) = solver.turbo_restart() else {
            break;
        };
        let result = next.run(ws);
        for (b, r) in best.iter_mut().zip(result) {
            if b.frame.is_none() && r.frame.is_some() {
                *b = r;
            }
        }
        solver = next;
        if best.iter().all(|p| p.frame.is_some()) || solver.decided == prev_decided {
            break;
        }
        prev_decided = solver.decided.clone();
    }
    best
}

/// The first window's least-squares system of `group`'s first solver
/// pass, as [`solve_group`] hands it to [`lstsq_cond`]: the equation
/// rows, the observations and the ridge `λ`. `None` when the group has
/// no solvable shape or the pass stalls before assembling a system.
/// Lets benchmarks and tests time or check one window solve alone.
pub fn first_window_system(
    group: &RecoveryGroup,
    registry: &ClientRegistry,
    preamble: &Preamble,
    cfg: &DecoderConfig,
    ws: &mut Scratch,
) -> Option<(Vec<Vec<Complex>>, Vec<Complex>, f64)> {
    let mut solver = Solver::new(group, registry, preamble, cfg)?;
    solver.subtract_preambles(ws);
    loop {
        match solver.prepare_window(ws) {
            WindowPrep::Advanced => continue,
            WindowPrep::Stalled => return None,
            WindowPrep::System(sys) => return Some((sys.rows, sys.b, sys.lambda)),
        }
    }
}

/// The per-group solver state.
struct Solver<'a> {
    group: &'a RecoveryGroup,
    preamble: &'a Preamble,
    cfg: &'a DecoderConfig,
    /// Per-(collision × packet) channel views; `None` when the packet is
    /// not placed in that collision.
    views: Vec<Vec<Option<ChannelView>>>,
    /// Start of packet `q` in collision `c` (usize::MAX when absent).
    starts: Vec<Vec<usize>>,
    /// Per-packet layouts; `total_syms` is the packet's length, shrunk
    /// to the PLCP's once that is read.
    layouts: Vec<PacketLayout>,
    plcp: Vec<Option<PlcpHeader>>,
    decided: Vec<Vec<Option<Complex>>>,
    frontier: Vec<usize>,
    /// The group's residuals and committed images.
    sic: Cancellation,
    /// Per-(collision × packet) PI phase-tracker state
    /// ([`Tracking::Window`]).
    pll: Vec<Vec<WindowPll>>,
    debug: bool,
}

/// Outcome of [`Solver::prepare_window`].
enum WindowPrep {
    /// The window assembled a least-squares system; solve it and feed the
    /// result to [`Solver::apply_window`].
    System(WindowSystem),
    /// No system this step, but uncovered symbols were skipped and the
    /// frontier moved — call `prepare_window` again.
    Advanced,
    /// Nothing could advance: the pass is over.
    Stalled,
}

impl WindowPrep {
    /// Maps [`Solver::force_skip_uncovered`]'s return (`true` = frontier
    /// moved) onto the prep outcome.
    fn from_skip(skipped: bool) -> WindowPrep {
        if skipped {
            WindowPrep::Advanced
        } else {
            WindowPrep::Stalled
        }
    }
}

/// One sliding window's assembled regularised least-squares system plus
/// everything [`Solver::apply_window`] needs to gate and commit its
/// solution. Each packet's unknown symbols are one contiguous run of
/// columns, from `col_start[q]` (symbol `sym_start[q]`) up to
/// `col_start[q + 1]`; [`WindowSystem::col_of`] maps a symbol to its
/// column. `diag[j]` is column `j`'s observation energy (the
/// normal-matrix diagonal), which gates commits against
/// `MIN_OBSERVATION * diag_max`.
struct WindowSystem {
    rows: Vec<Vec<Complex>>,
    b: Vec<Complex>,
    lambda: f64,
    diag: Vec<f64>,
    diag_max: f64,
    col_start: Vec<usize>,
    sym_start: Vec<usize>,
}

impl WindowSystem {
    /// The column holding unknown symbol `n` of packet `q`.
    fn col_of(&self, q: usize, n: usize) -> usize {
        let j = self.col_start[q] + (n - self.sym_start[q]);
        debug_assert!(j < self.col_start[q + 1], "symbol {n} of packet {q} is outside the window");
        j
    }
}

impl<'a> Solver<'a> {
    /// Estimates views and seeds the known preambles. Returns `None` when
    /// a required view cannot be estimated (start too close to a buffer
    /// end) or the group has no solvable shape.
    fn new(
        group: &'a RecoveryGroup,
        registry: &ClientRegistry,
        preamble: &'a Preamble,
        cfg: &'a DecoderConfig,
    ) -> Option<Solver<'a>> {
        let (starts, lens) = Self::geometry(group, preamble)?;

        // Per-(c, q) views, estimated on the raw buffers exactly like the
        // executor's `make_view`: association ω and ISI taps, channel
        // gain/phase/µ from the (possibly immersed) preamble correlation.
        let k = group.packets();
        let m = group.collisions();
        let mut views: Vec<Vec<Option<ChannelView>>> = vec![Vec::new(); m];
        for c in 0..m {
            for q in 0..k {
                let s = starts[c][q];
                if s == usize::MAX {
                    views[c].push(None);
                    continue;
                }
                let info = registry.get(group.clients[q]);
                let clean = preamble_clean(&starts[c], &lens, q, preamble.len());
                let v = ChannelView::estimate(
                    &group.buffers[c],
                    s,
                    preamble.symbols(),
                    info.map(|i| i.omega),
                    info.map(|i| i.taps.clone()).as_ref(),
                    clean,
                    cfg,
                )?;
                views[c].push(Some(v));
            }
        }

        Some(Self::assemble(group, preamble, cfg, starts, lens, views))
    }

    /// The group's solve geometry: per-(collision × packet) start table
    /// and the tightest coverage-consistent length estimates. `None` when
    /// the group has no solvable shape.
    fn geometry(
        group: &RecoveryGroup,
        preamble: &Preamble,
    ) -> Option<(Vec<Vec<usize>>, Vec<usize>)> {
        let k = group.packets();
        let m = group.collisions();
        if k == 0 || m == 0 {
            return None;
        }
        let layouts_sched: Vec<CollisionLayout> = group
            .placements
            .iter()
            .zip(&group.buffers)
            .map(|(pl, buf)| CollisionLayout::from_pairs(pl, buf.len()))
            .collect();
        let lens = min_coverage_lens(k, &layouts_sched);
        if lens.iter().any(|&l| l <= preamble.len() + PLCP_SYMBOLS) {
            return None;
        }
        let mut starts = vec![vec![usize::MAX; k]; m];
        for (c, pl) in group.placements.iter().enumerate() {
            for &(q, s) in pl {
                starts[c][q] = s;
            }
        }
        Some((starts, lens))
    }

    /// Builds the solver state around an already-estimated view table —
    /// the seam [`Solver::new`] and [`Solver::turbo_restart`] share.
    fn assemble(
        group: &'a RecoveryGroup,
        preamble: &'a Preamble,
        cfg: &'a DecoderConfig,
        starts: Vec<Vec<usize>>,
        lens: Vec<usize>,
        views: Vec<Vec<Option<ChannelView>>>,
    ) -> Solver<'a> {
        let k = group.packets();
        let layouts: Vec<PacketLayout> = (0..k)
            .map(|q| PacketLayout::unknown(preamble.symbols().to_vec(), PLCP_SYMBOLS, lens[q]))
            .collect();
        let mut decided: Vec<Vec<Option<Complex>>> = lens.iter().map(|&l| vec![None; l]).collect();
        for (q, layout) in layouts.iter().enumerate() {
            for (n, slot) in decided[q].iter_mut().enumerate().take(preamble.len()) {
                *slot = layout.known_symbol(n);
            }
        }

        Solver {
            group,
            preamble,
            cfg,
            views,
            starts,
            layouts,
            plcp: vec![None; k],
            decided,
            frontier: vec![preamble.len(); k],
            sic: Cancellation::new(group.buffers.iter().map(Vec::as_slice), k),
            pll: (0..group.collisions()).map(|_| vec![WindowPll::default(); k]).collect(),
            debug: debug_trace(),
        }
    }

    /// The turbo re-estimation restart (arXiv:1401.7374's SIC iteration):
    /// for every (collision × packet), build the *interference-cancelled*
    /// buffer `residual[c] + acc[c][q]` — the raw reception with the
    /// previous pass's decision images of every **other** packet
    /// subtracted — and re-derive the view from its now nearly-clean
    /// preamble (fresh µ search, gain and phase re-anchor; the tracked ω
    /// and ISI taps carry over as hints). Falls back per view to a phase
    /// re-anchor, then to the previous view, when the cleaned preamble
    /// will not carry a fresh estimate. Returns a fresh solver over the
    /// same group (decisions reset — the new views re-decide everything).
    fn turbo_restart(&self) -> Option<Solver<'a>> {
        let (starts, lens) = Self::geometry(self.group, self.preamble)?;
        let k = self.group.packets();
        let m = self.group.collisions();
        let mut views: Vec<Vec<Option<ChannelView>>> = vec![Vec::new(); m];
        let mut cleaned: Vec<Complex> = Vec::new();
        for c in 0..m {
            for (q, &start) in starts[c].iter().enumerate().take(k) {
                let Some(old) = self.views[c][q].as_ref() else {
                    views[c].push(None);
                    continue;
                };
                cleaned.clear();
                cleaned.extend(self.sic.cleaned(c, q));
                let v = ChannelView::estimate(
                    &cleaned,
                    start,
                    self.preamble.symbols(),
                    Some(old.phase.omega()),
                    Some(&old.taps),
                    false,
                    self.cfg,
                )
                .or_else(|| old.reanchored(&cleaned, self.preamble.symbols()))
                .unwrap_or_else(|| old.clone());
                views[c].push(Some(v));
            }
        }
        Some(Self::assemble(self.group, self.preamble, self.cfg, starts, lens, views))
    }

    /// Packet `q`'s length in symbols.
    fn len(&self, q: usize) -> usize {
        self.layouts[q].total_syms
    }

    /// The sample reach of one symbol through ISI taps + the sinc
    /// interpolation skirt (matching the synthesis margin).
    fn reach(&self) -> usize {
        let taps = self.views.iter().flatten().flatten().map(|v| v.taps.len()).max().unwrap_or(1);
        taps + 10
    }

    /// Runs one pass of the sliding-window joint solve: subtracts the
    /// known preambles, then solves window after window until every
    /// frontier reaches its packet's end or the solve stalls, and
    /// finalizes every packet (slice to bits, CRC gate).
    fn run(&mut self, ws: &mut Scratch) -> Vec<RecoveredPacket> {
        let k = self.group.packets();
        self.subtract_preambles(ws);
        while (0..k).any(|q| self.frontier[q] < self.len(q)) {
            match self.prepare_window(ws) {
                WindowPrep::Advanced => continue,
                WindowPrep::Stalled => break,
                WindowPrep::System(sys) => {
                    let sol = lstsq_cond(&sys.rows, &sys.b, sys.lambda);
                    if !self.apply_window(&sys, sol, ws) {
                        break;
                    }
                }
            }
        }
        (0..k).map(|q| self.finalize(q)).collect()
    }

    /// Subtracts every packet's known preamble image from the residuals,
    /// the first step of a pass.
    fn subtract_preambles(&mut self, ws: &mut Scratch) {
        for q in 0..self.group.packets() {
            let range = 0..self.preamble.len().min(self.len(q));
            self.subtract_packet(q, range, ws);
        }
    }

    /// Per-collision equation windows: a position is usable once every
    /// symbol its sample can reach (`reach` samples away) is either
    /// decided or in the window. Empty when no packet of the collision is
    /// still open.
    fn equation_spans(&self, reach: usize) -> Vec<std::ops::Range<usize>> {
        let k = self.group.packets();
        let mut spans = Vec::with_capacity(self.group.collisions());
        for (c, buffer) in self.group.buffers.iter().enumerate() {
            let mut lo = usize::MAX;
            let mut hi = buffer.len();
            let mut any_active = false;
            for q in 0..k {
                let s = self.starts[c][q];
                if s == usize::MAX || self.frontier[q] >= self.len(q) {
                    continue;
                }
                any_active = true;
                lo = lo.min((s + self.frontier[q]).saturating_sub(reach));
                // samples may not touch symbols beyond q's window — unless
                // the window already reaches q's end, where there is
                // nothing beyond to protect
                let w_end = self.frontier[q] + WINDOW;
                if w_end < self.len(q) {
                    hi = hi.min((s + w_end).saturating_sub(reach));
                } else {
                    hi = hi.min(s + self.len(q) + reach);
                }
            }
            if !any_active || lo >= hi {
                spans.push(0..0);
            } else {
                spans.push(lo..hi);
            }
        }
        spans
    }

    /// One window step: assemble this window's equations. Either yields
    /// the regularised least-squares system for [`Solver::run`] to solve
    /// and feed back through [`Solver::apply_window`], or reports that the
    /// frontier advanced without a system (uncovered symbols skipped), or
    /// that the solve has genuinely stalled.
    fn prepare_window(&mut self, ws: &mut Scratch) -> WindowPrep {
        let k = self.group.packets();
        let m = self.group.collisions();
        let reach = self.reach();

        // unknown columns: per packet, the next `WINDOW` undecided symbols
        let mut col_start = Vec::with_capacity(k + 1);
        let mut cols = 0;
        for q in 0..k {
            col_start.push(cols);
            cols += (self.frontier[q] + WINDOW).min(self.len(q)).saturating_sub(self.frontier[q]);
        }
        col_start.push(cols);
        if cols == 0 {
            return WindowPrep::Stalled;
        }

        let spans = self.equation_spans(reach);
        let n_rows: usize = spans.iter().map(|s| s.len()).sum();
        if n_rows == 0 {
            return WindowPrep::from_skip(self.force_skip_uncovered());
        }

        // assemble A and b: packet q's coefficient columns in collision c
        // are one unit-impulse template through the view (gain · ISI ·
        // sinc resample, on the kernel backend), shifted and rotated per
        // symbol
        let mut rows = vec![vec![ZERO; cols]; n_rows];
        let mut b = vec![ZERO; n_rows];
        let mut row_base = vec![0usize; m];
        {
            let mut acc = 0;
            for c in 0..m {
                row_base[c] = acc;
                acc += spans[c].len();
                let residual = self.sic.residual(c);
                for (i, p) in spans[c].clone().enumerate() {
                    b[row_base[c] + i] = residual[p];
                }
            }
        }
        let Scratch { pool, kernel, .. } = ws;
        let mut template = Image { first: 0, samples: pool.take() };
        for (c, span) in spans.iter().enumerate() {
            if span.is_empty() {
                continue;
            }
            for q in 0..k {
                let Some(view) = self.views[c][q].as_ref() else {
                    continue;
                };
                view.unit_template_into(pool, kernel, &mut template);
                for (j, n) in (col_start[q]..col_start[q + 1]).zip(self.frontier[q]..) {
                    for (p, a) in view.unit_column(&template, n, self.len(q)) {
                        if span.contains(&p) {
                            rows[row_base[c] + (p - span.start)][j] = a;
                        }
                    }
                }
            }
        }
        pool.put(template.samples);

        // observation energies (normal-matrix diagonal) gate the commits
        let diag: Vec<f64> =
            (0..cols).map(|j| rows.iter().map(|r| r[j].norm_sq()).sum::<f64>()).collect();
        let diag_max = diag.iter().fold(0.0f64, |a, &b| a.max(b));
        if diag_max <= 0.0 {
            return WindowPrep::from_skip(self.force_skip_uncovered());
        }
        // size the ridge from the window's *measured* observation spread:
        // weakly-observed look-ahead columns (small diagonal) are exactly
        // what drags the normal matrix toward singular, so the ridge grows
        // with the max/min energy ratio instead of staying a flat fraction
        // of the mean
        let mean_diag = diag.iter().sum::<f64>() / diag.len() as f64;
        let diag_min = diag.iter().copied().filter(|&d| d > 0.0).fold(f64::INFINITY, f64::min);
        let spread = if diag_min.is_finite() { (diag_max / diag_min).sqrt().min(1e3) } else { 1.0 };
        let lambda = LAMBDA * mean_diag.max(1e-12) * spread;
        let sym_start = self.frontier.clone();
        WindowPrep::System(WindowSystem { rows, b, lambda, diag, diag_max, col_start, sym_start })
    }

    /// Second half of a window step: consume the solution of the system
    /// `prepare_window` assembled and run the commit loop. Returns
    /// `false` when the solver genuinely stalled.
    fn apply_window(
        &mut self,
        sys: &WindowSystem,
        sol: Option<(Vec<Complex>, f64)>,
        ws: &mut Scratch,
    ) -> bool {
        let Some((x, cond)) = sol else {
            return self.force_skip_uncovered();
        };
        if self.debug {
            eprintln!(
                "recover: window conditioning {cond:.3e}, lambda {lambda:.3e}",
                lambda = sys.lambda
            );
        }
        let threshold = MIN_OBSERVATION * sys.diag_max;
        let k = self.group.packets();

        // commit contiguously from each packet's frontier
        let mut committed_any = false;
        for q in 0..k {
            let start = self.frontier[q];
            let end = (start + COMMIT).min(self.len(q));
            let mut n = start;
            while n < end {
                let j = sys.col_of(q, n);
                if sys.diag[j] < threshold {
                    break;
                }
                let soft = x[j];
                let point = match self.layouts[q].known_symbol(n) {
                    Some(kp) => kp,
                    None => self.layouts[q].modulation_at(n).decide_point(soft),
                };
                self.decided[q][n] = Some(point);
                n += 1;
            }
            if n > start {
                committed_any = true;
                self.frontier[q] = n;
                self.subtract_packet(q, start..n, ws);
                self.try_parse_plcp(q);
                if self.debug {
                    eprintln!("recover: q{q} committed {start}..{n} of {}", self.len(q));
                }
            }
        }
        if !committed_any {
            return self.force_skip_uncovered();
        }
        true
    }

    /// Stall breaker: symbols no buffer covers can never be solved —
    /// commit them as erasures (zero) so the frontier keeps moving (the
    /// packet will fail its CRC, exactly like the executor's livelock
    /// guard). Returns `false` when nothing could be skipped either —
    /// the genuine stall.
    fn force_skip_uncovered(&mut self) -> bool {
        let mut skipped = false;
        for q in 0..self.group.packets() {
            let mut n = self.frontier[q];
            let end = (n + COMMIT).min(self.len(q));
            while n < end && !self.covered(q, n) {
                self.decided[q][n] = Some(ZERO);
                n += 1;
                skipped = true;
            }
            self.frontier[q] = n;
        }
        if self.debug && !skipped {
            let lens: Vec<usize> = (0..self.group.packets()).map(|q| self.len(q)).collect();
            eprintln!("recover: stalled at frontiers {:?} of {lens:?}", self.frontier);
        }
        skipped
    }

    /// `true` if any buffer contains a sample of symbol `n` of packet `q`.
    fn covered(&self, q: usize, n: usize) -> bool {
        (0..self.group.collisions()).any(|c| {
            let s = self.starts[c][q];
            s != usize::MAX && s + n < self.group.buffers[c].len()
        })
    }

    /// Renders packet `q`'s committed symbols over `range` into every
    /// buffer containing it through the cancellation core, feeding each
    /// view's PI phase tracker.
    fn subtract_packet(&mut self, q: usize, range: std::ops::Range<usize>, ws: &mut Scratch) {
        if range.is_empty() {
            return;
        }
        for c in 0..self.group.collisions() {
            let Some(view) = self.views[c][q].as_mut() else {
                continue;
            };
            let tracking = Tracking::Window(&mut self.pll[c][q]);
            self.sic.render(c, q, view, range.clone(), &self.decided[q], tracking, ws);
        }
    }

    /// Learns packet `q`'s length and body modulation once its PLCP
    /// symbols are all committed.
    fn try_parse_plcp(&mut self, q: usize) {
        if self.plcp[q].is_some() {
            return;
        }
        let decided = &self.decided[q];
        let Some((plcp, fits)) = self.layouts[q].learn_plcp(|n| decided.get(n).copied().flatten())
        else {
            return;
        };
        self.plcp[q] = Some(plcp);
        if fits {
            let total = self.len(q);
            self.decided[q].truncate(total);
            self.frontier[q] = self.frontier[q].min(total);
        }
        if self.debug {
            eprintln!("recover: q{q} PLCP parsed, len {} mod {:?}", self.len(q), plcp.modulation);
        }
    }

    /// Slices the committed symbols to bits and CRC-checks the frame.
    fn finalize(&self, q: usize) -> RecoveredPacket {
        let complete = self.frontier[q] >= self.len(q) && self.plcp[q].is_some();
        let decided = &self.decided[q];
        let scrambled_bits = self.layouts[q]
            .body_bits((0..self.len(q)).map(|n| decided.get(n).copied().flatten().unwrap_or(ZERO)));
        let frame = self.plcp[q].and_then(|plcp| plcp.frame_from_bits(&scrambled_bits));
        RecoveredPacket { client: self.group.clients[q], frame, scrambled_bits, complete }
    }
}

/// `true` if packet `q`'s preamble region is free of other packets'
/// *live* signal in a collision with the given starts (nothing is
/// decoded yet when views are estimated, so overlap alone decides).
fn preamble_clean(starts: &[usize], lens: &[usize], q: usize, pre_len: usize) -> bool {
    let s_q = starts[q];
    if s_q == usize::MAX {
        return false;
    }
    let pre = s_q..s_q + pre_len;
    starts.iter().enumerate().all(|(p, &s)| {
        if p == q || s == usize::MAX {
            return true;
        }
        let lo = pre.start.max(s);
        let hi = pre.end.min(s + lens[p]);
        lo >= hi
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(client: u16, pos: usize) -> Detection {
        Detection { pos, client, corr: Complex::real(1.0), score: 1.5 }
    }

    fn salvaged(client_a: u16, client_b: u16, pos: usize) -> StoredCollision {
        StoredCollision {
            id: 0,
            key: vec![client_a.min(client_b), client_a.max(client_b)],
            buffer: vec![],
            detections: vec![det(client_a, pos), det(client_b, pos + 40)],
            footprint: RefCell::new(zigzag_phy::kernel::CorrFootprint::default()),
        }
    }

    #[test]
    fn pool_bounds_per_key_oldest_first() {
        let mut pool = SalvagePool::new(2);
        pool.absorb(salvaged(1, 2, 0));
        pool.absorb(salvaged(1, 2, 10));
        pool.absorb(salvaged(1, 2, 20));
        assert_eq!(pool.key_len(&[1, 2]), 2);
        let positions: Vec<usize> = pool.candidates(&[1, 2]).map(|e| e.detections[0].pos).collect();
        assert_eq!(positions, vec![10, 20], "the key's oldest entry is dropped for good");
        pool.absorb(salvaged(3, 4, 0));
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn pool_consume_removes_by_candidate_index() {
        let mut pool = SalvagePool::new(4);
        for i in 0..4 {
            pool.absorb(salvaged(1, 2, i * 10));
        }
        pool.consume(&[1, 2], &[0, 2]);
        let positions: Vec<usize> = pool.candidates(&[1, 2]).map(|e| e.detections[0].pos).collect();
        assert_eq!(positions, vec![10, 30]);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pool_global_valve_sheds_oldest_stamp() {
        let mut pool = SalvagePool::new(1);
        for c in 0..MAX_TRACKED_KEYS as u16 {
            pool.absorb(salvaged(c * 2 + 1, c * 2 + 2, 0));
        }
        assert_eq!(pool.len(), MAX_TRACKED_KEYS);
        pool.absorb(salvaged(101, 102, 0));
        assert_eq!(pool.len(), MAX_TRACKED_KEYS, "global valve must hold");
        assert_eq!(pool.key_len(&[1, 2]), 0, "the globally oldest entry is shed");
        assert_eq!(pool.key_len(&[101, 102]), 1);
    }

    #[test]
    fn zero_capacity_pool_discards() {
        let mut pool = SalvagePool::new(0);
        pool.absorb(salvaged(1, 2, 0));
        assert!(pool.is_empty());
    }

    #[test]
    fn kway_pairing_is_detection_order_invariant() {
        // each side contributes its earliest detection per client, pairs
        // ordered by current-buffer start — regardless of how the
        // detector happened to order its output (and later same-client
        // sidelobes are ignored)
        let key = [1u16, 2, 3];
        let current = vec![det(2, 40), det(1, 0), det(3, 95), det(1, 300)];
        let cand = vec![det(3, 110), det(1, 12), det(2, 55), det(2, 400)];
        let flat = |p: &[(Detection, Detection)]| -> Vec<(u16, usize, u16, usize)> {
            p.iter().map(|&(c, s)| (c.client, c.pos, s.client, s.pos)).collect()
        };
        let a = kway_pairing(&current, &cand, &key).expect("all clients present");
        assert_eq!(
            flat(&a),
            vec![(1, 0, 1, 12), (2, 40, 2, 55), (3, 95, 3, 110)],
            "earliest per client, ordered by current start"
        );
        let mut cur_rev = current.clone();
        cur_rev.reverse();
        let mut cand_rev = cand.clone();
        cand_rev.reverse();
        let b = kway_pairing(&cur_rev, &cand_rev, &key).expect("order must not matter");
        assert_eq!(flat(&a), flat(&b));
        // a candidate missing one of the key's clients cannot pair
        let partial: Vec<Detection> = cand.iter().filter(|d| d.client != 3).copied().collect();
        assert!(kway_pairing(&current, &partial, &key).is_none());
    }

    #[test]
    fn proxy_conditioning_is_member_order_invariant_and_ranks_diversity() {
        // three member rows: two §4.5-degenerate (same shift signature,
        // scored purely on channel diversity) and one structurally
        // independent signature — the score must not depend on the order
        // the members were recruited in
        type Member = (Vec<(usize, usize)>, Vec<Complex>);
        let same_sig: Vec<(usize, usize)> = vec![(0, 0), (1, 300)];
        let other_sig: Vec<(usize, usize)> = vec![(0, 0), (1, 410)];
        let members: Vec<Member> = vec![
            (same_sig.clone(), vec![Complex::real(1.0), Complex::new(0.0, 0.8)]),
            (same_sig.clone(), vec![Complex::real(0.6), Complex::real(0.7)]),
            (other_sig, vec![Complex::real(0.9), Complex::new(0.0, 0.5)]),
        ];
        let score = |order: &[usize]| -> f64 {
            let mut signatures = Vec::new();
            let mut proxy = Vec::new();
            for &m in order {
                proxy.push(proxy_row(&mut signatures, &members[m].0, &members[m].1));
            }
            proxy_conditioning(&proxy)
        };
        let reference = score(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert!(
                (score(&order) - reference).abs() < 1e-12,
                "recruitment order must not change the conditioning score"
            );
        }
        // a collinear same-signature recruit collapses the score; the
        // diverse set stays well away from the gate's floor
        let mut signatures = Vec::new();
        let mut collinear =
            vec![proxy_row(&mut signatures, &same_sig, &[Complex::real(1.0), Complex::real(0.5)])];
        collinear.push(proxy_row(
            &mut signatures,
            &same_sig,
            &[Complex::real(0.8), Complex::real(0.4)],
        ));
        assert!(proxy_conditioning(&collinear) < 1e-3, "proportional channels are collinear rows");
        assert!(reference > MIN_CONDITIONING, "diverse members must clear the recruitment gate");
    }

    #[test]
    fn pooled_footprints_persist_across_recruitment_rounds() {
        // the satellite contract: a pooled entry is characterized once —
        // its correlation footprint is built on first recruitment and
        // REUSED by every later round (the RefCell lane rides the pool)
        let buffer: Vec<Complex> =
            (0..600).map(|i| Complex::from_polar(1.0, 0.37 * i as f64)).collect();
        let mut pool = SalvagePool::new(2);
        // the pooled entry's channel to client 2 differs from the current
        // buffer's, so its equations are not collinear with the current
        // ones and the recruit clears the conditioning gate
        let diverse = Detection { corr: Complex::real(-1.0), ..det(2, 50) };
        pool.absorb(StoredCollision {
            id: 7,
            key: vec![1, 2],
            buffer: buffer.clone(),
            detections: vec![det(1, 10), diverse],
            footprint: RefCell::new(zigzag_phy::kernel::CorrFootprint::default()),
        });
        let detections = [det(1, 10), det(2, 50)];
        let mut ws = Scratch::new();
        // round 1: an identical current buffer confirms at shift 0 and
        // recruits the entry; the confirmation builds the footprint
        let round1 = group_from_pool(&mut ws, &buffer, &detections, &[1, 2], &pool, 3);
        let (group, used) = round1.expect("an identical buffer must confirm and recruit");
        assert_eq!(group.collisions(), 2);
        assert_eq!(used, vec![0]);
        let lanes_round1 = {
            let fp = pool.candidates(&[1, 2]).next().unwrap().footprint.borrow();
            assert!(fp.covers(buffer.len(), 0.25), "round 1 must have built the footprint");
            fp.lanes().len()
        };
        // round 2 (the solve failed upstream, nothing was consumed): the
        // footprint is already covering, so recruitment reuses it as-is
        let round2 = group_from_pool(&mut ws, &buffer, &detections, &[1, 2], &pool, 3);
        assert!(round2.is_some(), "the entry must still recruit on later rounds");
        let fp = pool.candidates(&[1, 2]).next().unwrap().footprint.borrow();
        assert!(fp.covers(buffer.len(), 0.25), "the cached footprint must survive round 2");
        assert_eq!(fp.lanes().len(), lanes_round1, "round 2 must not rebuild or extend lanes");
    }

    /// Two collisions of the same two 60-byte packets at equal offsets
    /// (Δ₁ = Δ₂ = 280), on clean links or typical ones with ISI.
    fn equal_offset_group(isi: bool, seed: u64) -> (RecoveryGroup, ClientRegistry) {
        use crate::config::ClientInfo;
        use rand::prelude::*;
        use zigzag_channel::fading::LinkProfile;
        use zigzag_channel::scenario::{synth_collision, PlacedTx};
        use zigzag_phy::frame::encode_frame;
        use zigzag_phy::modulation::Modulation;

        let mut rng = StdRng::seed_from_u64(seed);
        let links = if isi {
            [LinkProfile::typical(16.0, &mut rng), LinkProfile::typical(16.0, &mut rng)]
        } else {
            [LinkProfile::clean_with_omega(17.0, -0.08), LinkProfile::clean_with_omega(17.0, 0.09)]
        };
        let airs = [1u16, 2].map(|src| {
            let frame = Frame::with_random_payload(0, src, 3, 60, seed + u64::from(src));
            encode_frame(&frame, Modulation::Bpsk, &Preamble::default_len())
        });
        let (ca, cb) = (links[0].draw(&mut rng), links[1].draw(&mut rng));
        let delta = 280;
        let placed = [
            PlacedTx { air: &airs[0], base: &ca, start: 0 },
            PlacedTx { air: &airs[1], base: &cb, start: delta },
        ];
        let buffers = (0..2).map(|_| synth_collision(&placed, 1.0, &mut rng).buffer).collect();
        let mut registry = ClientRegistry::new();
        for (id, l) in [1u16, 2].into_iter().zip(&links) {
            let info =
                ClientInfo { omega: l.association_omega(), snr_db: l.snr_db, taps: l.isi.clone() };
            registry.associate(id, info);
        }
        let group = RecoveryGroup {
            buffers,
            placements: vec![vec![(0, 0), (1, delta)]; 2],
            clients: vec![1, 2],
        };
        (group, registry)
    }

    #[test]
    fn window_rows_match_unit_image_columns() {
        let cfg = DecoderConfig::default();
        let preamble = Preamble::default_len();
        for isi in [false, true] {
            let (group, registry) = equal_offset_group(isi, 5);
            let mut ws = Scratch::with_backend(cfg.backend);
            let (rows, ..) = first_window_system(&group, &registry, &preamble, &cfg, &mut ws)
                .expect("an equal-offset pair assembles a window");
            // the same first window, for its views and equation spans
            let mut solver = Solver::new(&group, &registry, &preamble, &cfg).unwrap();
            solver.subtract_preambles(&mut ws);
            let sys = loop {
                match solver.prepare_window(&mut ws) {
                    WindowPrep::System(sys) => break sys,
                    WindowPrep::Advanced => continue,
                    WindowPrep::Stalled => panic!("the second pass stalled"),
                }
            };
            assert_eq!(rows, sys.rows, "first_window_system is the solver's first window");
            let spans = solver.equation_spans(solver.reach());
            assert_eq!(rows.len(), spans.iter().map(|s| s.len()).sum::<usize>());
            let Scratch { pool, kernel, .. } = &mut ws;
            let mut image = Image::default();
            let mut observed = 0;
            for q in 0..group.packets() {
                let cols = sys.col_start[q]..sys.col_start[q + 1];
                assert!(!cols.is_empty(), "packet {q} has no columns");
                for (j, n) in cols.zip(sys.sym_start[q]..) {
                    let mut want = vec![ZERO; rows.len()];
                    let mut base = 0;
                    for (c, span) in spans.iter().enumerate() {
                        if let Some(view) = solver.views[c][q].as_ref().filter(|_| !span.is_empty())
                        {
                            view.synthesize_unit_into(n, solver.len(q), pool, kernel, &mut image);
                            for (i, &a) in image.samples.iter().enumerate() {
                                let p = image.first + i;
                                if span.contains(&p) {
                                    want[base + p - span.start] = a;
                                }
                            }
                        }
                        base += span.len();
                    }
                    // a look-ahead column no usable row reaches stays zero
                    let peak = want.iter().map(|a| a.abs()).fold(0.0, f64::max);
                    observed += usize::from(peak > 0.0);
                    for (r, (row, w)) in rows.iter().zip(&want).enumerate() {
                        let err = (row[j] - *w).abs();
                        assert!(
                            err <= 1e-12 * peak,
                            "isi {isi}, row {r}, column {j}: error {err:e}"
                        );
                    }
                }
            }
            assert!(observed >= 16, "isi {isi}: only {observed} observed columns");
        }
    }
}
