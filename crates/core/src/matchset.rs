//! The k-way collision store and match layer (§4.2.2 generalized to §4.5).
//!
//! The paper's §4.2.2 matcher answers "did the AP receive two matching
//! collisions?" — enough for the two-sender ZigZag of Fig 1-2. Its §4.5
//! story, however, scales to k senders across k collisions, and the
//! executor/scheduler ([`crate::zigzag`], [`crate::schedule`]) already
//! solve the general k×k system. This module closes the gap at the
//! receiver front end:
//!
//! * [`CollisionStore`] — the unmatched-collision store as an *indexed*
//!   structure: entries carry a client-set key (the sorted distinct
//!   clients detected in the buffer) and a stable id, are bounded **per
//!   key** by `DecoderConfig::collision_store`, and evict the stalest
//!   entry of the overflowing key. Collisions accumulate here until a
//!   decodable k×k system exists. Eviction used to be global
//!   oldest-first, which let a burst from one client set flush every
//!   other set's stored members and permanently starve their
//!   nearly-complete match sets; keyed eviction makes sets independent —
//!   which is also what lets a sharded receiver split the store by
//!   client set without changing behaviour.
//! * [`MatchSet`] — the alignment of the *current* collision with m−1
//!   stored collisions over the same k clients: which detection of which
//!   collision belongs to which packet. [`DecodePlan`](crate::engine::stage::DecodePlan)
//!   and the ZigZag executor consume it directly.
//! * [`find_match_set`] — the single matching entry point, run by the
//!   pipeline's `MatchStage`. Two senders take the paper-exact pairwise
//!   path ([`pair_collisions`] + sample confirmation on the second
//!   packet); three or more take the k-way path: same-client-set
//!   candidates are aligned by *validated correlation shifts*
//!   (detection labels are unreliable in k-packet collisions, positions
//!   and cross-buffer correlation are not),
//!   members whose packet starts were never detected are completed by
//!   direct correlation scan, packet starts are fixed by consensus +
//!   local preamble matched-filter peaks under a cross-buffer shift
//!   vote, clients are attributed by the best one-to-one assignment of
//!   preamble-correlation evidence summed over all k collisions, and
//!   the assembled k×k system must pass the
//!   [`schedule::decodable`](crate::schedule::decodable) gate before it
//!   reaches the executor.
//! * [`classify_match`] — the full verdict behind `find_match_set`: an
//!   alignment the sample correlation *confirms* but the decodability
//!   gate rejects is reported as [`MatchOutcome::Undecodable`] (with the
//!   [`Decodability`] reason) instead of being collapsed into "no
//!   match" — the feed of the algebraic batch recovery in
//!   [`crate::recovery`]. Likewise, entries the bounded store evicts can
//!   be retained ([`CollisionStore::set_evicted_capacity`] /
//!   [`CollisionStore::take_evicted`]) and salvaged instead of dropped.

use crate::config::{debug_trace, ClientRegistry, MatchSearch};
use crate::detect::Detection;
use crate::engine::scratch::Scratch;
use crate::matcher::{MATCH_THRESHOLD, MATCH_WINDOW};
use crate::schedule::{min_coverage_lens, CollisionLayout, Decodability, Placement};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use zigzag_phy::complex::Complex;
use zigzag_phy::kernel::CorrFootprint;
use zigzag_phy::preamble::Preamble;

/// A stored unmatched collision (§4.2.2: "the AP stores recent unmatched
/// collisions (i.e., stores the received complex samples)").
#[derive(Clone, Debug)]
pub struct StoredCollision {
    /// Stable id, unique within the owning [`CollisionStore`] lifetime.
    pub id: u64,
    /// Index key: the sorted distinct clients detected in the buffer.
    pub key: Vec<u16>,
    /// The raw receive buffer.
    pub buffer: Vec<Complex>,
    /// The detections found in it.
    pub detections: Vec<Detection>,
    /// The cached correlation footprint of `buffer` (sub-sample
    /// interpolation lanes + energy prefix sums), built lazily by the
    /// first match evaluation against this entry and reused by every
    /// later one — a stored collision is *characterized once*, not
    /// re-interpolated per arrival. The `RefCell` is the interior
    /// mutability that lazy build needs under the matchers' `&CollisionStore`;
    /// stores are shard-owned, so no `Sync` is required. The footprint
    /// rides along wholesale through eviction and salvage
    /// ([`CollisionStore::take_evicted`] →
    /// [`SalvagePool`](crate::recovery::SalvagePool)), so salvaged
    /// members keep their characterization.
    pub footprint: RefCell<CorrFootprint>,
}

/// The sorted distinct clients of a detection list — the store/lookup key
/// for k-way matching. Equivalent to [`collision_key`] with an unbounded
/// window.
pub fn client_key(detections: &[Detection]) -> Vec<u16> {
    collision_key(detections, usize::MAX)
}

/// The client-set key of a collision, windowed: only detections within
/// `window` samples of the **earliest** detection contribute. True packet
/// starts cluster at the front of a collision (their spread is the MAC
/// backoff jitter); a spurious data-sidelobe detection of an *unrelated*
/// associated client spikes anywhere in the buffer, and letting it into
/// the key would mis-dispatch a two-sender collision down the k-way path
/// and split the store index. The earliest detection is a safe anchor:
/// sidelobes always trail the packet start that produced them.
pub fn collision_key(detections: &[Detection], window: usize) -> Vec<u16> {
    let Some(first) = detections.iter().map(|d| d.pos).min() else {
        return Vec::new();
    };
    let mut key: Vec<u16> =
        detections.iter().filter(|d| d.pos - first <= window).map(|d| d.client).collect();
    key.sort_unstable();
    key.dedup();
    key
}

/// How many distinct client-set keys the store tracks before the global
/// safety valve kicks in: total entries are bounded by
/// `cap × MAX_TRACKED_KEYS`, evicting the stalest entry of the
/// most-populous key on overflow. Real deployments see a handful of
/// concurrently-active hidden-terminal sets per shard; the valve only
/// matters under a key-cardinality flood (e.g. detection misattributing
/// clients at very low SNR). The salvage pool
/// ([`SalvagePool`](crate::recovery::SalvagePool)) bounds its entries by
/// the same valve.
pub(crate) const MAX_TRACKED_KEYS: usize = 16;

/// The indexed unmatched-collision store: keyed by client set, with O(1)
/// id lookup/removal, insertion order preserved per key, and **per-key**
/// bounding — each client set keeps at most `cap` collisions, and a key
/// that overflows evicts its own stalest entry.
///
/// Keyed eviction is the starvation fix: with the old global FIFO bound,
/// a burst of unmatched collisions from one client set flushed every
/// other set's stored members, so a nearly-complete k-way match set
/// could be starved forever by an unrelated chatty set. It is also what
/// makes the store *shard-decomposable*: entries of different keys never
/// affect each other, so a receiver shard holding only its own keys
/// behaves bit-identically to one store holding all of them.
#[derive(Clone, Debug)]
pub struct CollisionStore {
    /// id → entry: the O(1) lookup the k-way match loop leans on.
    entries: HashMap<u64, StoredCollision>,
    /// key → ids in insertion order (oldest first). Deques are bounded
    /// by `cap`, so in-deque scans are O(cap), not O(len).
    by_key: HashMap<Vec<u16>, VecDeque<u64>>,
    cap: usize,
    key_window: usize,
    next_id: u64,
    /// Evicted entries awaiting reclamation (oldest first), bounded by
    /// `evicted_cap`. Zero capacity (the default) drops evictions
    /// immediately — the historical behaviour; the recovery subsystem's
    /// salvage pool raises it so eviction becomes signal, not loss.
    evicted: VecDeque<StoredCollision>,
    evicted_cap: usize,
}

impl CollisionStore {
    /// An empty store holding at most `cap` collisions **per client-set
    /// key** (and at most `cap × 16` in total — the tracked-key safety
    /// valve),
    /// with an unbounded key window (every detection opens the key).
    pub fn new(cap: usize) -> Self {
        Self::with_key_window(cap, usize::MAX)
    }

    /// An empty store whose entry keys are computed with
    /// [`collision_key`] over `key_window` — what
    /// `DecoderConfig::key_window` configures, so spurious far-tail
    /// detections of unrelated clients don't split the index.
    pub fn with_key_window(cap: usize, key_window: usize) -> Self {
        Self {
            entries: HashMap::new(),
            by_key: HashMap::new(),
            cap,
            key_window,
            next_id: 0,
            evicted: VecDeque::new(),
            evicted_cap: 0,
        }
    }

    /// Retains up to `cap` evicted entries for reclamation through
    /// [`Self::take_evicted`] instead of dropping them. When the retained
    /// backlog itself overflows, its oldest entries are dropped for good
    /// (the bound keeps a non-draining caller from leaking buffers).
    pub fn set_evicted_capacity(&mut self, cap: usize) {
        self.evicted_cap = cap;
        while self.evicted.len() > cap {
            self.evicted.pop_front();
        }
    }

    /// Drains the entries evicted since the last call (oldest first) —
    /// the store-eviction feed of the recovery subsystem's salvage pool.
    /// Empty unless [`Self::set_evicted_capacity`] raised the retention
    /// bound above its default of zero.
    pub fn take_evicted(&mut self) -> Vec<StoredCollision> {
        self.evicted.drain(..).collect()
    }

    /// Parks an evicted entry for reclamation (respecting the bound).
    fn retain_evicted(&mut self, entry: StoredCollision) {
        if self.evicted_cap == 0 {
            return;
        }
        self.evicted.push_back(entry);
        while self.evicted.len() > self.evicted_cap {
            self.evicted.pop_front();
        }
    }

    /// The key window entry keys (and lookups against this store) use.
    pub fn key_window(&self) -> usize {
        self.key_window
    }

    /// Number of stored collisions, over all keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of stored collisions per client-set key.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of stored collisions whose client set equals `key`.
    pub fn key_len(&self, key: &[u16]) -> usize {
        self.by_key.get(key).map_or(0, VecDeque::len)
    }

    /// Drops every stored collision, including any retained evictions.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.by_key.clear();
        self.evicted.clear();
    }

    /// Stores a collision under its client-set key, evicting the key's
    /// stalest entries beyond the per-key capacity (other keys are never
    /// touched). Returns the entry's stable id.
    pub fn insert(&mut self, buffer: Vec<Complex>, detections: Vec<Detection>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let key = collision_key(&detections, self.key_window);
        // entry goes in before any eviction runs, so a zero-capacity
        // store evicts the entry it just admitted instead of corrupting
        // the id index
        self.entries.insert(
            id,
            StoredCollision {
                id,
                key: key.clone(),
                buffer,
                detections,
                footprint: RefCell::new(CorrFootprint::default()),
            },
        );
        let order = self.by_key.entry(key.clone()).or_default();
        order.push_back(id);
        let mut stale_ids = Vec::new();
        while order.len() > self.cap {
            stale_ids.push(order.pop_front().expect("over-capacity deque is non-empty"));
        }
        if order.is_empty() {
            self.by_key.remove(&key);
        }
        for stale in stale_ids {
            if let Some(entry) = self.entries.remove(&stale) {
                self.retain_evicted(entry);
            }
        }
        // Safety valve against unbounded key cardinality: evict the
        // stalest entry of the most-populous key (deterministic
        // tie-break: the key owning the oldest id).
        while self.entries.len() > self.cap * MAX_TRACKED_KEYS {
            let victim = self
                .by_key
                .iter()
                .max_by(|(_, a), (_, b)| a.len().cmp(&b.len()).then(b.front().cmp(&a.front())))
                .map(|(k, _)| k.clone())
                .expect("over-capacity store has keys");
            let order = self.by_key.get_mut(&victim).expect("victim key present");
            let stale = order.pop_front().expect("victim key is non-empty");
            if order.is_empty() {
                self.by_key.remove(&victim);
            }
            if let Some(entry) = self.entries.remove(&stale) {
                self.retain_evicted(entry);
            }
        }
        id
    }

    /// Looks up an entry by id — O(1).
    pub fn get(&self, id: u64) -> Option<&StoredCollision> {
        self.entries.get(&id)
    }

    /// Removes an entry by id, returning it. O(1) in the total entry
    /// count (the key's order deque holds at most `cap` ids).
    pub fn remove(&mut self, id: u64) -> Option<StoredCollision> {
        let entry = self.entries.remove(&id)?;
        if let Some(order) = self.by_key.get_mut(&entry.key) {
            order.retain(|&i| i != id);
            if order.is_empty() {
                self.by_key.remove(&entry.key);
            }
        }
        Some(entry)
    }

    /// All entries, oldest first (ids are monotone, so id order is
    /// insertion order). Diagnostic/test path — the match loops use the
    /// keyed [`Self::candidates`] lookup instead.
    pub fn iter(&self) -> impl Iterator<Item = &StoredCollision> {
        let mut all: Vec<&StoredCollision> = self.entries.values().collect();
        all.sort_unstable_by_key(|e| e.id);
        all.into_iter()
    }

    /// Entries whose client set equals `key`, oldest first — the
    /// matchers' candidate list, O(1) to locate.
    pub fn candidates<'a>(&'a self, key: &'a [u16]) -> impl Iterator<Item = &'a StoredCollision> {
        self.by_key
            .get(key)
            .into_iter()
            .flatten()
            .map(move |id| self.entries.get(id).expect("order deque ids are stored"))
    }
}

impl Default for CollisionStore {
    fn default() -> Self {
        Self::new(0)
    }
}

/// A k-way match: the current collision aligned with m−1 stored
/// collisions over the same k packets.
///
/// `alignment[q][j]` is packet `q`'s detection in collision `j`, where
/// collision 0 is the *current* buffer and collisions `1..` are the store
/// entries listed (in the same order) in `members`. Packets are ordered
/// by their start position in the current buffer, earliest first.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchSet {
    /// Per-packet detections across collisions: k rows × m columns.
    pub alignment: Vec<Vec<Detection>>,
    /// Store ids of the matched collisions (columns `1..` of
    /// `alignment`), oldest first.
    pub members: Vec<u64>,
}

impl MatchSet {
    /// Number of packets in the system.
    pub fn packets(&self) -> usize {
        self.alignment.len()
    }

    /// Number of collisions (current + matched store entries).
    pub fn collisions(&self) -> usize {
        1 + self.members.len()
    }

    /// The clients of the matched packets, in packet order.
    pub fn clients(&self) -> Vec<u16> {
        self.alignment.iter().map(|row| row[0].client).collect()
    }

    /// `(packet, start)` placements for collision `j` (0 = current).
    pub fn placements(&self, j: usize) -> Vec<(usize, usize)> {
        self.alignment.iter().enumerate().map(|(q, row)| (q, row[j].pos)).collect()
    }
}

/// Pairs the detections of two collisions by client id, requiring the
/// same clients on both sides. Returns `[(current, stored); 2]` with the
/// first-starting current packet first.
///
/// The second packet is the earliest current detection of a *different*
/// client than the first — not blindly `current[1]`: a §5.3a false
/// positive from the first packet's own data sidelobe sorts between the
/// two true starts often enough to matter (it always trails its packet's
/// start, so the earliest detection per client is the start), and the
/// old `current[1]` choice degenerated such pairs into a same-client
/// "alignment" that could never match.
///
/// Rejects *pure time-shift* alignments: if both matched packets align
/// with the same shift `Δ = current.pos − stored.pos`, the stored
/// collision is the same linear equation as the current one (identical
/// relative offsets), which the chunk scheduler cannot decode (§4.5's
/// Δ₁ = Δ₂ failure condition) — previously only the fully-overlapped
/// special case `c₁.pos = c₂.pos ∧ s₁.pos = s₂.pos` was rejected.
pub fn pair_collisions(
    current: &[Detection],
    stored: &[Detection],
) -> Option<[(Detection, Detection); 2]> {
    let (pairing, pure_shift) = pair_alignment(current, stored)?;
    if pure_shift {
        return None;
    }
    Some(pairing)
}

/// [`pair_collisions`] without the pure-shift filter: pairs the two
/// collisions' detections by client and reports whether the alignment is
/// a pure time shift (§4.5's Δ₁ = Δ₂ case, which the chunk scheduler
/// cannot decode but the algebraic recovery of [`crate::recovery`] can —
/// the two receptions carry independent channel coefficients, so the
/// per-position 2×2 systems stay invertible).
pub fn pair_alignment(
    current: &[Detection],
    stored: &[Detection],
) -> Option<([(Detection, Detection); 2], bool)> {
    if current.len() < 2 || stored.len() < 2 {
        return None;
    }
    let c1 = current[0];
    let c2 = *current.iter().find(|d| d.client != c1.client)?;
    let s1 = stored.iter().find(|d| d.client == c1.client)?;
    let s2 = stored.iter().find(|d| d.client == c2.client)?;
    let pure_shift = is_pure_shift(&[c1, c2], &[*s1, *s2]);
    Some(([(c1, *s1), (c2, *s2)], pure_shift))
}

/// `true` if `b` is `a` shifted by one constant offset — a duplicate
/// linear equation, useless to the scheduler.
fn is_pure_shift(a: &[Detection], b: &[Detection]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut shift = None;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x.pos as i64 - y.pos as i64;
        match shift {
            None => shift = Some(d),
            Some(s) if s != d => return false,
            _ => {}
        }
    }
    true
}

/// An alignment that was confirmed by sample correlation but whose joint
/// system the chunk scheduler cannot decode. The aligned collisions still
/// contribute valid linear equations over their packets' symbols — the
/// input of the algebraic batch recovery in [`crate::recovery`].
#[derive(Clone, Debug, PartialEq)]
pub struct RejectedSet {
    /// The confirmed (but peeling-undecodable) alignment, in the same
    /// shape a decodable [`MatchSet`] would have.
    pub set: MatchSet,
    /// Why peeling fails on the assembled system.
    pub reason: Decodability,
}

/// What [`classify_match`] concluded about the current collision.
#[derive(Clone, Debug, PartialEq)]
pub enum MatchOutcome {
    /// A decodable system exists — run the ZigZag executor on it.
    Matched(MatchSet),
    /// An alignment was confirmed, but its system is under-determined
    /// (pure time shifts, insufficient coverage). ZigZag cannot use it;
    /// algebraic recovery can.
    Undecodable(RejectedSet),
    /// No stored candidate aligns with the current collision.
    NoMatch,
}

impl MatchOutcome {
    /// The decodable match, if that is what this outcome is.
    pub fn into_matched(self) -> Option<MatchSet> {
        match self {
            MatchOutcome::Matched(set) => Some(set),
            _ => None,
        }
    }
}

/// The footprint build step of the staged funnel always covers the
/// finest τ the matchers use (the full metric's 0.25); coarser sweeps
/// (0.5, integer) read a subset of its lanes, so one build serves every
/// stage.
const FOOTPRINT_STEP: f64 = 0.25;

/// Integer-τ prefilter threshold factor of the staged funnel, applied
/// to half-window metrics as `PRE_T_FACTOR · MATCH_THRESHOLD`.
///
/// Analytic derivation: a true match at the worst-case sub-sample
/// misalignment (Δµ = 0.5 between the receptions' sampling grids) keeps
/// `sinc(0.5) ≈ 0.64` of its correlation on the integer-τ grid, so a
/// threshold-grade match (metric ≥ [`MATCH_THRESHOLD`]) still scores
/// ≥ 0.64·0.15 ≈ 0.096 at the prefilter, while the half-window noise
/// floor (max over 3 integer τ of a 256-sample uncorrelated product)
/// sits near 0.07.
///
/// Empirical margin (the `pre_t_sweep` example, 400-seed clean
/// k ∈ {2, 3} corpus mirroring the staged-vs-exhaustive proptest,
/// 16 238 candidate pairs): the weakest pair either exact stage accepts
/// scores 0.448·threshold at the prefilter — marginal matches just above
/// the threshold at worst-case Δµ dip below the analytic 0.64 bound —
/// so *pair-level* identity only holds up to a 0.44 factor. *Match-set*
/// identity is looser (a cut pair must also flip the final outcome): the
/// sweep's outcome-level leg, which re-runs staged-vs-exhaustive
/// `find_match_set` per factor via the `ZIGZAG_PRE_T` override, stays
/// divergence-free through 0.75 and first diverges at 0.80 (2 of 800
/// workloads). 0.70 is the chosen margin — one sweep step below the
/// tightest zero-divergence factor, against corpus overfit — and cuts
/// 78% of sub-threshold candidates at the cheap integer-τ stage, up
/// from 49% at the previous analytically-derived 0.55.
const PRE_T_FACTOR: f64 = 0.70;

/// The prefilter bar the staged funnel compares against, normally
/// `PRE_T_FACTOR · MATCH_THRESHOLD`. The `ZIGZAG_PRE_T` environment
/// variable (a factor, read once per process) overrides it — a
/// development knob for the `pre_t_sweep` example's outcome-identity
/// leg, not a production switch.
fn pre_t() -> f64 {
    use std::sync::OnceLock;
    static BAR: OnceLock<f64> = OnceLock::new();
    *BAR.get_or_init(|| {
        let factor = match std::env::var("ZIGZAG_PRE_T") {
            Err(_) => PRE_T_FACTOR,
            Ok(v) => v
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("ZIGZAG_PRE_T must be a number, got {v:?}")),
        };
        factor * MATCH_THRESHOLD
    })
}

/// The §4.2.2 match metric of the current buffer's span at `p` against
/// the stored buffer's span at `q`, evaluated through the stored side's
/// cached [`CorrFootprint`] (building it on first use — the
/// characterize-once seam). All matchset/recovery correlation scoring
/// funnels through here, so it runs on the configured kernel backend.
#[allow(clippy::too_many_arguments)]
pub(crate) fn footprint_metric(
    ws: &mut Scratch,
    buffer: &[Complex],
    p: usize,
    stored_buf: &[Complex],
    fp_cell: &RefCell<CorrFootprint>,
    q: usize,
    window: usize,
    tau_step: f64,
    bail: Option<f64>,
) -> f64 {
    {
        let mut fp = fp_cell.borrow_mut();
        if !fp.covers(stored_buf.len(), FOOTPRINT_STEP) {
            let Scratch { pool, kernel, .. } = ws;
            kernel.ensure_footprint(&mut fp, stored_buf, FOOTPRINT_STEP, &mut || pool.take());
        }
    }
    let fp = fp_cell.borrow();
    ws.kernel.match_score_fp(buffer, p, &fp, q, window, tau_step, bail).metric
}

/// [`footprint_metric`] against a store entry.
#[allow(clippy::too_many_arguments)]
fn entry_metric(
    ws: &mut Scratch,
    buffer: &[Complex],
    p: usize,
    entry: &StoredCollision,
    q: usize,
    window: usize,
    tau_step: f64,
    bail: Option<f64>,
) -> f64 {
    footprint_metric(ws, buffer, p, &entry.buffer, &entry.footprint, q, window, tau_step, bail)
}

/// The §4.2.2 pairwise confirmation: does the current packet at `p`
/// carry the same symbols as the stored packet at `q`? Staged search
/// runs the integer-τ prefilter first and lets the full metric abandon
/// hopeless candidates at the threshold; both paths decide identically
/// (see [`MatchSearch`]).
fn confirm_pair(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    p: usize,
    entry: &StoredCollision,
    q: usize,
) -> bool {
    match search {
        MatchSearch::Staged => {
            let bar = pre_t();
            if entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 1.0, Some(bar)) <= bar {
                return false;
            }
            entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW, 0.25, Some(MATCH_THRESHOLD))
                > MATCH_THRESHOLD
        }
        MatchSearch::Exhaustive => {
            entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW, 0.25, None) > MATCH_THRESHOLD
        }
    }
}

/// The bucket-scoring metric of [`align_by_shifts`]: half window,
/// τ step 0.5. Downstream only the per-bucket max, its comparison
/// against `MATCH_THRESHOLD`, and the winning pair matter, so the
/// staged funnel may zero a prefilter-rejected pair and bail survivors
/// at the threshold: every value above the threshold is exact (bail
/// contract), so the winner among >threshold pairs and the bucket
/// decision are identical to the exhaustive evaluation.
fn coarse_metric(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    p: usize,
    entry: &StoredCollision,
    q: usize,
) -> f64 {
    match search {
        MatchSearch::Staged => {
            let bar = pre_t();
            if entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 1.0, Some(bar)) <= bar {
                return 0.0;
            }
            entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 0.5, Some(MATCH_THRESHOLD))
        }
        MatchSearch::Exhaustive => {
            entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 0.5, None)
        }
    }
}

/// The single matching entry point (§4.2.2 / §4.5): aligns the current
/// collision against the store and returns a [`MatchSet`] once a
/// decodable system exists. `search` is the staged coarse-to-fine funnel
/// the receiver runs, or the exhaustive reference the differential tests
/// compare it against.
///
/// Dispatch is on the number of *distinct* clients detected: two take
/// the pairwise path (bit-identical to the historical two-sender
/// receiver, modulo the pure-shift rejection documented on
/// [`pair_collisions`]); three or more take the k-way path. A k-sender
/// collision is never degraded to a pairwise match — until the full
/// k-collision set has accumulated, the buffer is left for the store.
pub fn find_match_set(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    detections: &[Detection],
    store: &CollisionStore,
    registry: &ClientRegistry,
    preamble: &Preamble,
) -> Option<MatchSet> {
    match_collision(search, ws, buffer, detections, store, registry, preamble, false).into_matched()
}

/// [`find_match_set`] with the full verdict: a confirmed-but-undecodable
/// alignment is reported as [`MatchOutcome::Undecodable`] instead of
/// being silently collapsed into "no match" — the distinction feeds the
/// algebraic recovery path ([`crate::recovery`]), which can jointly
/// solve systems the chunk scheduler provably cannot (e.g. §4.5's
/// Δ₁ = Δ₂ duplicate-offset collisions).
///
/// Classification does extra signal work on undecodable candidates
/// (sample confirmation of pure-shift alignments, a decodability peel
/// for the reason) that is wasted without a recovery consumer —
/// callers with recovery disabled should use [`find_match_set`], which
/// skips it and is cost-identical to the historical matcher.
pub fn classify_match(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    detections: &[Detection],
    store: &CollisionStore,
    registry: &ClientRegistry,
    preamble: &Preamble,
) -> MatchOutcome {
    match_collision(search, ws, buffer, detections, store, registry, preamble, true)
}

/// Shared matcher body: `classify` selects whether undecodable
/// alignments are worth confirming and explaining (recovery on) or can
/// be skipped before any sample work (recovery off — the historical
/// fast path).
#[allow(clippy::too_many_arguments)]
fn match_collision(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    detections: &[Detection],
    store: &CollisionStore,
    registry: &ClientRegistry,
    preamble: &Preamble,
    classify: bool,
) -> MatchOutcome {
    if detections.len() < 2 {
        return MatchOutcome::NoMatch;
    }
    // Dispatch and candidate lookup use the store's windowed key, so the
    // current collision and the stored entries are indexed identically.
    let key = collision_key(detections, store.key_window());
    if key.len() >= 3 {
        find_kway_match(search, ws, buffer, detections, &key, store, registry, preamble)
    } else {
        find_pair_match(search, ws, buffer, detections, &key, store, classify)
    }
}

/// Pairwise (§4.2.2) matching: oldest same-client-set stored entry whose
/// detections pair with the current ones *and* whose samples confirm on
/// the second packet (the paper aligns the collisions where P₂ and P₂′
/// start).
///
/// Candidates come from the keyed index, so only entries with the *same*
/// detected client set are examined. This subsumes the earlier guard
/// against consuming a pending k-way system's members (an entry with ≥3
/// distinct clients has a different key), is O(candidates) instead of
/// O(store), and keeps the match local to one key — the invariant the
/// sharded receiver's client-set routing relies on. Entries whose set
/// strictly contains the current one (a detection-missed start on either
/// side) never genuinely share *both* packets anyway: `pair_collisions`
/// would pair one stored detection twice and the sample confirmation
/// rejects it.
fn find_pair_match(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    detections: &[Detection],
    key: &[u16],
    store: &CollisionStore,
    classify: bool,
) -> MatchOutcome {
    let mut rejected: Option<RejectedSet> = None;
    for entry in store.candidates(key) {
        if let Some((pairing, pure_shift)) = pair_alignment(detections, &entry.detections) {
            if pure_shift && (!classify || rejected.is_some()) {
                // Without a recovery consumer (or with a confirmed
                // reject already in hand) a pure-shift candidate is not
                // worth the sample correlation — skip before any signal
                // work, exactly like the historical matcher.
                continue;
            }
            let (cur2, old2) = pairing[1];
            if !confirm_pair(search, ws, buffer, cur2.pos, entry, old2.pos) {
                continue;
            }
            let set = MatchSet {
                alignment: pairing.iter().map(|&(c, s)| vec![c, s]).collect(),
                members: vec![entry.id],
            };
            if !pure_shift {
                return MatchOutcome::Matched(set);
            }
            // A confirmed pure-shift alignment: the §4.5 Δ₁ = Δ₂ failure
            // case. Keep scanning for a decodable candidate — an older
            // entry at a different offset beats salvage — but remember
            // the oldest confirmed reject for the recovery path.
            let layouts = pair_layouts_for(buffer.len(), &entry.buffer, &set);
            let lens = min_coverage_lens(2, &layouts);
            let reason = crate::schedule::decodability(&lens, &layouts);
            rejected = Some(RejectedSet { set, reason });
        }
    }
    match rejected {
        Some(r) => MatchOutcome::Undecodable(r),
        None => MatchOutcome::NoMatch,
    }
}

/// The [`CollisionLayout`]s of a confirmed pairwise alignment (current
/// buffer first), for the decodability verdict on a rejected pair.
fn pair_layouts_for(
    current_len: usize,
    stored: &[Complex],
    set: &MatchSet,
) -> Vec<CollisionLayout> {
    (0..set.collisions())
        .map(|j| CollisionLayout {
            placements: set
                .placements(j)
                .into_iter()
                .map(|(packet, start)| Placement { packet, start })
                .collect(),
            len: if j == 0 { current_len } else { stored.len() },
        })
        .collect()
}

/// One validated shift anchor: `(current start, stored start, metric)`.
type Anchor = (usize, usize, f64);

/// One validated alignment of the current collision with one stored
/// collision: per shared packet, one [`Anchor`].
struct MemberAlignment {
    id: u64,
    packets: Vec<Anchor>,
}

/// Largest k the k-way matcher attempts (the client-attribution step is a
/// brute-force assignment over k! permutations). Reaching a given k also
/// requires `DecoderConfig::collision_store ≥ k − 1`, checked per match
/// attempt — the default store of 4 supports up to 5 senders.
pub(crate) const MAX_KWAY: usize = 6;

/// Aligns the current collision with one stored collision by *validated
/// shifts* — the §4.2.2 correlation trick, generalized.
///
/// In a k-packet collision the per-detection client labels are unreliable
/// (an interferer's data sidelobe can out-score the true client's
/// compensation), so alignment uses positions only: every
/// `(current, stored)` detection-position pair proposes a shift, pairs
/// are bucketed by shift (±2 samples — sub-sample search inside
/// [`match_metric`] absorbs the residue), each bucket is confirmed by
/// sample correlation, and a confirmed bucket's packet start is located
/// by [`anchor_for_shift`]'s rising-edge test. A packet's data sidelobes
/// recur at the *same content offset* in every collision, so they
/// propose the packet's own shift and fold into its bucket instead of
/// faking extra packets. Returns up to k validated
/// `(current start, stored start, metric)` anchors, strongest first
/// when over-full; pure time-shift duplicates collapse into a single
/// bucket and leave the list short, which the caller treats as an
/// incomplete member.
fn align_by_shifts(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    cur_pos: &[usize],
    entry: &StoredCollision,
    k: usize,
) -> Vec<Anchor> {
    let mut pairs: Vec<(i64, usize, usize)> = Vec::new();
    for &p in cur_pos {
        for d in &entry.detections {
            pairs.push((p as i64 - d.pos as i64, p, d.pos));
        }
    }
    pairs.sort_unstable();

    // bucket by shift (±2), then confirm each bucket at its earliest pair
    let mut validated: Vec<Anchor> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 - pairs[j - 1].0 <= 2 {
            j += 1;
        }
        let mut bucket: Vec<(usize, usize)> = pairs[i..j].iter().map(|&(_, p, q)| (p, q)).collect();
        bucket.sort_unstable();
        // Score the earliest pairs of the bucket; the bucket is real if
        // any reaches full correlation strength. Only the bucket winner
        // and the ≤-threshold decision matter downstream, so the staged
        // funnel can zero prefilter-rejected pairs and let survivors
        // abandon below the threshold — winners keep exact metrics and
        // the same argmax as the exhaustive path.
        let scored: Vec<Anchor> = bucket
            .iter()
            .take(8)
            .map(|&(p, q)| (p, q, coarse_metric(search, ws, buffer, p, entry, q)))
            .collect();
        let max = scored.iter().map(|s| s.2).fold(0.0f64, f64::max);
        i = j;
        if max <= crate::matcher::MATCH_THRESHOLD {
            continue;
        }
        let &(bp, bq, _) = scored.iter().max_by(|a, b| a.2.total_cmp(&b.2)).expect("non-empty");
        let shift = bp as i64 - bq as i64;
        if let Some(v) = anchor_for_shift(search, ws, buffer, entry, shift, cur_pos) {
            validated.push(v);
        }
    }
    if debug_trace() {
        eprintln!(
            "  align: cur {:?} vs stored {:?} -> validated {validated:?}",
            cur_pos,
            entry.detections.iter().map(|d| d.pos).collect::<Vec<_>>()
        );
    }
    // adjacent shift buckets can re-anchor onto the same packet start —
    // keep the strongest per start, then the k strongest overall, back
    // in current-start order
    validated.sort_by(|a, b| a.0.cmp(&b.0).then(b.2.total_cmp(&a.2)));
    validated.dedup_by_key(|v| v.0);
    validated.sort_by(|a, b| b.2.total_cmp(&a.2));
    validated.truncate(k);
    validated.sort_unstable_by_key(|v| v.0);
    validated
}

/// Locates the packet *start* of a validated shift: the earliest
/// detected current position showing the start's rising edge — strong
/// aligned correlation after it, none in the aligned window before it.
///
/// With the shift pinned, the stored side needs no detection of its own
/// (its preamble may be immersed under k−1 interferers). Neither raw
/// recipe works alone: "earliest pair above threshold" mis-anchors on
/// pre-start positions whose window partially overlaps the packet, and
/// "strongest pair" mis-anchors on late sidelobe alignments, whose
/// metric is often *higher* than the start's because interference thins
/// out along the buffer. The edge test rejects both: pre-start positions
/// have no correlation in their trailing half-window, sidelobes have
/// full correlation in their leading one.
fn anchor_for_shift(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    entry: &StoredCollision,
    shift: i64,
    cur_pos: &[usize],
) -> Option<(usize, usize, f64)> {
    let mut best: Option<(usize, usize, f64, f64)> = None;
    for &p in cur_pos {
        let q = p as i64 - shift;
        if q < 0 {
            continue;
        }
        let q = q as usize;
        let pre = 0.8 * crate::matcher::MATCH_THRESHOLD;
        // Coarse prefilters before the full metric: most position/shift
        // combinations reject here at a fraction of the cost. Staged
        // search stacks the cheaper integer-τ stage in front and bails
        // the survivors' metrics at their respective decision bars.
        if search == MatchSearch::Staged {
            let bar = pre_t();
            if entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 1.0, Some(bar)) <= bar {
                continue;
            }
            if entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 0.5, Some(pre)) <= pre {
                continue;
            }
        } else if entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 0.5, None) <= pre {
            continue;
        }
        let bail = (search == MatchSearch::Staged).then_some(crate::matcher::MATCH_THRESHOLD);
        let m_post = entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW, 0.25, bail);
        if m_post <= crate::matcher::MATCH_THRESHOLD {
            continue;
        }
        let edge = start_edge(ws, buffer, entry, p, q);
        if best.is_none_or(|(_, _, _, b)| edge > b) {
            best = Some((p, q, m_post, edge));
        }
    }
    best.map(|(p, q, m, _)| (p, q, m))
}

/// The rising-edge statistic of a packet start at an aligned position
/// pair: short-window correlation just after minus just before. Peaks at
/// the true start; flat-high inside the packet, flat-low outside.
///
/// Both terms are *continuous statistics*, not threshold decisions, so
/// they are always evaluated exactly (no prefilter, no abandonment) —
/// a bailed value here would corrupt the edge comparison.
fn start_edge(
    ws: &mut Scratch,
    buffer: &[Complex],
    entry: &StoredCollision,
    p: usize,
    q: usize,
) -> f64 {
    const EDGE_WINDOW: usize = 128;
    let m_lead = entry_metric(ws, buffer, p, entry, q, EDGE_WINDOW, 0.5, None);
    let avail = p.min(q).min(EDGE_WINDOW);
    let m_trail = if avail >= 64 {
        entry_metric(ws, buffer, p - avail, entry, q - avail, avail, 0.5, None)
    } else {
        0.0
    };
    m_lead - m_trail
}

/// Locates the stored-buffer counterpart of the current-buffer packet
/// starting at `p` by scanning the whole stored buffer with the §4.2.2
/// correlation — the recovery path for packets whose preamble was never
/// *detected* in a stored collision (immersed under k−1 interferers, a
/// detection miss gets likelier with every extra sender).
///
/// Both search modes walk the identical stride-2 grid and refine the
/// identical coarse argmax — the staged mode differs only in *how much
/// of each metric it evaluates*: scoring goes through the entry's
/// cached footprint with `bail` set to the running maximum (coarse
/// pass) or the decision bar (refinement). By the bail contract a
/// returned value is exact whenever it is ≥ the bail and guaranteed
/// below it otherwise, so the strict-greater updates take exactly the
/// same branches as the exhaustive evaluation: selection is
/// bit-identical, and the staged pass abandons almost every losing
/// position a fraction of the way into its accumulation.
fn scan_for_counterpart(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    p: usize,
    entry: &StoredCollision,
    excluded_shifts: &[i64],
) -> Option<(usize, f64)> {
    let stored_len = entry.buffer.len();
    let staged = search == MatchSearch::Staged;
    let mut best = (0usize, 0.0f64);
    let mut q = 0;
    while q + MATCH_WINDOW / 4 < stored_len {
        if excluded_shifts.iter().any(|&s| (p as i64 - q as i64 - s).abs() <= 8) {
            q += 2;
            continue;
        }
        let bail = staged.then_some(best.1);
        let m = entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW / 2, 0.5, bail);
        if m > best.1 {
            best = (q, m);
        }
        q += 2;
    }
    let mut refined: Option<(usize, f64)> = None;
    for q in best.0.saturating_sub(2)..=(best.0 + 2).min(stored_len.saturating_sub(1)) {
        let bail =
            staged.then_some(refined.map_or(MATCH_THRESHOLD, |(_, r)| r.max(MATCH_THRESHOLD)));
        let m = entry_metric(ws, buffer, p, entry, q, MATCH_WINDOW, 0.25, bail);
        if m > MATCH_THRESHOLD && refined.is_none_or(|(_, r)| m > r) {
            refined = Some((q, m));
        }
    }
    refined
}

/// k-way (§4.5) matching for k ≥ 3 distinct clients: accumulates k−1
/// same-client-set store entries, each aligned by validated shifts
/// ([`align_by_shifts`]), joins the per-member alignments into k packet
/// clusters, attributes clients by preamble-correlation evidence summed
/// over all k collisions (best assignment over client permutations), and
/// gates the assembled k×k system on
/// [`schedule::decodable`](crate::schedule::decodable) with upper-bound
/// packet lengths. Pure time-shift duplicates are rejected per member
/// (their pairs collapse into one shift bucket) and duplicated member
/// equations by the decodability gate.
#[allow(clippy::too_many_arguments)]
fn find_kway_match(
    search: MatchSearch,
    ws: &mut Scratch,
    buffer: &[Complex],
    detections: &[Detection],
    key: &[u16],
    store: &CollisionStore,
    registry: &ClientRegistry,
    preamble: &Preamble,
) -> MatchOutcome {
    let k = key.len();
    // A k-way set needs k−1 stored members, so a store smaller than that
    // can never accumulate one — bail before doing any signal work (the
    // operator must raise `DecoderConfig::collision_store` for such
    // k-sender deployments; the receiver otherwise stores and churns).
    if k > MAX_KWAY || k - 1 > store.capacity() {
        return MatchOutcome::NoMatch;
    }
    // Cheap candidate count before the expensive shift alignment: the
    // first k−2 collisions of every k-sender set land here with too few
    // same-key entries.
    if store.key_len(key) < k - 1 {
        return MatchOutcome::NoMatch;
    }
    let cur_pos: Vec<usize> = detections.iter().map(|d| d.pos).collect();

    let debug = debug_trace();
    let radius = preamble.len() / 2;

    // Phase A: shift-align every same-key candidate (lists may be
    // partial or carry a mis-anchored entry — consensus sorts that out).
    let cands: Vec<(u64, Vec<Anchor>)> = store
        .candidates(key)
        .map(|e| (e.id, align_by_shifts(search, ws, buffer, &cur_pos, e, k)))
        .collect();
    if cands.len() < k - 1 {
        return MatchOutcome::NoMatch;
    }

    // Phase B: consensus packet starts in the current buffer. Anchors
    // from all candidates are clustered by position; true starts recur
    // across members (each member aligned the same shared packets) while
    // a mis-anchored sidelobe is member-specific — rank by support, then
    // by accumulated metric, and keep the top k.
    struct Cluster {
        rep: usize,
        rep_metric: f64,
        support: usize,
        metric_sum: f64,
    }
    let mut clusters: Vec<Cluster> = Vec::new();
    for (_, anchors) in &cands {
        for &(p, _, m) in anchors {
            if let Some(c) = clusters.iter_mut().find(|c| c.rep.abs_diff(p) <= radius) {
                c.support += 1;
                c.metric_sum += m;
                if m > c.rep_metric {
                    c.rep = p;
                    c.rep_metric = m;
                }
            } else {
                clusters.push(Cluster { rep: p, rep_metric: m, support: 1, metric_sum: m });
            }
        }
    }
    if clusters.len() < k {
        if debug {
            eprintln!("kway: only {} start clusters, need {k}", clusters.len());
        }
        return MatchOutcome::NoMatch;
    }
    clusters.sort_by(|a, b| b.support.cmp(&a.support).then(b.metric_sum.total_cmp(&a.metric_sum)));
    clusters.truncate(k);
    let mut starts: Vec<usize> = clusters.iter().map(|c| c.rep).collect();
    starts.sort_unstable();

    // Phase C: complete each candidate against the k consensus starts,
    // oldest first. A start the candidate's detections never proposed
    // (preamble immersed under k−1 interferers) is located by direct
    // correlation scan, excluding the shifts already owned by the
    // member's other packets — in overlap regions the scan would
    // otherwise latch onto a *different* shared packet's alignment.
    let mut members: Vec<MemberAlignment> = Vec::new();
    for (id, anchors) in &cands {
        if members.len() == k - 1 {
            break;
        }
        let entry = store.get(*id).expect("candidate id still stored");
        let mut row: Vec<Option<Anchor>> = starts
            .iter()
            .map(|&s| anchors.iter().find(|a| a.0.abs_diff(s) <= radius).copied())
            .collect();
        while row.iter().any(|r| r.is_none()) {
            let taken: Vec<i64> =
                row.iter().flatten().map(|&(p, q, _)| p as i64 - q as i64).collect();
            let idx = row.iter().position(|r| r.is_none()).expect("checked non-complete");
            let p = starts[idx];
            match scan_for_counterpart(search, ws, buffer, p, entry, &taken) {
                Some((q, m)) => {
                    if debug {
                        eprintln!("kway: member {id} scan found {p} -> {q} ({m:.3})");
                    }
                    row[idx] = Some((p, q, m));
                }
                None => break,
            }
        }
        if let Some(packets) = row.into_iter().collect::<Option<Vec<_>>>() {
            members.push(MemberAlignment { id: *id, packets });
        }
    }
    if members.len() < k - 1 {
        if debug {
            eprintln!("kway: only {}/{} members completed", members.len(), k - 1);
        }
        return MatchOutcome::NoMatch;
    }
    // (current start, per-member stored starts), in start order
    let clusters: Vec<(usize, Vec<usize>)> = starts
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, members.iter().map(|m| m.packets[i].1).collect()))
        .collect();

    // Refinement + client attribution. The shift alignment locates every
    // start only to within a few samples (sidelobe anchors, stride-2
    // scans), but the executor needs sample-exact starts — its channel
    // views estimate from the preamble at the given position. The
    // preamble matched filter is that instrument: per packet, per
    // candidate client ω, take the *local* preamble-correlation argmax
    // around the coarse start in every buffer independently. The peak
    // magnitudes double as attribution evidence: one collision's data
    // sidelobe can out-score the true client's compensation, the sum
    // over all k collisions rarely does. Clients are then assigned by
    // the best one-to-one permutation, and each buffer's start snaps to
    // the assigned client's local peak.
    let omegas: Vec<f64> = key.iter().map(|&c| registry.get(c).map_or(0.0, |i| i.omega)).collect();
    // peaks[q][j] = per-buffer (position, correlation): [current, members...]
    let mut peaks: Vec<Vec<Vec<(usize, Complex)>>> = Vec::with_capacity(k);
    let mut scores = vec![vec![0.0f64; key.len()]; k];
    for (q, (p, qs)) in clusters.iter().enumerate() {
        let mut per_client = Vec::with_capacity(key.len());
        for (j, &omega) in omegas.iter().enumerate() {
            let cur = preamble_peak(ws, buffer, preamble, *p, omega, 24);
            scores[q][j] += cur.1.abs();
            let mut row = vec![cur];
            for (m, &sq) in members.iter().zip(qs.iter()) {
                let entry = store.get(m.id).expect("member id still stored");
                let peak = preamble_peak(ws, &entry.buffer, preamble, sq, omega, 24);
                scores[q][j] += peak.1.abs();
                row.push(peak);
            }
            per_client.push(row);
        }
        peaks.push(per_client);
    }
    let Some(assign) = best_assignment(&scores) else {
        return MatchOutcome::NoMatch;
    };

    // Cross-buffer consistency vote. A single buffer's local preamble
    // peak can lose to a data artifact under heavy interference, but the
    // validated shifts tie all k buffers' starts together — each
    // buffer's refined peak casts a vote for the current-buffer start,
    // the majority wins, and every buffer then re-snaps to its matched-
    // filter peak within ±3 of the shift-consistent position.
    let mut final_rows: Vec<Vec<(usize, Complex)>> = Vec::with_capacity(k);
    for (q, (_, _)) in clusters.iter().enumerate() {
        let j = assign[q];
        let omega = omegas[j];
        let shifts: Vec<i64> =
            members.iter().map(|m| m.packets[q].0 as i64 - m.packets[q].1 as i64).collect();
        let mut votes = vec![peaks[q][j][0].0 as i64];
        for (mi, &s) in shifts.iter().enumerate() {
            votes.push(peaks[q][j][mi + 1].0 as i64 + s);
        }
        let star = vote_mode(&votes).max(0) as usize;
        let mut row = vec![preamble_peak(ws, buffer, preamble, star, omega, 3)];
        for (mi, &s) in shifts.iter().enumerate() {
            let entry = store.get(members[mi].id).expect("member id still stored");
            let target = (star as i64 - s).max(0) as usize;
            row.push(preamble_peak(ws, &entry.buffer, preamble, target, omega, 3));
        }
        if debug && votes.iter().any(|&v| (v - star as i64).abs() > 2) {
            eprintln!("kway: packet {q} start votes {votes:?} -> {star}");
        }
        final_rows.push(row);
    }

    // decodability gate on the full system with tight length estimates
    let layouts: Vec<CollisionLayout> = (0..members.len() + 1)
        .map(|col| {
            let len = if col == 0 {
                buffer.len()
            } else {
                store.get(members[col - 1].id).expect("member id still stored").buffer.len()
            };
            CollisionLayout {
                placements: (0..k)
                    .map(|q| Placement { packet: q, start: final_rows[q][col].0 })
                    .collect(),
                len,
            }
        })
        .collect();
    let alignment = (0..k)
        .map(|q| {
            let client = key[assign[q]];
            final_rows[q]
                .iter()
                .map(|&(pos, corr)| Detection { pos, client, corr, score: 1.0 })
                .collect()
        })
        .collect();
    let set = MatchSet { alignment, members: members.iter().map(|m| m.id).collect() };
    let lens = min_coverage_lens(k, &layouts);
    let reason = crate::schedule::decodability(&lens, &layouts);
    if !reason.is_decodable() {
        if debug {
            eprintln!("kway: assembled system not decodable ({reason:?}): {layouts:?}");
        }
        // The alignment itself was confirmed by correlation across all k
        // collisions — only the system is under-determined. Report it so
        // the recovery subsystem can accumulate its equations instead of
        // the receiver pretending nothing aligned.
        return MatchOutcome::Undecodable(RejectedSet { set, reason });
    }
    MatchOutcome::Matched(set)
}

/// Local preamble matched-filter peak: the position within ±`radius`
/// samples of `near` maximizing the ω-compensated preamble correlation,
/// with the correlation value there. Sample-exact where the coarse
/// shift/scan alignment is only approximate (a sidelobe anchor can sit a
/// couple of dozen samples past an undetected true start).
///
/// The window of correlations comes from one kernel
/// [`scan_into`](zigzag_phy::kernel::Kernel::scan_into) call (the same
/// fused primitive as the detect scan) instead of per-position
/// `corr_at` loops; initialization at `near` and the strict-greater
/// ascending sweep reproduce the historical argmax exactly.
fn preamble_peak(
    ws: &mut Scratch,
    buffer: &[Complex],
    preamble: &Preamble,
    near: usize,
    omega: f64,
    radius: usize,
) -> (usize, Complex) {
    let hi = (near + radius).min(buffer.len().saturating_sub(1));
    // `near` may sit past the buffer end (shift-projected target): clamp
    // the window start so it still brackets the evaluated position.
    let lo = near.saturating_sub(radius).min(hi);
    let mut corr = ws.pool.take();
    ws.kernel.scan_into(buffer, preamble.symbols(), omega, lo..hi + 1, &mut corr);
    let mut best = (near.min(hi), corr[near.min(hi) - lo]);
    for (i, &c) in corr.iter().enumerate() {
        if c.abs() > best.1.abs() {
            best = (lo + i, c);
        }
    }
    ws.pool.put(corr);
    best
}

/// The value of the largest ±2 cluster among `votes` (ties go to the
/// earlier vote — the current buffer's own peak).
fn vote_mode(votes: &[i64]) -> i64 {
    let mut best = (0usize, votes[0]);
    for &v in votes {
        let n = votes.iter().filter(|&&w| (w - v).abs() <= 2).count();
        if n > best.0 {
            best = (n, v);
        }
    }
    best.1
}

/// Brute-force best one-to-one assignment of columns (clients) to rows
/// (packets) maximizing the summed score — k ≤ [`MAX_KWAY`], so k!
/// stays trivial.
fn best_assignment(scores: &[Vec<f64>]) -> Option<Vec<usize>> {
    let k = scores.len();
    let mut perm: Vec<usize> = (0..k).collect();
    let mut best: Option<(f64, Vec<usize>)> = None;
    permute(&mut perm, 0, &mut |p| {
        let total: f64 = p.iter().enumerate().map(|(q, &j)| scores[q][j]).sum();
        if best.as_ref().is_none_or(|(b, _)| total > *b) {
            best = Some((total, p.to_vec()));
        }
    });
    best.map(|(_, p)| p)
}

/// Heap's-style permutation enumeration by prefix swaps.
fn permute(items: &mut [usize], at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == items.len() {
        visit(items);
        return;
    }
    for i in at..items.len() {
        items.swap(at, i);
        permute(items, at + 1, visit);
        items.swap(at, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::is_match;

    fn det(client: u16, pos: usize) -> Detection {
        Detection { pos, client, corr: Complex::real(1.0), score: 1.5 }
    }

    #[test]
    fn store_bounds_per_key_and_evicts_key_stalest() {
        let mut store = CollisionStore::new(2);
        let a = store.insert(vec![], vec![det(1, 0), det(2, 5)]);
        let b = store.insert(vec![], vec![det(1, 9), det(2, 3)]);
        let c = store.insert(vec![], vec![det(1, 7), det(2, 1)]);
        assert_eq!(store.key_len(&[1, 2]), 2);
        assert!(store.get(a).is_none(), "the overflowing key's stalest entry must be evicted");
        assert!(store.get(b).is_some() && store.get(c).is_some());
    }

    #[test]
    fn eviction_starvation_regression_other_keys_survive_a_burst() {
        // Regression for the global-FIFO eviction bug: a burst of
        // unmatched collisions from one client set used to flush every
        // other set's stored members, permanently starving their
        // nearly-complete k-way match sets. Eviction is per key now.
        let mut store = CollisionStore::new(4);
        let survivor = store.insert(vec![], vec![det(3, 0), det(4, 50)]);
        let mut burst = Vec::new();
        for i in 0..8 {
            burst.push(store.insert(vec![], vec![det(1, i), det(2, i + 40)]));
        }
        assert!(
            store.get(survivor).is_some(),
            "a {{1,2}} burst must never evict the stored {{3,4}} member"
        );
        assert_eq!(store.key_len(&[1, 2]), 4, "the bursting key evicts its own stalest entries");
        for stale in &burst[..4] {
            assert!(store.get(*stale).is_none());
        }
        for live in &burst[4..] {
            assert!(store.get(*live).is_some());
        }
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn store_total_safety_valve_evicts_most_populous_key() {
        // Under a key-cardinality flood the total bound (cap × 16) holds,
        // shedding the stalest entry of the most-populous key.
        let mut store = CollisionStore::new(1);
        for c in 0..16u16 {
            store.insert(vec![], vec![det(c, 0)]);
        }
        assert_eq!(store.len(), 16);
        let first = store.iter().next().expect("non-empty").id;
        store.insert(vec![], vec![det(99, 0)]);
        assert_eq!(store.len(), 16, "total bound must hold");
        assert!(store.get(first).is_none(), "stalest entry of a most-populous key is shed");
    }

    #[test]
    fn zero_capacity_store_accepts_and_discards() {
        // Regression: inserting into a cap-0 store (the `Default`) used
        // to evict the id before the entry existed, corrupting the index
        // and panicking in the safety valve.
        let mut store = CollisionStore::default();
        let a = store.insert(vec![], vec![det(1, 0), det(2, 7)]);
        assert!(store.is_empty());
        assert!(store.get(a).is_none());
        assert_eq!(store.key_len(&[1, 2]), 0);
    }

    #[test]
    fn store_remove_unindexes_and_allows_reinsert() {
        let mut store = CollisionStore::new(2);
        let a = store.insert(vec![], vec![det(1, 0), det(2, 9)]);
        let b = store.insert(vec![], vec![det(1, 4), det(2, 2)]);
        let removed = store.remove(a).expect("present");
        assert_eq!(removed.id, a);
        assert_eq!(store.key_len(&[1, 2]), 1);
        assert!(store.remove(a).is_none(), "double remove is a no-op");
        let c = store.insert(vec![], vec![det(1, 1), det(2, 8)]);
        let ids: Vec<u64> = store.candidates(&[1, 2]).map(|e| e.id).collect();
        assert_eq!(ids, vec![b, c], "candidates stay oldest-first after remove/reinsert");
    }

    #[test]
    fn store_ids_are_stable_across_eviction() {
        let mut store = CollisionStore::new(1);
        let a = store.insert(vec![], vec![det(1, 0)]);
        let b = store.insert(vec![], vec![det(1, 5)]);
        assert_ne!(a, b);
        assert_eq!(store.get(b).unwrap().detections[0].pos, 5);
    }

    #[test]
    fn candidates_filter_by_client_set() {
        let mut store = CollisionStore::new(8);
        store.insert(vec![], vec![det(1, 0), det(2, 10)]);
        store.insert(vec![], vec![det(2, 3), det(1, 40)]); // same set, other order
        store.insert(vec![], vec![det(1, 0), det(3, 10)]);
        store.insert(vec![], vec![det(1, 0), det(2, 10), det(3, 20)]);
        assert_eq!(store.candidates(&[1, 2]).count(), 2);
        assert_eq!(store.candidates(&[1, 3]).count(), 1);
        assert_eq!(store.candidates(&[1, 2, 3]).count(), 1);
        assert_eq!(store.candidates(&[2, 3]).count(), 0);
    }

    #[test]
    fn client_key_sorts_and_dedups() {
        assert_eq!(client_key(&[det(5, 0), det(2, 10), det(5, 90)]), vec![2, 5]);
        assert!(client_key(&[]).is_empty());
    }

    #[test]
    fn pair_rejects_any_equal_shift_alignment() {
        // Regression for the degenerate-offset fix: Δ₁ = Δ₂ ≠ 0 used to
        // slip through (only the fully-overlapped c₁=c₂ ∧ s₁=s₂ case was
        // rejected) and sent the executor into a guaranteed-Stuck decode.
        let current = [det(1, 100), det(2, 130)];
        let stored = [det(1, 0), det(2, 30)]; // same relative offset 30
        assert_eq!(pair_collisions(&current, &stored), None);
        // the historical special case stays rejected
        let overlapped_cur = [det(1, 50), det(2, 50)];
        let overlapped_old = [det(1, 80), det(2, 80)];
        assert_eq!(pair_collisions(&overlapped_cur, &overlapped_old), None);
        // distinct relative offsets still pair
        let good_stored = [det(1, 0), det(2, 95)];
        let pairing = pair_collisions(&current, &good_stored).expect("decodable pair");
        assert_eq!(pairing[0].0.client, 1);
        assert_eq!(pairing[1].1.pos, 95);
    }

    #[test]
    fn pure_shift_detection() {
        assert!(is_pure_shift(&[det(1, 10), det(2, 40)], &[det(1, 0), det(2, 30)]));
        assert!(!is_pure_shift(&[det(1, 10), det(2, 40)], &[det(1, 0), det(2, 31)]));
        assert!(is_pure_shift(&[det(1, 7)], &[det(1, 2)]));
    }

    #[test]
    fn evicted_entries_are_reclaimable_when_retention_is_enabled() {
        let mut store = CollisionStore::new(1);
        assert!(store.take_evicted().is_empty());
        store.insert(vec![], vec![det(1, 0), det(2, 5)]);
        store.insert(vec![], vec![det(1, 9), det(2, 3)]);
        assert!(store.take_evicted().is_empty(), "default retention is zero: evictions drop");
        store.set_evicted_capacity(2);
        let b = store.insert(vec![], vec![det(1, 7), det(2, 1)]);
        let c = store.insert(vec![], vec![det(1, 2), det(2, 8)]);
        let d = store.insert(vec![], vec![det(1, 4), det(2, 6)]);
        let reclaimed = store.take_evicted();
        assert_eq!(
            reclaimed.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![b, c],
            "evicted entries surface oldest first, with ids and detections intact"
        );
        assert!(store.take_evicted().is_empty(), "drain is destructive");
        assert_eq!(store.len(), 1);
        assert!(store.get(d).is_some());
    }

    #[test]
    fn evicted_backlog_is_bounded() {
        let mut store = CollisionStore::new(1);
        store.set_evicted_capacity(2);
        for i in 0..6 {
            store.insert(vec![], vec![det(1, i), det(2, i + 40)]);
        }
        let reclaimed = store.take_evicted();
        assert_eq!(reclaimed.len(), 2, "a non-draining caller must not leak evictions");
        // the two *newest* evictions survive (oldest dropped for good)
        assert!(reclaimed.iter().all(|e| e.detections[0].pos >= 2));
    }

    #[test]
    fn confirmed_pure_shift_pair_classifies_as_undecodable() {
        // Two collisions of the same two packets at the SAME relative
        // offset: §4.5's Δ₁ = Δ₂ failure. The alignment confirms by
        // correlation, so classify_match must report Undecodable (the
        // algebraic-recovery feed), not silently NoMatch — while
        // find_match_set keeps its historical None.
        use rand::prelude::*;
        let mut rng = rand::StdRng::seed_from_u64(11);
        let noise = |rng: &mut rand::StdRng, n: usize| -> Vec<Complex> {
            (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect()
        };
        let a = noise(&mut rng, 1000);
        let b = noise(&mut rng, 1000);
        // both collisions: A@x, B@x+100 (pure shift between them)
        let mut cur = vec![Complex::default(); 1300];
        let mut old = vec![Complex::default(); 1300];
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            cur[i] += x;
            cur[i + 100] += y;
            old[i + 40] += x;
            old[i + 140] += y;
        }
        let mut store = CollisionStore::new(4);
        store.insert(old, vec![det(1, 40), det(2, 140)]);
        let cur_dets = vec![det(1, 0), det(2, 100)];
        let reg = crate::config::ClientRegistry::new();
        let pre = zigzag_phy::preamble::Preamble::default_len();
        let mut ws = Scratch::default();
        match classify_match(MatchSearch::Staged, &mut ws, &cur, &cur_dets, &store, &reg, &pre) {
            MatchOutcome::Undecodable(r) => {
                assert_eq!(r.set.members.len(), 1);
                assert_eq!(r.set.packets(), 2);
                assert!(
                    matches!(r.reason, Decodability::Stalled { .. }),
                    "pure shift must stall peeling, got {:?}",
                    r.reason
                );
            }
            other => panic!("expected Undecodable, got {other:?}"),
        }
        assert!(find_match_set(MatchSearch::Staged, &mut ws, &cur, &cur_dets, &store, &reg, &pre)
            .is_none());
        assert_eq!(store.len(), 1, "classification must not consume the store entry");
    }

    #[test]
    fn pairwise_match_never_consumes_kway_store_entries() {
        // A stored collision with ≥3 distinct clients is a member of a
        // pending k-way system. A later 2-distinct-client collision (one
        // start missed by detection) must not pairwise-match it — even
        // when the shared packets' samples genuinely correlate — or the
        // 2×2 decode would consume a member the k×k set still needs.
        use rand::prelude::*;
        let mut rng = rand::StdRng::seed_from_u64(9);
        let noise = |rng: &mut rand::StdRng, n: usize| -> Vec<Complex> {
            (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect()
        };
        let a = noise(&mut rng, 1200);
        let b = noise(&mut rng, 1200);
        // current: A@0 + B@100; stored: A@50 + B@120 (plus a third,
        // unrelated client detected) — B's alignment (100 vs 120)
        // correlates strongly, and the shifts differ, so the pairwise
        // matcher *would* accept this entry if it looked at it.
        let mut cur = vec![Complex::default(); 1400];
        let mut old = vec![Complex::default(); 1400];
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            cur[i] += x;
            cur[i + 100] += y;
            old[i + 50] += x;
            old[i + 120] += y;
        }
        let mut ws = Scratch::default();
        assert!(is_match(&mut ws.kernel, &cur, 100, &old, 120), "construction must correlate");
        let mut store = CollisionStore::new(4);
        store.insert(old, vec![det(1, 50), det(2, 120), det(3, 500)]);
        let cur_dets = vec![det(1, 0), det(2, 100)];
        let reg = crate::config::ClientRegistry::new();
        let pre = zigzag_phy::preamble::Preamble::default_len();
        assert!(
            find_match_set(MatchSearch::Staged, &mut ws, &cur, &cur_dets, &store, &reg, &pre)
                .is_none(),
            "2-client collision must leave the 3-client store entry for the k-way system"
        );
        assert_eq!(store.len(), 1);
    }
}
