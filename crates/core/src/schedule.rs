//! The greedy chunk-decoding scheduler (§4.5).
//!
//! "Step 1: For each of the collisions, decode all the overhanging chunks
//! that are interference-free. Step 2: Subtract the known chunks wherever
//! they appear in all collisions. Step 3: Decode all the new chunks that
//! become interference free as a result of Step 2. Repeat…"
//!
//! This module treats the problem *combinatorially*: packets are symbol
//! ranges, collisions are placements of packets at offsets, and a symbol
//! is decodable from a collision position once every other symbol covering
//! that position is already decoded. Two implementations share these
//! semantics:
//!
//! * [`PlanState`] — an incremental planner that yields maximal
//!   interference-free **runs** (chunks). The signal-level executor in
//!   [`crate::zigzag`] consumes these steps one at a time, so lengths can
//!   be revised mid-flight (a packet's true length becomes known only when
//!   its PLCP header is decoded). Runs come from interval arithmetic on
//!   the decoded sets (see [`PlanState::runs_in`]), so an executor step
//!   costs O(intervals), not O(packet length): a near-equal-offset pair
//!   that decodes in 1-symbol chunks stays linear in its step count.
//! * [`decodable`] — a fast peeling-style decider used by the Fig 4-7
//!   Monte-Carlo (failure probability vs number of colliding senders),
//!   where millions of offset patterns must be tested.
//!
//! The 2-packet ZigZag of Fig 1-2 is the special case with two collisions;
//! the planner also resolves the overlapped/flipped/different-size
//! patterns of Fig 4-1 and the 3+-sender patterns of Fig 4-6.

use crate::intervals::IntervalSet;
use std::collections::VecDeque;
use std::ops::Range;

/// One packet placed inside one collision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Packet index (into the planner's packet table).
    pub packet: usize,
    /// Sample offset of the packet's first symbol in the collision buffer.
    pub start: usize,
}

/// The layout of one collision: which packets start where.
#[derive(Clone, Debug)]
pub struct CollisionLayout {
    /// Packet placements.
    pub placements: Vec<Placement>,
    /// Usable buffer length in samples.
    pub len: usize,
}

impl CollisionLayout {
    /// The layout of `(packet, start)` placements in a buffer of `len`
    /// samples.
    pub(crate) fn from_pairs(placements: &[(usize, usize)], len: usize) -> Self {
        let placements =
            placements.iter().map(|&(packet, start)| Placement { packet, start }).collect();
        Self { placements, len }
    }
}

/// A decodable chunk: symbols `range` of `packet`, interference-free in
/// `collision`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Collision index to decode from.
    pub collision: usize,
    /// Packet index to decode.
    pub packet: usize,
    /// Symbol range of the packet (not buffer positions).
    pub range: Range<usize>,
}

/// Why planning stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOutcome {
    /// Every symbol of every packet was scheduled.
    Complete,
    /// No interference-free chunk exists but packets remain — the
    /// collisions are not "linearly independent" enough (§4.5's failure
    /// condition, e.g. Δ₁ = Δ₂).
    Stuck,
}

/// Incremental greedy planner state.
#[derive(Clone, Debug)]
pub struct PlanState {
    lens: Vec<usize>,
    decoded: Vec<IntervalSet>,
    collisions: Vec<CollisionLayout>,
}

impl PlanState {
    /// Creates a planner over packets with the given (possibly
    /// upper-bound) symbol lengths and collision layouts.
    pub fn new(lens: Vec<usize>, collisions: Vec<CollisionLayout>) -> Self {
        let decoded = lens.iter().map(|_| IntervalSet::new()).collect();
        Self { lens, decoded, collisions }
    }

    /// Current length of a packet.
    pub fn len_of(&self, packet: usize) -> usize {
        self.lens[packet]
    }

    /// Revises a packet's length (e.g. after its PLCP is decoded).
    /// Shrinking is always safe; growing may invalidate prior planning.
    pub fn set_len(&mut self, packet: usize, len: usize) {
        self.lens[packet] = len;
    }

    /// Marks symbols of a packet as decoded.
    pub fn mark(&mut self, packet: usize, range: Range<usize>) {
        self.decoded[packet].insert(range);
    }

    /// Decoded symbol set of a packet.
    pub fn decoded(&self, packet: usize) -> &IntervalSet {
        &self.decoded[packet]
    }

    /// `true` once every packet is fully decoded.
    pub fn is_complete(&self) -> bool {
        self.lens.iter().zip(self.decoded.iter()).all(|(&l, d)| d.covers(0..l))
    }

    /// All maximal interference-free undecoded runs currently available in
    /// collision `ci`: placements in layout order, each placement's runs
    /// ascending.
    ///
    /// Built from intervals, never from positions. For the placement of
    /// packet `p`, the *blocked* set in `p`'s symbol coordinates is the
    /// union, over every placement of another packet `p'`, of `p'`'s
    /// undecoded gaps within `0..len(p')`, shifted by `start(p') −
    /// start(p)` and clipped at 0. The runs are that set's gaps inside
    /// each undecoded gap of `p` that fits in the buffer. One call's cost
    /// grows with the number of decoded and undecoded intervals of the
    /// collision's packets (a handful in a zigzag decode), not with packet
    /// length.
    pub fn runs_in(&self, ci: usize) -> Vec<Step> {
        let c = &self.collisions[ci];
        let mut steps = Vec::new();
        for pl in &c.placements {
            let mut blocked = IntervalSet::new();
            for other in c.placements.iter().filter(|o| o.packet != pl.packet) {
                for g in self.decoded[other.packet].gaps(0..self.lens[other.packet]) {
                    // `g` in `other`'s symbols → `pl`'s symbols, clipped at 0
                    let shifted = if other.start >= pl.start {
                        let d = other.start - pl.start;
                        g.start + d..g.end + d
                    } else {
                        let d = pl.start - other.start;
                        g.start.saturating_sub(d)..g.end.saturating_sub(d)
                    };
                    blocked.insert(shifted);
                }
            }
            // symbols of this packet that fit inside the buffer
            let max_sym = self.lens[pl.packet].min(c.len.saturating_sub(pl.start));
            for gap in self.decoded[pl.packet].gaps(0..max_sym) {
                for run in blocked.gaps(gap) {
                    steps.push(Step { collision: ci, packet: pl.packet, range: run });
                }
            }
        }
        steps
    }

    /// All available runs across all collisions, collision by collision
    /// in [`PlanState::runs_in`] order. The executor calls this once per
    /// step, so a step costs O(intervals) per collision, never
    /// O(packet length).
    pub fn available_runs(&self) -> Vec<Step> {
        (0..self.collisions.len()).flat_map(|c| self.runs_in(c)).collect()
    }

    /// Runs the greedy algorithm to completion, returning the step
    /// sequence and whether it finished (the paper's Steps 1–3 loop).
    /// Steps are deduplicated: a symbol is scheduled from only one
    /// collision per wave (the executor gets its second copy from the
    /// backward pass instead).
    pub fn plan_all(&mut self) -> (Vec<Step>, PlanOutcome) {
        let mut plan = Vec::new();
        loop {
            if self.is_complete() {
                return (plan, PlanOutcome::Complete);
            }
            let runs = self.available_runs();
            let mut progressed = false;
            for step in runs {
                // re-check against symbols marked earlier in this wave
                let fresh: Vec<Range<usize>> = self.decoded[step.packet].gaps(step.range.clone());
                for r in fresh {
                    self.mark(step.packet, r.clone());
                    plan.push(Step { collision: step.collision, packet: step.packet, range: r });
                    progressed = true;
                }
            }
            if !progressed {
                return (plan, PlanOutcome::Stuck);
            }
        }
    }
}

/// The `buffer end − start` coverage spans of packet `q`, one per
/// collision containing it — the raw material for both length bounds
/// below.
fn coverage_spans<'a>(
    q: usize,
    collisions: &'a [CollisionLayout],
) -> impl Iterator<Item = usize> + 'a {
    collisions.iter().filter_map(move |c| {
        c.placements.iter().find(|p| p.packet == q).map(|p| c.len.saturating_sub(p.start))
    })
}

/// Upper-bound symbol lengths for `n_packets` packets before any PLCP is
/// decoded: each packet may extend to the end of the longest collision
/// buffer it appears in. The ZigZag executor starts its plan from this
/// bound and revises downward once a packet's PLCP parses. Do **not**
/// use it for the matcher's decodability gate — see
/// [`min_coverage_lens`] for why the phantom tails deadlock peeling.
pub fn upper_bound_lens(n_packets: usize, collisions: &[CollisionLayout]) -> Vec<usize> {
    (0..n_packets).map(|q| coverage_spans(q, collisions).max().unwrap_or(0)).collect()
}

/// Tightest length estimate consistent with the layouts: each packet is
/// assumed fully contained in *every* collision it appears in, so its
/// length is at most the smallest `buffer end − start` across them. The
/// k-way matcher's decodability gate uses this: the upper bound of
/// [`upper_bound_lens`] pads every packet with a phantom tail out to the
/// longest buffer end, and those phantom symbols (which overlap every
/// other packet's tail) deadlock the peeling test on systems the
/// executor — which shrinks lengths as soon as a PLCP header parses —
/// decodes without trouble. A slightly optimistic gate only costs a
/// failed decode attempt; a pessimistic one starves the receiver.
pub fn min_coverage_lens(n_packets: usize, collisions: &[CollisionLayout]) -> Vec<usize> {
    (0..n_packets).map(|q| coverage_spans(q, collisions).min().unwrap_or(0)).collect()
}

/// The shift signature of a collision layout: every packet's start
/// relative to the layout's earliest placed packet (`None` when the
/// packet is absent from this collision).
///
/// Two collisions with equal signatures place every packet at the same
/// relative offsets — combinatorially they are the *same* equation
/// (§4.5's Δ₁ = Δ₂ degeneracy generalised to k packets), so any
/// diversity between them must come from the channel coefficients alone.
/// The algebraic recovery layer keys its conditioning proxy on this:
/// equations from different signatures are independent by structure,
/// while same-signature recruits are scored by how far their channel
/// rows are from collinear ([`zigzag_phy::linalg::gram_conditioning`]).
pub fn shift_signature(n_packets: usize, layout: &CollisionLayout) -> Vec<Option<isize>> {
    let origin = layout.placements.iter().map(|p| p.start).min().unwrap_or(0) as isize;
    let mut sig = vec![None; n_packets];
    for pl in &layout.placements {
        if pl.packet < n_packets {
            sig[pl.packet] = Some(pl.start as isize - origin);
        }
    }
    sig
}

/// Why position-wise peeling cannot decode a system — the reason behind
/// a `false` from [`decodable`].
///
/// Callers used to get a bare bool and could not tell a *phantom tail*
/// (a symbol no collision covers, typically from an over-estimated
/// packet length) from *insufficient equations* (every symbol is covered
/// but peeling stalls, e.g. §4.5's Δ₁ = Δ₂ duplicate-equation failure).
/// The distinction matters downstream: an uncovered symbol can never be
/// recovered by any decoder, while a stalled system still contributes
/// equations that the algebraic batch-recovery subsystem
/// ([`crate::recovery`]) can jointly solve with other collisions of the
/// same packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decodability {
    /// Peeling completes: every symbol of every packet decodes.
    Decodable,
    /// Some symbol appears in **no** collision — the length estimate
    /// overhangs every buffer that contains the packet (phantom tail), or
    /// the coverage is genuinely truncated. No decoder can recover it.
    Uncovered {
        /// The first uncovered packet (lowest index).
        packet: usize,
        /// Its first uncovered symbol.
        symbol: usize,
    },
    /// Every symbol is covered but peeling stalls: no interference-free
    /// position remains while `undecoded` of `total` symbols are still
    /// unknown. The surviving positions are still valid linear equations
    /// over the undecoded symbols — raw material for algebraic recovery.
    Stalled {
        /// Symbols peeling could not reach.
        undecoded: usize,
        /// Total symbols in the system.
        total: usize,
    },
}

impl Decodability {
    /// `true` for [`Decodability::Decodable`].
    pub fn is_decodable(self) -> bool {
        matches!(self, Decodability::Decodable)
    }
}

/// Fast decodability test by position-wise peeling.
///
/// Equivalent to running [`PlanState::plan_all`] and checking for
/// [`PlanOutcome::Complete`], but O(total positions) — suitable for the
/// Fig 4-7 Monte Carlo. See [`decodability`] for the reason an
/// undecodable system fails.
pub fn decodable(lens: &[usize], collisions: &[CollisionLayout]) -> bool {
    decodability(lens, collisions).is_decodable()
}

/// [`decodable`] with the failure reason: position-wise peeling using the
/// classic count/XOR trick — each buffer position keeps the number of
/// undecoded symbols covering it plus XOR accumulators identifying the
/// survivor once the count reaches one.
pub fn decodability(lens: &[usize], collisions: &[CollisionLayout]) -> Decodability {
    // global symbol ids
    let base: Vec<usize> = {
        let mut b = Vec::with_capacity(lens.len());
        let mut acc = 0;
        for &l in lens {
            b.push(acc);
            acc += l;
        }
        b
    };
    let total_syms: usize = lens.iter().sum();
    if total_syms == 0 {
        return Decodability::Decodable;
    }

    // per collision: count + xor of covering undecoded symbol ids
    let mut counts: Vec<Vec<u32>> = Vec::with_capacity(collisions.len());
    let mut xors: Vec<Vec<usize>> = Vec::with_capacity(collisions.len());
    // where each symbol appears: (collision, position)
    let mut appearances: Vec<Vec<(usize, usize)>> = vec![Vec::new(); total_syms];

    for (ci, c) in collisions.iter().enumerate() {
        let mut cnt = vec![0u32; c.len];
        let mut xr = vec![0usize; c.len];
        for pl in &c.placements {
            let max_sym = lens[pl.packet].min(c.len.saturating_sub(pl.start));
            for u in 0..max_sym {
                let pos = pl.start + u;
                let sid = base[pl.packet] + u;
                cnt[pos] += 1;
                xr[pos] ^= sid;
                appearances[sid].push((ci, pos));
            }
        }
        counts.push(cnt);
        xors.push(xr);
    }

    // any symbol not covered by any collision can never be decoded
    if let Some(sid) = appearances.iter().position(|a| a.is_empty()) {
        let packet = base.iter().rposition(|&b| b <= sid).unwrap_or(0);
        return Decodability::Uncovered { packet, symbol: sid - base[packet] };
    }

    let mut decoded = vec![false; total_syms];
    let mut n_decoded = 0usize;
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for (ci, cnt) in counts.iter().enumerate() {
        for (pos, &k) in cnt.iter().enumerate() {
            if k == 1 {
                queue.push_back((ci, pos));
            }
        }
    }
    while let Some((ci, pos)) = queue.pop_front() {
        if counts[ci][pos] != 1 {
            continue;
        }
        let sid = xors[ci][pos];
        if decoded[sid] {
            continue;
        }
        decoded[sid] = true;
        n_decoded += 1;
        for &(cj, pj) in &appearances[sid] {
            counts[cj][pj] -= 1;
            xors[cj][pj] ^= sid;
            if counts[cj][pj] == 1 {
                queue.push_back((cj, pj));
            }
        }
    }
    if n_decoded == total_syms {
        Decodability::Decodable
    } else {
        Decodability::Stalled { undecoded: total_syms - n_decoded, total: total_syms }
    }
}

/// Convenience: layouts for the canonical retransmission pair of Fig 1-2
/// (packet 0 at offset 0 in both collisions, packet 1 at Δ₁ / Δ₂).
pub fn pair_layouts(
    len_a: usize,
    len_b: usize,
    delta1: usize,
    delta2: usize,
) -> Vec<CollisionLayout> {
    let mk = |d: usize| CollisionLayout {
        placements: vec![Placement { packet: 0, start: 0 }, Placement { packet: 1, start: d }],
        len: (len_a).max(d + len_b) + 8,
    };
    vec![mk(delta1), mk(delta2)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    /// The per-position reference semantics [`PlanState::runs_in`] must
    /// reproduce; O(packet length × placements) per call.
    impl PlanState {
        /// `true` if buffer position `pos` of collision `c` is free of
        /// interference for `packet` (every *other* covering symbol
        /// decoded).
        fn position_free(&self, c: &CollisionLayout, pos: usize, packet: usize) -> bool {
            for pl in &c.placements {
                if pl.packet == packet {
                    continue;
                }
                if pos < pl.start {
                    continue;
                }
                let sym = pos - pl.start;
                if sym < self.lens[pl.packet] && !self.decoded[pl.packet].contains(sym) {
                    return false;
                }
            }
            true
        }

        /// [`PlanState::runs_in`] by scanning every undecoded position.
        fn runs_in_by_position(&self, ci: usize) -> Vec<Step> {
            let c = &self.collisions[ci];
            let mut steps = Vec::new();
            for pl in &c.placements {
                let plen = self.lens[pl.packet];
                let max_sym = plen.min(c.len.saturating_sub(pl.start));
                for gap in self.decoded[pl.packet].gaps(0..max_sym) {
                    // split the gap into maximal runs of free positions
                    let mut run_start: Option<usize> = None;
                    for u in gap.clone() {
                        let free = self.position_free(c, pl.start + u, pl.packet);
                        match (free, run_start) {
                            (true, None) => run_start = Some(u),
                            (false, Some(s)) => {
                                steps.push(Step { collision: ci, packet: pl.packet, range: s..u });
                                run_start = None;
                            }
                            _ => {}
                        }
                    }
                    if let Some(s) = run_start {
                        steps.push(Step { collision: ci, packet: pl.packet, range: s..gap.end });
                    }
                }
            }
            steps
        }

        /// [`PlanState::plan_all`]'s loop over the per-position runs.
        fn plan_all_by_position(&mut self) -> (Vec<Step>, PlanOutcome) {
            let mut plan = Vec::new();
            loop {
                if self.is_complete() {
                    return (plan, PlanOutcome::Complete);
                }
                let runs: Vec<Step> =
                    (0..self.collisions.len()).flat_map(|c| self.runs_in_by_position(c)).collect();
                let mut progressed = false;
                for step in runs {
                    for r in self.decoded[step.packet].gaps(step.range.clone()) {
                        self.mark(step.packet, r.clone());
                        plan.push(Step {
                            collision: step.collision,
                            packet: step.packet,
                            range: r,
                        });
                        progressed = true;
                    }
                }
                if !progressed {
                    return (plan, PlanOutcome::Stuck);
                }
            }
        }

        fn assert_runs_match_oracle(&self) {
            for ci in 0..self.collisions.len() {
                assert_eq!(self.runs_in(ci), self.runs_in_by_position(ci), "collision {ci}");
            }
        }
    }

    /// A random planner: 2–4 packets, 1–4 collisions, each packet absent
    /// from a collision with probability 1/4, starts up to 60 samples past
    /// the buffer end, and decoded sets of up to 5 random intervals.
    fn random_state(rng: &mut StdRng) -> PlanState {
        let k = rng.gen_range(2..5usize);
        let lens: Vec<usize> = (0..k).map(|_| rng.gen_range(0..160usize)).collect();
        let collisions = (0..rng.gen_range(1..5usize))
            .map(|_| {
                let len = rng.gen_range(1..320usize);
                let placements = (0..k)
                    .filter_map(|packet| {
                        let start = rng.gen_range(0..len + 60);
                        (rng.gen_range(0..4u8) != 0).then_some(Placement { packet, start })
                    })
                    .collect();
                CollisionLayout { placements, len }
            })
            .collect();
        let mut st = PlanState::new(lens.clone(), collisions);
        for (q, &l) in lens.iter().enumerate() {
            for _ in 0..rng.gen_range(0..6u8) {
                let a = rng.gen_range(0..l + 10);
                st.mark(q, a..a + rng.gen_range(1..30usize));
            }
        }
        st
    }

    proptest! {
        /// The interval construction of `runs_in` equals the per-position
        /// scan at every step of an executor-like walk: take the run
        /// nearest a random frontier, sometimes only part of it, and
        /// sometimes learn a shorter length (a parsed PLCP) partway.
        #[test]
        fn runs_in_matches_position_scan(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut st = random_state(&mut rng);
            let k = st.lens.len();
            for _ in 0..400 {
                st.assert_runs_match_oracle();
                if rng.gen_range(0..8u8) == 0 {
                    let q = rng.gen_range(0..k);
                    let shrunk = rng.gen_range(0..st.len_of(q) + 1);
                    st.set_len(q, shrunk);
                    st.assert_runs_match_oracle();
                }
                let f = rng.gen_range(0..200usize);
                let nearest = |s: &Step| (s.range.start.abs_diff(f), s.range.start);
                let Some(step) = st.available_runs().into_iter().min_by_key(nearest) else {
                    break;
                };
                let end = rng.gen_range(step.range.start + 1..step.range.end + 1);
                st.mark(step.packet, step.range.start..end);
            }
        }

        /// `plan_all` from a random mid-plan state (partial decodes, shrunk
        /// lengths) yields the same step sequence and outcome as the same
        /// loop over the per-position runs.
        #[test]
        fn plan_all_matches_position_scan(seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut st = random_state(&mut rng);
            for q in 0..st.lens.len() {
                if rng.gen_bool(0.3) {
                    let shrunk = rng.gen_range(0..st.len_of(q) + 1);
                    st.set_len(q, shrunk);
                }
            }
            let mut oracle = st.clone();
            prop_assert_eq!(st.plan_all(), oracle.plan_all_by_position());
            prop_assert_eq!(st.decoded, oracle.decoded);
        }
    }

    #[test]
    fn near_equal_offsets_decode_in_one_symbol_chunks() {
        // Δ₁ = 19, Δ₂ = 20: each chunk frees exactly one more symbol
        let mut st = pair_state(400, 19, 20);
        let mut oracle = st.clone();
        let (plan, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
        assert!(plan.iter().filter(|s| s.range.len() == 1).count() > 700);
        assert_eq!((plan, outcome), oracle.plan_all_by_position());
    }

    fn pair_state(len: usize, d1: usize, d2: usize) -> PlanState {
        PlanState::new(vec![len, len], pair_layouts(len, len, d1, d2))
    }

    #[test]
    fn canonical_pair_decodes() {
        // Fig 1-2: Δ1=30, Δ2=10, packets of 100 symbols.
        let mut st = pair_state(100, 30, 10);
        let (plan, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
        assert!(!plan.is_empty());
        // the bootstrap chunk: packet 0's symbols [0, 30) are free in
        // collision 0 (before Δ1)
        assert_eq!(plan[0].packet, 0);
        assert_eq!(plan[0].range.start, 0);
    }

    #[test]
    fn equal_offsets_stuck() {
        // Δ1 = Δ2: the two collisions are the same linear equation (§4.5).
        let mut st = pair_state(100, 20, 20);
        let (_, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Stuck);
        assert!(!decodable(&[100, 100], &pair_layouts(100, 100, 20, 20)));
    }

    #[test]
    fn peeling_matches_greedy_on_pairs() {
        for (d1, d2) in [(30, 10), (10, 30), (5, 95), (0, 50), (7, 7), (99, 98)] {
            let mut st = pair_state(100, d1, d2);
            let (_, outcome) = st.plan_all();
            let peel = decodable(&[100, 100], &pair_layouts(100, 100, d1, d2));
            assert_eq!(outcome == PlanOutcome::Complete, peel, "divergence at ({d1},{d2})");
        }
    }

    #[test]
    fn flipped_order_pattern() {
        // Fig 4-1b: packets change order between collisions.
        let collisions = vec![
            CollisionLayout {
                placements: vec![
                    Placement { packet: 0, start: 0 },
                    Placement { packet: 1, start: 40 },
                ],
                len: 200,
            },
            CollisionLayout {
                placements: vec![
                    Placement { packet: 1, start: 0 },
                    Placement { packet: 0, start: 25 },
                ],
                len: 200,
            },
        ];
        let mut st = PlanState::new(vec![100, 100], collisions.clone());
        let (_, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
        assert!(decodable(&[100, 100], &collisions));
    }

    #[test]
    fn different_sizes_pattern() {
        // Fig 4-1c: different packet sizes.
        let collisions = pair_layouts(150, 60, 35, 10);
        let mut st = PlanState::new(vec![150, 60], collisions.clone());
        let (_, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
    }

    #[test]
    fn single_collision_with_free_tail() {
        // Fig 4-1f: one collision + the second packet retransmitted alone.
        let collisions = vec![
            CollisionLayout {
                placements: vec![
                    Placement { packet: 0, start: 0 },
                    Placement { packet: 1, start: 30 },
                ],
                len: 200,
            },
            CollisionLayout { placements: vec![Placement { packet: 1, start: 0 }], len: 140 },
        ];
        let mut st = PlanState::new(vec![100, 100], collisions);
        let (_, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
    }

    #[test]
    fn three_collisions_three_packets() {
        // Fig 4-6a-style: three senders, three collisions, distinct offsets.
        let mk = |s0: usize, s1: usize, s2: usize| CollisionLayout {
            placements: vec![
                Placement { packet: 0, start: s0 },
                Placement { packet: 1, start: s1 },
                Placement { packet: 2, start: s2 },
            ],
            len: 400,
        };
        let collisions = vec![mk(0, 20, 50), mk(0, 45, 15), mk(10, 0, 70)];
        let lens = vec![120usize, 120, 120];
        assert!(decodable(&lens, &collisions));
        let mut st = PlanState::new(lens, collisions);
        let (_, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
    }

    #[test]
    fn three_packets_degenerate_offsets_fail() {
        // All three collisions have identical relative offsets: only one
        // independent equation.
        let mk = || CollisionLayout {
            placements: vec![
                Placement { packet: 0, start: 0 },
                Placement { packet: 1, start: 10 },
                Placement { packet: 2, start: 20 },
            ],
            len: 300,
        };
        let lens = vec![100usize, 100, 100];
        let collisions = vec![mk(), mk(), mk()];
        assert!(!decodable(&lens, &collisions));
    }

    #[test]
    fn plan_steps_respect_interference() {
        // No step may cover a position where another packet is undecoded
        // at plan time. Replay the plan and verify the invariant.
        let mut st = pair_state(80, 25, 5);
        let collisions = pair_layouts(80, 80, 25, 5);
        let (plan, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
        let mut replay = PlanState::new(vec![80, 80], collisions);
        for step in plan {
            let c = &replay.collisions[step.collision].clone();
            let pl = c.placements.iter().find(|p| p.packet == step.packet).unwrap();
            for u in step.range.clone() {
                assert!(
                    replay.position_free(c, pl.start + u, step.packet),
                    "step decodes interfered symbol {u} of packet {}",
                    step.packet
                );
            }
            replay.mark(step.packet, step.range);
        }
        assert!(replay.is_complete());
    }

    #[test]
    fn shrinking_length_mid_plan() {
        let mut st = pair_state(100, 30, 10);
        // decode a bit, then learn packet 1 is only 50 symbols
        let runs = st.available_runs();
        assert!(!runs.is_empty());
        st.mark(0, 0..30);
        st.set_len(1, 50);
        let (_, outcome) = st.plan_all();
        assert_eq!(outcome, PlanOutcome::Complete);
    }

    #[test]
    fn uncovered_symbol_fails_peeling() {
        // packet 1 longer than any collision window
        let collisions =
            vec![CollisionLayout { placements: vec![Placement { packet: 0, start: 0 }], len: 50 }];
        assert!(!decodable(&[100], &collisions));
        assert!(decodable(&[50], &collisions));
    }

    #[test]
    fn decodability_reports_uncovered_phantom_tail() {
        // packet 1's length overhangs every buffer containing it: the
        // first uncovered symbol is exactly where coverage ends.
        let collisions = vec![CollisionLayout {
            placements: vec![Placement { packet: 0, start: 0 }, Placement { packet: 1, start: 30 }],
            len: 100,
        }];
        assert_eq!(
            decodability(&[50, 100], &collisions),
            Decodability::Uncovered { packet: 1, symbol: 70 }
        );
        // a bare-bool caller sees the same verdict
        assert!(!decodable(&[50, 100], &collisions));
    }

    #[test]
    fn decodability_reports_stall_on_duplicate_equations() {
        // Δ₁ = Δ₂: full coverage, but the two collisions are one
        // equation (§4.5) — peeling stalls with the overlap undecoded.
        let collisions = pair_layouts(100, 100, 20, 20);
        match decodability(&[100, 100], &collisions) {
            Decodability::Stalled { undecoded, total } => {
                assert_eq!(total, 200);
                assert!(undecoded > 0 && undecoded <= total, "undecoded {undecoded}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert_eq!(decodability(&[100, 100], &pair_layouts(100, 100, 30, 10)), {
            Decodability::Decodable
        });
    }

    #[test]
    fn shift_signature_is_translation_invariant() {
        let mk = |s0: usize, s1: usize| CollisionLayout {
            placements: vec![
                Placement { packet: 0, start: s0 },
                Placement { packet: 2, start: s1 },
            ],
            len: 500,
        };
        // absolute position doesn't matter, relative offsets do
        assert_eq!(shift_signature(3, &mk(0, 40)), shift_signature(3, &mk(100, 140)));
        assert_eq!(shift_signature(3, &mk(0, 40)), vec![Some(0), None, Some(40)]);
        assert_ne!(shift_signature(3, &mk(0, 40)), shift_signature(3, &mk(0, 41)));
        // order of placements is irrelevant; the earliest start anchors
        let flipped = CollisionLayout {
            placements: vec![
                Placement { packet: 2, start: 10 },
                Placement { packet: 0, start: 50 },
            ],
            len: 500,
        };
        assert_eq!(shift_signature(3, &flipped), vec![Some(40), None, Some(0)]);
        assert_eq!(shift_signature(0, &flipped), Vec::<Option<isize>>::new());
    }

    #[test]
    fn empty_problem_is_complete() {
        assert!(decodable(&[], &[]));
        let mut st = PlanState::new(vec![], vec![]);
        let (plan, outcome) = st.plan_all();
        assert!(plan.is_empty());
        assert_eq!(outcome, PlanOutcome::Complete);
    }
}
