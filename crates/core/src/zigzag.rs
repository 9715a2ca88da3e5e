//! The ZigZag collision decoder (§4.2.3, §4.3, §4.5).
//!
//! Given k receive buffers ("collisions") and the placements of m packets
//! inside them (from detection + matching), the executor:
//!
//! 1. asks the greedy scheduler ([`crate::schedule`]) for the next
//!    interference-free chunk;
//! 2. decodes it with the black-box chunk decoder
//!    ([`ChannelView::decode_chunk_into`]);
//! 3. re-encodes it through the per-collision channel estimate and
//!    **subtracts the image from every collision where the packet
//!    appears** (§4.5 Step 2), applying the §4.2.4 tracking feedback —
//!    the cancellation core the recovery solver shares;
//! 4. repeats until both/all packets are decoded, learning each packet's
//!    true length and body modulation when its PLCP header emerges;
//! 5. optionally runs the **backward pass** (§4.3b): each packet is
//!    re-decoded in reverse from its *other* copy (original buffer minus
//!    the final images of every other packet), and the two soft streams
//!    are MRC-combined — this is why ZigZag's BER beats collision-free
//!    transmission (every symbol is received twice).

use crate::config::{debug_trace, ClientRegistry, DecoderConfig};
use crate::engine::scratch::Scratch;
use crate::schedule::{CollisionLayout, PlanOutcome, PlanState, Step};
use crate::sic::Cancellation;
use crate::view::{ChannelView, Direction, PacketLayout, Tracking};
use zigzag_phy::complex::Complex;
use zigzag_phy::frame::{Frame, PlcpHeader, PLCP_SYMBOLS};
use zigzag_phy::preamble::Preamble;

/// What the receiver knows about one packet before ZigZag starts.
#[derive(Clone, Debug)]
pub struct PacketSpec {
    /// Sender id (keys the association registry for coarse ω and ISI taps).
    pub client: u16,
}

/// One collision buffer plus the packet placements inside it.
#[derive(Clone, Debug)]
pub struct CollisionSpec<'a> {
    /// The received samples.
    pub buffer: &'a [Complex],
    /// `(packet index, start sample)` for every packet present.
    pub placements: Vec<(usize, usize)>,
}

/// Result for one packet.
#[derive(Clone, Debug)]
pub struct PacketResult {
    /// The recovered frame, if its CRC-32 checked out.
    pub frame: Option<Frame>,
    /// Parsed PLCP header, if decodable.
    pub plcp: Option<PlcpHeader>,
    /// Best-effort scrambled MPDU bits (for BER scoring against the
    /// transmitted reference even when the CRC fails).
    pub scrambled_bits: Vec<u8>,
    /// `true` if every symbol was scheduled and decoded.
    pub complete: bool,
}

/// Output of a ZigZag decode.
#[derive(Clone, Debug)]
pub struct ZigzagOutput {
    /// Per-packet results, indexed like the input `PacketSpec`s.
    pub packets: Vec<PacketResult>,
    /// Whether the chunk scheduler completed or got stuck (§4.5 failure).
    pub outcome: PlanOutcome,
}

/// Per-packet working state.
struct PktState {
    layout: PacketLayout,
    /// Hard-decision constellation points by symbol index.
    decided: Vec<Option<Complex>>,
    /// Forward-pass soft symbols.
    soft_fwd: Vec<Option<Complex>>,
    /// Which collision contributed most forward chunks (to pick the other
    /// one for the backward pass).
    fwd_source_count: Vec<usize>,
    plcp: Option<PlcpHeader>,
    client: u16,
}

/// The ZigZag decoder.
pub struct ZigzagDecoder<'r> {
    cfg: DecoderConfig,
    registry: &'r ClientRegistry,
    preamble: Preamble,
}

impl<'r> ZigzagDecoder<'r> {
    /// Creates a decoder bound to an association registry.
    pub fn new(cfg: DecoderConfig, registry: &'r ClientRegistry) -> Self {
        Self { cfg, registry, preamble: Preamble::default_len() }
    }

    /// Creates a decoder with a non-default preamble.
    pub fn with_preamble(cfg: DecoderConfig, registry: &'r ClientRegistry, p: Preamble) -> Self {
        Self { cfg, registry, preamble: p }
    }

    /// Runs ZigZag over the given collisions. All per-chunk temporaries
    /// are drawn from `ws`, so a caller decoding many collisions (the
    /// receiver, a [`BatchEngine`](crate::engine::BatchEngine) work unit)
    /// pays no steady-state allocation in the chunk loop.
    pub fn decode(
        &self,
        collisions: &[CollisionSpec<'_>],
        packets: &[PacketSpec],
        ws: &mut Scratch,
    ) -> ZigzagOutput {
        let n_pkts = packets.len();
        let n_cols = collisions.len();

        let layouts: Vec<CollisionLayout> = collisions
            .iter()
            .map(|c| CollisionLayout::from_pairs(&c.placements, c.buffer.len()))
            .collect();
        // upper-bound packet lengths: to the end of the longest buffer
        let max_lens = crate::schedule::upper_bound_lens(n_pkts, &layouts);

        let mut pass = Pass {
            dec: self,
            collisions,
            plan: PlanState::new(max_lens.clone(), layouts),
            sic: Cancellation::new(collisions.iter().map(|c| c.buffer), n_pkts),
            views: vec![vec![None; n_pkts]; n_cols],
            immersed: vec![vec![false; n_pkts]; n_cols],
            pkts: (0..n_pkts)
                .map(|q| PktState {
                    layout: PacketLayout::unknown(
                        self.preamble.symbols().to_vec(),
                        PLCP_SYMBOLS,
                        max_lens[q],
                    ),
                    decided: vec![None; max_lens[q]],
                    soft_fwd: vec![None; max_lens[q]],
                    fwd_source_count: vec![0; n_cols],
                    plcp: None,
                    client: packets[q].client,
                })
                .collect(),
        };

        // ---------- forward pass ----------
        // One run per iteration, preferring the run closest to its view's
        // decode frontier: the linear phase model is only trustworthy near
        // the last position it was corrected at, so adjacent chunks decode
        // far better than distant overhangs. Overhanging chunks (§4.5
        // Step 1) still get scheduled when they are the only progress
        // available — with the extrapolation penalty physics imposes.
        let mut frontier: Vec<Vec<usize>> = vec![vec![0; n_pkts]; n_cols];
        let outcome = loop {
            if pass.plan.is_complete() {
                break PlanOutcome::Complete;
            }
            let runs = pass.plan.available_runs();
            let best = runs.into_iter().min_by_key(|s| {
                let f = frontier[s.collision][s.packet];
                let dist = s.range.start.abs_diff(f);
                (dist, s.range.start)
            });
            let Some(mut step) = best else {
                break PlanOutcome::Stuck;
            };
            // Until a packet's PLCP is parsed we don't know its body
            // modulation — never decode past the PLCP boundary in one go
            // (the body would be sliced with the wrong constellation and
            // the bad decisions subtracted everywhere).
            {
                let st = &pass.pkts[step.packet];
                let body = st.layout.body_start();
                if st.plcp.is_none() && step.range.start < body && step.range.end > body {
                    step.range.end = body;
                }
            }
            frontier[step.collision][step.packet] = step.range.end;
            pass.step(&step, ws);
            pass.reestimate_exposed(ws);
        };

        // ---------- backward pass + MRC ----------
        let packets = (0..n_pkts).map(|q| pass.finalize(q, outcome, ws)).collect();
        ZigzagOutput { packets, outcome }
    }
}

/// One decode's working state: the plan, the cancellation core, and the
/// per-(collision × packet) views.
struct Pass<'a> {
    dec: &'a ZigzagDecoder<'a>,
    collisions: &'a [CollisionSpec<'a>],
    plan: PlanState,
    sic: Cancellation,
    views: Vec<Vec<Option<ChannelView>>>,
    /// Views estimated while the preamble was immersed in an interferer;
    /// re-estimated (and their images re-rendered) as soon as
    /// subtraction exposes the preamble.
    immersed: Vec<Vec<bool>>,
    pkts: Vec<PktState>,
}

impl Pass<'_> {
    /// Decodes one chunk, stores its symbols, learns the PLCP if it just
    /// completed, and renders the packet's image into every collision
    /// holding it.
    fn step(&mut self, step: &Step, ws: &mut Scratch) {
        let (c, q) = (step.collision, step.packet);

        self.ensure_view(q, c);
        let Some(view) = self.views[c][q].as_mut() else {
            // estimation impossible — mark as decoded to avoid livelock;
            // the packet will simply fail its CRC.
            self.plan.mark(q, step.range.clone());
            return;
        };

        // decode the chunk from this collision's residual
        let st = &mut self.pkts[q];
        let Scratch { pool, chunk, kernel, .. } = ws;
        view.decode_chunk_into(
            self.sic.residual(c),
            step.range.clone(),
            &st.layout,
            Direction::Forward,
            pool,
            kernel,
            chunk,
        );
        for (i, n) in step.range.clone().enumerate() {
            if n < st.decided.len() && st.decided[n].is_none() {
                st.decided[n] = Some(chunk.decided[i]);
                st.soft_fwd[n] = Some(chunk.soft[i]);
            }
        }
        if debug_trace() {
            let evm: f64 =
                chunk.soft.iter().zip(&chunk.decided).map(|(s, d)| (*s - *d).abs()).sum::<f64>()
                    / chunk.soft.len().max(1) as f64;
            eprintln!(
                "step c{c} q{q} {:?}: evm={evm:.3} gain={:.2} omega={:.5} mu={:.3}",
                step.range,
                view.gain,
                view.phase.omega(),
                view.mu
            );
        }
        st.fwd_source_count[c] += step.range.len();
        self.plan.mark(q, step.range.clone());

        // PLCP completion?
        if st.plcp.is_none() {
            let decided = &st.decided;
            if let Some((plcp, fits)) = st.layout.learn_plcp(|n| decided.get(n).copied().flatten())
            {
                st.plcp = Some(plcp);
                if fits {
                    let total = st.layout.total_syms;
                    self.plan.set_len(q, total);
                    st.decided.truncate(total);
                    st.soft_fwd.truncate(total);
                }
            }
        }

        for ci in 0..self.collisions.len() {
            if self.start_of(q, ci).is_none() {
                continue;
            }
            self.ensure_view(q, ci);
            let Some(v) = self.views[ci][q].as_mut() else { continue };
            let decided = &self.pkts[q].decided;
            self.sic.render(ci, q, v, step.range.clone(), decided, Tracking::Chunk, ws);
        }
    }

    /// Where packet `q` starts in collision `c`, if it is there.
    fn start_of(&self, q: usize, c: usize) -> Option<usize> {
        self.collisions[c].placements.iter().find(|(p, _)| *p == q).map(|&(_, s)| s)
    }

    /// `true` if `q`'s preamble region in collision `c` is currently free
    /// of *live* interference (other packets absent or already subtracted).
    fn preamble_clean(&self, q: usize, c: usize) -> bool {
        let Some(start) = self.start_of(q, c) else {
            return false;
        };
        let pre_span = start..start + self.dec.preamble.len();
        self.collisions[c].placements.iter().all(|&(p, s)| {
            if p == q {
                return true;
            }
            let p_len = self.plan.len_of(p);
            let lo = pre_span.start.max(s);
            let hi = pre_span.end.min(s + p_len);
            (lo..hi).all(|pos| self.plan.decoded(p).contains(pos - s))
        })
    }

    /// Estimates packet `q`'s view at `start` of `buffer`: channel from
    /// the (possibly immersed) correlation there, ω and ISI taps from the
    /// association registry.
    fn estimate(
        &self,
        q: usize,
        buffer: &[Complex],
        start: usize,
        clean: bool,
    ) -> Option<ChannelView> {
        let info = self.dec.registry.get(self.pkts[q].client);
        let taps = info.map(|i| i.taps.clone());
        ChannelView::estimate(
            buffer,
            start,
            self.dec.preamble.symbols(),
            info.map(|i| i.omega),
            taps.as_ref(),
            clean,
            &self.dec.cfg,
        )
    }

    /// Creates the (q, c) view from collision `c`'s residual unless it
    /// exists, remembering whether the preamble was clean at estimation
    /// time.
    fn ensure_view(&mut self, q: usize, c: usize) {
        if self.views[c][q].is_some() {
            return;
        }
        let Some(start) = self.start_of(q, c) else { return };
        let clean = self.preamble_clean(q, c);
        if let Some(v) = self.estimate(q, self.sic.residual(c), start, clean) {
            self.views[c][q] = Some(v);
            self.immersed[c][q] = !clean;
        }
    }

    /// Re-estimates any immersed view whose preamble has since been
    /// exposed by subtraction, and re-renders its accumulated image with
    /// the improved parameters. This is the big accuracy win of the
    /// matched-collision structure: the crude "preamble immersed in noise"
    /// estimate (§4.2.4a) only has to carry the first chunk or two.
    fn reestimate_exposed(&mut self, ws: &mut Scratch) {
        for c in 0..self.collisions.len() {
            for q in 0..self.pkts.len() {
                if self.views[c][q].is_none() || !self.immersed[c][q] || !self.preamble_clean(q, c)
                {
                    continue;
                }
                let start = self.start_of(q, c).expect("views exist only where q is placed");
                // estimate on "buffer − other packets" = residual + own acc
                let pre_end = (start + self.dec.preamble.len() + 8).min(self.sic.residual(c).len());
                let mut pre_buf = ws.pool.take();
                pre_buf.extend(self.sic.cleaned(c, q).take(pre_end));
                let estimated = self.estimate(q, &pre_buf, start, true);
                ws.pool.put(pre_buf);
                let Some(mut new_view) = estimated else {
                    continue;
                };
                self.immersed[c][q] = false;
                if debug_trace() {
                    let old = self.views[c][q].as_ref().expect("checked above");
                    eprintln!(
                        "    reest q{q} c{c}: gain {:.2}->{:.2} mu {:.3}->{:.3} phase0 {:.3}->{:.3}",
                        old.gain,
                        new_view.gain,
                        old.mu,
                        new_view.mu,
                        old.phase.at(0.0),
                        new_view.phase.at(0.0)
                    );
                }
                // re-render the accumulated image over all decided ranges
                for r in self.plan.decoded(q).ranges() {
                    let decided = &self.pkts[q].decided;
                    self.sic.render(c, q, &mut new_view, r.clone(), decided, Tracking::Off, ws);
                }
                self.views[c][q] = Some(new_view);
            }
        }
    }

    /// Backward pass for one packet + MRC + CRC check.
    fn finalize(&self, q: usize, outcome: PlanOutcome, ws: &mut Scratch) -> PacketResult {
        let st = &self.pkts[q];
        let total = st.layout.total_syms;
        let complete = self.plan.decoded(q).covers(0..total) && st.plcp.is_some();

        // forward soft stream (normalised)
        let soft_fwd: Vec<Complex> =
            (0..total).map(|n| st.soft_fwd.get(n).copied().flatten().unwrap_or_default()).collect();

        let mut streams: Vec<(Vec<Complex>, f64)> = Vec::new();
        let fwd_gain = self
            .views
            .iter()
            .filter_map(|vc| vc[q].as_ref())
            .map(|v| v.gain)
            .fold(0.0f64, f64::max);
        streams.push((soft_fwd, fwd_gain * fwd_gain));

        // backward pass from the least-used collision copy
        if self.dec.cfg.backward && complete && outcome == PlanOutcome::Complete {
            let bwd_col = (0..self.collisions.len())
                .filter(|&c| self.start_of(q, c).is_some())
                .min_by_key(|&c| st.fwd_source_count[c]);
            if let Some((c, base_view)) =
                bwd_col.and_then(|c| self.views[c][q].as_ref().map(|v| (c, v)))
            {
                // rebuild "this packet + noise": residual with q's own
                // accumulated image added back
                let Scratch { pool, chunk, kernel, .. } = ws;
                let mut buf = pool.take();
                buf.extend(self.sic.cleaned(c, q));
                let mut v = base_view.clone();
                v.decode_chunk_into(
                    &buf,
                    0..total,
                    &st.layout,
                    Direction::Backward,
                    pool,
                    kernel,
                    chunk,
                );
                pool.put(buf);
                streams.push((std::mem::take(&mut chunk.soft), base_view.gain * base_view.gain));
            }
        }

        if debug_trace() {
            for (i, (s, w)) in streams.iter().enumerate() {
                let quarter = (s.len() / 12).max(1);
                let evms: Vec<f64> = s
                    .chunks(quarter)
                    .map(|ch| {
                        ch.iter()
                            .map(|&v| (v - st.layout.payload_mod.decide_point(v)).abs())
                            .sum::<f64>()
                            / ch.len().max(1) as f64
                    })
                    .collect();
                eprintln!("  finalize q{q} stream{i}: w={w:.1} t-evms={evms:.2?}");
            }
        }

        // Quality gate before MRC: a diverged pass (e.g. a BPSK π-slip in
        // a marginal backward decode) is *confidently wrong* — its
        // decision-EVM looks fine while half its bits are flipped, and
        // MRC with such a copy wrecks the good one. Gate the backward
        // stream on its decision agreement with the forward pass: a slip
        // flips a long run and shows up as gross disagreement, while
        // honest noise disagrees on scattered bits only.
        if streams.len() > 1 {
            let body = st.layout.body_start();
            let fwd = &streams[0].0;
            let bwd = &streams[1].0;
            let mut disagree = 0usize;
            let mut n = 0usize;
            for k in body..fwd.len().min(bwd.len()) {
                let m = st.layout.modulation_at(k);
                // distinct decided bits ⇔ distinct decided points
                if m.decide_point(fwd[k]) != m.decide_point(bwd[k]) {
                    disagree += 1;
                }
                n += 1;
            }
            if n > 0 && disagree as f64 / n as f64 > 0.1 {
                streams.truncate(1);
            }
        }

        // MRC and final decision
        let refs: Vec<(&[Complex], f64)> =
            streams.iter().map(|(s, w)| (s.as_slice(), *w)).collect();
        let mut combined = ws.pool.take();
        ws.kernel.combine_weighted_into(&refs, &mut combined);
        let mut scrambled_bits = st.layout.body_bits(combined.iter().copied());
        ws.pool.put(combined);

        // try CRC on combined, then per-stream fallbacks
        let frame = st.plcp.and_then(|plcp| {
            plcp.frame_from_bits(&scrambled_bits).or_else(|| {
                streams.iter().find_map(|(s, _)| {
                    let bits = st.layout.body_bits(s.iter().copied());
                    let frame = plcp.frame_from_bits(&bits)?;
                    scrambled_bits = bits;
                    Some(frame)
                })
            })
        });
        PacketResult { frame, plcp: st.plcp, scrambled_bits, complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::scenario::hidden_pair;
    use zigzag_core_test_util::*;
    use zigzag_phy::bits::bit_error_rate;
    use zigzag_phy::frame::encode_frame;
    use zigzag_phy::modulation::Modulation;

    /// Shared helpers for zigzag executor tests.
    mod zigzag_core_test_util {
        use super::*;
        use crate::config::ClientInfo;

        pub fn airframe(
            src: u16,
            seq: u16,
            payload: usize,
            m: Modulation,
        ) -> zigzag_phy::frame::AirFrame {
            let f = Frame::with_random_payload(0, src, seq, payload, 1000 + src as u64);
            encode_frame(&f, m, &Preamble::default_len())
        }

        /// Registers clients with association-grade knowledge: the nominal
        /// oscillator offset and the true static ISI taps (what the AP
        /// would learn from a clean packet).
        pub fn registry_for(links: &[(u16, &LinkProfile)]) -> ClientRegistry {
            let mut r = ClientRegistry::new();
            for (id, l) in links {
                r.associate(
                    *id,
                    ClientInfo {
                        omega: l.association_omega(),
                        snr_db: l.snr_db,
                        taps: l.isi.clone(),
                    },
                );
            }
            r
        }
    }

    /// Full two-packet hidden-terminal decode; returns BERs of both
    /// packets.
    fn run_pair(
        snr_db: f64,
        payload: usize,
        d1: usize,
        d2: usize,
        cfg: DecoderConfig,
        seed: u64,
        typical_links: bool,
    ) -> (f64, f64, PlanOutcome) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (la, lb) = if typical_links {
            (LinkProfile::typical(snr_db, &mut rng), LinkProfile::typical(snr_db, &mut rng))
        } else {
            (LinkProfile::clean(snr_db), LinkProfile::clean(snr_db))
        };
        let a = airframe(1, 10, payload, Modulation::Bpsk);
        let b = airframe(2, 20, payload, Modulation::Bpsk);
        let hp = hidden_pair(&a, &b, &la, &lb, d1, d2, &mut rng);
        let reg = registry_for(&[(1, &la), (2, &lb)]);
        let dec = ZigzagDecoder::new(cfg, &reg);
        let out = dec.decode(
            &[
                CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, d1)] },
                CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, d2)] },
            ],
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
            &mut Scratch::default(),
        );
        let ber_a = bit_error_rate(&a.mpdu_bits, &out.packets[0].scrambled_bits);
        let ber_b = bit_error_rate(&b.mpdu_bits, &out.packets[1].scrambled_bits);
        (ber_a, ber_b, out.outcome)
    }

    #[test]
    fn decodes_canonical_pair_clean_links() {
        let (ba, bb, outcome) = run_pair(12.0, 300, 300, 100, DecoderConfig::default(), 42, false);
        assert_eq!(outcome, PlanOutcome::Complete);
        assert!(ba < 1e-3, "BER A {ba}");
        assert!(bb < 1e-3, "BER B {bb}");
    }

    #[test]
    fn decodes_canonical_pair_typical_links() {
        let (ba, bb, outcome) = run_pair(12.0, 300, 300, 100, DecoderConfig::default(), 45, true);
        assert_eq!(outcome, PlanOutcome::Complete);
        assert!(ba < 1e-3, "BER A {ba}");
        assert!(bb < 1e-3, "BER B {bb}");
    }

    #[test]
    fn recovers_full_frames_with_crc() {
        let mut rng = StdRng::seed_from_u64(7);
        let la = LinkProfile::typical(13.0, &mut rng);
        let lb = LinkProfile::typical(11.0, &mut rng);
        let a = airframe(1, 1, 256, Modulation::Bpsk);
        let b = airframe(2, 2, 256, Modulation::Bpsk);
        let hp = hidden_pair(&a, &b, &la, &lb, 250, 90, &mut rng);
        let reg = registry_for(&[(1, &la), (2, &lb)]);
        let dec = ZigzagDecoder::new(DecoderConfig::default(), &reg);
        let out = dec.decode(
            &[
                CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, 250)] },
                CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, 90)] },
            ],
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
            &mut Scratch::default(),
        );
        let fa = out.packets[0].frame.as_ref().expect("frame A");
        let fb = out.packets[1].frame.as_ref().expect("frame B");
        assert_eq!(fa, &a.frame);
        assert_eq!(fb, &b.frame);
    }

    #[test]
    fn equal_offsets_reported_stuck() {
        let (_, _, outcome) = run_pair(12.0, 200, 150, 150, DecoderConfig::default(), 9, false);
        assert_eq!(outcome, PlanOutcome::Stuck);
    }

    #[test]
    fn small_offset_difference_still_decodes() {
        // δ = Δ1 − Δ2 of a single backoff slot (10 symbols) — smaller than
        // the preamble; the immersed estimator must cope.
        let (ba, bb, outcome) = run_pair(14.0, 200, 110, 100, DecoderConfig::default(), 11, false);
        assert_eq!(outcome, PlanOutcome::Complete);
        assert!(ba < 1e-2, "BER A {ba}");
        assert!(bb < 1e-2, "BER B {bb}");
    }

    #[test]
    fn mixed_modulations_in_one_collision() {
        // §4.2.3a: "the two colliding packets may use different
        // modulation … without requiring any special treatment".
        let mut rng = StdRng::seed_from_u64(5);
        let la = LinkProfile::clean(16.0);
        let lb = LinkProfile::clean(18.0);
        let a = airframe(1, 1, 200, Modulation::Bpsk);
        let b = airframe(2, 2, 200, Modulation::Qpsk);
        let hp = hidden_pair(&a, &b, &la, &lb, 280, 80, &mut rng);
        let reg = registry_for(&[(1, &la), (2, &lb)]);
        let dec = ZigzagDecoder::new(DecoderConfig::default(), &reg);
        let out = dec.decode(
            &[
                CollisionSpec { buffer: &hp.collision1.buffer, placements: vec![(0, 0), (1, 280)] },
                CollisionSpec { buffer: &hp.collision2.buffer, placements: vec![(0, 0), (1, 80)] },
            ],
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }],
            &mut Scratch::default(),
        );
        assert!(out.packets[0].frame.is_some(), "BPSK packet failed");
        assert!(out.packets[1].frame.is_some(), "QPSK packet failed");
        assert_eq!(out.packets[1].plcp.unwrap().modulation, Modulation::Qpsk);
    }

    #[test]
    fn without_tracking_long_packets_fail() {
        // Table 5.1: with tracking 1500 B packets decode; without, the
        // residual frequency error wrecks them.
        let (ba_on, bb_on, _) = run_pair(12.0, 1500, 400, 120, DecoderConfig::default(), 21, true);
        let (ba_off, bb_off, _) =
            run_pair(12.0, 1500, 400, 120, DecoderConfig::without_tracking(), 21, true);
        assert!(ba_on < 1e-3 && bb_on < 1e-3, "with tracking: {ba_on} {bb_on}");
        assert!(
            ba_off > 1e-3 || bb_off > 1e-3,
            "without tracking should fail on 1500B: {ba_off} {bb_off}"
        );
    }

    #[test]
    fn forward_backward_beats_forward_only() {
        // §4.3b: fwd+bwd MRC should (statistically) lower BER. Aggregate
        // over several runs at a marginal SNR.
        let mut sum_fb = 0.0;
        let mut sum_f = 0.0;
        for seed in 0..6 {
            let (ba, bb, _) =
                run_pair(7.5, 200, 260, 80, DecoderConfig::default(), 100 + seed, false);
            sum_fb += ba + bb;
            let (ba, bb, _) =
                run_pair(7.5, 200, 260, 80, DecoderConfig::forward_only(), 100 + seed, false);
            sum_f += ba + bb;
        }
        assert!(sum_fb < sum_f, "fwd+bwd BER {sum_fb:.5} should beat fwd-only {sum_f:.5}");
    }

    #[test]
    fn three_packets_three_collisions() {
        // §4.5 / Fig 4-6: three senders resolved from three collisions.
        let mut rng = StdRng::seed_from_u64(31);
        let links: Vec<LinkProfile> = (0..3).map(|_| LinkProfile::clean(14.0)).collect();
        let airs: Vec<zigzag_phy::frame::AirFrame> =
            (0..3).map(|i| airframe(i as u16 + 1, i as u16, 150, Modulation::Bpsk)).collect();
        let chans: Vec<_> = links.iter().map(|l| l.draw(&mut rng)).collect();
        // offsets per collision: distinct combination structure
        let offs = [[0usize, 200, 420], [0, 380, 150], [60, 0, 300]];
        let mut buffers = Vec::new();
        for o in &offs {
            let placed: Vec<zigzag_channel::scenario::PlacedTx<'_>> = (0..3)
                .map(|i| zigzag_channel::scenario::PlacedTx {
                    air: &airs[i],
                    base: &chans[i],
                    start: o[i],
                })
                .collect();
            let sc = zigzag_channel::scenario::synth_collision(&placed, 1.0, &mut rng);
            buffers.push(sc.buffer);
        }
        let reg = registry_for(&[(1, &links[0]), (2, &links[1]), (3, &links[2])]);
        let dec = ZigzagDecoder::new(DecoderConfig::default(), &reg);
        let specs: Vec<CollisionSpec<'_>> = buffers
            .iter()
            .zip(offs.iter())
            .map(|(b, o)| CollisionSpec {
                buffer: b,
                placements: vec![(0, o[0]), (1, o[1]), (2, o[2])],
            })
            .collect();
        let out = dec.decode(
            &specs,
            &[PacketSpec { client: 1 }, PacketSpec { client: 2 }, PacketSpec { client: 3 }],
            &mut Scratch::default(),
        );
        assert_eq!(out.outcome, PlanOutcome::Complete);
        for (i, p) in out.packets.iter().enumerate() {
            let ber = bit_error_rate(&airs[i].mpdu_bits, &p.scrambled_bits);
            assert!(ber < 1e-2, "packet {i} BER {ber}");
        }
    }
}
