//! The trait-based decode pipeline.
//!
//! The §5.1d receiver flow — detect → standard decode → capture/IC →
//! match → plan → zigzag → store — runs as a sequence of
//! [`DecodeStage`]s. Each stage is an inspectable, reorderable unit that
//! reads/writes the per-buffer [`UnitCtx`], mutates the shared
//! [`ReceiverCore`] state, and appends [`ReceiverEvent`]s. A
//! [`Pipeline`] runs stages in order until one reports [`Flow::Done`].
//!
//! [`Pipeline::standard`] is the §5.1d order and the only receive path;
//! custom pipelines can drop, reorder, or wrap stages — e.g. skipping
//! capture for equal-power-only deployments, or inserting
//! instrumentation stages.

use crate::capture::{
    capture_attempt, mrc_combine_retry, subtract_decoded, CaptureAttempt, Captured,
};
use crate::config::{ClientInfo, ClientRegistry, DecoderConfig, MatchSearch, SharedRegistry};
use crate::detect::{detect_packets, Detection};
use crate::engine::scratch::Scratch;
use crate::matchset::{
    classify_match, collision_key, find_match_set, CollisionStore, MatchOutcome, MatchSet,
    RejectedSet,
};
use crate::receiver::{DecodePath, ReceiverEvent};
use crate::recovery::{group_from_pool, group_from_rejected, solve_group, SalvagePool};
use crate::standard::{decode_frame, decode_single, SingleDecode};
use crate::zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder};
use std::collections::HashSet;
use std::sync::OnceLock;
use zigzag_phy::complex::Complex;
use zigzag_phy::preamble::Preamble;

/// The ZigZag AP receiver: the long-lived state every stage shares —
/// configuration, a read-mostly handle to the association registry
/// (shard-shareable, see [`SharedRegistry`]), the shard-*owned* indexed
/// unmatched-collision store, the salvage pool of evicted collisions
/// (recovery feed), the faulty-weak-version store for cross-collision
/// MRC, the delivery dedup set, and the hot-path [`Scratch`].
///
/// # Example
///
/// Drive one receive buffer through the standard pipeline:
///
/// ```
/// use zigzag_core::config::{ClientRegistry, DecoderConfig};
/// use zigzag_core::engine::ReceiverCore;
/// use zigzag_phy::complex::Complex;
///
/// let mut core = ReceiverCore::new(DecoderConfig::default(), ClientRegistry::new());
/// // no clients associated, so a noise buffer fails cleanly
/// let events = core.process(&vec![Complex::real(0.01); 256]);
/// assert_eq!(events, vec![zigzag_core::ReceiverEvent::DecodeFailed]);
/// ```
pub struct ReceiverCore {
    pub(crate) cfg: DecoderConfig,
    pub(crate) registry: SharedRegistry,
    pub(crate) preamble: Preamble,
    pub(crate) store: CollisionStore,
    pub(crate) salvage: SalvagePool,
    pub(crate) weak_versions: Vec<(u16, SingleDecode)>,
    pub(crate) delivered: HashSet<(u16, u16)>,
    pub(crate) scratch: Scratch,
}

impl ReceiverCore {
    /// Fresh state with the given configuration and registry.
    pub fn new(cfg: DecoderConfig, registry: ClientRegistry) -> Self {
        Self::with_registry(cfg, SharedRegistry::new(registry))
    }

    /// Fresh state over an existing shared registry handle — what the
    /// sharded receiver uses so all shards read one association table.
    pub fn with_registry(cfg: DecoderConfig, registry: SharedRegistry) -> Self {
        let scratch = Scratch::with_backend(cfg.backend);
        let mut store = CollisionStore::with_key_window(cfg.collision_store, cfg.key_window);
        // With recovery on, store evictions are retained and absorbed
        // into the salvage pool (see `StoreStage`) instead of
        // dropped — the eviction path becomes signal.
        let pool_cap = if cfg.recovery.enabled { cfg.recovery.pool } else { 0 };
        store.set_evicted_capacity(pool_cap);
        Self {
            cfg,
            registry,
            preamble: Preamble::default_len(),
            store,
            salvage: SalvagePool::new(pool_cap),
            weak_versions: Vec::new(),
            delivered: HashSet::new(),
            scratch,
        }
    }

    /// Associates a client (what the 802.11 association handshake would
    /// establish, §4.2.1).
    pub fn associate(&mut self, id: u16, info: ClientInfo) {
        self.registry.associate(id, info);
    }

    /// Read access to the decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.cfg
    }

    /// Processes one receive buffer through the standard §5.1d pipeline
    /// ([`Pipeline::standard`]) and returns what happened.
    pub fn process(&mut self, buffer: &[Complex]) -> Vec<ReceiverEvent> {
        self.receive(standard_pipeline(), buffer)
    }

    /// Runs one receive buffer through a custom `pipeline` against this
    /// state; [`Self::process`] is this with the standard pipeline.
    pub fn receive(&mut self, pipeline: &Pipeline, buffer: &[Complex]) -> Vec<ReceiverEvent> {
        pipeline.run(self, buffer)
    }

    /// [`Self::receive`] with the detections already computed (the
    /// sharded receiver's router runs the detect pre-pass to pick a
    /// shard; re-scanning in [`DetectStage`] would double the detection
    /// cost). `detect_packets` is deterministic, so the events are
    /// identical to an in-pipeline scan.
    pub fn receive_detected(
        &mut self,
        pipeline: &Pipeline,
        buffer: &[Complex],
        detections: Vec<Detection>,
    ) -> Vec<ReceiverEvent> {
        let mut unit = UnitCtx::with_detections(buffer, detections);
        pipeline.run_unit(self, &mut unit)
    }

    /// Read access to the unmatched-collision store.
    pub fn store(&self) -> &CollisionStore {
        &self.store
    }

    /// Read access to the salvage pool (evicted collisions awaiting a
    /// joint algebraic solve; empty unless `DecoderConfig::recovery` is
    /// enabled).
    pub fn salvage(&self) -> &SalvagePool {
        &self.salvage
    }

    /// Forgets delivery history, stored collisions, salvaged collisions,
    /// and weak versions (between experiment runs).
    pub fn reset_history(&mut self) {
        self.delivered.clear();
        self.store.clear();
        self.salvage.clear();
        self.weak_versions.clear();
    }

    /// Emits a `Delivered` event unless this `(src, seq)` was already
    /// delivered (retransmission dedup).
    pub(crate) fn deliver(
        &mut self,
        frame: zigzag_phy::frame::Frame,
        path: DecodePath,
        out: &mut Vec<ReceiverEvent>,
    ) {
        if self.delivered.insert((frame.src, frame.seq)) {
            out.push(ReceiverEvent::Delivered { frame, path });
        }
        if self.delivered.len() > 4096 {
            self.delivered.clear(); // bounded memory; seq spaces recycle
        }
    }
}

/// A matched set of collisions ready for ZigZag. The matched store
/// entries stay **in the receiver's store** until a consuming stage (the
/// [`ZigzagStage`]) removes them — so dropping or reordering stages can
/// never destroy collision data.
#[derive(Clone, Debug)]
pub struct MatchedCollision {
    /// The k-way alignment of the current collision with the matched
    /// store entries.
    pub set: MatchSet,
    /// Each member's detections at match time, in `set.members` order;
    /// consumers re-validate these against the store entries before using
    /// the ids (a custom stage may have mutated the store in between).
    pub member_detections: Vec<Vec<Detection>>,
}

/// The chunk-scheduling inputs planned for the ZigZag executor.
#[derive(Clone, Debug)]
pub struct DecodePlan {
    /// `(packet index, start sample)` per collision: entry 0 is the
    /// current buffer, entries `1..` the matched store members in
    /// [`MatchSet::members`] order.
    pub placements: Vec<Vec<(usize, usize)>>,
    /// Per-packet specs (client ids).
    pub packets: Vec<PacketSpec>,
}

impl DecodePlan {
    /// The executor layout of a match set (§4.5): one placement list per
    /// collision, one packet spec per matched client.
    pub fn from_set(set: &MatchSet) -> Self {
        Self {
            placements: (0..set.collisions()).map(|j| set.placements(j)).collect(),
            packets: set.clients().into_iter().map(|client| PacketSpec { client }).collect(),
        }
    }
}

/// Per-buffer working context flowing through the pipeline.
pub struct UnitCtx<'a> {
    /// The receive buffer being processed.
    pub buffer: &'a [Complex],
    /// Detections (filled by [`DetectStage`], or pre-filled by a routing
    /// front end — see [`UnitCtx::with_detections`]).
    pub detections: Vec<Detection>,
    /// `true` once `detections` holds a completed scan's result;
    /// [`DetectStage`] skips its own scan then.
    pub detections_ready: bool,
    /// The unit's [`capture_attempt`], prepared ahead of the pipeline
    /// (`process_stream`'s segmenting thread fills it while the region's
    /// shard worker is behind). [`CaptureStage`] takes it only if it was
    /// computed from the then-current `detections`, and computes the
    /// attempt itself otherwise.
    pub capture: Option<CaptureAttempt>,
    /// Matched stored collision (filled by [`MatchStage`]).
    pub matched: Option<MatchedCollision>,
    /// A confirmed alignment whose system the chunk scheduler cannot
    /// decode (filled by [`MatchStage`], consumed by [`RecoverStage`]).
    pub rejected: Option<RejectedSet>,
    /// ZigZag inputs (filled by [`PlanStage`]).
    pub plan: Option<DecodePlan>,
}

impl<'a> UnitCtx<'a> {
    /// A fresh context over a receive buffer.
    pub fn new(buffer: &'a [Complex]) -> Self {
        Self {
            buffer,
            detections: Vec::new(),
            detections_ready: false,
            capture: None,
            matched: None,
            rejected: None,
            plan: None,
        }
    }

    /// A context whose detections were already computed (e.g. by the
    /// sharded receiver's detect-only routing pre-pass).
    pub fn with_detections(buffer: &'a [Complex], detections: Vec<Detection>) -> Self {
        Self {
            buffer,
            detections,
            detections_ready: true,
            capture: None,
            matched: None,
            rejected: None,
            plan: None,
        }
    }
}

/// Whether the pipeline keeps running after a stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Hand the unit to the next stage.
    Continue,
    /// The buffer is fully handled; stop the pipeline.
    Done,
}

/// One step of the receive pipeline.
pub trait DecodeStage: Send + Sync {
    /// Stable display name (for inspection/telemetry).
    fn name(&self) -> &'static str;
    /// Processes the unit, possibly emitting events.
    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow;
}

/// The standard pipeline [`ReceiverCore::process`] runs, built once per
/// process: stages hold no state, so every core on every thread shares it.
pub(crate) fn standard_pipeline() -> &'static Pipeline {
    static STANDARD: OnceLock<Pipeline> = OnceLock::new();
    STANDARD.get_or_init(Pipeline::standard)
}

/// An ordered set of stages.
pub struct Pipeline {
    stages: Vec<Box<dyn DecodeStage>>,
}

impl Pipeline {
    /// The §5.1d flow: Detect → StandardDecode → Capture → Match → Plan →
    /// Zigzag → Recover → Store. The recover stage is a no-op unless
    /// `DecoderConfig::recovery` is enabled.
    pub fn standard() -> Self {
        Self {
            stages: vec![
                Box::new(DetectStage),
                Box::new(StandardDecodeStage),
                Box::new(CaptureStage),
                Box::new(MatchStage),
                Box::new(PlanStage),
                Box::new(ZigzagStage),
                Box::new(RecoverStage),
                Box::new(StoreStage),
            ],
        }
    }

    /// A pipeline from explicit stages.
    pub fn from_stages(stages: Vec<Box<dyn DecodeStage>>) -> Self {
        Self { stages }
    }

    /// Appends a stage.
    pub fn push(&mut self, stage: Box<dyn DecodeStage>) {
        self.stages.push(stage);
    }

    /// Inserts a stage at `index`.
    pub fn insert(&mut self, index: usize, stage: Box<dyn DecodeStage>) {
        self.stages.insert(index, stage);
    }

    /// The stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs one receive buffer through the pipeline.
    pub fn run(&self, rx: &mut ReceiverCore, buffer: &[Complex]) -> Vec<ReceiverEvent> {
        let mut unit = UnitCtx::new(buffer);
        self.run_unit(rx, &mut unit)
    }

    /// Runs a (possibly pre-seeded) unit context through the pipeline —
    /// the seam every receive entry point passes through.
    ///
    /// A buffer holding any non-finite sample (NaN or ±∞, e.g. from a
    /// broken front end) is rejected here with a single `DecodeFailed`,
    /// before any stage runs: non-finite correlations would otherwise
    /// pass the detection threshold and be stored as a collision,
    /// evicting genuine ones. The store and salvage pool are untouched.
    pub fn run_unit(&self, rx: &mut ReceiverCore, unit: &mut UnitCtx<'_>) -> Vec<ReceiverEvent> {
        if !all_finite(unit.buffer) {
            return vec![ReceiverEvent::DecodeFailed];
        }
        let mut events = Vec::new();
        for stage in &self.stages {
            if stage.run(rx, unit, &mut events) == Flow::Done {
                break;
            }
        }
        events
    }
}

/// Whether every sample of `buffer` is finite: [`Pipeline::run_unit`]
/// rejects a buffer that is not before any stage runs.
pub(crate) fn all_finite(buffer: &[Complex]) -> bool {
    buffer.iter().all(|s| s.is_finite())
}

/// §4.1's "collision followed by a clean retransmission" path, shared by
/// [`StandardDecodeStage`] (gated on `DecoderConfig::solo_reap`): the
/// solo decode `solo` of `client` just CRC'd, so its *clean* symbols are
/// known. For every stored collision containing `client`, estimate the
/// client's channel inside the stored buffer, render the known symbols
/// through it, subtract (the ANC primitive — one collision suffices once
/// one packet's content is known, §2.1), and try to decode each buried
/// partner from the residual. A store entry is consumed only when at
/// least one partner actually decodes; otherwise it stays for a future
/// ZigZag match.
pub(crate) fn reap_stored(
    rx: &mut ReceiverCore,
    client: u16,
    solo: &SingleDecode,
    events: &mut Vec<ReceiverEvent>,
) {
    let ids: Vec<u64> = rx.store.iter().filter(|e| e.key.contains(&client)).map(|e| e.id).collect();
    for id in ids {
        let recovered = {
            let ReceiverCore { cfg, registry, preamble, scratch, store, .. } = &mut *rx;
            let Some(entry) = store.get(id) else { continue };
            // best detection of the known client anchors its channel
            // estimate inside the stored collision
            let Some(anchor) = entry
                .detections
                .iter()
                .filter(|d| d.client == client)
                .max_by(|a, b| a.corr.abs().total_cmp(&b.corr.abs()))
            else {
                continue;
            };
            let Some(mut known) = decode_single(
                &entry.buffer,
                anchor.pos,
                Some(client),
                registry,
                preamble,
                false,
                cfg,
                scratch,
            ) else {
                continue;
            };
            // swap in the retransmission's clean hard decisions: the
            // stored attempt carries the same MPDU, so these are the true
            // symbols under the stored collision's channel
            if known.decided.len() != solo.decided.len() {
                continue;
            }
            known.decided = solo.decided.clone();
            let residual = subtract_decoded(&entry.buffer, &known, preamble, scratch);
            // decode each partner (best detection per distinct client)
            let mut partners: Vec<Detection> = Vec::new();
            for d in entry.detections.iter().filter(|d| d.client != client) {
                match partners.iter_mut().find(|p| p.client == d.client) {
                    Some(p) => {
                        if d.corr.abs() > p.corr.abs() {
                            *p = *d;
                        }
                    }
                    None => partners.push(*d),
                }
            }
            let mut recovered = Vec::new();
            for p in partners {
                if let Some(w) = decode_frame(
                    &residual,
                    p.pos,
                    Some(p.client),
                    registry,
                    preamble,
                    true,
                    cfg,
                    scratch,
                ) {
                    recovered.extend(w.frame);
                }
            }
            recovered
        };
        if !recovered.is_empty() {
            rx.store.remove(id);
            for f in recovered {
                rx.deliver(f, DecodePath::InterferenceCancellation, events);
            }
        }
    }
}

/// §4.2.1: scan the buffer for packet starts from every associated client.
pub struct DetectStage;

impl DecodeStage for DetectStage {
    fn name(&self) -> &'static str {
        "detect"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if !unit.detections_ready {
            let ReceiverCore { cfg, registry, preamble, scratch, .. } = rx;
            unit.detections = detect_packets(unit.buffer, preamble, registry, cfg, scratch);
            unit.detections_ready = true;
        }
        if unit.detections.is_empty() {
            events.push(ReceiverEvent::DecodeFailed);
            return Flow::Done;
        }
        Flow::Continue
    }
}

/// The ordinary single-packet decode — the whole story when there is no
/// collision. With `DecoderConfig::solo_reap` on, a successful solo
/// decode additionally reaps the collision store (§4.1): the clean
/// packet is subtracted from every stored collision containing its
/// client and the buried partners are decoded from the residuals.
pub struct StandardDecodeStage;

impl DecodeStage for StandardDecodeStage {
    fn name(&self) -> &'static str {
        "standard-decode"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if unit.detections.len() != 1 {
            return Flow::Continue;
        }
        let det = unit.detections[0];
        let decode = {
            let ReceiverCore { cfg, registry, preamble, scratch, .. } = &mut *rx;
            decode_frame(
                unit.buffer,
                det.pos,
                Some(det.client),
                registry,
                preamble,
                true,
                cfg,
                scratch,
            )
        };
        match decode {
            Some(d) => {
                let frame = d.frame.clone().expect("decode_frame returns CRC-passing decodes");
                rx.deliver(frame, DecodePath::Standard, events);
                if rx.cfg.solo_reap {
                    reap_stored(rx, det.client, &d, events);
                }
            }
            None => events.push(ReceiverEvent::DecodeFailed),
        }
        Flow::Done
    }
}

/// Capture-effect decode + single-collision interference cancellation +
/// the Fig 4-1d cross-collision MRC retry.
///
/// The decodes are [`capture_attempt`]'s, a pure function of the buffer
/// and its detections. The stage takes the unit's prepared attempt
/// ([`UnitCtx::capture`], filled by `process_stream`'s segmenting thread
/// while the shard worker is behind) when it was computed from the
/// unit's current detections, and
/// otherwise computes the attempt inline. Either way it then runs the
/// stateful tail: delivery dedup, and for a weak decode whose CRC failed,
/// the MRC retry against the stored faulty versions of that client.
pub struct CaptureStage;

impl DecodeStage for CaptureStage {
    fn name(&self) -> &'static str {
        "capture"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if unit.detections.len() < 2 {
            return Flow::Continue;
        }
        let attempt = match unit.capture.take() {
            Some(prepared) if prepared.detections == unit.detections => prepared,
            _ => {
                let ReceiverCore { cfg, registry, preamble, scratch, .. } = &mut *rx;
                capture_attempt(unit.buffer, &unit.detections, registry, preamble, cfg, scratch)
            }
        };
        let Some(Captured { frame, weak }) = attempt.captured else {
            return Flow::Continue;
        };
        let n_before = events.len();
        rx.deliver(frame, DecodePath::Capture, events);
        match weak {
            Some((_, SingleDecode { frame: Some(f), .. })) => {
                rx.deliver(f, DecodePath::InterferenceCancellation, events);
            }
            Some((client, w)) => {
                // Fig 4-1d: try MRC with a stored faulty version
                let matched = rx
                    .weak_versions
                    .iter()
                    .enumerate()
                    .filter(|(_, (c, _))| *c == client)
                    .find_map(|(i, (_, prev))| mrc_combine_retry(prev, &w).map(|f| (i, f)));
                if let Some((i, f)) = matched {
                    rx.weak_versions.remove(i);
                    rx.deliver(f, DecodePath::MrcRetry, events);
                } else {
                    rx.weak_versions.push((client, w));
                    if rx.weak_versions.len() > rx.cfg.collision_store {
                        rx.weak_versions.remove(0);
                    }
                }
            }
            None => {}
        }
        if events.len() > n_before {
            Flow::Done
        } else {
            Flow::Continue
        }
    }
}

/// §4.2.2/§4.5: match the collision against the unmatched-collision
/// store — pairwise for two distinct clients, k-way match sets for
/// three or more (see [`crate::matchset::find_match_set`]).
pub struct MatchStage;

impl DecodeStage for MatchStage {
    fn name(&self) -> &'static str {
        "match"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        _events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if unit.detections.len() < 2 {
            return Flow::Continue;
        }
        // Full classification (confirming and explaining undecodable
        // alignments) only pays off with a recovery consumer downstream;
        // otherwise take the historical fast path, which skips that
        // signal work entirely.
        let ReceiverCore { cfg, registry, preamble, store, scratch, .. } = rx;
        let search = MatchSearch::Staged;
        let outcome = if cfg.recovery.enabled {
            classify_match(
                search,
                scratch,
                unit.buffer,
                &unit.detections,
                store,
                registry,
                preamble,
            )
        } else {
            match find_match_set(
                search,
                scratch,
                unit.buffer,
                &unit.detections,
                store,
                registry,
                preamble,
            ) {
                Some(set) => MatchOutcome::Matched(set),
                None => MatchOutcome::NoMatch,
            }
        };
        match outcome {
            MatchOutcome::Matched(set) => {
                // non-destructive: the store entries stay until the
                // consuming stage (ZigzagStage) removes them
                let member_detections = set
                    .members
                    .iter()
                    .map(|&id| rx.store.get(id).expect("matched id").detections.clone())
                    .collect();
                unit.matched = Some(MatchedCollision { set, member_detections });
            }
            MatchOutcome::Undecodable(rejected) => unit.rejected = Some(rejected),
            MatchOutcome::NoMatch => {}
        }
        Flow::Continue
    }
}

/// §4.5: turn a matched collision set into the executor's layout.
pub struct PlanStage;

impl DecodeStage for PlanStage {
    fn name(&self) -> &'static str {
        "plan"
    }

    fn run(
        &self,
        _rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        _events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if let Some(m) = &unit.matched {
            unit.plan = Some(DecodePlan::from_set(&m.set));
        }
        Flow::Continue
    }
}

/// §4.2.3: chunk-by-chunk decode of the matched collision set. Assembles
/// the [`CollisionSpec`]s (current buffer first, then the matched store
/// members), runs the §4.2.3/§4.5 executor, **consumes** the matched
/// store entries, and delivers recovered frames.
pub struct ZigzagStage;

impl DecodeStage for ZigzagStage {
    fn name(&self) -> &'static str {
        "zigzag"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if unit.matched.is_none() || unit.plan.is_none() {
            return Flow::Continue;
        }
        {
            // re-validate every member against the store: a custom stage
            // may have mutated it since MatchStage ran
            let m = unit.matched.as_ref().unwrap();
            for (&id, snap) in m.set.members.iter().zip(m.member_detections.iter()) {
                match rx.store.get(id) {
                    Some(entry) if entry.detections == *snap => {}
                    _ => return Flow::Continue,
                }
            }
        }
        let members = unit.matched.take().unwrap().set.members;
        let plan = unit.plan.as_ref().unwrap();
        let result = {
            let ReceiverCore { cfg, registry, preamble, scratch, store, .. } = &mut *rx;
            let mut specs = Vec::with_capacity(plan.placements.len());
            specs.push(CollisionSpec {
                buffer: unit.buffer,
                placements: plan.placements[0].clone(),
            });
            for (j, &id) in members.iter().enumerate() {
                let entry = store.get(id).expect("matched store entry re-validated above");
                specs.push(CollisionSpec {
                    buffer: &entry.buffer,
                    placements: plan.placements[j + 1].clone(),
                });
            }
            let dec = ZigzagDecoder::with_preamble(cfg.clone(), registry, preamble.clone());
            dec.decode(&specs, &plan.packets, scratch)
        };
        // decode attempted: the matched entries are consumed regardless
        // of whether any frame CRC'd
        for &id in &members {
            rx.store.remove(id);
        }
        let mut any = false;
        for p in result.packets {
            if let Some(f) = p.frame {
                rx.deliver(f, DecodePath::Zigzag, events);
                any = true;
            }
        }
        if !any {
            events.push(ReceiverEvent::DecodeFailed);
        }
        Flow::Done
    }
}

/// Algebraic batch recovery ([`crate::recovery`]): jointly solves
/// collision groups the chunk scheduler cannot peel — confirmed-but-
/// undecodable match sets (e.g. §4.5's Δ₁ = Δ₂ duplicate offsets) and
/// groups recruited from the salvage pool of store evictions. Runs after
/// [`ZigzagStage`] (only buffers ZigZag could not consume reach it), is
/// shard-local (pool and store are keyed by client set), and no-ops
/// unless `DecoderConfig::recovery` is enabled.
pub struct RecoverStage;

impl RecoverStage {
    /// Solves `group` and delivers every CRC-verified frame. The
    /// `(src, seq)` dedup inside [`ReceiverCore::deliver`] makes emission
    /// idempotent, so a packet that already arrived through another path
    /// is never double-emitted. Returns `true` only when **every** packet
    /// of the group resolved — the caller may then consume the group's
    /// buffers. On a partial solve (one packet CRC'd, another did not)
    /// the survivors are delivered but the group's evidence must be
    /// kept: the unresolved packet's equations are still needed, and a
    /// future retransmission can form a better-determined system with
    /// them.
    fn solve_and_deliver(
        rx: &mut ReceiverCore,
        group: &crate::recovery::RecoveryGroup,
        events: &mut Vec<ReceiverEvent>,
    ) -> bool {
        let recovered = {
            let ReceiverCore { cfg, registry, preamble, scratch, .. } = &mut *rx;
            solve_group(group, registry, preamble, cfg, scratch)
        };
        let all = !recovered.is_empty() && recovered.iter().all(|p| p.frame.is_some());
        for packet in recovered {
            if let Some(frame) = packet.frame {
                rx.deliver(frame, DecodePath::Recovered, events);
            }
        }
        all
    }
}

impl DecodeStage for RecoverStage {
    fn name(&self) -> &'static str {
        "recover"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        if !rx.cfg.recovery.enabled || unit.detections.len() < 2 {
            return Flow::Continue;
        }
        // Path (a): the matcher confirmed an alignment whose system
        // peeling cannot decode — solve it jointly across the aligned
        // buffers instead of throwing the confirmation away.
        if let Some(rejected) = unit.rejected.take() {
            if let Some(group) = group_from_rejected(unit.buffer, &rejected, &rx.store) {
                if Self::solve_and_deliver(rx, &group, events) {
                    // the group is decoded: consume its store members
                    for &id in &rejected.set.members {
                        rx.store.remove(id);
                    }
                    return Flow::Done;
                }
            }
        }
        // Path (b): recruit evicted same-key collisions from the salvage
        // pool — the store already lost them, but their equations still
        // combine with the current buffer's into a solvable system.
        let key = collision_key(&unit.detections, rx.store.key_window());
        let max_members = rx.cfg.recovery.max_collisions.saturating_sub(1);
        if let Some((group, used)) = group_from_pool(
            &mut rx.scratch,
            unit.buffer,
            &unit.detections,
            &key,
            &rx.salvage,
            max_members,
        ) {
            if Self::solve_and_deliver(rx, &group, events) {
                rx.salvage.consume(&key, &used);
                return Flow::Done;
            }
        }
        Flow::Continue
    }
}

/// §4.2.2 fallback: store the unmatched collision for a future match.
pub struct StoreStage;

impl DecodeStage for StoreStage {
    fn name(&self) -> &'static str {
        "store"
    }

    fn run(
        &self,
        rx: &mut ReceiverCore,
        unit: &mut UnitCtx<'_>,
        events: &mut Vec<ReceiverEvent>,
    ) -> Flow {
        rx.store.insert(unit.buffer.to_vec(), unit.detections.clone());
        // eviction → salvage: a no-op unless recovery retention is on
        for evicted in rx.store.take_evicted() {
            rx.salvage.absorb(evicted);
        }
        events.push(ReceiverEvent::CollisionStored);
        Flow::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClientInfo;
    use rand::prelude::*;
    use zigzag_channel::fading::LinkProfile;
    use zigzag_channel::scenario::hidden_pair;
    use zigzag_phy::frame::{encode_frame, Frame};
    use zigzag_phy::modulation::Modulation;

    /// The state a capture tail leaves behind, in comparable form.
    fn capture_state(rx: &ReceiverCore) -> (Vec<String>, String) {
        let mut store: Vec<_> = rx.store.iter().collect();
        store.sort_by_key(|e| e.id);
        let store = store
            .iter()
            .map(|e| format!("{} {:?} {:?} {:?}", e.id, e.key, e.buffer, e.detections))
            .collect();
        (store, format!("{:?}", rx.weak_versions))
    }

    /// A unit carrying a prepared capture attempt returns the events of
    /// the inline capture and leaves the same store and weak versions, on
    /// random capture-band (typical links at 24/12 dB, clean ones at
    /// 22/14 dB) and equal-power (typical, 16/16 dB) hidden pairs whose
    /// frames collide three times. The attempt is prepared on a scratch
    /// that decoded other buffers first, as the stream's segmenting
    /// thread does.
    #[test]
    fn prepared_attempt_equals_inline_capture() {
        let mut rng = StdRng::seed_from_u64(0xCA97);
        let (preamble, cfg) = (Preamble::default_len(), DecoderConfig::default());
        let mut prep_ws = Scratch::with_backend(cfg.backend);
        // attempts that captured, and those that left a faulty weak
        // version for the MRC retry
        let (mut captured, mut faulty_weak) = (0, 0);
        for case in 0..9u16 {
            let links = match case % 3 {
                0 => [24.0, 12.0].map(|s| LinkProfile::typical(s, &mut rng)),
                1 => {
                    [(22.0, -0.13), (14.0, 0.14)].map(|(s, w)| LinkProfile::clean_with_omega(s, w))
                }
                _ => [16.0, 16.0].map(|s| LinkProfile::typical(s, &mut rng)),
            };
            let mut registry = ClientRegistry::new();
            for (id, l) in [1u16, 2].into_iter().zip(&links) {
                let omega = l.association_omega();
                registry.associate(id, ClientInfo { omega, snr_db: l.snr_db, taps: l.isi.clone() });
            }
            let air = [1u16, 2].map(|src| {
                let f = Frame::with_random_payload(0, src, case, 120, rng.next_u64());
                encode_frame(&f, Modulation::Bpsk, &preamble)
            });
            let d1 = rng.gen_range(150..400);
            let hp = hidden_pair(&air[0], &air[1], &links[0], &links[1], d1, d1 / 3, &mut rng);
            let extra = hidden_pair(&air[0], &air[1], &links[0], &links[1], d1 / 2, 0, &mut rng);
            let buffers = [hp.collision1.buffer, extra.collision1.buffer, hp.collision2.buffer];
            let mut inline = ReceiverCore::new(cfg.clone(), registry.clone());
            let mut prepared = ReceiverCore::new(cfg.clone(), registry.clone());
            let pipeline = Pipeline::standard();
            for buffer in &buffers {
                let dets = detect_packets(buffer, &preamble, &registry, &cfg, &mut prep_ws);
                let attempt =
                    capture_attempt(buffer, &dets, &registry, &preamble, &cfg, &mut prep_ws);
                if let Some(c) = &attempt.captured {
                    captured += 1;
                    faulty_weak +=
                        usize::from(c.weak.as_ref().is_some_and(|w| w.1.frame.is_none()));
                }
                let want = inline.receive_detected(&pipeline, buffer, dets.clone());
                let mut unit = UnitCtx::with_detections(buffer, dets);
                unit.capture = Some(attempt);
                let got = pipeline.run_unit(&mut prepared, &mut unit);
                assert_eq!(got, want, "case {case}: events");
                assert_eq!(capture_state(&prepared), capture_state(&inline), "case {case}: state");
            }
        }
        assert!(
            captured > 0 && faulty_weak > 0,
            "vacuous: {captured} captured, {faulty_weak} faulty"
        );
    }
}
