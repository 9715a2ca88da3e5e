//! Receiver configuration and the per-client association registry.
//!
//! §4.2.1: "The frequency offset does not change over long periods, and
//! thus the AP can maintain coarse estimates of the frequency offsets of
//! active clients as obtained at the time of association. The AP uses
//! these estimates in the computation." The registry holds exactly that
//! per-client state (plus the per-link static ISI taps and a coarse SNR
//! estimate, both also learnable from any clean packet).

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use zigzag_phy::filter::Fir;
use zigzag_phy::kernel::BackendKind;

/// How the match layer searches candidate alignments
/// ([`crate::matchset`]). The receiver always runs `Staged`; `Exhaustive`
/// is the oracle the staged-vs-exhaustive differential tests compare it
/// against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchSearch {
    /// Coarse-to-fine funnel (the receiver's): candidate alignments pass a
    /// short-window integer-τ prefilter, survivors are promoted to the
    /// half-sample coarse metric, and only per-bucket winners pay the
    /// full-window τ=0.25 metric — with mid-accumulation abandonment of
    /// candidates that provably cannot reach the match threshold. The
    /// funnel only ever *skips work whose outcome is already decided*
    /// (prefilter margins are sized so any true match survives; bailed
    /// metrics are exact whenever they clear the threshold), so it
    /// selects the same match sets as the exhaustive path.
    Staged,
    /// Evaluate every candidate alignment at full precision with no
    /// prefilters or early abandonment — the reference the
    /// staged-vs-exhaustive differential tests compare against.
    Exhaustive,
}

/// Tunable knobs of the ZigZag receiver. Defaults reproduce the paper's
/// configuration; the `false` settings exist for the Table 5.1 ablations.
#[derive(Clone, Debug)]
pub struct DecoderConfig {
    /// Track phase/frequency of reconstructed chunk images (§4.2.4b).
    /// Table 5.1 row "Frequency & Phase Tracking".
    pub track_phase: bool,
    /// Track the sampling offset of reconstructions (§4.2.4c).
    pub track_timing: bool,
    /// Track the channel amplitude of reconstructions.
    pub track_gain: bool,
    /// Model/compensate ISI (equalizer + inverse filter, §4.2.4d).
    /// Table 5.1 row "ISI Filter".
    pub use_isi_filter: bool,
    /// Run the backward pass and MRC-combine with the forward pass (§4.3b).
    pub backward: bool,
    /// Correlation detection threshold factor β in `Γ' > β·L·ĥ`
    /// (§5.3a; the paper uses 0.65).
    pub beta: f64,
    /// How many recent unmatched collisions the AP stores **per
    /// client-set key** (§4.2.2: "it is sufficient to store the few most
    /// recent collisions"). A k-sender match set needs k−1 stored
    /// collisions, so this bounds the largest decodable sender count at
    /// `collision_store + 1` — raise it for deployments expecting more
    /// simultaneous hidden senders.
    pub collision_store: usize,
    /// Samples past the *earliest* detection within which a detection
    /// can still open a collision's client-set key (the store/match/
    /// routing index). True packet starts cluster at the front of a
    /// collision — their spread is the MAC backoff jitter (§4.2.2's Δ) —
    /// while a §5.3a false positive from an interferer's data sidelobe
    /// can spike anywhere; with several client sets associated at one
    /// AP, an un-windowed key absorbs those spurious *foreign* clients
    /// and sends two-sender collisions down the k-way path. Matching and
    /// decoding still see every detection; the window only gates set
    /// membership.
    ///
    /// Defaults to `usize::MAX` (off): with a single client set
    /// associated, every detection is evidence of a set member — even a
    /// far-tail sidelobe — and filtering it would discard real presence
    /// information. Multi-set deployments (the sharded receiver's whole
    /// reason to exist) should use [`DecoderConfig::shared_ap`] or set
    /// this to roughly the MAC's backoff spread (≈1024 samples).
    pub key_window: usize,
    /// Which phy kernel backend the decode hot loops run on
    /// (`zigzag_phy::kernel`). Defaults to the simd backend;
    /// `ZIGZAG_BACKEND=scalar` selects the scalar reference process-wide.
    pub backend: BackendKind,
    /// The algebraic batch-recovery subsystem
    /// ([`crate::recovery`]): joint Gaussian elimination over collision
    /// groups the chunk scheduler cannot peel. Off by default — see
    /// [`RecoveryConfig::enabled`] and [`DecoderConfig::with_recovery`].
    pub recovery: RecoveryConfig,
    /// §4.1's "collision followed by a clean retransmission" path: after
    /// a successful *single-packet* decode, re-encode the packet,
    /// subtract it from every stored collision that contains this client
    /// (the ANC primitive, [`crate::capture::subtract_known`]), and try
    /// to decode the buried partners from the residuals. Off by default:
    /// a solo reception then never touches the store.
    pub solo_reap: bool,
}

/// Knobs of the algebraic batch-recovery subsystem ([`crate::recovery`]).
///
/// Recovery takes the match sets `schedule::decodable` rejects as
/// under-determined — plus collisions evicted from the store — and solves
/// them *jointly* as a linear system over demodulated symbols, instead of
/// evicting them as loss. This decodes scenarios the paper's iterative
/// decoder provably cannot (e.g. Δ₁ = Δ₂ duplicate-offset collisions,
/// §4.5), at the cost of extra memory (the salvage pool) and solver time
/// on otherwise-dead buffers.
///
/// Only the subsystem's switch and its memory bounds are settable. The
/// solver itself has one fixed configuration — window PI phase tracking,
/// turbo re-estimation, conditioning-gated recruitment and an adaptive
/// ridge — whose constants live in [`crate::recovery`].
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Master switch. Off by default: rejected alignments and evictions
    /// are then dropped.
    pub enabled: bool,
    /// Salvage-pool capacity **per client-set key** (evicted collisions
    /// retained for future joint solves; same keyed-bounding discipline
    /// as the collision store).
    pub pool: usize,
    /// Most collision buffers jointly solved in one group (each extra
    /// buffer adds equations — and solver rows).
    pub max_collisions: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self { enabled: false, pool: 4, max_collisions: 4 }
    }
}

impl RecoveryConfig {
    /// Recovery switched on with the default memory bounds. The solver
    /// survives impaired (`LinkProfile::typical`-class) links: per-window
    /// PI phase tracking rides phase-noise walks, turbo re-estimation
    /// reclaims CRC-failed first solves from their own cancelled buffers,
    /// ill-conditioned recruits are skipped, and the ridge scales with
    /// each window's measured conditioning.
    pub fn robust() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            track_phase: true,
            track_timing: true,
            track_gain: true,
            use_isi_filter: true,
            backward: true,
            // The paper uses β = 0.65 with a 2-samples/symbol front end;
            // at 1 sample/symbol the preamble carries half the samples,
            // so the data-sidelobe tail requires a higher normalised
            // threshold for the same false-positive rate. 0.78 balances
            // FP/FN at the paper's few-percent level (Table 5.1 bench).
            beta: 0.78,
            collision_store: 4,
            key_window: usize::MAX,
            backend: BackendKind::default(),
            recovery: RecoveryConfig::default(),
            solo_reap: false,
        }
    }
}

impl DecoderConfig {
    /// The default configuration pinned to a specific kernel backend
    /// (differential testing, benchmarks).
    pub fn with_backend(backend: BackendKind) -> Self {
        Self { backend, ..Self::default() }
    }

    /// Configuration for an AP serving *several* client sets at once —
    /// the sharded-receiver deployment: bounds the client-set key window
    /// to the MAC backoff spread so another set's data-sidelobe false
    /// positives (§5.3a) don't pollute this set's store/match/routing
    /// key.
    pub fn shared_ap() -> Self {
        Self { key_window: 1024, ..Self::default() }
    }

    /// The default configuration with algebraic batch recovery enabled
    /// ([`RecoveryConfig::robust`], see [`crate::recovery`]): undecodable
    /// match sets and store evictions are jointly solved instead of
    /// dropped.
    pub fn with_recovery() -> Self {
        Self { recovery: RecoveryConfig::robust(), ..Self::default() }
    }

    /// The default configuration with §4.1 solo-reaping enabled: a clean
    /// retransmission is subtracted from stored collisions containing
    /// the same client, recovering the buried partners.
    pub fn with_solo_reap() -> Self {
        Self { solo_reap: true, ..Self::default() }
    }
}

impl DecoderConfig {
    /// Configuration with all ZigZag-specific tracking disabled (the
    /// "Success Without" rows of Table 5.1).
    pub fn without_tracking() -> Self {
        Self { track_phase: false, track_timing: false, track_gain: false, ..Self::default() }
    }

    /// Configuration without ISI modelling (Table 5.1 "ISI Filter"
    /// ablation).
    pub fn without_isi_filter() -> Self {
        Self { use_isi_filter: false, ..Self::default() }
    }

    /// Forward-only decoding (isolates the §4.3b backward/MRC gain).
    pub fn forward_only() -> Self {
        Self { backward: false, ..Self::default() }
    }
}

/// Whether the `ZIGZAG_DEBUG` environment variable is set: diagnostic
/// traces from the ZigZag executor, match-set search and recovery solver
/// go to stderr. Read once per process, so hot loops pay a load, not an
/// environment lookup.
pub(crate) fn debug_trace() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("ZIGZAG_DEBUG").is_some())
}

/// Whether `ZIGZAG_DEBUG_PLL` is set: per-block PLL folds of the chunk
/// decoder go to stderr. Read once per process, like [`debug_trace`].
pub(crate) fn debug_pll() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("ZIGZAG_DEBUG_PLL").is_some())
}

/// What the AP knows about one associated client.
#[derive(Clone, Debug)]
pub struct ClientInfo {
    /// Coarse oscillator-offset estimate, radians/sample (§4.2.1).
    pub omega: f64,
    /// Coarse SNR estimate in dB, from previously decoded packets — used
    /// to set the collision-detection threshold (§5.3a).
    pub snr_db: f64,
    /// Static per-link ISI taps learned from clean packets (unit main
    /// tap; the per-packet complex gain is estimated per collision).
    pub taps: Fir,
}

/// The AP's association table, ordered by client id.
#[derive(Clone, Debug, Default)]
pub struct ClientRegistry {
    clients: BTreeMap<u16, ClientInfo>,
}

impl ClientRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or updates) a client.
    pub fn associate(&mut self, id: u16, info: ClientInfo) {
        self.clients.insert(id, info);
    }

    /// Looks up a client.
    pub fn get(&self, id: u16) -> Option<&ClientInfo> {
        self.clients.get(&id)
    }

    /// Iterates over `(id, info)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &ClientInfo)> {
        self.clients.iter().map(|(&k, v)| (k, v))
    }

    /// Number of associated clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// `true` if no clients are associated.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Updates a client's frequency estimate (e.g. after decoding a clean
    /// packet from it).
    pub fn update_omega(&mut self, id: u16, omega: f64) {
        if let Some(c) = self.clients.get_mut(&id) {
            c.omega = omega;
        }
    }
}

/// A read-mostly shared handle to the association registry.
///
/// The registry is written at association time and read on every buffer,
/// by every receiver shard — the classic read-mostly shape. The handle is
/// an `Arc` with copy-on-write semantics: clones are pointer copies (what
/// the [`ShardedReceiver`](crate::engine::shard::ShardedReceiver) hands
/// each shard), reads deref straight to the registry with no locking, and
/// [`Self::associate`]/[`Self::update_omega`] clone the underlying table
/// only when other handles are still alive (`Arc::make_mut`).
#[derive(Clone, Debug, Default)]
pub struct SharedRegistry {
    inner: Arc<ClientRegistry>,
}

impl SharedRegistry {
    /// Wraps a registry for shared read-mostly access.
    pub fn new(registry: ClientRegistry) -> Self {
        Self { inner: Arc::new(registry) }
    }

    /// Registers (or updates) a client — copy-on-write if other handles
    /// exist.
    pub fn associate(&mut self, id: u16, info: ClientInfo) {
        Arc::make_mut(&mut self.inner).associate(id, info);
    }

    /// Updates a client's frequency estimate — copy-on-write if other
    /// handles exist.
    pub fn update_omega(&mut self, id: u16, omega: f64) {
        Arc::make_mut(&mut self.inner).update_omega(id, omega);
    }

    /// `true` if `other` is a handle to the same registry allocation
    /// (i.e. writes through one are visible to the other's next clone).
    pub fn shares_with(&self, other: &SharedRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::ops::Deref for SharedRegistry {
    type Target = ClientRegistry;

    fn deref(&self) -> &ClientRegistry {
        &self.inner
    }
}

impl From<ClientRegistry> for SharedRegistry {
    fn from(registry: ClientRegistry) -> Self {
        Self::new(registry)
    }
}

/// Shape of the sharded multi-core receiver
/// ([`ShardedReceiver`](crate::engine::shard::ShardedReceiver)): how many
/// receiver shards run and, on the stream path, how deep each shard's
/// bounded ingest queue is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of receiver shards (one `ReceiverCore` each); `0` means one
    /// per available CPU.
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue on the stream path
    /// ([`process_stream`](crate::engine::shard::ShardedReceiver::process_stream))
    /// only; a finite batch has no queues. The carver *blocks* when a
    /// queue is full (backpressure — regions are never dropped), so the
    /// depth bounds how far carving runs ahead of decode.
    pub queue_depth: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards: 0, queue_depth: 32 }
    }
}

impl ShardConfig {
    /// A config pinned to an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        Self { shards, ..Self::default() }
    }
}

/// Shape of the streaming front end ([`crate::stream`]): how the
/// continuous IQ stream is windowed for detection and how collision
/// regions are carved around detections. The segmenter's sample ring is
/// not a knob: it holds exactly one advance
/// ([`StreamConfig::ring_capacity`]).
///
/// The determinism contract extends through these knobs: for a given
/// configuration the carved regions — boundaries, samples, and attached
/// detections — depend only on the sample stream, never on how the
/// producer chunked its `push_samples` calls or how often a push
/// blocked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamConfig {
    /// Samples the sliding detect operator commits per advance (the
    /// detection window stride). Smaller windows lower latency and ring
    /// retention; the scan cost per sample is the same either way
    /// because every correlation position is computed exactly once.
    pub window: usize,
    /// Quiet samples carved ahead of a region's first detection, so the
    /// carved buffer gives the decode pipeline the same interpolation
    /// and suppression context the detections were found with.
    pub lead: usize,
    /// Samples a region is extended past its *last* detection before it
    /// can close — an upper bound on one packet's air length (plus tail
    /// pad). Any further detection inside that horizon extends the
    /// region, so collisions spanning many windows stay in one region.
    pub max_packet: usize,
    /// Hard cap on a single region's length: a pathological detection
    /// chain (e.g. a continuously-keyed interferer) closes at this size
    /// and re-opens, bounding carve memory.
    pub max_region: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { window: 4096, lead: 64, max_packet: 4096, max_region: 1 << 20 }
    }
}

impl StreamConfig {
    /// The effective window stride (floor: one preamble length).
    pub fn effective_window(&self, l: usize) -> usize {
        self.window.max(l)
    }

    /// The segmenter's sample-ring capacity: the smallest ring one full
    /// advance fits in — window, the detector's lookahead
    /// ([`crate::detect`]), the lead a new region may reach back for, and
    /// an interpolation margin.
    pub fn ring_capacity(&self, l: usize) -> usize {
        self.effective_window(l) + crate::detect::lookahead(l) + self.lead + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DecoderConfig::default();
        assert!(c.track_phase && c.track_timing && c.use_isi_filter && c.backward);
        assert!((c.beta - 0.78).abs() < 1e-12);
    }

    #[test]
    fn ablations_toggle_single_concerns() {
        let t = DecoderConfig::without_tracking();
        assert!(!t.track_phase && !t.track_timing);
        assert!(t.use_isi_filter && t.backward);
        let i = DecoderConfig::without_isi_filter();
        assert!(!i.use_isi_filter && i.track_phase);
        let f = DecoderConfig::forward_only();
        assert!(!f.backward && f.track_phase);
    }

    #[test]
    fn recovery_on_means_the_robust_solver() {
        assert_eq!(DecoderConfig::with_recovery().recovery, RecoveryConfig::robust());
        assert!(RecoveryConfig::robust().enabled);
        assert!(!RecoveryConfig::default().enabled, "recovery is off by default");
    }

    #[test]
    fn shared_registry_is_copy_on_write() {
        let mut reg = ClientRegistry::new();
        reg.associate(1, ClientInfo { omega: 0.01, snr_db: 12.0, taps: Fir::identity() });
        let mut a = SharedRegistry::new(reg);
        let b = a.clone();
        assert!(a.shares_with(&b), "clones are pointer copies");
        a.associate(2, ClientInfo { omega: 0.05, snr_db: 14.0, taps: Fir::identity() });
        assert!(!a.shares_with(&b), "a write with live readers must copy, not mutate in place");
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1, "existing handles keep their snapshot");
        a.update_omega(1, 0.03);
        assert!((a.get(1).unwrap().omega - 0.03).abs() < 1e-12);
        assert!((b.get(1).unwrap().omega - 0.01).abs() < 1e-12);
    }

    #[test]
    fn shard_config_defaults() {
        let c = ShardConfig::default();
        assert_eq!(c.shards, 0, "0 = one shard per available CPU");
        assert!(c.queue_depth >= 1);
        assert_eq!(ShardConfig::with_shards(3).shards, 3);
    }

    #[test]
    fn stream_config_applies_structural_floors() {
        let c = StreamConfig::default();
        assert_eq!(crate::detect::lookahead(32), 72, "floor = 2·L + 8");
        assert!(c.effective_window(32) >= 32);
        assert!(c.ring_capacity(32) >= c.effective_window(32) + 72 + c.lead);
        // a degenerate window is raised, never honored below the floor,
        // and the ring follows the raised window
        let tiny = StreamConfig { window: 8, ..c };
        assert_eq!(tiny.effective_window(32), 32);
        assert!(tiny.ring_capacity(32) >= 32 + 72 + tiny.lead);
    }

    #[test]
    fn registry_roundtrip() {
        let mut r = ClientRegistry::new();
        assert!(r.is_empty());
        r.associate(7, ClientInfo { omega: 0.01, snr_db: 12.0, taps: Fir::identity() });
        assert_eq!(r.len(), 1);
        assert!((r.get(7).unwrap().omega - 0.01).abs() < 1e-12);
        r.update_omega(7, 0.02);
        assert!((r.get(7).unwrap().omega - 0.02).abs() < 1e-12);
        assert!(r.get(8).is_none());
    }
}
