//! The sharded multi-core receiver: N [`ReceiverCore`]s, one per core,
//! with buffers routed to them by detected client set.
//!
//! The paper's AP decodes every hidden-terminal collision on one receive
//! chain. A production AP serving many concurrent client sets wants one
//! receive chain *per core*: collision contexts from distinct client
//! sets are independent (the message-passing/batch-erasure framings of
//! PAPERS.md assume exactly this), so buffers can be routed by detected
//! client set and decoded in parallel without changing any result.
//!
//! A finite batch ([`ShardedReceiver::process_batch`]) runs in three
//! steps:
//!
//! * **detect** — one parallel pass of the ordinary
//!   [`DetectStage`](crate::engine::stage::DetectStage) scan (same
//!   function, same [`Scratch`]) over the whole batch on
//!   [`BatchEngine`]'s scoped pool;
//! * **route** — each buffer's detected client set is hashed to a shard
//!   ([`route_shard`]);
//! * **keyed map** — `BatchEngine::map_keyed` runs each shard's buffers
//!   in sequence order on one worker, distinct shards in parallel, and
//!   returns events in input order. The shard pipeline reuses the
//!   detections instead of re-scanning.
//!
//! Each shard owns its own [`CollisionStore`](crate::matchset::CollisionStore)
//! and [`Scratch`]; shards share only the association registry behind
//! the read-mostly [`SharedRegistry`] handle. Only the continuous stream
//! ([`ShardedReceiver::process_stream`]) is queue-fed, because only its
//! input is unbounded; see [`crate::stream`] for its backpressure chain.
//!
//! **Determinism.** Events are bit-identical for any shard count,
//! including 1 (which is exactly a single `ReceiverCore`), because the
//! receiver's cross-buffer interactions are local to a detected client
//! set: store eviction is per key, match candidates (pairwise and
//! k-way) come from the same-key index, and routing sends every buffer
//! of a key to one shard, in sequence order, forever. The shard-count
//! invariance proptests in `tests/shard.rs` pin this.
//!
//! The contract's precondition: a client's buffers must keep *one*
//! routing key. Two receiver structures are per-**client**, not
//! per-key — the `(src, seq)` delivery-dedup set and the faulty-weak
//! `weak_versions` store for cross-collision MRC — so if the same
//! client's traffic shows up under two different keys (say a `{1,2}`
//! collision and, after its frame was already delivered there, a
//! clean `{1}` retransmission of the same frame), a single core
//! suppresses the duplicate delivery while separate shards would not.
//! That is the physically sensible deployment anyway (a client
//! contends within one hidden-terminal set at a time), and it is the
//! regime the tests and benches pin; cross-shard client migration is a
//! ROADMAP follow-on.

use crate::config::{ClientRegistry, DecoderConfig, ShardConfig, SharedRegistry};
use crate::detect::detect_packets;
use crate::engine::batch::BatchEngine;
use crate::engine::scratch::Scratch;
use crate::engine::stage::{Pipeline, ReceiverCore};
use crate::matchset::collision_key;
use crate::receiver::ReceiverEvent;
use zigzag_phy::complex::Complex;
use zigzag_phy::preamble::Preamble;

/// The shard a detected client set routes to: FNV-1a over the key with a
/// SplitMix64-style avalanche finalizer (raw FNV's low bits barely mix,
/// so a power-of-two shard count would collapse onto one shard), modulo
/// the shard count. Stable across runs (no per-process hasher seed), so
/// routing — and therefore every shard's buffer subsequence — is
/// deterministic.
pub fn route_shard(key: &[u16], shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in key {
        for b in c.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h % shards as u64) as usize
}

/// The sharded AP receiver: one [`ReceiverCore`] per shard on
/// [`BatchEngine`]'s scoped thread pool, fed by a client-set-hash
/// router.
///
/// # Example
///
/// Process a batch of buffers across two shards; events come back in
/// input order, bit-identical to a single receiver core:
///
/// ```
/// use zigzag_core::config::{ClientRegistry, DecoderConfig, ShardConfig};
/// use zigzag_core::engine::ShardedReceiver;
/// use zigzag_core::ReceiverEvent;
/// use zigzag_phy::complex::Complex;
///
/// let mut rx = ShardedReceiver::new(
///     DecoderConfig::shared_ap(),
///     ShardConfig { shards: 2, queue_depth: 4 },
///     ClientRegistry::new(),
/// );
/// let buffers: Vec<Vec<Complex>> = (0..4).map(|_| vec![Complex::real(0.01); 256]).collect();
/// let events = rx.process_batch(&buffers);
/// assert_eq!(events.len(), buffers.len(), "one event list per buffer, in input order");
/// // no clients associated, so every buffer fails cleanly
/// for ev in &events {
///     assert_eq!(ev[..], [ReceiverEvent::DecodeFailed]);
/// }
/// ```
pub struct ShardedReceiver {
    pub(crate) cfg: DecoderConfig,
    pub(crate) shard_cfg: ShardConfig,
    pub(crate) registry: SharedRegistry,
    pub(crate) pipeline: Pipeline,
    pub(crate) preamble: Preamble,
    pub(crate) cores: Vec<ReceiverCore>,
    pub(crate) loads: Vec<u64>,
}

impl ShardedReceiver {
    /// A sharded receiver running the standard §5.1d pipeline.
    /// `shard_cfg.shards == 0` resolves to one shard per available CPU.
    pub fn new(cfg: DecoderConfig, shard_cfg: ShardConfig, registry: ClientRegistry) -> Self {
        Self::with_pipeline(cfg, shard_cfg, registry, Pipeline::standard())
    }

    /// A sharded receiver over a custom stage pipeline (shared by all
    /// shards; stages are `Send + Sync`).
    pub fn with_pipeline(
        cfg: DecoderConfig,
        shard_cfg: ShardConfig,
        registry: ClientRegistry,
        pipeline: Pipeline,
    ) -> Self {
        let shards = BatchEngine::new(shard_cfg.shards).threads();
        let registry = SharedRegistry::new(registry);
        let cores = (0..shards)
            .map(|_| ReceiverCore::with_registry(cfg.clone(), registry.clone()))
            .collect();
        Self {
            cfg,
            shard_cfg,
            registry,
            pipeline,
            preamble: Preamble::default_len(),
            cores,
            loads: vec![0; shards],
        }
    }

    /// Number of receiver shards.
    pub fn shards(&self) -> usize {
        self.cores.len()
    }

    /// Buffers routed to each shard so far (diagnostics: a workload
    /// "exercises routing" when more than one entry is non-zero).
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Total unmatched collisions stored across all shards.
    pub fn stored_collisions(&self) -> usize {
        self.cores.iter().map(|c| c.store().len()).sum()
    }

    /// Forgets delivery history and stored collisions on every shard
    /// (between experiment runs).
    pub fn reset_history(&mut self) {
        for core in &mut self.cores {
            core.reset_history();
        }
        self.loads.iter_mut().for_each(|l| *l = 0);
    }

    /// Processes a finite batch of receive buffers through the sharded
    /// pipeline, returning each buffer's events in input order —
    /// bit-identical to a single [`ReceiverCore`] fed the same sequence.
    ///
    /// One parallel detect pass covers the whole batch; each buffer is
    /// then routed by its detected client set, and the keyed map decodes
    /// every shard's buffers in sequence order on one worker, distinct
    /// shards in parallel.
    pub fn process_batch(&mut self, buffers: &[Vec<Complex>]) -> Vec<Vec<ReceiverEvent>> {
        let engine = BatchEngine::new(self.cores.len());
        let Self { cfg, registry, pipeline, preamble, cores, loads, .. } = self;
        let detections = engine.map_with(
            buffers,
            || Scratch::with_backend(cfg.backend),
            |ws, _, buf| detect_packets(buf, preamble, registry, cfg, ws),
        );
        let routed: Vec<_> = buffers
            .iter()
            .zip(detections)
            .map(|(buffer, dets)| {
                let shard = route_shard(&collision_key(&dets, cfg.key_window), cores.len());
                loads[shard] += 1;
                (shard, buffer, dets)
            })
            .collect();
        let pipeline = &*pipeline;
        engine.map_keyed(
            cores,
            routed,
            |&(shard, ..)| shard,
            |core, (_, buffer, dets)| core.receive_detected(pipeline, buffer, dets),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for shards in [1, 2, 4, 7] {
            for key in [vec![], vec![1], vec![1, 2], vec![3, 4, 5], vec![65535]] {
                let s = route_shard(&key, shards);
                assert!(s < shards);
                assert_eq!(s, route_shard(&key, shards), "routing must be stable");
            }
        }
        // distinct keys spread (not all on one shard) for a sane hash
        let spread: std::collections::HashSet<usize> =
            (0..16u16).map(|c| route_shard(&[c, c + 16], 4)).collect();
        assert!(spread.len() > 1, "hash must not collapse all keys onto one shard");
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        // A decode panic on a shard must unwind out of `process_batch`
        // rather than leave the batch waiting on a dead worker.
        use crate::engine::stage::{DecodeStage, Flow, UnitCtx};
        struct PanicStage;
        impl DecodeStage for PanicStage {
            fn name(&self) -> &'static str {
                "panic"
            }
            fn run(
                &self,
                _rx: &mut ReceiverCore,
                _unit: &mut UnitCtx<'_>,
                _events: &mut Vec<ReceiverEvent>,
            ) -> Flow {
                panic!("injected decode failure");
            }
        }
        let mut rx = ShardedReceiver::with_pipeline(
            DecoderConfig::default(),
            ShardConfig { shards: 2, queue_depth: 1 },
            ClientRegistry::new(),
            Pipeline::from_stages(vec![Box::new(PanicStage)]),
        );
        let buffers: Vec<Vec<Complex>> = (0..8).map(|_| vec![Complex::real(0.1); 64]).collect();
        let out =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rx.process_batch(&buffers)));
        assert!(out.is_err(), "worker panic must propagate, not deadlock");
    }

    #[test]
    fn empty_registry_stream_fails_cleanly_in_order() {
        // No associated clients: every buffer yields [DecodeFailed], and
        // the merge returns them in input order at any shard count.
        let buffers: Vec<Vec<Complex>> =
            (0..6).map(|i| vec![Complex::real(i as f64 * 0.01); 256]).collect();
        for shards in [1, 2, 4] {
            let mut rx = ShardedReceiver::new(
                DecoderConfig::default(),
                ShardConfig { shards, queue_depth: 2 },
                ClientRegistry::new(),
            );
            let out = rx.process_batch(&buffers);
            assert_eq!(out.len(), buffers.len());
            for ev in &out {
                assert_eq!(ev[..], [ReceiverEvent::DecodeFailed]);
            }
            assert_eq!(rx.loads().iter().sum::<u64>(), buffers.len() as u64);
        }
    }
}
