//! The sharded multi-core receiver: N [`ReceiverCore`]s behind a
//! bounded-queue ingestion front end.
//!
//! The paper's AP decodes every hidden-terminal collision on one receive
//! chain. A production AP serving many concurrent client sets wants one
//! receive chain *per core*: collision contexts from distinct client
//! sets are independent (the message-passing/batch-erasure framings of
//! PAPERS.md assume exactly this), so buffers can be routed by detected
//! client set and decoded in parallel without changing any result.
//!
//! The moving parts:
//!
//! * [`IngestQueue`] — a bounded blocking queue per shard. Ingestion
//!   *blocks* when a queue is full (backpressure; buffers are never
//!   dropped), so detection runs at most `queue_depth` buffers ahead of
//!   each shard's decode — ingest, detection, and zigzag execution
//!   overlap instead of running buffer-at-a-time.
//! * a **detect-only routing pre-pass** — the router runs the ordinary
//!   [`DetectStage`](crate::engine::stage::DetectStage) scan (same
//!   function, same [`Scratch`]) over a window of buffers in parallel on
//!   [`BatchEngine`]'s scoped pool, hashes each buffer's detected
//!   client set ([`route_shard`]), and enqueues the buffer *with its
//!   detections* — the shard pipeline reuses them instead of re-scanning.
//! * [`ShardedReceiver`] — owns one [`ReceiverCore`] per shard (each
//!   with its own [`CollisionStore`](crate::matchset::CollisionStore) and
//!   [`Scratch`]); shards share only the association registry behind the
//!   read-mostly [`SharedRegistry`] handle. A deterministic merge step
//!   reorders per-shard event streams by buffer sequence number.
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

use crate::config::{ClientInfo, ClientRegistry, DecoderConfig, ShardConfig, SharedRegistry};
use crate::detect::{detect_packets, Detection};
use crate::engine::batch::BatchEngine;
use crate::engine::scratch::Scratch;
use crate::engine::stage::{Pipeline, ReceiverCore};
use crate::matchset::collision_key;
use crate::receiver::ReceiverEvent;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use zigzag_phy::complex::Complex;
use zigzag_phy::preamble::Preamble;

/// A bounded blocking queue between the ingestion front end and one
/// receiver shard.
///
/// `push` blocks while the queue is full — backpressure, never loss —
/// and `pop` blocks while it is empty, returning `None` only after
/// [`IngestQueue::close`] with the queue drained.
#[derive(Debug)]
pub struct IngestQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
    stalls: u64,
}

impl<T> IngestQueue<T> {
    /// An open queue holding at most `cap` items (at least 1).
    pub fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
                stalls: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.state.lock().expect("ingest queue poisoned").items.len()
    }

    /// `true` if nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest occupancy the queue has reached since creation — how close
    /// the producer has come to saturating this shard.
    pub fn high_water(&self) -> usize {
        self.state.lock().expect("ingest queue poisoned").high_water
    }

    /// How many `push` calls found the queue full and had to block
    /// (backpressure events — each one throttled the producer).
    pub fn stalls(&self) -> u64 {
        self.state.lock().expect("ingest queue poisoned").stalls
    }

    /// Enqueues an item, blocking while the queue is full. Returns the
    /// item back if the queue was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("ingest queue poisoned");
        if state.items.len() >= self.cap && !state.closed {
            state.stalls += 1;
        }
        while state.items.len() >= self.cap && !state.closed {
            state = self.not_full.wait(state).expect("ingest queue poisoned");
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("ingest queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("ingest queue poisoned");
        }
    }

    /// Closes the queue: pending items still drain, further pushes fail,
    /// and blocked consumers wake.
    pub fn close(&self) {
        self.state.lock().expect("ingest queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

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

/// One routed unit of ingest: a receive buffer, its sequence number, and
/// the routing pre-pass's detections (reused by the shard pipeline).
struct Job<'a> {
    seq: usize,
    buffer: &'a [Complex],
    detections: Vec<Detection>,
}

/// One shard's `(sequence, events)` output, awaiting the deterministic
/// merge.
type ShardResults = Mutex<Vec<(usize, Vec<ReceiverEvent>)>>;

/// Closes the given queues when dropped — the panic-safety latch that
/// keeps a dying router or shard worker from leaving the other side
/// blocked forever on a condvar with no waker.
struct CloseOnDrop<'a, T>(&'a [IngestQueue<T>]);

impl<T> Drop for CloseOnDrop<'_, T> {
    fn drop(&mut self) {
        for q in self.0 {
            q.close();
        }
    }
}

/// The sharded AP receiver: one [`ReceiverCore`] per shard on
/// [`BatchEngine`]'s scoped thread pool, fed through bounded
/// [`IngestQueue`]s by a client-set-hash router.
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
    router_ws: Scratch,
    pub(crate) loads: Vec<u64>,
    /// Cumulative backpressure stalls per shard queue (every `push` that
    /// found the queue full), accumulated across `process_batch` /
    /// `process_stream` calls.
    pub(crate) stalls: Vec<u64>,
    /// Highest ingest-queue occupancy each shard has seen.
    pub(crate) high_water: Vec<usize>,
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
        let router_ws = Scratch::with_backend(cfg.backend);
        Self {
            cfg,
            shard_cfg,
            registry,
            pipeline,
            preamble: Preamble::default_len(),
            cores,
            router_ws,
            loads: vec![0; shards],
            stalls: vec![0; shards],
            high_water: vec![0; shards],
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

    /// Cumulative backpressure stalls per shard: how many times the
    /// ingest front end found that shard's queue full and had to block.
    /// Non-zero entries mean decode was the bottleneck for that shard
    /// (the queue depth was reached and the producer was throttled).
    pub fn shard_stalls(&self) -> &[u64] {
        &self.stalls
    }

    /// Highest ingest-queue occupancy each shard has reached across all
    /// `process_batch` / `process_stream` calls so far — `queue_depth`
    /// means that shard saturated its queue at least once.
    pub fn queue_high_water(&self) -> &[usize] {
        &self.high_water
    }

    /// Read access to the shared association registry.
    pub fn registry(&self) -> &ClientRegistry {
        &self.registry
    }

    /// Read access to the decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.cfg
    }

    /// Total unmatched collisions stored across all shards.
    pub fn stored_collisions(&self) -> usize {
        self.cores.iter().map(|c| c.store().len()).sum()
    }

    /// Associates a client and republishes the registry handle to every
    /// shard (shards only ever *read* it; writes go through the front
    /// end, copy-on-write).
    pub fn associate(&mut self, id: u16, info: ClientInfo) {
        self.registry.associate(id, info);
        for core in &mut self.cores {
            core.set_registry(self.registry.clone());
        }
    }

    /// Forgets delivery history and stored collisions on every shard
    /// (between experiment runs).
    pub fn reset_history(&mut self) {
        for core in &mut self.cores {
            core.reset_history();
        }
        self.loads.iter_mut().for_each(|l| *l = 0);
        self.stalls.iter_mut().for_each(|s| *s = 0);
        self.high_water.iter_mut().for_each(|h| *h = 0);
    }

    /// Processes one receive buffer inline (detect pre-pass, route,
    /// decode on the owning shard — no threads). Streaming counterpart
    /// of [`Self::process_batch`]; same events, same shard state.
    pub fn process(&mut self, buffer: &[Complex]) -> Vec<ReceiverEvent> {
        let detections =
            detect_packets(buffer, &self.preamble, &self.registry, &self.cfg, &mut self.router_ws);
        let shard = route_shard(&collision_key(&detections, self.cfg.key_window), self.cores.len());
        self.loads[shard] += 1;
        self.cores[shard].receive_detected(&self.pipeline, buffer, detections)
    }

    /// Processes a sequence of receive buffers through the sharded
    /// pipeline, returning each buffer's events in input order (the
    /// deterministic merge: per-shard streams are reordered by buffer
    /// sequence number, so the output is bit-identical to a single
    /// [`ReceiverCore`] fed the same sequence).
    ///
    /// The router (caller thread) detect-scans a window of
    /// `shards × queue_depth` buffers in parallel on the scoped pool,
    /// then dispatches them in sequence order to the shard queues while
    /// the shard workers decode — so detection of window *w+1* overlaps
    /// zigzag execution of window *w*, and a full queue blocks the
    /// router (backpressure) rather than dropping buffers.
    pub fn process_batch(&mut self, buffers: &[Vec<Complex>]) -> Vec<Vec<ReceiverEvent>> {
        let n = self.cores.len();
        if n <= 1 || buffers.len() <= 1 {
            return buffers.iter().map(|b| self.process(b)).collect();
        }
        let depth = self.shard_cfg.queue_depth.max(1);
        let window = n * depth;
        let engine = BatchEngine::new(n);
        let Self { cfg, registry, pipeline, preamble, cores, loads, stalls, high_water, .. } = self;
        let (cfg, registry, pipeline, preamble) = (&*cfg, &*registry, &*pipeline, &*preamble);

        let queues: Vec<IngestQueue<Job<'_>>> = (0..n).map(|_| IngestQueue::new(depth)).collect();
        let results: Vec<ShardResults> = (0..n).map(|_| Mutex::new(Vec::new())).collect();

        std::thread::scope(|s| {
            for ((core, queue), slot) in cores.iter_mut().zip(&queues).zip(&results) {
                s.spawn(move || {
                    // Panic safety: if decode panics, the closing guard
                    // wakes the router out of its blocking push (which
                    // then fails loudly) instead of leaving it asleep on
                    // a condvar nobody will ever signal.
                    let _closer = CloseOnDrop(std::slice::from_ref(queue));
                    let mut local = Vec::new();
                    while let Some(job) = queue.pop() {
                        let ev = core.receive_detected(pipeline, job.buffer, job.detections);
                        local.push((job.seq, ev));
                    }
                    *slot.lock().expect("shard result slot poisoned") = local;
                });
            }

            // Router: windowed parallel detect, in-order dispatch. The
            // guard closes every queue however the router exits (end of
            // batch, or a panic in detection/routing), so shard workers
            // always drain and join.
            let closer = CloseOnDrop(&queues);
            let mut seq = 0usize;
            for chunk in buffers.chunks(window) {
                let dets: Vec<Vec<Detection>> = engine.map_with(
                    chunk,
                    || Scratch::with_backend(cfg.backend),
                    |ws, _, buf| detect_packets(buf, preamble, registry, cfg, ws),
                );
                for (i, detections) in dets.into_iter().enumerate() {
                    let shard = route_shard(&collision_key(&detections, cfg.key_window), n);
                    loads[shard] += 1;
                    let job = Job { seq: seq + i, buffer: &chunk[i], detections };
                    if queues[shard].push(job).is_err() {
                        // only a dead (panicked) worker closes its queue
                        // early; surface that instead of dropping input
                        panic!("shard {shard} worker terminated before its ingest completed");
                    }
                }
                seq += chunk.len();
            }
            drop(closer);
        });

        for (i, q) in queues.iter().enumerate() {
            stalls[i] += q.stalls();
            high_water[i] = high_water[i].max(q.high_water());
        }

        let mut out = vec![Vec::new(); buffers.len()];
        for slot in results {
            for (seq, ev) in slot.into_inner().expect("shard result slot poisoned") {
                out[seq] = ev;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn queue_is_fifo_and_drains_after_close() {
        let q = IngestQueue::new(4);
        assert!(q.is_empty());
        for i in 0..3 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 3);
        q.close();
        assert_eq!(q.push(9), Err(9), "push after close must fail");
        assert_eq!((q.pop(), q.pop(), q.pop(), q.pop()), (Some(0), Some(1), Some(2), None));
    }

    #[test]
    fn queue_capacity_has_a_floor_of_one() {
        assert_eq!(IngestQueue::<u8>::new(0).capacity(), 1);
    }

    #[test]
    fn queue_telemetry_tracks_occupancy_and_stalls() {
        let q = IngestQueue::new(2);
        assert_eq!((q.high_water(), q.stalls()), (0, 0));
        q.push(1).unwrap();
        assert_eq!(q.high_water(), 1);
        q.push(2).unwrap();
        assert_eq!(q.high_water(), 2);
        // a blocked push on a full queue counts exactly one stall
        std::thread::scope(|s| {
            s.spawn(|| q.push(3).unwrap());
            while q.stalls() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(q.pop(), Some(1));
        });
        assert_eq!(q.stalls(), 1);
        assert_eq!(q.high_water(), 2, "pop before the blocked push lands keeps occupancy ≤ cap");
        // draining does not reset the marks
        assert_eq!((q.pop(), q.pop()), (Some(2), Some(3)));
        assert_eq!((q.high_water(), q.stalls()), (2, 1));
    }

    #[test]
    fn full_queue_blocks_producer_without_dropping() {
        // Backpressure semantics: with capacity 2 and a slow consumer,
        // every one of the 64 pushes must eventually land, the queue
        // never exceeds capacity, and the consumer sees all items in
        // order.
        let q = IngestQueue::new(2);
        let max_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..64usize {
                    q.push(i).unwrap();
                    max_seen.fetch_max(q.len(), Ordering::Relaxed);
                }
                q.close();
            });
            let mut got = Vec::new();
            while let Some(i) = q.pop() {
                std::thread::yield_now();
                got.push(i);
            }
            assert_eq!(got, (0..64).collect::<Vec<_>>(), "no buffer may be dropped or reordered");
        });
        assert!(max_seen.load(Ordering::Relaxed) <= 2, "bounded queue must stay bounded");
    }

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
        // A decode panic on a shard worker must unwind out of
        // `process_batch` — the failure mode being prevented is the
        // router sleeping forever on the dead worker's full queue.
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
