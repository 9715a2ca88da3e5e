//! The streaming drivers: the synchronous source→detect→carve core
//! ([`Segmenter`]) and the threaded operator graph that feeds carved
//! regions into the sharded receiver with end-to-end backpressure
//! ([`ShardedReceiver::process_stream`]).
//!
//! The producer runs on the calling thread, and each of its pushes
//! segments and routes in place. Routing also runs a region's
//! [`capture_attempt`] before queueing it when the region's shard
//! already has a job waiting: the capture path's anchor and weak decodes
//! depend on the region alone, so a shard worker that is behind the
//! segmenting thread keeps only the stateful tail of its capture stage,
//! and a segmenting thread that is itself the bottleneck (many shards,
//! or cheap regions) leaves the decodes to the workers.
//!
//! # Backpressure chain
//!
//! ```text
//! caller thread (producer → StreamSource)                                 shard workers
//! push_samples ──► segment ──► route ──► capture attempt ──► IngestQueue ──► decode
//!      ▲ (SampleRing → scan → carve)                             │ full
//!      └─────────────────────── blocks ──────────────────────────┘
//! ```
//!
//! A slow shard fills its bounded `IngestQueue`, and the
//! [`StreamSource::push_samples`] call that completes a region for it
//! blocks until the shard catches up. Memory is bounded by
//! [`StreamConfig::ring_capacity`]` + shards × queue_depth × region`
//! and **no sample is ever dropped** — the contract `tests/stream.rs`
//! pins at `queue_depth = 1`.
//! This is the only queue-fed path: a finite batch
//! ([`ShardedReceiver::process_batch`]) goes through the keyed map
//! instead, since nothing upstream of it needs throttling.
//!
//! # Determinism
//!
//! Window commit points are fixed multiples of the window stride and the
//! carve rules are functions of the committed scan alone, so the carved
//! regions — and therefore the decode events — are bit-identical no
//! matter how the producer chunks its pushes, how often a push blocks,
//! or how many shards decode. That makes the whole streaming front end
//! a level of the repo's determinism contract.

use super::carver::{CarvedRegion, RegionCarver};
use super::queue::IngestQueue;
use super::ring::SampleRing;
use crate::capture::{capture_attempt, CaptureAttempt};
use crate::config::{ClientRegistry, DecoderConfig, StreamConfig};
use crate::detect::{lookahead, WindowScanner};
use crate::engine::scratch::Scratch;
use crate::engine::shard::{route_shard, ShardedReceiver};
use crate::engine::stage::{all_finite, UnitCtx};
use crate::matchset::collision_key;
use crate::receiver::ReceiverEvent;
use std::sync::Mutex;
use std::time::Instant;
use zigzag_phy::complex::Complex;
use zigzag_phy::preamble::Preamble;

/// The synchronous streaming core: ring → windowed scan → carve, one
/// struct, no threads. Push arbitrary sample chunks, collect
/// [`CarvedRegion`]s; the threaded driver and the one-shot
/// [`carve_buffer`] are both built on it, so every entry point carves
/// identically.
#[derive(Debug)]
pub struct Segmenter {
    ring: SampleRing,
    scanner: WindowScanner,
    carver: RegionCarver,
    ws: Scratch,
    window: usize,
    lookahead: usize,
    finished: bool,
}

impl Segmenter {
    /// A segmenter for the given configuration and association snapshot
    /// (the registry is snapshotted, like one `process_batch` call's).
    pub fn new(cfg: &DecoderConfig, registry: &ClientRegistry, scfg: &StreamConfig) -> Self {
        let preamble = Preamble::default_len();
        let l = preamble.len();
        Self {
            ring: SampleRing::new(scfg.ring_capacity(l)),
            scanner: WindowScanner::new(&preamble, registry, cfg),
            carver: RegionCarver::new(scfg.lead, scfg.max_packet, scfg.max_region),
            ws: Scratch::with_backend(cfg.backend),
            window: scfg.effective_window(l),
            lookahead: lookahead(l),
            finished: false,
        }
    }

    /// Regions emitted so far.
    pub fn regions(&self) -> usize {
        self.carver.regions()
    }

    /// Ingests one chunk of any size, appending every region that became
    /// complete to `out`. Never blocks: the internal ring frees itself by
    /// advancing the scan.
    ///
    /// # Panics
    /// If called after [`Segmenter::finish`].
    pub fn push(&mut self, chunk: &[Complex], out: &mut Vec<CarvedRegion>) {
        assert!(!self.finished, "Segmenter::push after finish");
        let mut rest = chunk;
        loop {
            let took = self.ring.push(rest);
            rest = &rest[took..];
            while self.ring.end() >= self.scanner.commit() + self.window + self.lookahead {
                self.advance_once(false, out);
            }
            if rest.is_empty() {
                break;
            }
        }
    }

    /// Ends the stream: commits the remaining tail with pre-cut edge
    /// semantics (truncated correlation sums, clamped suppression
    /// windows) and closes any open region at the final sample.
    pub fn finish(&mut self, out: &mut Vec<CarvedRegion>) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.advance_once(true, out);
    }

    fn advance_once(&mut self, final_: bool, out: &mut Vec<CarvedRegion>) {
        let target = self.scanner.commit() + self.window;
        let (base, slice) = self.ring.live();
        let span = self.scanner.advance(slice, base, target, final_, &mut self.ws);
        let upto = self.scanner.commit();
        self.carver.advance(&span, slice, base, upto, out);
        if final_ {
            self.carver.finish(slice, base, base + slice.len(), out);
        }
        let keep = self.carver.min_sample_needed(self.scanner.commit());
        self.ring.discard_to(keep);
    }
}

/// Carves one complete buffer in a single shot: the reference the
/// stream-vs-precut identity tests cut their "pre-cut" buffers with.
/// Equivalent to pushing the buffer through a fresh [`Segmenter`] in any
/// chunking whatsoever (that invariance is proptested).
pub fn carve_buffer(
    buffer: &[Complex],
    cfg: &DecoderConfig,
    registry: &ClientRegistry,
    scfg: &StreamConfig,
) -> Vec<CarvedRegion> {
    let mut seg = Segmenter::new(cfg, registry, scfg);
    let mut out = Vec::new();
    seg.push(buffer, &mut out);
    seg.finish(&mut out);
    out
}

// ---------------------------------------------------------------------
// threaded driver
// ---------------------------------------------------------------------

/// Runs its closure when dropped — the stream graph's one panic-safety
/// latch. However a thread exits (return or unwind), it closes the
/// queues the other threads block on, so no thread is left asleep on a
/// condvar nobody will signal and a panic always propagates.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// One routed unit of stream ingest: an owned carved region, its capture
/// attempt when the segmenting thread prepared one, and its enqueue
/// timestamp (for queue-latency accounting).
struct RegionJob {
    region: CarvedRegion,
    capture: Option<CaptureAttempt>,
    enqueued: Instant,
}

/// The producer's handle into a running
/// [`process_stream`](ShardedReceiver::process_stream): push raw IQ
/// sample chunks of any size. Each push segments the chunk on the
/// calling thread and routes every region it completes to its shard;
/// the call **blocks** only while such a region's shard queue is full —
/// the end of the backpressure chain. Samples are never dropped (the
/// only exception: a shard worker panicked, in which case the push
/// panics too so the panic propagates).
pub struct StreamSource<'a> {
    seg: Segmenter,
    regions: Vec<CarvedRegion>,
    queues: &'a [IngestQueue<RegionJob>],
    loads: &'a mut [u64],
    cfg: &'a DecoderConfig,
    registry: &'a ClientRegistry,
    preamble: &'a Preamble,
    attempt_ws: Scratch,
    stats: StreamStats,
}

impl StreamSource<'_> {
    /// Pushes one chunk: segments it and routes every region it
    /// completes, blocking while a region's shard queue is full.
    pub fn push_samples(&mut self, chunk: &[Complex]) {
        self.stats.samples += chunk.len() as u64;
        self.seg.push(chunk, &mut self.regions);
        if self.route() {
            self.stats.source_stalls += 1;
        }
    }

    /// Ends the stream: segments the tail and routes its regions.
    fn finish(&mut self) {
        self.seg.finish(&mut self.regions);
        self.route();
    }

    /// Routes every completed region to its shard's queue. Returns
    /// whether any of those pushes blocked on a full queue.
    fn route(&mut self) -> bool {
        let n = self.queues.len();
        let mut blocked = false;
        for region in self.regions.drain(..) {
            let shard = route_shard(&collision_key(&region.detections, self.cfg.key_window), n);
            self.loads[shard] += 1;
            self.stats.carved_samples += region.samples.len() as u64;
            // the capture decodes depend on the region alone: run them
            // here when the shard's worker has a job waiting, so this
            // thread has slack before the worker reaches the region (one
            // with fewer than two detections, or one `run_unit` rejects
            // as non-finite, never reaches the capture stage)
            let prepare = !self.queues[shard].is_empty()
                && region.detections.len() >= 2
                && all_finite(&region.samples);
            let capture = prepare.then(|| {
                self.stats.capture_attempts += 1;
                let start = Instant::now();
                let attempt = capture_attempt(
                    &region.samples,
                    &region.detections,
                    self.registry,
                    self.preamble,
                    self.cfg,
                    &mut self.attempt_ws,
                );
                self.stats.capture_attempt_ns += start.elapsed().as_nanos() as u64;
                attempt
            });
            let job = RegionJob { region, capture, enqueued: Instant::now() };
            match self.queues[shard].push(job) {
                Ok(waited) => blocked |= waited,
                Err(_) => panic!("shard {shard} worker terminated before its ingest completed"),
            }
        }
        blocked
    }
}

/// One carved region's decode result, in stream order after the merge.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionOutcome {
    /// Region sequence number (stream order).
    pub seq: usize,
    /// Absolute stream index of the region's first sample.
    pub start: usize,
    /// Region length in samples.
    pub len: usize,
    /// How long the region sat in its shard's ingest queue before a
    /// worker picked it up (the soak bench's p99 latency source).
    pub queue_wait_ns: u64,
    /// The decode events, bit-identical to feeding the same region
    /// through [`ShardedReceiver::process_batch`].
    pub events: Vec<ReceiverEvent>,
}

/// Counters from one [`process_stream`](ShardedReceiver::process_stream)
/// run — the observability the soak workload graphs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Samples the producer pushed, summed per `push_samples` call
    /// (every one was processed).
    pub samples: u64,
    /// Regions carved and decoded.
    pub regions: usize,
    /// Samples inside carved regions (the rest was discarded as quiet
    /// air without ever being buffered beyond the segmenter's ring).
    pub carved_samples: u64,
    /// Regions whose capture attempt the segmenting thread prepared
    /// (their shard workers only ran capture's stateful tail). Depends
    /// on thread timing, like `capture_attempt_ns`; the events do not.
    pub capture_attempts: usize,
    /// Wall time the segmenting thread spent in those attempts.
    pub capture_attempt_ns: u64,
    /// `push_samples` calls that blocked on a full shard queue —
    /// end-to-end backpressure reaching the source.
    pub source_stalls: u64,
    /// Highest occupancy of the [`Segmenter`]'s sample ring, at most
    /// [`StreamConfig::ring_capacity`].
    pub ring_high_water: usize,
    /// Per-shard ingest-queue stalls during this run (carver blocked on
    /// a full shard queue).
    pub shard_stalls: Vec<u64>,
    /// Per-shard ingest-queue high-water marks during this run.
    pub queue_high_water: Vec<usize>,
}

/// Everything a [`process_stream`](ShardedReceiver::process_stream) run
/// produced: per-region outcomes in stream order plus the run's
/// backpressure telemetry.
#[derive(Clone, Debug, Default)]
pub struct StreamOutcome {
    /// Per-region outcomes, sorted by region sequence (the deterministic
    /// merge, exactly like batch events are ordered by buffer index).
    pub regions: Vec<RegionOutcome>,
    /// The run's counters.
    pub stats: StreamStats,
}

impl StreamOutcome {
    /// The decode events per region, in stream order — directly
    /// comparable to [`ShardedReceiver::process_batch`] on the pre-cut
    /// region buffers.
    pub fn events(&self) -> Vec<Vec<ReceiverEvent>> {
        self.regions.iter().map(|r| r.events.clone()).collect()
    }
}

impl ShardedReceiver {
    /// Decodes a continuous IQ stream: runs `producer` on the calling
    /// thread with a [`StreamSource`] to push arbitrary sample chunks
    /// into, whose pushes run the source→detect→carve→route graph (and
    /// the capture attempts of regions whose shard is behind, see module
    /// docs) in place, and decodes carved regions on the shard workers —
    /// with end-to-end backpressure (see module docs) and the same
    /// deterministic merge as [`Self::process_batch`].
    ///
    /// Returns once the producer closure has returned and every carved
    /// region is decoded. The events are bit-identical to cutting the
    /// same air with [`carve_buffer`] and feeding the regions through
    /// `process_batch` — the stream-vs-precut identity pinned by
    /// `tests/stream.rs` and the soak bench.
    ///
    /// # Example
    ///
    /// ```
    /// use zigzag_core::config::{ClientRegistry, DecoderConfig, ShardConfig, StreamConfig};
    /// use zigzag_core::engine::ShardedReceiver;
    /// use zigzag_phy::complex::Complex;
    ///
    /// let mut rx = ShardedReceiver::new(
    ///     DecoderConfig::shared_ap(),
    ///     ShardConfig { shards: 2, queue_depth: 4 },
    ///     ClientRegistry::new(),
    /// );
    /// let air = vec![Complex::real(0.01); 20_000];
    /// let out = rx.process_stream(&StreamConfig::default(), |src| {
    ///     for chunk in air.chunks(1_000) {
    ///         src.push_samples(chunk);
    ///     }
    /// });
    /// // quiet air, no associated clients: nothing to carve, nothing lost
    /// assert_eq!(out.stats.samples, 20_000);
    /// assert!(out.regions.is_empty());
    /// ```
    pub fn process_stream<F>(&mut self, scfg: &StreamConfig, producer: F) -> StreamOutcome
    where
        F: FnOnce(&mut StreamSource<'_>),
    {
        let n = self.cores.len();
        let depth = self.shard_cfg.queue_depth.max(1);
        let queues: Vec<IngestQueue<RegionJob>> = (0..n).map(|_| IngestQueue::new(depth)).collect();
        let results: Vec<Mutex<Vec<RegionOutcome>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let Self { cfg, registry, pipeline, preamble, cores, loads, .. } = self;
        let mut src = StreamSource {
            seg: Segmenter::new(cfg, registry, scfg),
            regions: Vec::new(),
            queues: &queues,
            loads,
            cfg,
            registry,
            preamble,
            attempt_ws: Scratch::with_backend(cfg.backend),
            stats: StreamStats::default(),
        };
        let pipeline = &*pipeline;

        std::thread::scope(|s| {
            for ((core, queue), slot) in cores.iter_mut().zip(&queues).zip(&results) {
                s.spawn(move || {
                    // a dead worker must not strand the source on its queue
                    let _closer = OnDrop(|| queue.close());
                    let mut local = Vec::new();
                    while let Some(job) = queue.pop() {
                        let queue_wait_ns = job.enqueued.elapsed().as_nanos() as u64;
                        let region = job.region;
                        let mut unit = UnitCtx::with_detections(&region.samples, region.detections);
                        unit.capture = job.capture;
                        let events = pipeline.run_unit(core, &mut unit);
                        local.push(RegionOutcome {
                            seq: region.seq,
                            start: region.start,
                            len: region.samples.len(),
                            queue_wait_ns,
                            events,
                        });
                    }
                    *slot.lock().expect("stream result slot poisoned") = local;
                });
            }

            // the caller's thread: produce → segment → route. However it
            // exits, even by a producer or routing panic, the queues
            // close, so every worker drains and exits and the panic
            // propagates.
            let _closer = OnDrop(|| queues.iter().for_each(IngestQueue::close));
            producer(&mut src);
            src.finish();
        });

        let mut region_out: Vec<RegionOutcome> = results
            .into_iter()
            .flat_map(|m| m.into_inner().expect("stream result slot poisoned"))
            .collect();
        region_out.sort_by_key(|r| r.seq);

        let stats = StreamStats {
            regions: region_out.len(),
            ring_high_water: src.seg.ring.high_water(),
            shard_stalls: queues.iter().map(|q| q.stalls()).collect(),
            queue_high_water: queues.iter().map(|q| q.high_water()).collect(),
            ..src.stats
        };
        StreamOutcome { stats, regions: region_out }
    }
}
