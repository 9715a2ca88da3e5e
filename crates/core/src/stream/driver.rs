//! The streaming drivers: the synchronous source→detect→carve core
//! ([`Segmenter`]) and the threaded operator graph that feeds carved
//! regions into the sharded receiver with end-to-end backpressure
//! ([`ShardedReceiver::process_stream`]).
//!
//! The threaded graph also runs a region's [`capture_attempt`] before
//! queueing it when the region's shard already has a job waiting: the
//! capture path's anchor and weak decodes depend on the region alone,
//! so a shard worker that is behind the segmenting thread keeps only the
//! stateful tail of its capture stage, and a segmenting thread that is
//! itself the bottleneck (many shards, or cheap regions) leaves the
//! decodes to the workers.
//!
//! # Backpressure chain
//!
//! ```text
//! producer thread        segmenting (caller) thread                 shard workers
//! push_samples ──► SampleRing ──► scan ──► carve ──► capture ──► IngestQueue ──► decode
//!      ▲ blocks when full │                          attempt         │ blocks when full
//!      └──────────────────┴──────────────────────────────────────────┘
//! ```
//!
//! A slow shard fills its bounded `IngestQueue`; the carver's dispatch
//! blocks; the driver stops draining the ring; the ring fills; and
//! [`StreamSource::push_samples`] blocks. Memory is bounded by
//! `ring_depth + shards × queue_depth × region` and **no sample is ever
//! dropped** — the contract `tests/stream.rs` pins at `queue_depth = 1`.
//! This is the only queue-fed path: a finite batch
//! ([`ShardedReceiver::process_batch`]) goes through the keyed map
//! instead, since nothing upstream of it needs throttling.
//!
//! # Determinism
//!
//! Window commit points are fixed multiples of the window stride and the
//! carve rules are functions of the committed scan alone, so the carved
//! regions — and therefore the decode events — are bit-identical no
//! matter how the producer chunks its pushes, how often the ring stalls,
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
use std::sync::{Condvar, Mutex};
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
            ring: SampleRing::new(scfg.ring_floor(l)),
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

#[derive(Debug)]
struct SharedState {
    ring: SampleRing,
    closed: bool,
    aborted: bool,
    stalls: u64,
}

/// The blocking producer/consumer wrapper around the [`SampleRing`]: the
/// boundary where source backpressure becomes a blocked `push_samples`.
#[derive(Debug)]
struct SharedStream {
    state: Mutex<SharedState>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl SharedStream {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(SharedState {
                ring: SampleRing::new(cap),
                closed: false,
                aborted: false,
                stalls: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocking push of the whole chunk (in ring-capacity pieces).
    fn push(&self, mut chunk: &[Complex]) {
        while !chunk.is_empty() {
            let mut st = self.state.lock().expect("stream ring poisoned");
            let mut counted = false;
            while st.ring.free() == 0 && !st.aborted {
                if !counted {
                    st.stalls += 1;
                    counted = true;
                }
                st = self.not_full.wait(st).expect("stream ring poisoned");
            }
            if st.aborted {
                // a dead driver can consume nothing more; unblock the
                // producer so the panic can propagate out of the scope
                return;
            }
            let took = st.ring.push(chunk);
            chunk = &chunk[took..];
            drop(st);
            self.not_empty.notify_one();
        }
    }

    /// Blocking pop of up to `max` samples into `out` (cleared first).
    /// Returns `false` once the stream is closed and drained.
    fn pop_chunk(&self, max: usize, out: &mut Vec<Complex>) -> bool {
        out.clear();
        let mut st = self.state.lock().expect("stream ring poisoned");
        loop {
            if !st.ring.is_empty() {
                let lo = st.ring.start();
                let take = st.ring.len().min(max);
                out.extend_from_slice(st.ring.slice(lo, lo + take));
                st.ring.discard_to(lo + take);
                drop(st);
                self.not_full.notify_one();
                return true;
            }
            if st.closed {
                return false;
            }
            st = self.not_empty.wait(st).expect("stream ring poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("stream ring poisoned").closed = true;
        self.not_empty.notify_all();
    }

    fn abort(&self) {
        self.state.lock().expect("stream ring poisoned").aborted = true;
        self.not_full.notify_all();
    }

    /// `(samples accepted, producer stalls, ring high water)`.
    fn stats(&self) -> (u64, u64, usize) {
        let st = self.state.lock().expect("stream ring poisoned");
        (st.ring.end() as u64, st.stalls, st.ring.high_water())
    }
}

/// Runs its closure when dropped — the stream graph's one panic-safety
/// latch. However a thread exits (return or unwind), it closes or aborts
/// what the other threads block on, so no thread is left asleep on a
/// condvar nobody will signal and a panic always propagates.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// The producer's handle into a running
/// [`process_stream`](ShardedReceiver::process_stream): push raw IQ
/// sample chunks of any size; the call **blocks** while the bounded ring
/// is full — the end of the backpressure chain. Samples are never
/// dropped (the only exception: the receiver side panicked, in which
/// case the stream is aborted so the panic can propagate).
pub struct StreamSource<'a> {
    shared: &'a SharedStream,
}

impl StreamSource<'_> {
    /// Pushes one chunk, blocking while the ring is full.
    pub fn push_samples(&self, chunk: &[Complex]) {
        self.shared.push(chunk);
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
    /// Samples accepted from the producer (every one was processed).
    pub samples: u64,
    /// Regions carved and decoded.
    pub regions: usize,
    /// Samples inside carved regions (the rest was discarded as quiet
    /// air without ever being buffered beyond the ring).
    pub carved_samples: u64,
    /// Regions whose capture attempt the segmenting thread prepared
    /// (their shard workers only ran capture's stateful tail). Depends
    /// on thread timing, like `capture_attempt_ns`; the events do not.
    pub capture_attempts: usize,
    /// Wall time the segmenting thread spent in those attempts.
    pub capture_attempt_ns: u64,
    /// `push_samples` calls that blocked on a full ring — end-to-end
    /// backpressure reaching the source.
    pub source_stalls: u64,
    /// Highest ring occupancy reached.
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

/// One routed unit of stream ingest: an owned carved region, its capture
/// attempt when the segmenting thread prepared one, and its enqueue
/// timestamp (for queue-latency accounting).
struct RegionJob {
    region: CarvedRegion,
    capture: Option<CaptureAttempt>,
    enqueued: Instant,
}

impl ShardedReceiver {
    /// Decodes a continuous IQ stream: spawns `producer` on its own
    /// thread with a [`StreamSource`] to push arbitrary sample chunks
    /// into, runs the source→detect→carve→route graph (and the capture
    /// attempts of regions whose shard is behind, see module docs) on the
    /// calling thread, and decodes carved regions on the shard workers —
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
        F: FnOnce(&StreamSource<'_>) + Send,
    {
        let n = self.cores.len();
        let depth = self.shard_cfg.queue_depth.max(1);
        let l = self.preamble.len();
        let mut seg = Segmenter::new(&self.cfg, &self.registry, scfg);
        let pull = seg.window;
        let shared = SharedStream::new(scfg.effective_ring_depth(l));
        let queues: Vec<IngestQueue<RegionJob>> = (0..n).map(|_| IngestQueue::new(depth)).collect();
        let results: Vec<Mutex<Vec<RegionOutcome>>> =
            (0..n).map(|_| Mutex::new(Vec::new())).collect();
        let Self { cfg, registry, pipeline, preamble, cores, loads, .. } = self;
        let (cfg, pipeline) = (&*cfg, &*pipeline);
        let shared_ref = &shared;

        let mut carved_samples = 0u64;
        let mut attempt_ws = Scratch::with_backend(cfg.backend);
        let (mut capture_attempts, mut capture_attempt_ns) = (0, 0u64);
        std::thread::scope(|s| {
            s.spawn(move || {
                // a producer that died mid-push must not strand the driver
                let _close = OnDrop(|| shared_ref.close());
                producer(&StreamSource { shared: shared_ref });
            });
            for ((core, queue), slot) in cores.iter_mut().zip(&queues).zip(&results) {
                s.spawn(move || {
                    // a dead worker must not strand the driver on its queue
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

            // driver (caller thread): drain ring → segment → route. Both
            // guards exist for panic safety: whatever kills the driver,
            // the workers' queues close and the producer's ring aborts,
            // so every thread exits and the panic propagates.
            let _abort = OnDrop(|| shared_ref.abort());
            let closer = OnDrop(|| queues.iter().for_each(IngestQueue::close));
            let mut chunk = Vec::new();
            let mut regions = Vec::new();
            loop {
                let more = shared.pop_chunk(pull, &mut chunk);
                if more {
                    seg.push(&chunk, &mut regions);
                } else {
                    seg.finish(&mut regions);
                }
                for region in regions.drain(..) {
                    let shard = route_shard(&collision_key(&region.detections, cfg.key_window), n);
                    loads[shard] += 1;
                    carved_samples += region.samples.len() as u64;
                    // the capture decodes depend on the region alone: run
                    // them here when the shard's worker has a job waiting,
                    // so this thread has slack before the worker reaches
                    // the region (one with fewer than two detections, or
                    // one `run_unit` rejects as non-finite, never reaches
                    // the capture stage)
                    let prepare = !queues[shard].is_empty()
                        && region.detections.len() >= 2
                        && all_finite(&region.samples);
                    let capture = prepare.then(|| {
                        capture_attempts += 1;
                        let start = Instant::now();
                        let attempt = capture_attempt(
                            &region.samples,
                            &region.detections,
                            registry,
                            preamble,
                            cfg,
                            &mut attempt_ws,
                        );
                        capture_attempt_ns += start.elapsed().as_nanos() as u64;
                        attempt
                    });
                    let job = RegionJob { region, capture, enqueued: Instant::now() };
                    if queues[shard].push(job).is_err() {
                        panic!("shard {shard} worker terminated before its ingest completed");
                    }
                }
                if !more {
                    break;
                }
            }
            drop(closer);
        });

        let mut region_out: Vec<RegionOutcome> = results
            .into_iter()
            .flat_map(|m| m.into_inner().expect("stream result slot poisoned"))
            .collect();
        region_out.sort_by_key(|r| r.seq);

        let (samples, source_stalls, ring_high_water) = shared.stats();
        StreamOutcome {
            stats: StreamStats {
                samples,
                regions: region_out.len(),
                carved_samples,
                capture_attempts,
                capture_attempt_ns,
                source_stalls,
                ring_high_water,
                shard_stalls: queues.iter().map(|q| q.stalls()).collect(),
                queue_high_water: queues.iter().map(|q| q.high_water()).collect(),
            },
            regions: region_out,
        }
    }
}
