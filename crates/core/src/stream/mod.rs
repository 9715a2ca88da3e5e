//! # The streaming flowgraph front end
//!
//! Everything else in this crate decodes *buffers*; a real AP sees an
//! unbounded IQ sample stream. This module is the flowgraph that turns
//! one into the other — a windowed source→detect→carve→route→capture
//! operator graph over a ring of raw samples, run inside the producer's
//! own [`StreamSource::push_samples`] calls:
//!
//! ```text
//!                    ┌────────────── Segmenter ──────────────┐
//! push_samples ──► SampleRing ──► WindowScanner ──► RegionCarver ──► CarvedRegion
//!   (producer,    one advance,    the §4.2.1         collision          │
//!    caller's     absolute idx    detector, one      regions across     ▼
//!    thread)                      window at a time   window bounds   route ──► capture_attempt ──► IngestQueue ──► ReceiverCore
//!                                                                           (shard behind)                         (shard workers)
//! ```
//!
//! * `SampleRing` ingests arbitrary-sized chunks and addresses them in
//!   absolute stream coordinates. It holds one advance
//!   ([`StreamConfig::ring_capacity`]) and never blocks: a full ring is
//!   freed by advancing the scan.
//! * `WindowScanner` is the receiver's one collision detector
//!   ([`crate::detect`]), advanced over sliding windows: it carries its
//!   correlation context across window bounds so **no sample is scanned
//!   twice**, and commits detections at fixed window-stride boundaries,
//!   which is what makes the output independent of producer chunking.
//!   A pre-cut buffer's `detect_packets` is one final advance of the
//!   same scanner, so the stream detects what the buffer would.
//! * `RegionCarver` assembles collision regions
//!   from runs of detections — including collisions whose second packet
//!   starts in a later window — and emits `UnitCtx`-ready buffers with
//!   their detections attached.
//! * the push that completes a region routes it into the existing
//!   sharded receiver with its detections attached (shards never
//!   re-scan). When the region's shard already has a job waiting, the
//!   push first runs the region's [`capture_attempt`] (the capture
//!   path's pure decodes) itself and ships it along, so that shard's
//!   capture stage runs only its stateful tail. Routing has
//!   **end-to-end backpressure**: a full shard queue blocks the
//!   [`StreamSource::push_samples`] call that routes into it. Bounded
//!   memory; never a dropped sample.
//!
//! The determinism gate: the same air pushed through the stream front
//! end (any chunking, any backend, any shard count) and pre-cut with
//! [`carve_buffer`] then batch-decoded yields bit-identical decode
//! events — pinned by `tests/stream.rs` and the soak bench.
//!
//! [`capture_attempt`]: crate::capture::capture_attempt
//! [`StreamConfig::ring_capacity`]: crate::config::StreamConfig::ring_capacity

mod carver;
mod driver;
mod queue;
mod ring;

pub use carver::CarvedRegion;
pub use driver::{
    carve_buffer, RegionOutcome, Segmenter, StreamOutcome, StreamSource, StreamStats,
};
