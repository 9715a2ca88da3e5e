//! # The batched parallel decode engine
//!
//! This subsystem restructures the receiver around three ideas, in
//! service of the ROADMAP's "production-scale, fast as the hardware
//! allows" north star:
//!
//! * **[`stage`]** — the §5.1d receiver flow as a trait-based pipeline of
//!   [`DecodeStage`]s (Detect → StandardDecode → Capture → Match → Plan →
//!   Zigzag → Recover → Store) over the receiver's long-lived state,
//!   [`ReceiverCore`] — the one receiver type. [`ReceiverCore::process`]
//!   runs the standard [`Pipeline`]; [`ReceiverCore::receive`] runs a
//!   custom (reordered, trimmed or instrumented) one. The match/store
//!   stages run the k-way [`crate::matchset`] layer: collisions
//!   accumulate in a client-set-keyed [`CollisionStore`] until a
//!   decodable k×k [`MatchSet`] exists, so §4.5's k-sender story runs
//!   end-to-end through [`ReceiverCore::receive`].
//! * **[`batch`]** — a [`BatchEngine`] that fans independent work units
//!   (buffers from distinct clients/APs, matched collision pairs,
//!   Monte-Carlo rounds) across a scoped thread pool with deterministic
//!   per-unit seeding ([`unit_seed`]), so a multi-threaded run is
//!   bit-for-bit identical to a single-threaded one. Its keyed map runs
//!   stateful work: each item names the receiver it decodes on, one
//!   receiver's items run in order on one worker, and distinct receivers
//!   run in parallel. Sharded batches (key = shard) and the cell
//!   simulator's episodes (key = episode) both decode through it.
//! * **[`scratch`]** — a [`Scratch`] arena threaded through the
//!   chunk-decode / image-synthesis / subtraction hot loops, turning the
//!   dozens of per-symbol `Vec<Complex>` allocations into reused buffers
//!   (with matching in-place primitives in `zigzag-phy`:
//!   `Fir::apply_into`, `correlate::scan_into`, `mrc::combine_weighted_into`,
//!   `interp::resample_into`). The scratch also carries the
//!   [`zigzag_phy::kernel::Kernel`] — the pluggable scalar/simd
//!   compute backend every phy hot loop dispatches to, selected once per
//!   decode context via `DecoderConfig::backend`.
//!
//! * **[`shard`]** — the multi-core receiver: N `ReceiverCore` shards.
//!   A batch is detect → route → keyed map: one parallel detect pass
//!   (whose detections the shard pipeline reuses), a detected-client-set
//!   hash picks each buffer's shard, and the keyed map decodes every
//!   shard's buffers in order and returns events in input order — so
//!   multi-shard output is bit-identical to a single `ReceiverCore`.
//!   Each shard owns its own `CollisionStore` + `Scratch`; shards share
//!   only the association registry behind the read-mostly
//!   [`SharedRegistry`](crate::config::SharedRegistry) handle. Only the
//!   continuous stream ([`crate::stream`]) is queue-fed, with
//!   backpressure, because only its input is unbounded.
//!
//! Remaining scaling work (alternative compute backends, NUMA-aware
//! shard pinning, cross-shard match-set migration) plugs in here: a
//! backend is a `Pipeline` variant, a sharding policy is a routing
//! function over detected client sets.

pub mod batch;
pub mod scratch;
pub mod shard;
pub mod stage;

pub use crate::matchset::{CollisionStore, MatchSet, StoredCollision};
pub use batch::{unit_seed, BatchEngine};
pub use scratch::{BufPool, Scratch};
pub use shard::{route_shard, ShardedReceiver};
pub use stage::{
    CaptureStage, DecodePlan, DecodeStage, DetectStage, Flow, MatchStage, MatchedCollision,
    Pipeline, PlanStage, ReceiverCore, RecoverStage, StandardDecodeStage, StoreStage, UnitCtx,
    ZigzagStage,
};
