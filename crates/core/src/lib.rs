//! # zigzag-core — the ZigZag receiver
//!
//! The paper's primary contribution: an 802.11 receiver that decodes
//! collisions. "ZigZag exploits 802.11 retransmissions which, in the case
//! of hidden terminals, cause successive collisions. Due to asynchrony,
//! these collisions have different interference-free stretches at their
//! start, which ZigZag uses to bootstrap its decoding."
//!
//! ## Pipeline (§5.1d implementation flow)
//!
//! 1. [`detect`] — find packet starts / classify collisions by
//!    frequency-compensated preamble correlation (§4.2.1).
//! 2. [`standard`] — try the ordinary single-packet decode first; ZigZag
//!    adds nothing when there is no collision.
//! 3. [`matcher`] — the §4.2.2 correlation metric, and [`matchset`] —
//!    the k-way collision store and match layer built on it (§4.2.2
//!    generalized to §4.5's k senders / k collisions).
//! 4. [`schedule`] — plan interference-free chunks greedily (§4.5; also
//!    powers the Fig 4-7 Monte Carlo through [`schedule::decodable`]).
//! 5. [`zigzag`] — execute: decode → re-encode → subtract across
//!    collisions, with parameter tracking, forward+backward passes and
//!    MRC (§4.2.3, §4.2.4, §4.3).
//! 6. [`capture`] — capture effect, single-collision interference
//!    cancellation, cross-collision MRC, ANC mode (Fig 4-1d/e).
//! 7. [`recovery`] — algebraic batch recovery: joint Gaussian
//!    elimination over collision groups the chunk scheduler cannot peel
//!    (§4.5's Δ₁ = Δ₂ failure case among them), fed by rejected match
//!    sets and the salvage pool of store evictions.
//! 8. [`ReceiverCore`] — the AP receiver tying it all together: the
//!    association registry, the unmatched-collision store and the
//!    delivery history, driven one buffer at a time by
//!    [`ReceiverCore::process`]; [`receiver`] defines the events it
//!    reports.
//!
//! The steps above execute as a trait-based stage pipeline inside
//! [`engine`], which also provides the [`BatchEngine`] (deterministic
//! multi-threaded fan-out over independent work units, and the keyed map
//! [`BatchEngine::map_keyed`] that sharded batches and the cell
//! simulator's lowered episodes decode through) and the
//! [`Scratch`] arena the hot loops draw their buffers from.
//!
//! Supporting modules: [`view`] (per-packet-per-collision channel model —
//!  estimation, chunk decode, image synthesis, tracking), [`config`]
//! (receiver knobs + association registry), [`intervals`] (decoded-range
//! bookkeeping), and [`stream`] — the
//! streaming flowgraph front end that carves collision regions out of a
//! continuous IQ stream and feeds them to the sharded receiver with
//! end-to-end backpressure.

#![warn(missing_docs)]

pub mod capture;
pub mod config;
pub mod detect;
pub mod engine;
pub mod intervals;
pub mod matcher;
pub mod matchset;
pub mod receiver;
pub mod recovery;
pub mod schedule;
mod sic;
pub mod standard;
pub mod stream;
pub mod view;
pub mod zigzag;

pub use config::{
    ClientInfo, ClientRegistry, DecoderConfig, RecoveryConfig, ShardConfig, SharedRegistry,
    StreamConfig,
};
pub use engine::{unit_seed, BatchEngine, Pipeline, ReceiverCore, Scratch, ShardedReceiver};
pub use matchset::{CollisionStore, MatchOutcome, MatchSet, RejectedSet, StoredCollision};
pub use receiver::ReceiverEvent;
pub use recovery::{RecoveredPacket, RecoveryGroup, SalvagePool};
pub use stream::{
    carve_buffer, CarvedRegion, RegionOutcome, Segmenter, StreamOutcome, StreamSource, StreamStats,
};
pub use zigzag::{CollisionSpec, PacketSpec, ZigzagDecoder, ZigzagOutput};
