//! # zigzag-mac — 802.11 MAC behaviour simulator
//!
//! The MAC-layer substrate of the reproduction: the 802.11 rules whose
//! interaction with hidden terminals *creates* ZigZag's opportunity —
//! "an 802.11 sender retransmits a packet until it is acked or timed out
//! … and jitters every transmission by a short random interval" (§1).
//!
//! * [`params`] — 802.11g timing (slot/SIFS/DIFS/ACK, CWmin/max,
//!   Appendix A's numbers).
//! * [`backoff`] — random jitter draws, fixed and exponential windows,
//!   the per-frame DCF stage machine, and hidden-terminal collision
//!   offset patterns (the Fig 4-7 and Fig 5-9 workloads).
//! * [`ack`] — Lemma 4.4.1 (synchronous-ACK feasibility ≥ 93.75%) and the
//!   Fig 4-5 ack schedule.
//! * [`cell`] — the cell-scale discrete-event co-simulator: millions of
//!   symbolic stations under DCF or slotted-ALOHA disciplines, with
//!   genuine collisions handed to a pluggable [`cell::CollisionResolver`]
//!   (the signal-level pipeline, a fitted [`cell::DecodeModel`], or a
//!   sampled split of the two).

#![warn(missing_docs)]

pub mod ack;
pub mod backoff;
pub mod cell;
pub mod params;

pub use ack::{schedule_acks, sync_ack_probability_bound, sync_ack_probability_mc, AckSchedule};
pub use backoff::{Backoff, BackoffState};
pub use params::MacParams;
