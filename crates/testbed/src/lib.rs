//! # zigzag-testbed — the 14-node evaluation harness
//!
//! Rebuilds the paper's experimental environment (§5.1–5.2): a 14-node
//! topology with per-link SNRs and carrier-sense relationships
//! ([`topology`]), saturated sender-pair flow experiments under the three
//! compared schemes ([`experiment`]), and the §5.1f metrics — BER,
//! the BER<10⁻³ delivery rule, normalized throughput, CDFs
//! ([`metrics`]).
//!
//! The evaluation binaries in `crates/bench` drive this crate to
//! regenerate every figure of Chapter 5.

#![warn(missing_docs)]

pub mod cell;
pub mod experiment;
pub mod metrics;
pub mod topology;

pub use cell::SignalResolver;

pub use experiment::{
    continuous_air, impaired_recovery_scenario, registry_for, run_impairment_sweep, run_pair,
    run_set, run_sharded_sets, ExperimentConfig, ImpairmentPoint, PairRun, PairScenario,
    ReclaimPoint, SetOutcome, SetScenario, ShardedRun, StreamAir,
};
pub use metrics::{delivered, Samples, SchemeOutcome, DELIVERY_BER};
pub use topology::Testbed;
