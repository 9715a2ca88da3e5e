//! Literature scenarios as ready-made configurations.
//!
//! * [`CellPreset::DcfHidden`] — 802.11 DCF over a tiled hidden-terminal
//!   topology: the paper's own setting (§5) at cell scale.
//! * [`CellPreset::ZigzagAloha`] — ZigZag-enhanced slotted ALOHA
//!   (arXiv:1501.00976): the same MAC as the plain baseline, but the AP
//!   peels colliding pairs across re-collisions and reaps buried peers
//!   from stored collisions when one member finally gets a clean solo
//!   through (§4.1).
//! * [`CellPreset::PlainAloha`] — classic slotted ALOHA with
//!   binary-exponential backoff and a conventional receiver: the
//!   baseline the ZigZag variant must dominate beyond the saturation
//!   knee.

use crate::backoff::Backoff;
use crate::cell::discipline::{AlohaBackoff, Discipline};
use crate::cell::model::DecodeModel;
use crate::cell::sensing::SensingGraph;
use crate::cell::sim::{run_cell, ArrivalModel, CellConfig, CellStats};
use crate::params::MacParams;

/// A named scenario from the paper or its follow-on literature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CellPreset {
    /// DCF with `groups_per_cell` mutually-hidden sensing groups tiled
    /// over `cells` APs (12-slot packets, exponential backoff).
    DcfHidden {
        /// Number of independent cells (APs).
        cells: u32,
        /// Hidden sensing groups per cell.
        groups_per_cell: u32,
    },
    /// ZigZag-enhanced slotted ALOHA (arXiv:1501.00976): 1-slot frames,
    /// binary-exponential rescheduling, ZigZag AP.
    ZigzagAloha {
        /// Number of independent cells (APs).
        cells: u32,
    },
    /// Plain slotted ALOHA: 1-slot frames, binary-exponential
    /// rescheduling, conventional AP (capture only).
    PlainAloha {
        /// Number of independent cells (APs).
        cells: u32,
    },
}

impl CellPreset {
    /// `true` if the preset's AP runs ZigZag (stores collisions and
    /// peels across rounds).
    pub fn is_zigzag(&self) -> bool {
        match self {
            CellPreset::DcfHidden { .. } | CellPreset::ZigzagAloha { .. } => true,
            CellPreset::PlainAloha { .. } => false,
        }
    }

    /// Builds the simulator configuration for this scenario.
    pub fn config(
        &self,
        stations: u32,
        slots: u64,
        offered_per_slot: f64,
        seed: u64,
    ) -> CellConfig {
        let (discipline, sensing, packet_slots) = match *self {
            CellPreset::DcfHidden { cells, groups_per_cell } => (
                Discipline::Dcf { policy: Backoff::Exponential },
                SensingGraph::hidden_groups(cells, groups_per_cell),
                12,
            ),
            CellPreset::ZigzagAloha { cells } => (
                // Deliberately the *same* MAC as the plain baseline: the
                // entire throughput gap is then attributable to the AP —
                // pair peeling across re-collisions (arXiv:1501.00976)
                // plus the §4.1 reap, where one member's eventual solo
                // retransmission recovers its buried peers from the
                // stored collisions without them retransmitting at all.
                Discipline::SlottedAloha {
                    backoff: AlohaBackoff::BinaryExponential { base: 2, cap: 64 },
                },
                SensingGraph::clique(cells),
                1,
            ),
            CellPreset::PlainAloha { cells } => (
                Discipline::SlottedAloha {
                    backoff: AlohaBackoff::BinaryExponential { base: 2, cap: 64 },
                },
                SensingGraph::clique(cells),
                1,
            ),
        };
        CellConfig {
            stations,
            slots,
            discipline,
            sensing,
            arrivals: ArrivalModel::Poisson { per_slot: offered_per_slot },
            packet_slots,
            ack_slots: 1,
            mac: MacParams::default(),
            seed,
            record_trace: false,
        }
    }

    /// The symbolic decode model matching this scenario's AP.
    pub fn model(&self, seed: u64) -> DecodeModel {
        if self.is_zigzag() {
            DecodeModel::zigzag_ap(seed)
        } else {
            DecodeModel::plain_ap(seed)
        }
    }
}

/// One point of a throughput-vs-offered-load curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadPoint {
    /// Offered load, frames per slot (aggregate).
    pub offered: f64,
    /// Delivered frames per slot.
    pub throughput: f64,
    /// The run's aggregate statistics.
    pub stats: CellStats,
}

/// Sweeps offered load for `preset`, fully symbolically (the model
/// resolver — no signal lowering), and returns one [`LoadPoint`] per
/// entry of `loads`.
pub fn symbolic_curve(
    preset: CellPreset,
    stations: u32,
    slots: u64,
    loads: &[f64],
    seed: u64,
) -> Vec<LoadPoint> {
    loads
        .iter()
        .map(|&offered| {
            let cfg = preset.config(stations, slots, offered, seed);
            let mut model = preset.model(seed);
            let out = run_cell(&cfg, &mut model);
            LoadPoint { offered, throughput: out.stats.throughput(slots), stats: out.stats }
        })
        .collect()
}

/// Index of the saturation knee of a throughput curve: the load point
/// with maximum throughput (ties resolve to the lowest load).
pub fn saturation_knee(curve: &[LoadPoint]) -> usize {
    let mut best = 0;
    for (i, p) in curve.iter().enumerate() {
        if p.throughput > curve[best].throughput {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_consistent_configs() {
        let zz = CellPreset::ZigzagAloha { cells: 2 };
        let cfg = zz.config(1_000, 500, 0.5, 3);
        assert_eq!(cfg.packet_slots, 1);
        assert!(zz.is_zigzag());
        assert!(zz.model(3).zigzag);

        let plain = CellPreset::PlainAloha { cells: 2 };
        assert!(!plain.is_zigzag());
        assert!(!plain.model(3).zigzag);

        let dcf = CellPreset::DcfHidden { cells: 4, groups_per_cell: 2 };
        let cfg = dcf.config(1_000, 500, 0.5, 3);
        assert_eq!(cfg.sensing.cells(), 4);
        assert_eq!(cfg.packet_slots, 12);
    }

    #[test]
    fn zigzag_aloha_beats_plain_at_saturation() {
        // compact version of the bench gate: beyond the knee, the
        // ZigZag-enhanced variant strictly dominates
        let loads = [0.2, 0.5, 0.9, 1.4];
        let zz = symbolic_curve(CellPreset::ZigzagAloha { cells: 1 }, 3_000, 3_000, &loads, 77);
        let plain = symbolic_curve(CellPreset::PlainAloha { cells: 1 }, 3_000, 3_000, &loads, 77);
        let knee = saturation_knee(&plain);
        for i in knee.max(1)..loads.len() {
            assert!(
                zz[i].throughput > plain[i].throughput,
                "zigzag {} <= plain {} at load {}",
                zz[i].throughput,
                plain[i].throughput,
                loads[i]
            );
        }
    }

    #[test]
    fn knee_finds_the_peak() {
        let mk = |offered: f64, thr: f64| LoadPoint {
            offered,
            throughput: thr,
            stats: CellStats::default(),
        };
        let curve = [mk(0.1, 0.1), mk(0.5, 0.35), mk(1.0, 0.3), mk(2.0, 0.2)];
        assert_eq!(saturation_knee(&curve), 1);
    }
}
