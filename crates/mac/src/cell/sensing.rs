//! Configurable sensing graphs.
//!
//! Who can hear whom is the whole hidden-terminal story (§2): the paper's
//! testbed is 10% hidden pairs, 10% partial. At cell scale the graph is
//! expressed over *sensing groups* — stations in the same group share a
//! carrier-sense domain — laid out across independent cells (one AP
//! each). Within a cell, a station senses another group's transmission
//! with a configurable probability: 1 (perfect CSMA), 0 (hidden), or a
//! partial-sensing value in between, matching
//! `zigzag_testbed::topology::Sensing`.

/// How sensing probabilities between groups of one cell are derived.
#[derive(Clone, Debug, PartialEq)]
pub enum SenseRule {
    /// Same group ⇒ perfect sensing; different groups ⇒ hidden. The
    /// classic hidden-terminal layout (paper Fig 1: Alice and Bob both
    /// reach the AP, not each other).
    Within,
    /// Every station senses every other (no hidden terminals at all) —
    /// the CSMA baseline.
    Clique,
    /// Row-major `groups × groups` matrix: `probs[listener * g + tx]` is
    /// the probability that a `listener`-group station senses a
    /// `tx`-group transmission.
    Matrix(Vec<f64>),
    /// Station-level `n × n` matrix (single cell, one group per
    /// station): `probs[listener * n + tx]` — the shape
    /// `zigzag_testbed::topology::Testbed` pairwise sensing lowers to.
    Pairwise(Vec<f64>),
}

/// The sensing topology of a whole deployment: `cells` independent APs,
/// each serving `groups_per_cell` sensing groups.
///
/// Station `i` lives in cell `i % cells`, group `(i / cells) %
/// groups_per_cell` — consecutive station ids stripe across cells so any
/// contiguous id range loads all cells evenly.
#[derive(Clone, Debug, PartialEq)]
pub struct SensingGraph {
    cells: u32,
    groups_per_cell: u32,
    rule: SenseRule,
}

impl SensingGraph {
    /// Perfect carrier sensing everywhere: `cells` APs, one clique each.
    pub fn clique(cells: u32) -> Self {
        Self { cells: cells.max(1), groups_per_cell: 1, rule: SenseRule::Clique }
    }

    /// `groups` mutually-hidden groups per cell (perfect sensing within a
    /// group): the Fig 1 topology tiled across `cells` APs.
    pub fn hidden_groups(cells: u32, groups: u32) -> Self {
        Self { cells: cells.max(1), groups_per_cell: groups.max(1), rule: SenseRule::Within }
    }

    /// Explicit group-level sensing probabilities (row-major
    /// `groups × groups`), replicated in every cell.
    ///
    /// # Panics
    /// If `probs.len() != groups * groups`.
    pub fn matrix(cells: u32, groups: u32, probs: Vec<f64>) -> Self {
        let groups = groups.max(1);
        assert_eq!(probs.len(), (groups * groups) as usize, "matrix must be groups^2");
        Self { cells: cells.max(1), groups_per_cell: groups, rule: SenseRule::Matrix(probs) }
    }

    /// Station-level sensing probabilities for a small single-cell
    /// deployment: `probs[listener][tx]`. This is the adapter target for
    /// `zigzag_testbed::topology` pairwise `Sensing` values.
    ///
    /// # Panics
    /// If `probs` is not square.
    pub fn pairwise(probs: Vec<Vec<f64>>) -> Self {
        let n = probs.len().max(1) as u32;
        let mut flat = Vec::with_capacity((n * n) as usize);
        for row in &probs {
            assert_eq!(row.len(), probs.len(), "pairwise matrix must be square");
            flat.extend_from_slice(row);
        }
        Self { cells: 1, groups_per_cell: n, rule: SenseRule::Pairwise(flat) }
    }

    /// Number of cells (independent APs / media).
    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// Sensing groups per cell.
    pub fn groups_per_cell(&self) -> u32 {
        self.groups_per_cell
    }

    /// Total sensing groups across all cells.
    pub fn group_count(&self) -> usize {
        (self.cells * self.groups_per_cell) as usize
    }

    /// The cell (AP) a station transmits to.
    pub fn cell_of(&self, station: u32) -> u32 {
        match self.rule {
            SenseRule::Pairwise(_) => 0,
            _ => station % self.cells,
        }
    }

    /// The station's sensing group *within its cell*.
    pub fn group_of(&self, station: u32) -> u32 {
        match self.rule {
            SenseRule::Pairwise(_) => station.min(self.groups_per_cell - 1),
            _ => (station / self.cells) % self.groups_per_cell,
        }
    }

    /// Probability that a station of local group `listener_group` senses
    /// a transmission by a station of local group `tx_group` in the
    /// *same* cell. Groups are [`Self::group_of`] values, so a caller
    /// that keeps a station's group pays no division per query.
    pub fn group_sense_prob(&self, listener_group: u32, tx_group: u32) -> f64 {
        match &self.rule {
            SenseRule::Clique => 1.0,
            SenseRule::Within => {
                if listener_group == tx_group {
                    1.0
                } else {
                    0.0
                }
            }
            SenseRule::Matrix(p) | SenseRule::Pairwise(p) => {
                p[(listener_group * self.groups_per_cell + tx_group) as usize].clamp(0.0, 1.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_balances_cells() {
        let g = SensingGraph::hidden_groups(4, 2);
        let mut per_cell = [0u32; 4];
        for s in 0..80 {
            per_cell[g.cell_of(s) as usize] += 1;
        }
        assert_eq!(per_cell, [20; 4]);
        assert_eq!(g.group_count(), 8);
    }

    #[test]
    fn within_rule_hides_cross_group() {
        let g = SensingGraph::hidden_groups(2, 2);
        // stations 0 and 2 share cell 0; 0 is group 0, 2 is group 1
        assert_eq!(g.cell_of(0), g.cell_of(2));
        assert_ne!(g.group_of(0), g.group_of(2));
        assert_eq!(g.group_sense_prob(g.group_of(0), g.group_of(2)), 0.0);
        assert_eq!(g.group_sense_prob(g.group_of(0), g.group_of(0)), 1.0);
    }

    #[test]
    fn clique_always_senses() {
        let g = SensingGraph::clique(3);
        assert_eq!(g.groups_per_cell(), 1);
        assert_eq!(g.group_sense_prob(g.group_of(5), 0), 1.0);
    }

    #[test]
    fn pairwise_indexes_by_station() {
        let g = SensingGraph::pairwise(vec![
            vec![1.0, 0.0, 0.5],
            vec![0.0, 1.0, 1.0],
            vec![0.5, 1.0, 1.0],
        ]);
        assert_eq!(g.cells(), 1);
        assert_eq!((g.cell_of(2), g.group_of(2)), (0, 2));
        assert_eq!(g.group_sense_prob(g.group_of(0), 2), 0.5);
        assert_eq!(g.group_sense_prob(g.group_of(1), 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "groups^2")]
    fn matrix_shape_checked() {
        let _ = SensingGraph::matrix(1, 2, vec![1.0; 3]);
    }
}
