//! Log-distance path loss with deterministic shadowing.
//!
//! The paper's testbed is 14 physical nodes in an indoor space (Fig 5-1);
//! link qualities and who-can-sense-whom emerge from geometry, walls and
//! multipath. We substitute a standard log-distance model with log-normal
//! shadowing (seeded, so a "testbed" is a reproducible object), which is
//! all the evaluation needs: a realistic joint distribution of per-link
//! SNRs and sensing relationships (see DESIGN.md §2).

/// Path-loss + shadowing model mapping node geometry to link SNR.
#[derive(Clone, Debug)]
pub struct PathLossModel {
    /// Path-loss exponent α (≈3 for indoor non-line-of-sight).
    pub exponent: f64,
    /// SNR in dB at the reference distance (1 unit) — sets transmit power.
    pub ref_snr_db: f64,
    /// Log-normal shadowing standard deviation, dB.
    pub shadowing_sigma_db: f64,
    /// Seed making shadowing a deterministic property of the topology.
    pub seed: u64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        Self { exponent: 3.0, ref_snr_db: 38.0, shadowing_sigma_db: 6.0, seed: 0x5EED }
    }
}

impl PathLossModel {
    /// SNR of the link `a → b` given node positions, in dB. Shadowing is
    /// symmetric (`snr(a,b) == snr(b,a)`) and deterministic in
    /// `(seed, a, b)`.
    pub fn snr_db(&self, a: usize, pa: (f64, f64), b: usize, pb: (f64, f64)) -> f64 {
        let d = ((pa.0 - pb.0).powi(2) + (pa.1 - pb.1).powi(2)).sqrt().max(0.1);
        let mean = self.ref_snr_db - 10.0 * self.exponent * d.log10();
        mean + self.shadowing_sigma_db * self.shadow_normal(a.min(b), a.max(b))
    }

    /// Deterministic standard-normal draw for an (unordered) link.
    fn shadow_normal(&self, lo: usize, hi: usize) -> f64 {
        // splitmix64 over (seed, lo, hi), then Irwin–Hall (12 uniforms).
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((lo as u64) << 32 | hi as u64);
        let mut sum = 0.0;
        for _ in 0..12 {
            x = splitmix64(&mut x);
            sum += (x >> 11) as f64 / (1u64 << 53) as f64;
        }
        sum - 6.0
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How well one sender can carrier-sense another (§5.1: pairs either sense
/// each other "perfectly", "partially", or are "hidden terminals").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Sensing {
    /// Always defers to the other's transmissions.
    Perfect,
    /// Senses the other with the given probability per transmission.
    Partial(f64),
    /// Never senses the other — the hidden-terminal case.
    Hidden,
}

impl Sensing {
    /// Classifies an inter-sender SNR into a sensing relation.
    ///
    /// Below `hidden_below_db` the senders cannot hear each other at all;
    /// above `perfect_above_db` carrier sense always works; in between the
    /// sensing probability ramps linearly (marginal links sense some
    /// transmissions and miss others).
    pub fn classify(snr_db: f64, hidden_below_db: f64, perfect_above_db: f64) -> Sensing {
        if snr_db <= hidden_below_db {
            Sensing::Hidden
        } else if snr_db >= perfect_above_db {
            Sensing::Perfect
        } else {
            // Partially-sensing pairs miss most marginal transmissions:
            // §5.6 lumps them with hidden terminals (mean loss 82.3%), so
            // the per-transmission sensing probability stays below one
            // half across the band.
            let p = 0.5 * (snr_db - hidden_below_db) / (perfect_above_db - hidden_below_db);
            Sensing::Partial(p)
        }
    }

    /// Probability that a transmission is sensed.
    pub fn probability(&self) -> f64 {
        match *self {
            Sensing::Perfect => 1.0,
            Sensing::Partial(p) => p,
            Sensing::Hidden => 0.0,
        }
    }

    /// `true` for pairs the evaluation counts as (full or partial) hidden
    /// terminals (§5.6 "sender pairs that fail to sense each other fully
    /// or partially").
    pub fn is_hidden_or_partial(&self) -> bool {
        !matches!(self, Sensing::Perfect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::to_db;

    #[test]
    fn snr_decreases_with_distance() {
        let m = PathLossModel { shadowing_sigma_db: 0.0, ..Default::default() };
        let near = m.snr_db(0, (0.0, 0.0), 1, (1.0, 0.0));
        let far = m.snr_db(0, (0.0, 0.0), 1, (8.0, 0.0));
        assert!(near > far);
        // α=3 ⇒ 8x distance ⇒ 30·log10(8) ≈ 27 dB drop.
        assert!((near - far - 27.09).abs() < 0.1, "drop {}", near - far);
    }

    #[test]
    fn shadowing_is_symmetric_and_deterministic() {
        let m = PathLossModel::default();
        let ab = m.snr_db(3, (0.0, 0.0), 7, (4.0, 1.0));
        let ba = m.snr_db(7, (4.0, 1.0), 3, (0.0, 0.0));
        assert_eq!(ab, ba);
        assert_eq!(ab, m.snr_db(3, (0.0, 0.0), 7, (4.0, 1.0)));
    }

    #[test]
    fn different_links_get_different_shadowing() {
        let m = PathLossModel::default();
        let a = m.snr_db(0, (0.0, 0.0), 1, (2.0, 0.0));
        let b = m.snr_db(0, (0.0, 0.0), 2, (2.0, 0.0));
        assert_ne!(a, b);
    }

    #[test]
    fn shadowing_roughly_standard_normal() {
        let m = PathLossModel { shadowing_sigma_db: 1.0, ref_snr_db: 0.0, exponent: 0.0, seed: 42 };
        let draws: Vec<f64> =
            (0..2000).map(|k| m.snr_db(k, (1.0, 0.0), k + 5000, (1.0, 1.0))).collect();
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 1.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn sensing_classification_bands() {
        assert_eq!(Sensing::classify(-3.0, 0.0, 10.0), Sensing::Hidden);
        assert_eq!(Sensing::classify(15.0, 0.0, 10.0), Sensing::Perfect);
        match Sensing::classify(5.0, 0.0, 10.0) {
            Sensing::Partial(p) => assert!((p - 0.25).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sensing_probabilities() {
        assert_eq!(Sensing::Perfect.probability(), 1.0);
        assert_eq!(Sensing::Hidden.probability(), 0.0);
        assert!(Sensing::Hidden.is_hidden_or_partial());
        assert!(Sensing::Partial(0.3).is_hidden_or_partial());
        assert!(!Sensing::Perfect.is_hidden_or_partial());
    }

    #[test]
    fn min_distance_clamp() {
        let m = PathLossModel { shadowing_sigma_db: 0.0, ..Default::default() };
        let same = m.snr_db(0, (1.0, 1.0), 1, (1.0, 1.0));
        assert!(same.is_finite());
    }

    #[test]
    fn to_db_sanity() {
        assert!((to_db(100.0) - 20.0).abs() < 1e-12);
    }
}
