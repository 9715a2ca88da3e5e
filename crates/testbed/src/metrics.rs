//! Evaluation metrics (§5.1f) and distribution utilities.
//!
//! * **BER** — fraction of incorrect bits.
//! * **Packet delivery** — a packet is delivered if its uncoded BER is
//!   below 10⁻³ ("in accordance with typical wireless design, which
//!   targets a maximum BER of 10⁻³ before coding"; practical channel
//!   codes then achieve the target packet error rate).
//! * **Normalized throughput** — delivered packets normalised by the
//!   airtime consumed, in units of packet durations.

/// The §5.1f delivery criterion.
pub const DELIVERY_BER: f64 = 1e-3;

/// `true` if a packet with this BER counts as delivered.
pub fn delivered(ber: f64) -> bool {
    ber < DELIVERY_BER
}

/// Accumulates per-sender outcomes of one scheme over one flow pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchemeOutcome {
    /// Packets delivered per sender.
    pub delivered: [usize; 2],
    /// Packets offered per sender.
    pub offered: [usize; 2],
    /// Total airtime consumed, in packet durations.
    pub airtime: f64,
    /// Total bit errors across scored packets (for BER curves).
    pub bit_errors: usize,
    /// Total bits scored.
    pub bits: usize,
}

impl SchemeOutcome {
    /// Per-sender normalized throughput (delivered packets per unit
    /// airtime).
    pub fn throughput(&self, sender: usize) -> f64 {
        if self.airtime <= 0.0 {
            0.0
        } else {
            self.delivered[sender] as f64 / self.airtime
        }
    }

    /// Aggregate normalized throughput of the pair.
    pub fn total_throughput(&self) -> f64 {
        self.throughput(0) + self.throughput(1)
    }

    /// Per-flow packet loss rate (the paper's Fig 5-6/5-8 unit: "loss
    /// rates of individual sender-receiver pairs, i.e., the flows").
    pub fn flow_loss(&self, sender: usize) -> f64 {
        if self.offered[sender] == 0 {
            return 0.0;
        }
        1.0 - self.delivered[sender] as f64 / self.offered[sender] as f64
    }

    /// Packet loss rate over both senders.
    pub fn loss_rate(&self) -> f64 {
        let offered: usize = self.offered.iter().sum();
        if offered == 0 {
            return 0.0;
        }
        let delivered: usize = self.delivered.iter().sum();
        1.0 - delivered as f64 / offered as f64
    }

    /// Aggregate BER over scored bits.
    pub fn ber(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits as f64
        }
    }
}

/// Empirical distribution helper for the CDF figures (5-5, 5-6, 5-8, 5-9).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of the observations.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_threshold() {
        assert!(delivered(0.0));
        assert!(delivered(9.9e-4));
        assert!(!delivered(1e-3));
        assert!(!delivered(0.5));
    }

    #[test]
    fn throughput_accounting() {
        let o = SchemeOutcome {
            delivered: [10, 5],
            offered: [10, 10],
            airtime: 20.0,
            bit_errors: 0,
            bits: 0,
        };
        assert!((o.throughput(0) - 0.5).abs() < 1e-12);
        assert!((o.throughput(1) - 0.25).abs() < 1e-12);
        assert!((o.total_throughput() - 0.75).abs() < 1e-12);
        assert!((o.loss_rate() - 0.25).abs() < 1e-12);
        assert!((o.flow_loss(0) - 0.0).abs() < 1e-12);
        assert!((o.flow_loss(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_airtime_is_zero_throughput() {
        let o = SchemeOutcome::default();
        assert_eq!(o.throughput(0), 0.0);
        assert_eq!(o.loss_rate(), 0.0);
        assert_eq!(o.ber(), 0.0);
    }

    #[test]
    fn samples_statistics() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }
}
