//! Metric values, the statistics they are built from, and the result line.

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// What one run measured: the result line's four keys.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every correctness gate held.
    pub correct: bool,
    /// Operations the measurement issued.
    pub attempted: u64,
    /// Operations whose output failed a gate.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (gate outcomes,
    /// sample counts, accounting checks).
    pub notes: Vec<String>,
}

/// A metric name the result format accepts: starts with a letter or a
/// digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The minimum number of samples that must lie beyond a reported
/// percentile for it to count as measured rather than as a single outlier.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `values`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The smallest sample count at which [`percentile`] reports `q`.
pub fn samples_for(q: f64) -> usize {
    (MIN_BEYOND..).find(|&n| percentile(&vec![0.0; n], q).is_some()).expect("finite search")
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The result as the single JSON line the benchmark ends with.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Checks that `metrics` are exactly the `expected` names, each once,
/// valid and finite.
pub fn check_metrics(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    for m in metrics {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if !expected.iter().any(|(name, unit)| *name == m.name && *unit == m.unit) {
            return Err(format!("metric {} [{}] is not declared", m.name, m.unit));
        }
    }
    for (name, _) in expected {
        let count = metrics.iter().filter(|m| m.name == *name).count();
        if count != 1 {
            return Err(format!("metric {name} reported {count} times"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 0..n: rank ceil(0.9 n); n - rank samples lie beyond it
        let values: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), None, "99 samples leave 9 beyond p90");
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), Some(89.0));
        assert_eq!(samples_for(0.9), 100);
        assert_eq!(samples_for(0.5), 20);
        assert_eq!(samples_for(0.99), 1000);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let p = percentile(&values, 0.5);
        values.reverse();
        assert_eq!(percentile(&values, 0.5), p);
        assert_eq!(p, Some(99.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn metric_names_follow_the_result_format() {
        for good in ["setup_s", "stage.capture.busy_ms", "p90", "9lives", "a-b_c.d"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".dot", "sp ace", "ünï", "a/b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn declared_metrics_are_checked() {
        let declared = [("a", "s"), ("b", "ms")];
        let ok = [Metric::new("a", "s", 1.0), Metric::new("b", "ms", 2.0)];
        assert_eq!(check_metrics(&ok, &declared), Ok(()));
        assert!(check_metrics(&ok[..1], &declared).is_err(), "missing metric");
        let wrong_unit = [Metric::new("a", "ms", 1.0), Metric::new("b", "ms", 2.0)];
        assert!(check_metrics(&wrong_unit, &declared).is_err());
        let nan = [Metric::new("a", "s", f64::NAN), Metric::new("b", "ms", 2.0)];
        assert!(check_metrics(&nan, &declared).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("latency_ms", "ms", 1.25)],
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
