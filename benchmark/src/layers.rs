//! The per-layer metrics of a traced run, named by module. Every traced
//! run reports all of them; a layer a workload does not exercise reads 0.
//! Times and counts are per pass over the workload's input.

use crate::report::{Metric, Report};
use crate::trace::{totals, write_spans, Span};
use std::collections::BTreeMap;

/// Pipeline stage name → metric prefix (`core::engine::stage`).
const STAGES: [(&str, &str); 8] = [
    ("detect", "stage.detect"),
    ("standard-decode", "stage.standard"),
    ("capture", "stage.capture"),
    ("match", "stage.match"),
    ("plan", "stage.plan"),
    ("zigzag", "stage.zigzag"),
    ("recover", "stage.recover"),
    ("store", "stage.store"),
];

macro_rules! stage_metrics {
    ($($p:literal),*) => {
        [$(
            (concat!($p, ".busy_ms"), "ms"),
            (concat!($p, ".calls"), "count"),
            (concat!($p, ".done"), "count"),
            (concat!($p, ".frames"), "count"),
        )*]
    };
}

const STAGE_METRICS: [(&str, &str); 32] = stage_metrics!(
    "stage.detect",
    "stage.standard",
    "stage.capture",
    "stage.match",
    "stage.plan",
    "stage.zigzag",
    "stage.recover",
    "stage.store"
);

const OTHER_METRICS: [(&str, &str); 23] = [
    ("stage.capture.hit_ratio", "ratio"),
    ("stream.scan_busy_ms", "ms"),
    ("stream.regions", "count"),
    ("stream.carved_samples", "count"),
    ("stream.source_stalls", "count"),
    ("stream.ring_high_water", "samples"),
    ("engine.worker_busy_ms", "ms"),
    ("engine.worker_idle_ms", "ms"),
    ("engine.queue_wait_p50_ms", "ms"),
    ("engine.queue_wait_p99_ms", "ms"),
    ("engine.shard_stalls", "count"),
    ("engine.queue_high_water", "count"),
    ("service.busy_ms", "ms"),
    ("service.calls", "count"),
    ("service.rounds", "count"),
    ("cell.sim_self_ms", "ms"),
    ("cell.collision_rounds", "count"),
    ("cell.lowered_rounds", "count"),
    ("cell.tx_starts", "count"),
    ("cell.stations_active", "count"),
    ("channel.synth_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 55] = {
    let mut all = [("", ""); 55];
    let mut i = 0;
    while i < STAGE_METRICS.len() {
        all[i] = STAGE_METRICS[i];
        i += 1;
    }
    while i < all.len() {
        all[i] = OTHER_METRICS[i - STAGE_METRICS.len()];
        i += 1;
    }
    all
};

/// Per-layer values collected by a traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

fn declared(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"))
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(declared(name), value);
    }

    /// Sets the stage metrics from the spans of `passes` passes, and
    /// returns the stages' summed busy time per pass in ms.
    pub fn set_stages(&mut self, spans: &[Span], passes: usize) -> f64 {
        let per_pass = |v: u64| v as f64 / passes as f64;
        let mut busy_ms = 0.0;
        for (stage, prefix) in STAGES {
            let t = totals(spans, stage);
            let ms = per_pass(t.busy_ns) / 1e6;
            busy_ms += ms;
            self.set(&format!("{prefix}.busy_ms"), ms);
            self.set(&format!("{prefix}.calls"), per_pass(t.calls));
            self.set(&format!("{prefix}.done"), per_pass(t.done));
            self.set(&format!("{prefix}.frames"), per_pass(t.count));
            if stage == "capture" && t.calls > 0 {
                self.set("stage.capture.hit_ratio", t.hits as f64 / t.calls as f64);
            }
        }
        busy_ms
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                Metric::new(name, unit, self.values.get(name).copied().unwrap_or(0.0))
            })
            .collect()
    }
}

/// Writes a traced run's spans under `.bench_trace/` in the working
/// directory and fills the report's metrics from `layers`.
pub fn finish_trace(
    report: &mut Report,
    layers: Layers,
    spans: &[Span],
    workload: &str,
    seed: u64,
) {
    let path = std::path::PathBuf::from(format!(".bench_trace/{workload}-seed{seed}.jsonl"));
    match write_spans(&path, spans) {
        Ok(()) => report.notes.push(format!("{} spans written to {}", spans.len(), path.display())),
        Err(e) => report.notes.push(format!("spans not written to {}: {e}", path.display())),
    }
    report.metrics = layers.metrics();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_metric_name;
    use crate::trace::standard_stages;

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(valid_metric_name(name), "{name}");
            assert!(!unit.is_empty());
            assert!(PER_LAYER[..i].iter().all(|(n, _)| n != name), "{name} listed twice");
        }
    }

    #[test]
    fn every_standard_stage_has_metrics() {
        for stage in standard_stages() {
            assert!(STAGES.iter().any(|(s, _)| *s == stage.name()), "{}", stage.name());
        }
    }

    #[test]
    fn unset_layers_read_zero() {
        let mut layers = Layers::default();
        layers.set("service.calls", 3.0);
        let m = layers.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m.iter().find(|m| m.name == "service.calls").map(|m| m.value), Some(3.0));
        assert!(m.iter().filter(|m| m.name != "service.calls").all(|m| m.value == 0.0));
    }

    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<(&str, &str)> =
            crate::END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &declared {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            declared.len(),
            "undeclared metric in BENCHMARK.json"
        );
    }
}
