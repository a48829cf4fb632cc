//! The top-level PRoof workflow (paper Figure 1): compile on a backend,
//! collect latencies from its built-in profiler, map backend layers to the
//! model, obtain FLOP/memory per layer (analytically predicted or measured
//! via the counter profiler + correction), and assemble the end-to-end and
//! layer-wise rooflines.
//!
//! [`profile_model`] is a thin driver over the staged pipeline in
//! [`crate::pipeline`] — callers that profile the same configuration more
//! than once (mode pairs, batch sweeps, serve resubmissions) should use the
//! stage functions directly to reuse the compile/profile/map prefix.

use crate::pipeline::{run_pipeline, PipelineTrace, ProofError};
use crate::roofline::{LayerCategory, RooflineCeiling, RooflineChart, RooflinePoint};
use proof_hw::Platform;
use proof_ir::Graph;
use proof_runtime::{BackendFlavor, SessionConfig};
use serde::{Deserialize, Serialize};

/// Where FLOP/memory numbers come from (the paper's two modes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricMode {
    /// PRoof's analytical model — platform-independent, negligible overhead.
    Predicted,
    /// The vendor counter profiler (simulated NCU) + PRoof's TC correction.
    Measured,
}

/// One profiled + mapped backend layer with its metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    pub name: String,
    pub category: LayerCategory,
    pub latency_us: f64,
    pub flops: u64,
    pub memory_bytes: u64,
    pub is_reorder: bool,
    /// Names of the original model nodes this backend layer executes.
    pub original_nodes: Vec<String>,
}

impl LayerReport {
    pub fn achieved_gflops(&self) -> f64 {
        self.flops as f64 / (self.latency_us * 1e-6).max(1e-12) / 1e9
    }

    pub fn achieved_bw_gbs(&self) -> f64 {
        self.memory_bytes as f64 / (self.latency_us * 1e-6).max(1e-12) / 1e9
    }

    pub fn intensity(&self) -> f64 {
        if self.memory_bytes == 0 {
            0.0
        } else {
            self.flops as f64 / self.memory_bytes as f64
        }
    }
}

/// The complete profiling result for one (model, platform, backend, config).
/// Round-trips losslessly through JSON (`to_json` / `from_json`), which is
/// what lets proof-serve persist reports as content-addressed artifacts.
///
/// The [`trace`](ProfileReport::trace) field carries wall-clock per-stage
/// timings of the run that produced the report. It is observability
/// metadata, deliberately excluded from both the JSON form and equality:
/// two runs of the same (spec, seed) yield equal, byte-identical reports
/// even though their stage timings differ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileReport {
    pub model: String,
    pub platform: String,
    pub backend: String,
    pub precision: String,
    pub batch: u64,
    pub mode: MetricMode,
    pub layers: Vec<LayerReport>,
    pub ceiling: RooflineCeiling,
    pub total_latency_ms: f64,
    pub total_flops: u64,
    pub total_memory_bytes: u64,
    /// Extra wall-clock spent collecting metrics (Table 4 "Prof. time"):
    /// counter-replay time in Measured mode, analysis time in Predicted.
    pub metric_collection_s: f64,
    /// Time-averaged GPU/memory busy fractions (drives the power model).
    pub util_gpu: f64,
    pub util_mem: f64,
    /// Backend layers the mapping could not resolve (diagnostic; 0 expected).
    pub unresolved_layers: usize,
    /// Per-stage timings of the pipeline run that produced this report
    /// (not serialized, not part of equality).
    #[serde(skip)]
    pub trace: PipelineTrace,
}

impl PartialEq for ProfileReport {
    fn eq(&self, other: &Self) -> bool {
        self.model == other.model
            && self.platform == other.platform
            && self.backend == other.backend
            && self.precision == other.precision
            && self.batch == other.batch
            && self.mode == other.mode
            && self.layers == other.layers
            && self.ceiling == other.ceiling
            && self.total_latency_ms == other.total_latency_ms
            && self.total_flops == other.total_flops
            && self.total_memory_bytes == other.total_memory_bytes
            && self.metric_collection_s == other.metric_collection_s
            && self.util_gpu == other.util_gpu
            && self.util_mem == other.util_mem
            && self.unresolved_layers == other.unresolved_layers
        // trace intentionally excluded: timing jitter must not make two
        // otherwise-identical reports unequal
    }
}

/// Locate a non-finite float in a serialized value tree, if any.
fn non_finite_path(v: &serde::Value, path: &str) -> Option<String> {
    match v {
        serde::Value::Number(serde::Number::F(f)) if !f.is_finite() => Some(path.to_string()),
        serde::Value::Array(items) => items
            .iter()
            .enumerate()
            .find_map(|(i, x)| non_finite_path(x, &format!("{path}[{i}]"))),
        serde::Value::Object(m) => m
            .iter()
            .find_map(|(k, x)| non_finite_path(x, &format!("{path}.{k}"))),
        _ => None,
    }
}

impl ProfileReport {
    pub fn achieved_gflops(&self) -> f64 {
        self.total_flops as f64 / (self.total_latency_ms * 1e-3).max(1e-12) / 1e9
    }

    pub fn achieved_bw_gbs(&self) -> f64 {
        self.total_memory_bytes as f64 / (self.total_latency_ms * 1e-3).max(1e-12) / 1e9
    }

    pub fn intensity(&self) -> f64 {
        if self.total_memory_bytes == 0 {
            0.0
        } else {
            self.total_flops as f64 / self.total_memory_bytes as f64
        }
    }

    /// Throughput in inferences (images/sequences) per second.
    pub fn throughput_per_s(&self) -> f64 {
        self.batch as f64 / (self.total_latency_ms * 1e-3).max(1e-12)
    }

    /// The end-to-end roofline point (one marker in the paper's Figure 4).
    pub fn end_to_end_point(&self, label: &str) -> RooflinePoint {
        RooflinePoint {
            label: label.to_string(),
            category: LayerCategory::Other,
            flops: self.total_flops,
            bytes: self.total_memory_bytes,
            latency_us: self.total_latency_ms * 1e3,
            latency_share: 1.0,
        }
    }

    /// The layer-wise roofline chart (the paper's Figures 5/6/8).
    pub fn layerwise_chart(&self, title: &str) -> RooflineChart {
        let mut chart = RooflineChart::new(title, self.ceiling.clone());
        for l in &self.layers {
            if l.latency_us <= 0.0 {
                continue;
            }
            chart.points.push(RooflinePoint {
                label: l.name.clone(),
                category: l.category,
                flops: l.flops,
                bytes: l.memory_bytes,
                latency_us: l.latency_us,
                latency_share: 0.0,
            });
        }
        chart.finalize();
        chart
    }

    /// Canonical pretty JSON, or an error if the report cannot round-trip.
    /// The vendored serializer renders non-finite floats as `null`, which
    /// would silently corrupt a stored artifact — surface that as
    /// [`ProofError::Serialize`] instead. The text streams straight out of
    /// the writer; only a failed write builds the tree, to name the path.
    pub fn try_to_json(&self) -> Result<String, ProofError> {
        serde::ser::to_json_strict(self, true).ok_or_else(|| {
            let path = non_finite_path(&Serialize::to_value(self), "report")
                .unwrap_or_else(|| "report".to_string());
            ProofError::Serialize(format!(
                "non-finite number at {path} would not survive a JSON round-trip"
            ))
        })
    }

    pub fn to_json(&self) -> String {
        self.try_to_json().expect("report serialization")
    }

    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Run the full PRoof workflow on one configuration — the five pipeline
/// stages end to end. See [`crate::pipeline`] for the staged interface.
pub fn profile_model(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
    mode: MetricMode,
) -> Result<ProfileReport, ProofError> {
    run_pipeline(g, platform, flavor, cfg, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_hw::PlatformId;
    use proof_ir::DType;
    use proof_models::ModelId;

    fn run(mode: MetricMode) -> ProfileReport {
        let g = ModelId::ResNet50.build(8);
        profile_model(
            &g,
            &PlatformId::A100.spec(),
            BackendFlavor::TrtLike,
            &SessionConfig::new(DType::F16),
            mode,
        )
        .unwrap()
    }

    #[test]
    fn predicted_profile_is_complete_and_consistent() {
        let r = run(MetricMode::Predicted);
        assert_eq!(r.unresolved_layers, 0);
        assert!(r.total_latency_ms > 0.0);
        assert!(r.total_flops > 0);
        let layer_sum: u64 = r.layers.iter().map(|l| l.flops).sum();
        assert_eq!(layer_sum, r.total_flops);
        // ResNet-50 at bs=8 ≈ 8 × 8.2 GFLOP
        let gflop = r.total_flops as f64 / 1e9;
        assert!((gflop - 8.0 * 8.2).abs() < 8.0, "{gflop}");
    }

    #[test]
    fn measured_mode_applies_tc_correction_and_charges_overhead() {
        let p = run(MetricMode::Predicted);
        let m = run(MetricMode::Measured);
        // corrected measured FLOP within 2× of model FLOP (hardware > model)
        let ratio = m.total_flops as f64 / p.total_flops as f64;
        assert!(ratio > 0.8 && ratio < 1.6, "ratio {ratio}");
        // counter profiling costs minutes; analysis costs (sub)seconds
        assert!(m.metric_collection_s > 60.0);
        assert!(p.metric_collection_s < 5.0);
    }

    #[test]
    fn end_to_end_point_sits_under_the_roofline() {
        let r = run(MetricMode::Predicted);
        let pt = r.end_to_end_point("resnet50");
        let attainable = r.ceiling.attainable_gflops(pt.intensity());
        assert!(
            pt.achieved_gflops() <= attainable * 1.05,
            "{} > {}",
            pt.achieved_gflops(),
            attainable
        );
        assert!(pt.achieved_gflops() > 0.0);
    }

    #[test]
    fn layerwise_chart_has_normalized_shares_and_categories() {
        let r = run(MetricMode::Predicted);
        let chart = r.layerwise_chart("ResNet-50 on A100");
        let share_sum: f64 = chart.points.iter().map(|p| p.latency_share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert!(chart
            .points
            .iter()
            .any(|p| p.category == LayerCategory::OtherConv));
    }

    #[test]
    fn json_roundtrips_structurally() {
        let r = run(MetricMode::Predicted);
        let j = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["model"], "resnet50");
        assert!(v["layers"].as_array().unwrap().len() > 10);
    }

    #[test]
    fn json_roundtrips_losslessly() {
        let r = run(MetricMode::Predicted);
        let back = ProfileReport::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
        // and the re-serialized JSON is byte-identical (canonical key order)
        assert_eq!(r.to_json(), back.to_json());
    }

    #[test]
    fn trace_is_populated_but_stays_out_of_json_and_equality() {
        let r = run(MetricMode::Predicted);
        assert_eq!(r.trace.stages.len(), 5);
        assert!(!r.to_json().contains("\"trace\""));
        // a round-trip drops the trace without breaking equality
        let back = ProfileReport::from_json(&r.to_json()).unwrap();
        assert!(back.trace.stages.is_empty());
        assert_eq!(r, back);
    }

    #[test]
    fn try_to_json_rejects_non_finite_values() {
        let mut r = run(MetricMode::Predicted);
        assert!(r.try_to_json().is_ok());
        r.total_latency_ms = f64::NAN;
        let err = r.try_to_json().unwrap_err();
        assert!(matches!(err, ProofError::Serialize(_)), "{err}");
        assert!(err.to_string().contains("total_latency_ms"), "{err}");
    }
}
