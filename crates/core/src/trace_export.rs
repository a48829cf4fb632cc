//! Merged Chrome-trace export: pipeline-stage spans and the simulated
//! kernel timeline in one Perfetto-loadable document on one clock.
//!
//! Pipeline spans (collected by `proof_obs`) render on tid 0; the kernel
//! timeline of the profiled model renders on tids 1–2, anchored at the
//! start of the `builtin_profile` span — the stage whose wall-clock the
//! simulated kernels conceptually fill. Under the deterministic logical
//! clock the whole document is byte-identical across runs for the same
//! (spec, seed), which is what lets serve cache and tests diff traces.

use crate::pipeline::PipelineStage;
use proof_obs::export::{chrome_trace_json, spans_to_events};
use proof_obs::SpanRecord;
use proof_runtime::{kernel_events, CompiledModel};

/// Chrome-trace category for pipeline/stage spans in the merged document.
pub const PIPELINE_CAT: &str = "pipeline";

/// Render one trace's spans — plus, when the profiled plan is at hand, its
/// kernel timeline — as a Chrome-trace JSON document.
pub fn merged_chrome_trace(spans: &[SpanRecord], compiled: Option<&CompiledModel>) -> String {
    let mut events = spans_to_events(spans, 1, 0, PIPELINE_CAT);
    if let Some(model) = compiled {
        // anchor kernels at the profile stage; fall back to the earliest
        // span for traces that reused a cached prefix (no profile span)
        let t0 = spans
            .iter()
            .filter(|s| s.name == PipelineStage::BuiltinProfile.name())
            .map(|s| s.start_us)
            .min_by(f64::total_cmp)
            .or_else(|| spans.iter().map(|s| s.start_us).min_by(f64::total_cmp))
            .unwrap_or(0.0);
        events.extend(kernel_events(model, t0));
    }
    chrome_trace_json(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare_stages, run_metric_stages, PipelineTrace, PreparedStages};
    use crate::profile::MetricMode;
    use proof_hw::PlatformId;
    use proof_ir::DType;
    use proof_models::ModelId;
    use proof_runtime::{BackendFlavor, SessionConfig};

    /// One profile with its spans captured: `(spans, prepared prefix,
    /// report trace)`.
    fn traced_run() -> (Vec<SpanRecord>, PreparedStages, PipelineTrace) {
        let capture = proof_obs::Capture::start();
        let root = proof_obs::span_in(proof_obs::new_trace_id(), "profile");
        let g = ModelId::MobileNetV2x05.build(1);
        let prep = prepare_stages(
            &g,
            &PlatformId::A100.spec(),
            BackendFlavor::TrtLike,
            &SessionConfig::new(DType::F16),
        )
        .unwrap();
        let report = run_metric_stages(&prep, MetricMode::Predicted).unwrap();
        root.finish();
        (capture.finish().spans, prep, report.trace)
    }

    #[test]
    fn merged_trace_holds_pipeline_and_kernel_rows_on_one_clock() {
        let (spans, prep, _) = traced_run();
        let doc = merged_chrome_trace(&spans, Some(&prep.compiled.compiled));
        let v: serde_json::Value = serde_json::from_str(&doc).expect("valid JSON");
        let events = v["traceEvents"].as_array().unwrap();
        let cat_count = |c: &str| events.iter().filter(|e| e["cat"] == c).count();
        assert_eq!(cat_count(PIPELINE_CAT), spans.len());
        assert!(cat_count("kernel") > 0 && cat_count("backend_layer") > 0);
        // all five stage spans are present by name
        for stage in PipelineStage::ALL {
            assert!(events.iter().any(|e| e["name"] == stage.name()));
        }
        // one shared clock: globally sorted, kernels anchored inside the
        // profile stage's span
        let ts: Vec<f64> = events.iter().map(|e| e["ts"].as_f64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        let profile_ts = events
            .iter()
            .find(|e| e["name"] == "builtin_profile")
            .unwrap()["ts"]
            .as_f64()
            .unwrap();
        let first_kernel_ts = events.iter().find(|e| e["cat"] == "kernel").unwrap()["ts"]
            .as_f64()
            .unwrap();
        assert_eq!(profile_ts, first_kernel_ts);
    }

    #[test]
    fn merged_trace_is_byte_identical_across_runs() {
        let (spans1, prep1, _) = traced_run();
        let (spans2, prep2, _) = traced_run();
        let a = merged_chrome_trace(&spans1, Some(&prep1.compiled.compiled));
        let b = merged_chrome_trace(&spans2, Some(&prep2.compiled.compiled));
        assert_eq!(a, b);
    }

    #[test]
    fn pipeline_trace_reconstructs_from_spans() {
        let (spans, _, trace) = traced_run();
        let derived = PipelineTrace::from_spans(spans.iter());
        assert_eq!(derived, trace);
        // stage spans hang off the root span of the trace
        let root = spans.iter().find(|s| s.name == "profile").unwrap();
        assert_eq!(root.parent, 0);
        assert!(spans
            .iter()
            .filter(|s| s.name != "profile")
            .all(|s| s.parent == root.id));
    }

    #[test]
    fn spans_only_trace_without_model_is_valid() {
        let capture = proof_obs::Capture::start();
        proof_obs::span_in(proof_obs::new_trace_id(), "profile").finish();
        let doc = merged_chrome_trace(&capture.finish().spans, None);
        let v: serde_json::Value = serde_json::from_str(&doc).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), 1);
    }
}
