//! Cross-crate integration tests: the full PRoof pipeline (model → backend
//! compile → builtin profile → layer mapping → metrics → roofline) across
//! backends and platforms.

use proof::core::{
    map_layers, profile_model, render_roofline_svg, AnalyzeRepr, MetricMode, OptimizedRepr,
    SvgOptions,
};
use proof::hw::PlatformId;
use proof::ir::{DType, Graph};
use proof::models::ModelId;
use proof::runtime::{compile, BackendFlavor, SessionConfig};

fn profile(
    model: ModelId,
    batch: u64,
    platform: PlatformId,
    flavor: BackendFlavor,
    mode: MetricMode,
) -> proof::core::ProfileReport {
    let g = model.build(batch);
    let p = platform.spec();
    let cfg = SessionConfig::new(p.preferred_dtype());
    profile_model(&g, &p, flavor, &cfg, mode).expect("profile")
}

#[test]
fn every_zoo_model_profiles_on_a100_predicted() {
    for model in ModelId::ALL {
        let batch = if model == ModelId::StableDiffusionUnet {
            1
        } else {
            4
        };
        let r = profile(
            model,
            batch,
            PlatformId::A100,
            BackendFlavor::TrtLike,
            MetricMode::Predicted,
        );
        assert_eq!(r.unresolved_layers, 0, "{model:?}");
        assert!(r.total_latency_ms > 0.0, "{model:?}");
        assert!(r.total_flops > 0, "{model:?}");
        // every profiled point obeys the roofline (with small tolerance)
        for l in &r.layers {
            let attainable = r.ceiling.attainable_gflops(l.intensity());
            assert!(
                l.achieved_gflops() <= attainable * 1.1 + 1.0,
                "{model:?}/{}: {} > {}",
                l.name,
                l.achieved_gflops(),
                attainable
            );
        }
    }
}

#[test]
fn mapping_matches_runtime_truth_for_all_flavors_and_several_models() {
    let cases = [
        (ModelId::ResNet50, BackendFlavor::TrtLike),
        (ModelId::ResNet50, BackendFlavor::OrtLike),
        (ModelId::ResNet50, BackendFlavor::OvLike),
        (ModelId::SwinTiny, BackendFlavor::TrtLike),
        (ModelId::MlpMixerB16, BackendFlavor::OrtLike),
        (ModelId::EfficientNetV2S, BackendFlavor::OvLike),
        (ModelId::DistilBertBase, BackendFlavor::TrtLike),
    ];
    for (model, flavor) in cases {
        let g = model.build(2);
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(DType::F16);
        let compiled = compile(&g, flavor, &platform, &cfg).unwrap();
        let mapping = map_layers(
            OptimizedRepr::new(AnalyzeRepr::new(&g, DType::F16)),
            &compiled.builtin_profile(),
            flavor,
        );
        assert!(
            mapping.unresolved.is_empty(),
            "{model:?}/{flavor:?}: {:?}",
            mapping.unresolved
        );
        assert!(
            mapping.coverage() > 0.99,
            "{model:?}/{flavor:?}: coverage {}",
            mapping.coverage()
        );
        // non-noop membership equality against the runtime's ground truth
        let truth: Vec<Vec<_>> = compiled
            .layers
            .iter()
            .filter(|l| !l.kernels.is_empty() && !l.is_reorder)
            .map(|l| {
                let mut v: Vec<_> = l
                    .truth_members()
                    .iter()
                    .copied()
                    .filter(|&n| !g.node(n).op.is_noop_at_inference())
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        let derived: Vec<Vec<_>> = mapping
            .layers
            .iter()
            .filter(|l| !l.is_reorder)
            .map(|l| {
                let mut v: Vec<_> = mapping
                    .repr
                    .group(l.group.unwrap())
                    .members
                    .iter()
                    .copied()
                    .filter(|&n| !g.node(n).op.is_noop_at_inference())
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        assert_eq!(truth, derived, "{model:?}/{flavor:?}");
    }
}

#[test]
fn predicted_and_measured_agree_within_table4_bands() {
    // the paper's worst observed diffs: −24 % FLOP, −8 % memory
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    for model in [ModelId::ResNet50, ModelId::MobileNetV2x10, ModelId::ViTTiny] {
        let g = model.build(16);
        let pred = profile_model(
            &g,
            &platform,
            BackendFlavor::TrtLike,
            &cfg,
            MetricMode::Predicted,
        )
        .unwrap();
        let meas = profile_model(
            &g,
            &platform,
            BackendFlavor::TrtLike,
            &cfg,
            MetricMode::Measured,
        )
        .unwrap();
        let flop_ratio = pred.total_flops as f64 / meas.total_flops as f64;
        let mem_ratio = pred.total_memory_bytes as f64 / meas.total_memory_bytes as f64;
        assert!(
            (0.7..1.15).contains(&flop_ratio),
            "{model:?} flop ratio {flop_ratio}"
        );
        assert!(
            (0.85..1.1).contains(&mem_ratio),
            "{model:?} mem ratio {mem_ratio}"
        );
    }
}

#[test]
fn model_json_roundtrips_through_the_full_pipeline() {
    let g = ModelId::MobileNetV2x05.build(2);
    let restored = Graph::from_json(&g.to_json()).expect("roundtrip");
    assert_eq!(g, restored);
    let platform = PlatformId::Xeon6330.spec();
    let cfg = SessionConfig::new(DType::F32);
    let a = profile_model(
        &g,
        &platform,
        BackendFlavor::OrtLike,
        &cfg,
        MetricMode::Predicted,
    )
    .unwrap();
    let b = profile_model(
        &restored,
        &platform,
        BackendFlavor::OrtLike,
        &cfg,
        MetricMode::Predicted,
    )
    .unwrap();
    assert_eq!(a.total_flops, b.total_flops);
    assert_eq!(a.total_latency_ms, b.total_latency_ms);
}

#[test]
fn fusion_reduces_backend_layer_count_and_latency() {
    let g = ModelId::ResNet50.build(8);
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let trt = compile(&g, BackendFlavor::TrtLike, &platform, &cfg).unwrap();
    let ov = compile(&g, BackendFlavor::OvLike, &platform, &cfg).unwrap();
    let count = |m: &proof::runtime::CompiledModel| {
        m.layers.iter().filter(|l| !l.kernels.is_empty()).count()
    };
    assert!(count(&trt) <= count(&ov));
    assert!(trt.end_to_end_latency_ms() <= ov.end_to_end_latency_ms() * 1.01);
}

#[test]
fn svg_renders_for_every_flavor() {
    let g = ModelId::ShuffleNetV2x05.build(4);
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    for flavor in [
        BackendFlavor::TrtLike,
        BackendFlavor::OrtLike,
        BackendFlavor::OvLike,
    ] {
        let r = profile_model(&g, &platform, flavor, &cfg, MetricMode::Predicted).unwrap();
        let svg = render_roofline_svg(&r.layerwise_chart("t"), &SvgOptions::default());
        assert!(svg.contains("</svg>"), "{flavor:?}");
    }
}

#[test]
fn cpu_platforms_run_fp32_without_tensor_core_artifacts() {
    let r = profile(
        ModelId::ResNet34,
        8,
        PlatformId::Xeon6330,
        BackendFlavor::OrtLike,
        MetricMode::Predicted,
    );
    // achieved must stay below the CPU's vector fp32 peak
    assert!(r.achieved_gflops() < PlatformId::Xeon6330.spec().peak_flops(DType::F32, false) / 1e9);
    assert!(r.achieved_gflops() > 0.0);
}

#[test]
fn measured_mode_charges_replay_overhead_proportional_to_kernels() {
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let small = profile_model(
        &ModelId::MobileNetV2x05.build(2),
        &platform,
        BackendFlavor::TrtLike,
        &cfg,
        MetricMode::Measured,
    )
    .unwrap();
    let big = profile_model(
        &ModelId::SwinSmall.build(2),
        &platform,
        BackendFlavor::TrtLike,
        &cfg,
        MetricMode::Measured,
    )
    .unwrap();
    assert!(big.metric_collection_s > 2.0 * small.metric_collection_s);
}

#[test]
fn pipeline_spans_reach_the_facade_tracer_and_merge_into_one_trace() {
    // Tracing through the workspace facade: the pipeline stages record
    // spans through the shared ring tracer, a capture keeps them, and the
    // merged Chrome trace holds both the stage spans and the compiled
    // model's kernel timeline.
    proof::obs::shared_ring_tracer();
    let capture = proof::obs::Capture::start();
    let prep = {
        let _root = proof::obs::span_in(proof::obs::new_trace_id(), "profile");
        proof::core::prepare_stages(
            &ModelId::MobileNetV2x05.build(1),
            &PlatformId::A100.spec(),
            BackendFlavor::TrtLike,
            &SessionConfig::new(DType::F16),
        )
        .expect("prepare")
    };
    let spans = capture.finish().spans;
    // root + the three prefix stages, all carrying this trace id
    assert!(spans.len() >= 4, "got {} spans", spans.len());
    for stage in ["profile", "compile", "builtin_profile", "map"] {
        assert!(
            spans.iter().any(|s| s.name == stage),
            "missing span {stage:?}"
        );
    }
    // the derived PipelineTrace matches what prepare_stages recorded
    let derived = proof::core::PipelineTrace::from_spans(&spans);
    assert_eq!(derived.stages.len(), prep.trace.stages.len());

    let doc = proof::core::merged_chrome_trace(&spans, Some(&prep.compiled.compiled));
    let v: serde_json::Value = serde_json::from_str(&doc).expect("valid trace JSON");
    let events = v["traceEvents"].as_array().unwrap();
    assert!(events.iter().any(|e| e["cat"] == "pipeline"));
    assert!(events.iter().any(|e| e["cat"] == "kernel"));
}
