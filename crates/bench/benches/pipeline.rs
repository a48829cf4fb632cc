//! Criterion benches over the full PRoof pipeline stages: backend fusion,
//! compilation, layer mapping, end-to-end profiling (predicted and
//! measured), the individual staged-pipeline stages, and SVG rendering.

use criterion::{criterion_group, criterion_main, Criterion};
use proof_core::{
    map_layers, prepare_stages, profile_model, render_roofline_svg, run_metric_stages,
    stage_assemble, stage_builtin_profile, stage_map, stage_metrics, AnalyzeRepr, MetricMode,
    OptimizedRepr, SvgOptions,
};
use proof_hw::PlatformId;
use proof_ir::{DType, GraphIndex};
use proof_models::ModelId;
use proof_runtime::{compile, fusion, BackendFlavor, SessionConfig};
use std::hint::black_box;

fn bench_fusion(c: &mut Criterion) {
    let g = ModelId::SwinSmall.build(8);
    let ix = GraphIndex::new(&g);
    c.bench_function("fusion/swin_small_trt_policy", |b| {
        b.iter(|| black_box(fusion::fuse(black_box(&ix), &fusion::FusionPolicy::trt())))
    });
}

fn bench_compile(c: &mut Criterion) {
    let g = ModelId::ResNet50.build(8);
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    c.bench_function("compile/resnet50_a100", |b| {
        b.iter(|| {
            black_box(compile(black_box(&g), BackendFlavor::TrtLike, &platform, &cfg).unwrap())
        })
    });
}

fn bench_mapping(c: &mut Criterion) {
    let g = ModelId::ViTTiny.build(8);
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let compiled = compile(&g, BackendFlavor::TrtLike, &platform, &cfg).unwrap();
    let profile = compiled.builtin_profile();
    c.bench_function("mapping/vit_tiny_trt_with_myelin", |b| {
        b.iter(|| {
            let repr = OptimizedRepr::new(AnalyzeRepr::new(&g, DType::F16));
            black_box(map_layers(
                repr,
                black_box(&profile),
                BackendFlavor::TrtLike,
            ))
        })
    });
}

fn bench_full_profile(c: &mut Criterion) {
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let g = ModelId::ResNet50.build(8);
    c.bench_function("profile/resnet50_predicted", |b| {
        b.iter(|| {
            black_box(
                profile_model(
                    &g,
                    &platform,
                    BackendFlavor::TrtLike,
                    &cfg,
                    MetricMode::Predicted,
                )
                .unwrap(),
            )
        })
    });
    c.bench_function("profile/resnet50_measured", |b| {
        b.iter(|| {
            black_box(
                profile_model(
                    &g,
                    &platform,
                    BackendFlavor::TrtLike,
                    &cfg,
                    MetricMode::Measured,
                )
                .unwrap(),
            )
        })
    });
}

/// Per-stage costs of the staged pipeline on pre-built upstream artifacts,
/// plus the marginal cost of a second mode off a cached prefix.
fn bench_pipeline_stages(c: &mut Criterion) {
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let g = ModelId::ResNet50.build(8);
    let prep = prepare_stages(&g, &platform, BackendFlavor::TrtLike, &cfg).unwrap();
    let compiled = &prep.compiled;
    let profile = &prep.profile;
    let mapping = &prep.mapping;

    c.bench_function("stage/builtin_profile_resnet50", |b| {
        b.iter(|| black_box(stage_builtin_profile(black_box(compiled))))
    });
    c.bench_function("stage/map_resnet50", |b| {
        b.iter(|| {
            black_box(stage_map(
                &g,
                black_box(profile),
                BackendFlavor::TrtLike,
                &cfg,
            ))
        })
    });
    c.bench_function("stage/metrics_resnet50_predicted", |b| {
        b.iter(|| {
            black_box(stage_metrics(
                black_box(compiled),
                black_box(mapping),
                MetricMode::Predicted,
            ))
        })
    });
    c.bench_function("stage/metrics_resnet50_measured", |b| {
        b.iter(|| {
            black_box(stage_metrics(
                black_box(compiled),
                black_box(mapping),
                MetricMode::Measured,
            ))
        })
    });
    let metrics = stage_metrics(compiled, mapping, MetricMode::Predicted);
    c.bench_function("stage/assemble_resnet50", |b| {
        b.iter(|| {
            black_box(stage_assemble(
                black_box(compiled),
                black_box(profile),
                black_box(mapping),
                black_box(&metrics),
            ))
        })
    });
    // the stage-cache fast path: everything after a prefix hit
    c.bench_function("stage/metric_suffix_resnet50_predicted", |b| {
        b.iter(|| black_box(run_metric_stages(black_box(&prep), MetricMode::Predicted).unwrap()))
    });
}

fn bench_svg(c: &mut Criterion) {
    let platform = PlatformId::A100.spec();
    let cfg = SessionConfig::new(DType::F16);
    let g = ModelId::SwinTiny.build(8);
    let report = profile_model(
        &g,
        &platform,
        BackendFlavor::TrtLike,
        &cfg,
        MetricMode::Predicted,
    )
    .unwrap();
    let chart = report.layerwise_chart("bench");
    c.bench_function("svg_render/swin_tiny_layerwise", |b| {
        b.iter(|| {
            black_box(render_roofline_svg(
                black_box(&chart),
                &SvgOptions::default(),
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_fusion, bench_compile, bench_mapping, bench_full_profile, bench_pipeline_stages, bench_svg
}
criterion_main!(benches);
