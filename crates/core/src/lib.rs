//! # proof-core — the PRoof framework
//!
//! The paper's primary contribution, organized exactly as §3 describes:
//!
//! - [`cost`] / [`analysis`] — the *Analysis Representation*: operator
//!   defines predicting Model FLOP and Eq.-1 DRAM traffic per node,
//! - [`fused`] — the *Optimized Analyze Representation* with `_FusedOp` and
//!   the universal graph-search interfaces (`get_subgraph_ops_by_io`,
//!   `set_tensor_alias`, `set_fused_op`),
//! - `mapping` — per-backend layer-mapping strategies (TensorRT-like,
//!   ONNX-Runtime-like, OpenVINO-like),
//! - `ncu_fix` — the Tensor-Core FLOP correction for counter profilers,
//! - `roofline` — end-to-end and layer-wise roofline assembly,
//! - [`pipeline`] — the workflow as explicit, reusable stages with typed
//!   artifacts, per-stage spans/timings, and the unified [`ProofError`],
//! - [`trace_export`] — merged Chrome-trace export (stage spans + kernel
//!   timeline on one clock),
//! - [`grid`] — profiling grid specs (model × backend × platform ×
//!   precision × batch) and deterministic multi-node result merging,
//! - `profile` — the top-level profiler driver (predicted or measured),
//! - `peak` — achieved-roofline-peak measurement via a pseudo model,
//! - `report` / `viewer` — text/CSV reports and SVG roofline charts.

pub mod analysis;
pub mod cost;
pub mod distributed;
pub mod fused;
pub mod grid;
pub mod headroom;
pub mod html;
pub mod mapping;
pub mod memory;
pub mod ncu_fix;
pub mod peak;
pub mod pipeline;
pub mod profile;
pub mod report;
pub mod roofline;
pub mod sweep;
pub mod trace_export;
pub mod viewer;

pub use analysis::AnalyzeRepr;
pub use cost::{op_cost, op_cost_with, CostEstimate, CostOptions, FlopTable};
pub use distributed::{profile_pipeline, Interconnect, PipelineReport, StageReport};
pub use fused::{FuseError, Group, GroupId, OptimizedRepr, ReorderLayer};
pub use grid::{
    merge_cells, GridCell, GridMerger, GridSpec, MergedGrid, DEFAULT_GRID_SEED, MAX_GRID_CELLS,
};
pub use headroom::{analyze_headroom, HeadroomReport, LayerHeadroom};
pub use html::html_report;
pub use mapping::{map_layers, MappedLayer, Mapping};
pub use memory::{max_batch_within, plan_memory, MemoryPlan};
pub use peak::{measure_achieved_peak, AchievedPeak};
pub use pipeline::{
    prepare_stages, prepare_stages_ctx, profile_both_modes, run_metric_stages,
    run_metric_stages_ctx, run_pipeline, run_pipeline_ctx, stage_assemble, stage_builtin_profile,
    stage_compile, stage_map, stage_metrics, BuiltinProfileArtifact, CompiledArtifact,
    MappedLayerArtifact, MappingArtifact, MetricsArtifact, PipelineStage, PipelineTrace,
    PreparedStages, ProofError, RunCtx, StageTiming,
};
pub use profile::{profile_model, LayerReport, MetricMode, ProfileReport};
pub use roofline::{categorize, LayerCategory, RooflineCeiling, RooflineChart, RooflinePoint};
pub use sweep::{pow2_grid, sweep_batches, BatchSweep, SweepPoint};
pub use trace_export::merged_chrome_trace;
pub use viewer::{render_roofline_svg, SvgOptions};
