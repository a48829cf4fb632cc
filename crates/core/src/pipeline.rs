//! The profiling workflow as an explicit staged pipeline (paper Figure 1):
//!
//! ```text
//! compile ─▶ built-in profile ─▶ layer mapping ─▶ metric acquisition ─▶ assembly
//!   CompiledArtifact  BuiltinProfileArtifact  MappingArtifact  MetricsArtifact  ProfileReport
//! ```
//!
//! Each stage is a plain function from the previous stage's artifact to the
//! next, and every artifact is fully owned (no graph borrows), so a prefix
//! of the pipeline can be computed once and reused: the first three stages
//! depend only on (model, backend, platform, precision, batch, seed), while
//! the metric stage additionally depends on [`MetricMode`]. That split is
//! what lets `sweep_batches` and proof-serve profile the same configuration
//! in both modes — or resweep a grid — paying compile/profile/map once.
//!
//! Every stage body runs inside a `proof_obs` span named after the stage
//! ([`PipelineStage::name`]), inheriting trace and parent from whatever
//! span the caller has open — a serve job's root span, the CLI's `profile`
//! span — so one Chrome-trace file can show the whole stage hierarchy (see
//! [`crate::trace_export`]). Every produced [`ProfileReport`] still carries
//! a [`PipelineTrace`] with wall-clock per-stage timings (`proof profile
//! --trace`, serve's `/metrics` stage histograms); it is now derived from
//! the span records ([`PipelineTrace::from_spans`] reconstructs an equal
//! trace from a collector) rather than being a separate timing source. The
//! trace is observability metadata: it is excluded from the report's JSON
//! form and equality so reports stay bit-for-bit reproducible for a given
//! (spec, seed).

use crate::analysis::AnalyzeRepr;
use crate::fused::FuseError;
use crate::mapping::map_layers;
use crate::ncu_fix::corrected_layer_flops;
use crate::profile::{LayerReport, MetricMode, ProfileReport};
use crate::roofline::{categorize, LayerCategory, RooflineCeiling};
use crate::OptimizedRepr;
use proof_counters::profile_with_counters;
use proof_hw::Platform;
use proof_ir::Graph;
use proof_obs::SpanRecord;
use proof_runtime::{
    compile, BackendError, BackendFlavor, CompiledModel, LayerProfile, SessionConfig, Utilization,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Unified error
// ---------------------------------------------------------------------------

/// The single error type crossing stage boundaries — replaces the previous
/// mix of [`BackendError`], [`FuseError`], and internal panics.
///
/// Errors split into *permanent* (resubmitting the same work fails the same
/// way) and *transient* ([`ProofError::is_transient`]; a retry of the same
/// run may succeed — workers retry these with backoff). Deadline overruns
/// get their own variant so callers can report `timed_out` distinctly.
#[derive(Debug, Clone, PartialEq)]
pub enum ProofError {
    /// The backend rejected or failed to convert the model (compile stage).
    Backend(BackendError),
    /// A mapping-interface operation failed (map stage).
    Fuse(FuseError),
    /// Graph construction/partitioning failed (distributed profiling).
    Graph(String),
    /// A report could not be rendered to JSON losslessly.
    Serialize(String),
    /// A stage failed transiently; retrying the run may succeed.
    Transient(String),
    /// The run's deadline expired before `stage` could start.
    Timeout { stage: PipelineStage },
    /// The request was invalid before any stage ran (empty sweep, bad spec).
    InvalidSpec(String),
}

impl ProofError {
    /// Whether a retry of the same run may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, ProofError::Transient(_))
    }

    /// Whether this run failed by exceeding its deadline.
    pub fn is_timeout(&self) -> bool {
        matches!(self, ProofError::Timeout { .. })
    }
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::Backend(e) => write!(f, "backend: {e}"),
            ProofError::Fuse(e) => write!(f, "mapping: {e}"),
            ProofError::Graph(m) => write!(f, "graph: {m}"),
            ProofError::Serialize(m) => write!(f, "serialize: {m}"),
            ProofError::Transient(m) => write!(f, "transient: {m}"),
            ProofError::Timeout { stage } => {
                write!(f, "deadline exceeded before stage '{}'", stage.name())
            }
            ProofError::InvalidSpec(m) => write!(f, "invalid spec: {m}"),
        }
    }
}

impl std::error::Error for ProofError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProofError::Backend(e) => Some(e),
            ProofError::Fuse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BackendError> for ProofError {
    fn from(e: BackendError) -> Self {
        ProofError::Backend(e)
    }
}

impl From<FuseError> for ProofError {
    fn from(e: FuseError) -> Self {
        ProofError::Fuse(e)
    }
}

// ---------------------------------------------------------------------------
// Run context: deadlines, cooperative cancellation, fault hooks
// ---------------------------------------------------------------------------

/// Per-run execution context: an optional deadline checked cooperatively
/// *between* stages, and the seed that keys the `proof_obs` fault plan.
///
/// Stage bodies stay pure; the drivers call [`RunCtx::checkpoint`] before
/// each stage, which (in order) fires any planned fault for that stage —
/// panic, stall, or transient failure — and then checks the deadline, so a
/// stall that overshoots the deadline surfaces as [`ProofError::Timeout`]
/// exactly as a slow real stage would.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCtx {
    /// Absolute deadline; `None` never times out.
    pub deadline: Option<std::time::Instant>,
    /// Job seed, used to scope fault-plan entries (`site:kind@seed`).
    pub seed: u64,
}

impl RunCtx {
    /// No deadline; faults still fire for `seed`-scoped plan entries.
    pub fn unbounded(seed: u64) -> RunCtx {
        RunCtx {
            deadline: None,
            seed,
        }
    }

    /// Deadline `timeout` from now.
    pub fn with_timeout(seed: u64, timeout: std::time::Duration) -> RunCtx {
        RunCtx {
            deadline: Some(std::time::Instant::now() + timeout),
            seed,
        }
    }

    /// Cooperative cancellation point, called by the drivers before each
    /// stage. Fault hook first, deadline second (see type docs).
    pub fn checkpoint(&self, stage: PipelineStage) -> Result<(), ProofError> {
        proof_obs::fault::fire(stage.name(), self.seed).map_err(ProofError::Transient)?;
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(ProofError::Timeout { stage }),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Stage identity and timing
// ---------------------------------------------------------------------------

/// The five stages of the paper's Figure-1 workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineStage {
    /// Backend compilation (fusion, lowering, reorder insertion).
    Compile,
    /// The runtime's built-in profiler: per-layer latencies + hints.
    BuiltinProfile,
    /// Backend-layer → model-layer mapping (§3.3).
    Map,
    /// FLOP/memory acquisition: analytical prediction or counter replay.
    Metrics,
    /// Roofline + report assembly.
    Assemble,
}

impl PipelineStage {
    /// All stages, in execution order.
    pub const ALL: [PipelineStage; 5] = [
        PipelineStage::Compile,
        PipelineStage::BuiltinProfile,
        PipelineStage::Map,
        PipelineStage::Metrics,
        PipelineStage::Assemble,
    ];

    /// Stable snake_case name (used as the `/metrics` histogram key and the
    /// stage span name).
    pub fn name(self) -> &'static str {
        match self {
            PipelineStage::Compile => "compile",
            PipelineStage::BuiltinProfile => "builtin_profile",
            PipelineStage::Map => "map",
            PipelineStage::Metrics => "metrics",
            PipelineStage::Assemble => "assemble",
        }
    }

    /// Inverse of [`PipelineStage::name`].
    pub fn from_name(name: &str) -> Option<PipelineStage> {
        PipelineStage::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// Wall-clock spent in one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    pub stage: PipelineStage,
    pub duration_us: f64,
}

/// Per-stage timings of one pipeline run, in execution order. Stages served
/// from a cache simply don't appear (a serve stage-cache hit yields a trace
/// with only `metrics` and `assemble` entries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineTrace {
    pub stages: Vec<StageTiming>,
}

impl PipelineTrace {
    pub fn record(&mut self, stage: PipelineStage, duration_us: f64) {
        self.stages.push(StageTiming { stage, duration_us });
    }

    /// Total traced wall-clock, µs.
    pub fn total_us(&self) -> f64 {
        self.stages.iter().map(|s| s.duration_us).sum()
    }

    /// Duration of `stage` if it ran (first occurrence), µs.
    pub fn stage_us(&self, stage: PipelineStage) -> Option<f64> {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.duration_us)
    }

    /// Human-readable per-stage breakdown (the `--trace` output).
    pub fn summary(&self) -> String {
        let total = self.total_us().max(1e-12);
        let mut out = String::from("stage            time        share\n");
        for t in &self.stages {
            out.push_str(&format!(
                "{:<16} {:>9.1} µs {:>5.1} %\n",
                t.stage.name(),
                t.duration_us,
                100.0 * t.duration_us / total
            ));
        }
        out.push_str(&format!("{:<16} {:>9.1} µs\n", "total", self.total_us()));
        out
    }

    /// Rebuild a trace from collected span records: stage-named spans, in
    /// start order, with their real wall durations. Given the spans of one
    /// pipeline run this equals the trace the drivers recorded directly.
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a SpanRecord>) -> PipelineTrace {
        let mut staged: Vec<(&SpanRecord, PipelineStage)> = spans
            .into_iter()
            .filter_map(|s| PipelineStage::from_name(s.name).map(|stage| (s, stage)))
            .collect();
        staged.sort_by(|a, b| {
            a.0.start_us
                .total_cmp(&b.0.start_us)
                .then(a.0.id.cmp(&b.0.id))
        });
        PipelineTrace {
            stages: staged
                .into_iter()
                .map(|(s, stage)| StageTiming {
                    stage,
                    duration_us: s.wall_us,
                })
                .collect(),
        }
    }
}

/// Run one stage body inside a span named after the stage and record its
/// wall duration in `trace`. The span is the single timing source: the
/// trace entry is taken from the finished record, so a collector sees
/// exactly the durations the report carries.
fn timed<T>(trace: &mut PipelineTrace, stage: PipelineStage, f: impl FnOnce() -> T) -> T {
    let span = proof_obs::span(stage.name());
    let out = f();
    let rec = span.finish();
    if proof_obs::event_enabled(proof_obs::Level::Debug) {
        proof_obs::event(
            proof_obs::Level::Debug,
            "proof_core::pipeline",
            format!("stage {} finished in {:.1} µs", stage.name(), rec.wall_us),
            Vec::new(),
        );
    }
    trace.record(stage, rec.wall_us);
    out
}

// ---------------------------------------------------------------------------
// Stage artifacts
// ---------------------------------------------------------------------------

/// Output of the compile stage: the backend's executable plan.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    pub compiled: CompiledModel,
    /// The model's batch size (leading input dimension).
    pub batch: u64,
}

/// Output of the built-in-profile stage: what the runtime's profiler prints.
#[derive(Debug, Clone)]
pub struct BuiltinProfileArtifact {
    /// Per-layer latency + fusion hint, in profile order.
    pub profile: Vec<LayerProfile>,
    /// For each profile entry, its index in the compiled plan — the
    /// Nsight-trace correlation key used by the measured metric stage.
    pub plan_indices: Vec<usize>,
    /// Time-averaged GPU/memory busy fractions (drives the power model).
    pub utilization: Utilization,
}

/// One backend layer after mapping, with everything later stages need —
/// fully owned, so a mapping can outlive the graph it was derived from.
#[derive(Debug, Clone)]
pub struct MappedLayerArtifact {
    pub backend_name: String,
    pub category: LayerCategory,
    pub avg_latency_us: f64,
    pub is_reorder: bool,
    /// Names of the original model nodes this backend layer executes.
    pub original_nodes: Vec<String>,
    /// Index in the compiled plan, if the profile entry correlates to one.
    pub plan_index: Option<usize>,
    /// Analytical Model-FLOP / Eq.-1 DRAM traffic (the Predicted metrics).
    pub predicted_flops: u64,
    pub predicted_bytes: u64,
}

/// Output of the mapping stage.
#[derive(Debug, Clone)]
pub struct MappingArtifact {
    pub layers: Vec<MappedLayerArtifact>,
    /// Backend layers whose members could not be resolved (diagnostic).
    pub unresolved: usize,
    /// Node count of the source graph (sizes the modeled analysis cost).
    pub node_count: usize,
}

/// Output of the metric-acquisition stage.
#[derive(Debug, Clone)]
pub struct MetricsArtifact {
    pub mode: MetricMode,
    /// (FLOPs, DRAM bytes) per mapped layer, aligned with
    /// [`MappingArtifact::layers`]. Measured values carry the Tensor-Core
    /// correction already applied.
    pub per_layer: Vec<(u64, u64)>,
    /// Extra wall-clock spent collecting metrics (Table 4 "Prof. time").
    pub metric_collection_s: f64,
    /// Mapped layers with no counter correlation (adds to the diagnostic).
    pub unresolved: usize,
}

// ---------------------------------------------------------------------------
// Stage functions
// ---------------------------------------------------------------------------

/// Stage 1 — compile the model on the backend.
pub fn stage_compile(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
) -> Result<CompiledArtifact, ProofError> {
    let compiled = compile(g, flavor, platform, cfg)?;
    Ok(CompiledArtifact {
        compiled,
        batch: g.batch_size(),
    })
}

/// Stage 2 — collect the runtime's built-in profile and utilization.
pub fn stage_builtin_profile(c: &CompiledArtifact) -> BuiltinProfileArtifact {
    // plan indices of profiled (non-empty) layers, in profile order
    let plan_indices: Vec<usize> = c
        .compiled
        .layers
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.kernels.is_empty())
        .map(|(i, _)| i)
        .collect();
    BuiltinProfileArtifact {
        profile: c.compiled.builtin_profile(),
        plan_indices,
        utilization: c.compiled.utilization(),
    }
}

/// Stage 3 — map backend layers to model layers and extract the owned
/// per-layer facts (category, members, plan correlation, predicted costs).
pub fn stage_map(
    g: &Graph,
    profile: &BuiltinProfileArtifact,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
) -> MappingArtifact {
    let analysis = AnalyzeRepr::new(g, cfg.precision);
    let mapping = map_layers(OptimizedRepr::new(analysis), &profile.profile, flavor);

    let mut layers = Vec::with_capacity(mapping.layers.len());
    let mut reorder_seen = 0usize;
    for ml in &mapping.layers {
        let (predicted_flops, predicted_bytes) = match ml.group {
            Some(gid) => {
                let c = mapping.repr.group_cost(gid);
                (c.flops, c.memory_bytes())
            }
            None => {
                let c = mapping.repr.reorder_layers()[reorder_seen].cost;
                (c.flops, c.memory_bytes())
            }
        };
        if ml.is_reorder {
            reorder_seen += 1;
        }
        let (category, original_nodes) = match ml.group {
            Some(gid) => {
                let members = &mapping.repr.group(gid).members;
                (
                    categorize(g, members),
                    members.iter().map(|&m| g.node(m).name.clone()).collect(),
                )
            }
            None => (LayerCategory::DataCopy, Vec::new()),
        };
        layers.push(MappedLayerArtifact {
            backend_name: ml.backend_name.clone(),
            category,
            avg_latency_us: ml.avg_latency_us,
            is_reorder: ml.is_reorder,
            original_nodes,
            // checked positional lookup: an unresolvable profile entry used
            // to desynchronize this correlation and panic downstream
            plan_index: profile.plan_indices.get(ml.profile_index).copied(),
            predicted_flops,
            predicted_bytes,
        });
    }

    MappingArtifact {
        layers,
        unresolved: mapping.unresolved.len(),
        node_count: g.nodes.len(),
    }
}

/// Stage 4 — acquire FLOP/memory metrics, analytically or from counters.
pub fn stage_metrics(
    c: &CompiledArtifact,
    mapping: &MappingArtifact,
    mode: MetricMode,
) -> MetricsArtifact {
    match mode {
        MetricMode::Predicted => MetricsArtifact {
            mode,
            per_layer: mapping
                .layers
                .iter()
                .map(|l| (l.predicted_flops, l.predicted_bytes))
                .collect(),
            // Deterministic cost model for the analytical pass (~50 µs per
            // node): the paper's point is that prediction overhead is
            // negligible vs counter replay, and a modeled figure keeps
            // reports bit-for-bit reproducible for a given (spec, seed) —
            // which content-addressed caching relies on.
            metric_collection_s: mapping.node_count as f64 * 50e-6,
            unresolved: 0,
        },
        MetricMode::Measured => {
            let ncu = profile_with_counters(&c.compiled, c.compiled.config.seed);
            let per_plan_layer = ncu.per_layer();
            let mut unresolved = 0usize;
            let per_layer = mapping
                .layers
                .iter()
                .map(|l| match l.plan_index {
                    Some(pi) => {
                        let (reported, mma, bytes) =
                            per_plan_layer.get(&pi).copied().unwrap_or_default();
                        (
                            corrected_layer_flops(
                                reported,
                                mma,
                                c.compiled.platform.arch,
                                c.compiled.config.precision,
                            ),
                            bytes,
                        )
                    }
                    None => {
                        unresolved += 1;
                        (0, 0)
                    }
                })
                .collect();
            MetricsArtifact {
                mode,
                per_layer,
                metric_collection_s: ncu.profiling_overhead_s,
                unresolved,
            }
        }
    }
}

/// Stage 5 — assemble the roofline report. The trace is attached by the
/// driver afterwards so it can include this stage's own duration.
pub fn stage_assemble(
    c: &CompiledArtifact,
    profile: &BuiltinProfileArtifact,
    mapping: &MappingArtifact,
    metrics: &MetricsArtifact,
) -> ProfileReport {
    let layers: Vec<LayerReport> = mapping
        .layers
        .iter()
        .zip(&metrics.per_layer)
        .map(|(l, &(flops, bytes))| LayerReport {
            name: l.backend_name.clone(),
            category: l.category,
            latency_us: l.avg_latency_us,
            flops,
            memory_bytes: bytes,
            is_reorder: l.is_reorder,
            original_nodes: l.original_nodes.clone(),
        })
        .collect();

    let total_latency_ms = layers.iter().map(|l| l.latency_us).sum::<f64>() / 1e3;
    let total_flops = layers.iter().map(|l| l.flops).sum();
    let total_memory_bytes = layers.iter().map(|l| l.memory_bytes).sum();

    ProfileReport {
        model: c.compiled.model_name.clone(),
        platform: c.compiled.platform.name.clone(),
        backend: c.compiled.flavor.name().to_string(),
        precision: c.compiled.config.precision.short_name().to_string(),
        batch: c.batch,
        mode: metrics.mode,
        layers,
        ceiling: RooflineCeiling::theoretical(&c.compiled.platform, c.compiled.config.precision),
        total_latency_ms,
        total_flops,
        total_memory_bytes,
        metric_collection_s: metrics.metric_collection_s,
        util_gpu: profile.utilization.gpu,
        util_mem: profile.utilization.mem,
        unresolved_layers: mapping.unresolved + metrics.unresolved,
        trace: PipelineTrace::default(),
    }
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// The mode-independent pipeline prefix (compile + built-in profile + map),
/// reusable across [`MetricMode`]s, batch-sweep points, and serve jobs.
#[derive(Debug, Clone)]
pub struct PreparedStages {
    /// Shared, so a finished serve job can keep the plan its trace's
    /// kernel timeline renders from without the rest of the prefix.
    pub compiled: Arc<CompiledArtifact>,
    pub profile: BuiltinProfileArtifact,
    pub mapping: MappingArtifact,
    /// Timings of the three prefix stages.
    pub trace: PipelineTrace,
}

/// Run the pipeline prefix once, unbounded ([`prepare_stages_ctx`] with no
/// deadline; the fault plan still fires for the config's seed).
pub fn prepare_stages(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
) -> Result<PreparedStages, ProofError> {
    prepare_stages_ctx(g, platform, flavor, cfg, &RunCtx::unbounded(cfg.seed))
}

/// Run the pipeline prefix under a [`RunCtx`]: the deadline is checked (and
/// planned faults fire) at the boundary before each stage.
pub fn prepare_stages_ctx(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
    ctx: &RunCtx,
) -> Result<PreparedStages, ProofError> {
    let mut trace = PipelineTrace::default();
    ctx.checkpoint(PipelineStage::Compile)?;
    let compiled = timed(&mut trace, PipelineStage::Compile, || {
        stage_compile(g, platform, flavor, cfg)
    })?;
    ctx.checkpoint(PipelineStage::BuiltinProfile)?;
    let profile = timed(&mut trace, PipelineStage::BuiltinProfile, || {
        stage_builtin_profile(&compiled)
    });
    ctx.checkpoint(PipelineStage::Map)?;
    let mapping = timed(&mut trace, PipelineStage::Map, || {
        stage_map(g, &profile, flavor, cfg)
    });
    Ok(PreparedStages {
        compiled: Arc::new(compiled),
        profile,
        mapping,
        trace,
    })
}

/// Run the mode-dependent suffix (metrics + assembly) on a prepared prefix,
/// unbounded. The returned report's trace holds the prefix timings (as paid
/// when the prefix was built) plus this run's metric/assembly timings.
pub fn run_metric_stages(
    prep: &PreparedStages,
    mode: MetricMode,
) -> Result<ProfileReport, ProofError> {
    let seed = prep.compiled.compiled.config.seed;
    run_metric_stages_ctx(prep, mode, &RunCtx::unbounded(seed))
}

/// [`run_metric_stages`] under a [`RunCtx`] (deadline + fault checkpoints
/// before the metric and assembly stages).
pub fn run_metric_stages_ctx(
    prep: &PreparedStages,
    mode: MetricMode,
    ctx: &RunCtx,
) -> Result<ProfileReport, ProofError> {
    let mut trace = prep.trace.clone();
    ctx.checkpoint(PipelineStage::Metrics)?;
    let metrics = timed(&mut trace, PipelineStage::Metrics, || {
        stage_metrics(&prep.compiled, &prep.mapping, mode)
    });
    ctx.checkpoint(PipelineStage::Assemble)?;
    let mut report = timed(&mut trace, PipelineStage::Assemble, || {
        stage_assemble(&prep.compiled, &prep.profile, &prep.mapping, &metrics)
    });
    report.trace = trace;
    Ok(report)
}

/// Run all five stages end to end (what [`crate::profile_model`] drives).
pub fn run_pipeline(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
    mode: MetricMode,
) -> Result<ProfileReport, ProofError> {
    run_pipeline_ctx(g, platform, flavor, cfg, mode, &RunCtx::unbounded(cfg.seed))
}

/// [`run_pipeline`] under a [`RunCtx`] — the cancellable end-to-end driver.
pub fn run_pipeline_ctx(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
    mode: MetricMode,
    ctx: &RunCtx,
) -> Result<ProfileReport, ProofError> {
    let prep = prepare_stages_ctx(g, platform, flavor, cfg, ctx)?;
    run_metric_stages_ctx(&prep, mode, ctx)
}

/// Profile one configuration in both modes off a single shared prefix —
/// compile/profile/map are paid once instead of twice.
pub fn profile_both_modes(
    g: &Graph,
    platform: &Platform,
    flavor: BackendFlavor,
    cfg: &SessionConfig,
) -> Result<(ProfileReport, ProfileReport), ProofError> {
    let prep = prepare_stages(g, platform, flavor, cfg)?;
    Ok((
        run_metric_stages(&prep, MetricMode::Predicted)?,
        run_metric_stages(&prep, MetricMode::Measured)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_model;
    use proof_hw::PlatformId;
    use proof_ir::DType;
    use proof_models::ModelId;
    use proof_runtime::LayerHint;

    fn prep(model: ModelId, batch: u64) -> PreparedStages {
        let g = model.build(batch);
        prepare_stages(
            &g,
            &PlatformId::A100.spec(),
            BackendFlavor::TrtLike,
            &SessionConfig::new(DType::F16),
        )
        .unwrap()
    }

    #[test]
    fn staged_run_matches_monolithic_driver_in_both_modes() {
        let g = ModelId::ResNet50.build(4);
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(DType::F16);
        let prep = prepare_stages(&g, &platform, BackendFlavor::TrtLike, &cfg).unwrap();
        for mode in [MetricMode::Predicted, MetricMode::Measured] {
            let staged = run_metric_stages(&prep, mode).unwrap();
            let mono = profile_model(&g, &platform, BackendFlavor::TrtLike, &cfg, mode).unwrap();
            assert_eq!(staged, mono);
            assert_eq!(staged.to_json(), mono.to_json());
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for stage in PipelineStage::ALL {
            assert_eq!(PipelineStage::from_name(stage.name()), Some(stage));
        }
        assert_eq!(PipelineStage::from_name("no_such_stage"), None);
    }

    #[test]
    fn trace_covers_all_five_stages_in_order() {
        let g = ModelId::MobileNetV2x05.build(1);
        let r = run_pipeline(
            &g,
            &PlatformId::A100.spec(),
            BackendFlavor::TrtLike,
            &SessionConfig::new(DType::F16),
            MetricMode::Predicted,
        )
        .unwrap();
        let order: Vec<PipelineStage> = r.trace.stages.iter().map(|t| t.stage).collect();
        assert_eq!(order, PipelineStage::ALL.to_vec());
        assert!(r.trace.stages.iter().all(|t| t.duration_us >= 0.0));
        assert!(r.trace.total_us() > 0.0);
        let s = r.trace.summary();
        assert!(s.contains("builtin_profile") && s.contains("total"));
    }

    #[test]
    fn prefix_reuse_keeps_prefix_timings_and_appends_suffix() {
        let prep = prep(ModelId::ShuffleNetV2x05, 1);
        let a = run_metric_stages(&prep, MetricMode::Predicted).unwrap();
        let b = run_metric_stages(&prep, MetricMode::Measured).unwrap();
        for r in [&a, &b] {
            assert_eq!(r.trace.stages.len(), 5);
            // the shared prefix timings are carried over verbatim
            assert_eq!(r.trace.stages[..3].to_vec(), prep.trace.stages);
        }
        assert_eq!(
            a.trace.stage_us(PipelineStage::Compile),
            b.trace.stage_us(PipelineStage::Compile)
        );
    }

    #[test]
    fn reorder_layers_cost_as_data_copies() {
        // ORT-like plans insert reorder layers on ResNet (conv inputs)
        let g = ModelId::ResNet50.build(1);
        let r = run_pipeline(
            &g,
            &PlatformId::A100.spec(),
            BackendFlavor::OrtLike,
            &SessionConfig::new(DType::F16),
            MetricMode::Predicted,
        )
        .unwrap();
        let reorders: Vec<_> = r.layers.iter().filter(|l| l.is_reorder).collect();
        assert!(!reorders.is_empty());
        for l in &reorders {
            assert_eq!(l.category, LayerCategory::DataCopy);
            assert!(l.original_nodes.is_empty());
            // a pure copy: bytes move, no FLOPs
            assert_eq!(l.flops, 0);
            assert!(l.memory_bytes > 0);
        }
        assert_eq!(r.unresolved_layers, 0);
    }

    #[test]
    fn unresolvable_profile_entry_counts_as_unresolved_not_panic() {
        // a profile entry naming nodes that don't exist cannot be mapped;
        // downstream plan-index correlation must degrade, not panic
        let g = ModelId::MobileNetV2x05.build(1);
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(DType::F16);
        let compiled = stage_compile(&g, &platform, BackendFlavor::TrtLike, &cfg).unwrap();
        let mut profile = stage_builtin_profile(&compiled);
        // corrupt the middle of the profile: an alien layer the mapper
        // cannot resolve, desynchronizing position-based correlation
        profile.profile.insert(
            profile.profile.len() / 2,
            LayerProfile {
                name: "alien_layer".into(),
                avg_latency_us: 1.0,
                hint: LayerHint::NodeNames(vec!["no_such_node".into()]),
            },
        );
        let mapping = stage_map(&g, &profile, BackendFlavor::TrtLike, &cfg);
        assert_eq!(mapping.unresolved, 1);
        // the extra entry shifts every later profile position by one, so the
        // final mapped layer falls off the end of the plan correlation — the
        // checked lookup degrades it to None instead of indexing out of
        // bounds (the old positional code's latent panic)
        let lost = mapping
            .layers
            .iter()
            .filter(|l| l.plan_index.is_none())
            .count();
        assert_eq!(lost, 1);
        let metrics = stage_metrics(&compiled, &mapping, MetricMode::Measured);
        assert_eq!(metrics.unresolved, 1);
        let report = stage_assemble(&compiled, &profile, &mapping, &metrics);
        assert_eq!(report.unresolved_layers, 2);
        assert!(report.total_flops > 0);
    }

    #[test]
    fn missing_plan_index_degrades_to_zero_metrics() {
        let prep = prep(ModelId::MobileNetV2x05, 1);
        let mut mapping = prep.mapping.clone();
        mapping.layers[0].plan_index = None;
        let metrics = stage_metrics(&prep.compiled, &mapping, MetricMode::Measured);
        assert_eq!(metrics.unresolved, 1);
        assert_eq!(metrics.per_layer[0], (0, 0));
        let report = stage_assemble(&prep.compiled, &prep.profile, &mapping, &metrics);
        assert!(report.unresolved_layers >= 1);
    }

    #[test]
    fn proof_error_displays_and_chains_sources() {
        let e = ProofError::from(BackendError::ConversionFailure("boom".into()));
        assert!(e.to_string().contains("backend"));
        assert!(std::error::Error::source(&e).is_some());
        let f = ProofError::from(FuseError::EmptyMemberSet);
        assert!(f.to_string().contains("mapping"));
        assert!(ProofError::Graph("bad cut".into())
            .to_string()
            .contains("bad cut"));
        assert!(ProofError::Serialize("nan".into())
            .to_string()
            .contains("nan"));
    }

    #[test]
    fn error_taxonomy_splits_transient_and_timeout() {
        assert!(ProofError::Transient("flaky".into()).is_transient());
        assert!(!ProofError::Transient("flaky".into()).is_timeout());
        let t = ProofError::Timeout {
            stage: PipelineStage::Metrics,
        };
        assert!(t.is_timeout() && !t.is_transient());
        assert!(t.to_string().contains("metrics"));
        for permanent in [
            ProofError::Graph("g".into()),
            ProofError::Serialize("s".into()),
            ProofError::InvalidSpec("empty".into()),
        ] {
            assert!(!permanent.is_transient() && !permanent.is_timeout());
        }
    }

    #[test]
    fn expired_deadline_cancels_between_stages() {
        let g = ModelId::MobileNetV2x05.build(1);
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(DType::F16);
        // an already-expired deadline trips the very first checkpoint
        let ctx = RunCtx {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            seed: cfg.seed,
        };
        match prepare_stages_ctx(&g, &platform, BackendFlavor::TrtLike, &cfg, &ctx) {
            Err(ProofError::Timeout { stage }) => assert_eq!(stage, PipelineStage::Compile),
            other => panic!("expected timeout, got {other:?}"),
        }
        // a prefix built in time can still expire before the suffix runs
        let prep = prepare_stages(&g, &platform, BackendFlavor::TrtLike, &cfg).unwrap();
        match run_metric_stages_ctx(&prep, MetricMode::Predicted, &ctx) {
            Err(ProofError::Timeout { stage }) => assert_eq!(stage, PipelineStage::Metrics),
            other => panic!("expected timeout, got {other:?}"),
        }
        // unbounded contexts never time out
        assert!(run_metric_stages_ctx(&prep, MetricMode::Predicted, &RunCtx::unbounded(0)).is_ok());
    }
}
