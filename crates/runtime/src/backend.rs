//! Backend abstraction: compile a model for a platform, profile it, and
//! expose exactly the information real runtimes expose.
//!
//! Three flavours mirror the paper's evaluation runtimes:
//!
//! | flavour | stands in for | fusion | what its profiler reveals |
//! |---|---|---|---|
//! | `TrtLike` | TensorRT | aggressive + opaque Myelin regions | `"a + b + c"` name strings; opaque regions show **io tensor names only** |
//! | `OrtLike` | ONNX Runtime | epilogues + patterns | fused node-name lists (the best case) |
//! | `OvLike` | OpenVINO | conv/gemm epilogues | primary-op name + executor type only |
//!
//! The `truth_members` accessor exists **for tests**: PRoof's mapping is
//! validated against it but never reads it.

use crate::config::SessionConfig;
use crate::exec::{aggregate_utilization, kernel_timing, KernelTiming, Utilization};
use crate::fusion::{fuse, FusionPolicy, GroupKind, RtGroup};
use crate::lower::{Kernel, KernelClass, KernelCost, Lowerer};
use proof_hw::{HwFamily, Platform};
use proof_ir::{DType, Graph, GraphIndex, NodeId, OpKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Which runtime a backend imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendFlavor {
    TrtLike,
    OrtLike,
    OvLike,
}

impl BackendFlavor {
    pub fn name(self) -> &'static str {
        match self {
            BackendFlavor::TrtLike => "trt-like",
            BackendFlavor::OrtLike => "ort-like",
            BackendFlavor::OvLike => "ov-like",
        }
    }

    pub fn policy(self) -> FusionPolicy {
        match self {
            BackendFlavor::TrtLike => FusionPolicy::trt(),
            BackendFlavor::OrtLike => FusionPolicy::ort(),
            BackendFlavor::OvLike => FusionPolicy::ov(),
        }
    }

    /// The runtime the paper pairs with each platform (Table 2).
    pub fn for_platform(p: &Platform) -> BackendFlavor {
        match p.family {
            HwFamily::NvidiaGpu | HwFamily::NvidiaJetson => BackendFlavor::TrtLike,
            HwFamily::X86Cpu | HwFamily::ArmCpu => BackendFlavor::OrtLike,
            HwFamily::IntelNpu => BackendFlavor::OvLike,
        }
    }

    pub fn parse(s: &str) -> Option<BackendFlavor> {
        match s.to_ascii_lowercase().as_str() {
            "trt" | "trt-like" | "tensorrt" => Some(BackendFlavor::TrtLike),
            "ort" | "ort-like" | "onnxruntime" => Some(BackendFlavor::OrtLike),
            "ov" | "ov-like" | "openvino" => Some(BackendFlavor::OvLike),
            _ => None,
        }
    }
}

/// What a backend's built-in profiler reveals about a layer's origin.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerHint {
    /// ORT-style: the fused original node names, verbatim.
    NodeNames(Vec<String>),
    /// TRT-style: `"conv1 + relu1 + add_3"`.
    FusedNameString(String),
    /// Myelin-style opaque region: only its io tensor names.
    OpaqueIo {
        inputs: Vec<String>,
        outputs: Vec<String>,
    },
    /// OpenVINO-style: primary node name + executor type.
    PrimaryOp {
        node_name: String,
        exec_type: String,
    },
    /// Runtime-inserted conversion layer (no model counterpart).
    Reorder {
        input_tensor: String,
        output_tensor: String,
    },
}

/// One backend layer of the compiled plan.
#[derive(Debug, Clone)]
pub struct BackendLayer {
    pub name: String,
    pub hint: LayerHint,
    pub kernels: Vec<Kernel>,
    /// Deterministic base latency (noise is added per profiling iteration).
    pub base_latency_us: f64,
    pub timing: KernelTiming,
    /// True for runtime-inserted reorder/reformat layers.
    pub is_reorder: bool,
    truth: Vec<NodeId>,
}

impl BackendLayer {
    /// Ground-truth member nodes — **test oracle only**.
    #[doc(hidden)]
    pub fn truth_members(&self) -> &[NodeId] {
        &self.truth
    }
}

/// What the built-in profiler reports per layer.
#[derive(Debug, Clone)]
pub struct LayerProfile {
    pub name: String,
    pub avg_latency_us: f64,
    pub hint: LayerHint,
}

/// Full per-layer latency statistics (warmup-discarded).
#[derive(Debug, Clone)]
pub struct LayerStats {
    pub name: String,
    pub hint: LayerHint,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub min_us: f64,
    pub max_us: f64,
    pub samples: u32,
}

/// A kernel-trace record (the Nsight-Systems-like correlation channel).
#[derive(Debug, Clone)]
pub struct KernelRecord {
    pub kernel: Kernel,
    pub layer_index: usize,
    pub latency_us: f64,
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    UnsupportedOp { op: String, node: String },
    ConversionFailure(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::UnsupportedOp { op, node } => {
                write!(f, "unsupported operator {op} at node {node}")
            }
            BackendError::ConversionFailure(m) => write!(f, "model conversion failed: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A compiled, executable plan.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    pub model_name: String,
    pub flavor: BackendFlavor,
    pub platform: Platform,
    pub config: SessionConfig,
    pub layers: Vec<BackendLayer>,
}

fn check_support(g: &Graph, platform: &Platform, cfg: &SessionConfig) -> Result<(), BackendError> {
    if platform.family == HwFamily::IntelNpu {
        // the paper: "only a small portion of models were able to
        // successfully perform inference" on the NPU
        for n in &g.nodes {
            let bad = matches!(
                n.op,
                OpKind::Erf
                    | OpKind::Gather
                    | OpKind::Range
                    | OpKind::GroupNormalization
                    | OpKind::Softmax
                    | OpKind::LayerNormalization
            ) || (n.op == OpKind::Transpose && g.tensor(n.inputs[0]).shape.rank() > 4);
            if bad {
                return Err(BackendError::UnsupportedOp {
                    op: n.op.to_string(),
                    node: n.name.clone(),
                });
            }
        }
    }
    // paper footnote 5: TensorRT fails converting the SD UNet to int8
    if cfg.precision == DType::I8 && g.name.contains("sd-unet") {
        return Err(BackendError::ConversionFailure(
            "int8 calibration of sd-unet fails (paper footnote 5)".into(),
        ));
    }
    Ok(())
}

/// TRT-style display name for a group: member names joined with " + ".
fn trt_group_name(g: &Graph, grp: &RtGroup) -> String {
    let names: Vec<&str> = grp
        .members
        .iter()
        .filter(|&&m| !g.node(m).op.is_noop_at_inference())
        .map(|&m| g.node(m).name.as_str())
        .collect();
    match names.len() {
        0 => g.node(grp.members[0]).name.clone(),
        1..=4 => names.join(" + "),
        _ => format!("{} + ... + {}", names[0], names[names.len() - 1]),
    }
}

/// Compile `g` for `platform` under `flavor`.
pub fn compile(
    g: &Graph,
    flavor: BackendFlavor,
    platform: &Platform,
    cfg: &SessionConfig,
) -> Result<CompiledModel, BackendError> {
    check_support(g, platform, cfg)?;
    let ix = GraphIndex::new(g);
    let groups = fuse(&ix, &flavor.policy());
    let lowerer = Lowerer::new(&ix, platform, cfg.precision);
    let mut layers: Vec<BackendLayer> = Vec::with_capacity(groups.len() + 2);
    let mut myelin_count = 0usize;

    // runtime-inserted input conversion layers (reformat / layout reorder)
    let reorder_tag = match flavor {
        BackendFlavor::TrtLike => "Reformatting CopyNode for Input Tensor",
        BackendFlavor::OrtLike => "reorder",
        BackendFlavor::OvLike => "Convert",
    };
    let needs_input_reorder = match flavor {
        BackendFlavor::TrtLike => cfg.precision != DType::F32,
        BackendFlavor::OrtLike => g.nodes.iter().any(|n| n.op == OpKind::Conv),
        BackendFlavor::OvLike => true,
    };
    if needs_input_reorder {
        for (i, &inp) in g.inputs.iter().enumerate() {
            let t = g.tensor(inp);
            if t.dtype.is_int() {
                continue; // index inputs are not reformatted
            }
            let bytes = t.size_bytes_at(cfg.precision);
            let kernel = Kernel {
                name: format!("{}_{i}", reorder_tag.replace(' ', "_")),
                class: KernelClass::Reorder,
                cost: KernelCost {
                    hw_flops: 0,
                    dram_read_bytes: bytes,
                    dram_write_bytes: bytes,
                    tensor_core: false,
                    mma_instrs: 0,
                },
                out_elems: t.numel(),
            };
            let timing = kernel_timing(&kernel, platform, cfg.precision);
            layers.push(BackendLayer {
                name: format!("{reorder_tag} {i} to {}", t.name),
                hint: LayerHint::Reorder {
                    input_tensor: t.name.clone(),
                    output_tensor: format!("{}_r", t.name),
                },
                kernels: vec![kernel],
                base_latency_us: timing.latency_us,
                timing,
                is_reorder: true,
                truth: Vec::new(),
            });
        }
    }

    for grp in &groups {
        let Some(kernel) = lowerer.lower_group(grp, layers.len()) else {
            // eliminated: still carried as a zero-latency layer so the truth
            // partition stays total, but the profiler will not report it
            layers.push(BackendLayer {
                name: format!("(removed) {}", g.node(grp.members[0]).name),
                hint: LayerHint::FusedNameString(String::new()),
                kernels: Vec::new(),
                base_latency_us: 0.0,
                timing: KernelTiming {
                    latency_us: 0.0,
                    compute_us: 0.0,
                    memory_us: 0.0,
                },
                is_reorder: false,
                truth: grp.members.clone(),
            });
            continue;
        };
        let timing = kernel_timing(&kernel, platform, cfg.precision);
        let (name, hint) = match flavor {
            BackendFlavor::TrtLike => {
                if grp.kind == GroupKind::AttentionRegion {
                    let (ins, outs) = lowerer.group_io(grp);
                    let name = format!("{{ForeignNode[myelin_subgraph_{myelin_count}]}}");
                    myelin_count += 1;
                    (
                        name,
                        LayerHint::OpaqueIo {
                            inputs: ins.iter().map(|&t| g.tensor(t).name.clone()).collect(),
                            outputs: outs.iter().map(|&t| g.tensor(t).name.clone()).collect(),
                        },
                    )
                } else {
                    let n = trt_group_name(g, grp);
                    (n.clone(), LayerHint::FusedNameString(n))
                }
            }
            BackendFlavor::OrtLike => {
                let primary = g.node(grp.primary(g));
                (
                    format!("Fused{}_{}", primary.op, primary.name),
                    LayerHint::NodeNames(
                        grp.members
                            .iter()
                            .map(|&m| g.node(m).name.clone())
                            .collect(),
                    ),
                )
            }
            BackendFlavor::OvLike => {
                let primary = g.node(grp.primary(g));
                (
                    primary.name.clone(),
                    LayerHint::PrimaryOp {
                        node_name: primary.name.clone(),
                        exec_type: kernel.name.clone(),
                    },
                )
            }
        };
        layers.push(BackendLayer {
            name,
            hint,
            kernels: vec![kernel],
            base_latency_us: timing.latency_us,
            timing,
            is_reorder: false,
            truth: grp.members.clone(),
        });
    }

    Ok(CompiledModel {
        model_name: g.name.clone(),
        flavor,
        platform: platform.clone(),
        config: *cfg,
        layers,
    })
}

impl CompiledModel {
    /// Deterministic end-to-end base latency (µs, no noise).
    pub fn base_latency_us(&self) -> f64 {
        self.layers.iter().map(|l| l.base_latency_us).sum()
    }

    /// What the runtime's built-in profiler reports: per-layer average
    /// latency over `config.iterations` noisy runs, plus the fusion hint.
    /// Eliminated layers are invisible, exactly like in real runtimes.
    pub fn builtin_profile(&self) -> Vec<LayerProfile> {
        self.profile_stats()
            .into_iter()
            .map(|s| LayerProfile {
                name: s.name,
                avg_latency_us: s.mean_us,
                hint: s.hint,
            })
            .collect()
    }

    /// Full per-layer latency statistics over `config.iterations` runs,
    /// with the first `warmup` iterations (JIT/caches heating up — the
    /// simulator charges them 1.5× noise-free latency) discarded. Real
    /// profiling methodology: report p50/p99 alongside the mean.
    pub fn profile_stats(&self) -> Vec<LayerStats> {
        let warmup = (self.config.iterations / 10).min(3);
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        self.layers
            .iter()
            .filter(|l| !l.kernels.is_empty())
            .map(|l| {
                let mut samples = Vec::with_capacity(self.config.iterations as usize);
                for i in 0..self.config.iterations {
                    let noise: f64 = 1.0 + 0.01 * (rng.gen::<f64>() - 0.5) * 2.0;
                    let cold = if i < warmup { 1.5 } else { 1.0 };
                    samples.push(l.base_latency_us * noise * cold);
                }
                let hot = &mut samples[warmup as usize..];
                hot.sort_by(|a, b| a.total_cmp(b));
                let n = hot.len().max(1);
                let pct = |q: f64| hot[((n - 1) as f64 * q).round() as usize];
                LayerStats {
                    name: l.name.clone(),
                    hint: l.hint.clone(),
                    mean_us: hot.iter().sum::<f64>() / n as f64,
                    p50_us: pct(0.50),
                    p99_us: pct(0.99),
                    min_us: hot.first().copied().unwrap_or(0.0),
                    max_us: hot.last().copied().unwrap_or(0.0),
                    samples: n as u32,
                }
            })
            .collect()
    }

    /// Average end-to-end latency in milliseconds (profiled).
    pub fn end_to_end_latency_ms(&self) -> f64 {
        self.builtin_profile()
            .iter()
            .map(|l| l.avg_latency_us)
            .sum::<f64>()
            / 1e3
    }

    /// Busy fractions (drives the Jetson power model).
    pub fn utilization(&self) -> Utilization {
        let timings: Vec<KernelTiming> = self
            .layers
            .iter()
            .filter(|l| !l.kernels.is_empty())
            .map(|l| l.timing)
            .collect();
        aggregate_utilization(&timings)
    }

    /// The kernel trace a Nsight-Systems-like tool would show: kernels in
    /// execution order, correlated to backend layers.
    pub fn kernel_trace(&self) -> Vec<KernelRecord> {
        let mut out = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            for k in &l.kernels {
                out.push(KernelRecord {
                    kernel: k.clone(),
                    layer_index: i,
                    latency_us: l.base_latency_us / l.kernels.len() as f64,
                });
            }
        }
        out
    }

    /// Total Hardware FLOPs / DRAM bytes over the plan (counter-side truth).
    pub fn hw_totals(&self) -> (u64, u64) {
        let mut flops = 0u64;
        let mut bytes = 0u64;
        for l in &self.layers {
            for k in &l.kernels {
                flops += k.cost.hw_flops;
                bytes += k.cost.dram_bytes();
            }
        }
        (flops, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_hw::PlatformId;
    use proof_models::ModelId;

    fn a100() -> Platform {
        PlatformId::A100.spec()
    }

    #[test]
    fn resnet_compiles_and_profiles_deterministically() {
        let g = ModelId::ResNet50.build(8);
        let cfg = SessionConfig::new(DType::F16);
        let m = compile(&g, BackendFlavor::TrtLike, &a100(), &cfg).unwrap();
        let p1 = m.builtin_profile();
        let p2 = m.builtin_profile();
        assert_eq!(p1.len(), p2.len());
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!(a.avg_latency_us, b.avg_latency_us, "determinism");
        }
        assert!(m.end_to_end_latency_ms() > 0.0);
    }

    #[test]
    fn truth_partition_covers_every_node_once() {
        let g = ModelId::MobileNetV2x10.build(1);
        let m = compile(
            &g,
            BackendFlavor::OrtLike,
            &a100(),
            &SessionConfig::default(),
        )
        .unwrap();
        let mut seen = vec![false; g.nodes.len()];
        for l in &m.layers {
            for &n in l.truth_members() {
                assert!(!seen[n as usize]);
                seen[n as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn trt_names_join_members_and_myelin_is_opaque() {
        let g = ModelId::ViTTiny.build(1);
        let m = compile(
            &g,
            BackendFlavor::TrtLike,
            &a100(),
            &SessionConfig::default(),
        )
        .unwrap();
        let profile = m.builtin_profile();
        assert!(profile.iter().any(|l| l.name.contains(" + ")));
        let myelin: Vec<_> = profile
            .iter()
            .filter(|l| l.name.contains("myelin_subgraph"))
            .collect();
        assert_eq!(myelin.len(), 12);
        for l in &myelin {
            assert!(matches!(l.hint, LayerHint::OpaqueIo { .. }));
        }
    }

    #[test]
    fn ort_reveals_node_names_and_inserts_reorders() {
        let g = ModelId::ResNet50.build(1);
        let m = compile(
            &g,
            BackendFlavor::OrtLike,
            &a100(),
            &SessionConfig::default(),
        )
        .unwrap();
        let profile = m.builtin_profile();
        assert!(profile
            .iter()
            .any(|l| matches!(&l.hint, LayerHint::Reorder { .. })));
        assert!(profile
            .iter()
            .any(|l| matches!(&l.hint, LayerHint::NodeNames(ns) if ns.len() > 1)));
    }

    #[test]
    fn npu_rejects_transformers_but_accepts_cnns() {
        let npu = PlatformId::Npu3720.spec();
        let cfg = SessionConfig::new(DType::F16);
        let vit = ModelId::ViTTiny.build(1);
        assert!(compile(&vit, BackendFlavor::OvLike, &npu, &cfg).is_err());
        let shuffle = ModelId::ShuffleNetV2x10.build(1); // 5-D transpose
        assert!(compile(&shuffle, BackendFlavor::OvLike, &npu, &cfg).is_err());
        let resnet = ModelId::ResNet50.build(1);
        assert!(compile(&resnet, BackendFlavor::OvLike, &npu, &cfg).is_ok());
    }

    #[test]
    fn sd_unet_int8_conversion_fails_like_the_paper_footnote() {
        let g = ModelId::StableDiffusionUnet.build(1);
        let cfg = SessionConfig::new(DType::I8);
        let err = compile(&g, BackendFlavor::TrtLike, &a100(), &cfg).unwrap_err();
        assert!(matches!(err, BackendError::ConversionFailure(_)));
    }

    #[test]
    fn batch_scaling_increases_throughput() {
        let cfg = SessionConfig::new(DType::F16);
        let m1 = compile(
            &ModelId::ResNet50.build(1),
            BackendFlavor::TrtLike,
            &a100(),
            &cfg,
        )
        .unwrap();
        let m128 = compile(
            &ModelId::ResNet50.build(128),
            BackendFlavor::TrtLike,
            &a100(),
            &cfg,
        )
        .unwrap();
        let thr1 = 1.0 / m1.end_to_end_latency_ms();
        let thr128 = 128.0 / m128.end_to_end_latency_ms();
        assert!(thr128 > 5.0 * thr1, "batch should amortize overheads");
    }

    #[test]
    fn utilization_is_sane() {
        let g = ModelId::ResNet50.build(64);
        let m = compile(
            &g,
            BackendFlavor::TrtLike,
            &a100(),
            &SessionConfig::default(),
        )
        .unwrap();
        let u = m.utilization();
        assert!(u.gpu > 0.0 && u.gpu <= 1.0);
        assert!(u.mem > 0.0 && u.mem <= 1.0);
    }

    #[test]
    fn reclocking_slows_execution() {
        let orin = PlatformId::OrinNx.spec();
        let slow = orin.with_clocks(proof_hw::ClockConfig::new(510, 665));
        let g = ModelId::EfficientNetV2T.build(16);
        let cfg = SessionConfig::new(DType::F16);
        let fast_ms = compile(&g, BackendFlavor::TrtLike, &orin, &cfg)
            .unwrap()
            .end_to_end_latency_ms();
        let slow_ms = compile(&g, BackendFlavor::TrtLike, &slow, &cfg)
            .unwrap()
            .end_to_end_latency_ms();
        assert!(slow_ms > 1.5 * fast_ms, "{slow_ms} vs {fast_ms}");
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use proof_hw::PlatformId;
    use proof_ir::DType;
    use proof_models::ModelId;

    #[test]
    fn stats_have_ordered_percentiles_and_discard_warmup() {
        let g = ModelId::MobileNetV2x05.build(2);
        let m = compile(
            &g,
            BackendFlavor::TrtLike,
            &PlatformId::A100.spec(),
            &SessionConfig::new(DType::F16).with_iterations(50),
        )
        .unwrap();
        for s in m.profile_stats() {
            assert!(s.min_us <= s.p50_us);
            assert!(s.p50_us <= s.p99_us);
            assert!(s.p99_us <= s.max_us);
            assert!(s.samples >= 47, "warmup discarded but most samples kept");
            // cold 1.5x iterations were discarded: max stays within noise
            assert!(s.max_us < s.p50_us * 1.05);
        }
    }

    #[test]
    fn builtin_profile_mean_matches_stats_mean() {
        let g = ModelId::MobileNetV2x05.build(2);
        let m = compile(
            &g,
            BackendFlavor::TrtLike,
            &PlatformId::A100.spec(),
            &SessionConfig::new(DType::F16),
        )
        .unwrap();
        let a = m.builtin_profile();
        let b = m.profile_stats();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.avg_latency_us, y.mean_us);
        }
    }
}
