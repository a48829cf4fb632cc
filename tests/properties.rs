//! Property-based tests (proptest) over randomly generated CNN-ish graphs:
//! cost-model invariants (Eq. 1 linearity, non-negativity), fusion and
//! mapping partition properties, staged-vs-monolithic pipeline equivalence,
//! and serialization round-trips.

use proof::core::{
    map_layers, prepare_stages, profile_model, run_metric_stages, AnalyzeRepr, MetricMode,
    OptimizedRepr,
};
use proof::hw::PlatformId;
use proof::ir::{DType, Graph, GraphBuilder, GraphIndex, TensorId};
use proof::runtime::{compile, fusion, BackendFlavor, SessionConfig};
use proptest::prelude::*;

/// One randomly chosen layer in a generated chain model.
#[derive(Debug, Clone)]
enum LayerSpec {
    Conv {
        cout_mult: u64,
        kernel: u64,
        stride: u64,
        depthwise: bool,
    },
    Relu,
    Silu,
    Clip,
    Residual, // conv + add(skip) + relu
    MaxPool,
    ShuffleLike, // reshape + transpose + reshape
    SplitConcat,
    Gelu,
    LayerNormLike, // flatten + decomposed LN over trailing dim
}

fn layer_strategy() -> impl Strategy<Value = LayerSpec> {
    prop_oneof![
        (
            1u64..=2,
            prop_oneof![Just(1u64), Just(3u64)],
            1u64..=2,
            any::<bool>()
        )
            .prop_map(|(cout_mult, kernel, stride, depthwise)| LayerSpec::Conv {
                cout_mult,
                kernel,
                stride,
                depthwise
            }),
        Just(LayerSpec::Relu),
        Just(LayerSpec::Silu),
        Just(LayerSpec::Clip),
        Just(LayerSpec::Residual),
        Just(LayerSpec::MaxPool),
        Just(LayerSpec::ShuffleLike),
        Just(LayerSpec::SplitConcat),
        Just(LayerSpec::Gelu),
        Just(LayerSpec::LayerNormLike),
    ]
}

/// Build a valid model from layer specs (specs that don't fit the current
/// shape are skipped, so every generated case is a well-formed graph).
fn build_model(batch: u64, channels: u64, specs: &[LayerSpec]) -> Graph {
    let mut b = GraphBuilder::new("prop-model");
    let x = b.input("input", &[batch, channels, 16, 16], DType::F32);
    let mut y: TensorId = x;
    for (i, spec) in specs.iter().enumerate() {
        let c = b.channels(y);
        let h = b.shape(y).dims()[2];
        match spec {
            LayerSpec::Conv {
                cout_mult,
                kernel,
                stride,
                depthwise,
            } => {
                if h < *stride * 2 || (*kernel == 3 && h < 3) {
                    continue;
                }
                let (cout, groups) = if *depthwise {
                    (c, c)
                } else {
                    (c * cout_mult, 1)
                };
                y = b.conv(
                    &format!("conv{i}"),
                    y,
                    cout,
                    *kernel,
                    *stride,
                    kernel / 2,
                    groups,
                    true,
                );
            }
            LayerSpec::Relu => y = b.relu(&format!("relu{i}"), y),
            LayerSpec::Silu => y = b.silu(&format!("silu{i}"), y),
            LayerSpec::Clip => y = b.relu6(&format!("clip{i}"), y),
            LayerSpec::Residual => {
                let branch = b.conv(&format!("res{i}.conv"), y, c, 3, 1, 1, 1, true);
                let s = b.add(&format!("res{i}.add"), y, branch);
                y = b.relu(&format!("res{i}.relu"), s);
            }
            LayerSpec::MaxPool => {
                if h >= 4 {
                    y = b.maxpool(&format!("pool{i}"), y, 2, 2, 0);
                }
            }
            LayerSpec::ShuffleLike => {
                if c.is_multiple_of(2) {
                    y = proof::models::blocks::channel_shuffle(&mut b, &format!("shuf{i}"), y, 2);
                }
            }
            LayerSpec::SplitConcat => {
                if c.is_multiple_of(2) {
                    let (l, r) = b.split2(&format!("split{i}"), y, 1);
                    y = b.concat(&format!("cat{i}"), &[l, r], 1);
                }
            }
            LayerSpec::Gelu => y = b.gelu(&format!("gelu{i}"), y),
            LayerSpec::LayerNormLike => {
                y = b.layer_norm_decomposed(&format!("ln{i}"), y);
            }
        }
    }
    b.output(y);
    b.finish()
}

fn model_strategy() -> impl Strategy<Value = (u64, Graph)> {
    (
        1u64..=4,
        prop_oneof![Just(4u64), Just(6u64), Just(8u64)],
        prop::collection::vec(layer_strategy(), 1..12),
    )
        .prop_map(|(batch, channels, specs)| (batch, build_model(batch, channels, &specs)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated graphs always validate and serialize round-trip.
    #[test]
    fn generated_graphs_validate_and_roundtrip((_b, g) in model_strategy()) {
        g.validate().unwrap();
        let restored = Graph::from_json(&g.to_json()).unwrap();
        prop_assert_eq!(g, restored);
    }

    /// Cost estimates are finite/non-negative and fp16 halves float traffic.
    #[test]
    fn cost_model_basic_invariants((_b, g) in model_strategy()) {
        let a32 = AnalyzeRepr::new(&g, DType::F32).total();
        let a16 = AnalyzeRepr::new(&g, DType::F16).total();
        prop_assert_eq!(a32.flops, a16.flops);
        prop_assert!(a16.memory_bytes() <= a32.memory_bytes());
        prop_assert!(a16.memory_bytes() * 2 >= a32.memory_bytes());
    }

    /// Eq. 1: activation traffic and FLOP scale linearly with batch,
    /// weights don't.
    #[test]
    fn eq1_batch_linearity(specs in prop::collection::vec(layer_strategy(), 1..10)) {
        let g1 = build_model(1, 8, &specs);
        let g3 = build_model(3, 8, &specs);
        let a1 = AnalyzeRepr::new(&g1, DType::F32).total();
        let a3 = AnalyzeRepr::new(&g3, DType::F32).total();
        prop_assert_eq!(3 * a1.flops, a3.flops);
        prop_assert_eq!(3 * a1.input_bytes, a3.input_bytes);
        prop_assert_eq!(3 * a1.output_bytes, a3.output_bytes);
        prop_assert_eq!(a1.weight_bytes, a3.weight_bytes);
    }

    /// Fusion covers every node exactly once under every policy, preserves
    /// total FLOP, and never increases predicted DRAM traffic.
    #[test]
    fn fusion_is_a_partition_preserving_flops((_b, g) in model_strategy()) {
        for policy in [
            fusion::FusionPolicy::trt(),
            fusion::FusionPolicy::ort(),
            fusion::FusionPolicy::ov(),
            fusion::FusionPolicy::none(),
        ] {
            let groups = fusion::fuse(&GraphIndex::new(&g), &policy);
            let mut seen = vec![false; g.nodes.len()];
            for grp in &groups {
                for &m in &grp.members {
                    prop_assert!(!seen[m as usize], "node in two groups");
                    seen[m as usize] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "uncovered node");

            // analysis-side: fusing those members keeps FLOP, shrinks memory
            let analysis = AnalyzeRepr::new(&g, DType::F16);
            let unfused_total = analysis.total();
            let mut repr = OptimizedRepr::new(analysis);
            for (i, grp) in groups.iter().enumerate() {
                if grp.members.len() > 1 {
                    repr.set_fused_op(&format!("g{i}"), &grp.members).unwrap();
                }
            }
            let fused_total = repr.total_cost();
            prop_assert_eq!(fused_total.flops, unfused_total.flops);
            prop_assert!(fused_total.memory_bytes() <= unfused_total.memory_bytes());
        }
    }

    /// The full pipeline maps every backend layer and covers every node,
    /// and mapping-derived membership equals the runtime's ground truth
    /// (modulo eliminated view ops).
    #[test]
    fn mapping_partition_on_random_graphs((_b, g) in model_strategy()) {
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(DType::F16);
        for flavor in [BackendFlavor::TrtLike, BackendFlavor::OrtLike, BackendFlavor::OvLike] {
            let compiled = compile(&g, flavor, &platform, &cfg).unwrap();
            let mapping = map_layers(
                OptimizedRepr::new(AnalyzeRepr::new(&g, DType::F16)),
                &compiled.builtin_profile(),
                flavor,
            );
            prop_assert!(mapping.unresolved.is_empty(), "{:?}: {:?}", flavor, mapping.unresolved);
            prop_assert!(mapping.coverage() > 0.99, "{:?}: {}", flavor, mapping.coverage());
            // latency conservation: mapped layers account for the profile
            let profile_sum: f64 = compiled.builtin_profile().iter().map(|l| l.avg_latency_us).sum();
            let mapped_sum: f64 = mapping.layers.iter().map(|l| l.avg_latency_us).sum();
            prop_assert!((profile_sum - mapped_sum).abs() < 1e-6);
        }
    }

    /// The staged pipeline with prefix reuse (both metric modes off one
    /// [`prepare_stages`] call) is byte-identical — via the canonical JSON —
    /// to a fresh monolithic [`profile_model`] run, for random models,
    /// batch sizes, and dtypes.
    #[test]
    fn staged_pipeline_with_reuse_matches_monolithic(
        (_b, g) in model_strategy(),
        dtype in prop_oneof![Just(DType::F16), Just(DType::F32)],
    ) {
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(dtype);
        let flavor = BackendFlavor::TrtLike;
        let prep = prepare_stages(&g, &platform, flavor, &cfg).unwrap();
        for mode in [MetricMode::Predicted, MetricMode::Measured] {
            let staged = run_metric_stages(&prep, mode).unwrap();
            let fresh = profile_model(&g, &platform, flavor, &cfg, mode).unwrap();
            prop_assert_eq!(&staged, &fresh);
            prop_assert_eq!(staged.to_json(), fresh.to_json());
        }
    }

    /// Simulation is deterministic for a fixed seed and monotone in batch.
    #[test]
    fn latency_is_deterministic_and_batch_monotone(specs in prop::collection::vec(layer_strategy(), 1..8)) {
        let platform = PlatformId::A100.spec();
        let cfg = SessionConfig::new(DType::F16);
        let g1 = build_model(1, 8, &specs);
        let g4 = build_model(4, 8, &specs);
        let a = compile(&g1, BackendFlavor::TrtLike, &platform, &cfg).unwrap();
        let b_ = compile(&g1, BackendFlavor::TrtLike, &platform, &cfg).unwrap();
        prop_assert_eq!(a.end_to_end_latency_ms(), b_.end_to_end_latency_ms());
        let big = compile(&g4, BackendFlavor::TrtLike, &platform, &cfg).unwrap();
        prop_assert!(big.end_to_end_latency_ms() >= a.end_to_end_latency_ms() * 0.999);
    }
}
