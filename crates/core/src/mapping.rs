//! Layer mapping: backend layers ⇄ original model layers (paper §3.3).
//!
//! Each backend flavour exposes different (and differently incomplete)
//! information, so each gets its own strategy — all built on the universal
//! [`OptimizedRepr`] interfaces:
//!
//! - **ORT-like** profilers name the fused nodes outright → direct
//!   `set_fused_op`,
//! - **TRT-like** profilers emit `"a + b + c"` strings for ordinary fused
//!   layers (resolved by name, with `get_subgraph_ops_by_io` recovering the
//!   elided middle of `"a + ... + z"` names), and **opaque Myelin regions**
//!   exposing only io tensor names → resolved through aliases and
//!   `get_subgraph_ops_by_io`,
//! - **OV-like** profilers reveal only the primary node name → membership
//!   is *re-derived* from the computational graph and data dependencies
//!   ("guess the missing information", §3.2.3), bounded by the set of other
//!   layers' primaries,
//! - runtime-inserted reorder layers map to no model node; they register a
//!   tensor alias so later opaque-io lookups still resolve.

use crate::fused::{GroupId, OptimizedRepr};
use proof_ir::{NodeId, OpKind, TensorId, TensorKind};
use proof_runtime::{BackendFlavor, LayerHint, LayerProfile};
use std::collections::HashSet;

/// One backend layer after mapping.
#[derive(Debug, Clone)]
pub struct MappedLayer {
    pub backend_name: String,
    pub avg_latency_us: f64,
    /// The analysis-side group (None for runtime-inserted reorder layers).
    pub group: Option<GroupId>,
    pub is_reorder: bool,
    /// Index of the source entry in the backend profile. Unresolved profile
    /// entries leave gaps, so positions in [`Mapping::layers`] cannot be
    /// used to correlate back to the profile — this index can.
    pub profile_index: usize,
}

/// Outcome of the mapping step.
pub struct Mapping<'g> {
    pub repr: OptimizedRepr<'g>,
    pub layers: Vec<MappedLayer>,
    /// Backend layers whose members could not be resolved (should be empty;
    /// kept for diagnostics, as the paper's mapping handles "limited
    /// information from the runtimes").
    pub unresolved: Vec<String>,
}

impl Mapping<'_> {
    /// Fraction of original nodes attached to some profiled layer.
    pub fn coverage(&self) -> f64 {
        let assigned: HashSet<GroupId> = self.layers.iter().filter_map(|l| l.group).collect();
        let total = self.repr.graph().nodes.len();
        if total == 0 {
            return 1.0;
        }
        let covered = self
            .repr
            .node_assignments()
            .iter()
            .filter(|g| assigned.contains(g))
            .count();
        covered as f64 / total as f64
    }
}

/// Map a backend profile onto the model.
pub fn map_layers<'g>(
    mut repr: OptimizedRepr<'g>,
    profile: &[LayerProfile],
    flavor: BackendFlavor,
) -> Mapping<'g> {
    let mut layers = Vec::with_capacity(profile.len());
    let mut unresolved = Vec::new();

    // OV-like strategy needs the full primary set up front to bound its
    // graph-walking (every other layer's primary is a fusion boundary).
    let primary_set: HashSet<NodeId> = if flavor == BackendFlavor::OvLike {
        profile
            .iter()
            .filter_map(|l| match &l.hint {
                LayerHint::PrimaryOp { node_name, .. } => repr.node_named(node_name),
                _ => None,
            })
            .collect()
    } else {
        HashSet::new()
    };

    for (pi, lp) in profile.iter().enumerate() {
        let mapped = match &lp.hint {
            LayerHint::Reorder {
                input_tensor,
                output_tensor,
            } => match repr.resolve_tensor(input_tensor) {
                Some(t) => {
                    repr.add_reorder_layer(&lp.name, t, Some(output_tensor));
                    Some(MappedLayer {
                        backend_name: lp.name.clone(),
                        avg_latency_us: lp.avg_latency_us,
                        group: None,
                        is_reorder: true,
                        profile_index: pi,
                    })
                }
                None => None,
            },
            LayerHint::NodeNames(names) => {
                map_named_members(&mut repr, &lp.name, names).map(|g| MappedLayer {
                    backend_name: lp.name.clone(),
                    avg_latency_us: lp.avg_latency_us,
                    group: Some(g),
                    is_reorder: false,
                    profile_index: pi,
                })
            }
            LayerHint::FusedNameString(s) => {
                let parts: Vec<&str> = s.split(" + ").collect();
                let gid = if parts.contains(&"...") {
                    // elided middle: recover via io-bounded subgraph search
                    map_elided(&mut repr, &lp.name, &parts)
                } else {
                    let names: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                    map_named_members(&mut repr, &lp.name, &names)
                };
                gid.map(|g| MappedLayer {
                    backend_name: lp.name.clone(),
                    avg_latency_us: lp.avg_latency_us,
                    group: Some(g),
                    is_reorder: false,
                    profile_index: pi,
                })
            }
            LayerHint::OpaqueIo { inputs, outputs } => {
                map_opaque_io(&mut repr, &lp.name, inputs, outputs).map(|g| MappedLayer {
                    backend_name: lp.name.clone(),
                    avg_latency_us: lp.avg_latency_us,
                    group: Some(g),
                    is_reorder: false,
                    profile_index: pi,
                })
            }
            LayerHint::PrimaryOp { node_name, .. } => {
                map_primary_heuristic(&mut repr, &lp.name, node_name, &primary_set).map(|g| {
                    MappedLayer {
                        backend_name: lp.name.clone(),
                        avg_latency_us: lp.avg_latency_us,
                        group: Some(g),
                        is_reorder: false,
                        profile_index: pi,
                    }
                })
            }
        };
        match mapped {
            Some(m) => layers.push(m),
            None => unresolved.push(lp.name.clone()),
        }
    }

    absorb_leftover_noops(&mut repr, &layers);
    Mapping {
        repr,
        layers,
        unresolved,
    }
}

/// Fuse an explicit member-name list.
fn map_named_members(repr: &mut OptimizedRepr, layer: &str, names: &[String]) -> Option<GroupId> {
    let ids: Vec<NodeId> = names.iter().filter_map(|n| repr.node_named(n)).collect();
    if ids.is_empty() {
        return None;
    }
    if ids.len() == 1 {
        return Some(repr.group_of(ids[0]));
    }
    repr.set_fused_op(layer, &ids).ok()
}

/// Recover an `"a + ... + z"` layer: the subgraph between a's inputs and
/// z's outputs.
fn map_elided(repr: &mut OptimizedRepr, layer: &str, parts: &[&str]) -> Option<GroupId> {
    let first = repr.node_named(parts.first()?)?;
    let last = repr.node_named(parts.last()?)?;
    let g = repr.graph();
    let inputs: Vec<TensorId> = g
        .node(first)
        .inputs
        .iter()
        .copied()
        .filter(|&t| g.tensor(t).kind != TensorKind::Weight)
        .collect();
    let outputs = g.node(last).outputs.clone();
    let members = repr.get_subgraph_ops_by_io(&inputs, &outputs).ok()?;
    repr.set_fused_op(layer, &members).ok()
}

/// Resolve an opaque region by its io tensor names (through aliases).
fn map_opaque_io(
    repr: &mut OptimizedRepr,
    layer: &str,
    inputs: &[String],
    outputs: &[String],
) -> Option<GroupId> {
    let ins: Vec<TensorId> = inputs
        .iter()
        .filter_map(|n| repr.resolve_tensor(n))
        .collect();
    let outs: Vec<TensorId> = outputs
        .iter()
        .filter_map(|n| repr.resolve_tensor(n))
        .collect();
    if outs.is_empty() {
        return None;
    }
    let members = repr.get_subgraph_ops_by_io(&ins, &outs).ok()?;
    repr.set_fused_op(layer, &members).ok()
}

/// OV-like: only the primary node is known. Re-derive the fused members by
/// walking sole-consumer chains of elementwise/no-op nodes forward from the
/// primary — stopping at any other layer's primary — mirroring the
/// backend's epilogue fusion rules.
fn map_primary_heuristic(
    repr: &mut OptimizedRepr,
    layer: &str,
    node_name: &str,
    primaries: &HashSet<NodeId>,
) -> Option<GroupId> {
    let g = repr.graph();
    let root = repr.node_named(node_name)?;
    if !matches!(
        g.node(root).op,
        OpKind::Conv | OpKind::Gemm | OpKind::MatMul
    ) {
        return Some(repr.group_of(root));
    }
    let mut members = vec![root];
    let mut cur = g.node(root).output();
    // a node that another layer's mapping already fused is off-limits —
    // this is how two convs sharing a residual Add agree on its owner
    let taken = |repr: &OptimizedRepr, n: NodeId| repr.group(repr.group_of(n)).fused;
    loop {
        let cs = repr.index().consumers(cur);
        // SiLU diamond: two consumers {Sigmoid, Mul(cur, σ)}
        if cs.len() == 2 {
            let silu = cs.iter().copied().find_map(|s| {
                let sn = g.node(s);
                if sn.op != OpKind::Sigmoid || primaries.contains(&s) || taken(repr, s) {
                    return None;
                }
                let m = repr.index().sole_consumer(sn.output())?;
                (cs.contains(&m)
                    && !primaries.contains(&m)
                    && !taken(repr, m)
                    && g.node(m).op == OpKind::Mul
                    && g.node(m).inputs.contains(&cur))
                .then_some((s, m))
            });
            if let Some((s, m)) = silu {
                members.push(s);
                members.push(m);
                cur = g.node(m).output();
                continue;
            }
        }
        if cs.len() != 1 {
            break;
        }
        let next = cs[0];
        if primaries.contains(&next) || taken(repr, next) || members.len() >= 12 {
            break;
        }
        let nd = g.node(next);
        let ok = nd.op.is_noop_at_inference()
            || nd.op.is_unary_elementwise()
            || matches!(nd.op, OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div);
        if !ok {
            break;
        }
        members.push(next);
        cur = nd.output();
    }
    if members.len() == 1 {
        Some(repr.group_of(root))
    } else {
        // if a racefully-shared node slipped in anyway, keep the bare root
        repr.set_fused_op(layer, &members)
            .ok()
            .or_else(|| Some(repr.group_of(root)))
    }
}

/// Attach any node still sitting in an unreported singleton group (an
/// eliminated view op) to the group of its producer — or, for graph-input
/// views, its consumer — so every original node stays mapped.
fn absorb_leftover_noops(repr: &mut OptimizedRepr, layers: &[MappedLayer]) {
    let reported: HashSet<GroupId> = layers.iter().filter_map(|l| l.group).collect();
    let g = repr.graph();
    let noops: Vec<NodeId> = g
        .iter_nodes()
        .filter(|(id, n)| n.op.is_noop_at_inference() && !reported.contains(&repr.group_of(*id)))
        .map(|(id, _)| id)
        .collect();
    for id in noops {
        let node = g.node(id);
        // prefer the producer's group, fall back to the first consumer's
        let target = node
            .inputs
            .iter()
            .filter_map(|&t| repr.index().producer(t))
            .map(|p| repr.group_of(p))
            .find(|gid| reported.contains(gid))
            .or_else(|| {
                node.outputs
                    .iter()
                    .flat_map(|&t| repr.index().consumers(t))
                    .map(|&c| repr.group_of(c))
                    .find(|gid| reported.contains(gid))
            });
        if let Some(gid) = target {
            let _ = repr.absorb_into(id, gid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalyzeRepr;
    use proof_hw::PlatformId;
    use proof_ir::DType;
    use proof_models::ModelId;
    use proof_runtime::{compile, CompiledModel, SessionConfig};

    fn run(model: ModelId, batch: u64, flavor: BackendFlavor) -> (proof_ir::Graph, CompiledModel) {
        let g = model.build(batch);
        let m = compile(
            &g,
            flavor,
            &PlatformId::A100.spec(),
            &SessionConfig::new(DType::F16),
        )
        .unwrap();
        (g, m)
    }

    /// The mapping must reproduce the runtime's ground-truth fusion.
    fn assert_matches_truth(g: &proof_ir::Graph, m: &CompiledModel, flavor: BackendFlavor) {
        let analysis = AnalyzeRepr::new(g, DType::F16);
        let mapping = map_layers(OptimizedRepr::new(analysis), &m.builtin_profile(), flavor);
        assert!(
            mapping.unresolved.is_empty(),
            "unresolved: {:?}",
            mapping.unresolved
        );

        // truth: non-noop member sets per profiled layer
        let truth: Vec<HashSet<NodeId>> = m
            .layers
            .iter()
            .filter(|l| !l.kernels.is_empty() && !l.is_reorder)
            .map(|l| l.truth_members().iter().copied().collect())
            .collect();
        let derived: Vec<HashSet<NodeId>> = mapping
            .layers
            .iter()
            .filter(|l| !l.is_reorder)
            .map(|l| {
                mapping
                    .repr
                    .group(l.group.expect("mapped"))
                    .members
                    .iter()
                    .copied()
                    .collect()
            })
            .collect();
        assert_eq!(truth.len(), derived.len());
        for (t, d) in truth.iter().zip(&derived) {
            // derived sets may include absorbed no-op views the runtime
            // eliminated; every real (non-noop) node must agree exactly
            let t_real: HashSet<_> = t
                .iter()
                .filter(|&&n| !g.node(n).op.is_noop_at_inference())
                .collect();
            let d_real: HashSet<_> = d
                .iter()
                .filter(|&&n| !g.node(n).op.is_noop_at_inference())
                .collect();
            assert_eq!(t_real, d_real, "layer membership diverged");
        }
    }

    #[test]
    fn ort_mapping_matches_truth_on_resnet() {
        let (g, m) = run(ModelId::ResNet50, 2, BackendFlavor::OrtLike);
        assert_matches_truth(&g, &m, BackendFlavor::OrtLike);
    }

    #[test]
    fn trt_mapping_matches_truth_on_vit_with_myelin() {
        let (g, m) = run(ModelId::ViTTiny, 2, BackendFlavor::TrtLike);
        assert_matches_truth(&g, &m, BackendFlavor::TrtLike);
    }

    #[test]
    fn trt_mapping_matches_truth_on_shufflenet() {
        let (g, m) = run(ModelId::ShuffleNetV2x10, 2, BackendFlavor::TrtLike);
        assert_matches_truth(&g, &m, BackendFlavor::TrtLike);
    }

    #[test]
    fn ov_primary_heuristic_matches_truth_on_mobilenet() {
        let (g, m) = run(ModelId::MobileNetV2x10, 2, BackendFlavor::OvLike);
        assert_matches_truth(&g, &m, BackendFlavor::OvLike);
    }

    #[test]
    fn ov_primary_heuristic_matches_truth_on_efficientnet() {
        let (g, m) = run(ModelId::EfficientNetB0, 2, BackendFlavor::OvLike);
        assert_matches_truth(&g, &m, BackendFlavor::OvLike);
    }

    #[test]
    fn coverage_is_total_after_absorption() {
        for flavor in [
            BackendFlavor::TrtLike,
            BackendFlavor::OrtLike,
            BackendFlavor::OvLike,
        ] {
            let (g, m) = run(ModelId::ResNet50, 1, flavor);
            let analysis = AnalyzeRepr::new(&g, DType::F16);
            let mapping = map_layers(OptimizedRepr::new(analysis), &m.builtin_profile(), flavor);
            assert!(
                mapping.coverage() > 0.99,
                "{flavor:?}: coverage {}",
                mapping.coverage()
            );
        }
    }

    #[test]
    fn reorder_layers_map_to_no_model_node_but_register_aliases() {
        let (g, m) = run(ModelId::ResNet50, 1, BackendFlavor::OrtLike);
        let analysis = AnalyzeRepr::new(&g, DType::F16);
        let mapping = map_layers(
            OptimizedRepr::new(analysis),
            &m.builtin_profile(),
            BackendFlavor::OrtLike,
        );
        let reorders: Vec<_> = mapping.layers.iter().filter(|l| l.is_reorder).collect();
        assert!(!reorders.is_empty());
        assert!(reorders.iter().all(|l| l.group.is_none()));
        assert_eq!(mapping.repr.reorder_layers().len(), reorders.len());
        assert!(mapping.repr.resolve_tensor("input_r").is_some());
    }

    #[test]
    fn fused_latency_total_matches_profile_total() {
        let (g, m) = run(ModelId::SwinTiny, 2, BackendFlavor::TrtLike);
        let profile = m.builtin_profile();
        let analysis = AnalyzeRepr::new(&g, DType::F16);
        let mapping = map_layers(
            OptimizedRepr::new(analysis),
            &profile,
            BackendFlavor::TrtLike,
        );
        let sum_profile: f64 = profile.iter().map(|l| l.avg_latency_us).sum();
        let sum_mapped: f64 = mapping.layers.iter().map(|l| l.avg_latency_us).sum();
        assert!((sum_profile - sum_mapped).abs() < 1e-6);
    }
}
