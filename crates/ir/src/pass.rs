//! Graph-cleanup passes (an `onnx-simplifier` equivalent).
//!
//! Models exported from training frameworks often carry inference-time
//! clutter: `Identity`/`Dropout` nodes, dead branches, and unfolded
//! `Conv`+`BatchNormalization` pairs. PRoof's analysis works either way,
//! but clean graphs match what deployment pipelines feed real runtimes —
//! and BN folding is required to reproduce the paper's node counts (a
//! folded torchvision ResNet-50 is exactly 122 nodes).
//!
//! Passes are pure: they build a new [`Graph`], never mutate the input.

use crate::{Graph, GraphIndex, Node, NodeId, OpKind, TensorId, TensorKind};
use std::collections::{HashMap, HashSet};

/// Rebuild a graph keeping only `keep_nodes`, with tensors remapped through
/// `alias` (tensor substitutions applied to node inputs and graph outputs),
/// dropping tensors that become unreferenced.
fn rebuild(g: &Graph, keep_nodes: &[bool], alias: &HashMap<TensorId, TensorId>) -> Graph {
    let resolve = |mut t: TensorId| -> TensorId {
        let mut hops = 0;
        while let Some(&next) = alias.get(&t) {
            t = next;
            hops += 1;
            assert!(hops <= g.tensors.len(), "alias cycle");
        }
        t
    };
    // collect referenced tensors
    let mut used: HashSet<TensorId> = HashSet::new();
    for (id, n) in g.iter_nodes() {
        if !keep_nodes[id as usize] {
            continue;
        }
        for &t in n.inputs.iter() {
            used.insert(resolve(t));
        }
        for &t in &n.outputs {
            used.insert(t);
        }
    }
    for &o in &g.outputs {
        used.insert(resolve(o));
    }
    for &i in &g.inputs {
        used.insert(i);
    }
    // renumber tensors
    let mut remap: HashMap<TensorId, TensorId> = HashMap::with_capacity(used.len());
    let mut tensors = Vec::with_capacity(used.len());
    for (old, info) in g.tensors.iter().enumerate() {
        let old = old as TensorId;
        if used.contains(&old) {
            remap.insert(old, tensors.len() as TensorId);
            tensors.push(info.clone());
        }
    }
    let map = |t: TensorId| remap[&resolve(t)];
    let nodes = g
        .iter_nodes()
        .filter(|(id, _)| keep_nodes[*id as usize])
        .map(|(_, n)| Node {
            name: n.name.clone(),
            op: n.op,
            attrs: n.attrs.clone(),
            inputs: n.inputs.iter().map(|&t| map(t)).collect(),
            outputs: n.outputs.iter().map(|&t| remap[&t]).collect(),
        })
        .collect();
    let out = Graph {
        name: g.name.clone(),
        tensors,
        nodes,
        inputs: g.inputs.iter().map(|&t| remap[&t]).collect(),
        outputs: g.outputs.iter().map(|&t| map(t)).collect(),
    };
    // graph outputs may have moved onto interior tensors — re-tag them
    let mut out = out;
    for &t in &out.outputs.clone() {
        if out.tensors[t as usize].kind == TensorKind::Activation {
            out.tensors[t as usize].kind = TensorKind::Output;
        }
    }
    out
}

/// Remove nodes whose outputs are never consumed and don't feed a graph
/// output (dead-code elimination).
pub fn eliminate_dead_nodes(g: &Graph) -> Graph {
    let ix = GraphIndex::new(g);
    let out_set: HashSet<TensorId> = g.outputs.iter().copied().collect();
    let mut keep = vec![false; g.nodes.len()];
    // reverse-topological liveness
    for (id, n) in g.iter_nodes().collect::<Vec<_>>().into_iter().rev() {
        let live = n
            .outputs
            .iter()
            .any(|t| out_set.contains(t) || ix.consumers(*t).iter().any(|&c| keep[c as usize]));
        keep[id as usize] = live;
    }
    rebuild(g, &keep, &HashMap::new())
}

/// Remove `Identity` and inference-mode `Dropout` nodes, rewiring their
/// consumers to the producer tensor.
pub fn eliminate_identities(g: &Graph) -> Graph {
    let mut keep = vec![true; g.nodes.len()];
    let mut alias: HashMap<TensorId, TensorId> = HashMap::new();
    for (id, n) in g.iter_nodes() {
        if matches!(n.op, OpKind::Identity | OpKind::Dropout) {
            keep[id as usize] = false;
            alias.insert(n.outputs[0], n.inputs[0]);
        }
    }
    rebuild(g, &keep, &alias)
}

/// Fold `Conv → BatchNormalization` pairs into a single biased `Conv`
/// (eval-mode export semantics). The BN's scale/shift merge into the conv
/// weights conceptually; since PRoof never materializes weights, folding
/// here means: drop the BN node, give the conv a bias input when missing,
/// and drop the BN parameter tensors.
pub fn fold_conv_bn(g: &Graph) -> Graph {
    let ix = GraphIndex::new(g);
    let mut keep = vec![true; g.nodes.len()];
    let mut alias: HashMap<TensorId, TensorId> = HashMap::new();
    let mut grow_bias: HashMap<NodeId, TensorId> = HashMap::new();
    for (id, n) in g.iter_nodes() {
        if n.op != OpKind::Conv {
            continue;
        }
        let Some(bn_id) = ix.sole_consumer(n.outputs[0]) else {
            continue;
        };
        let bn = g.node(bn_id);
        if bn.op != OpKind::BatchNormalization {
            continue;
        }
        keep[bn_id as usize] = false;
        alias.insert(bn.outputs[0], n.outputs[0]);
        if n.inputs.len() == 2 {
            // reuse the BN shift vector as the conv bias
            grow_bias.insert(id, bn.inputs[2]);
        }
    }
    // apply bias growth on a clone before rebuilding
    let mut g2 = g.clone();
    for (conv, bias) in grow_bias {
        g2.nodes[conv as usize].inputs.push(bias);
    }
    let folded = rebuild(&g2, &keep, &alias);
    // folding orphans the BN stat tensors; DCE of tensors happened in
    // rebuild (they're unreferenced), so just validate and return
    folded
}

/// The standard cleanup pipeline: identities → conv/BN folding → DCE.
pub fn simplify(g: &Graph) -> Graph {
    let g = eliminate_identities(g);
    let g = fold_conv_bn(&g);
    let g = eliminate_dead_nodes(&g);
    g.validate().expect("simplify produced an invalid graph");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, DType, GraphBuilder};

    fn conv_bn_relu_graph() -> Graph {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 3, 16, 16], DType::F32);
        let c = b.conv("conv", x, 8, 3, 1, 1, 1, false);
        let n = b.bn("bn", c);
        let r = b.relu("relu", n);
        b.output(r);
        b.finish()
    }

    #[test]
    fn fold_conv_bn_drops_bn_and_adds_bias() {
        let g = conv_bn_relu_graph();
        assert_eq!(g.node_count(), 3);
        let folded = simplify(&g);
        folded.validate().unwrap();
        assert_eq!(folded.node_count(), 2);
        let conv = folded.nodes.iter().find(|n| n.name == "conv").unwrap();
        assert_eq!(conv.op, OpKind::Conv);
        assert_eq!(conv.inputs.len(), 3, "bias attached");
        // BN stats are gone: params = weights + one bias vector
        assert_eq!(folded.param_count(), 8 * 3 * 3 * 3 + 8);
    }

    #[test]
    fn fold_skips_multi_consumer_convs() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4, 8, 8], DType::F32);
        let c = b.conv("conv", x, 4, 3, 1, 1, 1, false);
        let n = b.bn("bn", c);
        let other = b.relu("side", c); // second consumer of the conv output
        let s = b.add("sum", n, other);
        b.output(s);
        let g = b.finish();
        let folded = fold_conv_bn(&g);
        assert_eq!(folded.node_count(), g.node_count(), "no folding");
    }

    #[test]
    fn identity_and_dropout_are_rewired_away() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 4], DType::F32);
        let i = b.push("id", OpKind::Identity, attrs!(), &[x]);
        let d = b.push("drop", OpKind::Dropout, attrs!(), &[i]);
        let r = b.relu("relu", d);
        b.output(r);
        let g = b.finish();
        let cleaned = eliminate_identities(&g);
        cleaned.validate().unwrap();
        assert_eq!(cleaned.node_count(), 1);
        assert_eq!(cleaned.node(0).op, OpKind::Relu);
        // relu now reads the graph input directly
        assert_eq!(cleaned.node(0).inputs, vec![cleaned.inputs[0]]);
    }

    #[test]
    fn dead_branches_are_removed() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 4], DType::F32);
        let live = b.relu("live", x);
        let dead = b.sigmoid("dead", x);
        let _deader = b.relu("deader", dead);
        b.output(live);
        let g = b.finish();
        assert_eq!(g.node_count(), 3);
        let cleaned = eliminate_dead_nodes(&g);
        cleaned.validate().unwrap();
        assert_eq!(cleaned.node_count(), 1);
        assert_eq!(cleaned.node(0).name, "live");
    }

    #[test]
    fn identity_feeding_graph_output_keeps_output_wired() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 4], DType::F32);
        let r = b.relu("relu", x);
        let i = b.push("id", OpKind::Identity, attrs!(), &[r]);
        b.output(i);
        let g = b.finish();
        let cleaned = eliminate_identities(&g);
        cleaned.validate().unwrap();
        assert_eq!(cleaned.outputs.len(), 1);
        // the output now points at relu's tensor
        let out = cleaned.tensor(cleaned.outputs[0]);
        assert_eq!(out.shape.dims(), &[2, 4]);
    }

    #[test]
    fn simplify_is_idempotent() {
        let g = conv_bn_relu_graph();
        let once = simplify(&g);
        let twice = simplify(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn simplify_preserves_flop_relevant_structure() {
        // param/shape bookkeeping survives: output shape identical
        let g = conv_bn_relu_graph();
        let s = simplify(&g);
        assert_eq!(g.tensor(g.outputs[0]).shape, s.tensor(s.outputs[0]).shape);
    }
}
