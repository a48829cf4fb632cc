//! Subgraph extraction: cut a contiguous (or any closed) node set out of a
//! graph as a standalone model whose inputs are the cut's boundary
//! activations. Used by pipeline-parallel partitioning and by per-layer
//! micro-benchmark generation.

use crate::{Graph, GraphError, GraphIndex, Node, NodeId, TensorId, TensorKind};
use std::collections::{HashMap, HashSet};

/// Membership flags of `members`, indexed by node id.
fn member_flags(g: &Graph, members: &[NodeId]) -> Vec<bool> {
    let mut flags = vec![false; g.nodes.len()];
    for &m in members {
        flags[m as usize] = true;
    }
    flags
}

/// Extract `members` (must be topologically closed: no member may consume a
/// tensor produced by a later non-member that... i.e. any activation input
/// either comes from inside, from a weight, or becomes a new graph input).
///
/// Returns a standalone validated graph named `name`.
pub fn extract_subgraph(g: &Graph, members: &[NodeId], name: &str) -> Result<Graph, GraphError> {
    let inside = member_flags(g, members);
    let ix = GraphIndex::new(g);

    let produced_inside = |t: TensorId| ix.producer(t).is_some_and(|p| inside[p as usize]);

    let mut tensors = Vec::new();
    let mut remap: HashMap<TensorId, TensorId> = HashMap::new();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let add_tensor = |remap: &mut HashMap<TensorId, TensorId>,
                      tensors: &mut Vec<crate::TensorInfo>,
                      t: TensorId,
                      kind: TensorKind|
     -> TensorId {
        if let Some(&id) = remap.get(&t) {
            return id;
        }
        let mut info = g.tensor(t).clone();
        info.kind = kind;
        let id = tensors.len() as TensorId;
        tensors.push(info);
        remap.insert(t, id);
        id
    };

    let mut sorted = members.to_vec();
    sorted.sort_unstable();
    let mut nodes = Vec::with_capacity(sorted.len());
    for &m in &sorted {
        let n = g.node(m);
        let mut new_inputs = Vec::with_capacity(n.inputs.len());
        for &t in &n.inputs {
            let kind = g.tensor(t).kind;
            let id = if kind == TensorKind::Weight {
                add_tensor(&mut remap, &mut tensors, t, TensorKind::Weight)
            } else if produced_inside(t) {
                add_tensor(&mut remap, &mut tensors, t, TensorKind::Activation)
            } else {
                let id = add_tensor(&mut remap, &mut tensors, t, TensorKind::Input);
                if !inputs.contains(&id) {
                    inputs.push(id);
                }
                id
            };
            new_inputs.push(id);
        }
        let mut new_outputs = Vec::with_capacity(n.outputs.len());
        for &t in &n.outputs {
            let escapes =
                g.outputs.contains(&t) || ix.consumers(t).iter().any(|&c| !inside[c as usize]);
            let id = add_tensor(&mut remap, &mut tensors, t, TensorKind::Activation);
            if escapes {
                outputs.push(id);
            }
            new_outputs.push(id);
        }
        nodes.push(Node {
            name: n.name.clone(),
            op: n.op,
            attrs: n.attrs.clone(),
            inputs: new_inputs,
            outputs: new_outputs,
        });
    }
    // a stage with no escaping tensor still needs an output: use the last
    // node's first output
    if outputs.is_empty() {
        if let Some(last) = nodes.last() {
            outputs.push(last.outputs[0]);
        }
    }
    let mut out = Graph {
        name: name.to_string(),
        tensors,
        nodes,
        inputs,
        outputs: {
            let mut o = outputs;
            o.dedup();
            o
        },
    };
    for &t in &out.outputs.clone() {
        if out.tensors[t as usize].kind == TensorKind::Activation {
            out.tensors[t as usize].kind = TensorKind::Output;
        }
    }
    out.validate()?;
    Ok(out)
}

/// Bytes crossing the cut between `members` and the rest of the graph
/// (activations produced inside and consumed outside), at `precision`.
pub fn boundary_out_bytes(g: &Graph, members: &[NodeId], precision: crate::DType) -> u64 {
    let inside = member_flags(g, members);
    let ix = GraphIndex::new(g);
    let mut total = 0;
    let mut seen = HashSet::new();
    for &m in members {
        for &t in &g.node(m).outputs {
            let escapes = ix.consumers(t).iter().any(|&c| !inside[c as usize]);
            if escapes && seen.insert(t) {
                total += g.tensor(t).size_bytes_at(precision);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder};

    fn chain() -> Graph {
        let mut b = GraphBuilder::new("chain");
        let x = b.input("x", &[1, 8, 8, 8], DType::F32);
        let c1 = b.conv("c1", x, 8, 3, 1, 1, 1, true);
        let r1 = b.relu("r1", c1);
        let c2 = b.conv("c2", r1, 8, 3, 1, 1, 1, true);
        let r2 = b.relu("r2", c2);
        b.output(r2);
        b.finish()
    }

    #[test]
    fn split_chain_into_two_stages() {
        let g = chain();
        let s1 = extract_subgraph(&g, &[0, 1], "stage0").unwrap();
        let s2 = extract_subgraph(&g, &[2, 3], "stage1").unwrap();
        assert_eq!(s1.node_count(), 2);
        assert_eq!(s2.node_count(), 2);
        // stage boundary: relu output becomes stage1's input
        assert_eq!(s2.inputs.len(), 1);
        assert_eq!(s2.tensor(s2.inputs[0]).shape.dims(), &[1, 8, 8, 8]);
        // weights travel with their stage
        assert_eq!(s1.param_count() + s2.param_count(), g.param_count());
    }

    #[test]
    fn boundary_bytes_match_the_cut_tensor() {
        let g = chain();
        let bytes = boundary_out_bytes(&g, &[0, 1], DType::F16);
        assert_eq!(bytes, 8 * 8 * 8 * 2);
        // the full graph has no escaping tensors except its output
        assert_eq!(boundary_out_bytes(&g, &[0, 1, 2, 3], DType::F16), 0);
    }

    #[test]
    fn residual_crossing_the_cut_becomes_two_inputs() {
        let mut b = GraphBuilder::new("res");
        let x = b.input("x", &[1, 4], DType::F32);
        let a = b.relu("a", x);
        let c = b.sigmoid("b", a);
        let s = b.add("add", a, c); // consumes both a and b's output
        b.output(s);
        let g = b.finish();
        // cut after `a`: stage 2 = {b, add}; `a`'s output crosses once but
        // feeds two consumers inside
        let s2 = extract_subgraph(&g, &[1, 2], "s2").unwrap();
        assert_eq!(s2.inputs.len(), 1);
        assert_eq!(s2.node_count(), 2);
    }

    #[test]
    fn rejects_nothing_but_validates_output() {
        let g = chain();
        // arbitrary closed set (single middle node) also works
        let s = extract_subgraph(&g, &[2], "mid").unwrap();
        assert_eq!(s.node_count(), 1);
        s.validate().unwrap();
    }
}
