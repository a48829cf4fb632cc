//! Graph indices: the lookups every graph search needs, built once per
//! graph so no lookup scans the node or tensor list.
//!
//! - [`GraphIndex`] holds a dense tensor → producer table and a CSR
//!   (compressed sparse row) tensor → consumers table: one offsets array
//!   plus one flat node list, consumers in node order.
//! - [`NameIndex`] maps node and tensor names to ids, for callers that
//!   resolve runtime-reported names (layer mapping).
//!
//! Both index by id, so the graph's ids must be in range;
//! [`Graph::validate`] checks that, and every graph the builder or
//! [`Graph::from_json`] hands out passes it.

use crate::{Graph, NodeId, TensorId, TensorKind};
use std::collections::HashMap;

/// Producer-table entry of a tensor no node produces (inputs, weights).
const NO_PRODUCER: NodeId = NodeId::MAX;

/// Dense producer and consumer tables of one graph.
#[derive(Debug)]
pub struct GraphIndex<'g> {
    graph: &'g Graph,
    /// Producing node per tensor, [`NO_PRODUCER`] for none.
    producer: Vec<NodeId>,
    /// `consumers[offsets[t]..offsets[t + 1]]` are the consumers of `t`.
    offsets: Vec<u32>,
    consumers: Vec<NodeId>,
}

impl<'g> GraphIndex<'g> {
    /// Index `graph` in two passes over its nodes.
    ///
    /// # Panics
    /// If a node references a tensor id out of range (the graph fails
    /// [`Graph::validate`]).
    pub fn new(graph: &'g Graph) -> Self {
        let ntensors = graph.tensors.len();
        let mut producer = vec![NO_PRODUCER; ntensors];
        let mut offsets = vec![0u32; ntensors + 1];
        for (id, node) in graph.iter_nodes() {
            for &t in &node.outputs {
                producer[t as usize] = id;
            }
            for &t in &node.inputs {
                offsets[t as usize + 1] += 1;
            }
        }
        for t in 0..ntensors {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets[..ntensors].to_vec();
        let mut consumers = vec![0; offsets[ntensors] as usize];
        for (id, node) in graph.iter_nodes() {
            for &t in &node.inputs {
                let slot = &mut next[t as usize];
                consumers[*slot as usize] = id;
                *slot += 1;
            }
        }
        GraphIndex {
            graph,
            producer,
            offsets,
            consumers,
        }
    }

    /// The indexed graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The node producing `t` (the last one, should an invalid graph have
    /// several), or `None` for graph inputs and weights.
    pub fn producer(&self, t: TensorId) -> Option<NodeId> {
        Some(self.producer[t as usize]).filter(|&p| p != NO_PRODUCER)
    }

    /// The nodes consuming `t`, in node order; a node reading `t` twice is
    /// listed twice.
    pub fn consumers(&self, t: TensorId) -> &[NodeId] {
        let t = t as usize;
        &self.consumers[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// The only node consuming `t`, if exactly one does.
    pub fn sole_consumer(&self, t: TensorId) -> Option<NodeId> {
        match self.consumers(t) {
            &[c] => Some(c),
            _ => None,
        }
    }

    /// Boundary activation tensors of a node group: inputs produced
    /// outside it, and outputs consumed outside it or returned by the
    /// graph. Weights are interior by definition. Tensors come in the
    /// order `members` lists the nodes; `sorted` holds the same nodes
    /// sorted, for membership tests.
    pub fn group_io(
        &self,
        members: &[NodeId],
        sorted: &[NodeId],
    ) -> (Vec<TensorId>, Vec<TensorId>) {
        let g = self.graph;
        let inside = |n: &NodeId| sorted.binary_search(n).is_ok();
        let mut ins: Vec<TensorId> = Vec::new();
        let mut outs: Vec<TensorId> = Vec::new();
        for &m in members {
            for &t in &g.node(m).inputs {
                if g.tensor(t).kind == TensorKind::Weight {
                    continue;
                }
                let produced_inside = self.producer(t).is_some_and(|p| inside(&p));
                if !produced_inside && !ins.contains(&t) {
                    ins.push(t);
                }
            }
            for &t in &g.node(m).outputs {
                let cs = self.consumers(t);
                let all_inside = !cs.is_empty() && cs.iter().all(inside);
                if (!all_inside || g.outputs.contains(&t)) && !outs.contains(&t) {
                    outs.push(t);
                }
            }
        }
        (ins, outs)
    }
}

/// Node and tensor name → id maps of one graph. A name that occurs twice
/// (only in a graph that fails [`Graph::validate`]) resolves to its first
/// occurrence.
#[derive(Debug)]
pub struct NameIndex<'g> {
    nodes: HashMap<&'g str, NodeId>,
    tensors: HashMap<&'g str, TensorId>,
}

impl<'g> NameIndex<'g> {
    /// Map every node and tensor name of `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        let mut nodes = HashMap::with_capacity(graph.nodes.len());
        for (id, n) in graph.iter_nodes() {
            nodes.entry(n.name.as_str()).or_insert(id);
        }
        let mut tensors = HashMap::with_capacity(graph.tensors.len());
        for (id, t) in graph.tensors.iter().enumerate() {
            tensors.entry(t.name.as_str()).or_insert(id as TensorId);
        }
        NameIndex { nodes, tensors }
    }

    /// The node named `name`.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.nodes.get(name).copied()
    }

    /// The tensor named `name`.
    pub fn tensor(&self, name: &str) -> Option<TensorId> {
        self.tensors.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, DType, GraphBuilder, OpKind};

    #[test]
    fn diamond_tables() {
        let mut b = GraphBuilder::new("diamond");
        let x = b.input("x", &[1, 4], DType::F32);
        let a = b.relu("a", x);
        let s = b.sigmoid("s", a);
        let m = b.push("m", OpKind::Mul, attrs!(), &[a, s]);
        let sq = b.push("sq", OpKind::Mul, attrs!(), &[m, m]);
        b.output(sq);
        let g = b.finish();
        let ix = GraphIndex::new(&g);
        assert_eq!(ix.producer(x), None);
        assert_eq!(ix.producer(a), Some(0));
        assert_eq!(ix.consumers(x), &[0]);
        assert_eq!(ix.consumers(a), &[1, 2]);
        assert_eq!(ix.sole_consumer(a), None);
        assert_eq!(ix.sole_consumer(s), Some(2));
        // a node reading a tensor twice is listed twice, not a sole consumer
        assert_eq!(ix.consumers(m), &[3, 3]);
        assert_eq!(ix.sole_consumer(m), None);
        // the graph output feeds nothing
        assert!(ix.consumers(sq).is_empty());
        assert_eq!(ix.sole_consumer(sq), None);
    }

    #[test]
    fn names_resolve_to_ids() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4], DType::F32);
        let r = b.relu("relu", x);
        b.output(r);
        let g = b.finish();
        let names = NameIndex::new(&g);
        assert_eq!(names.node("relu"), Some(0));
        assert_eq!(names.node("x"), None);
        assert_eq!(names.tensor("x"), Some(x));
        assert_eq!(names.tensor("missing"), None);
    }
}
