//! The compute graph.

use crate::{DType, Node, OpKind, Shape, TensorInfo, TensorKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Index of a tensor in [`Graph::tensors`].
pub type TensorId = u32;
/// Index of a node in [`Graph::nodes`].
pub type NodeId = u32;

/// Structural validation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    DanglingTensor {
        node: String,
        tensor: TensorId,
    },
    /// A graph input or output id is out of range.
    DanglingGraphIo {
        tensor: TensorId,
    },
    MultipleProducers {
        tensor: String,
    },
    MissingProducer {
        tensor: String,
    },
    NotTopologicallyOrdered {
        node: String,
        tensor: String,
    },
    DuplicateNodeName {
        name: String,
    },
    DuplicateTensorName {
        name: String,
    },
    EmptyGraph,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::DanglingTensor { node, tensor } => {
                write!(f, "node {node} references out-of-range tensor id {tensor}")
            }
            GraphError::DanglingGraphIo { tensor } => {
                write!(f, "graph io references out-of-range tensor id {tensor}")
            }
            GraphError::MultipleProducers { tensor } => {
                write!(f, "tensor {tensor} has multiple producers")
            }
            GraphError::MissingProducer { tensor } => {
                write!(
                    f,
                    "activation {tensor} has no producer and is not a graph input"
                )
            }
            GraphError::NotTopologicallyOrdered { node, tensor } => {
                write!(f, "node {node} consumes {tensor} before it is produced")
            }
            GraphError::DuplicateNodeName { name } => write!(f, "duplicate node name {name}"),
            GraphError::DuplicateTensorName { name } => write!(f, "duplicate tensor name {name}"),
            GraphError::EmptyGraph => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A DNN model: a flat list of tensors plus a topologically-ordered node list.
///
/// Graphs are immutable after construction ([`crate::GraphBuilder`] enforces
/// topological order and shape inference); analyses build side tables rather
/// than mutating the graph, mirroring how PRoof keeps the original model and
/// the *Optimized Analyze Representation* separate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    pub name: String,
    pub tensors: Vec<TensorInfo>,
    pub nodes: Vec<Node>,
    /// Graph input tensor ids (activations fed per inference).
    pub inputs: Vec<TensorId>,
    /// Graph output tensor ids.
    pub outputs: Vec<TensorId>,
}

impl Graph {
    /// Tensor metadata by id.
    pub fn tensor(&self, id: TensorId) -> &TensorInfo {
        &self.tensors[id as usize]
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total trained parameter count (sum over weight tensors).
    pub fn param_count(&self) -> u64 {
        self.tensors
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .map(|t| t.numel())
            .sum()
    }

    /// Total weight bytes at the stored dtype.
    pub fn param_bytes(&self) -> u64 {
        self.tensors
            .iter()
            .filter(|t| t.kind == TensorKind::Weight)
            .map(|t| t.size_bytes())
            .sum()
    }

    /// The batch size, read from the first graph input's leading dim.
    pub fn batch_size(&self) -> u64 {
        self.inputs
            .first()
            .and_then(|&id| self.tensor(id).shape.dims().first().copied())
            .unwrap_or(1)
    }

    /// Count nodes per [`OpKind`], for model inventory reports.
    pub fn op_histogram(&self) -> HashMap<OpKind, usize> {
        let mut h = HashMap::new();
        for n in &self.nodes {
            *h.entry(n.op).or_insert(0) += 1;
        }
        h
    }

    /// Structural validation: id ranges (node io and graph io), unique
    /// names, single producers, topological order of the node list. The
    /// dense [`crate::GraphIndex`] tables rely on the id ranges.
    pub fn validate(&self) -> Result<(), GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        let ntensors = self.tensors.len() as u32;
        if let Some(&t) = self
            .inputs
            .iter()
            .chain(&self.outputs)
            .find(|&&t| t >= ntensors)
        {
            return Err(GraphError::DanglingGraphIo { tensor: t });
        }
        let mut names = std::collections::HashSet::with_capacity(self.nodes.len());
        for n in &self.nodes {
            if !names.insert(n.name.as_str()) {
                return Err(GraphError::DuplicateNodeName {
                    name: n.name.clone(),
                });
            }
            for &t in n.inputs.iter().chain(&n.outputs) {
                if t >= ntensors {
                    return Err(GraphError::DanglingTensor {
                        node: n.name.clone(),
                        tensor: t,
                    });
                }
            }
        }
        let mut tnames = std::collections::HashSet::with_capacity(self.tensors.len());
        for t in &self.tensors {
            if !tnames.insert(t.name.as_str()) {
                return Err(GraphError::DuplicateTensorName {
                    name: t.name.clone(),
                });
            }
        }
        // single producer + topological order in one pass
        let mut produced = vec![false; self.tensors.len()];
        for (i, t) in self.tensors.iter().enumerate() {
            if t.kind == TensorKind::Weight || self.inputs.contains(&(i as TensorId)) {
                produced[i] = true;
            }
        }
        for n in &self.nodes {
            for &inp in &n.inputs {
                if !produced[inp as usize] {
                    // distinguish "never produced" from "produced later"
                    let ever = self.nodes.iter().any(|m| m.outputs.contains(&inp));
                    let tname = self.tensor(inp).name.clone();
                    return Err(if ever {
                        GraphError::NotTopologicallyOrdered {
                            node: n.name.clone(),
                            tensor: tname,
                        }
                    } else {
                        GraphError::MissingProducer { tensor: tname }
                    });
                }
            }
            for &out in &n.outputs {
                if produced[out as usize] && !self.inputs.contains(&out) {
                    return Err(GraphError::MultipleProducers {
                        tensor: self.tensor(out).name.clone(),
                    });
                }
                produced[out as usize] = true;
            }
        }
        Ok(())
    }

    /// Serialize to the PRoof JSON model format (the repo's stand-in for
    /// ONNX protobuf).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("graph serialization cannot fail")
    }

    /// Deserialize from the PRoof JSON model format and validate.
    pub fn from_json(s: &str) -> Result<Graph, String> {
        let g: Graph = serde_json::from_str(s).map_err(|e| e.to_string())?;
        g.validate().map_err(|e| e.to_string())?;
        Ok(g)
    }

    /// Sum of all activation tensor bytes (useful for memory planning checks).
    pub fn activation_bytes(&self) -> u64 {
        self.tensors
            .iter()
            .filter(|t| t.kind != TensorKind::Weight)
            .map(|t| t.size_bytes())
            .sum()
    }

    /// Iterate `(NodeId, &Node)` in topological (list) order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as NodeId, n))
    }
}

/// A lightweight summary row, as printed by the model-inventory report
/// (paper Table 3).
#[derive(Debug, Clone, Serialize)]
pub struct GraphSummary {
    pub name: String,
    pub nodes: usize,
    pub params_m: f64,
    pub input_shape: Shape,
    pub input_dtype: DType,
}

impl Graph {
    pub fn summary(&self) -> GraphSummary {
        let first = self.inputs.first().map(|&i| self.tensor(i));
        GraphSummary {
            name: self.name.clone(),
            nodes: self.nodes.len(),
            params_m: self.param_count() as f64 / 1e6,
            input_shape: first.map(|t| t.shape.clone()).unwrap_or_default(),
            input_dtype: first.map(|t| t.dtype).unwrap_or(DType::F32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attrs, GraphBuilder};

    fn tiny_graph() -> Graph {
        let mut b = GraphBuilder::new("tiny");
        let x = b.input("x", &[1, 3, 8, 8], DType::F32);
        let y = b.conv("conv1", x, 16, 3, 1, 1, 1, true);
        let y = b.relu("relu1", y);
        b.output(y);
        b.finish()
    }

    #[test]
    fn validate_accepts_builder_output() {
        let g = tiny_graph();
        g.validate().unwrap();
        assert_eq!(g.node_count(), 2);
        // conv weight 16*3*3*3 + bias 16
        assert_eq!(g.param_count(), 16 * 3 * 3 * 3 + 16);
    }

    #[test]
    fn json_roundtrip() {
        let g = tiny_graph();
        let s = g.to_json();
        let g2 = Graph::from_json(&s).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn validate_rejects_duplicate_node_names() {
        let mut g = tiny_graph();
        let second = g.nodes[1].name.clone();
        g.nodes[0].name = second;
        assert!(matches!(
            g.validate(),
            Err(GraphError::DuplicateNodeName { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_order_nodes() {
        let mut g = tiny_graph();
        g.nodes.swap(0, 1);
        assert!(matches!(
            g.validate(),
            Err(GraphError::NotTopologicallyOrdered { .. })
        ));
    }

    #[test]
    fn validate_rejects_dangling_ids() {
        let mut g = tiny_graph();
        g.nodes[1].inputs[0] = 999;
        assert!(matches!(
            g.validate(),
            Err(GraphError::DanglingTensor { .. })
        ));
    }

    #[test]
    fn validate_rejects_dangling_graph_io() {
        let mut g = tiny_graph();
        g.outputs.push(999);
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingGraphIo { tensor: 999 })
        );
        let mut g = tiny_graph();
        g.inputs.push(999);
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingGraphIo { tensor: 999 })
        );
    }

    #[test]
    fn batch_size_reads_leading_dim() {
        let mut b = GraphBuilder::new("b4");
        let x = b.input("x", &[4, 3, 8, 8], DType::F32);
        let y = b.relu("r", x);
        b.output(y);
        assert_eq!(b.finish().batch_size(), 4);
    }

    #[test]
    fn op_histogram_counts() {
        let g = tiny_graph();
        let h = g.op_histogram();
        assert_eq!(h[&OpKind::Conv], 1);
        assert_eq!(h[&OpKind::Relu], 1);
    }

    #[test]
    fn summary_fields() {
        let s = tiny_graph().summary();
        assert_eq!(s.nodes, 2);
        assert!(s.params_m > 0.0);
        assert_eq!(s.input_shape, Shape::new(&[1, 3, 8, 8]));
    }

    #[test]
    fn multi_output_split_graph_validates() {
        let mut b = GraphBuilder::new("split");
        let x = b.input("x", &[1, 4, 2, 2], DType::F32);
        let parts = b.push_multi(
            "split0",
            OpKind::Split,
            attrs! {"axis" => int 1, "num_outputs" => int 2},
            &[x],
        );
        let y = b.push("add0", OpKind::Add, attrs!(), &[parts[0], parts[1]]);
        b.output(y);
        b.finish().validate().unwrap();
    }
}
