//! The *Optimized Analyze Representation* and `_FusedOp` (paper §3.2.3),
//! plus the universal graph-search interfaces the layer-mapping step uses
//! (§3.3, Figure 2): `get_subgraph_ops_by_io`, `set_tensor_alias`,
//! `set_fused_op`.

use crate::analysis::AnalyzeRepr;
use crate::cost::CostEstimate;
use proof_ir::{Graph, GraphIndex, NameIndex, NodeId, TensorId, TensorKind};
use std::collections::{HashMap, HashSet};

/// Identifier of a layer group (one group ≙ one backend layer after mapping).
pub type GroupId = u32;

/// A group of original model nodes that the backend executes as one layer.
/// A single-member group is an unfused operator; a multi-member group is the
/// paper's `_FusedOp` (it "maintains a subgraph of these original operators").
#[derive(Debug, Clone, PartialEq)]
pub struct Group {
    pub name: String,
    /// Member nodes, in topological order.
    pub members: Vec<NodeId>,
    /// Whether this group was created by `set_fused_op`.
    pub fused: bool,
}

/// A backend-inserted layer with no counterpart in the model (tensor format
/// or datatype conversion — the `reorder_1` of the paper's Figure 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderLayer {
    pub name: String,
    /// The model tensor whose converted copy this layer produces.
    pub tensor: TensorId,
    pub cost: CostEstimate,
}

/// Errors from the mapping interfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum FuseError {
    UnknownTensor(String),
    UnknownNode(NodeId),
    /// The io-bounded closure escaped the given inputs (not a valid subgraph).
    NotAClosedSubgraph {
        escaped_tensor: String,
    },
    /// A member already belongs to another fused group.
    AlreadyFused {
        node: String,
    },
    EmptyMemberSet,
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::UnknownTensor(n) => write!(f, "unknown tensor {n}"),
            FuseError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            FuseError::NotAClosedSubgraph { escaped_tensor } => {
                write!(
                    f,
                    "subgraph escapes its declared inputs via {escaped_tensor}"
                )
            }
            FuseError::AlreadyFused { node } => write!(f, "node {node} is already fused"),
            FuseError::EmptyMemberSet => write!(f, "empty member set"),
        }
    }
}

impl std::error::Error for FuseError {}

/// The Optimized Analyze Representation: starts identical to the
/// [`AnalyzeRepr`] (one group per node) and is transformed towards the
/// backend's fused structure through the interfaces below.
pub struct OptimizedRepr<'g> {
    analysis: AnalyzeRepr<'g>,
    groups: Vec<Group>,
    /// group id per node.
    node_group: Vec<GroupId>,
    /// Runtime tensor-name aliases (`t2_r` → `t2`).
    aliases: HashMap<String, TensorId>,
    reorders: Vec<ReorderLayer>,
    index: GraphIndex<'g>,
    names: NameIndex<'g>,
}

impl<'g> OptimizedRepr<'g> {
    /// One singleton group per node, plus the graph's dataflow index and
    /// name maps, each built once here for all the mapping that follows.
    pub fn new(analysis: AnalyzeRepr<'g>) -> Self {
        let graph = analysis.graph();
        let groups = graph
            .iter_nodes()
            .map(|(id, n)| Group {
                name: n.name.clone(),
                members: vec![id],
                fused: false,
            })
            .collect::<Vec<_>>();
        let node_group = (0..graph.nodes.len() as GroupId).collect();
        OptimizedRepr {
            index: GraphIndex::new(graph),
            names: NameIndex::new(graph),
            analysis,
            groups,
            node_group,
            aliases: HashMap::new(),
            reorders: Vec::new(),
        }
    }

    pub fn graph(&self) -> &'g Graph {
        self.analysis.graph()
    }

    pub fn analysis(&self) -> &AnalyzeRepr<'g> {
        &self.analysis
    }

    /// The graph's producer/consumer tables.
    pub(crate) fn index(&self) -> &GraphIndex<'g> {
        &self.index
    }

    /// The model node named `name`.
    pub fn node_named(&self, name: &str) -> Option<NodeId> {
        self.names.node(name)
    }

    // ------------------------------------------------------------------
    // Universal mapping interfaces (paper Figure 2)
    // ------------------------------------------------------------------

    /// Resolve a runtime tensor name to a model tensor, through aliases.
    pub fn resolve_tensor(&self, name: &str) -> Option<TensorId> {
        self.aliases
            .get(name)
            .copied()
            .or_else(|| self.names.tensor(name))
    }

    /// Register that the runtime refers to model tensor `target` under
    /// `alias` (e.g. after inserting a reorder layer).
    pub fn set_tensor_alias(&mut self, alias: &str, target: TensorId) {
        self.aliases.insert(alias.to_string(), target);
    }

    /// Find the node subgraph whose boundary is exactly `inputs` → `outputs`
    /// (paper: "search the computational graph and leverage context and data
    /// dependencies"). Runs a backward closure from the producers of
    /// `outputs`, cut at `inputs`; fails if the closure needs any activation
    /// outside `inputs` that has no producer inside the closure, i.e. the io
    /// description does not bound a subgraph.
    ///
    /// Returns members in topological order.
    pub fn get_subgraph_ops_by_io(
        &self,
        inputs: &[TensorId],
        outputs: &[TensorId],
    ) -> Result<Vec<NodeId>, FuseError> {
        let g = self.graph();
        let input_set: HashSet<TensorId> = inputs.iter().copied().collect();
        let mut members: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &out in outputs {
            match self.index.producer(out) {
                Some(nid) => {
                    if members.insert(nid) {
                        stack.push(nid);
                    }
                }
                None => {
                    return Err(FuseError::UnknownTensor(g.tensor(out).name.clone()));
                }
            }
        }
        while let Some(nid) = stack.pop() {
            for &inp in &g.node(nid).inputs {
                if input_set.contains(&inp) {
                    continue;
                }
                let t = g.tensor(inp);
                if t.kind == TensorKind::Weight {
                    continue; // weights live inside the fused layer
                }
                match self.index.producer(inp) {
                    Some(p) => {
                        if members.insert(p) {
                            stack.push(p);
                        }
                    }
                    None => {
                        // a graph input not listed in `inputs`: escape
                        return Err(FuseError::NotAClosedSubgraph {
                            escaped_tensor: t.name.clone(),
                        });
                    }
                }
            }
        }
        let mut sorted: Vec<NodeId> = members.into_iter().collect();
        sorted.sort_unstable();
        Ok(sorted)
    }

    /// Fuse `members` into a single `_FusedOp` named `name`. Members must be
    /// currently unfused (their initial one-node groups are absorbed).
    pub fn set_fused_op(&mut self, name: &str, members: &[NodeId]) -> Result<GroupId, FuseError> {
        if members.is_empty() {
            return Err(FuseError::EmptyMemberSet);
        }
        let g = self.graph();
        for &m in members {
            if m as usize >= g.nodes.len() {
                return Err(FuseError::UnknownNode(m));
            }
            let gid = self.node_group[m as usize];
            if self.groups[gid as usize].fused || self.groups[gid as usize].members.len() > 1 {
                return Err(FuseError::AlreadyFused {
                    node: g.node(m).name.clone(),
                });
            }
        }
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let new_id = self.groups.len() as GroupId;
        // retire the old singleton groups
        for &m in &sorted {
            let old = self.node_group[m as usize];
            self.groups[old as usize].members.clear();
            self.node_group[m as usize] = new_id;
        }
        self.groups.push(Group {
            name: name.to_string(),
            members: sorted,
            fused: true,
        });
        Ok(new_id)
    }

    /// Record a backend-inserted reorder/reformat layer converting `tensor`;
    /// its traffic is one read + one write of that tensor, and `alias` (the
    /// runtime's name for the converted tensor) resolves back to `tensor`.
    pub fn add_reorder_layer(&mut self, name: &str, tensor: TensorId, alias: Option<&str>) {
        let bytes = self
            .graph()
            .tensor(tensor)
            .size_bytes_at(self.analysis.precision());
        self.reorders.push(ReorderLayer {
            name: name.to_string(),
            tensor,
            cost: CostEstimate {
                flops: 0,
                input_bytes: bytes,
                weight_bytes: 0,
                output_bytes: bytes,
            },
        });
        if let Some(a) = alias {
            self.set_tensor_alias(a, tensor);
        }
    }

    /// Attach a leftover no-op node (view/metadata) to an existing group —
    /// used after fusion so every original node stays mapped.
    pub fn absorb_into(&mut self, node: NodeId, group: GroupId) -> Result<(), FuseError> {
        if node as usize >= self.node_group.len() {
            return Err(FuseError::UnknownNode(node));
        }
        let old = self.node_group[node as usize];
        if old == group {
            return Ok(());
        }
        let idx = self.groups[old as usize]
            .members
            .iter()
            .position(|&m| m == node)
            .expect("node listed in its group");
        self.groups[old as usize].members.remove(idx);
        self.groups[group as usize].members.push(node);
        self.groups[group as usize].members.sort_unstable();
        self.node_group[node as usize] = group;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    pub fn group_of(&self, node: NodeId) -> GroupId {
        self.node_group[node as usize]
    }

    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id as usize]
    }

    /// Live groups (non-empty), in topological order of their first member.
    pub fn groups(&self) -> impl Iterator<Item = (GroupId, &Group)> {
        let mut ids: Vec<GroupId> = (0..self.groups.len() as GroupId)
            .filter(|&i| !self.groups[i as usize].members.is_empty())
            .collect();
        ids.sort_by_key(|&i| self.groups[i as usize].members[0]);
        ids.into_iter().map(move |i| (i, &self.groups[i as usize]))
    }

    pub fn reorder_layers(&self) -> &[ReorderLayer] {
        &self.reorders
    }

    /// Boundary input/output tensors of a group (activations only; weights
    /// are interior by definition).
    pub fn group_io(&self, id: GroupId) -> (Vec<TensorId>, Vec<TensorId>) {
        // members stay sorted: iteration order and membership agree
        let members = &self.groups[id as usize].members;
        self.index.group_io(members, members)
    }

    /// Predicted cost of a group: FLOP is the sum over members; memory
    /// counts only boundary activations plus member weights — the paper's
    /// on-chip-intermediate assumption for `_FusedOp` ("intermediate tensors
    /// in the fused subgraphs will no longer need to be passed through
    /// DRAM").
    pub fn group_cost(&self, id: GroupId) -> CostEstimate {
        let grp = &self.groups[id as usize];
        if grp.members.is_empty() {
            return CostEstimate::default();
        }
        if grp.members.len() == 1 {
            return *self.analysis.node_cost(grp.members[0]);
        }
        let precision = self.analysis.precision();
        let g = self.graph();
        let mut cost = CostEstimate::default();
        for &m in &grp.members {
            let nc = self.analysis.node_cost(m);
            cost.flops += nc.flops;
            cost.weight_bytes += nc.weight_bytes;
        }
        let (ins, outs) = self.group_io(id);
        for t in ins {
            // the fused kernel reads each boundary tensor once; honour the
            // per-consumer read rules (e.g. strided-conv partial reads) by
            // charging the largest in-group read of that tensor
            let read = self
                .index
                .consumers(t)
                .iter()
                .filter(|c| grp.members.binary_search(c).is_ok())
                .map(|&c| {
                    // a view member still pulls the full tensor into the
                    // fused kernel; real readers apply their sparse/strided
                    // read rules
                    if g.node(c).op.is_noop_at_inference() {
                        g.tensor(t).size_bytes_at(precision)
                    } else {
                        crate::cost::input_read_bytes(
                            g,
                            c,
                            t,
                            precision,
                            crate::cost::CostOptions::default(),
                        )
                    }
                })
                .max()
                .unwrap_or(0);
            cost.input_bytes += read;
        }
        for t in outs {
            cost.output_bytes += g.tensor(t).size_bytes_at(precision);
        }
        cost
    }

    /// Whole-model predicted cost at backend-layer granularity (fused
    /// groups + reorder layers).
    pub fn total_cost(&self) -> CostEstimate {
        let groups: CostEstimate = self.groups().map(|(id, _)| self.group_cost(id)).sum();
        let reorders: CostEstimate = self.reorders.iter().map(|r| r.cost).sum();
        groups + reorders
    }

    /// Every original node's group assignment, for partition checks.
    pub fn node_assignments(&self) -> &[GroupId] {
        &self.node_group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_ir::{DType, GraphBuilder};

    /// conv → add(residual) → relu, plus a side branch input
    fn block() -> Graph {
        let mut b = GraphBuilder::new("blk");
        let x = b.input("x", &[1, 8, 16, 16], DType::F32);
        let c = b.conv("conv", x, 8, 3, 1, 1, 1, false);
        let a = b.add("add", c, x);
        let r = b.relu("relu", a);
        b.output(r);
        b.finish()
    }

    fn repr(g: &Graph) -> OptimizedRepr<'_> {
        OptimizedRepr::new(AnalyzeRepr::new(g, DType::F32))
    }

    #[test]
    fn starts_identical_to_analysis() {
        let g = block();
        let o = repr(&g);
        assert_eq!(o.groups().count(), 3);
        let total = o.total_cost();
        assert_eq!(total, o.analysis().total());
    }

    #[test]
    fn subgraph_by_io_finds_the_block() {
        let g = block();
        let o = repr(&g);
        let x = g.inputs[0];
        let out = g.node(2).output();
        let members = o.get_subgraph_ops_by_io(&[x], &[out]).unwrap();
        assert_eq!(members, vec![0, 1, 2]);
    }

    #[test]
    fn subgraph_by_io_rejects_escaping_io() {
        let mut b = GraphBuilder::new("two-in");
        let x = b.input("x", &[1, 4], DType::F32);
        let y = b.input("y", &[1, 4], DType::F32);
        let s = b.add("add", x, y);
        b.output(s);
        let g = b.finish();
        let o = repr(&g);
        let x = g.inputs[0];
        let out = g.node(0).output();
        // declaring only x as input misses y → escape
        let err = o.get_subgraph_ops_by_io(&[x], &[out]).unwrap_err();
        assert!(matches!(err, FuseError::NotAClosedSubgraph { .. }));
    }

    #[test]
    fn fused_cost_drops_interior_traffic_but_keeps_flops() {
        let g = block();
        let mut o = repr(&g);
        let unfused = o.total_cost();
        let gid = o.set_fused_op("conv+add+relu", &[0, 1, 2]).unwrap();
        let fused = o.group_cost(gid);
        assert_eq!(fused.flops, unfused.flops);
        assert!(fused.memory_bytes() < unfused.memory_bytes());
        // boundary: reads x (once), writes relu output; conv weights kept
        let x_bytes = g.tensor(g.inputs[0]).size_bytes();
        assert_eq!(fused.input_bytes, x_bytes);
        assert_eq!(fused.weight_bytes, 8 * 8 * 3 * 3 * 4);
    }

    #[test]
    fn group_io_reports_boundary() {
        let g = block();
        let mut o = repr(&g);
        let gid = o.set_fused_op("f", &[0, 1]).unwrap(); // conv+add, relu outside
        let (ins, outs) = o.group_io(gid);
        assert_eq!(ins, vec![g.inputs[0]]);
        assert_eq!(outs, vec![g.node(1).output()]);
    }

    #[test]
    fn double_fusion_is_rejected() {
        let g = block();
        let mut o = repr(&g);
        o.set_fused_op("f1", &[0, 1]).unwrap();
        let err = o.set_fused_op("f2", &[1, 2]).unwrap_err();
        assert!(matches!(err, FuseError::AlreadyFused { .. }));
    }

    #[test]
    fn aliases_resolve_through_reorders() {
        let g = block();
        let mut o = repr(&g);
        let conv_out = g.node(0).output();
        o.add_reorder_layer("reorder_1", conv_out, Some("conv:0_r"));
        assert_eq!(o.resolve_tensor("conv:0_r"), Some(conv_out));
        assert_eq!(o.resolve_tensor("conv:0"), Some(conv_out));
        let r = &o.reorder_layers()[0];
        assert_eq!(r.cost.input_bytes, r.cost.output_bytes);
        assert!(r.cost.input_bytes > 0);
    }

    #[test]
    fn absorb_moves_membership() {
        let g = block();
        let mut o = repr(&g);
        let gid = o.set_fused_op("f", &[0, 1]).unwrap();
        o.absorb_into(2, gid).unwrap();
        assert_eq!(o.group_of(2), gid);
        assert_eq!(o.group(gid).members, vec![0, 1, 2]);
        // every node maps to exactly one live group
        let live: Vec<_> = o.groups().collect();
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn groups_iterate_in_topo_order_after_fusion() {
        let g = block();
        let mut o = repr(&g);
        o.set_fused_op("tail", &[1, 2]).unwrap();
        let names: Vec<&str> = o.groups().map(|(_, g)| g.name.as_str()).collect();
        assert_eq!(names, vec!["conv", "tail"]);
    }
}
