//! Eager graph builder with inline shape inference.
//!
//! Mid-level helpers (`conv`, `linear`, `layer_norm_decomposed`, `gelu`, ...)
//! emit exactly the node patterns PyTorch's ONNX exporter emits, so that the
//! model zoo's node counts are comparable to the paper's Table 3.
//!
//! **Names.** Nodes and tensors share one namespace here (stricter than
//! [`Graph::validate`], which checks the two lists separately). A name that
//! is already taken gets the first free `_1`, `_2`, ... suffix, and a node's
//! outputs are named `{node}:{i}` after the node's final, suffixed name.
//!
//! **Cost.** Building a graph costs about what cloning the finished one
//! does: every name is made once at its exact length and moved into the
//! graph, the uniqueness check keys on a hash of each name and confirms a
//! hit against the name the graph already stores (no second owned copy),
//! and shape inference reads the input shapes in place.

use crate::hash::{hash_name, FastBuild};
use crate::{
    infer_shapes, AttrValue, Attributes, DType, Graph, Node, NodeId, OpKind, Shape, ShapeError,
    TensorId, TensorInfo, TensorKind,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt::Write;

/// Where a claimed name is stored.
#[derive(Debug, Clone, Copy)]
enum NameRef {
    Tensor(TensorId),
    Node(NodeId),
}

/// The set of names claimed so far, holding no copy of them: it maps each
/// name's hash to where the name is stored, and a hit is confirmed by
/// comparing against that stored name. Two different names with one hash
/// (a true collision) are told apart exactly: the later one is kept, owned,
/// in `collided`.
#[derive(Debug)]
struct NameSet {
    hash: fn(&str) -> u64,
    first: HashMap<u64, NameRef, FastBuild>,
    collided: HashSet<String, FastBuild>,
}

impl NameSet {
    fn new() -> Self {
        NameSet {
            hash: hash_name,
            first: HashMap::default(),
            collided: HashSet::default(),
        }
    }

    /// Claim `name` for `at` unless it is taken; `stored` reads a claimed
    /// name back.
    fn claim<'a>(&mut self, name: &str, at: NameRef, stored: impl Fn(NameRef) -> &'a str) -> bool {
        match self.first.entry((self.hash)(name)) {
            Entry::Vacant(e) => {
                e.insert(at);
                true
            }
            Entry::Occupied(e) => {
                if stored(*e.get()) == name || self.collided.contains(name) {
                    return false;
                }
                self.collided.insert(name.to_owned());
                true
            }
        }
    }
}

/// `{base}{suffix}` at its exact length: the name of a node or tensor
/// derived from `base`. (`format!("{base}...")` under-sizes a string that
/// starts with an argument and has to grow it.)
pub fn sub_name(base: &str, suffix: &str) -> String {
    let mut s = String::with_capacity(base.len() + suffix.len());
    s.push_str(base);
    s.push_str(suffix);
    s
}

/// The name of output `i` of node `node`: `{node}:{i}`, at its exact length.
fn output_name(node: &str, i: usize) -> String {
    let digits = i.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut s = String::with_capacity(node.len() + 1 + digits);
    s.push_str(node);
    s.push(':');
    write!(s, "{i}").expect("writing to a String cannot fail");
    s
}

/// Builds a [`Graph`] node by node, running shape inference eagerly so every
/// tensor has a concrete shape, and enforcing unique node/tensor names.
#[derive(Debug)]
pub struct GraphBuilder {
    name: String,
    tensors: Vec<TensorInfo>,
    nodes: Vec<Node>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
    names: NameSet,
}

impl GraphBuilder {
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            name: name.into(),
            tensors: Vec::new(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            names: NameSet::new(),
        }
    }

    /// `name`, or its first free `_N` form, claimed for `at`.
    fn unique(&mut self, name: String, at: NameRef) -> String {
        if self.try_claim(&name, at) {
            return name;
        }
        for i in 1.. {
            let cand = format!("{name}_{i}");
            if self.try_claim(&cand, at) {
                return cand;
            }
        }
        unreachable!()
    }

    fn try_claim(&mut self, name: &str, at: NameRef) -> bool {
        let (tensors, nodes) = (&self.tensors, &self.nodes);
        self.names.claim(name, at, |r| match r {
            NameRef::Tensor(t) => &tensors[t as usize].name,
            NameRef::Node(n) => &nodes[n as usize].name,
        })
    }

    fn add_tensor(
        &mut self,
        name: String,
        shape: Shape,
        dtype: DType,
        kind: TensorKind,
    ) -> TensorId {
        let id = self.tensors.len() as TensorId;
        let name = self.unique(name, NameRef::Tensor(id));
        self.tensors.push(TensorInfo::new(name, shape, dtype, kind));
        id
    }

    /// Declare a graph input.
    pub fn input(&mut self, name: &str, dims: &[u64], dtype: DType) -> TensorId {
        let id = self.add_tensor(name.to_owned(), Shape::new(dims), dtype, TensorKind::Input);
        self.inputs.push(id);
        id
    }

    /// Declare an f32 weight (ONNX initializer).
    pub fn weight(&mut self, name: &str, dims: &[u64]) -> TensorId {
        self.sub_weight(name, "", dims)
    }

    /// The f32 weight `{name}{suffix}`.
    fn sub_weight(&mut self, name: &str, suffix: &str, dims: &[u64]) -> TensorId {
        let name = sub_name(name, suffix);
        self.add_tensor(name, Shape::new(dims), DType::F32, TensorKind::Weight)
    }

    /// Declare a weight with an explicit dtype (e.g. `I64` index tables).
    pub fn weight_typed(&mut self, name: &str, dims: &[u64], dtype: DType) -> TensorId {
        self.add_tensor(name.to_owned(), Shape::new(dims), dtype, TensorKind::Weight)
    }

    /// A scalar f32 initializer (for broadcast constants like `sqrt(2)`).
    pub fn scalar(&mut self, name: &str) -> TensorId {
        self.sub_scalar(name, "")
    }

    /// The scalar f32 initializer `{name}{suffix}`.
    fn sub_scalar(&mut self, name: &str, suffix: &str) -> TensorId {
        let name = sub_name(name, suffix);
        self.add_tensor(name, Shape::scalar(), DType::F32, TensorKind::Weight)
    }

    /// Mark a tensor as a graph output.
    pub fn output(&mut self, id: TensorId) {
        self.tensors[id as usize].kind = TensorKind::Output;
        self.outputs.push(id);
    }

    /// Append a node, inferring its single output shape.
    ///
    /// # Panics
    /// On shape-inference failure (model construction is programmer error).
    pub fn push(
        &mut self,
        name: &str,
        op: OpKind,
        attrs: Attributes,
        inputs: &[TensorId],
    ) -> TensorId {
        self.sub_push(name, "", op, attrs, inputs)
    }

    /// [`GraphBuilder::push`] of the node `{name}{suffix}`.
    fn sub_push(
        &mut self,
        name: &str,
        suffix: &str,
        op: OpKind,
        attrs: Attributes,
        inputs: &[TensorId],
    ) -> TensorId {
        let node = self.node(name, suffix, op, attrs, inputs);
        self.nodes[node as usize].outputs[0]
    }

    /// Append a (possibly multi-output) node, returning all output ids.
    pub fn push_multi(
        &mut self,
        name: &str,
        op: OpKind,
        attrs: Attributes,
        inputs: &[TensorId],
    ) -> Vec<TensorId> {
        let node = self.node(name, "", op, attrs, inputs);
        self.nodes[node as usize].outputs.clone()
    }

    /// Fallible node append.
    pub fn try_push(
        &mut self,
        name: &str,
        op: OpKind,
        attrs: Attributes,
        inputs: &[TensorId],
    ) -> Result<Vec<TensorId>, ShapeError> {
        let outs = self.infer(op, &attrs, inputs)?;
        let node = self.append(name.to_owned(), op, attrs, inputs, outs);
        Ok(self.nodes[node as usize].outputs.clone())
    }

    /// Infer and append the node `{name}{suffix}`.
    ///
    /// # Panics
    /// On shape-inference failure, naming the node and the graph.
    fn node(
        &mut self,
        name: &str,
        suffix: &str,
        op: OpKind,
        attrs: Attributes,
        inputs: &[TensorId],
    ) -> NodeId {
        match self.infer(op, &attrs, inputs) {
            Ok(outs) => self.append(sub_name(name, suffix), op, attrs, inputs, outs),
            Err(e) => panic!(
                "while building node {name}{suffix} ({op}) in graph {}: {e}",
                self.name
            ),
        }
    }

    /// Shape inference over the input tensors' shapes, read in place.
    fn infer(
        &self,
        op: OpKind,
        attrs: &Attributes,
        inputs: &[TensorId],
    ) -> Result<Vec<(Shape, DType)>, ShapeError> {
        let meta: Vec<(&Shape, DType)> = inputs
            .iter()
            .map(|&id| {
                let t = &self.tensors[id as usize];
                (&t.shape, t.dtype)
            })
            .collect();
        infer_shapes(op, attrs, &meta)
    }

    /// Append a node whose output shapes are inferred: the node takes its
    /// (unique) name first, then each output `{node}:{i}` after it.
    fn append(
        &mut self,
        name: String,
        op: OpKind,
        attrs: Attributes,
        inputs: &[TensorId],
        outs: Vec<(Shape, DType)>,
    ) -> NodeId {
        let id = self.nodes.len() as NodeId;
        let name = self.unique(name, NameRef::Node(id));
        let outputs = Vec::with_capacity(outs.len());
        self.nodes
            .push(Node::new(name, op, attrs, inputs.to_vec(), outputs));
        for (i, (shape, dtype)) in outs.into_iter().enumerate() {
            let tname = output_name(&self.nodes[id as usize].name, i);
            let t = self.add_tensor(tname, shape, dtype, TensorKind::Activation);
            self.nodes[id as usize].outputs.push(t);
        }
        id
    }

    /// Shape of a tensor built so far.
    pub fn shape(&self, id: TensorId) -> &Shape {
        &self.tensors[id as usize].shape
    }

    /// Channel dim (axis 1) of a tensor built so far.
    pub fn channels(&self, id: TensorId) -> u64 {
        self.shape(id).0[1]
    }

    /// Finish: returns the validated graph.
    ///
    /// # Panics
    /// If validation fails (builder invariants should make this impossible).
    pub fn finish(self) -> Graph {
        let g = Graph {
            name: self.name,
            tensors: self.tensors,
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: self.outputs,
        };
        if let Err(e) = g.validate() {
            panic!("builder produced invalid graph {}: {e}", g.name);
        }
        g
    }

    // ------------------------------------------------------------------
    // Mid-level helpers (PyTorch-ONNX-export-shaped patterns)
    // ------------------------------------------------------------------

    /// 2-D convolution with square kernel; creates weight (and bias) tensors.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        &mut self,
        name: &str,
        x: TensorId,
        out_channels: u64,
        kernel: u64,
        stride: u64,
        pad: u64,
        groups: u64,
        bias: bool,
    ) -> TensorId {
        self.conv2(
            name,
            x,
            out_channels,
            (kernel, kernel),
            (stride, stride),
            [pad; 4],
            groups,
            bias,
        )
    }

    /// 2-D convolution, rectangular form. `pads` is `[top, left, bottom, right]`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2(
        &mut self,
        name: &str,
        x: TensorId,
        out_channels: u64,
        kernel: (u64, u64),
        stride: (u64, u64),
        pads: [u64; 4],
        groups: u64,
        bias: bool,
    ) -> TensorId {
        let cin = self.channels(x);
        assert_eq!(cin % groups, 0, "conv {name}: cin {cin} % groups {groups}");
        let w = self.sub_weight(
            name,
            ".weight",
            &[out_channels, cin / groups, kernel.0, kernel.1],
        );
        let mut ins = vec![x, w];
        if bias {
            ins.push(self.sub_weight(name, ".bias", &[out_channels]));
        }
        let attrs = Attributes::new()
            .with_ints("kernel_shape", &[kernel.0 as i64, kernel.1 as i64])
            .with_ints("strides", &[stride.0 as i64, stride.1 as i64])
            .with_ints(
                "pads",
                &[
                    pads[0] as i64,
                    pads[1] as i64,
                    pads[2] as i64,
                    pads[3] as i64,
                ],
            )
            .with_int("group", groups as i64);
        self.push(name, OpKind::Conv, attrs, &ins)
    }

    /// Inference-mode BatchNorm; creates scale/bias/mean/var weights.
    pub fn bn(&mut self, name: &str, x: TensorId) -> TensorId {
        let c = self.channels(x);
        let scale = self.sub_weight(name, ".weight", &[c]);
        let bias = self.sub_weight(name, ".bias", &[c]);
        let mean = self.sub_weight(name, ".running_mean", &[c]);
        let var = self.sub_weight(name, ".running_var", &[c]);
        self.push(
            name,
            OpKind::BatchNormalization,
            Attributes::new().with_float("epsilon", 1e-5),
            &[x, scale, bias, mean, var],
        )
    }

    pub fn relu(&mut self, name: &str, x: TensorId) -> TensorId {
        self.push(name, OpKind::Relu, Attributes::new(), &[x])
    }

    /// ReLU6 as exported: a Clip node.
    pub fn relu6(&mut self, name: &str, x: TensorId) -> TensorId {
        self.push(
            name,
            OpKind::Clip,
            Attributes::new()
                .with_float("min", 0.0)
                .with_float("max", 6.0),
            &[x],
        )
    }

    pub fn sigmoid(&mut self, name: &str, x: TensorId) -> TensorId {
        self.push(name, OpKind::Sigmoid, Attributes::new(), &[x])
    }

    /// SiLU/Swish as exported by PyTorch: `Sigmoid` + `Mul` (2 nodes).
    pub fn silu(&mut self, name: &str, x: TensorId) -> TensorId {
        let s = self.sub_push(name, "/Sigmoid", OpKind::Sigmoid, Attributes::new(), &[x]);
        self.sub_push(name, "/Mul", OpKind::Mul, Attributes::new(), &[x, s])
    }

    pub fn hardswish(&mut self, name: &str, x: TensorId) -> TensorId {
        self.push(name, OpKind::HardSwish, Attributes::new(), &[x])
    }

    /// GELU as exported by PyTorch (erf formulation, 5 nodes):
    /// `Div → Erf → Add → Mul → Mul`.
    pub fn gelu(&mut self, name: &str, x: TensorId) -> TensorId {
        let sqrt2 = self.sub_scalar(name, "/sqrt2");
        let one = self.sub_scalar(name, "/one");
        let half = self.sub_scalar(name, "/half");
        let d = self.sub_push(name, "/Div", OpKind::Div, Attributes::new(), &[x, sqrt2]);
        let e = self.sub_push(name, "/Erf", OpKind::Erf, Attributes::new(), &[d]);
        let a = self.sub_push(name, "/Add", OpKind::Add, Attributes::new(), &[e, one]);
        let m = self.sub_push(name, "/Mul", OpKind::Mul, Attributes::new(), &[x, a]);
        self.sub_push(name, "/Mul_1", OpKind::Mul, Attributes::new(), &[m, half])
    }

    /// LayerNorm over the last axis, decomposed as PyTorch exports it with
    /// opset < 17 (9 nodes): `ReduceMean → Sub → Pow → ReduceMean → Add →
    /// Sqrt → Div → Mul → Add`.
    pub fn layer_norm_decomposed(&mut self, name: &str, x: TensorId) -> TensorId {
        let last = *self.shape(x).dims().last().expect("LN input rank >= 1");
        let scale = self.sub_weight(name, ".weight", &[last]);
        let bias = self.sub_weight(name, ".bias", &[last]);
        let two = self.sub_scalar(name, "/two");
        let eps = self.sub_scalar(name, "/eps");
        let axes = Attributes::new().with_ints("axes", &[-1]);
        let mean = self.sub_push(name, "/ReduceMean", OpKind::ReduceMean, axes.clone(), &[x]);
        let sub = self.sub_push(name, "/Sub", OpKind::Sub, Attributes::new(), &[x, mean]);
        let sq = self.sub_push(name, "/Pow", OpKind::Pow, Attributes::new(), &[sub, two]);
        let var = self.sub_push(name, "/ReduceMean_1", OpKind::ReduceMean, axes, &[sq]);
        let ve = self.sub_push(name, "/Add", OpKind::Add, Attributes::new(), &[var, eps]);
        let std = self.sub_push(name, "/Sqrt", OpKind::Sqrt, Attributes::new(), &[ve]);
        let nrm = self.sub_push(name, "/Div", OpKind::Div, Attributes::new(), &[sub, std]);
        let sc = self.sub_push(name, "/Mul", OpKind::Mul, Attributes::new(), &[nrm, scale]);
        self.sub_push(name, "/Add_1", OpKind::Add, Attributes::new(), &[sc, bias])
    }

    /// Fused single-node LayerNormalization (opset >= 17 export).
    pub fn layer_norm_fused(&mut self, name: &str, x: TensorId) -> TensorId {
        let last = *self.shape(x).dims().last().expect("LN input rank >= 1");
        let scale = self.sub_weight(name, ".weight", &[last]);
        let bias = self.sub_weight(name, ".bias", &[last]);
        self.push(
            name,
            OpKind::LayerNormalization,
            Attributes::new()
                .with_int("axis", -1)
                .with_float("epsilon", 1e-5),
            &[x, scale, bias],
        )
    }

    /// GroupNorm (used by the Stable Diffusion UNet).
    pub fn group_norm(&mut self, name: &str, x: TensorId, groups: u64) -> TensorId {
        let c = self.channels(x);
        let scale = self.sub_weight(name, ".weight", &[c]);
        let bias = self.sub_weight(name, ".bias", &[c]);
        self.push(
            name,
            OpKind::GroupNormalization,
            Attributes::new()
                .with_int("num_groups", groups as i64)
                .with_float("epsilon", 1e-5),
            &[x, scale, bias],
        )
    }

    /// `nn.Linear` as exported: `Gemm` (transB) on 2-D inputs, `MatMul`+`Add`
    /// on higher-rank inputs.
    pub fn linear(&mut self, name: &str, x: TensorId, out_features: u64, bias: bool) -> TensorId {
        let in_features = *self.shape(x).dims().last().expect("linear input rank >= 1");
        if self.shape(x).rank() == 2 {
            let w = self.sub_weight(name, ".weight", &[out_features, in_features]);
            let mut ins = vec![x, w];
            if bias {
                ins.push(self.sub_weight(name, ".bias", &[out_features]));
            }
            self.push(
                name,
                OpKind::Gemm,
                Attributes::new().with_int("transB", 1),
                &ins,
            )
        } else {
            let w = self.sub_weight(name, ".weight", &[in_features, out_features]);
            let y = self.sub_push(name, "/MatMul", OpKind::MatMul, Attributes::new(), &[x, w]);
            if bias {
                let b = self.sub_weight(name, ".bias", &[out_features]);
                self.sub_push(name, "/Add", OpKind::Add, Attributes::new(), &[y, b])
            } else {
                y
            }
        }
    }

    pub fn matmul(&mut self, name: &str, a: TensorId, b: TensorId) -> TensorId {
        self.push(name, OpKind::MatMul, Attributes::new(), &[a, b])
    }

    pub fn add(&mut self, name: &str, a: TensorId, b: TensorId) -> TensorId {
        self.push(name, OpKind::Add, Attributes::new(), &[a, b])
    }

    pub fn mul(&mut self, name: &str, a: TensorId, b: TensorId) -> TensorId {
        self.push(name, OpKind::Mul, Attributes::new(), &[a, b])
    }

    pub fn softmax(&mut self, name: &str, x: TensorId, axis: i64) -> TensorId {
        self.push(
            name,
            OpKind::Softmax,
            Attributes::new().with_int("axis", axis),
            &[x],
        )
    }

    pub fn transpose(&mut self, name: &str, x: TensorId, perm: &[i64]) -> TensorId {
        self.push(
            name,
            OpKind::Transpose,
            Attributes::new().with_ints("perm", perm),
            &[x],
        )
    }

    pub fn reshape(&mut self, name: &str, x: TensorId, shape: &[i64]) -> TensorId {
        self.push(
            name,
            OpKind::Reshape,
            Attributes::new().with_ints("shape", shape),
            &[x],
        )
    }

    pub fn flatten(&mut self, name: &str, x: TensorId, axis: i64) -> TensorId {
        self.push(
            name,
            OpKind::Flatten,
            Attributes::new().with_int("axis", axis),
            &[x],
        )
    }

    pub fn concat(&mut self, name: &str, xs: &[TensorId], axis: i64) -> TensorId {
        self.push(
            name,
            OpKind::Concat,
            Attributes::new().with_int("axis", axis),
            xs,
        )
    }

    pub fn split2(&mut self, name: &str, x: TensorId, axis: i64) -> (TensorId, TensorId) {
        let outs = self.push_multi(
            name,
            OpKind::Split,
            Attributes::new()
                .with_int("axis", axis)
                .with_int("num_outputs", 2),
            &[x],
        );
        (outs[0], outs[1])
    }

    pub fn maxpool(
        &mut self,
        name: &str,
        x: TensorId,
        kernel: u64,
        stride: u64,
        pad: u64,
    ) -> TensorId {
        self.push(
            name,
            OpKind::MaxPool,
            Attributes::new()
                .with_ints("kernel_shape", &[kernel as i64, kernel as i64])
                .with_ints("strides", &[stride as i64, stride as i64])
                .with_ints("pads", &[pad as i64; 4]),
            &[x],
        )
    }

    pub fn avgpool(
        &mut self,
        name: &str,
        x: TensorId,
        kernel: u64,
        stride: u64,
        pad: u64,
    ) -> TensorId {
        self.push(
            name,
            OpKind::AveragePool,
            Attributes::new()
                .with_ints("kernel_shape", &[kernel as i64, kernel as i64])
                .with_ints("strides", &[stride as i64, stride as i64])
                .with_ints("pads", &[pad as i64; 4]),
            &[x],
        )
    }

    pub fn global_avg_pool(&mut self, name: &str, x: TensorId) -> TensorId {
        self.push(name, OpKind::GlobalAveragePool, Attributes::new(), &[x])
    }

    pub fn gather(&mut self, name: &str, data: TensorId, indices: TensorId, axis: i64) -> TensorId {
        self.push(
            name,
            OpKind::Gather,
            Attributes::new().with_int("axis", axis),
            &[data, indices],
        )
    }

    pub fn slice(
        &mut self,
        name: &str,
        x: TensorId,
        starts: &[i64],
        ends: &[i64],
        axes: &[i64],
    ) -> TensorId {
        self.push(
            name,
            OpKind::Slice,
            Attributes::new()
                .with_ints("starts", starts)
                .with_ints("ends", ends)
                .with_ints("axes", axes),
            &[x],
        )
    }

    pub fn resize2x(&mut self, name: &str, x: TensorId) -> TensorId {
        let r = self.shape(x).rank();
        let mut scales = vec![1.0f64; r];
        scales[r - 1] = 2.0;
        scales[r - 2] = 2.0;
        self.push(
            name,
            OpKind::Resize,
            Attributes::new()
                .with("scales", AttrValue::Floats(scales))
                .with_str("mode", "nearest"),
            &[x],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_helper_creates_weights_and_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3, 32, 32], DType::F32);
        let y = b.conv("c", x, 8, 3, 2, 1, 1, true);
        assert_eq!(b.shape(y), &Shape::new(&[2, 8, 16, 16]));
        b.output(y);
        let g = b.finish();
        assert_eq!(g.param_count(), 8 * 3 * 3 * 3 + 8);
    }

    #[test]
    fn silu_emits_two_nodes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4], DType::F32);
        let y = b.silu("act", x);
        b.output(y);
        let g = b.finish();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.nodes[0].op, OpKind::Sigmoid);
        assert_eq!(g.nodes[1].op, OpKind::Mul);
    }

    #[test]
    fn gelu_emits_five_nodes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4], DType::F32);
        let y = b.gelu("act", x);
        b.output(y);
        let g = b.finish();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.tensor(y).shape, Shape::new(&[1, 4]));
    }

    #[test]
    fn layer_norm_decomposed_is_nine_nodes_shape_preserving() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4, 197, 192], DType::F32);
        let y = b.layer_norm_decomposed("ln", x);
        b.output(y);
        let g = b.finish();
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.tensor(y).shape, Shape::new(&[4, 197, 192]));
    }

    #[test]
    fn linear_uses_gemm_for_2d_and_matmul_for_3d() {
        let mut b = GraphBuilder::new("t");
        let x2 = b.input("x2", &[8, 64], DType::F32);
        let y2 = b.linear("fc2", x2, 10, true);
        let x3 = b.input("x3", &[2, 5, 64], DType::F32);
        let y3 = b.linear("fc3", x3, 10, true);
        b.output(y2);
        b.output(y3);
        let g = b.finish();
        assert_eq!(g.nodes[0].op, OpKind::Gemm);
        assert_eq!(g.nodes[1].op, OpKind::MatMul);
        assert_eq!(g.nodes[2].op, OpKind::Add);
        assert_eq!(g.tensor(y3).shape, Shape::new(&[2, 5, 10]));
    }

    #[test]
    fn name_collisions_are_auto_suffixed() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4], DType::F32);
        let a = b.relu("r", x);
        let c = b.relu("r", a);
        b.output(c);
        let g = b.finish();
        assert_eq!(g.nodes[0].name, "r");
        assert_eq!(g.nodes[1].name, "r_1");
        g.validate().unwrap();
    }

    fn node_names(g: &Graph) -> Vec<&str> {
        g.nodes.iter().map(|n| n.name.as_str()).collect()
    }

    fn tensor_names(g: &Graph) -> Vec<&str> {
        g.tensors.iter().map(|t| t.name.as_str()).collect()
    }

    #[test]
    fn repeated_node_names_count_up_from_one() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4], DType::F32);
        let r0 = b.relu("r", x);
        let r1 = b.relu("r", r0);
        let r2 = b.relu("r", r1);
        b.output(r2);
        let g = b.finish();
        assert_eq!(node_names(&g), ["r", "r_1", "r_2"]);
        assert_eq!(tensor_names(&g), ["x", "r:0", "r_1:0", "r_2:0"]);
    }

    #[test]
    fn nodes_and_tensors_share_one_namespace() {
        // An input named like a node's first output suffixes that output.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x:0", &[1, 4], DType::F32);
        let y = b.relu("x", x);
        b.output(y);
        let g = b.finish();
        assert_eq!(node_names(&g), ["x"]);
        assert_eq!(tensor_names(&g), ["x:0", "x:0_1"]);

        // A weight named like a later node suffixes the node, and the
        // node's outputs derive from the suffixed name.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 4], DType::F32);
        let w = b.weight("fc", &[4, 3]);
        let y = b.matmul("fc", x, w);
        b.output(y);
        let g = b.finish();
        assert_eq!(node_names(&g), ["fc_1"]);
        assert_eq!(tensor_names(&g), ["x", "fc", "fc_1:0"]);

        // A node named like an earlier output is suffixed too.
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4], DType::F32);
        let a = b.relu("y", x);
        let c = b.relu("y:0", a);
        b.output(c);
        let g = b.finish();
        assert_eq!(node_names(&g), ["y", "y:0_1"]);
        assert_eq!(tensor_names(&g), ["x", "y:0", "y:0_1:0"]);
    }

    #[test]
    fn suffixes_skip_names_already_taken() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("r_1", &[1, 4], DType::F32);
        let a = b.relu("r", x);
        let c = b.relu("r", a);
        let d = b.relu("r_2", c);
        b.output(d);
        let g = b.finish();
        assert_eq!(node_names(&g), ["r", "r_2", "r_2_1"]);
        assert_eq!(tensor_names(&g), ["r_1", "r:0", "r_2:0", "r_2_1:0"]);
    }

    #[test]
    fn hash_collisions_never_rename() {
        // Every name hashes alike, so each claim is decided by comparing
        // names alone: free names stay as given, taken ones are suffixed.
        let mut b = GraphBuilder::new("t");
        b.names.hash = |_| 7;
        let x = b.input("x", &[1, 4], DType::F32);
        let w = b.weight("w", &[4]);
        let a = b.add("r", x, w);
        let c = b.relu("r", a);
        let d = b.relu("x:0", c);
        b.output(d);
        // All but the first name took the exact-comparison path.
        assert_eq!(b.names.collided.len(), 7);
        let g = b.finish();
        assert_eq!(node_names(&g), ["r", "r_1", "x:0"]);
        assert_eq!(tensor_names(&g), ["x", "w", "r:0", "r_1:0", "x:0:0"]);
    }

    #[test]
    fn multi_output_names_count_outputs() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 4, 2, 2], DType::F32);
        let (l, r) = b.split2("s", x, 1);
        let y = b.add("s", l, r);
        b.output(y);
        let g = b.finish();
        assert_eq!(node_names(&g), ["s", "s_1"]);
        assert_eq!(tensor_names(&g), ["x", "s:0", "s:1", "s_1:0"]);
    }

    #[test]
    fn helper_sub_names_derive_from_the_given_name() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3, 8], DType::F32);
        let y = b.linear("fc", x, 4, true);
        let y = b.gelu("act", y);
        b.output(y);
        let g = b.finish();
        assert_eq!(
            node_names(&g),
            [
                "fc/MatMul",
                "fc/Add",
                "act/Div",
                "act/Erf",
                "act/Add",
                "act/Mul",
                "act/Mul_1"
            ]
        );
        assert_eq!(
            tensor_names(&g),
            [
                "x",
                "fc.weight",
                "fc/MatMul:0",
                "fc.bias",
                "fc/Add:0",
                "act/sqrt2",
                "act/one",
                "act/half",
                "act/Div:0",
                "act/Erf:0",
                "act/Add:0",
                "act/Mul:0",
                "act/Mul_1:0"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "while building node bad")]
    fn push_panics_with_context_on_bad_shapes() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 3], DType::F32);
        let y = b.input("y", &[4, 5], DType::F32);
        b.push("bad", OpKind::MatMul, Attributes::new(), &[x, y]);
    }
}
