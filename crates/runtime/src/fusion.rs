//! Graph optimization: operator fusion as DNN runtimes perform it.
//!
//! Backends differ in aggressiveness ([`FusionPolicy`] presets): the
//! TensorRT-like backend fuses conv/gemm epilogues, LayerNorm and GELU
//! decompositions, elementwise chains, and whole attention regions (its
//! *Myelin* analogue); the ONNX-Runtime-like backend fuses epilogues and
//! norm/GELU patterns; the OpenVINO-like backend fuses conv epilogues only.

use proof_ir::{Graph, GraphIndex, NodeId, OpKind, TensorId, TensorKind};

/// What a fused group lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupKind {
    /// Convolution plus fused epilogue.
    ConvBlock,
    /// Gemm/MatMul plus fused epilogue.
    GemmBlock,
    /// Opaque fused attention region (the Myelin analogue).
    AttentionRegion,
    /// A recognized LayerNorm decomposition collapsed to one kernel.
    LayerNormFused,
    /// A chain of pointwise ops executed as one kernel.
    ElementwiseChain,
    /// A single un-fused operator.
    Single,
    /// View/metadata nodes that produce no kernel at all.
    Eliminated,
}

/// One backend layer before lowering: the original nodes it executes.
#[derive(Debug, Clone, PartialEq)]
pub struct RtGroup {
    pub members: Vec<NodeId>,
    pub kind: GroupKind,
}

impl RtGroup {
    /// The "primary" node: the contraction if present, else the first
    /// non-metadata member, else the first member. Backends name layers
    /// after it.
    pub fn primary(&self, g: &Graph) -> NodeId {
        self.members
            .iter()
            .copied()
            .find(|&m| matches!(g.node(m).op, OpKind::Conv | OpKind::Gemm | OpKind::MatMul))
            .or_else(|| {
                self.members
                    .iter()
                    .copied()
                    .find(|&m| !g.node(m).op.is_noop_at_inference())
            })
            .unwrap_or(self.members[0])
    }
}

/// Which fusions a backend performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionPolicy {
    pub fuse_conv_epilogue: bool,
    /// Absorb a single-consumer pointwise *producer* into a following conv
    /// (TensorRT's pointwise-prologue fusion — catches the SE-block `Mul`).
    pub fuse_conv_prologue: bool,
    pub fuse_gemm_epilogue: bool,
    pub fuse_layernorm: bool,
    pub fuse_gelu: bool,
    pub fuse_attention_region: bool,
    pub fuse_elementwise_chains: bool,
    pub eliminate_noops: bool,
}

impl FusionPolicy {
    /// TensorRT-like: everything on.
    pub fn trt() -> Self {
        FusionPolicy {
            fuse_conv_epilogue: true,
            fuse_conv_prologue: true,
            fuse_gemm_epilogue: true,
            fuse_layernorm: true,
            fuse_gelu: true,
            fuse_attention_region: true,
            fuse_elementwise_chains: true,
            eliminate_noops: true,
        }
    }

    /// ONNX-Runtime-like: epilogues + patterns, no opaque regions.
    pub fn ort() -> Self {
        FusionPolicy {
            fuse_conv_prologue: false,
            fuse_conv_epilogue: true,
            fuse_gemm_epilogue: true,
            fuse_layernorm: true,
            fuse_gelu: true,
            fuse_attention_region: false,
            fuse_elementwise_chains: false,
            eliminate_noops: true,
        }
    }

    /// OpenVINO-like: conv epilogues only.
    pub fn ov() -> Self {
        FusionPolicy {
            fuse_conv_prologue: false,
            fuse_conv_epilogue: true,
            fuse_gemm_epilogue: true,
            fuse_layernorm: false,
            fuse_gelu: false,
            fuse_attention_region: false,
            fuse_elementwise_chains: false,
            eliminate_noops: true,
        }
    }

    /// No fusion at all (the ablation baseline).
    pub fn none() -> Self {
        FusionPolicy {
            fuse_conv_prologue: false,
            fuse_conv_epilogue: false,
            fuse_gemm_epilogue: false,
            fuse_layernorm: false,
            fuse_gelu: false,
            fuse_attention_region: false,
            fuse_elementwise_chains: false,
            eliminate_noops: true,
        }
    }
}

struct Fuser<'a> {
    g: &'a Graph,
    ix: &'a GraphIndex<'a>,
    assigned: Vec<bool>,
}

impl<'a> Fuser<'a> {
    fn new(ix: &'a GraphIndex<'a>) -> Self {
        let g = ix.graph();
        Fuser {
            g,
            ix,
            assigned: vec![false; g.nodes.len()],
        }
    }

    fn free(&self, n: NodeId) -> bool {
        !self.assigned[n as usize]
    }

    fn claim(&mut self, members: &[NodeId]) {
        for &m in members {
            debug_assert!(!self.assigned[m as usize]);
            self.assigned[m as usize] = true;
        }
    }

    fn is_weight(&self, t: TensorId) -> bool {
        self.g.tensor(t).kind == TensorKind::Weight
    }

    /// Match the 5-node exported-GELU chain starting at `div`:
    /// `Div(x, c) → Erf → Add(·, c) → Mul(x, ·) → Mul(·, c)`.
    fn match_gelu(&self, div: NodeId) -> Option<[NodeId; 5]> {
        let g = self.g;
        let dn = g.node(div);
        if dn.op != OpKind::Div || !self.is_weight(*dn.inputs.get(1)?) {
            return None;
        }
        let x = dn.inputs[0];
        let erf = self.ix.sole_consumer(dn.output())?;
        if g.node(erf).op != OpKind::Erf {
            return None;
        }
        let add = self.ix.sole_consumer(g.node(erf).output())?;
        if g.node(add).op != OpKind::Add {
            return None;
        }
        let mul1 = self.ix.sole_consumer(g.node(add).output())?;
        let m1 = g.node(mul1);
        if m1.op != OpKind::Mul || !m1.inputs.contains(&x) {
            return None;
        }
        let mul2 = self.ix.sole_consumer(m1.output())?;
        if g.node(mul2).op != OpKind::Mul {
            return None;
        }
        let all = [div, erf, add, mul1, mul2];
        all.iter().all(|&n| self.free(n)).then_some(all)
    }

    /// Match the 9-node exported-LayerNorm chain rooted at `rm`
    /// (`ReduceMean` of the input).
    fn match_layernorm(&self, rm: NodeId) -> Option<[NodeId; 9]> {
        let g = self.g;
        if g.node(rm).op != OpKind::ReduceMean {
            return None;
        }
        let x = g.node(rm).inputs[0];
        let sub = self.ix.consumers(x).iter().copied().find(|&n| {
            let nd = g.node(n);
            nd.op == OpKind::Sub && nd.inputs == [x, g.node(rm).output()]
        })?;
        // sub feeds Pow and (later) Div
        let subout = g.node(sub).output();
        let pow = self
            .ix
            .consumers(subout)
            .iter()
            .copied()
            .find(|&n| g.node(n).op == OpKind::Pow)?;
        let rm2 = self.ix.sole_consumer(g.node(pow).output())?;
        if g.node(rm2).op != OpKind::ReduceMean {
            return None;
        }
        let add_eps = self.ix.sole_consumer(g.node(rm2).output())?;
        if g.node(add_eps).op != OpKind::Add {
            return None;
        }
        let sqrt = self.ix.sole_consumer(g.node(add_eps).output())?;
        if g.node(sqrt).op != OpKind::Sqrt {
            return None;
        }
        let div = self.ix.sole_consumer(g.node(sqrt).output())?;
        let dn = g.node(div);
        if dn.op != OpKind::Div || dn.inputs[0] != subout {
            return None;
        }
        let mul = self.ix.sole_consumer(dn.output())?;
        if g.node(mul).op != OpKind::Mul {
            return None;
        }
        let add_b = self.ix.sole_consumer(g.node(mul).output())?;
        if g.node(add_b).op != OpKind::Add {
            return None;
        }
        let all = [rm, sub, pow, rm2, add_eps, sqrt, div, mul, add_b];
        all.iter().all(|&n| self.free(n)).then_some(all)
    }

    /// Collect the Myelin-style attention region around a `Softmax`:
    /// q/k/v head-split views, QKᵀ, scale/bias, softmax, AV, head-merge.
    fn match_attention_region(&self, softmax: NodeId) -> Option<Vec<NodeId>> {
        let g = self.g;
        if g.node(softmax).op != OpKind::Softmax {
            return None;
        }
        let mut members = vec![softmax];
        // upstream: Mul/Add chain down to the scores MatMul
        let mut cur = g.node(softmax).inputs[0];
        let scores = loop {
            let p = self.ix.producer(cur)?;
            match g.node(p).op {
                OpKind::Mul | OpKind::Add => {
                    members.push(p);
                    // continue along the non-weight operand
                    let nd = g.node(p);
                    cur = if self.is_weight(nd.inputs[0]) {
                        nd.inputs[1]
                    } else {
                        nd.inputs[0]
                    };
                }
                OpKind::MatMul => {
                    members.push(p);
                    break p;
                }
                _ => return None,
            }
        };
        // view chains feeding the scores MatMul (q, k head splits)
        for &inp in &g.node(scores).inputs {
            self.collect_view_chain_up(inp, &mut members);
        }
        // downstream: softmax → AV MatMul
        let av = self.ix.sole_consumer(g.node(softmax).output())?;
        if g.node(av).op != OpKind::MatMul {
            return None;
        }
        members.push(av);
        for &inp in &g.node(av).inputs {
            if self.ix.producer(inp)? == softmax {
                continue;
            }
            self.collect_view_chain_up(inp, &mut members);
        }
        // head merge: forward Transpose/Reshape chain
        let mut out = g.node(av).output();
        while let Some(next) = self.ix.sole_consumer(out) {
            match g.node(next).op {
                OpKind::Transpose | OpKind::Reshape => {
                    members.push(next);
                    out = g.node(next).output();
                }
                _ => break,
            }
        }
        members.sort_unstable();
        members.dedup();
        members.iter().all(|&n| self.free(n)).then_some(members)
    }

    /// Walk producers upward through Transpose/Reshape views, collecting.
    fn collect_view_chain_up(&self, mut t: TensorId, members: &mut Vec<NodeId>) {
        while let Some(p) = self.ix.producer(t) {
            match self.g.node(p).op {
                OpKind::Transpose | OpKind::Reshape => {
                    members.push(p);
                    t = self.g.node(p).inputs[0];
                }
                _ => break,
            }
        }
    }

    /// Greedy epilogue expansion from a contraction node. Absorbs no-op
    /// views, unary activations, SiLU pairs, GELU patterns, and binary
    /// pointwise ops (bias/residual adds), following sole consumers.
    fn expand_epilogue(&self, root: NodeId, fuse_gelu: bool, limit: usize) -> Vec<NodeId> {
        let g = self.g;
        let mut members = vec![root];
        let mut cur = g.node(root).output();
        while members.len() < limit {
            let Some(next) = self.ix.sole_consumer(cur) else {
                // SiLU and GELU fork from `cur` (e.g. Mul(x, σ(x))): handle
                // the exact two-consumer diamonds before giving up
                let cs = self.ix.consumers(cur);
                if cs.len() == 2 && cs.iter().all(|&c| self.free(c)) {
                    // SiLU diamond: {Sigmoid s, Mul m} with m = Mul(cur, s)
                    let silu = cs.iter().copied().find_map(|s| {
                        let sn = g.node(s);
                        if sn.op != OpKind::Sigmoid {
                            return None;
                        }
                        let m = self.ix.sole_consumer(sn.output())?;
                        (cs.contains(&m)
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
                    // GELU diamond: {Div d, Mul m} where d roots the pattern
                    // and the pattern's Mul(x, ·) is m
                    if fuse_gelu {
                        let gelu = cs
                            .iter()
                            .copied()
                            .find_map(|d| self.match_gelu(d).filter(|p| cs.contains(&p[3])));
                        if let Some(p) = gelu {
                            members.extend_from_slice(&p);
                            cur = g.node(p[4]).output();
                            continue;
                        }
                    }
                }
                break;
            };
            if !self.free(next) {
                break;
            }
            let nd = g.node(next);
            let absorbed = match nd.op {
                _ if nd.op.is_noop_at_inference() => {
                    members.push(next);
                    true
                }
                OpKind::Sigmoid => {
                    // SiLU: Sigmoid + Mul(x, σ(x))
                    match self.ix.sole_consumer(nd.output()) {
                        Some(mul)
                            if self.free(mul)
                                && g.node(mul).op == OpKind::Mul
                                && g.node(mul).inputs.contains(&cur) =>
                        {
                            members.push(next);
                            members.push(mul);
                            cur = g.node(mul).output();
                            continue;
                        }
                        _ => false,
                    }
                }
                OpKind::Div if fuse_gelu => match self.match_gelu(next) {
                    Some(gelu) => {
                        members.extend_from_slice(&gelu);
                        cur = g.node(gelu[4]).output();
                        continue;
                    }
                    None => false,
                },
                _ if nd.op.is_unary_elementwise() => {
                    members.push(next);
                    true
                }
                OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
                    // bias or residual: the other operand must already exist
                    // (always true in topo order) and not itself be fused away
                    members.push(next);
                    true
                }
                _ => false,
            };
            if !absorbed {
                break;
            }
            cur = g.node(*members.last().unwrap()).output();
        }
        members
    }
}

/// Run fusion under a policy over an indexed graph. Returns groups covering
/// **every** node exactly once, ordered topologically by first member.
pub fn fuse(ix: &GraphIndex, policy: &FusionPolicy) -> Vec<RtGroup> {
    let g = ix.graph();
    let mut f = Fuser::new(ix);
    let mut groups: Vec<RtGroup> = Vec::new();

    // 1. opaque attention regions (most specific first)
    if policy.fuse_attention_region {
        for (id, n) in g.iter_nodes() {
            if n.op == OpKind::Softmax && f.free(id) {
                if let Some(members) = f.match_attention_region(id) {
                    f.claim(&members);
                    groups.push(RtGroup {
                        members,
                        kind: GroupKind::AttentionRegion,
                    });
                }
            }
        }
    }

    // 2. LayerNorm decompositions
    if policy.fuse_layernorm {
        for (id, n) in g.iter_nodes() {
            if n.op == OpKind::ReduceMean && f.free(id) {
                if let Some(members) = f.match_layernorm(id) {
                    f.claim(&members);
                    groups.push(RtGroup {
                        members: members.to_vec(),
                        kind: GroupKind::LayerNormFused,
                    });
                }
            }
        }
    }

    // 3. conv / gemm epilogues
    for (id, n) in g.iter_nodes() {
        if !f.free(id) {
            continue;
        }
        let (is_conv, is_gemm) = (
            n.op == OpKind::Conv,
            matches!(n.op, OpKind::Gemm | OpKind::MatMul),
        );
        if (is_conv && policy.fuse_conv_epilogue) || (is_gemm && policy.fuse_gemm_epilogue) {
            let mut members = f.expand_epilogue(id, policy.fuse_gelu, 12);
            if is_conv && policy.fuse_conv_prologue {
                // absorb a chain of free, single-consumer elementwise
                // producers feeding the conv's data input
                let mut cur = g.node(id).inputs[0];
                for _ in 0..3 {
                    let Some(p) = f.ix.producer(cur) else {
                        break;
                    };
                    let pn = g.node(p);
                    // the producer must be free, pointwise, and feed only us
                    if !f.free(p)
                        || !pn.op.is_elementwise()
                        || f.ix.sole_consumer(pn.output()).is_none()
                    {
                        break;
                    }
                    members.push(p);
                    cur = pn.inputs[0];
                }
                members.sort_unstable();
            }
            f.claim(&members);
            groups.push(RtGroup {
                members,
                kind: if is_conv {
                    GroupKind::ConvBlock
                } else {
                    GroupKind::GemmBlock
                },
            });
        } else if is_conv || is_gemm {
            f.claim(&[id]);
            groups.push(RtGroup {
                members: vec![id],
                kind: GroupKind::Single,
            });
        }
    }

    // 4. standalone GELU patterns (transformers without gemm fusion)
    if policy.fuse_gelu {
        for (id, n) in g.iter_nodes() {
            if n.op == OpKind::Div && f.free(id) {
                if let Some(members) = f.match_gelu(id) {
                    f.claim(&members);
                    groups.push(RtGroup {
                        members: members.to_vec(),
                        kind: GroupKind::ElementwiseChain,
                    });
                }
            }
        }
    }

    // 5. elementwise chains
    if policy.fuse_elementwise_chains {
        for (id, n) in g.iter_nodes() {
            if !f.free(id) || !n.op.is_elementwise() {
                continue;
            }
            let mut members = vec![id];
            let mut cur = n.output();
            while let Some(next) = f.ix.sole_consumer(cur) {
                if !f.free(next) || !g.node(next).op.is_elementwise() || members.len() >= 8 {
                    break;
                }
                members.push(next);
                cur = g.node(next).output();
            }
            f.claim(&members);
            let kind = if members.len() > 1 {
                GroupKind::ElementwiseChain
            } else {
                GroupKind::Single
            };
            groups.push(RtGroup { members, kind });
        }
    }

    // 6. leftovers: no-ops become zero-kernel groups, others singletons
    for (id, n) in g.iter_nodes() {
        if !f.free(id) {
            continue;
        }
        f.claim(&[id]);
        let kind = if policy.eliminate_noops && n.op.is_noop_at_inference() {
            GroupKind::Eliminated
        } else {
            GroupKind::Single
        };
        groups.push(RtGroup {
            members: vec![id],
            kind,
        });
    }

    groups.sort_by_key(|grp| grp.members[0]);
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_ir::{DType, GraphBuilder};

    fn coverage_ok(g: &Graph, groups: &[RtGroup]) {
        let mut seen = vec![false; g.nodes.len()];
        for grp in groups {
            for &m in &grp.members {
                assert!(!seen[m as usize], "node {m} in two groups");
                seen[m as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "uncovered nodes");
    }

    #[test]
    fn conv_bn_relu_add_fuses_into_one_block() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 8, 16, 16], DType::F32);
        let c = b.conv("conv", x, 8, 3, 1, 1, 1, true);
        let r = b.relu("relu", c);
        let a = b.add("res", r, x);
        let r2 = b.relu("relu2", a);
        b.output(r2);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::trt());
        coverage_ok(&g, &groups);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].kind, GroupKind::ConvBlock);
        assert_eq!(groups[0].members.len(), 4);
    }

    #[test]
    fn silu_pair_is_absorbed_into_conv() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 8, 16, 16], DType::F32);
        let c = b.conv("conv", x, 8, 3, 1, 1, 1, true);
        let s = b.silu("act", c);
        b.output(s);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::trt());
        coverage_ok(&g, &groups);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 3);
    }

    #[test]
    fn layernorm_pattern_collapses_to_one_group() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 16, 64], DType::F32);
        let y = b.layer_norm_decomposed("ln", x);
        b.output(y);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::trt());
        coverage_ok(&g, &groups);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].kind, GroupKind::LayerNormFused);
        assert_eq!(groups[0].members.len(), 9);
    }

    #[test]
    fn gelu_fuses_into_preceding_linear() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 16, 64], DType::F32);
        let h = b.linear("fc", x, 256, true);
        let a = b.gelu("gelu", h);
        b.output(a);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::ort());
        coverage_ok(&g, &groups);
        // MatMul + Add(bias) + 5-node gelu = 7 members, one group
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members.len(), 7);
        assert_eq!(groups[0].kind, GroupKind::GemmBlock);
    }

    #[test]
    fn attention_region_is_detected_in_vit_block() {
        let g = proof_models::vit::vit(1, proof_models::vit::ViTSize::Tiny);
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::trt());
        coverage_ok(&g, &groups);
        let regions: Vec<_> = groups
            .iter()
            .filter(|grp| grp.kind == GroupKind::AttentionRegion)
            .collect();
        assert_eq!(regions.len(), 12, "one region per transformer block");
        // each region holds both attention matmuls + softmax + views
        for r in regions {
            assert!(r.members.len() >= 10, "{} members", r.members.len());
        }
    }

    #[test]
    fn ov_policy_keeps_patterns_unfused() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 16, 64], DType::F32);
        let y = b.layer_norm_decomposed("ln", x);
        b.output(y);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::ov());
        coverage_ok(&g, &groups);
        assert_eq!(groups.len(), 9);
    }

    #[test]
    fn noops_are_eliminated_not_lost() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4, 64], DType::F32);
        let r = b.reshape("rs", x, &[8, 32]);
        let y = b.relu("relu", r);
        b.output(y);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::none());
        coverage_ok(&g, &groups);
        let kinds: Vec<_> = groups.iter().map(|grp| grp.kind).collect();
        assert!(kinds.contains(&GroupKind::Eliminated));
    }

    #[test]
    fn every_zoo_cnn_is_fully_covered_under_all_policies() {
        for model in [
            proof_models::resnet::resnet50(1),
            proof_models::mobilenet::v2(1, 1.0),
            proof_models::shufflenet::v2(1, proof_models::shufflenet::Width::X10),
        ] {
            for policy in [
                FusionPolicy::trt(),
                FusionPolicy::ort(),
                FusionPolicy::ov(),
                FusionPolicy::none(),
            ] {
                coverage_ok(&model, &fuse(&GraphIndex::new(&model), &policy));
            }
        }
    }

    #[test]
    fn primary_prefers_contraction() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 8, 16, 16], DType::F32);
        let c = b.conv("conv", x, 8, 3, 1, 1, 1, true);
        let r = b.relu("relu", c);
        b.output(r);
        let g = b.finish();
        let groups = fuse(&GraphIndex::new(&g), &FusionPolicy::trt());
        assert_eq!(g.node(groups[0].primary(&g)).name, "conv");
    }
}
