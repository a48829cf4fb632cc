//! Kernel lowering: backend layers → executable kernels with an
//! implementation-aware cost (*Hardware FLOP* and DRAM traffic).
//!
//! The cost rules here intentionally differ from PRoof's analytical model
//! the way real hardware differs from Model FLOP (paper §4.2): Tensor-Core
//! tile padding, depthwise-convolution predication/halo overhead, fused
//! pointwise kernels whose transcendentals execute as single SFU
//! instructions, and transpose kernels whose uncoalesced accesses move more
//! DRAM traffic than the tensor size.

use crate::fusion::{GroupKind, RtGroup};
use proof_hw::{HwFamily, Platform};
use proof_ir::{DType, Graph, GraphIndex, NodeId, OpCategory, OpKind, TensorId, TensorKind};

/// Kernel classes, driving both cost inflation and execution efficiency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    DenseConv,
    DepthwiseConv,
    Gemm,
    AttentionFused,
    Normalization,
    Elementwise,
    Reduction,
    Pooling,
    Transpose,
    DataCopy,
    Reorder,
}

impl KernelClass {
    /// Whether this class runs on the matrix engine when one exists.
    pub fn uses_matrix_engine(self) -> bool {
        matches!(
            self,
            KernelClass::DenseConv | KernelClass::Gemm | KernelClass::AttentionFused
        )
    }
}

/// Hardware-truth cost of one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelCost {
    /// FLOPs the hardware actually executes (padding etc. included).
    pub hw_flops: u64,
    pub dram_read_bytes: u64,
    pub dram_write_bytes: u64,
    /// Executed on Tensor Cores / MAC array.
    pub tensor_core: bool,
    /// HMMA/IMMA instruction count (for the simulated NCU's FLOP counter).
    pub mma_instrs: u64,
}

impl KernelCost {
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// One lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    pub class: KernelClass,
    pub cost: KernelCost,
    /// Output element count (occupancy/wave-quantization input).
    pub out_elems: u64,
}

/// FLOPs one MMA instruction performs, per architecture (HMMA fp16 path).
/// NCU's bug is to assume 512 everywhere (only right on Volta) — paper §4.2.
pub fn mma_flops_per_instr(arch: proof_hw::GpuArch, dtype: DType) -> u64 {
    use proof_hw::GpuArch::*;
    let fp16 = match arch {
        Volta => 512,         // HMMA.884.F32
        Turing => 2048,       // HMMA.16816 (half rate)
        Ampere | Ada => 4096, // HMMA.16816
        NonNvidia => 0,
    };
    if fp16 == 0 {
        return 0;
    }
    match dtype {
        DType::I8 | DType::U8 => fp16 * 2, // IMMA double rate
        _ => fp16,
    }
}

fn pad_to(v: u64, m: u64) -> u64 {
    v.div_ceil(m) * m
}

/// Lowers fused groups to kernels for one platform/precision.
pub struct Lowerer<'a> {
    g: &'a Graph,
    ix: &'a GraphIndex<'a>,
    platform: &'a Platform,
    precision: DType,
}

/// A group's members sorted by id, for membership tests by binary search
/// (fusion lists members in match order, which names and sums follow).
fn sorted_members(grp: &RtGroup) -> Vec<NodeId> {
    let mut members = grp.members.clone();
    members.sort_unstable();
    members
}

impl<'a> Lowerer<'a> {
    pub fn new(ix: &'a GraphIndex<'a>, platform: &'a Platform, precision: DType) -> Self {
        Lowerer {
            g: ix.graph(),
            ix,
            platform,
            precision,
        }
    }

    /// Whether `t` is produced by one of the (sorted) `members`.
    fn produced_inside(&self, t: TensorId, members: &[NodeId]) -> bool {
        self.ix
            .producer(t)
            .is_some_and(|p| members.binary_search(&p).is_ok())
    }

    /// Whether `t` has consumers and all of them are (sorted) `members`.
    fn consumed_inside(&self, t: TensorId, members: &[NodeId]) -> bool {
        let cs = self.ix.consumers(t);
        !cs.is_empty() && cs.iter().all(|c| members.binary_search(c).is_ok())
    }

    fn bytes(&self, t: TensorId) -> u64 {
        self.g.tensor(t).size_bytes_at(self.precision)
    }

    /// The dtype a kernel class actually runs at: int8 engines quantize
    /// contractions but keep normalization/softmax/data-movement layers in
    /// fp16 (mixed-precision engine building, as TensorRT does).
    fn class_precision(&self, class: KernelClass) -> DType {
        if self.precision == DType::I8 || self.precision == DType::U8 {
            match class {
                KernelClass::DenseConv
                | KernelClass::DepthwiseConv
                | KernelClass::Gemm
                | KernelClass::AttentionFused => self.precision,
                _ => DType::F16,
            }
        } else {
            self.precision
        }
    }

    /// Boundary activation tensors of a group (inputs consumed from outside,
    /// outputs visible outside) — what the runtime reports as layer io.
    pub fn group_io(&self, grp: &RtGroup) -> (Vec<TensorId>, Vec<TensorId>) {
        self.ix.group_io(&grp.members, &sorted_members(grp))
    }

    /// Boundary activations in/out + member weight bytes for a group.
    fn group_traffic(&self, grp: &RtGroup) -> (u64, u64, u64) {
        let members = sorted_members(grp);
        let (mut inb, mut wb, mut outb) = (0u64, 0u64, 0u64);
        let mut seen_in: Vec<TensorId> = Vec::new();
        for &m in &grp.members {
            let node = self.g.node(m);
            if node.op.is_noop_at_inference() && node.op != OpKind::Dropout {
                // views move nothing even at hardware level
                if node.op != OpKind::Reshape && node.op != OpKind::Flatten {
                    continue;
                }
            }
            for &t in &node.inputs {
                if self.g.tensor(t).kind == TensorKind::Weight {
                    wb += self.bytes(t);
                    continue;
                }
                if !self.produced_inside(t, &members) && !seen_in.contains(&t) {
                    seen_in.push(t);
                    inb += self.bytes(t);
                }
            }
            for &t in &node.outputs {
                if !self.consumed_inside(t, &members) || self.g.outputs.contains(&t) {
                    outb += self.bytes(t);
                }
            }
        }
        (inb, wb, outb)
    }

    /// Classify a group.
    pub fn classify(&self, grp: &RtGroup) -> Option<KernelClass> {
        Some(match grp.kind {
            GroupKind::Eliminated => return None,
            GroupKind::ConvBlock => {
                let conv = self.g.node(grp.primary(self.g));
                if conv.attrs.int_or("group", 1) > 4 {
                    KernelClass::DepthwiseConv
                } else {
                    KernelClass::DenseConv
                }
            }
            GroupKind::GemmBlock => KernelClass::Gemm,
            GroupKind::AttentionRegion => KernelClass::AttentionFused,
            GroupKind::LayerNormFused => KernelClass::Normalization,
            GroupKind::ElementwiseChain => KernelClass::Elementwise,
            GroupKind::Single => {
                let node = self.g.node(grp.members[0]);
                match node.op {
                    OpKind::Conv if node.attrs.int_or("group", 1) > 4 => KernelClass::DepthwiseConv,
                    OpKind::Conv => KernelClass::DenseConv,
                    OpKind::Gemm | OpKind::MatMul => KernelClass::Gemm,
                    OpKind::Transpose => KernelClass::Transpose,
                    op if op.is_noop_at_inference() => return None,
                    op => match op.category() {
                        OpCategory::Normalization => KernelClass::Normalization,
                        OpCategory::Reduction => KernelClass::Reduction,
                        OpCategory::Pooling => KernelClass::Pooling,
                        OpCategory::DataMovement => KernelClass::DataCopy,
                        _ => KernelClass::Elementwise,
                    },
                }
            }
        })
    }

    /// Hardware FLOPs of the contraction members, tile-padding included.
    fn contraction_hw_flops(&self, grp: &RtGroup) -> u64 {
        let chan_align: u64 = match self.precision {
            DType::I8 | DType::U8 => 16,
            _ => 8,
        };
        let mut total = 0u64;
        for &m in &grp.members {
            let node = self.g.node(m);
            match node.op {
                OpKind::Conv => {
                    let out = &self.g.tensor(node.output()).shape;
                    let w = &self.g.tensor(node.inputs[1]).shape;
                    let groups = node.attrs.int_or("group", 1) as u64;
                    let (cout, cin_g) = (w.dims()[0], w.dims()[1]);
                    let k: u64 = w.dims()[2..].iter().product();
                    let spatial: u64 = out.numel() / cout.max(1);
                    if groups > 4 {
                        // depthwise: vector-unit path with halo/predication
                        // redundancy — the big Hardware-FLOP inflation the
                        // paper observed on MobileNet (−24 % model vs NCU)
                        total += out.numel() * cin_g * k * 2 * 5;
                    } else {
                        // implicit-gemm tiles pad both channel extents;
                        // first-layer kernels (RGB input) pad only to 4.
                        // On matrix engines the output-channel extent is
                        // tiled at 32 — narrow mobile-CNN layers execute a
                        // large share of padded MMAs, the dominant cause of
                        // the Hardware-vs-Model FLOP gap the paper measured
                        // on MobileNetV2 (−24 %) and EfficientNetV2-S (−20 %)
                        let cin_pad = if cin_g < chan_align {
                            pad_to(cin_g, 4)
                        } else {
                            pad_to(cin_g, chan_align)
                        };
                        let cout_tile = if self.platform.compute.has_matrix_engine(self.precision) {
                            32
                        } else {
                            chan_align
                        };
                        let base = (spatial * pad_to(cout, cout_tile) * cin_pad * k * 2) as f64;
                        total += (base * 1.02) as u64;
                    }
                }
                OpKind::MatMul | OpKind::Gemm => {
                    let out = &self.g.tensor(node.output()).shape;
                    let r = out.rank();
                    let n = out.dims()[r - 1];
                    let m_ = out.dims()[r - 2];
                    let batch: u64 = out.dims()[..r - 2].iter().product();
                    let a = &self.g.tensor(node.inputs[0]).shape;
                    let k = if node.op == OpKind::Gemm && node.attrs.int_or("transA", 0) != 0 {
                        a.dims()[0]
                    } else {
                        *a.dims().last().unwrap()
                    };
                    total += 2 * batch * pad_to(m_, 8) * pad_to(n, 8) * pad_to(k, 8);
                }
                _ => {}
            }
        }
        total
    }

    /// Lower one group to (usually) a single kernel.
    pub fn lower_group(&self, grp: &RtGroup, index: usize) -> Option<Kernel> {
        let class = self.classify(grp)?;
        let (mut inb, mut wb, mut outb) = self.group_traffic(grp);
        // mixed precision: rescale traffic when this class stays in fp16
        let eff = self.class_precision(class);
        if eff != self.precision {
            let scale = eff.size_bytes() as f64 / self.precision.size_bytes() as f64;
            inb = (inb as f64 * scale) as u64;
            wb = (wb as f64 * scale) as u64;
            outb = (outb as f64 * scale) as u64;
        }
        // strided convolutions genuinely skip untouched input pixels
        if matches!(class, KernelClass::DenseConv | KernelClass::DepthwiseConv) {
            let conv = self.g.node(grp.primary(self.g));
            let kernel = conv.attrs.ints("kernel_shape").unwrap_or(&[1, 1]).to_vec();
            let strides = conv.attrs.ints("strides").unwrap_or(&[1, 1]).to_vec();
            let mut frac = 1.0f64;
            for (k, st) in kernel.iter().zip(&strides) {
                frac *= (*k as f64 / *st as f64).min(1.0);
            }
            if frac < 1.0 {
                inb = (inb as f64 * frac) as u64;
            }
        }
        let out_elems: u64 = grp
            .members
            .iter()
            .flat_map(|&m| self.g.node(m).outputs.iter())
            .map(|&t| self.g.tensor(t).numel())
            .max()
            .unwrap_or(1);
        let total_elems = out_elems.max(1);

        let hw_flops = match class {
            KernelClass::DenseConv | KernelClass::DepthwiseConv | KernelClass::Gemm => {
                // contraction + a couple of pointwise ops per output element
                self.contraction_hw_flops(grp) + total_elems * (grp.members.len() as u64).min(4)
            }
            KernelClass::AttentionFused => {
                // HMMA-visible flops only: the fused softmax/scale pointwise
                // work is not counted as FLOP by the counter path
                self.contraction_hw_flops(grp)
            }
            KernelClass::Normalization => total_elems * 3,
            KernelClass::Elementwise => total_elems * (grp.members.len() as u64).max(1),
            KernelClass::Reduction => total_elems * 2,
            KernelClass::Pooling => {
                let node = self.g.node(grp.primary(self.g));
                let k: u64 = node
                    .attrs
                    .ints("kernel_shape")
                    .map(|ks| ks.iter().map(|&x| x as u64).product())
                    .unwrap_or(1);
                total_elems * k
            }
            KernelClass::Transpose | KernelClass::DataCopy | KernelClass::Reorder => 0,
        };

        // DRAM traffic: boundary + class-dependent coalescing factor
        let (read_f, write_f) = match class {
            KernelClass::Transpose => (1.25, 1.25),
            KernelClass::DenseConv | KernelClass::DepthwiseConv => (1.03, 1.0),
            KernelClass::Gemm | KernelClass::AttentionFused => (1.02, 1.0),
            _ => (1.0, 1.0),
        };
        let tensor_core = class.uses_matrix_engine()
            && self.platform.compute.has_matrix_engine(self.precision)
            && class != KernelClass::DepthwiseConv;
        let mma = mma_flops_per_instr(self.platform.arch, self.precision);
        let cost = KernelCost {
            hw_flops,
            dram_read_bytes: ((inb + wb) as f64 * read_f) as u64,
            dram_write_bytes: (outb as f64 * write_f) as u64,
            tensor_core,
            mma_instrs: if tensor_core && mma > 0 {
                hw_flops / mma
            } else {
                0
            },
        };
        Some(Kernel {
            name: self.kernel_name(grp, class, index),
            class,
            cost,
            out_elems,
        })
    }

    /// A plausible vendor-style kernel name.
    fn kernel_name(&self, grp: &RtGroup, class: KernelClass, index: usize) -> String {
        let primary = self.g.node(grp.primary(self.g)).name.clone();
        match (self.platform.family, class) {
            (HwFamily::NvidiaGpu | HwFamily::NvidiaJetson, KernelClass::DenseConv) => {
                format!("sm80_xmma_fprop_implicit_gemm_f16f16_tn_n{index}_{primary}")
            }
            (HwFamily::NvidiaGpu | HwFamily::NvidiaJetson, KernelClass::Gemm) => {
                format!("ampere_fp16_s16816gemm_fp16_128x128_ldg8_n{index}_{primary}")
            }
            (HwFamily::NvidiaGpu | HwFamily::NvidiaJetson, KernelClass::DepthwiseConv) => {
                format!("xmma_dw_fprop_f16_n{index}_{primary}")
            }
            (HwFamily::NvidiaGpu | HwFamily::NvidiaJetson, KernelClass::AttentionFused) => {
                format!("__myelin_fused_attention_n{index}")
            }
            (HwFamily::X86Cpu, _) => format!("jit_avx512_core_{class:?}_n{index}_{primary}"),
            (HwFamily::ArmCpu, _) => format!("neon_{class:?}_n{index}_{primary}"),
            (HwFamily::IntelNpu, _) => format!("npu_dpu_{class:?}_n{index}_{primary}"),
            _ => format!("generic_{class:?}_n{index}_{primary}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::{fuse, FusionPolicy};
    use proof_hw::PlatformId;
    use proof_ir::{DType, GraphBuilder};

    fn lower_all(g: &Graph, precision: DType) -> Vec<Kernel> {
        let p = PlatformId::A100.spec();
        let ix = GraphIndex::new(g);
        let lw = Lowerer::new(&ix, &p, precision);
        fuse(&ix, &FusionPolicy::trt())
            .iter()
            .enumerate()
            .filter_map(|(i, grp)| lw.lower_group(grp, i))
            .collect()
    }

    #[test]
    fn dense_conv_uses_tensor_cores_at_fp16_only() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 64, 56, 56], DType::F32);
        let c = b.conv("conv", x, 64, 3, 1, 1, 1, true);
        b.output(c);
        let g = b.finish();
        let k16 = lower_all(&g, DType::F16);
        assert!(k16[0].cost.tensor_core);
        assert!(k16[0].cost.mma_instrs > 0);
        let k32 = lower_all(&g, DType::F32);
        assert!(!k32[0].cost.tensor_core);
        assert_eq!(k32[0].cost.mma_instrs, 0);
    }

    #[test]
    fn depthwise_conv_is_inflated_and_off_tensor_cores() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 96, 56, 56], DType::F32);
        let c = b.conv("dw", x, 96, 3, 1, 1, 96, true);
        b.output(c);
        let g = b.finish();
        let k = &lower_all(&g, DType::F16)[0];
        assert_eq!(k.class, KernelClass::DepthwiseConv);
        assert!(!k.cost.tensor_core);
        let model_flops = 2 * 96 * 56 * 56 * 9;
        assert!(
            k.cost.hw_flops > model_flops * 2,
            "hw {} vs model {}",
            k.cost.hw_flops,
            model_flops
        );
    }

    #[test]
    fn fused_group_traffic_excludes_interior_tensors() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 8, 16, 16], DType::F32);
        let c = b.conv("conv", x, 8, 3, 1, 1, 1, false);
        let r = b.relu("relu", c);
        b.output(r);
        let g = b.finish();
        let k = &lower_all(&g, DType::F16)[0];
        // read x (+3% coalescing) + weights; write relu out only
        let x_bytes = (8 * 16 * 16 * 2) as f64;
        assert!((k.cost.dram_write_bytes as f64 - x_bytes).abs() < 8.0);
        assert!(k.cost.dram_read_bytes < 2 * (x_bytes as u64 + 8 * 8 * 9 * 2));
    }

    #[test]
    fn transpose_kernel_moves_extra_traffic_without_flops() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 58, 2, 784], DType::F32);
        let t = b.transpose("tr", x, &[0, 2, 1, 3]);
        b.output(t);
        let g = b.finish();
        let k = &lower_all(&g, DType::F16)[0];
        assert_eq!(k.class, KernelClass::Transpose);
        assert_eq!(k.cost.hw_flops, 0);
        let tensor = 58 * 2 * 784 * 2u64;
        assert!(k.cost.dram_read_bytes > tensor, "uncoalesced reads");
    }

    #[test]
    fn mma_table_reproduces_the_ncu_bug_ratio() {
        use proof_hw::GpuArch::*;
        assert_eq!(mma_flops_per_instr(Volta, DType::F16), 512);
        assert_eq!(mma_flops_per_instr(Ampere, DType::F16), 4096);
        assert_eq!(mma_flops_per_instr(Ampere, DType::I8), 8192);
        assert_eq!(mma_flops_per_instr(NonNvidia, DType::F16), 0);
    }

    #[test]
    fn eliminated_groups_produce_no_kernels() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[4, 64], DType::F32);
        let r = b.reshape("rs", x, &[8, 32]);
        b.output(r);
        let g = b.finish();
        // reshape alone: eliminated, zero kernels
        assert!(lower_all(&g, DType::F16).is_empty());
    }

    #[test]
    fn attention_region_counts_only_matmul_flops() {
        let g = proof_models::vit::vit(1, proof_models::vit::ViTSize::Tiny);
        let p = PlatformId::A100.spec();
        let ix = GraphIndex::new(&g);
        let lw = Lowerer::new(&ix, &p, DType::F16);
        let groups = fuse(&ix, &FusionPolicy::trt());
        let region = groups
            .iter()
            .find(|grp| grp.kind == GroupKind::AttentionRegion)
            .unwrap();
        let k = lw.lower_group(region, 0).unwrap();
        assert_eq!(k.class, KernelClass::AttentionFused);
        // two 197×64×197-ish matmuls per head at fp16: order 10⁷–10⁸ flops
        assert!(k.cost.hw_flops > 10_000_000, "{}", k.cost.hw_flops);
        assert!(k.cost.tensor_core);
    }
}

#[cfg(test)]
mod mixed_precision_tests {
    use super::*;
    use crate::fusion::{fuse, FusionPolicy};
    use proof_hw::PlatformId;
    use proof_ir::{DType, GraphBuilder};

    #[test]
    fn int8_engines_keep_transposes_in_fp16() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 64, 2, 784], DType::F32);
        let tr = b.transpose("tr", x, &[0, 2, 1, 3]);
        let c = b.conv("conv", tr, 64, 1, 1, 0, 1, true);
        b.output(c);
        let g = b.finish();
        let p = PlatformId::A100.spec();
        let ix = GraphIndex::new(&g);
        let lw = Lowerer::new(&ix, &p, DType::I8);
        let groups = fuse(&ix, &FusionPolicy::trt());
        let kernels: Vec<Kernel> = groups
            .iter()
            .enumerate()
            .filter_map(|(i, grp)| lw.lower_group(grp, i))
            .collect();
        let transpose = kernels
            .iter()
            .find(|k| k.class == KernelClass::Transpose)
            .unwrap();
        let conv = kernels
            .iter()
            .find(|k| k.class == KernelClass::DenseConv)
            .unwrap();
        // transpose moves fp16 bytes even in an int8 engine: tensor is
        // 64·2·784 elements, written at 2 B/elem × 1.25 coalescing
        let elems = 64 * 2 * 784u64;
        assert_eq!(transpose.cost.dram_write_bytes, elems * 2 * 5 / 4);
        // the conv writes its (much larger) output at 1 B/elem
        let conv_out = 64 * 64 * 784u64;
        assert_eq!(conv.cost.dram_write_bytes, conv_out);
        assert!(conv.cost.tensor_core);
    }
}
