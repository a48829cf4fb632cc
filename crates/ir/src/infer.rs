//! Per-operator shape (and dtype) inference.
//!
//! This is the equivalent of running ONNX shape inference, which PRoof's
//! analysis representation requires: every tensor in the graph must have a
//! concrete shape before FLOP/memory prediction.

use crate::shape::broadcast_dims;
use crate::{Attributes, DType, OpKind, Shape};

/// Shape inference failure, with enough context to debug model builders.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeError(pub String);

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shape inference error: {}", self.0)
    }
}

impl std::error::Error for ShapeError {}

macro_rules! bail {
    ($($arg:tt)*) => { return Err(ShapeError(format!($($arg)*))) };
}

fn expect_inputs(
    op: OpKind,
    inputs: &[(&Shape, DType)],
    range: std::ops::RangeInclusive<usize>,
) -> Result<(), ShapeError> {
    if !range.contains(&inputs.len()) {
        bail!(
            "{op} expects {range:?} inputs, got {}: {:?}",
            inputs.len(),
            inputs
                .iter()
                .map(|(s, _)| s.to_string())
                .collect::<Vec<_>>()
        );
    }
    Ok(())
}

/// Conv/pool window attributes, read in place from the node's attributes.
/// An absent one (`None`) takes its ONNX default: strides and dilations 1,
/// pads 0. `pads` is `[begin..., end...]` per ONNX (length 2×spatial rank).
struct Window<'a> {
    kernel: &'a [i64],
    strides: Option<&'a [i64]>,
    pads: Option<&'a [i64]>,
    dilations: Option<&'a [i64]>,
}

impl Window<'_> {
    /// Append the spatial output size of each axis of `spatial` to `dims`.
    fn out_dims(
        &self,
        op: OpKind,
        spatial: &[u64],
        ceil_mode: bool,
        dims: &mut Vec<u64>,
    ) -> Result<(), ShapeError> {
        let r = spatial.len();
        let fits = |v: Option<&[i64]>, len| v.is_none_or(|v| v.len() == len);
        if self.kernel.len() != r
            || !fits(self.strides, r)
            || !fits(self.dilations, r)
            || !fits(self.pads, 2 * r)
        {
            let or =
                |v: Option<&[i64]>, fill, len| v.map_or_else(|| vec![fill; len], <[i64]>::to_vec);
            bail!(
                "{op}: window attr ranks disagree with spatial rank {r} \
                 (kernel {:?}, strides {:?}, pads {:?}, dilations {:?})",
                self.kernel,
                or(self.strides, 1, r),
                or(self.pads, 0, 2 * r),
                or(self.dilations, 1, r)
            );
        }
        let at = |v: Option<&[i64]>, i: usize, default| v.map_or(default, |v| v[i]);
        for (i, (&len, &k)) in spatial.iter().zip(self.kernel).enumerate() {
            let eff_k = at(self.dilations, i, 1) * (k - 1) + 1;
            let padded = len as i64 + at(self.pads, i, 0) + at(self.pads, r + i, 0);
            let num = padded - eff_k;
            if num < 0 {
                bail!("{op}: window {eff_k} larger than padded input {padded} on spatial axis {i}");
            }
            let stride = at(self.strides, i, 1);
            let o = if ceil_mode {
                (num + stride - 1) / stride + 1
            } else {
                num / stride + 1
            };
            dims.push(o as u64);
        }
        Ok(())
    }
}

fn same_as(&(shape, dtype): &(&Shape, DType)) -> Vec<(Shape, DType)> {
    vec![(shape.clone(), dtype)]
}

/// Infer output shapes and dtypes for one operator.
///
/// `inputs` are `(shape, dtype)` pairs in ONNX input order (data inputs first,
/// then weights), borrowed from wherever the caller keeps them. Returns one
/// owned entry per output.
pub fn infer_shapes(
    op: OpKind,
    attrs: &Attributes,
    inputs: &[(&Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    use OpKind::*;
    match op {
        Conv => infer_conv(attrs, inputs),
        Gemm => infer_gemm(attrs, inputs),
        MatMul => infer_matmul(inputs),
        BatchNormalization => {
            expect_inputs(op, inputs, 5..=5)?;
            Ok(same_as(&inputs[0]))
        }
        LayerNormalization | GroupNormalization => {
            expect_inputs(op, inputs, 2..=3)?;
            Ok(same_as(&inputs[0]))
        }
        Relu | LeakyRelu | Clip | Sigmoid | HardSigmoid | HardSwish | Tanh | Erf | Exp | Log
        | Sqrt | Reciprocal | Neg | Abs | Gelu | Softplus | Softmax | Identity | Dropout => {
            expect_inputs(op, inputs, 1..=1)?;
            Ok(same_as(&inputs[0]))
        }
        Add | Sub | Mul | Div | Pow | Min | Max => {
            expect_inputs(op, inputs, 2..=2)?;
            let (a, b) = (&inputs[0], &inputs[1]);
            let out = a.0.broadcast(b.0).ok_or_else(|| {
                ShapeError(format!("{op}: cannot broadcast {} with {}", a.0, b.0))
            })?;
            Ok(vec![(out, a.1)])
        }
        Equal | Greater | Less => {
            expect_inputs(op, inputs, 2..=2)?;
            let out = inputs[0].0.broadcast(inputs[1].0).ok_or_else(|| {
                ShapeError(format!(
                    "{op}: cannot broadcast {} with {}",
                    inputs[0].0, inputs[1].0
                ))
            })?;
            Ok(vec![(out, DType::Bool)])
        }
        Where => {
            expect_inputs(op, inputs, 3..=3)?;
            let s = inputs[0]
                .0
                .broadcast(inputs[1].0)
                .and_then(|s| s.broadcast(inputs[2].0))
                .ok_or_else(|| {
                    ShapeError(format!(
                        "Where: cannot broadcast {}, {}, {}",
                        inputs[0].0, inputs[1].0, inputs[2].0
                    ))
                })?;
            Ok(vec![(s, inputs[1].1)])
        }
        ReduceMean | ReduceSum | ReduceMax | ArgMax => infer_reduce(op, attrs, inputs),
        MaxPool | AveragePool => infer_pool(op, attrs, inputs),
        GlobalAveragePool => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            if s.rank() < 3 {
                bail!("GlobalAveragePool needs rank>=3 input, got {s}");
            }
            let mut dims = vec![s.0[0], s.0[1]];
            dims.extend(std::iter::repeat_n(1, s.rank() - 2));
            Ok(vec![(crate::Shape(dims), *d)])
        }
        Transpose => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let r = s.rank();
            let perm = attrs.ints("perm");
            // The input axis output axis `i` reads (reversed order by default).
            let axis = |i: usize| perm.map_or(r - 1 - i, |p| p[i] as usize);
            let shown = || -> Vec<usize> { (0..perm.map_or(r, <[i64]>::len)).map(axis).collect() };
            if perm.is_some_and(|p| p.len() != r) {
                bail!("Transpose: perm {:?} rank != input rank {r}", shown());
            }
            for i in 0..r {
                let p = axis(i);
                if p >= r || (0..i).any(|j| axis(j) == p) {
                    bail!("Transpose: invalid perm {:?} for {s}", shown());
                }
            }
            Ok(vec![(
                crate::Shape((0..r).map(|i| s.0[axis(i)]).collect()),
                *d,
            )])
        }
        Reshape => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let spec = attrs
                .ints("shape")
                .ok_or_else(|| ShapeError("Reshape: missing 'shape' attribute".into()))?;
            Ok(vec![(resolve_reshape(s, spec)?, *d)])
        }
        Flatten => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let axis = s
                .normalize_axis(attrs.int_or("axis", 1))
                .ok_or_else(|| ShapeError(format!("Flatten: bad axis for {s}")))?;
            let head: u64 = s.0[..axis].iter().product();
            let tail: u64 = s.0[axis..].iter().product();
            Ok(vec![(crate::Shape(vec![head, tail]), *d)])
        }
        Squeeze => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let out = match attrs.ints("axes") {
                Some(axes) => {
                    let mut drop = vec![false; s.rank()];
                    for &a in axes {
                        let i = s
                            .normalize_axis(a)
                            .ok_or_else(|| ShapeError(format!("Squeeze: bad axis {a} for {s}")))?;
                        if s.0[i] != 1 {
                            bail!("Squeeze: axis {a} of {s} is not 1");
                        }
                        drop[i] = true;
                    }
                    crate::Shape(
                        s.0.iter()
                            .zip(&drop)
                            .filter(|(_, &dr)| !dr)
                            .map(|(&v, _)| v)
                            .collect(),
                    )
                }
                None => crate::Shape(s.0.iter().copied().filter(|&v| v != 1).collect()),
            };
            Ok(vec![(out, *d)])
        }
        Unsqueeze => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let axes = attrs
                .ints("axes")
                .ok_or_else(|| ShapeError("Unsqueeze: missing 'axes'".into()))?;
            let out_rank = s.rank() + axes.len();
            let mut norm: Vec<usize> = Vec::with_capacity(axes.len());
            for &a in axes {
                let v = if a < 0 { a + out_rank as i64 } else { a };
                if !(0..out_rank as i64).contains(&v) {
                    bail!("Unsqueeze: bad axis {a} for output rank {out_rank}");
                }
                norm.push(v as usize);
            }
            norm.sort_unstable();
            norm.dedup();
            if norm.len() != axes.len() {
                bail!("Unsqueeze: duplicate axes {axes:?}");
            }
            let mut out = Vec::with_capacity(out_rank);
            let mut src = s.0.iter();
            for i in 0..out_rank {
                if norm.binary_search(&i).is_ok() {
                    out.push(1);
                } else {
                    out.push(*src.next().expect("rank accounting"));
                }
            }
            Ok(vec![(crate::Shape(out), *d)])
        }
        Concat => {
            expect_inputs(op, inputs, 1..=64)?;
            let axis = inputs[0]
                .0
                .normalize_axis(attrs.int_or("axis", 0))
                .ok_or_else(|| ShapeError(format!("Concat: bad axis for {}", inputs[0].0)))?;
            let mut out = inputs[0].0.clone();
            for (s, _) in &inputs[1..] {
                if s.rank() != out.rank() {
                    bail!("Concat: rank mismatch {out} vs {s}");
                }
                for (i, (&a, &b)) in out.0.iter().zip(&s.0).enumerate() {
                    if i != axis && a != b {
                        bail!("Concat: non-axis dim mismatch at {i}: {out} vs {s}");
                    }
                }
                out.0[axis] += s.0[axis];
            }
            Ok(vec![(out, inputs[0].1)])
        }
        Split => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let axis = s
                .normalize_axis(attrs.int_or("axis", 0))
                .ok_or_else(|| ShapeError(format!("Split: bad axis for {s}")))?;
            let parts: Vec<u64> = if let Some(split) = attrs.ints("split") {
                split.iter().map(|&x| x as u64).collect()
            } else {
                let n = attrs.int_or("num_outputs", 2) as u64;
                if n == 0 || s.0[axis] % n != 0 {
                    bail!("Split: {} not divisible into {n} parts", s.0[axis]);
                }
                vec![s.0[axis] / n; n as usize]
            };
            if parts.iter().sum::<u64>() != s.0[axis] {
                bail!("Split: parts {parts:?} don't sum to dim {}", s.0[axis]);
            }
            Ok(parts
                .iter()
                .map(|&p| {
                    let mut dims = s.0.clone();
                    dims[axis] = p;
                    (crate::Shape(dims), *d)
                })
                .collect())
        }
        Slice => infer_slice(attrs, inputs),
        Gather => {
            expect_inputs(op, inputs, 2..=2)?;
            let (data, d) = &inputs[0];
            let (idx, idt) = &inputs[1];
            if !idt.is_int() {
                bail!("Gather: indices must be integer, got {idt}");
            }
            let axis = data
                .normalize_axis(attrs.int_or("axis", 0))
                .ok_or_else(|| ShapeError(format!("Gather: bad axis for {data}")))?;
            let mut out = Vec::with_capacity(data.rank() - 1 + idx.rank());
            out.extend_from_slice(&data.0[..axis]);
            out.extend_from_slice(&idx.0);
            out.extend_from_slice(&data.0[axis + 1..]);
            Ok(vec![(crate::Shape(out), *d)])
        }
        Expand => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let spec = attrs
                .ints("shape")
                .ok_or_else(|| ShapeError("Expand: missing 'shape'".into()))?;
            let target = crate::Shape(spec.iter().map(|&x| x as u64).collect());
            let out = s
                .broadcast(&target)
                .ok_or_else(|| ShapeError(format!("Expand: {s} not broadcastable to {target}")))?;
            Ok(vec![(out, *d)])
        }
        Tile => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let reps = attrs
                .ints("repeats")
                .ok_or_else(|| ShapeError("Tile: missing 'repeats'".into()))?;
            if reps.len() != s.rank() {
                bail!(
                    "Tile: repeats rank {} != input rank {}",
                    reps.len(),
                    s.rank()
                );
            }
            Ok(vec![(
                crate::Shape(s.0.iter().zip(reps).map(|(&a, &r)| a * r as u64).collect()),
                *d,
            )])
        }
        Pad => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let pads = attrs
                .ints("pads")
                .ok_or_else(|| ShapeError("Pad: missing 'pads'".into()))?;
            let r = s.rank();
            if pads.len() != 2 * r {
                bail!("Pad: pads len {} != 2*rank {}", pads.len(), 2 * r);
            }
            let mut out = Vec::with_capacity(r);
            for i in 0..r {
                let v = s.0[i] as i64 + pads[i] + pads[r + i];
                if v < 0 {
                    bail!("Pad: negative result dim on axis {i}");
                }
                out.push(v as u64);
            }
            Ok(vec![(crate::Shape(out), *d)])
        }
        Resize => {
            expect_inputs(op, inputs, 1..=1)?;
            let (s, d) = &inputs[0];
            let scales = attrs
                .floats("scales")
                .ok_or_else(|| ShapeError("Resize: missing 'scales'".into()))?;
            if scales.len() != s.rank() {
                bail!(
                    "Resize: scales rank {} != input rank {}",
                    scales.len(),
                    s.rank()
                );
            }
            Ok(vec![(
                crate::Shape(
                    s.0.iter()
                        .zip(scales)
                        .map(|(&a, &f)| ((a as f64) * f).floor() as u64)
                        .collect(),
                ),
                *d,
            )])
        }
        Cast => {
            expect_inputs(op, inputs, 1..=1)?;
            let to = attrs
                .dtype("to")
                .ok_or_else(|| ShapeError("Cast: missing 'to' dtype".into()))?;
            Ok(vec![(inputs[0].0.clone(), to)])
        }
        Shape => {
            expect_inputs(op, inputs, 1..=1)?;
            Ok(vec![(
                crate::Shape(vec![inputs[0].0.rank() as u64]),
                DType::I64,
            )])
        }
        Constant | ConstantOfShape => {
            let spec = attrs
                .ints("shape")
                .ok_or_else(|| ShapeError(format!("{op}: missing 'shape'")))?;
            let d = attrs.dtype("dtype").unwrap_or(DType::F32);
            Ok(vec![(
                crate::Shape(spec.iter().map(|&x| x as u64).collect()),
                d,
            )])
        }
        Range => {
            let len = attrs
                .int("length")
                .ok_or_else(|| ShapeError("Range: missing 'length'".into()))?;
            Ok(vec![(crate::Shape(vec![len as u64]), DType::I64)])
        }
    }
}

fn infer_conv(
    attrs: &Attributes,
    inputs: &[(&Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    expect_inputs(OpKind::Conv, inputs, 2..=3)?;
    let (x, d) = &inputs[0];
    let (w, _) = &inputs[1];
    if x.rank() < 3 || w.rank() != x.rank() {
        bail!("Conv: input {x} / weight {w} ranks unsupported");
    }
    let spatial = &x.0[2..];
    let group = attrs.int_or("group", 1) as u64;
    let (n, c) = (x.0[0], x.0[1]);
    let (m, wc) = (w.0[0], w.0[1]);
    if wc * group != c {
        bail!("Conv: weight in-channels {wc}*group {group} != input channels {c}");
    }
    if m % group != 0 {
        bail!("Conv: out channels {m} not divisible by group {group}");
    }
    let derived: Vec<i64>;
    let kernel = match attrs.ints("kernel_shape") {
        Some(k) => k,
        None => {
            derived = w.0[2..].iter().map(|&x| x as i64).collect();
            &derived
        }
    };
    let window = Window {
        kernel,
        strides: attrs.ints("strides"),
        pads: attrs.ints("pads"),
        dilations: attrs.ints("dilations"),
    };
    let mut dims = Vec::with_capacity(x.rank());
    dims.extend([n, m]);
    window.out_dims(OpKind::Conv, spatial, false, &mut dims)?;
    Ok(vec![(Shape(dims), *d)])
}

fn infer_pool(
    op: OpKind,
    attrs: &Attributes,
    inputs: &[(&Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    expect_inputs(op, inputs, 1..=1)?;
    let (x, d) = &inputs[0];
    if x.rank() < 3 {
        bail!("{op}: input {x} rank < 3");
    }
    let kernel = attrs
        .ints("kernel_shape")
        .ok_or_else(|| ShapeError(format!("{op}: missing 'kernel_shape'")))?;
    let window = Window {
        kernel,
        strides: Some(attrs.ints("strides").unwrap_or(kernel)),
        pads: attrs.ints("pads"),
        dilations: None,
    };
    let ceil = attrs.int_or("ceil_mode", 0) != 0;
    let mut dims = Vec::with_capacity(x.rank());
    dims.extend([x.0[0], x.0[1]]);
    window.out_dims(op, &x.0[2..], ceil, &mut dims)?;
    Ok(vec![(Shape(dims), *d)])
}

fn infer_gemm(
    attrs: &Attributes,
    inputs: &[(&Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    expect_inputs(OpKind::Gemm, inputs, 2..=3)?;
    let (a, d) = &inputs[0];
    let (b, _) = &inputs[1];
    if a.rank() != 2 || b.rank() != 2 {
        bail!("Gemm: A {a} and B {b} must be rank-2");
    }
    let ta = attrs.int_or("transA", 0) != 0;
    let tb = attrs.int_or("transB", 0) != 0;
    let (m, ka) = if ta {
        (a.0[1], a.0[0])
    } else {
        (a.0[0], a.0[1])
    };
    let (kb, n) = if tb {
        (b.0[1], b.0[0])
    } else {
        (b.0[0], b.0[1])
    };
    if ka != kb {
        bail!("Gemm: inner dims {ka} != {kb}");
    }
    if let Some((c, _)) = inputs.get(2) {
        if !c.broadcastable_to(&Shape(vec![m, n])) {
            bail!("Gemm: bias {c} not broadcastable to [{m}x{n}]");
        }
    }
    Ok(vec![(Shape(vec![m, n]), *d)])
}

fn infer_matmul(inputs: &[(&Shape, DType)]) -> Result<Vec<(Shape, DType)>, ShapeError> {
    expect_inputs(OpKind::MatMul, inputs, 2..=2)?;
    let (a, d) = &inputs[0];
    let (b, _) = &inputs[1];
    if a.rank() < 2 || b.rank() < 2 {
        bail!("MatMul: 1-D operands unsupported, got {a} x {b}");
    }
    let (m, ka) = (a.0[a.rank() - 2], a.0[a.rank() - 1]);
    let (kb, n) = (b.0[b.rank() - 2], b.0[b.rank() - 1]);
    if ka != kb {
        bail!("MatMul: inner dims {ka} != {kb} ({a} x {b})");
    }
    let (abatch, bbatch) = (&a.0[..a.rank() - 2], &b.0[..b.rank() - 2]);
    let mut dims = broadcast_dims(abatch, bbatch, 2).ok_or_else(|| {
        ShapeError(format!(
            "MatMul: batch dims {} vs {}",
            Shape::new(abatch),
            Shape::new(bbatch)
        ))
    })?;
    dims.push(m);
    dims.push(n);
    Ok(vec![(Shape(dims), *d)])
}

fn infer_reduce(
    op: OpKind,
    attrs: &Attributes,
    inputs: &[(&Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    expect_inputs(op, inputs, 1..=1)?;
    let (s, d) = &inputs[0];
    let keep = attrs.int_or("keepdims", 1) != 0;
    let (list, single) = (attrs.ints("axes"), attrs.int("axis"));
    let listed: &[i64] = match (list, &single) {
        (Some(a), _) => a,
        (None, Some(x)) => std::slice::from_ref(x),
        (None, None) => &[],
    };
    if let Some(x) = listed.iter().find(|&&x| s.normalize_axis(x).is_none()) {
        bail!("{op}: bad axis {x} for {s}");
    }
    // With neither attribute, every axis is reduced.
    let all = list.is_none() && single.is_none();
    let reduced = |i| all || listed.iter().any(|&x| s.normalize_axis(x) == Some(i));
    let out_d = if op == OpKind::ArgMax { DType::I64 } else { *d };
    let mut dims = Vec::with_capacity(s.rank());
    for (i, &v) in s.0.iter().enumerate() {
        if reduced(i) {
            if keep {
                dims.push(1);
            }
        } else {
            dims.push(v);
        }
    }
    Ok(vec![(Shape(dims), out_d)])
}

fn infer_slice(
    attrs: &Attributes,
    inputs: &[(&Shape, DType)],
) -> Result<Vec<(Shape, DType)>, ShapeError> {
    expect_inputs(OpKind::Slice, inputs, 1..=1)?;
    let (s, d) = &inputs[0];
    let starts = attrs
        .ints("starts")
        .ok_or_else(|| ShapeError("Slice: missing 'starts'".into()))?;
    let ends = attrs
        .ints("ends")
        .ok_or_else(|| ShapeError("Slice: missing 'ends'".into()))?;
    // Absent axes default to 0.., absent steps to 1.
    let (axes, steps) = (attrs.ints("axes"), attrs.ints("steps"));
    let n = starts.len();
    let fits = |v: Option<&[i64]>| v.is_none_or(|v| v.len() == n);
    if ends.len() != n || !fits(axes) || !fits(steps) {
        bail!("Slice: starts/ends/axes/steps length mismatch");
    }
    let mut dims = s.0.clone();
    for i in 0..n {
        let axis = axes.map_or(i as i64, |a| a[i]);
        let ax = s
            .normalize_axis(axis)
            .ok_or_else(|| ShapeError(format!("Slice: bad axis {axis} for {s}")))?;
        let len = s.0[ax] as i64;
        let clamp = |v: i64| -> i64 {
            let v = if v < 0 { v + len } else { v };
            v.clamp(0, len)
        };
        let (start, end, step) = (clamp(starts[i]), clamp(ends[i]), steps.map_or(1, |s| s[i]));
        if step <= 0 {
            bail!("Slice: non-positive steps unsupported");
        }
        dims[ax] = (((end - start).max(0) + step - 1) / step) as u64;
    }
    Ok(vec![(Shape(dims), *d)])
}

/// Resolve an ONNX reshape spec (`0` = copy input dim, `-1` = infer) against
/// an input shape.
fn resolve_reshape(input: &Shape, spec: &[i64]) -> Result<Shape, ShapeError> {
    let total = input.numel();
    let mut out: Vec<u64> = Vec::with_capacity(spec.len());
    let mut infer_at: Option<usize> = None;
    for (i, &v) in spec.iter().enumerate() {
        match v {
            0 => {
                let d = *input.0.get(i).ok_or_else(|| {
                    ShapeError(format!(
                        "Reshape: 0 at axis {i} but input rank {}",
                        input.rank()
                    ))
                })?;
                out.push(d);
            }
            -1 => {
                if infer_at.is_some() {
                    return Err(ShapeError("Reshape: multiple -1".into()));
                }
                infer_at = Some(i);
                out.push(1);
            }
            v if v > 0 => out.push(v as u64),
            v => return Err(ShapeError(format!("Reshape: bad dim {v}"))),
        }
    }
    let known: u64 = out.iter().product();
    if let Some(i) = infer_at {
        if known == 0 || !total.is_multiple_of(known) {
            return Err(ShapeError(format!(
                "Reshape: cannot infer -1 ({total} elements into {known})"
            )));
        }
        out[i] = total / known;
    } else if known != total {
        return Err(ShapeError(format!(
            "Reshape: element count mismatch {known} != {total}"
        )));
    }
    Ok(Shape(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    /// [`infer_shapes`] over owned `(shape, dtype)` pairs.
    fn infer(
        op: OpKind,
        attrs: &Attributes,
        inputs: &[(Shape, DType)],
    ) -> Result<Vec<(Shape, DType)>, ShapeError> {
        let inputs: Vec<(&Shape, DType)> = inputs.iter().map(|(s, d)| (s, *d)).collect();
        infer_shapes(op, attrs, &inputs)
    }

    fn t(dims: &[u64]) -> (Shape, DType) {
        (Shape::new(dims), DType::F32)
    }

    #[test]
    fn conv_basic_and_strided() {
        // ResNet stem: 7x7/2 pad 3 on 224 -> 112
        let out = infer(
            OpKind::Conv,
            &attrs! {"strides" => ints[2,2], "pads" => ints[3,3,3,3]},
            &[t(&[1, 3, 224, 224]), t(&[64, 3, 7, 7])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 64, 112, 112]));
    }

    #[test]
    fn depthwise_conv_groups() {
        let out = infer(
            OpKind::Conv,
            &attrs! {"group" => int 32, "pads" => ints[1,1,1,1]},
            &[t(&[1, 32, 56, 56]), t(&[32, 1, 3, 3])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 32, 56, 56]));
    }

    #[test]
    fn conv_channel_mismatch_is_error() {
        let err = infer(
            OpKind::Conv,
            &Attributes::new(),
            &[t(&[1, 3, 8, 8]), t(&[16, 4, 1, 1])],
        );
        assert!(err.is_err());
    }

    #[test]
    fn matmul_broadcast_batch() {
        let out = infer(
            OpKind::MatMul,
            &Attributes::new(),
            &[t(&[8, 12, 197, 64]), t(&[8, 12, 64, 197])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[8, 12, 197, 197]));
        // 2-D weight broadcasts against 3-D activation
        let out = infer(
            OpKind::MatMul,
            &Attributes::new(),
            &[t(&[4, 197, 768]), t(&[768, 3072])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[4, 197, 3072]));
    }

    #[test]
    fn matmul_inner_dim_mismatch() {
        assert!(infer(
            OpKind::MatMul,
            &Attributes::new(),
            &[t(&[2, 3]), t(&[4, 5])]
        )
        .is_err());
    }

    #[test]
    fn gemm_with_transpose_and_bias() {
        let out = infer(
            OpKind::Gemm,
            &attrs! {"transB" => int 1},
            &[t(&[128, 2048]), t(&[1000, 2048]), t(&[1000])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[128, 1000]));
    }

    #[test]
    fn pooling_with_ceil_mode() {
        // 112 -> 56 with 3x3/2 pad 1
        let out = infer(
            OpKind::MaxPool,
            &attrs! {"kernel_shape" => ints[3,3], "strides" => ints[2,2], "pads" => ints[1,1,1,1]},
            &[t(&[1, 64, 112, 112])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 64, 56, 56]));
    }

    #[test]
    fn global_avg_pool() {
        let out = infer(
            OpKind::GlobalAveragePool,
            &Attributes::new(),
            &[t(&[2, 512, 7, 7])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[2, 512, 1, 1]));
    }

    #[test]
    fn transpose_default_and_perm() {
        let out = infer(
            OpKind::Transpose,
            &attrs! {"perm" => ints[0, 2, 1, 3]},
            &[t(&[2, 3, 4, 5])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[2, 4, 3, 5]));
        let rev = infer(OpKind::Transpose, &Attributes::new(), &[t(&[2, 3, 4])]).unwrap();
        assert_eq!(rev[0].0, Shape::new(&[4, 3, 2]));
    }

    #[test]
    fn reshape_with_negative_one() {
        let out = infer(
            OpKind::Reshape,
            &attrs! {"shape" => ints[0, -1, 16]},
            &[t(&[4, 8, 32])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[4, 16, 16]));
    }

    #[test]
    fn reshape_numel_mismatch_is_error() {
        assert!(infer(
            OpKind::Reshape,
            &attrs! {"shape" => ints[7, 3]},
            &[t(&[4, 4])]
        )
        .is_err());
    }

    #[test]
    fn split_equal_and_explicit() {
        let outs = infer(
            OpKind::Split,
            &attrs! {"axis" => int 1, "num_outputs" => int 2},
            &[t(&[1, 116, 28, 28])],
        )
        .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].0, Shape::new(&[1, 58, 28, 28]));
        let outs = infer(
            OpKind::Split,
            &attrs! {"axis" => int 0, "split" => ints[1, 3]},
            &[t(&[4, 2])],
        )
        .unwrap();
        assert_eq!(outs[1].0, Shape::new(&[3, 2]));
    }

    #[test]
    fn slice_negative_and_stepped() {
        let out = infer(
            OpKind::Slice,
            &attrs! {"starts" => ints[1], "ends" => ints[-1], "axes" => ints[1]},
            &[t(&[2, 10, 3])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[2, 8, 3]));
        let out = infer(
            OpKind::Slice,
            &attrs! {"starts" => ints[0], "ends" => ints[10], "axes" => ints[0], "steps" => ints[3]},
            &[t(&[10])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[4]));
    }

    #[test]
    fn gather_embedding_lookup() {
        let out = infer(
            OpKind::Gather,
            &Attributes::new(),
            &[t(&[30522, 768]), (Shape::new(&[4, 128]), DType::I64)],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[4, 128, 768]));
    }

    #[test]
    fn reduce_mean_keepdims_variants() {
        let keep = infer(
            OpKind::ReduceMean,
            &attrs! {"axes" => ints[-1]},
            &[t(&[4, 197, 768])],
        )
        .unwrap();
        assert_eq!(keep[0].0, Shape::new(&[4, 197, 1]));
        let drop = infer(
            OpKind::ReduceMean,
            &attrs! {"axes" => ints[2, 3], "keepdims" => int 0},
            &[t(&[4, 1280, 7, 7])],
        )
        .unwrap();
        assert_eq!(drop[0].0, Shape::new(&[4, 1280]));
    }

    #[test]
    fn elementwise_broadcast_and_compare_dtype() {
        let out = infer(
            OpKind::Add,
            &Attributes::new(),
            &[t(&[4, 197, 768]), t(&[768])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[4, 197, 768]));
        let cmp = infer(OpKind::Equal, &Attributes::new(), &[t(&[3]), t(&[3])]).unwrap();
        assert_eq!(cmp[0].1, DType::Bool);
    }

    #[test]
    fn cast_changes_dtype_only() {
        let out = infer(
            OpKind::Cast,
            &Attributes::new().with_dtype("to", DType::F16),
            &[t(&[2, 2])],
        )
        .unwrap();
        assert_eq!(out[0], (Shape::new(&[2, 2]), DType::F16));
    }

    #[test]
    fn shape_op_returns_rank_vector() {
        let out = infer(OpKind::Shape, &Attributes::new(), &[t(&[2, 3, 4])]).unwrap();
        assert_eq!(out[0], (Shape::new(&[3]), DType::I64));
    }

    #[test]
    fn pad_and_resize() {
        let out = infer(
            OpKind::Pad,
            &attrs! {"pads" => ints[0,0,1,1,0,0,1,1]},
            &[t(&[1, 3, 8, 8])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 3, 10, 10]));
        let out = infer(
            OpKind::Resize,
            &Attributes::new().with("scales", AttrValue::Floats(vec![1.0, 1.0, 2.0, 2.0])),
            &[t(&[1, 64, 32, 32])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 64, 64, 64]));
    }

    #[test]
    fn error_texts_name_the_resolved_attributes() {
        let err = |op, a: &Attributes, ins: &[(Shape, DType)]| infer(op, a, ins).unwrap_err().0;
        assert_eq!(
            err(
                OpKind::Conv,
                &attrs! {"strides" => ints[2]},
                &[t(&[1, 3, 8, 8]), t(&[4, 3, 3, 3])]
            ),
            "Conv: window attr ranks disagree with spatial rank 2 \
             (kernel [3, 3], strides [2], pads [0, 0, 0, 0], dilations [1, 1])"
        );
        assert_eq!(
            err(
                OpKind::MaxPool,
                &attrs! {"kernel_shape" => ints[3, 3], "pads" => ints[1, 1]},
                &[t(&[1, 3, 8, 8])]
            ),
            "MaxPool: window attr ranks disagree with spatial rank 2 \
             (kernel [3, 3], strides [3, 3], pads [1, 1], dilations [1, 1])"
        );
        assert_eq!(
            err(
                OpKind::Conv,
                &Attributes::new(),
                &[t(&[1, 3, 2, 2]), t(&[4, 3, 3, 3])]
            ),
            "Conv: window 3 larger than padded input 2 on spatial axis 0"
        );
        assert_eq!(
            err(
                OpKind::MatMul,
                &Attributes::new(),
                &[t(&[2, 3, 4, 5]), t(&[3, 3, 5, 6])]
            ),
            "MatMul: batch dims [2x3] vs [3x3]"
        );
        assert_eq!(
            err(
                OpKind::Transpose,
                &attrs! {"perm" => ints[1, 0]},
                &[t(&[2, 3, 4])]
            ),
            "Transpose: perm [1, 0] rank != input rank 3"
        );
        assert_eq!(
            err(
                OpKind::Transpose,
                &attrs! {"perm" => ints[0, 0, 1]},
                &[t(&[2, 3, 4])]
            ),
            "Transpose: invalid perm [0, 0, 1] for [2x3x4]"
        );
        assert_eq!(
            err(
                OpKind::ReduceMean,
                &attrs! {"axes" => ints[1, 3]},
                &[t(&[2, 3, 4])]
            ),
            "ReduceMean: bad axis 3 for [2x3x4]"
        );
        assert_eq!(
            err(
                OpKind::ArgMax,
                &Attributes::new().with_int("axis", -4),
                &[t(&[2, 3, 4])]
            ),
            "ArgMax: bad axis -4 for [2x3x4]"
        );
        assert_eq!(
            err(
                OpKind::Slice,
                &attrs! {"starts" => ints[0, 0], "ends" => ints[1, 1]},
                &[t(&[2])]
            ),
            "Slice: bad axis 1 for [2]"
        );
        assert_eq!(
            err(
                OpKind::Slice,
                &attrs! {"starts" => ints[0], "ends" => ints[1], "steps" => ints[1, 1]},
                &[t(&[2])]
            ),
            "Slice: starts/ends/axes/steps length mismatch"
        );
    }

    #[test]
    fn defaulted_window_and_axis_attributes() {
        // No strides/pads/dilations: stride 1, no padding.
        let out = infer(
            OpKind::Conv,
            &Attributes::new(),
            &[t(&[1, 3, 8, 8]), t(&[4, 3, 3, 3])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 4, 6, 6]));
        // Pool strides default to the kernel.
        let out = infer(
            OpKind::AveragePool,
            &attrs! {"kernel_shape" => ints[2, 2]},
            &[t(&[1, 3, 8, 8])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[1, 3, 4, 4]));
        // Reduce with no axes reduces every axis; an empty list reduces none.
        let all = infer(OpKind::ReduceSum, &Attributes::new(), &[t(&[2, 3, 4])]).unwrap();
        assert_eq!(all[0].0, Shape::new(&[1, 1, 1]));
        let none = infer(
            OpKind::ReduceSum,
            &attrs! {"axes" => ints[]},
            &[t(&[2, 3, 4])],
        )
        .unwrap();
        assert_eq!(none[0].0, Shape::new(&[2, 3, 4]));
        // Slice axes default to 0.., steps to 1.
        let out = infer(
            OpKind::Slice,
            &attrs! {"starts" => ints[1, 0], "ends" => ints[3, 2]},
            &[t(&[4, 4])],
        )
        .unwrap();
        assert_eq!(out[0].0, Shape::new(&[2, 2]));
    }

    use crate::AttrValue;
}
