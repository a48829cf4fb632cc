//! Shared architectural building blocks.
//!
//! CNN conv+BN pairs are emitted as a single biased `Conv`, matching
//! PyTorch's eval-mode ONNX export (which folds BatchNorm into the
//! preceding convolution — this is why torchvision's ResNet-50 exports as
//! 122 nodes). Activations use the exporter's decompositions (SiLU =
//! `Sigmoid`+`Mul`, GELU = 5 ops).

use proof_ir::{sub_name, GraphBuilder, TensorId};

/// Folded Conv+BN (a biased convolution), square kernel.
#[allow(clippy::too_many_arguments)]
pub fn conv_bn(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    cout: u64,
    k: u64,
    s: u64,
    p: u64,
    groups: u64,
) -> TensorId {
    b.conv(name, x, cout, k, s, p, groups, true)
}

/// Folded Conv+BN followed by ReLU.
#[allow(clippy::too_many_arguments)]
pub fn conv_bn_relu(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    cout: u64,
    k: u64,
    s: u64,
    p: u64,
    groups: u64,
) -> TensorId {
    let c = conv_bn(b, name, x, cout, k, s, p, groups);
    b.relu(&sub_name(name, "/relu"), c)
}

/// Folded Conv+BN followed by SiLU (Sigmoid+Mul pair).
#[allow(clippy::too_many_arguments)]
pub fn conv_bn_silu(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    cout: u64,
    k: u64,
    s: u64,
    p: u64,
    groups: u64,
) -> TensorId {
    let c = conv_bn(b, name, x, cout, k, s, p, groups);
    b.silu(&sub_name(name, "/silu"), c)
}

/// Squeeze-and-Excitation: GAP → 1×1 conv reduce → SiLU → 1×1 conv expand →
/// Sigmoid → Mul (the EfficientNet pattern).
pub fn se_block(b: &mut GraphBuilder, name: &str, x: TensorId, reduced: u64) -> TensorId {
    let c = b.channels(x);
    let pooled = b.global_avg_pool(&sub_name(name, "/gap"), x);
    let r = b.conv(&sub_name(name, "/fc1"), pooled, reduced, 1, 1, 0, 1, true);
    let r = b.silu(&sub_name(name, "/act"), r);
    let e = b.conv(&sub_name(name, "/fc2"), r, c, 1, 1, 0, 1, true);
    let s = b.sigmoid(&sub_name(name, "/gate"), e);
    b.mul(&sub_name(name, "/scale"), x, s)
}

/// ShuffleNet channel shuffle: reshape `[N, g, C/g, H, W]` → transpose →
/// reshape back (3 data-movement nodes — the layers the paper's Figure 6
/// shows dominating ShuffleNetV2's latency).
pub fn channel_shuffle(b: &mut GraphBuilder, name: &str, x: TensorId, groups: u64) -> TensorId {
    let dims = b.shape(x).dims().to_vec();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    assert_eq!(c % groups, 0, "shuffle {name}: {c} % {groups}");
    let r1 = b.reshape(
        &sub_name(name, "/reshape"),
        x,
        &[
            n as i64,
            groups as i64,
            (c / groups) as i64,
            h as i64,
            w as i64,
        ],
    );
    let t = b.transpose(&sub_name(name, "/transpose"), r1, &[0, 2, 1, 3, 4]);
    b.reshape(
        &sub_name(name, "/reshape_1"),
        t,
        &[n as i64, c as i64, h as i64, w as i64],
    )
}

/// Multi-head self-attention on `[B, L, E]` tokens, exported PyTorch-style:
/// three projections, head split via reshape/transpose, scaled QKᵀ,
/// optional additive bias (Swin's relative position bias), softmax, AV,
/// head merge, output projection. Returns the projected output `[B, L, E]`.
pub fn mha(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    heads: u64,
    attn_bias: Option<TensorId>,
) -> TensorId {
    let dims = b.shape(x).dims().to_vec();
    let (batch, len, embed) = (dims[0], dims[1], dims[2]);
    assert_eq!(embed % heads, 0, "mha {name}: {embed} % {heads}");
    let hd = embed / heads;
    let q = b.linear(&sub_name(name, "/q"), x, embed, true);
    let k = b.linear(&sub_name(name, "/k"), x, embed, true);
    let v = b.linear(&sub_name(name, "/v"), x, embed, true);
    let split = |b: &mut GraphBuilder, t: TensorId, tag: &str, perm: &[i64]| {
        let r = b.reshape(
            &format!("{name}/{tag}/reshape"),
            t,
            &[batch as i64, len as i64, heads as i64, hd as i64],
        );
        b.transpose(&format!("{name}/{tag}/transpose"), r, perm)
    };
    let qh = split(b, q, "qh", &[0, 2, 1, 3]); // [B, H, L, hd]
    let kh = split(b, k, "kh", &[0, 2, 3, 1]); // [B, H, hd, L]
    let vh = split(b, v, "vh", &[0, 2, 1, 3]);
    let scores = b.matmul(&sub_name(name, "/qk"), qh, kh);
    let scale = b.scalar(&sub_name(name, "/scale"));
    let scaled = b.mul(&sub_name(name, "/scaled"), scores, scale);
    let biased = match attn_bias {
        Some(bias) => b.add(&sub_name(name, "/bias_add"), scaled, bias),
        None => scaled,
    };
    let probs = b.softmax(&sub_name(name, "/softmax"), biased, -1);
    let ctx = b.matmul(&sub_name(name, "/av"), probs, vh);
    let merged = b.transpose(&sub_name(name, "/merge/transpose"), ctx, &[0, 2, 1, 3]);
    let flat = b.reshape(
        &sub_name(name, "/merge/reshape"),
        merged,
        &[batch as i64, len as i64, embed as i64],
    );
    b.linear(&sub_name(name, "/proj"), flat, embed, true)
}

/// Transformer MLP block: linear → GELU → linear.
pub fn mlp(b: &mut GraphBuilder, name: &str, x: TensorId, hidden: u64, out: u64) -> TensorId {
    let h = b.linear(&sub_name(name, "/fc1"), x, hidden, true);
    let a = b.gelu(&sub_name(name, "/gelu"), h);
    b.linear(&sub_name(name, "/fc2"), a, out, true)
}

/// `make_divisible` channel rounding used by the mobile CNN families.
pub fn make_divisible(v: f64, divisor: u64) -> u64 {
    let d = divisor as f64;
    let new_v = ((v + d / 2.0) / d).floor() * d;
    let new_v = new_v.max(d);
    // don't round down by more than 10%
    if new_v < 0.9 * v {
        (new_v + d) as u64
    } else {
        new_v as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_ir::{DType, GraphBuilder, Shape};

    #[test]
    fn se_block_preserves_shape() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 64, 14, 14], DType::F32);
        let y = se_block(&mut b, "se", x, 16);
        assert_eq!(b.shape(y), &Shape::new(&[2, 64, 14, 14]));
        b.output(y);
        b.finish().validate().unwrap();
    }

    #[test]
    fn channel_shuffle_is_three_nodes_shape_preserving() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[1, 116, 28, 28], DType::F32);
        let y = channel_shuffle(&mut b, "shuf", x, 2);
        assert_eq!(b.shape(y), &Shape::new(&[1, 116, 28, 28]));
        b.output(y);
        let g = b.finish();
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn mha_output_shape_and_param_count() {
        let mut b = GraphBuilder::new("t");
        let x = b.input("x", &[2, 197, 192], DType::F32);
        let y = mha(&mut b, "attn", x, 3, None);
        assert_eq!(b.shape(y), &Shape::new(&[2, 197, 192]));
        b.output(y);
        let g = b.finish();
        // 4 × (E² + E) weights + the scale scalar
        assert_eq!(g.param_count(), 4 * (192 * 192 + 192) + 1);
    }

    #[test]
    fn make_divisible_matches_torchvision_semantics() {
        assert_eq!(make_divisible(32.0 * 0.5, 8), 16);
        assert_eq!(make_divisible(24.0 * 0.5, 8), 16); // 12 → rounds to 16 (>10% rule)
        assert_eq!(make_divisible(16.0 * 1.4, 8), 24);
        assert_eq!(make_divisible(3.0, 8), 8);
    }
}
