//! EfficientNet B0/B4 (Tan & Le, 2019) and EfficientNetV2-T/S (2021).
//!
//! All built at 224×224 (the paper's Table 3 GFLOP column is computed at
//! that export resolution). V2 replaces early depthwise MBConv stages with
//! Fused-MBConv — the §4.4 insight PRoof's layer-wise roofline corroborates.

use crate::blocks::{conv_bn, conv_bn_silu, make_divisible, se_block};
use proof_ir::{sub_name, DType, Graph, GraphBuilder, TensorId};

/// MBConv: 1×1 expand → SiLU → k×k depthwise → SiLU → SE → 1×1 project.
#[allow(clippy::too_many_arguments)]
fn mbconv(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    cout: u64,
    kernel: u64,
    stride: u64,
    expand: u64,
    se_from_input: bool,
) -> TensorId {
    let cin = b.channels(x);
    let hidden = cin * expand;
    let mut y = x;
    if expand != 1 {
        y = conv_bn_silu(b, &sub_name(name, ".expand"), y, hidden, 1, 1, 0, 1);
    }
    y = conv_bn_silu(
        b,
        &sub_name(name, ".dw"),
        y,
        hidden,
        kernel,
        stride,
        kernel / 2,
        hidden,
    );
    if se_from_input {
        // SE reduction is computed from the block *input* channels (ratio
        // 0.25), as in the reference implementation.
        let reduced = (cin / 4).max(1);
        y = se_block(b, &sub_name(name, ".se"), y, reduced);
    }
    y = conv_bn(b, &sub_name(name, ".project"), y, cout, 1, 1, 0, 1);
    if stride == 1 && cin == cout {
        b.add(&sub_name(name, ".add"), x, y)
    } else {
        y
    }
}

/// Fused-MBConv: single k×k expand conv → SiLU → 1×1 project (no SE in the
/// V2 configurations used here).
fn fused_mbconv(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    cout: u64,
    stride: u64,
    expand: u64,
) -> TensorId {
    let cin = b.channels(x);
    let hidden = cin * expand;
    let mut y;
    if expand != 1 {
        y = conv_bn_silu(b, &sub_name(name, ".fused"), x, hidden, 3, stride, 1, 1);
        y = conv_bn(b, &sub_name(name, ".project"), y, cout, 1, 1, 0, 1);
    } else {
        y = conv_bn_silu(b, &sub_name(name, ".fused"), x, cout, 3, stride, 1, 1);
    }
    if stride == 1 && cin == cout {
        b.add(&sub_name(name, ".add"), x, y)
    } else {
        y
    }
}

/// Stage description for the V1 family: (expand, channels, repeats, stride,
/// kernel).
const V1_STAGES: [(u64, u64, u64, u64, u64); 7] = [
    (1, 16, 1, 1, 3),
    (6, 24, 2, 2, 3),
    (6, 40, 2, 2, 5),
    (6, 80, 3, 2, 3),
    (6, 112, 3, 1, 5),
    (6, 192, 4, 2, 5),
    (6, 320, 1, 1, 3),
];

fn round_repeats(r: u64, depth_mult: f64) -> u64 {
    (r as f64 * depth_mult).ceil() as u64
}

fn efficientnet_v1(name: &str, batch: u64, width: f64, depth: f64) -> Graph {
    let mut b = GraphBuilder::new(name);
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    let stem = make_divisible(32.0 * width, 8);
    let mut y = conv_bn_silu(&mut b, "stem", x, stem, 3, 2, 1, 1);
    let mut blk = 0;
    for (t, c, n, s, k) in V1_STAGES {
        let cout = make_divisible(c as f64 * width, 8);
        for i in 0..round_repeats(n, depth) {
            let stride = if i == 0 { s } else { 1 };
            y = mbconv(&mut b, &format!("block{blk}"), y, cout, k, stride, t, true);
            blk += 1;
        }
    }
    let head = make_divisible(1280.0 * width, 8);
    y = conv_bn_silu(&mut b, "head_conv", y, head, 1, 1, 0, 1);
    y = b.global_avg_pool("gap", y);
    y = b.flatten("flatten", y, 1);
    y = b.linear("classifier", y, 1000, true);
    b.output(y);
    b.finish()
}

/// EfficientNet B0 (width 1.0, depth 1.0).
pub fn b0(batch: u64) -> Graph {
    efficientnet_v1("efficientnet-b0", batch, 1.0, 1.0)
}

/// EfficientNet B4 (width 1.4, depth 1.8).
pub fn b4(batch: u64) -> Graph {
    efficientnet_v1("efficientnet-b4", batch, 1.4, 1.8)
}

/// V2 stage description: (fused?, expand, channels, repeats, stride).
struct V2Stage(bool, u64, u64, u64, u64);

fn efficientnet_v2(name: &str, batch: u64, stem: u64, stages: &[V2Stage], head: u64) -> Graph {
    let mut b = GraphBuilder::new(name);
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    let mut y = conv_bn_silu(&mut b, "stem", x, stem, 3, 2, 1, 1);
    let mut blk = 0;
    for V2Stage(fused, t, c, n, s) in stages {
        for i in 0..*n {
            let stride = if i == 0 { *s } else { 1 };
            let bname = format!("block{blk}");
            y = if *fused {
                fused_mbconv(&mut b, &bname, y, *c, stride, *t)
            } else {
                mbconv(&mut b, &bname, y, *c, 3, stride, *t, true)
            };
            blk += 1;
        }
    }
    y = conv_bn_silu(&mut b, "head_conv", y, head, 1, 1, 0, 1);
    y = b.global_avg_pool("gap", y);
    y = b.flatten("flatten", y, 1);
    y = b.linear("classifier", y, 1000, true);
    b.output(y);
    b.finish()
}

/// EfficientNetV2-T (the `efficientnetv2_rw_t` configuration, 13.6 M params).
pub fn v2_t(batch: u64) -> Graph {
    efficientnet_v2(
        "efficientnetv2-t",
        batch,
        24,
        &[
            V2Stage(true, 1, 24, 2, 1),
            V2Stage(true, 4, 40, 4, 2),
            V2Stage(true, 4, 48, 4, 2),
            V2Stage(false, 4, 104, 6, 2),
            V2Stage(false, 6, 128, 9, 1),
            V2Stage(false, 6, 208, 14, 2),
        ],
        1024,
    )
}

/// EfficientNetV2-S (the official S configuration).
pub fn v2_s(batch: u64) -> Graph {
    efficientnet_v2(
        "efficientnetv2-s",
        batch,
        24,
        &[
            V2Stage(true, 1, 24, 2, 1),
            V2Stage(true, 4, 48, 4, 2),
            V2Stage(true, 4, 64, 4, 2),
            V2Stage(false, 4, 128, 6, 2),
            V2Stage(false, 6, 160, 9, 1),
            V2Stage(false, 6, 256, 15, 2),
        ],
        1280,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_ir::OpKind;

    #[test]
    fn b0_params_and_nodecount() {
        let g = b0(1);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 5.3).abs() < 0.3, "params {params_m}M");
        // paper: 239 nodes; ours is close (same block structure)
        assert!(
            (g.node_count() as i64 - 239).abs() < 30,
            "{} nodes",
            g.node_count()
        );
    }

    #[test]
    fn b4_params() {
        let g = b4(1);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 19.3).abs() < 1.2, "params {params_m}M");
    }

    #[test]
    fn v2_t_params() {
        let g = v2_t(1);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 13.6).abs() < 1.0, "params {params_m}M");
    }

    #[test]
    fn v2_s_params() {
        let g = v2_s(1);
        let params_m = g.param_count() as f64 / 1e6;
        // reference impl: 21.5 M (paper lists 23.9)
        assert!((params_m - 21.5).abs() < 1.5, "params {params_m}M");
    }

    #[test]
    fn v2_has_fewer_depthwise_convs_than_v1_scaled_peer() {
        // the §4.4 story: V2 swaps depthwise+pointwise pairs for fused convs
        let dw_count = |g: &Graph| {
            g.nodes
                .iter()
                .filter(|n| n.op == OpKind::Conv && n.attrs.int_or("group", 1) > 1)
                .count()
        };
        let v1 = b4(1);
        let v2 = v2_t(1);
        assert!(
            dw_count(&v2) < dw_count(&v1),
            "{} vs {}",
            dw_count(&v2),
            dw_count(&v1)
        );
    }

    #[test]
    fn se_blocks_present_only_in_mbconv_stages() {
        let g = v2_s(1);
        let sigmoid_gates = g
            .nodes
            .iter()
            .filter(|n| n.op == OpKind::Sigmoid && n.name.ends_with(".se/gate"))
            .count();
        assert_eq!(sigmoid_gates, 6 + 9 + 15);
    }
}
