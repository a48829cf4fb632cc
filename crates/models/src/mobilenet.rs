//! MobileNetV2 (Sandler et al., 2018) at width multipliers 0.5 and 1.0.

use crate::blocks::{conv_bn, make_divisible};
use proof_ir::{sub_name, DType, Graph, GraphBuilder, TensorId};

/// Inverted residual: 1×1 expand → ReLU6 → 3×3 depthwise → ReLU6 → 1×1
/// project (linear), with a skip when stride 1 and channels match.
fn inverted_residual(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    cout: u64,
    stride: u64,
    expand: u64,
) -> TensorId {
    let cin = b.channels(x);
    let hidden = cin * expand;
    let mut y = x;
    if expand != 1 {
        y = conv_bn(b, &sub_name(name, ".expand"), y, hidden, 1, 1, 0, 1);
        y = b.relu6(&sub_name(name, ".expand_relu6"), y);
    }
    y = conv_bn(b, &sub_name(name, ".dw"), y, hidden, 3, stride, 1, hidden);
    y = b.relu6(&sub_name(name, ".dw_relu6"), y);
    y = conv_bn(b, &sub_name(name, ".project"), y, cout, 1, 1, 0, 1);
    if stride == 1 && cin == cout {
        b.add(&sub_name(name, ".add"), x, y)
    } else {
        y
    }
}

/// MobileNetV2 at a width multiplier (`0.5` or `1.0` in the paper).
pub fn v2(batch: u64, width_mult: f64) -> Graph {
    let mut b = GraphBuilder::new(if width_mult == 1.0 {
        "mobilenetv2-1.0"
    } else {
        "mobilenetv2-0.5"
    });
    // (expand t, channels c, repeats n, stride s)
    let settings: [(u64, u64, u64, u64); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    let stem_c = make_divisible(32.0 * width_mult, 8);
    let mut y = conv_bn(&mut b, "stem", x, stem_c, 3, 2, 1, 1);
    y = b.relu6("stem_relu6", y);
    let mut blk = 0;
    for (t, c, n, s) in settings {
        let cout = make_divisible(c as f64 * width_mult, 8);
        for i in 0..n {
            let stride = if i == 0 { s } else { 1 };
            y = inverted_residual(&mut b, &format!("block{blk}"), y, cout, stride, t);
            blk += 1;
        }
    }
    // last 1×1 conv is not narrowed below 1280
    let last = make_divisible(1280.0 * width_mult.max(1.0), 8);
    y = conv_bn(&mut b, "head_conv", y, last, 1, 1, 0, 1);
    y = b.relu6("head_relu6", y);
    y = b.global_avg_pool("gap", y);
    y = b.flatten("flatten", y, 1);
    y = b.linear("classifier", y, 1000, true);
    b.output(y);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v2_full_width_matches_torchvision() {
        let g = v2(1, 1.0);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 3.5).abs() < 0.15, "params {params_m}M");
        // paper Table 3: 100 nodes
        assert_eq!(g.node_count(), 100);
    }

    #[test]
    fn v2_half_width_params() {
        let g = v2(1, 0.5);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 2.0).abs() < 0.15, "params {params_m}M");
        assert_eq!(g.node_count(), 100);
    }
}
