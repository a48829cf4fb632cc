//! ShuffleNetV2 (Ma et al., 2018) at ×0.5 and ×1.0 widths, plus the paper's
//! modified variant (§4.5, Figure 7): shuffle-free basic blocks with the
//! first/last point-wise convolutions widened to cover all channels and an
//! explicit residual `Add`.

use crate::blocks::{channel_shuffle, conv_bn, conv_bn_relu};
use proof_ir::{sub_name, DType, Graph, GraphBuilder, TensorId};

/// Stage output channels per width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    X05,
    X10,
}

impl Width {
    fn stage_channels(self) -> [u64; 3] {
        match self {
            Width::X05 => [48, 96, 192],
            Width::X10 => [116, 232, 464],
        }
    }

    fn name(self) -> &'static str {
        match self {
            Width::X05 => "shufflenetv2-x0.5",
            Width::X10 => "shufflenetv2-x1.0",
        }
    }
}

/// Non-downsampling basic unit: split channels in two, run the right half
/// through pw→dw→pw, concat, shuffle.
fn basic_unit(b: &mut GraphBuilder, name: &str, x: TensorId) -> TensorId {
    let c = b.channels(x);
    let half = c / 2;
    let (left, right) = b.split2(&sub_name(name, ".split"), x, 1);
    let y = conv_bn_relu(b, &sub_name(name, ".pw1"), right, half, 1, 1, 0, 1);
    let y = conv_bn(b, &sub_name(name, ".dw"), y, half, 3, 1, 1, half);
    let y = conv_bn_relu(b, &sub_name(name, ".pw2"), y, half, 1, 1, 0, 1);
    let cat = b.concat(&sub_name(name, ".concat"), &[left, y], 1);
    channel_shuffle(b, &sub_name(name, ".shuffle"), cat, 2)
}

/// Downsampling unit: both branches convolve at stride 2, concat doubles
/// channels, shuffle.
fn down_unit(b: &mut GraphBuilder, name: &str, x: TensorId, cout: u64) -> TensorId {
    let half = cout / 2;
    let cin = b.channels(x);
    // left branch: dw s2 + pw
    let l = conv_bn(b, &sub_name(name, ".left_dw"), x, cin, 3, 2, 1, cin);
    let l = conv_bn_relu(b, &sub_name(name, ".left_pw"), l, half, 1, 1, 0, 1);
    // right branch: pw + dw s2 + pw
    let r = conv_bn_relu(b, &sub_name(name, ".pw1"), x, half, 1, 1, 0, 1);
    let r = conv_bn(b, &sub_name(name, ".dw"), r, half, 3, 2, 1, half);
    let r = conv_bn_relu(b, &sub_name(name, ".pw2"), r, half, 1, 1, 0, 1);
    let cat = b.concat(&sub_name(name, ".concat"), &[l, r], 1);
    channel_shuffle(b, &sub_name(name, ".shuffle"), cat, 2)
}

/// The paper's modified basic unit (Figure 7): no split/shuffle; pw1 takes
/// all `C` input channels down to `C/2`, the dw conv stays at `C/2`, pw2
/// expands back to `C`, and a residual `Add` replaces the implicit identity
/// path of the original shuffle.
fn modified_basic_unit(b: &mut GraphBuilder, name: &str, x: TensorId) -> TensorId {
    let c = b.channels(x);
    let half = c / 2;
    let y = conv_bn_relu(b, &sub_name(name, ".pw1"), x, half, 1, 1, 0, 1);
    let y = conv_bn(b, &sub_name(name, ".dw"), y, half, 3, 1, 1, half);
    let y = conv_bn_relu(b, &sub_name(name, ".pw2"), y, c, 1, 1, 0, 1);
    b.add(&sub_name(name, ".add"), x, y)
}

fn backbone(name: &str, batch: u64, stage_channels: [u64; 3], modified: bool) -> Graph {
    let mut b = GraphBuilder::new(name);
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    let mut y = conv_bn_relu(&mut b, "conv1", x, 24, 3, 2, 1, 1);
    y = b.maxpool("maxpool", y, 3, 2, 1);
    let repeats = [4u64, 8, 4];
    for (stage, (&reps, &cout)) in repeats.iter().zip(&stage_channels).enumerate() {
        y = down_unit(&mut b, &format!("stage{}.0", stage + 2), y, cout);
        for i in 1..reps {
            let bname = format!("stage{}.{}", stage + 2, i);
            y = if modified {
                modified_basic_unit(&mut b, &bname, y)
            } else {
                basic_unit(&mut b, &bname, y)
            };
        }
    }
    y = conv_bn_relu(&mut b, "conv5", y, 1024, 1, 1, 0, 1);
    y = b.global_avg_pool("gap", y);
    y = b.flatten("flatten", y, 1);
    y = b.linear("fc", y, 1000, true);
    b.output(y);
    b.finish()
}

/// Original ShuffleNetV2.
pub fn v2(batch: u64, width: Width) -> Graph {
    backbone(width.name(), batch, width.stage_channels(), false)
}

/// The paper's modified ShuffleNetV2 ×1.0 (Table 3 row 14, §4.5).
pub fn v2_modified(batch: u64) -> Graph {
    backbone(
        "shufflenetv2-x1.0-mod",
        batch,
        Width::X10.stage_channels(),
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_ir::OpKind;

    #[test]
    fn x10_params_match_reference() {
        let g = v2(1, Width::X10);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 2.28).abs() < 0.12, "params {params_m}M");
    }

    #[test]
    fn x05_params_match_reference() {
        let g = v2(1, Width::X05);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 1.37).abs() < 0.1, "params {params_m}M");
    }

    #[test]
    fn modified_variant_matches_paper_table5() {
        let g = v2_modified(1);
        let params_m = g.param_count() as f64 / 1e6;
        // paper Table 5: 2.804 M params
        assert!((params_m - 2.8).abs() < 0.12, "params {params_m}M");
        // no shuffles left outside the 3 downsampling units
        let h = g.op_histogram();
        assert_eq!(h.get(&OpKind::Transpose).copied().unwrap_or(0), 3);
        assert_eq!(h.get(&OpKind::Split).copied().unwrap_or(0), 0);
        // 13 residual adds (3 + 7 + 3 non-downsampling blocks)
        assert_eq!(h[&OpKind::Add], 13);
    }

    #[test]
    fn original_has_shuffles_everywhere() {
        let g = v2(1, Width::X10);
        let h = g.op_histogram();
        // one shuffle per unit: 16 transposes
        assert_eq!(h[&OpKind::Transpose], 16);
        assert_eq!(h[&OpKind::Split], 13);
        assert_eq!(h[&OpKind::Concat], 16);
    }

    #[test]
    fn output_heads_are_1000_way() {
        for g in [v2(2, Width::X05), v2_modified(2)] {
            assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[2, 1000]);
        }
    }
}
