//! ResNet-34 / ResNet-50 (He et al., 2016), torchvision-style export.

use crate::blocks::{conv_bn, conv_bn_relu};
use proof_ir::{sub_name, DType, Graph, GraphBuilder, TensorId};

/// Basic (two 3×3 conv) residual block.
fn basic_block(b: &mut GraphBuilder, name: &str, x: TensorId, cout: u64, stride: u64) -> TensorId {
    let y = conv_bn_relu(b, &sub_name(name, ".conv1"), x, cout, 3, stride, 1, 1);
    let y = conv_bn(b, &sub_name(name, ".conv2"), y, cout, 3, 1, 1, 1);
    let shortcut = if stride != 1 || b.channels(x) != cout {
        conv_bn(b, &sub_name(name, ".downsample"), x, cout, 1, stride, 0, 1)
    } else {
        x
    };
    let s = b.add(&sub_name(name, ".add"), y, shortcut);
    b.relu(&sub_name(name, ".relu_out"), s)
}

/// Bottleneck (1×1 → 3×3 → 1×1, ×4 expansion) residual block.
fn bottleneck(b: &mut GraphBuilder, name: &str, x: TensorId, width: u64, stride: u64) -> TensorId {
    let cout = width * 4;
    let y = conv_bn_relu(b, &sub_name(name, ".conv1"), x, width, 1, 1, 0, 1);
    let y = conv_bn_relu(b, &sub_name(name, ".conv2"), y, width, 3, stride, 1, 1);
    let y = conv_bn(b, &sub_name(name, ".conv3"), y, cout, 1, 1, 0, 1);
    let shortcut = if stride != 1 || b.channels(x) != cout {
        conv_bn(b, &sub_name(name, ".downsample"), x, cout, 1, stride, 0, 1)
    } else {
        x
    };
    let s = b.add(&sub_name(name, ".add"), y, shortcut);
    b.relu(&sub_name(name, ".relu_out"), s)
}

fn resnet(name: &str, batch: u64, layers: [u64; 4], bottlenecked: bool) -> Graph {
    let mut b = GraphBuilder::new(name);
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    let mut y = conv_bn_relu(&mut b, "conv1", x, 64, 7, 2, 3, 1);
    y = b.maxpool("maxpool", y, 3, 2, 1);
    let widths = [64u64, 128, 256, 512];
    for (stage, (&n, &w)) in layers.iter().zip(&widths).enumerate() {
        for i in 0..n {
            let stride = if stage > 0 && i == 0 { 2 } else { 1 };
            let bname = format!("layer{}.{}", stage + 1, i);
            y = if bottlenecked {
                bottleneck(&mut b, &bname, y, w, stride)
            } else {
                basic_block(&mut b, &bname, y, w, stride)
            };
        }
    }
    y = b.global_avg_pool("avgpool", y);
    y = b.flatten("flatten", y, 1);
    y = b.linear("fc", y, 1000, true);
    b.output(y);
    b.finish()
}

/// ResNet-18: basic blocks, depths [2, 2, 2, 2].
pub fn resnet18(batch: u64) -> Graph {
    resnet("resnet18", batch, [2, 2, 2, 2], false)
}

/// ResNet-34: basic blocks, depths [3, 4, 6, 3].
pub fn resnet34(batch: u64) -> Graph {
    resnet("resnet34", batch, [3, 4, 6, 3], false)
}

/// ResNet-101: bottleneck blocks, depths [3, 4, 23, 3].
pub fn resnet101(batch: u64) -> Graph {
    resnet("resnet101", batch, [3, 4, 23, 3], true)
}

/// ResNet-50: bottleneck blocks, depths [3, 4, 6, 3].
pub fn resnet50(batch: u64) -> Graph {
    resnet("resnet50", batch, [3, 4, 6, 3], true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_params_and_nodes_match_torchvision_export() {
        let g = resnet50(1);
        let params_m = g.param_count() as f64 / 1e6;
        // torchvision: 25.56 M (ours folds BN, dropping ~0.1 M of stats)
        assert!((params_m - 25.5).abs() < 0.6, "params {params_m}M");
        // folded export: 53 convs + 49 relus + 16 adds + pool/gap/flatten/fc
        assert_eq!(g.node_count(), 122);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[1, 1000]);
    }

    #[test]
    fn resnet34_params() {
        let g = resnet34(1);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 21.8).abs() < 0.5, "params {params_m}M");
    }

    #[test]
    fn resnet18_and_101_params_match_torchvision() {
        let r18 = resnet18(1).param_count() as f64 / 1e6;
        assert!((r18 - 11.7).abs() < 0.3, "r18 {r18}M");
        let r101 = resnet101(1).param_count() as f64 / 1e6;
        assert!((r101 - 44.5).abs() < 1.0, "r101 {r101}M");
    }

    #[test]
    fn batch_propagates_to_output() {
        let g = resnet50(8);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[8, 1000]);
    }
}
