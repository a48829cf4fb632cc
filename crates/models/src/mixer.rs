//! MLP-Mixer B/16 (Tolstikhin et al., 2021): 12 mixer layers on 196
//! patches × 768 channels.

use crate::blocks::mlp;
use proof_ir::{sub_name, DType, Graph, GraphBuilder};

/// Build MLP-Mixer B/16 at the given batch size.
pub fn mixer_b16(batch: u64) -> Graph {
    let dim = 768u64;
    let patches = 196u64;
    let token_hidden = 384u64;
    let channel_hidden = 3072u64;
    let layers = 12u64;

    let mut b = GraphBuilder::new("mlp-mixer-b16");
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    let p = b.conv("stem", x, dim, 16, 16, 0, 1, true);
    let p = b.reshape(
        "stem/reshape",
        p,
        &[batch as i64, dim as i64, patches as i64],
    );
    let mut y = b.transpose("stem/transpose", p, &[0, 2, 1]); // [B, 196, 768]

    for i in 0..layers {
        let blk = format!("blocks.{i}");
        // token-mixing: LN → transpose → MLP over patches → transpose → +skip
        let n1 = b.layer_norm_decomposed(&sub_name(&blk, ".norm1"), y);
        let t = b.transpose(&sub_name(&blk, ".token/transpose"), n1, &[0, 2, 1]);
        let tm = mlp(
            &mut b,
            &sub_name(&blk, ".token_mlp"),
            t,
            token_hidden,
            patches,
        );
        let t2 = b.transpose(&sub_name(&blk, ".token/transpose_1"), tm, &[0, 2, 1]);
        y = b.add(&sub_name(&blk, ".add1"), y, t2);
        // channel-mixing: LN → MLP over channels → +skip
        let n2 = b.layer_norm_decomposed(&sub_name(&blk, ".norm2"), y);
        let cm = mlp(
            &mut b,
            &sub_name(&blk, ".channel_mlp"),
            n2,
            channel_hidden,
            dim,
        );
        y = b.add(&sub_name(&blk, ".add2"), y, cm);
    }
    y = b.layer_norm_decomposed("norm", y);
    // global average over patches, then classify
    let pooled = b.push(
        "pool",
        proof_ir::OpKind::ReduceMean,
        proof_ir::Attributes::new()
            .with_ints("axes", &[1])
            .with_int("keepdims", 0),
        &[y],
    );
    let out = b.linear("head", pooled, 1000, true);
    b.output(out);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_match_reference() {
        let g = mixer_b16(1);
        let params_m = g.param_count() as f64 / 1e6;
        // reference Mixer-B/16: 59.9 M
        assert!((params_m - 59.9).abs() < 1.0, "params {params_m}M");
    }

    #[test]
    fn output_shape() {
        let g = mixer_b16(4);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[4, 1000]);
    }
}
