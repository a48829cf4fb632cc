//! Swin Transformer (Liu et al., 2021): tiny/small/base, patch 4, window 7.
//!
//! Window partition/reverse and the cyclic shift are emitted as explicit
//! `Reshape`/`Transpose`/`Slice`/`Concat` chains, as the ONNX export does —
//! these are the data-movement layers that show up in layer-wise rooflines.

use crate::blocks::{mha, mlp};
use proof_ir::{sub_name, Attributes, DType, Graph, GraphBuilder, OpKind, TensorId};

/// Swin size configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwinSize {
    Tiny,
    Small,
    Base,
}

impl SwinSize {
    /// (embed dim, per-stage depths, per-stage heads)
    pub fn config(self) -> (u64, [u64; 4], [u64; 4]) {
        match self {
            SwinSize::Tiny => (96, [2, 2, 6, 2], [3, 6, 12, 24]),
            SwinSize::Small => (96, [2, 2, 18, 2], [3, 6, 12, 24]),
            SwinSize::Base => (128, [2, 2, 18, 2], [4, 8, 16, 32]),
        }
    }

    fn name(self) -> &'static str {
        match self {
            SwinSize::Tiny => "swin-tiny",
            SwinSize::Small => "swin-small",
            SwinSize::Base => "swin-base",
        }
    }
}

const WINDOW: u64 = 7;

/// Cyclic roll along spatial axis `axis` by `shift` (two slices + concat).
fn roll(b: &mut GraphBuilder, name: &str, x: TensorId, axis: i64, shift: i64) -> TensorId {
    let len = b.shape(x).dims()[axis as usize] as i64;
    let head = b.slice(&sub_name(name, "/slice"), x, &[shift], &[len], &[axis]);
    let tail = b.slice(&sub_name(name, "/slice_1"), x, &[0], &[shift], &[axis]);
    b.concat(&sub_name(name, "/concat"), &[head, tail], axis)
}

/// One Swin block on `[B, H·W, C]` tokens.
#[allow(clippy::too_many_arguments)]
fn swin_block(
    b: &mut GraphBuilder,
    name: &str,
    x: TensorId,
    batch: u64,
    h: u64,
    heads: u64,
    shifted: bool,
) -> TensorId {
    let c = *b.shape(x).dims().last().unwrap();
    let nw = h / WINDOW; // windows per side
    let n1 = b.layer_norm_decomposed(&sub_name(name, ".norm1"), x);
    let mut grid = b.reshape(
        &sub_name(name, ".to_grid"),
        n1,
        &[batch as i64, h as i64, h as i64, c as i64],
    );
    if shifted {
        grid = roll(b, &sub_name(name, ".shift_h"), grid, 1, (WINDOW / 2) as i64);
        grid = roll(b, &sub_name(name, ".shift_w"), grid, 2, (WINDOW / 2) as i64);
    }
    // window partition: [B, nw, 7, nw, 7, C] → [B, nw, nw, 7, 7, C] → [B·nw², 49, C]
    let part = b.reshape(
        &sub_name(name, ".win_partition"),
        grid,
        &[
            batch as i64,
            nw as i64,
            WINDOW as i64,
            nw as i64,
            WINDOW as i64,
            c as i64,
        ],
    );
    let part = b.transpose(&sub_name(name, ".win_transpose"), part, &[0, 1, 3, 2, 4, 5]);
    let windows = b.reshape(
        &sub_name(name, ".win_tokens"),
        part,
        &[(batch * nw * nw) as i64, (WINDOW * WINDOW) as i64, c as i64],
    );
    // relative-position bias, materialized as a dense [heads, 49, 49] table
    let bias = b.weight(
        &sub_name(name, ".attn.rel_pos_bias"),
        &[heads, WINDOW * WINDOW, WINDOW * WINDOW],
    );
    let att = mha(b, &sub_name(name, ".attn"), windows, heads, Some(bias));
    // window reverse
    let rev = b.reshape(
        &sub_name(name, ".rev_grid"),
        att,
        &[
            batch as i64,
            nw as i64,
            nw as i64,
            WINDOW as i64,
            WINDOW as i64,
            c as i64,
        ],
    );
    let rev = b.transpose(&sub_name(name, ".rev_transpose"), rev, &[0, 1, 3, 2, 4, 5]);
    let mut back = b.reshape(
        &sub_name(name, ".rev_full"),
        rev,
        &[batch as i64, h as i64, h as i64, c as i64],
    );
    if shifted {
        back = roll(
            b,
            &sub_name(name, ".unshift_h"),
            back,
            1,
            (h - WINDOW / 2) as i64,
        );
        back = roll(
            b,
            &sub_name(name, ".unshift_w"),
            back,
            2,
            (h - WINDOW / 2) as i64,
        );
    }
    let tokens = b.reshape(
        &sub_name(name, ".to_tokens"),
        back,
        &[batch as i64, (h * h) as i64, c as i64],
    );
    let x = b.add(&sub_name(name, ".add1"), x, tokens);
    let n2 = b.layer_norm_decomposed(&sub_name(name, ".norm2"), x);
    let m = mlp(b, &sub_name(name, ".mlp"), n2, c * 4, c);
    b.add(&sub_name(name, ".add2"), x, m)
}

/// Patch merging: 2×2 neighbourhood concat (4 strided slices) + LN +
/// linear 4C→2C.
fn patch_merging(b: &mut GraphBuilder, name: &str, x: TensorId, batch: u64, h: u64) -> TensorId {
    let c = *b.shape(x).dims().last().unwrap();
    let grid = b.reshape(
        &sub_name(name, ".to_grid"),
        x,
        &[batch as i64, h as i64, h as i64, c as i64],
    );
    let mut quads = Vec::with_capacity(4);
    for (i, (oh, ow)) in [(0i64, 0i64), (1, 0), (0, 1), (1, 1)].iter().enumerate() {
        quads.push(
            b.push(
                &format!("{name}.slice_{i}"),
                OpKind::Slice,
                Attributes::new()
                    .with_ints("starts", &[*oh, *ow])
                    .with_ints("ends", &[h as i64, h as i64])
                    .with_ints("axes", &[1, 2])
                    .with_ints("steps", &[2, 2]),
                &[grid],
            ),
        );
    }
    let cat = b.concat(&sub_name(name, ".concat"), &quads, -1);
    let tokens = b.reshape(
        &sub_name(name, ".to_tokens"),
        cat,
        &[batch as i64, ((h / 2) * (h / 2)) as i64, (4 * c) as i64],
    );
    let n = b.layer_norm_decomposed(&sub_name(name, ".norm"), tokens);
    b.linear(&sub_name(name, ".reduction"), n, 2 * c, false)
}

/// Build a Swin Transformer at the given batch size.
pub fn swin(batch: u64, size: SwinSize) -> Graph {
    let (embed, depths, heads) = size.config();
    let mut b = GraphBuilder::new(size.name());
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);
    // patch embedding: conv 4×4/4 → [B, C, 56, 56] → tokens + LN
    let p = b.conv("patch_embed", x, embed, 4, 4, 0, 1, true);
    let p = b.reshape(
        "patch_embed/reshape",
        p,
        &[batch as i64, embed as i64, 56 * 56],
    );
    let p = b.transpose("patch_embed/transpose", p, &[0, 2, 1]);
    let mut y = b.layer_norm_decomposed("patch_embed.norm", p);

    let mut res = 56u64;
    for (stage, (&depth, &nheads)) in depths.iter().zip(&heads).enumerate() {
        for i in 0..depth {
            y = swin_block(
                &mut b,
                &format!("layers.{stage}.blocks.{i}"),
                y,
                batch,
                res,
                nheads,
                i % 2 == 1, // alternate W-MSA / SW-MSA
            );
        }
        if stage < 3 {
            y = patch_merging(&mut b, &format!("layers.{stage}.downsample"), y, batch, res);
            res /= 2;
        }
    }
    y = b.layer_norm_decomposed("norm", y);
    let pooled = b.push(
        "pool",
        OpKind::ReduceMean,
        Attributes::new()
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
    fn tiny_params_match_reference() {
        let g = swin(1, SwinSize::Tiny);
        let params_m = g.param_count() as f64 / 1e6;
        // reference 28.3 M + dense rel-pos tables ≈ 28.6 (paper: 28.8)
        assert!((params_m - 28.8).abs() < 1.0, "params {params_m}M");
    }

    #[test]
    fn small_and_base_params() {
        let s = swin(1, SwinSize::Small).param_count() as f64 / 1e6;
        assert!((s - 50.5).abs() < 1.5, "small {s}M");
        let b_ = swin(1, SwinSize::Base).param_count() as f64 / 1e6;
        assert!((b_ - 88.9).abs() < 2.5, "base {b_}M");
    }

    #[test]
    fn small_and_base_share_topology() {
        assert_eq!(
            swin(1, SwinSize::Small).node_count(),
            swin(1, SwinSize::Base).node_count()
        );
        assert!(swin(1, SwinSize::Tiny).node_count() < swin(1, SwinSize::Small).node_count());
    }

    #[test]
    fn output_shape_and_batch() {
        let g = swin(2, SwinSize::Tiny);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[2, 1000]);
    }

    #[test]
    fn shifted_blocks_emit_roll_slices() {
        let g = swin(1, SwinSize::Tiny);
        let shifts = g
            .nodes
            .iter()
            .filter(|n| n.name.contains(".shift_h/concat"))
            .count();
        // one shifted block per pair: depths [2,2,6,2] → 1+1+3+1 = 6
        assert_eq!(shifts, 6);
    }
}
