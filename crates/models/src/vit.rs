//! Vision Transformer (Dosovitskiy et al., 2021): tiny/small/base, patch 16,
//! 224×224 → 197 tokens.

use crate::blocks::{mha, mlp};
use proof_ir::{sub_name, DType, Graph, GraphBuilder};

/// ViT size configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViTSize {
    Tiny,
    Small,
    Base,
    Large,
}

impl ViTSize {
    /// (embed dim, depth, heads)
    pub fn config(self) -> (u64, u64, u64) {
        match self {
            ViTSize::Tiny => (192, 12, 3),
            ViTSize::Small => (384, 12, 6),
            ViTSize::Base => (768, 12, 12),
            ViTSize::Large => (1024, 24, 16),
        }
    }

    fn name(self) -> &'static str {
        match self {
            ViTSize::Tiny => "vit-tiny",
            ViTSize::Small => "vit-small",
            ViTSize::Base => "vit-base",
            ViTSize::Large => "vit-large",
        }
    }
}

/// Build a ViT at the given batch size.
pub fn vit(batch: u64, size: ViTSize) -> Graph {
    let (embed, depth, heads) = size.config();
    let tokens = 14 * 14 + 1; // 196 patches + cls
    let mut b = GraphBuilder::new(size.name());
    let x = b.input("input", &[batch, 3, 224, 224], DType::F32);

    // patch embedding: conv 16×16/16 → [B, E, 14, 14] → flatten → [B, 196, E]
    let p = b.conv("patch_embed", x, embed, 16, 16, 0, 1, true);
    let p = b.reshape("patch_embed/reshape", p, &[batch as i64, embed as i64, 196]);
    let p = b.transpose("patch_embed/transpose", p, &[0, 2, 1]);

    // class token prepend + position embedding
    let cls = b.weight("cls_token", &[1, 1, embed]);
    let cls_b = b.push(
        "cls_expand",
        proof_ir::OpKind::Expand,
        proof_ir::Attributes::new().with_ints("shape", &[batch as i64, 1, embed as i64]),
        &[cls],
    );
    let mut y = b.concat("cat_cls", &[cls_b, p], 1);
    let pos = b.weight("pos_embed", &[1, tokens, embed]);
    y = b.add("pos_add", y, pos);

    for i in 0..depth {
        let blk = format!("blocks.{i}");
        let n1 = b.layer_norm_decomposed(&sub_name(&blk, ".norm1"), y);
        let att = mha(&mut b, &sub_name(&blk, ".attn"), n1, heads, None);
        y = b.add(&sub_name(&blk, ".add1"), y, att);
        let n2 = b.layer_norm_decomposed(&sub_name(&blk, ".norm2"), y);
        let m = mlp(&mut b, &sub_name(&blk, ".mlp"), n2, embed * 4, embed);
        y = b.add(&sub_name(&blk, ".add2"), y, m);
    }
    y = b.layer_norm_decomposed("norm", y);
    // classifier on the cls token
    let cls_tok = b.slice("cls_select", y, &[0], &[1], &[1]);
    let cls_tok = b.reshape("cls_flatten", cls_tok, &[batch as i64, embed as i64]);
    let out = b.linear("head", cls_tok, 1000, true);
    b.output(out);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vit_base_params_match_reference() {
        let g = vit(1, ViTSize::Base);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 86.6).abs() < 1.0, "params {params_m}M");
    }

    #[test]
    fn vit_tiny_and_small_params() {
        let t = vit(1, ViTSize::Tiny).param_count() as f64 / 1e6;
        assert!((t - 5.7).abs() < 0.3, "tiny {t}M");
        let s = vit(1, ViTSize::Small).param_count() as f64 / 1e6;
        assert!((s - 22.1).abs() < 0.5, "small {s}M");
    }

    #[test]
    fn all_sizes_share_node_count() {
        // same topology, different widths (paper: 786 nodes for all three)
        let a = vit(1, ViTSize::Tiny).node_count();
        let b_ = vit(1, ViTSize::Small).node_count();
        let c = vit(1, ViTSize::Base).node_count();
        assert_eq!(a, b_);
        assert_eq!(b_, c);
        assert!(a > 500, "{a} nodes");
    }

    #[test]
    fn vit_large_params() {
        let l = vit(1, ViTSize::Large).param_count() as f64 / 1e6;
        assert!((l - 304.0).abs() < 5.0, "large {l}M");
    }

    #[test]
    fn output_is_logits() {
        let g = vit(4, ViTSize::Tiny);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[4, 1000]);
    }
}
