//! The Stable Diffusion v1.x UNet (Rombach et al., 2022): ~860 M parameters,
//! cross-attention conditioned on 77 CLIP text tokens.
//!
//! Inputs: the latent `[B, 4, R, R]`, a precomputed sinusoidal timestep
//! embedding `[B, 320]`, and the text context `[B, 77, 768]`. The paper runs
//! it at a 128×128 latent with batch 4 for Figure 4 (footnote 5); Table 3's
//! GFLOP row is at batch 1.

use proof_ir::{sub_name, DType, Graph, GraphBuilder, TensorId};

const MODEL_CH: u64 = 320;
const TIME_CH: u64 = 1280;
const CONTEXT_LEN: u64 = 77;
const CONTEXT_DIM: u64 = 768;
const HEADS: u64 = 8;

struct UNetBuilder {
    b: GraphBuilder,
    batch: u64,
    t_emb: TensorId,
    context: TensorId,
}

impl UNetBuilder {
    fn group_norm_silu(&mut self, name: &str, x: TensorId) -> TensorId {
        let n = self.b.group_norm(&sub_name(name, ".norm"), x, 32);
        self.b.silu(&sub_name(name, ".silu"), n)
    }

    /// Residual block with timestep-embedding injection.
    fn res_block(&mut self, name: &str, x: TensorId, cout: u64) -> TensorId {
        let cin = self.b.channels(x);
        let h = self.group_norm_silu(&sub_name(name, ".in"), x);
        let h = self
            .b
            .conv(&sub_name(name, ".conv1"), h, cout, 3, 1, 1, 1, true);
        let e = self.b.silu(&sub_name(name, ".emb_silu"), self.t_emb);
        let e = self.b.linear(&sub_name(name, ".emb_proj"), e, cout, true);
        let e = self.b.reshape(
            &sub_name(name, ".emb_reshape"),
            e,
            &[self.batch as i64, cout as i64, 1, 1],
        );
        let h = self.b.add(&sub_name(name, ".emb_add"), h, e);
        let h = self.group_norm_silu(&sub_name(name, ".out"), h);
        let h = self
            .b
            .conv(&sub_name(name, ".conv2"), h, cout, 3, 1, 1, 1, true);
        let skip = if cin != cout {
            self.b
                .conv(&sub_name(name, ".skip"), x, cout, 1, 1, 0, 1, true)
        } else {
            x
        };
        self.b.add(&sub_name(name, ".add"), skip, h)
    }

    /// Cross-attention (queries from `x` `[B, L, C]`, keys/values from the
    /// text context). With `kv = x` this degenerates to self-attention.
    fn attention(&mut self, name: &str, x: TensorId, kv: TensorId) -> TensorId {
        let dims = self.b.shape(x).dims().to_vec();
        let (batch, len, c) = (dims[0], dims[1], dims[2]);
        let kv_len = self.b.shape(kv).dims()[1];
        let hd = c / HEADS;
        let b = &mut self.b;
        let q = b.linear(&sub_name(name, ".to_q"), x, c, false);
        let k = b.linear(&sub_name(name, ".to_k"), kv, c, false);
        let v = b.linear(&sub_name(name, ".to_v"), kv, c, false);
        let reshape4 = |b: &mut GraphBuilder, t, tag: &str, l: u64, perm: &[i64]| {
            let r = b.reshape(
                &format!("{name}.{tag}_reshape"),
                t,
                &[batch as i64, l as i64, HEADS as i64, hd as i64],
            );
            b.transpose(&format!("{name}.{tag}_transpose"), r, perm)
        };
        let qh = reshape4(b, q, "q", len, &[0, 2, 1, 3]);
        let kh = reshape4(b, k, "k", kv_len, &[0, 2, 3, 1]);
        let vh = reshape4(b, v, "v", kv_len, &[0, 2, 1, 3]);
        let scores = b.matmul(&sub_name(name, ".qk"), qh, kh);
        let scale = b.scalar(&sub_name(name, ".scale"));
        let scaled = b.mul(&sub_name(name, ".scaled"), scores, scale);
        let probs = b.softmax(&sub_name(name, ".softmax"), scaled, -1);
        let ctx = b.matmul(&sub_name(name, ".av"), probs, vh);
        let merged = b.transpose(&sub_name(name, ".merge_transpose"), ctx, &[0, 2, 1, 3]);
        let flat = b.reshape(
            &sub_name(name, ".merge_reshape"),
            merged,
            &[batch as i64, len as i64, c as i64],
        );
        b.linear(&sub_name(name, ".to_out"), flat, c, true)
    }

    /// GEGLU feed-forward: linear → split → GELU-gate → linear.
    fn geglu_ff(&mut self, name: &str, x: TensorId) -> TensorId {
        let c = *self.b.shape(x).dims().last().unwrap();
        let b = &mut self.b;
        let proj = b.linear(&sub_name(name, ".proj"), x, 8 * c, true);
        let (a, gate) = b.split2(&sub_name(name, ".split"), proj, -1);
        let g = b.gelu(&sub_name(name, ".gelu"), gate);
        let gated = b.mul(&sub_name(name, ".mul"), a, g);
        b.linear(&sub_name(name, ".out"), gated, c, true)
    }

    /// Spatial transformer: GN → proj_in → (self-attn, cross-attn, GEGLU FF)
    /// → proj_out + residual.
    fn spatial_transformer(&mut self, name: &str, x: TensorId) -> TensorId {
        let c = self.b.channels(x);
        let dims = self.b.shape(x).dims().to_vec();
        let (h, w) = (dims[2], dims[3]);
        let n = self.b.group_norm(&sub_name(name, ".norm"), x, 32);
        let p = self
            .b
            .conv(&sub_name(name, ".proj_in"), n, c, 1, 1, 0, 1, true);
        let t = self.b.reshape(
            &sub_name(name, ".to_tokens"),
            p,
            &[self.batch as i64, c as i64, (h * w) as i64],
        );
        let mut y = self
            .b
            .transpose(&sub_name(name, ".transpose_in"), t, &[0, 2, 1]);
        // basic transformer block (depth 1 in SD v1)
        let n1 = self.b.layer_norm_fused(&sub_name(name, ".norm1"), y);
        let sa = self.attention(&sub_name(name, ".attn1"), n1, n1);
        y = self.b.add(&sub_name(name, ".add1"), y, sa);
        let n2 = self.b.layer_norm_fused(&sub_name(name, ".norm2"), y);
        let ca = self.attention(&sub_name(name, ".attn2"), n2, self.context);
        y = self.b.add(&sub_name(name, ".add2"), y, ca);
        let n3 = self.b.layer_norm_fused(&sub_name(name, ".norm3"), y);
        let ff = self.geglu_ff(&sub_name(name, ".ff"), n3);
        y = self.b.add(&sub_name(name, ".add3"), y, ff);
        let back = self
            .b
            .transpose(&sub_name(name, ".transpose_out"), y, &[0, 2, 1]);
        let grid = self.b.reshape(
            &sub_name(name, ".to_grid"),
            back,
            &[self.batch as i64, c as i64, h as i64, w as i64],
        );
        let o = self
            .b
            .conv(&sub_name(name, ".proj_out"), grid, c, 1, 1, 0, 1, true);
        self.b.add(&sub_name(name, ".res_add"), x, o)
    }
}

/// Build the SD v1.x UNet at `(batch, latent resolution)`.
pub fn sd_unet(batch: u64, latent: u64) -> Graph {
    let mut b = GraphBuilder::new("sd-unet");
    let x = b.input("latent", &[batch, 4, latent, latent], DType::F32);
    let t_in = b.input("t_emb", &[batch, MODEL_CH], DType::F32);
    let context = b.input("context", &[batch, CONTEXT_LEN, CONTEXT_DIM], DType::F32);

    // time embedding MLP
    let t = b.linear("time_embed.0", t_in, TIME_CH, true);
    let t = b.silu("time_embed.silu", t);
    let t_emb = b.linear("time_embed.2", t, TIME_CH, true);

    let mut u = UNetBuilder {
        b,
        batch,
        t_emb,
        context,
    };

    let chans = [MODEL_CH, 2 * MODEL_CH, 4 * MODEL_CH, 4 * MODEL_CH];
    let mut h = u.b.conv("input_blocks.0", x, MODEL_CH, 3, 1, 1, 1, true);
    let mut skips: Vec<TensorId> = vec![h];

    // ---- encoder ----
    for (level, &c) in chans.iter().enumerate() {
        for i in 0..2 {
            let name = format!("input_blocks.{level}.{i}");
            h = u.res_block(&sub_name(&name, ".res"), h, c);
            if level < 3 {
                h = u.spatial_transformer(&sub_name(&name, ".st"), h);
            }
            skips.push(h);
        }
        if level < 3 {
            h = u.b.conv(
                &format!("input_blocks.{level}.down"),
                h,
                c,
                3,
                2,
                1,
                1,
                true,
            );
            skips.push(h);
        }
    }

    // ---- middle ----
    h = u.res_block("middle.res1", h, 4 * MODEL_CH);
    h = u.spatial_transformer("middle.st", h);
    h = u.res_block("middle.res2", h, 4 * MODEL_CH);

    // ---- decoder ----
    for (level, &c) in chans.iter().enumerate().rev() {
        for i in 0..3 {
            let name = format!("output_blocks.{level}.{i}");
            let skip = skips.pop().expect("skip stack underflow");
            let cat = u.b.concat(&sub_name(&name, ".cat"), &[h, skip], 1);
            h = u.res_block(&sub_name(&name, ".res"), cat, c);
            if level < 3 {
                h = u.spatial_transformer(&sub_name(&name, ".st"), h);
            }
        }
        if level > 0 {
            h = u.b.resize2x(&format!("output_blocks.{level}.upsample"), h);
            h = u.b.conv(
                &format!("output_blocks.{level}.up_conv"),
                h,
                c,
                3,
                1,
                1,
                1,
                true,
            );
        }
    }

    // ---- head ----
    let o = u.group_norm_silu("out", h);
    let o = u.b.conv("out.conv", o, 4, 3, 1, 1, 1, true);
    u.b.output(o);
    u.b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_match_sd_v1_unet() {
        let g = sd_unet(1, 32); // small latent: params don't depend on resolution
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 859.5).abs() < 20.0, "params {params_m}M");
    }

    #[test]
    fn skip_stack_balances_and_output_is_latent_shaped() {
        let g = sd_unet(2, 64);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[2, 4, 64, 64]);
    }

    #[test]
    fn three_inputs() {
        let g = sd_unet(1, 32);
        assert_eq!(g.inputs.len(), 3);
    }
}
