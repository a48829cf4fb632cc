//! DistilBERT base (Sanh et al.): 6-layer, 768-hidden, 12-head encoder.
//!
//! Exported as the encoder (no task head), sequence length 512 — the
//! configuration that reproduces the paper's 48.7 GFLOP at batch 1.

use crate::blocks::{mha, mlp};
use proof_ir::{sub_name, Attributes, DType, Graph, GraphBuilder, OpKind};

/// Build DistilBERT base at `(batch, seq_len)`: 6 layers, hidden 768.
pub fn distilbert_base(batch: u64, seq_len: u64) -> Graph {
    encoder("distilbert-base", batch, seq_len, 6, 768, 12)
}

/// Build BERT base at `(batch, seq_len)`: 12 layers, hidden 768 (an
/// extension beyond Table 3 — same post-norm encoder family).
pub fn bert_base(batch: u64, seq_len: u64) -> Graph {
    encoder("bert-base", batch, seq_len, 12, 768, 12)
}

/// Generic post-norm BERT-family encoder.
pub fn encoder(
    name: &str,
    batch: u64,
    seq_len: u64,
    layers: u64,
    hidden: u64,
    heads: u64,
) -> Graph {
    let vocab = 30522u64;
    let max_pos = 512u64;
    assert!(seq_len <= max_pos, "seq_len {seq_len} > max positions");

    let mut b = GraphBuilder::new(name);
    let ids = b.input("input_ids", &[batch, seq_len], DType::I64);

    // embeddings: word lookup + position lookup + LayerNorm
    let word_table = b.weight("embeddings.word", &[vocab, hidden]);
    let word = b.gather("embeddings/word_gather", word_table, ids, 0);
    let pos_table = b.weight("embeddings.position", &[max_pos, hidden]);
    let pos_ids = b.push(
        "embeddings/position_ids",
        OpKind::Range,
        Attributes::new().with_int("length", seq_len as i64),
        &[],
    );
    let pos = b.gather("embeddings/pos_gather", pos_table, pos_ids, 0);
    let mut y = b.add("embeddings/add", word, pos);
    y = b.layer_norm_decomposed("embeddings.norm", y);

    for i in 0..layers {
        let blk = format!("transformer.layer.{i}");
        // DistilBERT is post-norm: attn → add → LN → ffn → add → LN
        let att = mha(&mut b, &sub_name(&blk, ".attention"), y, heads, None);
        let a = b.add(&sub_name(&blk, ".add1"), y, att);
        let n1 = b.layer_norm_decomposed(&sub_name(&blk, ".sa_norm"), a);
        let ff = mlp(&mut b, &sub_name(&blk, ".ffn"), n1, hidden * 4, hidden);
        let f = b.add(&sub_name(&blk, ".add2"), n1, ff);
        y = b.layer_norm_decomposed(&sub_name(&blk, ".output_norm"), f);
    }
    b.output(y);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_match_distilbert() {
        let g = distilbert_base(1, 512);
        let params_m = g.param_count() as f64 / 1e6;
        // HF distilbert-base: 66.4 M (paper Table 3: 67.0)
        assert!((params_m - 66.4).abs() < 1.2, "params {params_m}M");
    }

    #[test]
    fn bert_base_params_match_reference() {
        // HF bert-base-uncased encoder (no pooler): ~109 M
        let g = bert_base(1, 128);
        let params_m = g.param_count() as f64 / 1e6;
        assert!((params_m - 109.0).abs() < 3.0, "params {params_m}M");
    }

    #[test]
    fn sequence_and_batch_shape_output() {
        let g = distilbert_base(2, 128);
        assert_eq!(g.tensor(g.outputs[0]).shape.dims(), &[2, 128, 768]);
    }

    #[test]
    #[should_panic(expected = "seq_len")]
    fn rejects_overlong_sequences() {
        distilbert_base(1, 1024);
    }
}
