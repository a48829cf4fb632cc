//! Graphviz DOT export for model graphs (debugging aid / data-viewer input).

use crate::{Graph, GraphIndex, OpCategory};

pub use crate::op::OpCategory as Category;

fn color(cat: OpCategory) -> &'static str {
    match cat {
        OpCategory::Contraction => "#d62728",
        OpCategory::Normalization => "#9467bd",
        OpCategory::Elementwise => "#2ca02c",
        OpCategory::Reduction => "#8c564b",
        OpCategory::Pooling => "#e377c2",
        OpCategory::DataMovement => "#1f77b4",
        OpCategory::Metadata => "#7f7f7f",
    }
}

/// Render the graph as Graphviz DOT. Nodes are coloured by
/// [`OpCategory`]; edges are labelled with tensor shapes.
pub fn to_dot(g: &Graph) -> String {
    let mut out = String::with_capacity(g.nodes.len() * 96);
    out.push_str(&format!("digraph \"{}\" {{\n  rankdir=TB;\n  node [shape=box, style=filled, fontname=\"monospace\"];\n", g.name));
    for (i, n) in g.nodes.iter().enumerate() {
        out.push_str(&format!(
            "  n{i} [label=\"{}\\n{}\", fillcolor=\"{}\", fontcolor=white];\n",
            n.name,
            n.op,
            color(n.op.category())
        ));
    }
    let ix = GraphIndex::new(g);
    for (i, n) in g.nodes.iter().enumerate() {
        for &inp in &n.inputs {
            if let Some(src) = ix.producer(inp) {
                out.push_str(&format!(
                    "  n{src} -> n{i} [label=\"{}\"];\n",
                    g.tensor(inp).shape
                ));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder};

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let mut b = GraphBuilder::new("g");
        let x = b.input("x", &[1, 3, 8, 8], DType::F32);
        let c = b.conv("conv", x, 4, 3, 1, 1, 1, false);
        let r = b.relu("relu", c);
        b.output(r);
        let dot = to_dot(&b.finish());
        assert!(dot.contains("digraph \"g\""));
        assert!(dot.contains("conv"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("[1x4x8x8]"));
    }
}
