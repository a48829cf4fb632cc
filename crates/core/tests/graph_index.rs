//! The graph index answers exactly what the lookups it replaced answered:
//! producer and consumer tables equal the `HashMap` tables compile and map
//! used to build, name lookups equal a linear first-match scan. Also pins
//! the edge cases those lookups had, and that graph io ids are range-checked
//! before anything indexes by them.

use proof_core::{AnalyzeRepr, OptimizedRepr};
use proof_ir::{DType, Graph, GraphBuilder, GraphError, GraphIndex, NameIndex, NodeId, TensorId};
use proof_models::ModelId;
use std::collections::HashMap;

/// tensor → producing node, the last one winning (the old `Graph::producers`).
fn producer_table(g: &Graph) -> HashMap<TensorId, NodeId> {
    let mut map = HashMap::new();
    for (id, n) in g.iter_nodes() {
        for &t in &n.outputs {
            map.insert(t, id);
        }
    }
    map
}

/// tensor → consuming nodes in node order (the old `Graph::consumers`).
fn consumer_table(g: &Graph) -> HashMap<TensorId, Vec<NodeId>> {
    let mut map: HashMap<TensorId, Vec<NodeId>> = HashMap::new();
    for (id, n) in g.iter_nodes() {
        for &t in &n.inputs {
            map.entry(t).or_default().push(id);
        }
    }
    map
}

fn node_scan(g: &Graph, name: &str) -> Option<NodeId> {
    g.nodes
        .iter()
        .position(|n| n.name == name)
        .map(|i| i as NodeId)
}

fn tensor_scan(g: &Graph, name: &str) -> Option<TensorId> {
    g.tensors
        .iter()
        .position(|t| t.name == name)
        .map(|i| i as TensorId)
}

fn assert_index_matches_scans(g: &Graph) {
    let ix = GraphIndex::new(g);
    let names = NameIndex::new(g);
    let producers = producer_table(g);
    let consumers = consumer_table(g);
    for (t, info) in g.tensors.iter().enumerate() {
        let t = t as TensorId;
        assert_eq!(ix.producer(t), producers.get(&t).copied(), "{}", info.name);
        let want = consumers.get(&t).map(Vec::as_slice).unwrap_or_default();
        assert_eq!(ix.consumers(t), want, "{}", info.name);
        let sole = (want.len() == 1).then(|| want[0]);
        assert_eq!(ix.sole_consumer(t), sole, "{}", info.name);
        assert_eq!(names.tensor(&info.name), tensor_scan(g, &info.name));
    }
    for n in &g.nodes {
        assert_eq!(names.node(&n.name), node_scan(g, &n.name));
    }
    assert_eq!(names.node("no such node"), None);
    assert_eq!(names.tensor("no such tensor"), None);
}

#[test]
fn index_matches_linear_scans_on_every_zoo_model() {
    for model in ModelId::ALL {
        assert_index_matches_scans(&model.build(1));
    }
}

fn tiny() -> Graph {
    let mut b = GraphBuilder::new("tiny");
    let x = b.input("x", &[1, 4], DType::F32);
    let a = b.relu("a", x);
    let s = b.sigmoid("s", a);
    b.output(s);
    b.finish()
}

#[test]
fn duplicate_names_in_an_unvalidated_graph_resolve_to_the_first() {
    let mut g = tiny();
    g.nodes[1].name = g.nodes[0].name.clone();
    g.tensors[2].name = g.tensors[1].name.clone();
    assert!(g.validate().is_err());
    assert_index_matches_scans(&g);
    let names = NameIndex::new(&g);
    assert_eq!(names.node(&g.nodes[0].name), Some(0));
    assert_eq!(names.tensor(&g.tensors[1].name), Some(1));
    let repr = OptimizedRepr::new(AnalyzeRepr::new(&g, DType::F32));
    assert_eq!(repr.node_named(&g.nodes[0].name), Some(0));
    assert_eq!(repr.resolve_tensor(&g.tensors[1].name), Some(1));
}

#[test]
fn a_tensor_nobody_reads_has_no_consumers() {
    let g = tiny();
    let out = g.outputs[0];
    assert!(!consumer_table(&g).contains_key(&out));
    let ix = GraphIndex::new(&g);
    assert!(ix.consumers(out).is_empty());
    assert_eq!(ix.sole_consumer(out), None);
    assert_eq!(ix.producer(g.inputs[0]), None);
}

#[test]
fn a_registered_alias_shadows_a_real_tensor_name() {
    let g = tiny();
    let mut repr = OptimizedRepr::new(AnalyzeRepr::new(&g, DType::F32));
    let x = g.inputs[0];
    let out = g.outputs[0];
    assert_eq!(repr.resolve_tensor(&g.tensor(x).name), Some(x));
    repr.set_tensor_alias(&g.tensor(x).name, out);
    assert_eq!(repr.resolve_tensor(&g.tensor(x).name), Some(out));
}

#[test]
fn from_json_rejects_out_of_range_graph_io() {
    let g = ModelId::ResNet34.build(1);
    let mut bad = g.clone();
    bad.outputs.push(99_999);
    let err = Graph::from_json(&bad.to_json()).unwrap_err();
    assert_eq!(
        err,
        GraphError::DanglingGraphIo { tensor: 99_999 }.to_string()
    );
    let mut bad = g.clone();
    bad.inputs.push(99_999);
    assert!(Graph::from_json(&bad.to_json()).is_err());
    Graph::from_json(&g.to_json()).unwrap();
}
