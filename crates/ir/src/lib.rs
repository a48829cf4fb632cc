//! # proof-ir — ONNX-compatible graph IR
//!
//! The intermediate representation PRoof analyses. It mirrors the subset of
//! ONNX that the paper's 20 evaluation models exercise:
//!
//! - [`DType`] / [`Shape`] / [`TensorInfo`] — typed, concretely-shaped tensors
//!   (batch dimensions are concrete; models are rebuilt per batch size, which
//!   matches how PRoof runs one configuration at a time),
//! - [`OpKind`] + [`Attributes`] — ~60 operator kinds with ONNX attribute
//!   semantics,
//! - [`Node`] / [`Graph`] — a flat, topologically-ordered compute graph with
//!   validation,
//! - [`GraphIndex`] / [`NameIndex`] — dense producer/consumer tables and
//!   name → id maps, built once per graph by the passes that search it,
//! - [`GraphBuilder`] — an eager builder that runs [shape
//!   inference](infer::infer_shapes) as nodes are appended, so every tensor in
//!   a constructed graph has a known shape (the equivalent of running ONNX
//!   shape inference, which PRoof requires),
//! - JSON serialization (standing in for ONNX protobuf) and DOT export.
//!
//! Deviations from ONNX, chosen for a self-contained reproduction, are
//! documented on each operator: notably `Reshape`/`Expand`/`Slice` take their
//! shape arguments as *attributes* rather than dynamic tensor inputs (DNN
//! inference graphs have static control flow — the paper's own observation —
//! so nothing is lost).

pub mod attr;
pub mod builder;
pub mod dot;
pub mod dtype;
pub mod graph;
pub mod index;
pub mod infer;
pub mod node;
pub mod op;
pub mod pass;
pub mod shape;
pub mod subgraph;
pub mod tensor;

pub use attr::{AttrValue, Attributes};
pub use builder::GraphBuilder;
pub use dtype::DType;
pub use graph::{Graph, GraphError, NodeId, TensorId};
pub use index::{GraphIndex, NameIndex};
pub use infer::{infer_shapes, ShapeError};
pub use node::Node;
pub use op::{OpCategory, OpKind};
pub use shape::Shape;
pub use tensor::{TensorInfo, TensorKind};
