//! # proof-runtime — DNN inference runtime simulator
//!
//! A from-scratch substrate standing in for TensorRT / ONNX Runtime /
//! OpenVINO. Given a model graph, a [`proof_hw::Platform`] and a
//! [`SessionConfig`], a backend:
//!
//! 1. optimizes the graph — no-op elimination, Conv/Gemm epilogue fusion,
//!    LayerNorm/GELU pattern fusion, opaque Myelin-style attention regions
//!    ([`fusion`]),
//! 2. inserts reorder/reformat layers at precision/layout boundaries,
//! 3. lowers each backend layer to kernels with an implementation-aware
//!    *Hardware FLOP* / DRAM-traffic cost ([`lower`]) — deliberately
//!    different from PRoof's analytical *Model FLOP*, reproducing the
//!    semantic gap of the paper's Table 4,
//! 4. simulates kernel latencies with a roofline-plus-efficiency model and
//!    seeded noise ([`exec`]),
//! 5. exposes exactly the (partial) information real runtimes expose:
//!    per-backend-layer latencies with flavour-specific fusion hints
//!    ([`backend::LayerHint`]) and a kernel trace for counter profilers.
//!
//! Ground-truth fusion membership is available via
//! [`backend::BackendLayer::truth_members`] for tests only — the PRoof side
//! (`proof-core`) never reads it.

pub mod backend;
pub mod config;
pub mod exec;
pub mod fusion;
pub mod lower;
pub mod trace;

pub use backend::{
    compile, BackendError, BackendFlavor, BackendLayer, CompiledModel, LayerHint, LayerProfile,
    LayerStats,
};
pub use config::{SessionConfig, DEFAULT_SEED};
pub use exec::Utilization;
pub use fusion::{FusionPolicy, GroupKind, RtGroup};
pub use lower::{Kernel, KernelClass, KernelCost};
pub use trace::{chrome_trace, kernel_events};
