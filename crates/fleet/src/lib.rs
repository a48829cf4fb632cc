//! proof-fleet: a sharded multi-node profiling coordinator.
//!
//! PRoof's evaluation is a large grid — models × backends × platforms ×
//! precisions × batch sizes (paper Tables 3–5) — and a single `proof-serve`
//! daemon works through it one bounded queue at a time. This crate scales
//! that grid out: a [`GridSpec`](proof_core::GridSpec) is expanded into
//! canonically ordered shards ([`planner`]), dispatched over the existing
//! HTTP JSON API to a registry of worker daemons ([`registry`], [`client`],
//! [`dispatcher`]) — capacity/latency-weighted
//! ([`NodeRegistry::pick_weighted`]): each candidate is scored by estimated
//! completion time from its advertised worker count and an EWMA of
//! observed shard latency, so heterogeneous fleets keep fast nodes fed —
//! and the per-cell reports are reassembled ([`merger`]), copied on one
//! thread per core as the shards land — or, for a report whose bytes
//! repeat the last run's for the same shard, taken from that run's copy
//! — into one combined artifact that is **byte-identical** to a
//! single-node run of the same spec and seed, wherever each shard ran.
//!
//! Fault model: a node that times out, keeps answering 429/5xx past the
//! shard deadline, or dies mid-job has its shards requeued onto surviving
//! nodes; health probes revive nodes that come back. Every decision is
//! counted on a `proof-obs` metrics registry and traced as a fleet span
//! tree, so `GET /metrics` on the coordinator ([`server`]) shows dispatch,
//! reschedule, and probe activity per node.
//!
//! Grid runs are job-style: [`Fleet::submit_grid`] returns a
//! [`RunHandle`] immediately and queues the run for the fleet's one run
//! thread, which owns the node registry and runs accepted grids one at a
//! time in submission order, publishing per-shard progress through a
//! seq-numbered [`ProgressSink`] ([`progress`], [`runs`]);
//! [`Fleet::run_grid`] is the synchronous submit-and-wait wrapper. The
//! coordinator HTTP surface ([`server`]) exposes both forms (`POST /grid`,
//! `POST /grid/submit`, `GET /grid/<id>/status?since=<seq>`,
//! `GET /grid/<id>/result`) and stays fully readable mid-run via the
//! shared [`FleetView`].
//!
//! ```no_run
//! use proof_fleet::{Fleet, FleetConfig};
//! use proof_core::GridSpec;
//!
//! let spec = GridSpec::from_value(
//!     &serde_json::from_str(r#"{"model":"resnet-50","platform":"a100","batches":[1,2,4]}"#)
//!         .unwrap(),
//! )
//! .unwrap();
//! // coordinator + two embedded local daemons
//! let fleet = Fleet::start(FleetConfig::local(2)).unwrap();
//! // streaming: watch shard completions while the run thread dispatches
//! let handle = fleet.submit_grid(&spec).unwrap();
//! let run = handle.wait().unwrap();
//! assert!(run.merged.contains("\"cells\""));
//! fleet.shutdown();
//! ```

pub mod client;
pub mod coordinator;
pub mod dispatcher;
pub mod merger;
pub mod planner;
pub mod progress;
pub mod registry;
pub mod runs;
pub mod server;
pub mod trace;

pub use client::{
    CoordinatorClient, JobPoll, NodeHealth, Pending, RunResult, Submission, WorkerClient,
    WorkerError, WorkerHealth,
};
pub use coordinator::{run_grid_local, Fleet, FleetConfig, FleetError, FleetRun};
pub use dispatcher::{
    DispatchCtx, DispatchOutcome, Dispatcher, DispatcherConfig, FleetCounters, ShardReport,
};
pub use merger::merge_run;
pub use planner::{plan_shards, Shard, ShardPlan};
pub use progress::{ProgressCounts, ProgressEvent, ProgressKind, ProgressSink};
pub use registry::{NodeRegistry, NodeSnapshot, NodeState};
pub use runs::{FleetView, RunHandle, RunLedger, RunState, RunStatus};
pub use server::{FleetServer, FleetServerConfig};
pub use trace::merge_fleet_trace;
