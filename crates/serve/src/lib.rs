//! proof-serve: profiling-as-a-service on top of the PRoof pipeline.
//!
//! A daemon that accepts analysis jobs over a minimal HTTP/1.1 JSON API,
//! schedules them on a bounded FIFO queue drained by a worker pool, runs
//! the existing pipeline (proof-models → proof-runtime → proof-core), and
//! content-addresses every artifact by the stable hash of its canonical job
//! spec — identical submissions cost exactly one simulation.
//!
//! Artifacts live in a `proof-store` [`TieredStore`] (memory LRU → disk →
//! remote peers); the daemon exposes its local tiers to other daemons via
//! `GET/PUT /cache/<key>`, so a fleet of proof-serve nodes shares one
//! logical cache.
//!
//! ```no_run
//! use proof_serve::{Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let body = r#"{"model":"resnet-50","hardware":"a100","batch":8}"#;
//! let (status, reply) = proof_serve::client::post(server.addr(), "/jobs", body).unwrap();
//! assert_eq!(status, 201);
//! println!("{reply}");
//! server.shutdown(); // drains every accepted job first
//! ```

pub mod client;
pub mod http;
pub mod job;
pub mod metrics;
pub mod peer;
pub mod queue;
pub mod server;
pub mod stage_cache;

pub use http::{HttpServer, Response, Routes};
pub use job::AnalysisJob;
pub use metrics::{Histogram, HistogramSnapshot, StageHistograms, WorkerMetrics, WorkerSnapshot};
pub use peer::HttpPeer;
pub use proof_store::{ArtifactKey, HitTier, Lookup, StoreStats, TieredStore};
pub use queue::JobQueue;
pub use server::{
    panic_message, CacheTiers, JobStatus, PeerList, PeersAdded, ServeConfig, Server,
    ShutdownReport, SpanView, TraceSpans, MAX_JOB_WAIT,
};
pub use stage_cache::{StageCache, StageCacheStats, StageGuard, StageLookup};
