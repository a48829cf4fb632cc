//! # proof-obs — structured tracing and metrics for the PRoof stack
//!
//! A zero-dependency observability facade shared by every crate in the
//! workspace:
//!
//! - **spans** — hierarchical, with u64 ids, parent links, and typed
//!   key/value fields ([`SpanRecord`]), opened through the free functions
//!   [`span()`] and [`span_in`]. A closing span goes to its thread's active
//!   [`Capture`], or nowhere.
//! - **span capture** — a per-thread [`Capture`] that keeps one unit of
//!   work's spans (a serve job, a traced CLI profile) for its owner, bounded
//!   by [`CAPTURE_CAPACITY`] with counted overflow.
//! - **metrics** — a [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s,
//!   and log2 latency [`Histogram`]s with a snapshot API.
//! - **exporters** — Chrome-trace JSON ([`export::chrome_trace_json`]) and
//!   Prometheus text exposition ([`export::prometheus_text`]).
//! - **events** — leveled log lines ([`Level`], [`event`]) that reach
//!   stderr when the `PROOF_LOG` environment variable admits the level, and
//!   go nowhere otherwise.
//! - **flight recorder** — a bounded ring of recent structured operational
//!   events ([`FlightRecorder`]) that daemons expose at `GET /debug/events`
//!   and dump to stderr when a panic is caught.
//! - **fault injection** — a deterministic, seed-scopeable [`FaultPlan`]
//!   (`PROOF_FAULT` env or [`fault::install`]) that can make any named
//!   site panic, stall, or fail transiently, so robustness machinery
//!   (retries, deadlines, panic isolation) is testable bit-for-bit.
//!
//! Span timestamps come from one *logical* clock: per-trace timestamps are
//! a deterministic counter that only span opens and closes advance, so an
//! exported trace is byte-for-bit reproducible for a given request sequence
//! — matching the repo's seeded-simulation discipline — whatever `PROOF_LOG`
//! says. Real wall durations are kept alongside in [`SpanRecord::wall_us`]
//! for latency accounting.

pub mod capture;
mod clock;
pub mod export;
pub mod fault;
pub mod flight;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use capture::{Capture, Captured, CAPTURE_CAPACITY};
pub use export::TraceEvent;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use span::{FieldValue, Level, SpanRecord};
pub use tracer::{event, event_enabled, new_trace_id, span, span_in, stderr_level, SpanGuard};
