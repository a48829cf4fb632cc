//! # proof-obs — structured tracing and metrics for the PRoof stack
//!
//! A zero-dependency observability facade shared by every crate in the
//! workspace:
//!
//! - **spans** — hierarchical, with u64 ids, parent links, and typed
//!   key/value fields ([`SpanRecord`]), opened through a process-global
//!   [`Tracer`] and recorded via the pluggable [`Collector`] trait. The
//!   default global tracer is disabled (no-op collector); installing the
//!   shared ring tracer turns collection on everywhere at once.
//! - **span capture** — a per-thread [`Capture`] that keeps one unit of
//!   work's spans (a serve job, a traced CLI profile) for its owner, bounded
//!   by [`CAPTURE_CAPACITY`] with counted overflow, instead of the ring.
//! - **metrics** — a [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s,
//!   and log2 latency [`Histogram`]s with a snapshot API.
//! - **exporters** — Chrome-trace JSON ([`export::chrome_trace_json`]) and
//!   Prometheus text exposition ([`export::prometheus_text`]).
//! - **events** — leveled log lines ([`Level`]) that reach stderr when the
//!   `PROOF_LOG` environment variable admits the level, and the collector
//!   when one is enabled.
//! - **flight recorder** — a bounded ring of recent structured operational
//!   events ([`FlightRecorder`]) that daemons expose at `GET /debug/events`
//!   and dump to stderr when a panic is caught.
//! - **fault injection** — a deterministic, seed-scopeable [`FaultPlan`]
//!   (`PROOF_FAULT` env or [`fault::install`]) that can make any named
//!   site panic, stall, or fail transiently, so robustness machinery
//!   (retries, deadlines, panic isolation) is testable bit-for-bit.
//!
//! The shared ring tracer uses the *logical* clock ([`clock::TraceClock`]):
//! per-trace timestamps are a deterministic counter, so an exported trace is
//! byte-for-bit reproducible for a given request sequence — matching the
//! repo's seeded-simulation discipline. Real wall durations are kept
//! alongside in [`SpanRecord::wall_us`] for latency accounting.

pub mod capture;
pub mod clock;
pub mod collector;
pub mod export;
pub mod fault;
pub mod flight;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use capture::{Capture, Captured, CAPTURE_CAPACITY};
pub use collector::{Collector, NoopCollector, RingCollector};
pub use export::TraceEvent;
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use span::{EventRecord, FieldValue, Level, SpanRecord};
pub use tracer::{new_trace_id, stderr_level, SpanGuard, Tracer};

use std::sync::{Arc, OnceLock, RwLock};

/// Capacity of the shared ring collector (spans and events each).
pub const DEFAULT_RING_CAPACITY: usize = 16_384;

fn global_cell() -> &'static RwLock<Arc<Tracer>> {
    static CELL: OnceLock<RwLock<Arc<Tracer>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Arc::new(Tracer::disabled())))
}

/// The process-global tracer. Disabled (no-op collector, wall clock) until
/// something installs a real one.
pub fn global() -> Arc<Tracer> {
    global_cell().read().unwrap().clone()
}

/// Replace the process-global tracer. Prefer [`shared_ring_tracer`], which
/// installs once and is safe under concurrent tests.
pub fn install(tracer: Arc<Tracer>) {
    *global_cell().write().unwrap() = tracer;
}

/// Get (installing globally on first call) the shared ring-buffer tracer:
/// a [`RingCollector`] of [`DEFAULT_RING_CAPACITY`] records on the
/// deterministic logical clock. Idempotent — every caller in the process
/// gets the same pair, so concurrent users never swap each other's
/// collector out from underneath.
pub fn shared_ring_tracer() -> (Arc<Tracer>, Arc<RingCollector>) {
    static SHARED: OnceLock<(Arc<Tracer>, Arc<RingCollector>)> = OnceLock::new();
    SHARED
        .get_or_init(|| {
            let ring = Arc::new(RingCollector::new(DEFAULT_RING_CAPACITY));
            let tracer = Arc::new(Tracer::new(
                Arc::clone(&ring) as Arc<dyn Collector>,
                clock::TraceClock::logical(),
            ));
            install(Arc::clone(&tracer));
            (tracer, ring)
        })
        .clone()
}

/// Open a span on the global tracer, inheriting trace + parent from the
/// innermost open span on this thread.
pub fn span(name: &'static str) -> SpanGuard {
    global().span(name)
}

/// Open a span on the global tracer under an explicit trace id.
pub fn span_in(trace: u64, name: &'static str) -> SpanGuard {
    global().span_in(trace, name)
}

/// Emit a leveled event through the global tracer.
pub fn event(
    level: Level,
    target: &'static str,
    message: impl Into<String>,
    fields: Vec<(&'static str, FieldValue)>,
) {
    global().event(level, target, message, fields);
}

/// Would an event at `level` go anywhere right now? Use to skip building
/// event messages on the disabled path.
pub fn event_enabled(level: Level) -> bool {
    tracer::event_interest(&global(), level)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_ring_tracer_is_idempotent_and_installs_globally() {
        let (t1, r1) = shared_ring_tracer();
        let (t2, r2) = shared_ring_tracer();
        assert!(Arc::ptr_eq(&t1, &t2) && Arc::ptr_eq(&r1, &r2));
        assert!(t1.is_deterministic());
        // the global facade now records through the same ring
        let trace = new_trace_id();
        let mut s = span_in(trace, "facade");
        s.field("k", 1u64);
        drop(s);
        event(Level::Info, "obs_test", "hello", Vec::new());
        let facade = |s: &SpanRecord| s.trace == trace && s.name == "facade";
        assert_eq!(r1.spans().iter().filter(|s| facade(s)).count(), 1);
        assert!(r1.events().iter().any(|e| e.message == "hello"));
        assert!(event_enabled(Level::Debug));
    }
}
