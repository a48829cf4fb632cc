//! The coordinator: node set + dispatch loop + merge, behind one handle.
//!
//! A [`Fleet`] owns the worker registry (remote daemons by address and/or
//! embedded in-process `proof-serve` daemons for self-contained operation),
//! the `proof-obs` metrics the whole run reports through, and the
//! dispatcher. Runs are job-style: [`Fleet::submit_grid`] validates the
//! spec, mints a [`RunHandle`] on the run ledger, and hands the dispatch
//! to a dedicated run thread that publishes progress through the handle's
//! [`ProgressSink`](crate::progress::ProgressSink); [`Fleet::run_grid`] is
//! the synchronous wrapper (submit + wait). The registry snapshot, last
//! merged trace, and health view stay readable from the shared
//! [`FleetView`] while the run thread owns the registry — the coordinator
//! HTTP surface never blocks on a running grid.
//!
//! [`run_grid_local`] is the in-process single-node reference producing
//! the byte-identical document without any HTTP — the determinism contract
//! the integration tests and CI smoke pin down.

use crate::client::WorkerClient;
use crate::dispatcher::{DispatchCtx, DispatchOutcome, Dispatcher, FleetCounters, ShardReport};
use crate::merger::spawn_merge;
use crate::planner::{plan_shards, ShardPlan};
use crate::registry::{NodeRegistry, NodeSnapshot};
use crate::runs::{FleetView, RunHandle, RunLedger};
use crate::trace::merge_fleet_trace;
use proof_core::{GridSpec, ProofError};
use proof_obs::export::{federate_prometheus, prometheus_text};
use proof_obs::{FieldValue, FlightRecorder, MetricsRegistry, DEFAULT_FLIGHT_CAPACITY};
use proof_serve::{AnalysisJob, TraceSpans};
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Transport bound for the coordinator's lock-free node scrapes
/// (federated metrics, healthz cache aggregation). Short on purpose: an
/// unreachable node should cost one bounded connect attempt, not stall
/// the scrape.
const SCRAPE_TIMEOUT: Duration = Duration::from_secs(2);

/// Why a fleet run could not produce its artifact.
#[derive(Debug, Clone)]
pub enum FleetError {
    /// The registry is empty — nothing to dispatch to.
    NoNodes,
    /// Every node is dead (and unrevivable by probes so far) with shards
    /// still unresolved.
    AllNodesDead { unresolved: usize },
    /// One shard burned through its attempt budget across nodes.
    ShardFailed {
        shard: usize,
        attempts: u32,
        last_error: String,
    },
    /// The grid spec or the merge rejected the run.
    Grid(ProofError),
    /// Starting an embedded daemon failed.
    Io(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoNodes => write!(f, "no worker nodes configured"),
            FleetError::AllNodesDead { unresolved } => {
                write!(f, "all nodes dead with {unresolved} shards unresolved")
            }
            FleetError::ShardFailed {
                shard,
                attempts,
                last_error,
            } => write!(
                f,
                "shard {shard} failed after {attempts} attempts: {last_error}"
            ),
            FleetError::Grid(e) => write!(f, "{e}"),
            FleetError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ProofError> for FleetError {
    fn from(e: ProofError) -> FleetError {
        FleetError::Grid(e)
    }
}

/// Fleet topology and tuning.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Remote worker daemons, by address.
    pub nodes: Vec<SocketAddr>,
    /// Embedded in-process daemons to start alongside (0 for remote-only).
    pub local_daemons: usize,
    /// Worker threads per embedded daemon.
    pub local_workers: usize,
    /// Transport bound for every worker request.
    pub request_timeout: Duration,
    /// Consecutive failures that kill a node.
    pub node_fail_threshold: u32,
    /// Advertise every node's cache endpoint to every other node before a
    /// run (and scrape per-node remote-tier hits into
    /// `fleet_cache_remote_hits` after it), so rescheduled or re-run
    /// shards are served from warm peers. Artifact bytes are identical
    /// either way — this only changes where they come from.
    pub advertise_peer_cache: bool,
    pub dispatcher: crate::dispatcher::DispatcherConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: Vec::new(),
            local_daemons: 0,
            local_workers: 2,
            request_timeout: Duration::from_secs(10),
            node_fail_threshold: 2,
            advertise_peer_cache: true,
            dispatcher: crate::dispatcher::DispatcherConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Self-contained topology: `n` embedded local daemons, no remotes.
    pub fn local(n: usize) -> FleetConfig {
        FleetConfig {
            local_daemons: n,
            ..FleetConfig::default()
        }
    }

    /// Remote topology: dispatch to the given daemons.
    pub fn remote(nodes: Vec<SocketAddr>) -> FleetConfig {
        FleetConfig {
            nodes,
            ..FleetConfig::default()
        }
    }
}

/// The result of one grid run.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The merged artifact — byte-identical to [`run_grid_local`] of the
    /// same spec.
    pub merged: String,
    /// Per-run dispatch accounting.
    pub outcome: DispatchOutcome,
    /// Node states after the run.
    pub nodes: Vec<NodeSnapshot>,
    /// The merged cross-node Chrome-trace document: the synthesized
    /// coordinator track plus each shard's job subtree, laid out by shard
    /// (see [`crate::trace`]). Byte-deterministic for a given spec and
    /// seed, whichever node ran each shard.
    pub trace_json: String,
}

/// The shared coordinator core: everything a run thread, the HTTP surface,
/// and the owning [`Fleet`] handle all read through. The registry mutex is
/// held by at most one run thread at a time (concurrent submissions
/// serialize on it); every other field answers without it.
struct FleetInner {
    config: FleetConfig,
    registry: Mutex<NodeRegistry>,
    /// One scrape client per node, in registry order, bounded by
    /// [`SCRAPE_TIMEOUT`]: reads that must answer while a run thread
    /// holds the registry go through these.
    scrapers: Vec<WorkerClient>,
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    view: Arc<FleetView>,
    runs: Arc<RunLedger>,
}

impl FleetInner {
    fn lock_registry(&self) -> MutexGuard<'_, NodeRegistry> {
        self.registry.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Coordinator handle: registry + embedded daemons + observability.
pub struct Fleet {
    inner: Arc<FleetInner>,
    embedded: Vec<proof_serve::Server>,
}

impl Fleet {
    /// Start embedded daemons (if any) and register every node. Fails if
    /// the resulting registry would be empty or a daemon cannot bind.
    pub fn start(config: FleetConfig) -> Result<Fleet, FleetError> {
        if config.nodes.is_empty() && config.local_daemons == 0 {
            return Err(FleetError::NoNodes);
        }
        let mut embedded = Vec::new();
        let mut addrs = config.nodes.clone();
        for _ in 0..config.local_daemons {
            let server = proof_serve::Server::start(proof_serve::ServeConfig {
                workers: config.local_workers,
                ..proof_serve::ServeConfig::default()
            })
            .map_err(|e| FleetError::Io(format!("cannot start embedded daemon: {e}")))?;
            addrs.push(server.addr());
            embedded.push(server);
        }
        let clients = addrs
            .iter()
            .map(|&addr| WorkerClient::new(addr, config.request_timeout))
            .collect();
        let scrapers = addrs
            .iter()
            .map(|&addr| WorkerClient::new(addr, SCRAPE_TIMEOUT))
            .collect();
        let registry = NodeRegistry::new(clients, config.node_fail_threshold);
        let metrics = Arc::new(MetricsRegistry::new());
        // pre-register so the exposition carries the zero value even
        // before (or without) any peer-cache traffic, weighted dispatch,
        // or submitted runs
        metrics.counter("fleet_cache_remote_hits");
        metrics.counter("fleet_weighted_picks");
        metrics.counter("fleet_runs_total");
        metrics.gauge("fleet_runs_active").set(0.0);
        let view = Arc::new(FleetView::new());
        view.set_nodes(registry.snapshot());
        Ok(Fleet {
            inner: Arc::new(FleetInner {
                config,
                registry: Mutex::new(registry),
                scrapers,
                metrics,
                flight: Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
                view,
                runs: Arc::new(RunLedger::new()),
            }),
            embedded,
        })
    }

    /// Addresses of every registered node (embedded daemons included).
    pub fn node_addrs(&self) -> Vec<SocketAddr> {
        self.inner.scrapers.iter().map(|c| c.addr).collect()
    }

    /// The lock-free scrape client of every node, in registry order.
    pub(crate) fn scrapers(&self) -> &[WorkerClient] {
        &self.inner.scrapers
    }

    /// Accept a grid run: validate and plan the spec, mint a run id on the
    /// ledger, and hand the dispatch to a dedicated run thread. Returns
    /// immediately with the [`RunHandle`] — poll its progress, or
    /// [`RunHandle::wait`] for the result. Concurrent submissions are
    /// accepted eagerly and serialize on the registry inside their run
    /// threads, in submission order of lock acquisition.
    pub fn submit_grid(&self, spec: &GridSpec) -> Result<Arc<RunHandle>, FleetError> {
        let plan = plan_shards(spec)?;
        let handle = self.inner.runs.create(plan.shards.len());
        self.inner.metrics.counter("fleet_runs_total").inc();
        self.inner
            .metrics
            .gauge("fleet_runs_active")
            .set(self.inner.runs.active() as f64);
        self.inner.flight.record(
            "run",
            format!(
                "run {} submitted: {} shards",
                handle.id(),
                plan.shards.len()
            ),
            vec![
                ("run", FieldValue::U64(handle.id())),
                ("shards", FieldValue::U64(plan.shards.len() as u64)),
                ("seed", FieldValue::U64(spec.seed)),
            ],
        );
        let inner = Arc::clone(&self.inner);
        let spec = spec.clone();
        let run_handle = Arc::clone(&handle);
        let thread = std::thread::spawn(move || {
            let result = execute_run(&inner, &spec, &plan, &run_handle);
            if let Err(e) = &result {
                inner.flight.record(
                    "run",
                    format!("run {} failed: {e}", run_handle.id()),
                    vec![("run", FieldValue::U64(run_handle.id()))],
                );
            }
            // publish the post-run gauge value *before* flipping the
            // handle, so a waiter that wakes on finish() already sees it;
            // re-set after as self-correction under concurrent finishes
            inner
                .metrics
                .gauge("fleet_runs_active")
                .set(inner.runs.active().saturating_sub(1) as f64);
            run_handle.finish(result);
            inner
                .metrics
                .gauge("fleet_runs_active")
                .set(inner.runs.active() as f64);
        });
        self.inner.runs.note_thread(thread);
        Ok(handle)
    }

    /// Run one grid to the merged artifact, synchronously: submit + wait.
    /// Counters land on [`Fleet::metrics`].
    pub fn run_grid(&self, spec: &GridSpec) -> Result<FleetRun, FleetError> {
        self.submit_grid(spec)?.wait()
    }

    /// Fleet metrics as JSON: counters, gauges, and the per-node view.
    pub fn metrics_json(&self) -> String {
        metrics_json_from(&self.inner.metrics, &self.inner.view.nodes())
    }

    /// The coordinator's own exposition plus every reachable node's
    /// federated under a `node="<addr>"` label — one scrape endpoint for
    /// the whole fleet, the same text as `GET /metrics?format=prometheus`.
    /// Answers mid-run.
    pub fn metrics_prometheus_federated(&self) -> String {
        federated_prometheus_from(&self.inner.metrics, &self.inner.scrapers)
    }

    /// The merged cross-node trace document of the most recent grid run.
    pub fn last_trace(&self) -> Option<String> {
        self.inner.view.last_trace()
    }

    /// The coordinator's flight recorder: a bounded ring of structured
    /// scheduling events (dispatches, reschedules, health transitions,
    /// run lifecycle).
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.inner.flight
    }

    /// Current per-node registry view (the dispatcher republishes it as
    /// shards resolve, so it is live during a run).
    pub fn nodes(&self) -> Vec<NodeSnapshot> {
        self.inner.view.nodes()
    }

    /// The shared metrics registry (counters survive across runs).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.inner.metrics
    }

    /// The always-readable registry/trace view shared with run threads.
    pub fn view(&self) -> &Arc<FleetView> {
        &self.inner.view
    }

    /// The run ledger: every accepted run's handle, by id.
    pub fn runs(&self) -> &Arc<RunLedger> {
        &self.inner.runs
    }

    /// Drain every run thread, then shut down embedded daemons (their
    /// queues drain first). Remote nodes are untouched.
    pub fn shutdown(self) {
        self.inner.runs.join_all();
        for server in self.embedded {
            server.shutdown();
        }
    }
}

/// The run thread body: owns the registry for the duration of the
/// dispatch, publishes progress through the handle's sink and the shared
/// view, and produces the merged artifact + cross-node trace.
fn execute_run(
    inner: &FleetInner,
    spec: &GridSpec,
    plan: &ShardPlan,
    handle: &RunHandle,
) -> Result<FleetRun, FleetError> {
    let mut registry = inner.lock_registry();
    let trace = proof_obs::new_trace_id();
    // the run's root span exists only for its id: workers' job spans name
    // it as their remote parent, and the merge synthesizes the
    // coordinator track instead of reading coordinator spans
    let root = proof_obs::span_in(trace, "fleet_run");
    let root_id = root.id();
    inner.flight.record(
        "run",
        format!("run {} started: {} shards", handle.id(), plan.shards.len()),
        vec![
            ("run", FieldValue::U64(handle.id())),
            ("trace", FieldValue::U64(trace)),
            ("shards", FieldValue::U64(plan.shards.len() as u64)),
            ("seed", FieldValue::U64(spec.seed)),
        ],
    );
    // wire every node's remote cache tier to its peers before any shard
    // lands, and remember each node's remote-hit count so the post-run
    // scrape can attribute this run's deltas
    let remote_hits_before = if inner.config.advertise_peer_cache {
        advertise_peer_caches(inner, &registry);
        scrape_remote_hits(&registry)
    } else {
        Vec::new()
    };
    let mut dispatcher_config = inner.config.dispatcher.clone();
    dispatcher_config.advertise_peer_cache &= inner.config.advertise_peer_cache;
    // the merge thread copies each report as its shard lands; the end of
    // the dispatch (done or failed) closes the channel, and the run joins
    // the thread before it returns either way
    let (mut outcome, merged, trace_json) = std::thread::scope(|scope| {
        let (reports, arrivals) = mpsc::channel();
        let merge = spawn_merge(scope, spec, trace, arrivals)
            .map_err(|e| FleetError::Io(format!("cannot start the merge thread: {e}")))?;
        let dispatcher = Dispatcher::new(
            dispatcher_config,
            DispatchCtx {
                counters: FleetCounters::register(&inner.metrics),
                trace,
                parent_span: root_id,
                metrics: Arc::clone(&inner.metrics),
                flight: Arc::clone(&inner.flight),
                progress: Arc::clone(handle.progress()),
                view: Arc::clone(&inner.view),
                reports,
            },
        );
        let outcome = dispatcher.run(plan, &mut registry);
        root.finish();
        if inner.config.advertise_peer_cache {
            let after = scrape_remote_hits(&registry);
            let mut delta = 0u64;
            for (before, after) in remote_hits_before.iter().zip(&after) {
                if let (Some(b), Some(a)) = (before, after) {
                    delta += a.saturating_sub(*b);
                }
            }
            inner.metrics.counter("fleet_cache_remote_hits").add(delta);
        }
        // the nodes' span listings are fetched while the merge thread
        // writes the document
        let dispatched = outcome.map(|outcome| {
            let trace_json = fleet_trace(&registry, trace, &outcome.shards);
            (outcome, trace_json)
        });
        let merged = merge
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let (outcome, trace_json) = dispatched?;
        Ok::<_, FleetError>((outcome, merged?, trace_json))
    })?;
    outcome.results = merged.reports;
    // publish the trace before the handle flips to finished, so a client
    // that sees `state: done` can always fetch `/grid/trace`
    inner.view.set_last_trace(trace_json.clone());
    inner.flight.record(
        "run",
        format!(
            "run {} finished: {} shards, {} rescheduled",
            handle.id(),
            outcome.shards.len(),
            outcome.rescheduled
        ),
        vec![
            ("run", FieldValue::U64(handle.id())),
            ("trace", FieldValue::U64(trace)),
            ("completed", FieldValue::U64(outcome.results.len() as u64)),
        ],
    );
    let nodes = registry.snapshot();
    // mirror per-node lifetime counters into the registry as gauges so
    // the Prometheus exposition carries them alongside fleet_* counters
    for (i, n) in nodes.iter().enumerate() {
        inner
            .metrics
            .gauge(&format!("node{i}_dispatched"))
            .set(n.dispatched as f64);
        inner
            .metrics
            .gauge(&format!("node{i}_completed"))
            .set(n.completed as f64);
        inner
            .metrics
            .gauge(&format!("node{i}_failures"))
            .set(n.failures as f64);
    }
    inner.view.set_nodes(nodes.clone());
    Ok(FleetRun {
        merged: merged.doc,
        outcome,
        nodes,
        trace_json,
    })
}

/// The run's cross-node trace: each node's raw span listing for `trace`
/// (best-effort — a node that restarted or evicted the trace just
/// contributes no job subtrees) merged with the dispatch record into one
/// deterministic document.
fn fleet_trace(registry: &NodeRegistry, trace: u64, shards: &[ShardReport]) -> String {
    let node_docs: Vec<(usize, TraceSpans)> = (0..registry.len())
        .filter_map(|i| {
            let client = registry.client(i);
            match client.fetch_trace_spans(trace) {
                Ok(Some(doc)) => Some((i, doc)),
                Ok(None) => None,
                Err(e) => {
                    proof_obs::event(
                        proof_obs::Level::Warn,
                        "proof_fleet",
                        format!("trace fetch from {} failed: {e}", client.addr),
                        Vec::new(),
                    );
                    None
                }
            }
        })
        .collect();
    merge_fleet_trace(shards, registry.len(), &node_docs)
}

/// Tell every node about every *other* node's cache endpoint
/// (best-effort — an unreachable node just misses the refresh and gets
/// re-advertised when a probe revives it).
fn advertise_peer_caches(inner: &FleetInner, registry: &NodeRegistry) {
    let n = registry.len();
    if n < 2 {
        return;
    }
    let addrs: Vec<SocketAddr> = (0..n).map(|i| registry.client(i).addr).collect();
    for i in 0..n {
        let peers: Vec<SocketAddr> = addrs
            .iter()
            .copied()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, a)| a)
            .collect();
        match registry.client(i).advertise_peers(&peers) {
            Ok(_) => inner.metrics.counter("fleet_peer_advertisements").inc(),
            Err(e) => proof_obs::event(
                proof_obs::Level::Warn,
                "proof_fleet",
                format!("peer-cache advertisement to {} failed: {e}", addrs[i]),
                Vec::new(),
            ),
        }
    }
}

/// Each node's lifetime remote-tier hit counter (`None` for nodes that
/// cannot answer), index-aligned with the registry.
fn scrape_remote_hits(registry: &NodeRegistry) -> Vec<Option<u64>> {
    (0..registry.len())
        .map(|i| registry.client(i).cache_remote_hits().ok())
        .collect()
}

/// Render a metrics registry plus a node snapshot as the coordinator's
/// JSON metrics document. Shared by [`Fleet::metrics_json`] and the HTTP
/// surface (which reads nodes from the [`FleetView`], so the document is
/// complete even mid-run).
pub(crate) fn metrics_json_from(metrics: &MetricsRegistry, nodes: &[NodeSnapshot]) -> String {
    let snap = metrics.snapshot();
    serde::ser::to_json(
        &MetricsJson {
            counters: snap.counters.into_iter().collect(),
            gauges: snap.gauges.into_iter().collect(),
            nodes: nodes.to_vec(),
        },
        false,
    )
}

/// The coordinator's JSON metrics document.
#[derive(Serialize)]
struct MetricsJson {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    nodes: Vec<NodeSnapshot>,
}

/// The coordinator's own `proof_fleet_` exposition followed by every
/// reachable node's exposition federated under a `node="<addr>"` label —
/// one scrape endpoint for the whole fleet. Unreachable nodes are skipped
/// (the coordinator's own series still report them). Lock-free: the
/// scrapes go straight to the nodes, so it answers while a run thread
/// holds the registry. Shared by [`Fleet::metrics_prometheus_federated`]
/// and the HTTP surface.
pub(crate) fn federated_prometheus_from(
    metrics: &MetricsRegistry,
    nodes: &[WorkerClient],
) -> String {
    let mut out = prometheus_text(&metrics.snapshot(), "proof_fleet_");
    let scraped: Vec<(String, String)> = nodes
        .iter()
        .filter_map(|n| {
            let body = n.scrape_prometheus().ok()?;
            Some((n.addr.to_string(), body))
        })
        .collect();
    if !scraped.is_empty() {
        out.push_str(&federate_prometheus(&scraped));
    }
    out
}

/// The single-node, in-process reference: execute every cell in canonical
/// order through the library pipeline and merge. No HTTP, no scheduling —
/// just the determinism baseline a fleet run must reproduce byte-for-byte.
pub fn run_grid_local(spec: &GridSpec) -> Result<String, ProofError> {
    spec.validate()?;
    let mut results = Vec::new();
    for (id, cell) in spec.cells().into_iter().enumerate() {
        let job = AnalysisJob::from_value(&serde_json::to_value(&cell))
            .map_err(ProofError::InvalidSpec)?;
        let report = job.execute()?;
        results.push((id, report.try_to_json()?));
    }
    proof_core::merge_cells(spec, &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn spec(json: &str) -> GridSpec {
        GridSpec::from_value(&serde_json::from_str(json).unwrap()).unwrap()
    }

    #[test]
    fn empty_topology_is_rejected() {
        assert!(matches!(
            Fleet::start(FleetConfig::default()),
            Err(FleetError::NoNodes)
        ));
    }

    #[test]
    fn local_reference_merges_every_cell() {
        let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":11}"#);
        let merged = run_grid_local(&s).unwrap();
        let v: Value = serde_json::from_str(&merged).unwrap();
        assert_eq!(v["cells"].as_array().unwrap().len(), 2);
        assert!(
            v["sweep"].as_object().is_some(),
            "single-model batch grid is a sweep"
        );
        // determinism: a second run is byte-identical
        assert_eq!(merged, run_grid_local(&s).unwrap());
    }

    #[test]
    fn invalid_spec_is_rejected_at_submit_without_minting_a_run() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let bad = GridSpec::from_value(
            &serde_json::from_str(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1]}"#)
                .unwrap(),
        )
        .unwrap();
        // a good spec plans; force invalidity through an empty batch list
        let mut empty = bad.clone();
        empty.batches.clear();
        assert!(fleet.submit_grid(&empty).is_err());
        assert_eq!(fleet.runs().total(), 0, "no run id burned on a bad spec");
        fleet.shutdown();
    }

    #[test]
    fn submit_streams_progress_and_matches_sync_bytes() {
        let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":3}"#);
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let handle = fleet.submit_grid(&s).unwrap();
        assert_eq!(handle.id(), 1);
        let run = handle.wait().unwrap();
        assert!(handle.is_finished());
        let (counts, events) = handle.progress().since(0);
        assert_eq!(counts.completed, 2);
        assert_eq!(counts.pending, 0);
        assert!(events.len() >= 4, "2 dispatches + 2 completions at least");
        assert_eq!(run.merged, run_grid_local(&s).unwrap());
        // the sync wrapper produces the same bytes and a second run id
        let sync = fleet.run_grid(&s).unwrap();
        assert_eq!(sync.merged, run.merged);
        assert_eq!(fleet.runs().total(), 2);
        assert_eq!(fleet.runs().active(), 0);
        let m: Value = serde_json::from_str(&fleet.metrics_json()).unwrap();
        assert_eq!(m["counters"]["fleet_runs_total"].as_u64(), Some(2));
        assert_eq!(m["gauges"]["fleet_runs_active"].as_f64(), Some(0.0));
        fleet.shutdown();
    }
}
