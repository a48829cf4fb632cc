//! The coordinator: node set + dispatch loop + merge, behind one handle.
//!
//! A [`Fleet`] owns the worker registry (remote daemons by address and/or
//! embedded in-process `proof-serve` daemons for self-contained operation),
//! the `proof-obs` metrics the whole run reports through, and the
//! dispatcher. Runs are job-style: [`Fleet::submit_grid`] validates the
//! spec, mints a [`RunHandle`] on the run ledger, and queues the run for
//! the fleet's one run thread, `fleet-run`. That thread owns the
//! [`NodeRegistry`] by value, runs the queued grids one at a time in
//! submission order, and publishes each run's progress through its
//! handle's [`ProgressSink`](crate::progress::ProgressSink), so a backlog
//! of accepted runs costs queue entries, not threads. [`Fleet::run_grid`]
//! is the synchronous wrapper (submit + wait). The registry snapshot, the
//! last successful run, and the health view stay readable from the shared
//! [`FleetView`] — the coordinator HTTP surface never blocks on a running
//! grid. The last successful run is also the next run's baseline: its
//! merge reuses the cells whose report bytes repeat, and their buffers.
//!
//! A run does no trace work. Its cross-node trace is rendered on request
//! ([`FleetRun::trace_json`], `GET /grid/trace`): the nodes' span
//! listings are fetched then, over the scrape clients, and merged, and
//! the first complete render is kept on the run. The listings live on
//! the nodes, so render a trace before [`Fleet::shutdown`] stops the
//! embedded daemons that hold them.
//!
//! [`run_grid_local`] is the in-process single-node reference producing
//! the byte-identical document without any HTTP — the determinism contract
//! the integration tests and CI smoke pin down.

use crate::client::WorkerClient;
use crate::dispatcher::{DispatchCtx, DispatchOutcome, Dispatcher, FleetCounters};
use crate::merger::{spawn_merge, Prior};
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
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Transport bound for the coordinator's lock-free node scrapes
/// (federated metrics, healthz cache aggregation, trace renders). Short
/// on purpose: an unreachable node should cost one bounded connect
/// attempt, not stall the scrape.
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
    /// Starting an embedded daemon or a coordinator thread failed.
    Io(String),
    /// The run panicked; carries the panic text.
    Panicked(String),
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
            FleetError::Panicked(e) => write!(f, "run panicked: {e}"),
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
    /// The run's trace id: the nodes hold its job spans under it.
    pub trace: u64,
    /// The merged artifact — byte-identical to [`run_grid_local`] of the
    /// same spec.
    pub merged: String,
    /// Where each cell's report sits in `merged`, in canonical order:
    /// `&merged[span]` is the compact copy of the cell's report in
    /// `outcome.results`, which the next run reuses for a report with the
    /// same bytes.
    pub report_spans: Vec<Range<usize>>,
    /// Cells whose report equalled, byte for byte, the previous successful
    /// run's report for the same shard id, so the merge took that run's
    /// copy instead of walking the bytes.
    pub reused: usize,
    /// Per-run dispatch accounting.
    pub outcome: DispatchOutcome,
    /// Node states after the run.
    pub nodes: Vec<NodeSnapshot>,
    /// One scrape client per node, in registry order, for
    /// [`FleetRun::trace_json`].
    pub(crate) scrapers: Arc<[WorkerClient]>,
    /// The first complete render of [`FleetRun::trace_json`].
    pub(crate) trace_doc: OnceLock<String>,
}

impl FleetRun {
    /// The merged cross-node Chrome-trace document: the synthesized
    /// coordinator track plus each shard's job subtree, laid out by shard
    /// (see [`crate::trace`]). Byte-deterministic for a given spec and
    /// seed, whichever node ran each shard.
    ///
    /// Rendered on request: a call fetches every node's span listing for
    /// the run's trace, bounded by the 2 s scrape timeout, and merges them
    /// with the dispatch record. The first render in which every node
    /// that ran a shard answered with its listing is kept, and later calls
    /// return it without asking any node, so a complete trace keeps its
    /// bytes when nodes restart or stop. Until then a render is
    /// best-effort — a node that cannot answer, or no longer holds the
    /// trace, contributes no job subtrees — and the next call asks again.
    /// So render a trace before [`Fleet::shutdown`] stops the embedded
    /// daemons.
    pub fn trace_json(&self) -> String {
        if let Some(doc) = self.trace_doc.get() {
            return doc.clone();
        }
        let node_docs: Vec<(usize, TraceSpans)> = self
            .scrapers
            .iter()
            .enumerate()
            .filter_map(|(i, client)| match client.fetch_trace_spans(self.trace) {
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
            })
            .collect();
        let doc = merge_fleet_trace(&self.outcome.shards, self.scrapers.len(), &node_docs);
        let complete = self
            .outcome
            .shards
            .iter()
            .all(|r| node_docs.iter().any(|(node, _)| *node == r.node));
        if complete {
            // a concurrent complete render produced the same bytes
            let _ = self.trace_doc.set(doc.clone());
        }
        doc
    }
}

/// The shared coordinator core: everything the run thread, the HTTP
/// surface, and the owning [`Fleet`] handle all read through. The node
/// registry is not here: the run thread owns it.
struct FleetInner {
    config: FleetConfig,
    /// One scrape client per node, in registry order, bounded by
    /// [`SCRAPE_TIMEOUT`]: reads that must answer while the run thread
    /// dispatches go through these, and every run keeps them to render
    /// its trace.
    scrapers: Arc<[WorkerClient]>,
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    view: Arc<FleetView>,
    runs: Arc<RunLedger>,
}

/// An accepted run, waiting in the queue for the run thread.
type QueuedRun = (GridSpec, ShardPlan, Arc<RunHandle>);

/// The priors a run that follows `last` gives its merge, indexed by shard
/// id: `last`'s report buffer for each of its shards, and that run's copy
/// of it in its document. A shard of the new grid is
/// matched with the same shard of `last`, whatever its cell; the merge
/// compares every byte, so a shard whose cell moved is walked.
fn priors(last: &FleetRun) -> Vec<Prior<'_>> {
    last.outcome
        .results
        .iter()
        .zip(&last.report_spans)
        .map(|((_, body), span)| Prior {
            body,
            copy: &last.merged[span.clone()],
        })
        .collect()
}

/// Coordinator handle: run queue + embedded daemons + observability.
pub struct Fleet {
    inner: Arc<FleetInner>,
    /// The run queue's only sender. Dropping it, by [`Fleet::shutdown`] or
    /// by dropping the `Fleet`, lets the run thread exit once every
    /// queued run has finished.
    queue: mpsc::Sender<QueuedRun>,
    run_thread: JoinHandle<()>,
    embedded: Vec<proof_serve::Server>,
}

impl Fleet {
    /// Start embedded daemons (if any), register every node, and start the
    /// run thread, which owns the registry from then on. Fails if the
    /// resulting registry would be empty or a daemon cannot bind.
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
        // register up front so the exposition carries the zero value even
        // before (or without) any dispatch, peer-cache traffic, or
        // submitted runs
        let counters = FleetCounters::register(&metrics);
        metrics.counter("fleet_cache_remote_hits");
        metrics.counter("fleet_runs_total");
        metrics.gauge("fleet_runs_active").set(0.0);
        let view = Arc::new(FleetView::new());
        view.set_nodes(registry.snapshot());
        let inner = Arc::new(FleetInner {
            config,
            scrapers,
            metrics,
            flight: Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
            view,
            runs: Arc::new(RunLedger::new()),
        });
        let (queue, accepted) = mpsc::channel();
        let run_inner = Arc::clone(&inner);
        let run_thread = std::thread::Builder::new()
            .name("fleet-run".to_string())
            .spawn(move || run_queue(&run_inner, registry, &counters, accepted))
            .map_err(|e| FleetError::Io(format!("cannot start the run thread: {e}")))?;
        Ok(Fleet {
            inner,
            queue,
            run_thread,
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

    /// Accept a grid run: plan the spec (a grid holding any cell a worker
    /// would refuse is refused here, before a run is minted), mint a run
    /// id on the ledger, and queue the run for the run thread. Returns
    /// immediately with the [`RunHandle`] — poll its progress, or
    /// [`RunHandle::wait`] for the result. Concurrent submissions are
    /// accepted eagerly and run one at a time in submission order; a
    /// queued run counts as active from the moment it is accepted.
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
        let run = (spec.clone(), plan, Arc::clone(&handle));
        self.queue
            .send(run)
            .expect("the run thread catches every run's panic, so it outlives the sender");
        Ok(handle)
    }

    /// Run one grid to the merged artifact, synchronously: submit + wait.
    /// The run comes back shared with its [`RunHandle`], not copied.
    /// Counters land on [`Fleet::metrics`].
    pub fn run_grid(&self, spec: &GridSpec) -> Result<Arc<FleetRun>, FleetError> {
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

    /// The merged cross-node trace document of the most recent successful
    /// grid run ([`FleetRun::trace_json`]).
    pub fn last_trace(&self) -> Option<String> {
        self.inner.view.last_run().map(|run| run.trace_json())
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

    /// The always-readable registry/trace view shared with the run thread.
    pub fn view(&self) -> &Arc<FleetView> {
        &self.inner.view
    }

    /// The run ledger: every accepted run's handle, by id.
    pub fn runs(&self) -> &Arc<RunLedger> {
        &self.inner.runs
    }

    /// Close the run queue and join the run thread, which first finishes
    /// every run already accepted; then shut down embedded daemons (their
    /// queues drain first). Remote nodes are untouched. An embedded
    /// daemon's spans go with it, so render any trace wanted from it
    /// ([`FleetRun::trace_json`], [`Fleet::last_trace`]) first.
    pub fn shutdown(self) {
        drop(self.queue);
        self.run_thread
            .join()
            .expect("the run thread catches every run's panic");
        for server in self.embedded {
            server.shutdown();
        }
    }
}

/// The run thread: runs every accepted grid in submission order until the
/// queue's sender is dropped and the queue is empty. Each run executes
/// under `catch_unwind`, so a run that panics fails its own handle with
/// the panic text and the thread goes on to the next run. However a run
/// ends, its in-flight counts are settled and the view republished before
/// its handle finishes, so `/nodes` reads `in_flight` 0 between runs. A
/// successful run is published on the view as the last run before its
/// handle flips, so a client that sees `state: done` can always render
/// `/grid/trace`; it is the next run's merge baseline. A failed or
/// panicked run leaves the last run as it was.
fn run_queue(
    inner: &FleetInner,
    mut registry: NodeRegistry,
    counters: &FleetCounters,
    accepted: mpsc::Receiver<QueuedRun>,
) {
    for (spec, plan, handle) in accepted {
        let last = inner.view.last_run();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let priors = last.as_deref().map(priors).unwrap_or_default();
            execute_run(
                inner,
                &mut registry,
                counters,
                &spec,
                &plan,
                &priors,
                &handle,
            )
        }))
        .unwrap_or_else(|panic| {
            Err(FleetError::Panicked(proof_serve::panic_message(
                panic.as_ref(),
            )))
        })
        .map(Arc::new);
        match &result {
            Ok(run) => inner.view.set_last_run(Arc::clone(run)),
            Err(e) => inner.flight.record(
                "run",
                format!("run {} failed: {e}", handle.id()),
                vec![("run", FieldValue::U64(handle.id()))],
            ),
        }
        // a failed or panicked run returns with shards still in flight
        registry.settle_in_flight();
        inner.view.set_nodes(registry.snapshot());
        // publish the post-run gauge value *before* flipping the handle,
        // so a waiter that wakes on finish() already sees it; re-set after
        // in case a submission landed in between
        let active = inner.metrics.gauge("fleet_runs_active");
        active.set(inner.runs.active().saturating_sub(1) as f64);
        handle.finish(result);
        active.set(inner.runs.active() as f64);
    }
}

/// One run on the run thread: dispatch over the registry, publishing
/// progress through the handle's sink and the shared view, and produce the
/// merged artifact. `priors` holds, by shard id, the last successful run's
/// report and copy of each of its shards (empty before the first).
fn execute_run(
    inner: &FleetInner,
    registry: &mut NodeRegistry,
    counters: &FleetCounters,
    spec: &GridSpec,
    plan: &ShardPlan,
    priors: &[Prior<'_>],
    handle: &RunHandle,
) -> Result<FleetRun, FleetError> {
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
        advertise_peer_caches(inner, registry);
        scrape_remote_hits(registry)
    } else {
        Vec::new()
    };
    // the run's copy threads, one per core but no more than it has shards,
    // copy each report as its shard lands, or take its prior's copy when
    // the bytes match; the end of the dispatch (done or failed) closes the
    // channel, and the run joins the merge thread, which joins the others,
    // before it returns either way
    let copiers = std::thread::available_parallelism()
        .map_or(1, |cores| cores.get())
        .min(plan.shards.len())
        .max(1);
    let (outcome, merged, reused) = std::thread::scope(|scope| {
        let (reports, arrivals) = mpsc::channel();
        let merge = spawn_merge(scope, spec, priors, trace, copiers, arrivals)
            .map_err(|e| FleetError::Io(format!("cannot start the merge thread: {e}")))?;
        let dispatcher = Dispatcher::new(
            inner.config.dispatcher.clone(),
            DispatchCtx {
                counters: counters.clone(),
                trace,
                parent_span: root_id,
                metrics: Arc::clone(&inner.metrics),
                flight: Arc::clone(&inner.flight),
                progress: Arc::clone(handle.progress()),
                view: Arc::clone(&inner.view),
                reports,
                advertise_peer_cache: inner.config.advertise_peer_cache,
            },
        );
        let outcome = dispatcher.run(plan, registry);
        root.finish();
        if inner.config.advertise_peer_cache {
            let after = scrape_remote_hits(registry);
            let mut delta = 0u64;
            for (before, after) in remote_hits_before.iter().zip(&after) {
                if let (Some(b), Some(a)) = (before, after) {
                    delta += a.saturating_sub(*b);
                }
            }
            inner.metrics.counter("fleet_cache_remote_hits").add(delta);
        }
        let merge = merge
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        let mut outcome = outcome?;
        let merged = merge.merged?;
        outcome.results = merge.bodies;
        Ok::<_, FleetError>((outcome, merged, merge.reused))
    })?;
    counters.cells_reused.add(reused as u64);
    inner.flight.record(
        "run",
        format!(
            "run {} finished: {} shards, {} rescheduled, {} reused",
            handle.id(),
            outcome.shards.len(),
            outcome.rescheduled,
            reused
        ),
        vec![
            ("run", FieldValue::U64(handle.id())),
            ("trace", FieldValue::U64(trace)),
            ("completed", FieldValue::U64(outcome.results.len() as u64)),
            ("reused", FieldValue::U64(reused as u64)),
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
    Ok(FleetRun {
        trace,
        merged: merged.doc,
        report_spans: merged.report_spans,
        reused,
        outcome,
        nodes,
        scrapers: Arc::clone(&inner.scrapers),
        trace_doc: OnceLock::new(),
    })
}

/// Tell every node about every *other* node's cache endpoint
/// (best-effort — an unreachable node just misses the refresh and gets
/// re-advertised when a probe revives it).
fn advertise_peer_caches(inner: &FleetInner, registry: &NodeRegistry) {
    if registry.len() < 2 {
        return;
    }
    for i in 0..registry.len() {
        match registry.advertise_peers(i) {
            Ok(_) => inner.metrics.counter("fleet_peer_advertisements").inc(),
            Err(e) => proof_obs::event(
                proof_obs::Level::Warn,
                "proof_fleet",
                format!(
                    "peer-cache advertisement to {} failed: {e}",
                    registry.client(i).addr
                ),
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
/// scrapes go straight to the nodes, so it answers while the run thread
/// dispatches. Shared by [`Fleet::metrics_prometheus_federated`]
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
        let job = AnalysisJob::from_cell(&cell).map_err(ProofError::InvalidSpec)?;
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
        // the outcome is read back from the same stream
        assert_eq!(run.outcome.dispatched, counts.dispatched);
        assert_eq!(run.outcome.rescheduled, counts.rescheduled);
        let completed: Vec<usize> = events
            .iter()
            .filter(|e| e.kind == crate::progress::ProgressKind::Completed)
            .map(|e| e.shard)
            .collect();
        let shards: Vec<usize> = run.outcome.shards.iter().map(|r| r.shard).collect();
        assert_eq!(shards, completed);
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
