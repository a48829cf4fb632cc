//! The daemon: worker pool, job registry, and the routes it plugs into
//! the shared [`HttpServer`] scaffold.
//!
//! Lifecycle: `Server::start` binds the listener (port 0 picks an ephemeral
//! port), spawns `workers` pipeline workers and the HTTP acceptor, and
//! returns. `shutdown` refuses new submissions, stops accepting, waits for
//! the handlers that have read a complete request, closes the queue, and
//! joins the workers — which drain every queued and in-flight job before
//! exiting, so no accepted job is ever dropped.
//!
//! `POST /jobs?wait_ms=N` and `GET /jobs/<id>?wait_ms=N` hold the reply
//! until the job is final, N ms pass (at most [`MAX_JOB_WAIT`]), or the
//! daemon shuts down. A submission whose job is done within the wait
//! answers `200` with the artifact as its body and the job id in
//! `X-Proof-Job`, so a cache hit settles in one exchange; otherwise it
//! answers the `201` it always did.

use crate::http::{
    lock_clean, query_has, query_param, HttpServer, Reply, Request, Response, Routes, RETRY_AFTER_S,
};
use crate::job::{AnalysisJob, CanonicalSpec};
use crate::metrics::{HistJson, Histogram, StageHistograms, WorkerMetrics, WorkerSnapshot};
use crate::peer::HttpPeer;
use crate::queue::JobQueue;
use crate::stage_cache::{StageCache, StageCacheStats, StageLookup};
use proof_core::{
    merged_chrome_trace, run_metric_stages_ctx, CompiledArtifact, PipelineStage, PreparedStages,
    ProfileReport, ProofError, RunCtx,
};
use proof_models::ModelId;
use proof_obs::export::prometheus_text;
use proof_obs::{
    Capture, Counter, FieldValue, FlightRecorder, Level, MetricsRegistry, SpanRecord,
    DEFAULT_FLIGHT_CAPACITY,
};
use proof_store::{ArtifactKey, HitTier, Lookup, StoreConfig, StoreStats, TieredStore};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest a `wait_ms` request holds its reply, whatever it asks for:
/// well inside the socket deadline, so the waiting reply never outlives
/// the connection it answers on.
pub const MAX_JOB_WAIT: Duration = Duration::from_secs(1);

/// Daemon configuration (see `proof serve --help` for the CLI mapping).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Pipeline worker threads.
    pub workers: usize,
    /// Byte budget for memory-resident artifacts.
    pub cache_budget_bytes: usize,
    /// Optional persistent artifact store directory.
    pub cache_dir: Option<PathBuf>,
    /// Bounded job-queue capacity; submissions beyond it get 429 with a
    /// `Retry-After` hint (backpressure, not failure).
    pub queue_capacity: usize,
    /// Entry budget for the in-process stage cache (pipeline prefixes kept
    /// live so mode pairs and sweep resubmissions skip compile/profile/map).
    pub stage_cache_capacity: usize,
    /// Default per-job deadline, measured from submission (queue wait
    /// counts). A job's own `timeout_ms` overrides it; `None` means
    /// unbounded.
    pub job_timeout_ms: Option<u64>,
    /// How many times a worker retries a job whose failure is
    /// [`ProofError::Transient`] before marking it failed.
    pub max_retries: u32,
    /// Base delay of the worker's retry backoff (doubles per retry, with
    /// seed-keyed jitter so reruns are reproducible).
    pub retry_base_ms: u64,
    /// Peer daemons whose caches back this daemon's remote tier. More can
    /// arrive at runtime via `POST /cache/peers` (fleet advertisement).
    pub peer_cache: Vec<SocketAddr>,
    /// Per-request bound on peer cache traffic — a slow peer must cost
    /// less than the rebuild it is trying to save.
    pub peer_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_budget_bytes: 64 << 20,
            cache_dir: None,
            queue_capacity: 256,
            stage_cache_capacity: 32,
            job_timeout_ms: None,
            max_retries: 2,
            retry_base_ms: 25,
            peer_cache: Vec::new(),
            peer_timeout_ms: 2000,
        }
    }
}

/// Lifecycle state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    /// The job's deadline expired before it finished; reported separately
    /// from `Failed` so clients can tell "retry with a bigger budget" from
    /// "the spec is broken".
    TimedOut,
}

impl JobStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::TimedOut => "timed_out",
        }
    }

    fn is_final(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

struct JobRecord {
    spec: AnalysisJob,
    key: String,
    status: JobStatus,
    group: Option<u64>,
    /// Observability trace id: every span the job's execution opens carries
    /// it, and `GET /trace/<id>` renders the job's spans. Locally
    /// allocated unless the submitter supplied trace context (job-spec
    /// `trace_parent` or `X-Proof-Trace` header), in which case the job
    /// adopts the caller's trace id.
    trace: u64,
    /// The submitter's parent span id when the trace was adopted; recorded
    /// as a `remote_parent` field on the job span so a cross-node merge can
    /// re-parent this subtree under the dispatching span.
    remote_parent: Option<u64>,
    /// Whether the artifact came from the cache (set when finished).
    cache_hit: Option<bool>,
    /// Which tier served a hit (`"memory"`/`"disk"`/`"remote"`), or
    /// `"built"` on a miss; `None` until the job finishes.
    cache_tier: Option<&'static str>,
    error: Option<String>,
    artifact: Option<Arc<String>>,
    /// The spans the job's execution closed on its worker (at most
    /// [`proof_obs::CAPTURE_CAPACITY`]), stored when the job turns final.
    /// They belong to the record, so no other trace's traffic can touch
    /// them; `GET /trace/<id>` renders them on request.
    spans: Arc<[SpanRecord]>,
    /// The compiled plan a built job ran on, shared with its stage-cache
    /// entry: the rendered trace carries its kernel timeline. `None` for
    /// cache hits and failed runs.
    compiled: Option<Arc<CompiledArtifact>>,
    submitted: Instant,
    queue_wait_us: Option<u64>,
    execute_us: Option<u64>,
    /// Pipeline attempts actually made (1 + transient retries); 0 until the
    /// job runs, stays 0 on a cache hit.
    attempts: u32,
    /// The deadline budget this job runs under (its own `timeout_ms` or the
    /// server default), fixed at submission and shown in status JSON.
    timeout_ms: Option<u64>,
}

/// The job-status JSON (`GET /jobs/<id>`, and each member of a sweep).
#[derive(Serialize)]
struct JobView {
    id: u64,
    spec: CanonicalSpec,
    key: String,
    trace: u64,
    remote_parent: Option<u64>,
    status: &'static str,
    group: Option<u64>,
    cache_hit: Option<bool>,
    cache_tier: Option<&'static str>,
    error: Option<String>,
    queue_wait_us: Option<u64>,
    execute_us: Option<u64>,
    attempts: u32,
    timeout_ms: Option<u64>,
}

impl JobRecord {
    fn view(&self, id: u64) -> JobView {
        JobView {
            id,
            spec: self.spec.canonical_spec(),
            key: self.key.clone(),
            trace: self.trace,
            remote_parent: self.remote_parent,
            status: self.status.as_str(),
            group: self.group,
            cache_hit: self.cache_hit,
            cache_tier: self.cache_tier,
            error: self.error.clone(),
            queue_wait_us: self.queue_wait_us,
            execute_us: self.execute_us,
            attempts: self.attempts,
            timeout_ms: self.timeout_ms,
        }
    }
}

/// Jobs by lifecycle state, over the whole registry or one sweep group.
#[derive(Serialize, Default)]
struct JobCounts {
    total: usize,
    queued: usize,
    running: usize,
    done: usize,
    failed: usize,
    timed_out: usize,
}

impl JobCounts {
    fn of<'a>(records: impl Iterator<Item = &'a JobRecord>) -> JobCounts {
        let mut c = JobCounts::default();
        for r in records {
            c.total += 1;
            *match r.status {
                JobStatus::Queued => &mut c.queued,
                JobStatus::Running => &mut c.running,
                JobStatus::Done => &mut c.done,
                JobStatus::Failed => &mut c.failed,
                JobStatus::TimedOut => &mut c.timed_out,
            } += 1;
        }
        c
    }
}

struct Shared {
    queue: JobQueue<u64>,
    registry: Mutex<HashMap<u64, JobRecord>>,
    /// Signalled, under the registry lock, when a job becomes final and
    /// when shutdown begins: what `wait_ms` requests wait on.
    finished: Condvar,
    next_id: AtomicU64,
    next_group: AtomicU64,
    cache: TieredStore,
    stage_cache: StageCache,
    worker_metrics: WorkerMetrics,
    /// Job spans that did not fit their job's capture, exported as the
    /// Prometheus `trace_spans_dropped_total`.
    capture_dropped: AtomicU64,
    /// Named instruments behind `GET /metrics` (both formats).
    metrics: MetricsRegistry,
    http_requests: Arc<Counter>,
    hist_queue_wait: Arc<Histogram>,
    hist_execute: Arc<Histogram>,
    hist_total: Arc<Histogram>,
    stage_hists: StageHistograms,
    /// Transient-stage retries performed by workers.
    retries_total: Arc<Counter>,
    /// Jobs that hit their deadline.
    timeouts_total: Arc<Counter>,
    /// Worker panics caught and converted into per-job failures.
    panics_total: Arc<Counter>,
    /// Submissions bounced with 429 (queue full).
    rejected_total: Arc<Counter>,
    job_timeout_ms: Option<u64>,
    max_retries: u32,
    retry_base_ms: u64,
    /// Timeout applied to peers added at runtime via `POST /cache/peers`.
    peer_timeout: Duration,
    /// Flight recorder: recent submissions, completions, retries, rejects,
    /// and cache-tier outcomes, served at `GET /debug/events` and dumped to
    /// stderr when a worker catches a panic.
    flight: Arc<FlightRecorder>,
    /// Process start, for the `/healthz` uptime report.
    started: Instant,
    /// Cleared by shutdown before the drain: submissions that arrive
    /// after it answer 503 instead of enqueueing.
    running: AtomicBool,
}

impl Shared {
    fn reg(&self) -> MutexGuard<'_, HashMap<u64, JobRecord>> {
        lock_clean(&self.registry)
    }

    /// The registry, once job `id` is final, `wait` has passed, or the
    /// daemon is shutting down — whichever comes first.
    fn reg_when_final(&self, id: u64, wait: Duration) -> MutexGuard<'_, HashMap<u64, JobRecord>> {
        let deadline = Instant::now() + wait;
        let mut reg = self.reg();
        loop {
            let pending = reg.get(&id).is_some_and(|r| !r.status.is_final());
            let left = deadline.saturating_duration_since(Instant::now());
            if !pending || left.is_zero() || !self.running.load(Ordering::SeqCst) {
                return reg;
            }
            reg = match self.finished.wait_timeout(reg, left) {
                Ok((reg, _)) => reg,
                Err(e) => e.into_inner().0,
            };
        }
    }
}

/// What a graceful shutdown drained: every accepted job must be accounted
/// for as `done` or `failed`; `dropped` (still queued/running at exit) must
/// be zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShutdownReport {
    pub done: usize,
    pub failed: usize,
    pub timed_out: usize,
    pub dropped: usize,
}

/// A running proof-serve daemon.
pub struct Server {
    shared: Arc<Shared>,
    http: HttpServer,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = MetricsRegistry::new();
        let peer_timeout = Duration::from_millis(config.peer_timeout_ms.max(1));
        let cache = TieredStore::new(
            StoreConfig {
                memory_budget_bytes: config.cache_budget_bytes,
                disk_dir: config.cache_dir.clone(),
            },
            &metrics,
        )?;
        for &peer in &config.peer_cache {
            cache.add_peer(Arc::new(HttpPeer::new(peer, peer_timeout)));
        }
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            registry: Mutex::new(HashMap::new()),
            finished: Condvar::new(),
            next_id: AtomicU64::new(1),
            next_group: AtomicU64::new(1),
            cache,
            stage_cache: StageCache::new(config.stage_cache_capacity),
            worker_metrics: WorkerMetrics::new(config.workers.max(1)),
            capture_dropped: AtomicU64::new(0),
            http_requests: metrics.counter("http_requests_total"),
            hist_queue_wait: metrics.histogram("job_queue_wait_us"),
            hist_execute: metrics.histogram("job_execute_us"),
            hist_total: metrics.histogram("job_total_us"),
            stage_hists: StageHistograms::register(&metrics),
            retries_total: metrics.counter("retries_total"),
            timeouts_total: metrics.counter("timeouts_total"),
            panics_total: metrics.counter("panics_total"),
            rejected_total: metrics.counter("rejected_total"),
            metrics,
            job_timeout_ms: config.job_timeout_ms,
            max_retries: config.max_retries,
            retry_base_ms: config.retry_base_ms,
            peer_timeout,
            flight: Arc::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY)),
            started: Instant::now(),
            running: AtomicBool::new(true),
        });

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("proof-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let http = HttpServer::start(listener, "proof-serve", Arc::clone(&shared))?;
        Ok(Server {
            shared,
            http,
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Graceful shutdown: answers every request already read, drains every
    /// accepted job, and returns an accounting of the drain. A client still
    /// sending its request is not waited for; its deadline closes it.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop()
    }

    fn stop(&mut self) -> ShutdownReport {
        if !self.shared.running.swap(false, Ordering::SeqCst) {
            return ShutdownReport::default();
        }
        // release every `wait_ms` reply now rather than at its wait's end;
        // the registry lock orders this after any waiter's `running` check
        {
            let _reg = self.shared.reg();
            self.shared.finished.notify_all();
        }
        // let handlers that read a request answer it (they may still
        // enqueue; later submissions see `running` false and get 503)
        self.http.stop();
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let c = JobCounts::of(self.shared.reg().values());
        ShutdownReport {
            done: c.done,
            failed: c.failed,
            timed_out: c.timed_out,
            dropped: c.queued + c.running,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        execute_job(shared, id);
    }
}

/// How one job execution ended short of success.
enum JobFailure {
    /// Deadline expired (status `timed_out`, report endpoint returns 504).
    TimedOut(String),
    /// Everything else — permanent errors, exhausted retries, panics.
    Failed(String),
}

/// Best-effort text of a caught panic payload (`panic!` with a string or
/// format message covers everything this codebase can raise).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Worker-side retry backoff: exponential in the retry number, jittered
/// deterministically by the job seed so a rerun of the same job sleeps the
/// same schedule.
fn backoff_ms(base: u64, retry: u32, seed: u64) -> u64 {
    let exp = base.saturating_mul(1u64 << u64::from(retry.saturating_sub(1).min(16)));
    exp + proof_obs::fault::mix64(seed ^ u64::from(retry)) % (exp / 4 + 1)
}

fn execute_job(shared: &Arc<Shared>, id: u64) {
    let (spec, key, submitted, trace_id, remote_parent, timeout_ms) = {
        let mut reg = shared.reg();
        // A missing record means the registry was mutated out from under
        // the queue (should not happen); skip rather than kill the worker.
        let Some(rec) = reg.get_mut(&id) else { return };
        rec.status = JobStatus::Running;
        let wait_us = rec.submitted.elapsed().as_micros() as u64;
        rec.queue_wait_us = Some(wait_us);
        shared.hist_queue_wait.record_us(wait_us);
        (
            rec.spec,
            rec.key.clone(),
            rec.submitted,
            rec.trace,
            rec.remote_parent,
            rec.timeout_ms,
        )
    };
    // The deadline counts from submission: a job that starved in the queue
    // past its budget fails fast at the first pipeline checkpoint.
    let ctx = RunCtx {
        deadline: timeout_ms.and_then(|ms| submitted.checked_add(Duration::from_millis(ms))),
        seed: spec.seed,
    };

    let _busy = shared.worker_metrics.busy_span();
    let exec_start = Instant::now();
    // Root span of the job's trace; the pipeline stages (tracing through
    // the global facade) nest under it because they run on this thread,
    // and the capture keeps every one of them for the job's record.
    let capture = Capture::start();
    let mut span = proof_obs::span_in(trace_id, "job");
    span.field("job", id);
    // The dispatching span on the remote coordinator, if this job adopted a
    // caller's trace: a cross-node merge resolves it against the caller's
    // spans (process-local span ids cannot be compared directly).
    if let Some(parent) = remote_parent {
        span.field("remote_parent", parent);
    }
    // The compiled plan used for this execution (if any), so the trace
    // export can merge the kernel timeline of the compiled model.
    let mut compiled: Option<Arc<CompiledArtifact>> = None;
    let mut attempts = 0u32;
    let akey = ArtifactKey::new(&key).expect("cache_key emits valid artifact keys");
    // Single-flight: concurrent identical jobs wait here and then hit.
    // A hit can come from any tier — memory, disk, or a fleet peer's cache.
    let outcome: Result<(Arc<String>, Option<HitTier>), JobFailure> =
        match shared.cache.lookup_or_begin(&akey) {
            Lookup::Hit(artifact, tier) => Ok((artifact, Some(tier))),
            Lookup::Miss(guard) => {
                // Panic isolation + transient retry. `catch_unwind` converts a
                // panicking stage into a per-job failure (the daemon and its
                // sibling jobs keep running); transient errors retry with
                // deterministic backoff, timeouts and permanent errors do not.
                let run = loop {
                    attempts += 1;
                    match catch_unwind(AssertUnwindSafe(|| run_staged(shared, &spec, &ctx))) {
                        Err(payload) => {
                            shared.panics_total.inc();
                            let msg = panic_message(payload.as_ref());
                            shared.flight.record(
                                "panic",
                                format!("job {id} panicked: {msg}"),
                                vec![("job", FieldValue::U64(id))],
                            );
                            // the recorder's whole purpose: the history
                            // leading up to a panic survives in the log
                            shared.flight.dump_stderr("worker caught a panic");
                            break Err(JobFailure::Failed(format!("panicked: {msg}")));
                        }
                        Ok(Ok(ok)) => break Ok(ok),
                        Ok(Err(e)) if e.is_timeout() => {
                            shared.timeouts_total.inc();
                            break Err(JobFailure::TimedOut(e.to_string()));
                        }
                        Ok(Err(e)) if e.is_transient() && attempts <= shared.max_retries => {
                            shared.retries_total.inc();
                            shared.flight.record(
                                "retry",
                                format!("job {id} retrying transient failure: {e}"),
                                vec![
                                    ("job", FieldValue::U64(id)),
                                    ("attempt", FieldValue::U64(u64::from(attempts))),
                                ],
                            );
                            std::thread::sleep(Duration::from_millis(backoff_ms(
                                shared.retry_base_ms,
                                attempts,
                                spec.seed,
                            )));
                        }
                        Ok(Err(e)) => break Err(JobFailure::Failed(e.to_string())),
                    }
                };
                match run {
                    Ok((report, prep)) => {
                        compiled = Some(Arc::clone(&prep.compiled));
                        // try_to_json instead of to_json: a non-finite value
                        // fails the job instead of aborting the worker thread.
                        match report.try_to_json() {
                            Ok(json) => Ok((guard.fulfill(json), None)),
                            Err(e) => Err(JobFailure::Failed(e.to_string())),
                        }
                    }
                    // dropping the guard lets a coalesced waiter retry the build
                    Err(f) => Err(f),
                }
            }
        };
    let execute_us = exec_start.elapsed().as_micros() as u64;
    shared.hist_execute.record_us(execute_us);
    shared
        .hist_total
        .record_us(submitted.elapsed().as_micros() as u64);

    span.field("cache_hit", matches!(outcome, Ok((_, Some(_)))));
    if let Ok((_, tier)) = &outcome {
        span.field("cache_tier", tier.map(|t| t.as_str()).unwrap_or("built"));
    }
    let status = match &outcome {
        Ok(_) => "done",
        Err(JobFailure::TimedOut(_)) => "timed_out",
        Err(JobFailure::Failed(_)) => "failed",
    };
    span.field("status", status);
    span.finish();
    let captured = capture.finish();
    shared
        .capture_dropped
        .fetch_add(captured.dropped, Ordering::Relaxed);
    let level = if outcome.is_ok() {
        Level::Info
    } else {
        Level::Warn
    };
    if proof_obs::event_enabled(level) {
        let message = match &outcome {
            Ok(_) => format!("job {id} {status}"),
            Err(JobFailure::TimedOut(e)) => format!("job {id} timed out: {e}"),
            Err(JobFailure::Failed(e)) => format!("job {id} failed: {e}"),
        };
        proof_obs::event(
            level,
            "proof_serve::worker",
            message,
            vec![
                ("job", FieldValue::U64(id)),
                ("execute_us", FieldValue::U64(execute_us)),
                ("attempts", FieldValue::U64(u64::from(attempts))),
            ],
        );
    }
    let tier = match &outcome {
        Ok((_, tier)) => tier.map(|t| t.as_str()).unwrap_or("built"),
        Err(_) => "none",
    };
    shared.flight.record(
        "job",
        format!("job {id} {status}"),
        vec![
            ("job", FieldValue::U64(id)),
            ("status", FieldValue::Str(status.to_string())),
            ("cache_tier", FieldValue::Str(tier.to_string())),
            ("execute_us", FieldValue::U64(execute_us)),
        ],
    );

    let mut reg = shared.reg();
    let Some(rec) = reg.get_mut(&id) else { return };
    rec.execute_us = Some(execute_us);
    rec.attempts = attempts;
    rec.spans = captured.spans.into();
    rec.compiled = compiled;
    match outcome {
        Ok((artifact, tier)) => {
            rec.status = JobStatus::Done;
            rec.cache_hit = Some(tier.is_some());
            rec.cache_tier = Some(tier.map(|t| t.as_str()).unwrap_or("built"));
            rec.artifact = Some(artifact);
        }
        Err(JobFailure::TimedOut(msg)) => {
            rec.status = JobStatus::TimedOut;
            rec.error = Some(msg);
        }
        Err(JobFailure::Failed(msg)) => {
            rec.status = JobStatus::Failed;
            rec.error = Some(msg);
        }
    }
    shared.finished.notify_all();
}

/// Run a job through the staged pipeline, reusing the mode-independent
/// prefix (compile → built-in profile → map) from the stage cache when the
/// same spec — under any metric mode — was prepared before. Prefix stage
/// timings are recorded into the stage histograms once, when built; the
/// metric/assembly stages are recorded on every execution. The `ctx`
/// carries the job deadline and seed into the per-stage checkpoints.
fn run_staged(
    shared: &Shared,
    spec: &AnalysisJob,
    ctx: &RunCtx,
) -> Result<(ProfileReport, Arc<PreparedStages>), ProofError> {
    let skey = spec.stage_cache_key();
    // Single-flight: concurrent misses on one prefix coalesce onto a
    // single prepare. A failed prepare drops the guard (releasing any
    // waiters to build themselves); a panic unwinds through here and the
    // guard's Drop does the same.
    let prep = match shared.stage_cache.lookup_or_begin(&skey) {
        StageLookup::Hit(prep) => prep,
        StageLookup::Miss(guard) => {
            let prep = Arc::new(spec.prepare_ctx(ctx)?);
            shared.stage_hists.record(&prep.trace.stages);
            guard.fulfill(prep)
        }
    };
    let report = run_metric_stages_ctx(&prep, spec.mode, ctx)?;
    shared.stage_hists.record(
        report
            .trace
            .stages
            .iter()
            .filter(|t| matches!(t.stage, PipelineStage::Metrics | PipelineStage::Assemble)),
    );
    Ok((report, prep))
}

/// Register + enqueue one parsed job. Returns `(job id, trace id)`, or the
/// refusal to send: 503 during shutdown (do not retry against this
/// instance), 429 + `Retry-After` when the bounded queue is full.
/// `trace_ctx` is the submitter's distributed trace context: the job-spec
/// `trace_parent` field wins, then the transport-level `X-Proof-Trace`
/// header, then a locally allocated trace id.
fn submit(
    shared: &Shared,
    spec: AnalysisJob,
    group: Option<u64>,
    trace_ctx: Option<(u64, u64)>,
) -> Result<(u64, u64), Response> {
    if !shared.running.load(Ordering::SeqCst) {
        return Err(Response::error(503, "server is shutting down"));
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let (trace, remote_parent) = match spec.trace_parent.or(trace_ctx) {
        Some((trace, span)) => (trace, Some(span)),
        None => (proof_obs::new_trace_id(), None),
    };
    let record = JobRecord {
        spec,
        key: spec.cache_key(),
        status: JobStatus::Queued,
        group,
        trace,
        remote_parent,
        cache_hit: None,
        cache_tier: None,
        error: None,
        artifact: None,
        spans: Arc::new([]),
        compiled: None,
        submitted: Instant::now(),
        queue_wait_us: None,
        execute_us: None,
        attempts: 0,
        timeout_ms: spec.timeout_ms.or(shared.job_timeout_ms),
    };
    shared.reg().insert(id, record);
    if shared.queue.try_push(id).is_err() {
        shared.reg().remove(&id);
        shared.rejected_total.inc();
        shared.flight.record(
            "reject",
            "submission bounced: queue full",
            vec![("queue_depth", FieldValue::U64(shared.queue.depth() as u64))],
        );
        return Err(Response::error(429, "job queue is full").retry_after(RETRY_AFTER_S));
    }
    shared.flight.record(
        "submit",
        format!("job {id} queued"),
        vec![
            ("job", FieldValue::U64(id)),
            ("trace", FieldValue::U64(trace)),
            ("adopted_trace", FieldValue::Bool(remote_parent.is_some())),
        ],
    );
    Ok((id, trace))
}

impl Routes for Shared {
    fn route(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let reply = match (req.method.as_str(), segments.as_slice()) {
            ("POST", ["jobs"]) => post_job(self, req),
            ("POST", ["sweep"]) => post_sweep(self, &req.body, req.trace_parent),
            ("GET", ["jobs", id]) => get_job(self, id, &req.query),
            ("GET", ["jobs", id, "report"]) => get_report(self, id),
            ("GET", ["sweep", gid]) => get_sweep(self, gid),
            ("GET", ["trace", tid]) => get_trace(self, tid, &req.query),
            ("GET", ["cache", key]) => get_cache(self, key),
            ("PUT", ["cache", key]) => put_cache(self, key, &req.body),
            ("POST", ["cache", "peers"]) => post_cache_peers(self, &req.body),
            ("GET", ["metrics"]) if query_has(&req.query, "format", "prometheus") => {
                Ok(Response::prometheus(prometheus_body(self)))
            }
            ("GET", ["metrics"]) => Ok(Response::encode(200, &metrics_json(self))),
            ("GET", ["models"]) => {
                let models = ModelId::ALL.iter().map(|id| id.slug()).collect();
                Ok(Response::encode(200, &Models { models }))
            }
            ("GET", ["healthz"]) => Ok(Response::encode(200, &healthz(self))),
            ("GET", ["debug", "events"]) => Ok(Response::json(200, self.flight.to_json())),
            ("GET" | "POST" | "PUT", _) => Err(Response::error(404, "no such endpoint")),
            _ => Err(Response::error(405, "method not allowed")),
        };
        reply.unwrap_or_else(|refusal| refusal)
    }

    fn received(&self) {
        self.http_requests.inc();
    }

    /// One structured access-log event per request, on stderr when
    /// `PROOF_LOG` allows `info`; built only then.
    fn answered(&self, peer: Option<SocketAddr>, req: Option<&Request>, status: u16) {
        if !proof_obs::event_enabled(Level::Info) {
            return;
        }
        let (method, path) = req.map_or(("-", "-"), |r| (r.method.as_str(), r.path.as_str()));
        let peer = peer.map_or_else(|| "unknown".to_string(), |a| a.to_string());
        proof_obs::event(
            Level::Info,
            "proof_serve::http",
            format!("{method} {path} -> {status}"),
            vec![
                ("peer", FieldValue::Str(peer)),
                ("status", FieldValue::U64(u64::from(status))),
            ],
        );
    }
}

#[derive(Serialize)]
struct Models {
    models: Vec<&'static str>,
}

/// The fleet probe target: liveness plus the load signals a coordinator
/// needs for capacity-weighted dispatch — queue depth/capacity, worker
/// count, and workers busy right now — plus uptime, build version, and a
/// per-tier cache hit/miss summary for operators eyeballing a node.
#[derive(Serialize)]
struct Healthz {
    status: &'static str,
    version: &'static str,
    uptime_s: u64,
    queue_depth: usize,
    queue_capacity: usize,
    workers: usize,
    in_flight: u64,
    cache: CacheTiers,
}

/// Per-tier cache hit counters plus the shared miss count, read from the
/// registry instruments the tiered store keeps live. A fleet coordinator
/// reads them back to sum the fleet's cache tiers.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheTiers {
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub remote_hits: u64,
    pub misses: u64,
}

fn healthz(shared: &Shared) -> Healthz {
    let workers = shared.worker_metrics.snapshot();
    let counter = |name: &str| shared.metrics.counter(name).get();
    Healthz {
        status: "ok",
        version: env!("CARGO_PKG_VERSION"),
        uptime_s: shared.started.elapsed().as_secs(),
        queue_depth: shared.queue.depth(),
        queue_capacity: shared.queue.capacity(),
        workers: workers.count,
        in_flight: workers.busy,
        cache: CacheTiers {
            memory_hits: counter("cache_memory_hits_total"),
            disk_hits: counter("cache_disk_hits_total"),
            remote_hits: counter("cache_remote_hits_total"),
            misses: counter("cache_misses_total"),
        },
    }
}

/// A 400 carrying `e` as its error message.
fn invalid(e: impl std::fmt::Display) -> Response {
    Response::error(400, &e.to_string())
}

fn parse_json(body: &str) -> Result<Value, Response> {
    serde_json::from_str(body).map_err(|e| invalid(format!("invalid JSON: {e}")))
}

fn parse_id(s: &str, what: &str) -> Result<u64, Response> {
    s.parse()
        .map_err(|_| invalid(format!("{what} id must be an integer")))
}

#[derive(Serialize)]
struct Submitted {
    id: u64,
    key: String,
    trace: u64,
    status: &'static str,
}

/// The `wait_ms` query param, capped at [`MAX_JOB_WAIT`]; `None` when
/// absent.
fn job_wait(query: &str) -> Result<Option<Duration>, Response> {
    query_param(query, "wait_ms")
        .map(|ms| {
            ms.parse()
                .map(|ms| Duration::from_millis(ms).min(MAX_JOB_WAIT))
                .map_err(|_| invalid("wait_ms must be an integer"))
        })
        .transpose()
}

fn post_job(shared: &Shared, req: &Request) -> Reply {
    let wait = job_wait(&req.query)?;
    let spec = AnalysisJob::from_value(&parse_json(&req.body)?).map_err(invalid)?;
    let (id, trace) = submit(shared, spec, None, req.trace_parent)?;
    if let Some(wait) = wait {
        let done = shared
            .reg_when_final(id, wait)
            .get(&id)
            .filter(|r| r.status == JobStatus::Done)
            .and_then(|r| r.artifact.clone());
        if let Some(artifact) = done {
            return Ok(Response::json(200, artifact).job(id));
        }
    }
    let key = spec.cache_key();
    Ok(Response::encode(
        201,
        &Submitted {
            id,
            key,
            trace,
            status: "queued",
        },
    ))
}

fn get_job(shared: &Shared, id: &str, query: &str) -> Reply {
    let id = parse_id(id, "job")?;
    let reg = match job_wait(query)? {
        Some(wait) => shared.reg_when_final(id, wait),
        None => shared.reg(),
    };
    match reg.get(&id) {
        Some(rec) => Ok(Response::encode(200, &rec.view(id))),
        None => Err(Response::error(404, "no such job")),
    }
}

fn get_report(shared: &Shared, id: &str) -> Reply {
    let id = parse_id(id, "job")?;
    let reg = shared.reg();
    let rec = reg
        .get(&id)
        .ok_or_else(|| Response::error(404, "no such job"))?;
    Err(match (rec.status, &rec.artifact) {
        (JobStatus::Done, Some(artifact)) => return Ok(Response::json(200, Arc::clone(artifact))),
        (JobStatus::Failed, _) => {
            Response::error(500, rec.error.as_deref().unwrap_or("job failed"))
        }
        (JobStatus::TimedOut, _) => {
            Response::error(504, rec.error.as_deref().unwrap_or("job deadline exceeded"))
        }
        _ => Response::error(409, "job not finished yet"),
    })
}

/// `GET /trace/<trace-id>` — the merged Chrome-trace JSON of a finished
/// job's execution (pipeline-stage spans + kernel timeline on one clock),
/// rendered on request from the spans stored on the job's record. The id
/// is the `trace` field of the job-submission reply and job status. When
/// several jobs share the trace (an adopted one), the lowest job id is
/// served, with 409 until that job is final.
///
/// `?format=spans` returns the raw span records of every job of the trace
/// on this daemon instead: `{"trace":id,"spans":[...]}`, each job's spans
/// together in job-id order, sorted by logical start within a job (every
/// job runs on its own capture clock). This is the cross-node merge
/// surface — a fleet coordinator that propagated its trace id into
/// dispatched jobs pulls every node's share of the trace here and
/// re-assembles one document.
fn get_trace(shared: &Shared, tid: &str, query: &str) -> Reply {
    let tid = parse_id(tid, "trace")?;
    if query_has(query, "format", "spans") {
        return trace_spans(shared, tid);
    }
    let (spans, compiled) = {
        let reg = shared.reg();
        let (_, rec) = reg
            .iter()
            .filter(|(_, r)| r.trace == tid)
            .min_by_key(|(&id, _)| id)
            .ok_or_else(|| Response::error(404, "no such trace"))?;
        if !rec.status.is_final() {
            return Err(Response::error(409, "job not finished yet"));
        }
        (Arc::clone(&rec.spans), rec.compiled.clone())
    };
    // `remote_parent` (a foreign process-local span id) varies run to run,
    // so it stays out of the byte-reproducible document; the `?format=spans`
    // listing keeps it for cross-node merging
    let spans: Vec<SpanRecord> = spans
        .iter()
        .cloned()
        .map(|mut s| {
            s.fields.retain(|(k, _)| *k != "remote_parent");
            s
        })
        .collect();
    let model = compiled.as_deref().map(|c| &c.compiled);
    Ok(Response::json(200, merged_chrome_trace(&spans, model)))
}

fn field_value_json(v: &FieldValue) -> Value {
    match v {
        FieldValue::U64(n) => Value::from(*n),
        FieldValue::I64(n) => Value::from(*n),
        FieldValue::F64(x) if x.is_finite() => Value::from(*x),
        FieldValue::F64(_) => Value::Null,
        FieldValue::Bool(b) => Value::from(*b),
        FieldValue::Str(s) => Value::from(s.as_str()),
    }
}

/// The `GET /trace/<id>?format=spans` listing; a fleet coordinator reads
/// it back to merge one trace across nodes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSpans {
    pub trace: u64,
    pub spans: Vec<SpanView>,
}

/// One span of a [`TraceSpans`] listing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanView {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub wall_us: f64,
    pub fields: BTreeMap<String, Value>,
}

/// The `?format=spans` body: the stored spans of this daemon's jobs of
/// trace `tid`, one job after another in job-id order.
fn trace_spans(shared: &Shared, tid: u64) -> Reply {
    let mut jobs: Vec<(u64, Arc<[SpanRecord]>)> = shared
        .reg()
        .iter()
        .filter(|(_, r)| r.trace == tid)
        .map(|(&id, r)| (id, Arc::clone(&r.spans)))
        .collect();
    jobs.sort_unstable_by_key(|(id, _)| *id);
    let spans: Vec<SpanView> = jobs
        .iter()
        .flat_map(|(_, spans)| span_listing(tid, spans.to_vec()).spans)
        .collect();
    if spans.is_empty() {
        return Err(Response::error(404, "no such trace"));
    }
    Ok(Response::encode(200, &TraceSpans { trace: tid, spans }))
}

/// One job's span listing under trace `tid`, sorted by (logical start, id)
/// so it is deterministic.
fn span_listing(tid: u64, mut spans: Vec<SpanRecord>) -> TraceSpans {
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
    let spans = spans
        .iter()
        .map(|s| SpanView {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            start_us: s.start_us,
            end_us: s.end_us,
            wall_us: s.wall_us,
            fields: s
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), field_value_json(v)))
                .collect(),
        })
        .collect();
    TraceSpans { trace: tid, spans }
}

/// `GET /cache/<key>` — the peer-cache read surface. Serves only the
/// *local* tiers (memory, then disk): a peer asking us must never make us
/// ask our own peers, or two cold nodes would chase each other's remote
/// tiers for a key neither has.
fn get_cache(shared: &Shared, key: &str) -> Reply {
    let key = ArtifactKey::new(key).map_err(invalid)?;
    match shared.cache.get_local(&key) {
        Some(artifact) => Ok(Response::json(200, artifact)),
        None => Err(Response::error(404, "no such cache entry")),
    }
}

#[derive(Serialize)]
struct Stored {
    key: String,
    bytes: usize,
}

/// `PUT /cache/<key>` — the peer-cache write surface (publish-on-build
/// replication). The body must parse as JSON; anything else is rejected so
/// a confused peer cannot poison the local tiers.
fn put_cache(shared: &Shared, key: &str, body: &str) -> Reply {
    let key = ArtifactKey::new(key).map_err(invalid)?;
    let bytes = shared
        .cache
        .insert_local(&key, body.to_string())
        .map_err(invalid)?;
    let key = key.as_str().to_string();
    Ok(Response::encode(201, &Stored { key, bytes }))
}

/// The `POST /cache/peers` body: the peer cache endpoints to attach, as
/// `ip:port` strings. A fleet coordinator writes it.
#[derive(Debug, Serialize, Deserialize)]
pub struct PeerList {
    pub peers: Vec<String>,
}

/// The `POST /cache/peers` reply: addresses taken from this advertisement
/// and the peers attached in all.
#[derive(Debug, Serialize, Deserialize)]
pub struct PeersAdded {
    pub added: u64,
    pub peers: usize,
}

/// `POST /cache/peers` — fleet advertisement: attaches peer cache endpoints
/// on the remote tier. Every address must parse before any is attached, so
/// a refused advertisement changes nothing. An address already attached is
/// kept as it is, with its warm connections: this daemon would build the
/// same peer again (same address, same `peer_timeout`), and a coordinator
/// re-advertises every peer at the start of every run.
fn post_cache_peers(shared: &Shared, body: &str) -> Reply {
    let list: PeerList = serde_json::from_value(&parse_json(body)?)
        .map_err(|_| invalid("body must be {\"peers\": [\"ip:port\", ...]}"))?;
    let addrs = list
        .peers
        .iter()
        .map(|peer| {
            peer.parse::<SocketAddr>()
                .map_err(|_| invalid(format!("invalid peer address: {peer:?}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let attached = shared.cache.peer_endpoints();
    for &addr in &addrs {
        if !attached.contains(&addr.to_string()) {
            shared
                .cache
                .add_peer(Arc::new(HttpPeer::new(addr, shared.peer_timeout)));
        }
    }
    let added = addrs.len() as u64;
    let peers = shared.cache.peer_count();
    Ok(Response::encode(200, &PeersAdded { added, peers }))
}

#[derive(Serialize)]
struct SweepSubmitted {
    group: u64,
    submitted: usize,
    jobs: Vec<u64>,
}

/// `POST /sweep`: every job the body's grid names, in canonical cell
/// order, as one group. The whole grid is resolved before any job is
/// enqueued.
fn post_sweep(shared: &Shared, body: &str, trace_ctx: Option<(u64, u64)>) -> Reply {
    let body = parse_json(body)?;
    if body.as_object().is_none() {
        return Err(invalid("sweep spec must be a JSON object"));
    }
    let specs = AnalysisJob::from_body(&body).map_err(invalid)?;
    if shared.queue.capacity() - shared.queue.depth() < specs.len() {
        shared.rejected_total.inc();
        return Err(
            Response::error(429, "job queue cannot hold the whole sweep")
                .retry_after(RETRY_AFTER_S),
        );
    }
    let group = shared.next_group.fetch_add(1, Ordering::SeqCst);
    let mut jobs = Vec::with_capacity(specs.len());
    for spec in specs {
        jobs.push(submit(shared, spec, Some(group), trace_ctx)?.0);
    }
    let submitted = jobs.len();
    Ok(Response::encode(
        201,
        &SweepSubmitted {
            group,
            submitted,
            jobs,
        },
    ))
}

#[derive(Serialize)]
struct SweepStatus {
    group: u64,
    total: usize,
    queued: usize,
    running: usize,
    done: usize,
    failed: usize,
    timed_out: usize,
    jobs: Vec<JobView>,
}

fn get_sweep(shared: &Shared, gid: &str) -> Reply {
    let gid = parse_id(gid, "sweep group")?;
    let reg = shared.reg();
    let mut members: Vec<(u64, &JobRecord)> = reg
        .iter()
        .filter(|(_, r)| r.group == Some(gid))
        .map(|(&id, r)| (id, r))
        .collect();
    if members.is_empty() {
        return Err(Response::error(404, "no such sweep group"));
    }
    members.sort_by_key(|(id, _)| *id);
    let c = JobCounts::of(members.iter().map(|(_, r)| *r));
    Ok(Response::encode(
        200,
        &SweepStatus {
            group: gid,
            total: c.total,
            queued: c.queued,
            running: c.running,
            done: c.done,
            failed: c.failed,
            timed_out: c.timed_out,
            jobs: members.iter().map(|(id, r)| r.view(*id)).collect(),
        },
    ))
}

/// The JSON form of `GET /metrics`.
#[derive(Serialize)]
struct MetricsJson {
    queue: QueueGauge,
    jobs: JobCounts,
    workers: WorkerSnapshot,
    cache: StoreStats,
    stage_cache: StageCacheStats,
    latency: Latency,
    stages: BTreeMap<String, HistJson>,
}

#[derive(Serialize)]
struct QueueGauge {
    depth: usize,
    capacity: usize,
}

#[derive(Serialize)]
struct Latency {
    queue_wait_us: HistJson,
    execute_us: HistJson,
    total_us: HistJson,
}

fn metrics_json(shared: &Shared) -> MetricsJson {
    MetricsJson {
        queue: QueueGauge {
            depth: shared.queue.depth(),
            capacity: shared.queue.capacity(),
        },
        jobs: JobCounts::of(shared.reg().values()),
        workers: shared.worker_metrics.snapshot(),
        cache: shared.cache.stats(),
        stage_cache: shared.stage_cache.stats(),
        latency: Latency {
            queue_wait_us: HistJson::from(shared.hist_queue_wait.snapshot()),
            execute_us: HistJson::from(shared.hist_execute.snapshot()),
            total_us: HistJson::from(shared.hist_total.snapshot()),
        },
        stages: shared
            .stage_hists
            .snapshot()
            .into_iter()
            .map(|(name, snap)| (format!("{name}_us"), HistJson::from(snap)))
            .collect(),
    }
}

/// `GET /metrics?format=prometheus` — text exposition of every registry
/// instrument plus scrape-time derived series (queue/job/worker/cache
/// state), all under the `proof_serve_` prefix.
fn prometheus_body(shared: &Shared) -> String {
    let mut snap = shared.metrics.snapshot();

    let jobs = JobCounts::of(shared.reg().values());
    let workers = shared.worker_metrics.snapshot();
    let cache = shared.cache.stats();
    let stage_cache = shared.stage_cache.stats();
    // Per-tier cache counters (cache_memory_hits_total, cache_disk_hits_total,
    // cache_remote_hits_total, cache_misses_total, cache_evictions_total, ...)
    // are registered live on the registry by the store, so the snapshot
    // already carries them; only the aggregate and non-registry series are
    // derived here.
    snap.counters.extend([
        ("jobs_done_total".to_string(), jobs.done as u64),
        ("jobs_failed_total".to_string(), jobs.failed as u64),
        ("jobs_timed_out_total".to_string(), jobs.timed_out as u64),
        ("jobs_submitted_total".to_string(), jobs.total as u64),
        ("jobs_executed_total".to_string(), workers.jobs_executed),
        ("cache_hits_total".to_string(), cache.hits),
        ("stage_cache_hits_total".to_string(), stage_cache.hits),
        ("stage_cache_misses_total".to_string(), stage_cache.misses),
        (
            "trace_spans_dropped_total".to_string(),
            shared.capture_dropped.load(Ordering::Relaxed),
        ),
    ]);
    snap.gauges.extend([
        ("queue_depth".to_string(), shared.queue.depth() as f64),
        ("queue_capacity".to_string(), shared.queue.capacity() as f64),
        ("jobs_queued".to_string(), jobs.queued as f64),
        ("jobs_running".to_string(), jobs.running as f64),
        ("workers".to_string(), workers.count as f64),
        ("workers_busy".to_string(), workers.busy as f64),
        ("worker_utilization".to_string(), workers.utilization),
        ("cache_entries".to_string(), cache.entries as f64),
        ("cache_bytes".to_string(), cache.bytes as f64),
        ("cache_budget_bytes".to_string(), cache.budget_bytes as f64),
        ("cache_peers".to_string(), cache.peers as f64),
        (
            "stage_cache_entries".to_string(),
            stage_cache.entries as f64,
        ),
    ]);
    snap.counters.sort_by(|a, b| a.0.cmp(&b.0));
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    prometheus_text(&snap, "proof_serve_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_listing_field_encoding_is_pinned() {
        let span = |id, start_us, fields| SpanRecord {
            id,
            trace: 7,
            parent: 1,
            name: "stage",
            start_us,
            end_us: start_us + 2.5,
            wall_us: 12.25,
            fields,
        };
        let listing = span_listing(
            7,
            vec![
                span(
                    4,
                    3.0,
                    vec![
                        ("u", FieldValue::U64(u64::MAX)),
                        ("i", FieldValue::I64(-5)),
                        ("f", FieldValue::F64(0.1)),
                        ("nan", FieldValue::F64(f64::NAN)),
                        ("inf", FieldValue::F64(f64::INFINITY)),
                        ("b", FieldValue::Bool(true)),
                        ("s", FieldValue::Str("a \"q\"".to_string())),
                    ],
                ),
                span(3, 1.5, Vec::new()),
            ],
        );
        assert_eq!(
            serde_json::to_string(&listing).unwrap(),
            r#"{"spans":[{"end_us":4.0,"fields":{},"id":3,"name":"stage","parent":1,"start_us":1.5,"wall_us":12.25},{"end_us":5.5,"fields":{"b":true,"f":0.1,"i":-5,"inf":null,"nan":null,"s":"a \"q\"","u":18446744073709551615},"id":4,"name":"stage","parent":1,"start_us":3.0,"wall_us":12.25}],"trace":7}"#
        );
    }
}
