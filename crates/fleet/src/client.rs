//! The coordinator's view of one worker daemon: a thin typed wrapper over
//! `proof_serve::client` that turns HTTP status codes into the outcomes the
//! dispatcher schedules on.
//!
//! Every call is bounded by the fleet's per-request timeout, so a wedged
//! node surfaces as [`WorkerError::Unreachable`] instead of hanging the
//! dispatch loop. A [`WorkerClient`] keeps its node's connections alive in
//! a pool shared by its clones, and splits the exchanges the dispatcher
//! overlaps across nodes into a write now and a [`Pending::read`] later.
//! Nothing here retries: a 429/503 is its own variant,
//! [`WorkerError::Busy`] — the node is alive, just saturated, and the
//! dispatcher schedules around it — and a job the worker itself reports as
//! failed/timed-out is a third: the *shard* needs a different node, not
//! this node declared dead on one bad job alone.

use crate::runs::RunStatus;
use crate::server::Accepted;
use proof_obs::{FieldValue, Level};
use proof_serve::client::{Call, ConnPool, Sent};
use proof_serve::{CacheTiers, PeerList, PeersAdded, Response, TraceSpans};
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The load signals the weighted scheduler scores on, from `GET /healthz`.
/// `workers` and `queue_capacity` are floored at 1 by
/// [`WorkerClient::probe`] (a zero would erase the node from the weighted
/// score or zero its in-flight cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHealth {
    pub queue_depth: u64,
    pub queue_capacity: u64,
    pub workers: u64,
    pub in_flight: u64,
}

/// Why a worker interaction did not produce the asked-for result.
#[derive(Debug, Clone)]
pub enum WorkerError {
    /// Transport-level failure: refused, timed out, or died mid-response.
    /// The node is suspect.
    Unreachable(String),
    /// The node answered 429/503: it is alive but saturated — back off,
    /// don't bury it.
    Busy { retry_after_s: Option<u64> },
    /// The worker accepted the job but reported it failed or timed out.
    JobFailed(String),
    /// Any other unexpected HTTP reply or malformed body.
    Protocol(String),
}

impl From<serde_json::Error> for WorkerError {
    fn from(e: serde_json::Error) -> WorkerError {
        WorkerError::Protocol(format!("bad JSON: {e}"))
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Unreachable(e) => write!(f, "unreachable: {e}"),
            WorkerError::Busy { retry_after_s } => {
                write!(f, "busy (retry-after {retry_after_s:?}s)")
            }
            WorkerError::JobFailed(e) => write!(f, "job failed: {e}"),
            WorkerError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

/// What a submission settled as, from `POST /jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// `201`: queued under this job id; its status says when it is done.
    Queued(u64),
    /// `200`: the job finished within the submission's wait, and `report`
    /// is its artifact, byte-exact, in the buffer the reply was read into.
    Done { job_id: u64, report: Arc<String> },
}

/// Lifecycle of a submitted job, from `GET /jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPoll {
    /// Queued or running — keep polling.
    Pending,
    /// Finished; the report is ready to fetch.
    Done,
    /// The worker gave up on it (failed or deadline-expired).
    Failed(String),
}

// One-time-warning latches for malformed healthz capacity signals, per
// process: the condition repeats on every probe cadence and would
// otherwise flood the event stream.
static WARNED_WORKERS: AtomicBool = AtomicBool::new(false);
static WARNED_QUEUE_CAP: AtomicBool = AtomicBool::new(false);

/// The `GET /healthz` fields the coordinator reads; proof-serve's `Healthz`
/// writes them. The load signals are optional so that a node leaving one
/// out is floored rather than refused.
#[derive(Debug, Clone, Deserialize)]
pub struct NodeHealth {
    pub queue_depth: Option<u64>,
    pub queue_capacity: Option<u64>,
    pub workers: Option<u64>,
    pub in_flight: Option<u64>,
    /// The node's per-tier cache counters.
    pub cache: Option<CacheTiers>,
}

/// The `201` reply to `POST /jobs` (proof-serve's `Submitted`): the job id.
#[derive(Deserialize)]
struct Queued {
    id: u64,
}

/// The `GET /jobs/<id>` fields the dispatcher reads (proof-serve's
/// `JobView`).
#[derive(Deserialize)]
struct JobState {
    status: String,
    error: Option<String>,
}

/// A capacity signal (`workers`, `queue_capacity`) floored at 1: a missing
/// or zero value would make weighted dispatch score the node as
/// zero-capacity and silently starve it. The first malformed sighting per
/// process emits a `Warn` naming the field.
fn capacity_signal(got: Option<u64>, addr: SocketAddr, key: &str, warned: &AtomicBool) -> u64 {
    match got {
        Some(n) if n >= 1 => n,
        got => {
            if !warned.swap(true, Ordering::Relaxed) {
                let what = if got.is_some() { "zero" } else { "no" };
                proof_obs::event(
                    Level::Warn,
                    "proof_fleet",
                    format!(
                        "healthz from {addr} advertises {what} {key}; flooring at 1 so \
                         weighted dispatch cannot starve the node"
                    ),
                    vec![
                        ("field", FieldValue::Str(key.to_string())),
                        ("node_addr", FieldValue::Str(addr.to_string())),
                    ],
                );
            }
            1
        }
    }
}

/// A transport failure: the far end is suspect.
fn unreachable(e: std::io::Error) -> WorkerError {
    WorkerError::Unreachable(e.to_string())
}

/// A request written to a worker whose reply is still to be read: the
/// dispatcher writes to every node before it reads from any.
#[derive(Debug)]
pub struct Pending<T> {
    sent: Sent,
    parse: fn(Response) -> Result<T, WorkerError>,
}

impl<T> Pending<T> {
    /// Read the reply and interpret it.
    pub fn read(self) -> Result<T, WorkerError> {
        (self.parse)(self.sent.read().map_err(unreachable)?)
    }
}

fn busy(r: &Response) -> WorkerError {
    WorkerError::Busy {
        retry_after_s: r.retry_after_s,
    }
}

fn submission(r: Response) -> Result<Submission, WorkerError> {
    match (r.status, r.job) {
        (200, Some(job_id)) => Ok(Submission::Done {
            job_id,
            report: r.body,
        }),
        (201, _) => Ok(Submission::Queued(r.decode::<Queued>()?.id)),
        (429 | 503, _) => Err(busy(&r)),
        (s, _) => Err(WorkerError::Protocol(format!(
            "submission returned {s}: {}",
            r.body
        ))),
    }
}

fn job_poll(r: Response) -> Result<JobPoll, WorkerError> {
    // a backpressured status GET means the node is alive but saturated —
    // the dispatcher must keep the shard's deadline ticking, not treat
    // this as protocol breakage
    if r.status == 429 || r.status == 503 {
        return Err(busy(&r));
    }
    if r.status != 200 {
        return Err(WorkerError::Protocol(format!(
            "job status returned {}: {}",
            r.status, r.body
        )));
    }
    let job: JobState = r.decode()?;
    match job.status.as_str() {
        "queued" | "running" => Ok(JobPoll::Pending),
        "done" => Ok(JobPoll::Done),
        "failed" | "timed_out" => Ok(JobPoll::Failed(
            job.error.unwrap_or_else(|| "unknown error".to_string()),
        )),
        other => Err(WorkerError::Protocol(format!("unknown job status {other}"))),
    }
}

/// The `?wait_ms=` suffix of a job request that may wait for the job.
fn wait_query(wait: Option<Duration>) -> String {
    wait.map_or(String::new(), |w| format!("?wait_ms={}", w.as_millis()))
}

/// A handle to one worker daemon.
#[derive(Debug, Clone)]
pub struct WorkerClient {
    pub addr: SocketAddr,
    /// Per-request transport bound (connect + each read/write).
    pub timeout: Duration,
    /// The node's kept-alive connections, shared by every clone.
    pool: ConnPool,
}

impl WorkerClient {
    pub fn new(addr: SocketAddr, timeout: Duration) -> WorkerClient {
        WorkerClient {
            addr,
            timeout,
            pool: ConnPool::default(),
        }
    }

    /// A bounded call to this node over a kept-alive connection.
    fn call<'a>(&'a self, method: &'a str, path: &'a str) -> Call<'a> {
        Call::new(self.addr, method, path)
            .timeout(self.timeout)
            .keep_alive(&self.pool)
    }

    fn get(&self, path: &str) -> Result<Response, WorkerError> {
        self.call("GET", path).send().map_err(unreachable)
    }

    /// `GET /healthz` — the one reader of a node's health document. One
    /// bounded attempt: a probe that needs a retry is already the answer.
    pub fn health(&self) -> Result<NodeHealth, WorkerError> {
        let r = self.get("/healthz")?;
        if r.status != 200 {
            return Err(WorkerError::Protocol(format!(
                "healthz returned {}",
                r.status
            )));
        }
        Ok(r.decode()?)
    }

    /// The node's load signals, capacity floored at 1.
    pub fn probe(&self) -> Result<WorkerHealth, WorkerError> {
        let h = self.health()?;
        Ok(WorkerHealth {
            queue_depth: h.queue_depth.unwrap_or(0),
            queue_capacity: capacity_signal(
                h.queue_capacity,
                self.addr,
                "queue_capacity",
                &WARNED_QUEUE_CAP,
            ),
            workers: capacity_signal(h.workers, self.addr, "workers", &WARNED_WORKERS),
            in_flight: h.in_flight.unwrap_or(0),
        })
    }

    /// Write `POST /jobs` carrying the coordinator's distributed trace
    /// context as an `X-Proof-Trace: <trace>:<parent span>` header, so the
    /// worker executes the job inside the fleet's trace instead of
    /// allocating its own. With `wait`, the worker holds the reply until
    /// the job is done or `wait` passes, and a done job comes back inline.
    ///
    /// A 429/503 reads as `Busy` at once: sleeping out the node's
    /// Retry-After here would block the single-threaded dispatch loop, so
    /// the registry holds the node off instead while other nodes keep
    /// working.
    pub fn begin_submit<T: Serialize + ?Sized>(
        &self,
        job: &T,
        trace: Option<(u64, u64)>,
        wait: Option<Duration>,
    ) -> Result<Pending<Submission>, WorkerError> {
        let header_value = trace.map(|(t, s)| format!("{t}:{s}"));
        let headers: Vec<(&str, &str)> = header_value
            .as_deref()
            .map(|v| vec![("X-Proof-Trace", v)])
            .unwrap_or_default();
        let path = format!("/jobs{}", wait_query(wait));
        let body = serde::ser::to_json(job, false);
        let sent = self
            .call("POST", &path)
            .body(&body)
            .headers(&headers)
            .write()
            .map_err(unreachable)?;
        Ok(Pending {
            sent,
            parse: submission,
        })
    }

    /// Write `GET /jobs/<id>`; with `wait`, the worker holds the reply
    /// until the job is final or `wait` passes.
    pub fn begin_poll(
        &self,
        id: u64,
        wait: Option<Duration>,
    ) -> Result<Pending<JobPoll>, WorkerError> {
        let path = format!("/jobs/{id}{}", wait_query(wait));
        let sent = self.call("GET", &path).write().map_err(unreachable)?;
        Ok(Pending {
            sent,
            parse: job_poll,
        })
    }

    /// `POST /cache/peers` — advertise the other nodes' cache endpoints so
    /// this worker's tiered store can serve rescheduled shards from a warm
    /// peer instead of re-simulating.
    pub fn advertise_peers(&self, peers: &[SocketAddr]) -> Result<PeersAdded, WorkerError> {
        let body = PeerList {
            peers: peers.iter().map(|a| a.to_string()).collect(),
        };
        let body = serde::ser::to_json(&body, false);
        let r = self
            .call("POST", "/cache/peers")
            .body(&body)
            .send()
            .map_err(unreachable)?;
        if r.status != 200 {
            return Err(WorkerError::Protocol(format!(
                "peer advertisement returned {}: {}",
                r.status, r.body
            )));
        }
        Ok(r.decode()?)
    }

    /// The worker's lifetime remote-tier hit count (`/healthz`
    /// `cache.remote_hits`, the counter `/metrics` reports as
    /// `cache_remote_hits_total`), for the coordinator's
    /// `fleet_cache_remote_hits` aggregation.
    pub fn cache_remote_hits(&self) -> Result<u64, WorkerError> {
        self.health()?
            .cache
            .map(|c| c.remote_hits)
            .ok_or_else(|| WorkerError::Protocol("healthz without cache tiers".into()))
    }

    /// `GET /trace/<trace>?format=spans` — the worker's span listing for
    /// one trace, for the coordinator's cross-node merge. `Ok(None)` when
    /// the worker holds no spans for that trace (it executed no shard of
    /// the run).
    pub fn fetch_trace_spans(&self, trace: u64) -> Result<Option<TraceSpans>, WorkerError> {
        let r = self.get(&format!("/trace/{trace}?format=spans"))?;
        match r.status {
            200 => Ok(Some(r.decode()?)),
            404 => Ok(None),
            s => Err(WorkerError::Protocol(format!("trace fetch returned {s}"))),
        }
    }

    /// `GET /metrics?format=prometheus` — the worker's full text
    /// exposition, for the coordinator's federated scrape.
    pub fn scrape_prometheus(&self) -> Result<String, WorkerError> {
        let r = self.get("/metrics?format=prometheus")?;
        if r.status != 200 {
            return Err(WorkerError::Protocol(format!(
                "metrics scrape returned {}",
                r.status
            )));
        }
        Ok(r.into_body())
    }

    /// `GET /jobs/<id>/report` — the finished artifact, byte-exact, in
    /// the buffer the reply was read into.
    pub fn report(&self, id: u64) -> Result<Arc<String>, WorkerError> {
        let r = self.get(&format!("/jobs/{id}/report"))?;
        match r.status {
            200 => Ok(r.body),
            429 | 503 => Err(busy(&r)),
            500 | 504 => Err(WorkerError::JobFailed(r.into_body())),
            s => Err(WorkerError::Protocol(format!("report returned {s}"))),
        }
    }
}

/// A typed client for the *coordinator's* streaming grid surface — the
/// job-style mirror of [`WorkerClient`], one level up the hierarchy.
/// Wraps `POST /grid/submit`, `GET /grid/<id>/status?since=`, and
/// `GET /grid/<id>/result` so programmatic callers (and tests) don't
/// hand-roll the three-endpoint poll loop.
#[derive(Debug, Clone)]
pub struct CoordinatorClient {
    pub addr: SocketAddr,
    /// Per-request transport bound (connect + each read/write).
    pub timeout: Duration,
}

/// What `GET /grid/<id>/result` answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunResult {
    /// 202 — the run thread is still dispatching; poll again.
    Running,
    /// 200 — the merged artifact, byte-identical to the sync path.
    Done(String),
    /// The coordinator reported the run's terminal `FleetError`.
    Failed(String),
}

impl CoordinatorClient {
    pub fn new(addr: SocketAddr, timeout: Duration) -> CoordinatorClient {
        CoordinatorClient { addr, timeout }
    }

    fn call(&self, method: &str, path: &str, body: &str) -> Result<Response, WorkerError> {
        Call::new(self.addr, method, path)
            .body(body)
            .timeout(self.timeout)
            .send()
            .map_err(unreachable)
    }

    fn get(&self, path: &str) -> Result<Response, WorkerError> {
        self.call("GET", path, "")
    }

    /// `POST /grid/submit` — validate the spec and mint a run; returns the
    /// run id the status/result endpoints key on.
    pub fn submit_grid(&self, spec_json: &str) -> Result<u64, WorkerError> {
        let r = self.call("POST", "/grid/submit", spec_json)?;
        if r.status != 202 {
            return Err(WorkerError::Protocol(format!(
                "grid submit returned {}: {}",
                r.status, r.body
            )));
        }
        Ok(r.decode::<Accepted>()?.run_id)
    }

    /// `GET /grid/<id>/status?since=<seq>` — live counts plus every
    /// progress event past the cursor; the returned document's `seq` is
    /// the exact cursor for the next poll.
    pub fn run_status(&self, run_id: u64, since: u64) -> Result<RunStatus, WorkerError> {
        let r = self.get(&format!("/grid/{run_id}/status?since={since}"))?;
        if r.status != 200 {
            return Err(WorkerError::Protocol(format!(
                "run status returned {}: {}",
                r.status, r.body
            )));
        }
        Ok(r.decode()?)
    }

    /// `GET /grid/<id>/result` — the run's terminal artifact, if any.
    pub fn run_result(&self, run_id: u64) -> Result<RunResult, WorkerError> {
        let r = self.get(&format!("/grid/{run_id}/result"))?;
        match r.status {
            200 => Ok(RunResult::Done(r.into_body())),
            202 => Ok(RunResult::Running),
            400 | 500 => Ok(RunResult::Failed(r.into_body())),
            s => Err(WorkerError::Protocol(format!("run result returned {s}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proof_serve::{ServeConfig, Server};

    fn local_server() -> Server {
        Server::start(ServeConfig::default()).unwrap()
    }

    #[test]
    fn probe_reads_the_load_signals() {
        let server = local_server();
        let c = WorkerClient::new(server.addr(), Duration::from_secs(5));
        let h = c.probe().unwrap();
        assert_eq!(h.workers, 2);
        assert!(h.queue_capacity > 0);
        assert_eq!(h.in_flight, 0);
        server.shutdown();
    }

    #[test]
    fn submit_poll_report_round_trip() {
        let server = local_server();
        let c = WorkerClient::new(server.addr(), Duration::from_secs(5));
        let job: serde_json::Value =
            serde_json::from_str(r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1}"#)
                .unwrap();
        let id = match c.begin_submit(&job, None, None).unwrap().read().unwrap() {
            Submission::Queued(id) => id,
            Submission::Done { .. } => panic!("a submission without a wait settled inline"),
        };
        let mut polls = 0;
        loop {
            match c.begin_poll(id, None).unwrap().read().unwrap() {
                JobPoll::Done => break,
                JobPoll::Pending => {
                    polls += 1;
                    assert!(polls < 2_000, "job never finished");
                    std::thread::sleep(Duration::from_millis(5));
                }
                JobPoll::Failed(e) => panic!("job failed: {e}"),
            }
        }
        let report = c.report(id).unwrap();
        assert!(report.contains("\"model\""));
        server.shutdown();
    }

    #[test]
    fn probe_floors_missing_or_zero_capacity_signals_at_one() {
        // a healthz body with no `workers` and a zero `queue_capacity`
        // must not zero the load signals — weighted dispatch would score
        // the node as zero-capacity and starve it
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                let body = r#"{"status":"ok","queue_depth":3,"queue_capacity":0,"in_flight":1}"#;
                let _ = s.write_all(
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        });
        let c = WorkerClient::new(addr, Duration::from_secs(2));
        let h = c.probe().unwrap();
        assert_eq!(h.workers, 1, "missing workers floors at 1");
        assert_eq!(h.queue_capacity, 1, "zero queue_capacity floors at 1");
        assert_eq!(h.queue_depth, 3, "depth passes through untouched");
        assert_eq!(h.in_flight, 1);
    }

    #[test]
    fn coordinator_client_drives_a_streaming_run() {
        let fleet = crate::Fleet::start(crate::FleetConfig::local(1)).unwrap();
        let server = crate::FleetServer::start(fleet, crate::FleetServerConfig::default()).unwrap();
        let c = CoordinatorClient::new(server.addr(), Duration::from_secs(5));

        // a spec that fails validation is rejected at submit, not minted
        assert!(matches!(
            c.submit_grid(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[]}"#),
            Err(WorkerError::Protocol(_))
        ));

        let spec = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":7}"#;
        let id = c.submit_grid(spec).unwrap();
        let mut cursor = 0;
        let merged = loop {
            let s = c.run_status(id, cursor).unwrap();
            assert!(s.seq >= cursor, "status cursor regressed");
            cursor = s.seq;
            match c.run_result(id).unwrap() {
                RunResult::Done(m) => break m,
                RunResult::Running => std::thread::sleep(Duration::from_millis(10)),
                RunResult::Failed(e) => panic!("run failed: {e}"),
            }
        };
        let spec_v =
            proof_core::GridSpec::from_value(&serde_json::from_str(spec).unwrap()).unwrap();
        assert_eq!(merged, crate::run_grid_local(&spec_v).unwrap());
        server.shutdown();
    }

    #[test]
    fn unreachable_node_is_reported_as_unreachable() {
        // bind-then-drop gives an address that refuses connections
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let c = WorkerClient::new(addr, Duration::from_millis(200));
        assert!(matches!(c.probe(), Err(WorkerError::Unreachable(_))));
    }
}
