//! The coordinator's own HTTP surface: submit grids and watch the fleet.
//!
//! Endpoints:
//!
//! - `POST /grid` — run a grid spec to completion and return the merged
//!   artifact (synchronous: submit + wait; response bytes identical to
//!   the streaming path's finished result).
//! - `POST /grid/submit` (or `POST /grid?mode=async`) — validate the spec,
//!   mint a run id, and return `202 {run_id, shards}` immediately; the
//!   fleet's one run thread executes accepted runs in submission order.
//! - `GET /grid/<id>/status[?since=<seq>]` — live per-shard progress:
//!   completed/pending/in-flight/rescheduled counts plus the run's
//!   seq-numbered progress events past the `since` cursor (all of them
//!   when omitted). `seq` in the reply is the cursor for the next poll.
//! - `GET /grid/<id>/result` — `202` while the run executes, `200` with
//!   the merged artifact when done (byte-identical to the synchronous
//!   path and `run_grid_local`), or the run's error (`400` for spec/merge
//!   rejections, `500` otherwise).
//! - `GET /grid/trace` — the merged cross-node Chrome-trace document of
//!   the most recent successful run (Perfetto-loadable), rendered on the
//!   handler thread from the nodes' span listings the first time, and
//!   kept once complete ([`FleetRun::trace_json`]); `404` before any run
//!   succeeded.
//! - `GET /healthz` — coordinator liveness, version, uptime, node counts
//!   (`alive` always present, `running` true while any run is active),
//!   and the fleet-wide cache-tier summary aggregated from the nodes.
//! - `GET /nodes` — per-node registry snapshot: health state, in-flight,
//!   advertised worker count, the shard-latency EWMA of the current or
//!   last run (`ewma_us`, once observed), and lifetime dispatch counters. Served from the shared
//!   [`FleetView`] the dispatcher republishes, so it answers mid-run.
//! - `GET /metrics[?format=prometheus]` — fleet counters; the Prometheus
//!   form federates every reachable node's own exposition under a
//!   `node="<addr>"` label, so one scrape covers the whole fleet. Both
//!   forms stay readable *during* a grid run (a CI smoke can watch
//!   `fleet_rescheduled` move while shards are still in flight).
//! - `GET /debug/events` — the coordinator's flight recorder: the bounded
//!   ring of scheduling and run-lifecycle events for post-mortems.
//!
//! Served by the `proof_serve::http` scaffold, like every node: same
//! parser and caps, same socket deadlines and handler cap, same opt-in
//! keep-alive, same query-param handling. Node replies are read through
//! [`WorkerClient`], the coordinator's one typed reader of a node.

use crate::client::WorkerClient;
use crate::coordinator::{
    federated_prometheus_from, metrics_json_from, Fleet, FleetError, FleetRun,
};
use crate::runs::{FleetView, RunHandle, RunLedger};
use proof_core::GridSpec;
use proof_obs::{FlightRecorder, MetricsRegistry};
use proof_serve::http::{query_has, query_param, HttpServer, Reply, Request, Response, Routes};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Coordinator HTTP configuration.
#[derive(Debug, Clone)]
pub struct FleetServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
}

impl Default for FleetServerConfig {
    fn default() -> Self {
        FleetServerConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

struct SharedFleet {
    /// The fleet, in a takeable slot: handlers borrow it briefly (submits
    /// are quick — the dispatch runs on a fleet-owned thread), and
    /// [`FleetServer::shutdown`] takes it out so the drain always runs, no
    /// matter how many handler threads still hold `Arc` clones of this
    /// struct. (An earlier build gated the drain on `Arc::try_unwrap` and
    /// silently leaked every embedded daemon whenever a connection was
    /// still open.)
    fleet: Mutex<Option<Fleet>>,
    /// Cloned out of the fleet so reads never touch the fleet slot: the
    /// metrics registry, flight recorder, run ledger, and the registry/
    /// trace view the dispatcher republishes mid-run.
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    view: Arc<FleetView>,
    runs: Arc<RunLedger>,
    /// One lock-free scrape client per node (see
    /// [`Fleet::scrapers`]), so node reads answer mid-run.
    nodes: Vec<WorkerClient>,
    started: Instant,
}

/// A running coordinator server. Owns the [`Fleet`] (and so its embedded
/// daemons).
pub struct FleetServer {
    shared: Arc<SharedFleet>,
    http: HttpServer,
}

impl FleetServer {
    pub fn start(fleet: Fleet, config: FleetServerConfig) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(SharedFleet {
            metrics: Arc::clone(fleet.metrics()),
            flight: Arc::clone(fleet.flight()),
            view: Arc::clone(fleet.view()),
            runs: Arc::clone(fleet.runs()),
            nodes: fleet.scrapers().to_vec(),
            started: Instant::now(),
            fleet: Mutex::new(Some(fleet)),
        });
        // thread-per-connection: the fleet's run thread owns the dispatch,
        // so every endpoint answers concurrently
        let http = HttpServer::start(listener, "proof-fleet", Arc::clone(&shared))?;
        Ok(FleetServer { shared, http })
    }

    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// Stop accepting, let every handler that read a request answer it,
    /// then take the fleet out of its slot and shut it down — draining the
    /// run queue and embedded daemons unconditionally, even while handler
    /// threads still hold shared clones (e.g. a slow request mid-read).
    pub fn shutdown(mut self) {
        self.http.stop();
        let fleet = self
            .shared
            .fleet
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(fleet) = fleet {
            fleet.shutdown();
        }
    }
}

impl Routes for SharedFleet {
    fn route(&self, req: &Request) -> Response {
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let reply = match (req.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Ok(Response::encode(200, &healthz(self))),
            ("GET", ["metrics"]) if query_has(&req.query, "format", "prometheus") => Ok(
                Response::prometheus(federated_prometheus_from(&self.metrics, &self.nodes)),
            ),
            ("GET", ["metrics"]) => Ok(Response::json(
                200,
                metrics_json_from(&self.metrics, &self.view.nodes()),
            )),
            ("GET", ["grid", "trace"]) => match self.view.last_run() {
                Some(run) => Ok(Response::json(200, run.trace_json())),
                None => Err(Response::error(404, "no grid run yet")),
            },
            ("GET", ["grid", id, "status"]) => grid_status(self, id, &req.query),
            ("GET", ["grid", id, "result"]) => grid_result(self, id),
            ("GET", ["debug", "events"]) => Ok(Response::json(200, self.flight.to_json())),
            ("GET", ["nodes"]) => Ok(Response::encode(200, &self.view.nodes())),
            ("POST", ["grid"]) if query_has(&req.query, "mode", "async") => {
                post_grid_submit(self, &req.body)
            }
            ("POST", ["grid", "submit"]) => post_grid_submit(self, &req.body),
            // synchronous: submit, then wait on the run handle; the reply
            // bytes are exactly the streaming path's finished result
            ("POST", ["grid"]) => submit(self, &req.body).map(|run| run_reply(run.wait())),
            ("GET" | "POST", _) => Err(Response::error(404, "no such endpoint")),
            _ => Err(Response::error(405, "method not allowed")),
        };
        reply.unwrap_or_else(|refusal| refusal)
    }
}

/// The fleet-wide cache-tier summary: every reachable node's `/healthz`
/// tier counters summed; `nodes_reporting` says how many answered.
#[derive(Serialize, Default)]
struct FleetCache {
    nodes_reporting: u64,
    memory_hits: u64,
    disk_hits: u64,
    remote_hits: u64,
    misses: u64,
}

fn aggregate_node_cache(nodes: &[WorkerClient]) -> FleetCache {
    let mut c = FleetCache::default();
    for tiers in nodes.iter().filter_map(|n| n.health().ok()?.cache) {
        c.nodes_reporting += 1;
        c.memory_hits += tiers.memory_hits;
        c.disk_hits += tiers.disk_hits;
        c.remote_hits += tiers.remote_hits;
        c.misses += tiers.misses;
    }
    c
}

/// Always the full document: `alive` comes from the shared registry view
/// (the dispatcher republishes it mid-run) and `running` from the run
/// ledger — neither key ever disappears while a grid executes.
#[derive(Serialize)]
struct Healthz {
    status: &'static str,
    version: &'static str,
    uptime_s: u64,
    nodes: usize,
    cache: FleetCache,
    alive: usize,
    running: bool,
    runs_total: u64,
    runs_active: usize,
}

fn healthz(shared: &SharedFleet) -> Healthz {
    Healthz {
        status: "ok",
        version: env!("CARGO_PKG_VERSION"),
        uptime_s: shared.started.elapsed().as_secs(),
        nodes: shared.nodes.len(),
        cache: aggregate_node_cache(&shared.nodes),
        alive: shared.view.alive(),
        running: shared.runs.active() > 0,
        runs_total: shared.runs.total(),
        runs_active: shared.runs.active(),
    }
}

/// Parse and submit a grid spec: the accepted run's handle, or the
/// refusal to send.
fn submit(shared: &SharedFleet, body: &str) -> Result<Arc<RunHandle>, Response> {
    let value: Value = serde_json::from_str(body)
        .map_err(|e| Response::error(400, &format!("invalid JSON: {e}")))?;
    let spec = GridSpec::from_value(&value).map_err(|e| Response::error(400, &e.to_string()))?;
    let fleet = shared.fleet.lock().unwrap_or_else(|e| e.into_inner());
    let fleet = fleet
        .as_ref()
        .ok_or_else(|| Response::error(503, "coordinator shutting down"))?;
    fleet.submit_grid(&spec).map_err(fleet_error)
}

/// A run's error: `400` for spec and merge rejections, `500` otherwise.
fn fleet_error(e: FleetError) -> Response {
    match e {
        FleetError::Grid(_) => Response::error(400, &e.to_string()),
        _ => Response::error(500, &e.to_string()),
    }
}

/// A finished run's reply: the merged artifact, or its error.
fn run_reply(result: Result<Arc<FleetRun>, FleetError>) -> Response {
    result.map_or_else(fleet_error, |run| Response::json(200, run.merged.clone()))
}

/// The `202` reply to an async grid submit; [`crate::CoordinatorClient`]
/// reads it back.
#[derive(Serialize, Deserialize)]
pub(crate) struct Accepted {
    pub(crate) run_id: u64,
    pub(crate) shards: usize,
}

/// `POST /grid/submit` (or `?mode=async`) — accept and return immediately.
fn post_grid_submit(shared: &SharedFleet, body: &str) -> Reply {
    let run = submit(shared, body)?;
    let (run_id, shards) = (run.id(), run.progress().counts().total);
    Ok(Response::encode(202, &Accepted { run_id, shards }))
}

/// Look up a run by its path segment. Unparseable and unknown ids are both
/// 404s (the path names a resource that does not exist).
fn lookup_run(shared: &SharedFleet, id: &str) -> Result<Arc<RunHandle>, Response> {
    id.parse::<u64>()
        .ok()
        .and_then(|id| shared.runs.get(id))
        .ok_or_else(|| Response::error(404, "no such run"))
}

/// `GET /grid/<id>/status?since=<seq>`.
fn grid_status(shared: &SharedFleet, id: &str, query: &str) -> Reply {
    let since = match query_param(query, "since") {
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| Response::error(400, "malformed since cursor"))?,
        None => 0,
    };
    let status = lookup_run(shared, id)?.status_body(since);
    Ok(Response::json(200, status))
}

#[derive(Serialize)]
struct StillRunning {
    run_id: u64,
    state: &'static str,
}

/// `GET /grid/<id>/result`.
fn grid_result(shared: &SharedFleet, id: &str) -> Reply {
    let run = lookup_run(shared, id)?;
    let (run_id, state) = (run.id(), "running");
    Ok(match run.result() {
        None => Response::encode(202, &StillRunning { run_id, state }),
        Some(result) => run_reply(result),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{run_grid_local, FleetConfig};
    use proof_serve::client::{get, post};
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn coordinator_surface_round_trip() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["status"], "ok");
        assert_eq!(v["nodes"].as_u64(), Some(1));
        assert_eq!(v["alive"].as_u64(), Some(1), "alive always present");
        assert_eq!(v["running"], Value::from(false));
        assert_eq!(v["version"], env!("CARGO_PKG_VERSION"));
        assert!(v["uptime_s"].as_u64().is_some());
        assert_eq!(v["cache"]["nodes_reporting"].as_u64(), Some(1));
        assert!(v["cache"]["misses"].as_u64().is_some());

        // before any run there is no merged trace to serve
        let (status, _) = get(addr, "/grid/trace").unwrap();
        assert_eq!(status, 404);

        let spec_json = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":4}"#;
        let (status, merged) = post(addr, "/grid", spec_json).unwrap();
        assert_eq!(status, 200, "{merged}");
        let spec = GridSpec::from_value(&serde_json::from_str(spec_json).unwrap()).unwrap();
        assert_eq!(
            merged,
            run_grid_local(&spec).unwrap(),
            "served artifact matches the in-process reference byte-for-byte"
        );

        let (status, nodes) = get(addr, "/nodes").unwrap();
        assert_eq!(status, 200);
        let nodes: Value = serde_json::from_str(&nodes).unwrap();
        assert_eq!(nodes.as_array().unwrap().len(), 1);

        let (status, metrics) = get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        let m: Value = serde_json::from_str(&metrics).unwrap();
        assert_eq!(m["counters"]["fleet_completed"].as_u64(), Some(2));
        assert_eq!(m["counters"]["fleet_runs_total"].as_u64(), Some(1));

        let (status, prom) = get(addr, "/metrics?format=prometheus").unwrap();
        assert_eq!(status, 200);
        assert!(prom.contains("proof_fleet_fleet_completed"), "{prom}");
        // the federated section carries the node's own series labeled by
        // its address
        assert!(
            prom.contains("proof_serve_jobs_done_total{node=\""),
            "{prom}"
        );
        // the format selector matches in any position, like proof-serve
        // (an earlier build compared the whole query string)
        let (status, prom2) = get(addr, "/metrics?x=1&format=prometheus").unwrap();
        assert_eq!(status, 200);
        assert!(prom2.contains("proof_fleet_fleet_completed"), "{prom2}");

        // the merged cross-node trace is now served, with the synthesized
        // coordinator track and the track of job subtrees
        let (status, trace) = get(addr, "/grid/trace").unwrap();
        assert_eq!(status, 200);
        let t: Value = serde_json::from_str(&trace).unwrap();
        let events = t["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["name"] == "fleet_run"));
        assert!(
            events.iter().any(|e| e["pid"].as_u64() == Some(2)),
            "job track present: {trace}"
        );

        // the flight recorder saw the run start and finish
        let (status, events) = get(addr, "/debug/events").unwrap();
        assert_eq!(status, 200);
        let ev: Value = serde_json::from_str(&events).unwrap();
        let kinds: Vec<&str> = ev["events"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["kind"].as_str())
            .collect();
        assert!(kinds.contains(&"run"), "{events}");
        assert!(kinds.contains(&"dispatch"), "{events}");

        let (status, _) = post(addr, "/grid", "{").unwrap();
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/nope").unwrap();
        assert_eq!(status, 404);

        server.shutdown();
    }

    /// Two node snapshots: one that has observed a shard latency, one
    /// that has not (and so carries no `ewma_us` key).
    fn pinned_nodes() -> Vec<crate::registry::NodeSnapshot> {
        use crate::registry::{NodeSnapshot, NodeState};
        vec![
            NodeSnapshot {
                addr: "127.0.0.1:7001".to_string(),
                state: NodeState::Healthy,
                in_flight: 1,
                workers: 2,
                ewma_us: Some(1234),
                dispatched: 5,
                completed: 4,
                failures: 0,
            },
            NodeSnapshot {
                addr: "127.0.0.1:7002".to_string(),
                state: NodeState::Suspect,
                in_flight: 0,
                workers: 1,
                ewma_us: None,
                dispatched: 0,
                completed: 0,
                failures: 1,
            },
        ]
    }

    #[test]
    fn nodes_and_metrics_bodies_are_pinned() {
        let metrics = MetricsRegistry::new();
        metrics.counter("fleet_completed").add(4);
        metrics.counter("fleet_dispatched").add(5);
        metrics.gauge("fleet_runs_active").set(1.5);
        assert_eq!(
            metrics_json_from(&metrics, &pinned_nodes()),
            r#"{"counters":{"fleet_completed":4,"fleet_dispatched":5},"gauges":{"fleet_runs_active":1.5},"nodes":[{"addr":"127.0.0.1:7001","completed":4,"dispatched":5,"ewma_us":1234,"failures":0,"in_flight":1,"state":"healthy","workers":2},{"addr":"127.0.0.1:7002","completed":0,"dispatched":0,"failures":1,"in_flight":0,"state":"suspect","workers":1}]}"#
        );

        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let view = Arc::clone(fleet.view());
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        view.set_nodes(pinned_nodes());
        let (status, body) = get(server.addr(), "/nodes").unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body,
            r#"[{"addr":"127.0.0.1:7001","completed":4,"dispatched":5,"ewma_us":1234,"failures":0,"in_flight":1,"state":"healthy","workers":2},{"addr":"127.0.0.1:7002","completed":0,"dispatched":0,"failures":1,"in_flight":0,"state":"suspect","workers":1}]"#
        );
        server.shutdown();
    }

    #[test]
    fn async_submit_status_result_round_trip() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();

        let spec_json = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":9}"#;
        let (status, body) = post(addr, "/grid/submit", spec_json).unwrap();
        assert_eq!(status, 202, "{body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let run_id = v["run_id"].as_u64().unwrap();
        assert_eq!(v["shards"].as_u64(), Some(2));

        // poll status until done; the cursor must be monotone
        let mut since = 0u64;
        let final_status = loop {
            let (status, body) =
                get(addr, &format!("/grid/{run_id}/status?since={since}")).unwrap();
            assert_eq!(status, 200, "{body}");
            let s: Value = serde_json::from_str(&body).unwrap();
            let seq = s["seq"].as_u64().unwrap();
            assert!(seq >= since, "cursor never regresses");
            since = seq;
            if s["state"] != "running" {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(final_status["state"], "done");
        assert_eq!(final_status["completed"].as_u64(), Some(2));
        assert_eq!(final_status["pending"].as_u64(), Some(0));

        let (status, merged) = get(addr, &format!("/grid/{run_id}/result")).unwrap();
        assert_eq!(status, 200, "{merged}");
        let spec = GridSpec::from_value(&serde_json::from_str(spec_json).unwrap()).unwrap();
        assert_eq!(merged, run_grid_local(&spec).unwrap());

        // ?mode=async works the same as /grid/submit
        let (status, body) = post(addr, "/grid?mode=async", spec_json).unwrap();
        assert_eq!(status, 202, "{body}");

        // unknown and malformed run ids are 404; malformed cursor is 400
        let (status, _) = get(addr, "/grid/999/status").unwrap();
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/grid/abc/result").unwrap();
        assert_eq!(status, 404);
        let (status, _) = get(addr, &format!("/grid/{run_id}/status?since=x")).unwrap();
        assert_eq!(status, 400);
        // async validation errors surface at submit time
        let (status, _) = post(addr, "/grid/submit", "{").unwrap();
        assert_eq!(status, 400);

        server.shutdown();
    }

    #[test]
    fn shutdown_drains_even_with_a_request_in_flight() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let node_addr = fleet.node_addrs()[0];
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();

        // a slow client: the handler thread blocks mid-read, holding a
        // clone of the shared state across the shutdown
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));

        server.shutdown();

        // the embedded daemon was drained: its listener is gone
        assert!(
            TcpStream::connect(node_addr).is_err(),
            "embedded daemon must not leak past shutdown"
        );
        drop(slow);
    }

    #[test]
    fn shutdown_is_not_stalled_by_silent_clients_on_the_coordinator_or_a_node() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let node_addr = fleet.node_addrs()[0];
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();

        // half a request line each, then silence: neither handler has a
        // request to answer, so neither may hold up the drain
        let mut silent = Vec::new();
        for addr in [server.addr(), node_addr] {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /hea").unwrap();
            silent.push(s);
        }
        std::thread::sleep(Duration::from_millis(50));

        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(1)).is_ok(),
            "shutdown waited on a client that never sent its request"
        );
        drop(silent);
    }
}
