//! Fleet observability-plane integration tests against live worker
//! daemons: federated per-node metrics on the coordinator's scrape
//! endpoint, the merged cross-node trace document and its rendering on
//! request, and the flight recorder surface.

use proof_core::GridSpec;
use proof_fleet::{Fleet, FleetConfig};
use proof_serve::client::get;
use proof_serve::{ServeConfig, Server};
use serde_json::Value;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn spec(json: &str) -> GridSpec {
    GridSpec::from_value(&serde_json::from_str(json).unwrap()).unwrap()
}

fn daemon() -> Server {
    Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap()
}

/// The acceptance criterion for metrics federation: after a grid run over
/// two live daemons, the coordinator's Prometheus endpoint carries each
/// node's own series under a `node="<addr>"` label, next to the
/// coordinator's `proof_fleet_` series.
#[test]
fn coordinator_scrape_federates_both_live_daemons() {
    let (a, b) = (daemon(), daemon());
    let fleet = Fleet::start(FleetConfig::remote(vec![a.addr(), b.addr()])).unwrap();
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":21}"#);
    let run = fleet.run_grid(&s).unwrap();
    assert_eq!(run.outcome.results.len(), 2);

    let prom = fleet.metrics_prometheus_federated();
    assert!(prom.contains("proof_fleet_fleet_completed 2"), "{prom}");
    for addr in [a.addr(), b.addr()] {
        let labeled = format!("proof_serve_jobs_done_total{{node=\"{addr}\"}}");
        assert!(prom.contains(&labeled), "missing {labeled} in:\n{prom}");
        // per-node latency histograms survive federation intact
        let bucket = format!("proof_serve_job_execute_us_bucket{{node=\"{addr}\",le=\"+Inf\"}}");
        assert!(prom.contains(&bucket), "missing {bucket} in:\n{prom}");
    }
    // with the 2-shard grid least-loaded over two idle nodes, each daemon
    // executed exactly one job
    for addr in [a.addr(), b.addr()] {
        assert!(
            prom.contains(&format!("proof_serve_jobs_done_total{{node=\"{addr}\"}} 1")),
            "{prom}"
        );
    }
    // exactly one exposition per family: HELP/TYPE not duplicated per node
    let type_lines = prom
        .lines()
        .filter(|l| *l == "# TYPE proof_serve_jobs_done_total counter")
        .count();
    assert_eq!(type_lines, 1, "{prom}");

    fleet.shutdown();
    a.shutdown();
    b.shutdown();
}

/// The merged trace covers every shard: a synthesized coordinator track
/// (`fleet_run` + one correctly parented `fleet_shard` per shard) plus one
/// track of job subtrees laid out by shard, with job spans re-parented
/// onto their shard and the run-varying fields (`addr`, `node`, `job`,
/// `remote_parent`) gone.
#[test]
fn merged_trace_lays_jobs_out_by_shard_with_clean_parenting() {
    let (a, b) = (daemon(), daemon());
    let fleet = Fleet::start(FleetConfig::remote(vec![a.addr(), b.addr()])).unwrap();
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":22}"#);
    let run = fleet.run_grid(&s).unwrap();

    let trace = run.trace_json();
    let doc: Value = serde_json::from_str(&trace).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();

    let run_span = events
        .iter()
        .find(|e| e["name"] == "fleet_run")
        .expect("fleet_run present");
    assert_eq!(run_span["pid"].as_u64(), Some(1));
    assert_eq!(run_span["args"]["parent"].as_u64(), Some(0));
    assert_eq!(run_span["args"]["shards"].as_u64(), Some(2));

    let shard_spans: Vec<&Value> = events
        .iter()
        .filter(|e| e["name"] == "fleet_shard")
        .collect();
    assert_eq!(shard_spans.len(), 2);
    for sp in &shard_spans {
        assert_eq!(sp["args"]["parent"], run_span["args"]["span"]);
    }

    // the coordinator is pid 1 and both daemons' jobs share pid 2: which
    // node ran a shard stays out of the document
    let pids: BTreeSet<u64> = events.iter().map(|e| e["pid"].as_u64().unwrap()).collect();
    assert_eq!(pids, [1u64, 2].into_iter().collect::<BTreeSet<u64>>());

    // every job span hangs off its shard's fleet_shard, starting with it,
    // carries the canonical shard index, and no run-varying field leaks
    // into the document
    let jobs: Vec<&Value> = events.iter().filter(|e| e["name"] == "job").collect();
    assert_eq!(jobs.len(), 2);
    for job in &jobs {
        let anchor = shard_spans
            .iter()
            .find(|sp| sp["args"]["span"] == job["args"]["parent"])
            .expect("job parented onto its fleet_shard");
        assert_eq!(anchor["args"]["shard"], job["args"]["shard"]);
        assert_eq!(anchor["ts"], job["ts"]);
    }
    assert!(!trace.contains("\"addr\""), "{trace}");
    assert!(!trace.contains("\"node\":"), "{trace}");
    assert!(!trace.contains("\"remote_parent\""));
    assert!(!trace.contains("\"job\":"));
    // pipeline stage spans rode along under the job spans
    assert!(events.iter().any(|e| e["name"] == "compile"));

    // the same document is what the coordinator serves afterwards
    assert_eq!(fleet.last_trace(), Some(trace));

    fleet.shutdown();
    a.shutdown();
    b.shutdown();
}

/// The worker adopted the fleet's trace: its job spans live in the
/// coordinator's trace id, reachable over `GET /trace/<id>?format=spans`
/// on the worker — the propagation link the merge is built from.
#[test]
fn workers_adopt_the_fleet_trace_end_to_end() {
    let a = daemon();
    let fleet = Fleet::start(FleetConfig::remote(vec![a.addr()])).unwrap();
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1],"seed":23}"#);
    let run = fleet.run_grid(&s).unwrap();
    assert_eq!(run.outcome.shards.len(), 1);

    // the flight recorder saw the dispatch and the run bracketing it
    let flight: Value = serde_json::from_str(&fleet.flight().to_json()).unwrap();
    let kinds: Vec<&str> = flight["events"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e["kind"].as_str())
        .collect();
    assert!(kinds.contains(&"run"), "{kinds:?}");
    assert!(kinds.contains(&"dispatch"), "{kinds:?}");

    // the worker's own status page shows the job under the fleet's trace
    let job_id = run.outcome.shards[0].job_id;
    let (status, body) = get(a.addr(), &format!("/jobs/{job_id}")).unwrap();
    assert_eq!(status, 200);
    let v: Value = serde_json::from_str(&body).unwrap();
    let trace = v["trace"].as_u64().expect("job carries its trace id");
    assert!(
        v["remote_parent"].as_u64().is_some(),
        "job records the coordinator's parent span: {body}"
    );
    let (status, spans) = get(a.addr(), &format!("/trace/{trace}?format=spans")).unwrap();
    assert_eq!(status, 200, "{spans}");
    let doc: Value = serde_json::from_str(&spans).unwrap();
    assert!(
        doc["spans"]
            .as_array()
            .unwrap()
            .iter()
            .any(|sp| sp["name"] == "job"),
        "{spans}"
    );

    fleet.shutdown();
    a.shutdown();
}

/// How many events of the trace document `trace` are named `name`.
fn events_named(trace: &str, name: &str) -> usize {
    let doc: Value = serde_json::from_str(trace).unwrap();
    doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e["name"] == name)
        .count()
}

/// Each node's `proof_serve_http_requests_total`. The scrape that reads it
/// is counted in it.
fn http_requests(nodes: &[SocketAddr]) -> Vec<u64> {
    nodes
        .iter()
        .map(|&addr| {
            let (status, prom) = get(addr, "/metrics?format=prometheus").unwrap();
            assert_eq!(status, 200);
            prom.lines()
                .find_map(|l| l.strip_prefix("proof_serve_http_requests_total "))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("no request counter in:\n{prom}"))
        })
        .collect()
}

/// A run's trace is rendered on request from the nodes' span listings:
/// one render asks each node for its listing once, a complete render is
/// kept (later renders ask no node and give the same bytes, even once the
/// nodes are gone), and a later run leaves an earlier run's trace as it
/// was.
#[test]
fn a_run_trace_renders_on_request_with_stable_bytes() {
    let (a, b) = (daemon(), daemon());
    let nodes = [a.addr(), b.addr()];
    // no peer caches: a node publishing to its peer after a job would
    // move the peer's request counter while it is read
    let fleet = Fleet::start(FleetConfig {
        advertise_peer_cache: false,
        ..FleetConfig::remote(nodes.to_vec())
    })
    .unwrap();
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":24}"#);
    let first = fleet.run_grid(&s).unwrap();

    let before = http_requests(&nodes);
    let trace = first.trace_json();
    let after = http_requests(&nodes);
    for ((before, after), addr) in before.iter().zip(&after).zip(&nodes) {
        // the render's one request, and the second scrape itself
        assert_eq!(after - before, 2, "requests to {addr} for one render");
    }
    assert_eq!(events_named(&trace, "fleet_shard"), 2, "{trace}");
    assert_eq!(events_named(&trace, "job"), 2, "{trace}");
    assert_eq!(first.trace_json(), trace, "a second render, other bytes");
    let again = http_requests(&nodes);
    for ((after, again), addr) in after.iter().zip(&again).zip(&nodes) {
        // only the third scrape itself
        assert_eq!(again - after, 1, "a kept trace asked {addr} again");
    }

    let second = fleet.run_grid(&s).unwrap();
    assert_ne!(second.trace, first.trace);
    assert_eq!(first.trace_json(), trace, "run 1's trace moved after run 2");
    let last = second.trace_json();
    assert_eq!(fleet.last_trace(), Some(last.clone()));

    fleet.shutdown();
    a.shutdown();
    b.shutdown();
    assert_eq!(
        first.trace_json(),
        trace,
        "run 1's kept trace after shutdown"
    );
    assert_eq!(
        second.trace_json(),
        last,
        "run 2's kept trace after shutdown"
    );
}

/// A one-worker node that settles every waiting submission inline with
/// an empty report, answers anything else but `/healthz` with 404, and
/// records every request line it reads in `lines`.
fn recording_worker(lines: Arc<Mutex<Vec<String>>>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let next_id = AtomicU64::new(1);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { continue };
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
                match s.read(&mut byte) {
                    Ok(1) => head.push(byte[0]),
                    _ => break,
                }
            }
            let head = String::from_utf8_lossy(&head).to_string();
            let line = head.lines().next().unwrap_or("").to_string();
            if let Some(len) = head.lines().find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .and_then(|v| v.trim().parse::<usize>().ok())
            }) {
                let mut body = vec![0u8; len.min(1 << 20)];
                let _ = s.read_exact(&mut body);
            }
            let (status, reply, job) = if line.starts_with("GET /healthz") {
                (
                    200,
                    r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#,
                    String::new(),
                )
            } else if line.starts_with("POST /jobs") {
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                (200, "{}", format!("X-Proof-Job: {id}\r\n"))
            } else {
                (404, r#"{"error":"no route"}"#, String::new())
            };
            lines.lock().unwrap().push(line);
            let _ = write!(
                s,
                "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\n{job}content-length: {}\r\nconnection: close\r\n\r\n{reply}",
                reply.len()
            );
        }
    });
    addr
}

/// A run fetches no span listing: until its trace is rendered, no node
/// sees a `/trace/` request, and one render sends each node exactly one,
/// for the run's trace. A render missing a node's listing is not kept:
/// the next render asks every node again.
#[test]
fn a_run_sends_no_trace_request_until_one_is_rendered() {
    let logs: Vec<Arc<Mutex<Vec<String>>>> = (0..2).map(|_| Arc::default()).collect();
    let fleet = Fleet::start(FleetConfig {
        nodes: logs
            .iter()
            .map(|l| recording_worker(Arc::clone(l)))
            .collect(),
        request_timeout: Duration::from_secs(2),
        ..FleetConfig::default()
    })
    .unwrap();
    let s = spec(
        r#"{"models":["mobilenetv2-0.5","resnet-50"],"platform":"a100","batches":[1,2],"seed":25}"#,
    );
    let run = fleet.run_grid(&s).unwrap();
    let trace_requests = |log: &Mutex<Vec<String>>| -> Vec<String> {
        let lines = log.lock().unwrap();
        lines
            .iter()
            .filter(|l| l.contains("/trace/"))
            .cloned()
            .collect()
    };
    for log in &logs {
        assert!(!log.lock().unwrap().is_empty(), "a node took no part");
        assert_eq!(trace_requests(log), Vec::<String>::new());
    }
    run.trace_json();
    let expected = format!("GET /trace/{}?format=spans HTTP/1.1", run.trace);
    for log in &logs {
        assert_eq!(trace_requests(log), [expected.as_str()]);
    }
    // these nodes hold no listing (404), so that render was incomplete
    run.trace_json();
    for log in &logs {
        assert_eq!(trace_requests(log), [expected.as_str(), expected.as_str()]);
    }
    fleet.shutdown();
}
