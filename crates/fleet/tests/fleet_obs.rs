//! Fleet observability-plane integration tests against live worker
//! daemons: federated per-node metrics on the coordinator's scrape
//! endpoint, the merged cross-node trace document, and the flight
//! recorder surface.

use proof_core::GridSpec;
use proof_fleet::{Fleet, FleetConfig};
use proof_serve::client::get;
use proof_serve::{ServeConfig, Server};
use serde_json::Value;
use std::collections::BTreeSet;

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

    let doc: Value = serde_json::from_str(&run.trace_json).unwrap();
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
    assert!(!run.trace_json.contains("\"addr\""), "{}", run.trace_json);
    assert!(!run.trace_json.contains("\"node\":"), "{}", run.trace_json);
    assert!(!run.trace_json.contains("\"remote_parent\""));
    assert!(!run.trace_json.contains("\"job\":"));
    // pipeline stage spans rode along under the job spans
    assert!(events.iter().any(|e| e["name"] == "compile"));

    // the same document is what the coordinator serves afterwards
    assert_eq!(fleet.last_trace().as_deref(), Some(run.trace_json.as_str()));

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
