//! One spec vocabulary across every way in: `POST /jobs`, `POST /sweep`
//! and the fleet's grids read their axis keys through
//! `GridSpec::from_value` and resolve each cell through
//! `AnalysisJob::from_cell`, so a body means the same work wherever it is
//! sent, and a grid a worker would refuse is refused before a node is
//! asked.

use proof_core::GridSpec;
use proof_fleet::{
    run_grid_local, Fleet, FleetConfig, FleetError, FleetServer, FleetServerConfig, NodeState,
};
use proof_serve::client::{get, post};
use serde_json::Value;
use std::net::SocketAddr;

fn spec(json: &str) -> GridSpec {
    GridSpec::from_value(&serde_json::from_str(json).unwrap()).unwrap()
}

fn json(text: &str) -> Value {
    serde_json::from_str(text).unwrap()
}

/// The report of serve job `id`, once it is done.
fn job_report(addr: SocketAddr, id: u64) -> Value {
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}?wait_ms=1000")).unwrap();
        assert_eq!(status, 200, "{body}");
        match json(&body)["status"].as_str().unwrap() {
            "done" => break,
            "queued" | "running" => continue,
            other => panic!("job {id} ended {other}: {body}"),
        }
    }
    let (status, body) = get(addr, &format!("/jobs/{id}/report")).unwrap();
    assert_eq!(status, 200, "{body}");
    json(&body)
}

/// Every cell report of a merged grid document, in canonical order.
fn cell_reports(merged: &str) -> Vec<Value> {
    json(merged)["cells"]
        .as_array()
        .unwrap()
        .iter()
        .map(|cell| cell["report"].clone())
        .collect()
}

#[test]
fn bad_grids_are_refused_at_submit_without_charging_a_node() {
    let bad = [
        (
            r#"{"models":["nope"],"platform":"a100"}"#,
            "unknown model 'nope'",
        ),
        (
            r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[0]}"#,
            "batch 0 out of range",
        ),
        (
            r#"{"model":"mobilenetv2-0.5","platform":"a100","mode":"bogus"}"#,
            "unknown mode 'bogus'",
        ),
    ];
    let fleet = Fleet::start(FleetConfig::local(2)).unwrap();
    for (body, why) in bad {
        let Err(err) = fleet.submit_grid(&spec(body)) else {
            panic!("{body}: accepted");
        };
        assert!(matches!(err, FleetError::Grid(_)), "{body}: {err}");
        assert!(err.to_string().contains(why), "{body}: {err}");
    }
    assert_eq!(fleet.runs().total(), 0, "no run minted for a bad grid");
    let nodes = fleet.nodes();
    assert_eq!(nodes.len(), 2);
    for node in &nodes {
        assert_eq!(node.state, NodeState::Healthy, "{}", node.addr);
        assert_eq!((node.dispatched, node.failures), (0, 0), "{}", node.addr);
    }

    let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    for (body, why) in bad {
        for path in ["/grid/submit", "/grid"] {
            let (status, reply) = post(server.addr(), path, body).unwrap();
            assert_eq!(status, 400, "{path} {body}: {reply}");
            assert!(reply.contains(why), "{path} {body}: {reply}");
        }
    }
    let (status, health) = get(server.addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&health)["runs_total"], 0u64);
    server.shutdown();
}

/// Each row is a body and the plain body it must mean: `/jobs`, `/sweep`
/// and `/grid` resolve the row to the same report, and that report is the
/// plain body's.
#[test]
fn every_way_in_reads_a_body_alike() {
    let rows = [
        // both platform spellings: the axis's own name wins over its alias
        (
            r#"{"model":"mobilenetv2-0.5","platform":"a100","hardware":"rtx-4090","seed":5}"#,
            r#"{"model":"mobilenetv2-0.5","platform":"a100","seed":5}"#,
        ),
        // a null optional field reads as absent
        (
            r#"{"model":"mobilenetv2-0.5","hardware":"a100","backend":null,"dtype":null,"batch":null,"mode":null,"seed":null}"#,
            r#"{"model":"mobilenetv2-0.5","platform":"a100"}"#,
        ),
    ];
    let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
    let node = fleet.node_addrs()[0];
    let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    for (body, plain) in rows {
        let want = cell_reports(&run_grid_local(&spec(plain)).unwrap());
        assert_eq!(want.len(), 1);

        let (status, reply) = post(node, "/jobs", body).unwrap();
        assert_eq!(status, 201, "/jobs {body}: {reply}");
        let job = job_report(node, json(&reply)["id"].as_u64().unwrap());
        assert_eq!(job, want[0], "/jobs {body}");

        let (status, reply) = post(node, "/sweep", body).unwrap();
        assert_eq!(status, 201, "/sweep {body}: {reply}");
        let jobs = json(&reply)["jobs"].as_array().unwrap().clone();
        assert_eq!(jobs.len(), 1, "/sweep {body}");
        let swept = job_report(node, jobs[0].as_u64().unwrap());
        assert_eq!(swept, want[0], "/sweep {body}");

        let (status, merged) = post(server.addr(), "/grid", body).unwrap();
        assert_eq!(status, 200, "/grid {body}: {merged}");
        assert_eq!(cell_reports(&merged), want, "/grid {body}");
    }
    server.shutdown();
}

/// A `/sweep` body with a platform axis runs the jobs a fleet grid of the
/// same axes runs: the i-th job's report is the i-th merged cell's.
#[test]
fn sweep_jobs_match_the_grid_cells_of_the_same_axes() {
    let body = r#"{"models":["mobilenetv2-0.5","shufflenetv2-x0.5"],"platforms":["a100","rtx-4090"],"batches":[1,2],"seed":9}"#;
    let want = cell_reports(&run_grid_local(&spec(body)).unwrap());
    assert_eq!(want.len(), 8);

    let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
    let node = fleet.node_addrs()[0];
    let (status, reply) = post(node, "/sweep", body).unwrap();
    assert_eq!(status, 201, "{reply}");
    let jobs = json(&reply)["jobs"].as_array().unwrap().clone();
    assert_eq!(jobs.len(), want.len());
    for (i, id) in jobs.iter().enumerate() {
        assert_eq!(job_report(node, id.as_u64().unwrap()), want[i], "job {i}");
    }
    fleet.shutdown();
}
