//! End-to-end fleet tests: the determinism contract (merged artifact
//! byte-identical to the single-node reference regardless of topology) and
//! fault-aware rescheduling against dead, wedged, and dying nodes.

use proof_core::GridSpec;
use proof_fleet::{
    run_grid_local, CoordinatorClient, DispatcherConfig, Fleet, FleetConfig, FleetServer,
    FleetServerConfig, NodeState, RunResult,
};
use proof_serve::client::post;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

fn spec(json: &str) -> GridSpec {
    GridSpec::from_value(&serde_json::from_str(json).unwrap()).unwrap()
}

/// An address that answers no request: every connection is closed as
/// soon as it is accepted. The listener stays bound for the rest of the
/// process, so no daemon a concurrent test starts can take the port and
/// answer in its place, as it could once a bound-then-dropped port was
/// free again.
fn dead_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            drop(stream);
        }
    });
    addr
}

/// A worker that looks alive exactly once, accepts every job, and never
/// finishes any of them: the first `GET /healthz` reports healthy (so the
/// registry trusts it), `POST /jobs` returns a job id, `GET /jobs/<id>`
/// says `running` forever, and every later health probe fails — the shape
/// of a daemon that wedged mid-job.
fn stuck_worker() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut healthz_served = false;
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
            let (status, body) = if line.starts_with("GET /healthz") {
                if healthz_served {
                    (500, r#"{"error":"wedged"}"#)
                } else {
                    healthz_served = true;
                    (
                        200,
                        r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#,
                    )
                }
            } else if line.starts_with("POST /jobs") {
                (201, r#"{"id":1,"status":"queued"}"#)
            } else if line.starts_with("GET /jobs/") {
                (200, r#"{"status":"running"}"#)
            } else {
                (404, r#"{"error":"no route"}"#)
            };
            let _ = write!(
                s,
                "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    addr
}

#[test]
fn merged_report_is_byte_identical_across_topologies() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,4],"seed":13}"#);
    let reference = run_grid_local(&s).unwrap();

    let one = Fleet::start(FleetConfig::local(1)).unwrap();
    let run1 = one.run_grid(&s).unwrap();
    one.shutdown();
    assert_eq!(
        run1.merged, reference,
        "1-node fleet differs from local reference"
    );

    let two = Fleet::start(FleetConfig::local(2)).unwrap();
    let run2 = two.run_grid(&s).unwrap();
    two.shutdown();
    assert_eq!(
        run2.merged, reference,
        "2-node fleet differs from local reference"
    );
    assert_eq!(run2.outcome.results.len(), 3);
    assert_eq!(
        run2.outcome.rescheduled, 0,
        "healthy fleet should not reschedule"
    );
    // both nodes were probed at run start
    assert!(run2.outcome.probes >= 2);
}

#[test]
fn artifacts_over_four_mib_reach_http_clients() {
    // three of the zoo's largest reports (165–205 KB compact each on the
    // CPU platforms) × 2 platforms × 5 batches: a ~5.3 MB artifact, over
    // the 4 MiB cap the daemons put on request bodies
    let spec_json = r#"{"models":["sd-unet","swin-small","swin-base"],"platforms":["xeon-6330","rpi4"],"batches":[1,2,4,8,16],"seed":3}"#;
    let fleet = Fleet::start(FleetConfig::local(2)).unwrap();
    let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    let addr = server.addr();

    let (status, sync) = post(addr, "/grid", spec_json).unwrap();
    assert_eq!(status, 200);
    assert!(
        sync.len() > 4 << 20,
        "artifact is only {} bytes",
        sync.len()
    );

    let client = CoordinatorClient::new(addr, Duration::from_secs(30));
    let run = client.submit_grid(spec_json).unwrap();
    let deadline = Instant::now() + Duration::from_secs(120);
    let streamed = loop {
        assert!(Instant::now() < deadline, "run {run} never finished");
        match client.run_result(run).unwrap() {
            RunResult::Done(artifact) => break artifact,
            RunResult::Running => std::thread::sleep(Duration::from_millis(20)),
            RunResult::Failed(e) => panic!("run {run} failed: {e}"),
        }
    };
    assert_eq!(streamed, sync, "async and sync artifacts diverge");
    assert_eq!(sync, run_grid_local(&spec(spec_json)).unwrap());

    // request bodies stay capped: one byte over 4 MiB is refused up front
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /grid HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        (4 << 20) + 1
    )
    .unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    server.shutdown();
}

#[test]
fn dead_node_shards_reschedule_onto_survivors() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":7}"#);
    let reference = run_grid_local(&s).unwrap();

    let config = FleetConfig {
        nodes: vec![dead_addr()],
        local_daemons: 1,
        request_timeout: Duration::from_millis(500),
        ..FleetConfig::default()
    };
    let fleet = Fleet::start(config).unwrap();
    let run = fleet.run_grid(&s).unwrap();

    assert_eq!(
        run.merged, reference,
        "fault path changed the artifact bytes"
    );
    assert!(
        run.outcome.rescheduled >= 1,
        "dead node never triggered a reschedule"
    );
    assert!(
        run.outcome.probe_failures >= 1,
        "dead node never failed a probe"
    );
    assert!(
        run.nodes.iter().any(|n| n.state == NodeState::Dead),
        "refusing node should be marked dead: {:?}",
        run.nodes
    );
    // the counters the coordinator exports carry the same story
    let metrics: Value = serde_json::from_str(&fleet.metrics_json()).unwrap();
    assert!(metrics["counters"]["fleet_rescheduled"].as_u64().unwrap() >= 1);
    assert!(
        metrics["counters"]["fleet_probe_failures"]
            .as_u64()
            .unwrap()
            >= 1
    );
    fleet.shutdown();
}

#[test]
fn wedged_node_times_out_and_shards_complete_elsewhere() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":21}"#);
    let reference = run_grid_local(&s).unwrap();

    let config = FleetConfig {
        nodes: vec![stuck_worker()],
        local_daemons: 1,
        request_timeout: Duration::from_millis(500),
        dispatcher: DispatcherConfig {
            shard_timeout: Duration::from_millis(1500),
            max_shard_attempts: 5,
            ..DispatcherConfig::default()
        },
        ..FleetConfig::default()
    };
    let fleet = Fleet::start(config).unwrap();
    let run = fleet.run_grid(&s).unwrap();
    fleet.shutdown();

    assert_eq!(
        run.merged, reference,
        "timeout path changed the artifact bytes"
    );
    assert!(
        run.outcome.rescheduled >= 1,
        "wedged node's shard should have been rescheduled after its timeout"
    );
    assert_eq!(
        run.outcome.results.len(),
        2,
        "every cell must still resolve"
    );
}

/// A fresh node joining a fleet with a warm peer serves its shards from
/// the peer's cache instead of re-simulating: the coordinator advertises
/// peer endpoints, the new node's tiered store walks to the remote tier,
/// and the merged artifact stays byte-identical to the cold reference.
#[test]
fn fresh_node_pulls_shards_from_warm_peer_cache() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":7}"#);
    let reference = run_grid_local(&s).unwrap();

    // warm two daemons: each builds one shard and publishes it to the
    // other, so both end up holding both cells
    let a = proof_serve::Server::start(proof_serve::ServeConfig::default()).unwrap();
    let b = proof_serve::Server::start(proof_serve::ServeConfig::default()).unwrap();
    let b_addr = b.addr();
    let warmup = Fleet::start(FleetConfig::remote(vec![a.addr(), b_addr])).unwrap();
    let warm_run = warmup.run_grid(&s).unwrap();
    warmup.shutdown();
    assert_eq!(warm_run.merged, reference);
    a.shutdown();

    // a fresh cold node replaces A; its shard must come from warm B
    let c = proof_serve::Server::start(proof_serve::ServeConfig::default()).unwrap();
    let fleet = Fleet::start(FleetConfig::remote(vec![c.addr(), b_addr])).unwrap();
    let run = fleet.run_grid(&s).unwrap();

    assert_eq!(
        run.merged, reference,
        "remote-tier hits changed the artifact bytes"
    );
    let metrics: Value = serde_json::from_str(&fleet.metrics_json()).unwrap();
    assert!(
        metrics["counters"]["fleet_cache_remote_hits"]
            .as_u64()
            .unwrap()
            >= 1,
        "fresh node never hit the warm peer's cache: {metrics}"
    );
    assert!(
        metrics["counters"]["fleet_peer_advertisements"]
            .as_u64()
            .unwrap()
            >= 2
    );
    fleet.shutdown();
    c.shutdown();
    b.shutdown();
}

/// Summed `/metrics` `cache.<counter>` over `nodes`.
fn cache_counter(nodes: &[SocketAddr], counter: &str) -> u64 {
    nodes
        .iter()
        .map(|&addr| {
            let (status, body) = proof_serve::client::get(addr, "/metrics").unwrap();
            assert_eq!(status, 200, "{body}");
            let v: Value = serde_json::from_str(&body).unwrap();
            v["cache"][counter].as_u64().unwrap()
        })
        .sum()
}

/// Pooled peer connections lose no best-effort publish: two cold grids
/// back to back on one fleet, the second over connections kept from the
/// first, each publish every cell exactly once and count no peer error.
/// A publish that silently failed would change no artifact byte.
#[test]
fn pooled_peer_connections_lose_no_publish() {
    let fleet = Fleet::start(FleetConfig::local(2)).unwrap();
    let nodes = fleet.node_addrs();
    for seed in [31, 32] {
        let s = spec(&format!(
            r#"{{"model":"mobilenetv2-0.5","platforms":["a100","rtx-4090"],"batches":[1,2,4],"seed":{seed}}}"#
        ));
        let before = cache_counter(&nodes, "publishes");
        let run = fleet.run_grid(&s).unwrap();
        assert_eq!(run.merged, run_grid_local(&s).unwrap());
        let cells = run.outcome.results.len() as u64;
        assert_eq!(cells, 6);
        assert_eq!(
            cache_counter(&nodes, "publishes") - before,
            cells,
            "seed {seed}: every cold cell is published to the other node once"
        );
        assert_eq!(cache_counter(&nodes, "remote_errors"), 0, "seed {seed}");
    }
    fleet.shutdown();
}

#[test]
fn node_killed_mid_run_still_produces_the_complete_report() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,4,8],"seed":3}"#);
    let reference = run_grid_local(&s).unwrap();

    let a = proof_serve::Server::start(proof_serve::ServeConfig::default()).unwrap();
    let b = proof_serve::Server::start(proof_serve::ServeConfig::default()).unwrap();
    let fleet = Fleet::start(FleetConfig::remote(vec![a.addr(), b.addr()])).unwrap();

    // kill node B as soon as the fleet has finished its first shard, so the
    // tail of the run sees a node that died mid-grid
    let completed = fleet.metrics().counter("fleet_completed");
    let killer = std::thread::spawn(move || {
        while completed.get() == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        b.shutdown();
    });

    let run = fleet.run_grid(&s).unwrap();
    killer.join().unwrap();
    a.shutdown();
    fleet.shutdown();

    assert_eq!(
        run.merged, reference,
        "mid-run node death changed the artifact bytes"
    );
    assert_eq!(
        run.outcome.results.len(),
        4,
        "every cell must still resolve"
    );
}
