//! A fleet run's merge reuses the previous successful run's copy of a cell
//! exactly when the report bytes of the same shard id match that run's,
//! byte for byte: a repeated grid reuses every cell, a grid of another
//! shape the shards whose bytes repeat, and a node that answers a cell
//! with new bytes gets them walked and merged. A reused cell's report is
//! the previous run's buffer, shared; a walked one keeps its own. Every
//! run's document equals `merge_run` over the reports it kept.

use proof_core::GridSpec;
use proof_fleet::{merge_run, run_grid_local, Fleet, FleetConfig, FleetRun};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn spec(json: &str) -> GridSpec {
    GridSpec::from_value(&serde_json::from_str(json).unwrap()).unwrap()
}

/// The fleet's `fleet_cells_reused` counter.
fn cells_reused(fleet: &Fleet) -> u64 {
    let metrics: Value = serde_json::from_str(&fleet.metrics_json()).unwrap();
    metrics["counters"]["fleet_cells_reused"].as_u64().unwrap()
}

/// The run's document is the merge of the reports it kept.
fn assert_merges_its_results(s: &GridSpec, run: &FleetRun) {
    assert_eq!(merge_run(s, &run.outcome.results).unwrap(), run.merged);
}

/// How many of `run`'s reports are `last`'s buffers for the same shard,
/// shared rather than equal.
fn shared_buffers(last: &FleetRun, run: &FleetRun) -> usize {
    run.outcome
        .results
        .iter()
        .zip(&last.outcome.results)
        .filter(|((shard, body), (last_shard, last_body))| {
            shard == last_shard && Arc::ptr_eq(body, last_body)
        })
        .count()
}

/// The report a scripted worker gives a cell at `version`: pretty JSON,
/// or, at version 0, bytes that are not JSON.
fn scripted_report(model: &str, version: u64) -> String {
    if version == 0 {
        return format!(r#"{{"model": "{model}", "version""#);
    }
    format!("{{\n  \"model\": \"{model}\",\n  \"version\": {version}\n}}")
}

/// A one-worker node that settles every submission inline with
/// [`scripted_report`] of the submitted cell's model at the current
/// `version`.
fn scripted_worker(version: Arc<AtomicU64>) -> SocketAddr {
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
            let line = head.lines().next().unwrap_or("");
            let len = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")
                        .and_then(|v| v.trim().parse::<usize>().ok())
                })
                .unwrap_or(0);
            let mut body = vec![0u8; len.min(1 << 20)];
            let _ = s.read_exact(&mut body);
            let (status, reply, job) = if line.starts_with("GET /healthz") {
                (
                    200,
                    r#"{"status":"ok","queue_depth":0,"queue_capacity":64,"workers":1,"in_flight":0}"#
                        .to_string(),
                    String::new(),
                )
            } else if line.starts_with("POST /jobs") {
                let cell: Value = serde_json::from_slice(&body).unwrap();
                let model = cell["model"].as_str().unwrap();
                let id = next_id.fetch_add(1, Ordering::Relaxed);
                (
                    200,
                    scripted_report(model, version.load(Ordering::Relaxed)),
                    format!("X-Proof-Job: {id}\r\n"),
                )
            } else {
                (404, r#"{"error":"no route"}"#.to_string(), String::new())
            };
            let _ = write!(
                s,
                "HTTP/1.1 {status} X\r\ncontent-type: application/json\r\n{job}content-length: {}\r\nconnection: close\r\n\r\n{reply}",
                reply.len()
            );
        }
    });
    addr
}

#[test]
fn a_cell_answered_with_new_bytes_is_walked_not_reused() {
    let s = spec(
        r#"{"models":["mobilenetv2-0.5","resnet-50"],"platform":"a100","batches":[1],"seed":5}"#,
    );
    let version = Arc::new(AtomicU64::new(1));
    let fleet = Fleet::start(FleetConfig {
        nodes: vec![scripted_worker(Arc::clone(&version))],
        request_timeout: Duration::from_secs(2),
        ..FleetConfig::default()
    })
    .unwrap();
    let reports = |version: u64| -> Vec<(usize, Arc<String>)> {
        ["mobilenetv2-0.5", "resnet-50"]
            .iter()
            .enumerate()
            .map(|(shard, model)| (shard, Arc::new(scripted_report(model, version))))
            .collect()
    };

    let first = fleet.run_grid(&s).unwrap();
    assert_eq!(first.outcome.results, reports(1));
    assert_eq!(first.reused, 0);
    assert_merges_its_results(&s, &first);

    // the same cells, each answered with different valid bytes: walked
    version.store(2, Ordering::Relaxed);
    let second = fleet.run_grid(&s).unwrap();
    assert_eq!(second.outcome.results, reports(2));
    assert_eq!(second.merged, merge_run(&s, &reports(2)).unwrap());
    assert_ne!(second.merged, first.merged);
    assert_eq!(second.reused, 0, "no cell's bytes repeated");
    assert_eq!(
        shared_buffers(&first, &second),
        0,
        "changed cells keep their bytes"
    );
    assert_eq!(cells_reused(&fleet), 0);

    // a failed run leaves the second run as the one to reuse
    version.store(0, Ordering::Relaxed);
    let failed = fleet.run_grid(&s).unwrap_err();
    assert!(
        failed.to_string().starts_with("serialize: shard 0 report:"),
        "{failed}"
    );
    version.store(2, Ordering::Relaxed);
    let fourth = fleet.run_grid(&s).unwrap();
    assert_eq!(fourth.reused, 2);
    assert_eq!(shared_buffers(&second, &fourth), 2);
    assert_eq!(fourth.merged, second.merged);
    assert_merges_its_results(&s, &fourth);
    assert_eq!(cells_reused(&fleet), 2);
    fleet.shutdown();
}

#[test]
fn a_repeated_grid_reuses_every_cell() {
    let s = spec(r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,4],"seed":23}"#);
    let fleet = Fleet::start(FleetConfig::local(2)).unwrap();
    assert_eq!(cells_reused(&fleet), 0, "registered before the first run");

    let first = fleet.run_grid(&s).unwrap();
    assert_eq!(first.reused, 0);
    assert_eq!(first.merged, run_grid_local(&s).unwrap());
    assert_merges_its_results(&s, &first);

    let second = fleet.run_grid(&s).unwrap();
    assert_eq!(second.reused, 3);
    assert_eq!(second.merged, first.merged);
    assert_eq!(second.outcome.results, first.outcome.results);
    assert_eq!(
        shared_buffers(&first, &second),
        3,
        "every report is the first run's buffer"
    );
    assert_eq!(second.report_spans, first.report_spans);
    assert_merges_its_results(&s, &second);
    assert_eq!(cells_reused(&fleet), 3);
    let finished: Vec<String> = fleet
        .flight()
        .snapshot()
        .iter()
        .filter(|e| e.kind == "run" && e.message.contains("finished"))
        .map(|e| e.message.clone())
        .collect();
    assert_eq!(
        finished,
        [
            "run 1 finished: 3 shards, 0 rescheduled, 0 reused",
            "run 2 finished: 3 shards, 0 rescheduled, 3 reused",
        ]
    );
    fleet.shutdown();
}

#[test]
fn a_grid_of_another_shape_reuses_the_shards_whose_bytes_repeat() {
    let grid = |batches: &str| {
        spec(&format!(
            r#"{{"model":"mobilenetv2-0.5","platform":"a100","batches":{batches},"seed":29}}"#
        ))
    };
    let fleet = Fleet::start(FleetConfig::local(2)).unwrap();
    // (batches, cells whose bytes repeat the last run's same shard)
    let runs = [
        ("[1,2]", 0),
        // shards 0 and 1 repeat; shard 2 is past the last run's end
        ("[1,2,4]", 2),
        // batch 2 moved from shard 1 to shard 0: every shard's bytes differ
        ("[2,4]", 0),
        // a shorter grid: shard 0 repeats
        ("[2]", 1),
    ];
    let mut last: Option<Arc<FleetRun>> = None;
    for (batches, reused) in runs {
        let s = grid(batches);
        let run = fleet.run_grid(&s).unwrap();
        assert_eq!(run.reused, reused, "{batches}");
        if let Some(last) = &last {
            // the repeated shards share the last run's buffers; the
            // others keep their own
            assert_eq!(shared_buffers(last, &run), reused, "{batches}");
        }
        assert_eq!(run.merged, run_grid_local(&s).unwrap(), "{batches}");
        assert_merges_its_results(&s, &run);
        last = Some(run);
    }
    assert_eq!(cells_reused(&fleet), 3);
    fleet.shutdown();
}
