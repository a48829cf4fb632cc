//! Observability of a live daemon: per-job trace ids, the merged
//! Chrome-trace endpoint, and the Prometheus metrics exposition.

use proof_serve::client::{get, post};
use proof_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SPEC: &str = r#"{"model":"mobilenetv2-0.5","hardware":"a100","backend":"trt","batch":1,"dtype":"fp16","seed":7}"#;

fn boot(workers: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn wait_done(addr: SocketAddr, id: u64) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        if v["status"] == "done" {
            return v;
        }
        assert_ne!(v["status"], "failed", "job {id} failed: {}", v["error"]);
        assert!(Instant::now() < deadline, "timed out waiting for job {id}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Submit one job, wait for it, and return `(trace id, trace body)`.
fn run_one_job(addr: SocketAddr, spec: &str) -> (u64, String) {
    let (status, reply) = post(addr, "/jobs", spec).unwrap();
    assert_eq!(status, 201, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    let id = v["id"].as_u64().unwrap();
    let trace = v["trace"]
        .as_u64()
        .expect("submission reply has a trace id");
    let status_doc = wait_done(addr, id);
    assert_eq!(
        status_doc["trace"].as_u64(),
        Some(trace),
        "job status carries the same trace id"
    );
    let (status, body) = get(addr, &format!("/trace/{trace}")).unwrap();
    assert_eq!(status, 200, "{body}");
    (trace, body)
}

#[test]
fn trace_endpoint_serves_the_merged_chrome_trace() {
    let server = boot(1);
    let addr = server.addr();
    let (trace, body) = run_one_job(addr, SPEC);
    assert!(trace > 0);

    let doc: serde_json::Value = serde_json::from_str(&body).expect("trace is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    assert_eq!(doc["displayTimeUnit"], "ms");

    // pipeline spans and the kernel timeline share one document and clock
    let cats: Vec<&str> = events.iter().filter_map(|e| e["cat"].as_str()).collect();
    for want in ["pipeline", "backend_layer", "kernel"] {
        assert!(cats.contains(&want), "missing cat {want:?}");
    }
    let pipeline_names: Vec<&str> = events
        .iter()
        .filter(|e| e["cat"] == "pipeline")
        .filter_map(|e| e["name"].as_str())
        .collect();
    for stage in [
        "job",
        "compile",
        "builtin_profile",
        "map",
        "metrics",
        "assemble",
    ] {
        assert!(pipeline_names.contains(&stage), "missing span {stage:?}");
    }

    // globally time-sorted: every event's ts is >= its predecessor's
    let ts: Vec<f64> = events.iter().map(|e| e["ts"].as_f64().unwrap()).collect();
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts not monotonic");

    // error paths
    let (status, _) = get(addr, "/trace/999999999").unwrap();
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/trace/not-a-number").unwrap();
    assert_eq!(status, 400);
}

#[test]
fn traces_are_byte_identical_across_fresh_servers() {
    // Two independent daemons, same seeded job: the per-capture logical clock
    // and exported-id renumbering make the rendered traces byte-equal even
    // though the process-global span/trace id allocators kept counting.
    let server_a = boot(1);
    let (_, trace_a) = run_one_job(server_a.addr(), SPEC);
    server_a.shutdown();

    let server_b = boot(1);
    let (_, trace_b) = run_one_job(server_b.addr(), SPEC);
    server_b.shutdown();

    assert_eq!(trace_a, trace_b);
}

#[test]
fn a_shared_trace_renders_its_lowest_job() {
    // Two jobs adopt one trace: `/trace/<id>` renders the lowest job id's
    // spans, whichever record the registry map visits first. Fresh daemons
    // give fresh map orders, so a first-found pick shows up in some round.
    for round in 0..4u64 {
        let server = boot(1);
        let addr = server.addr();
        let trace = 515_150 + round;
        let header = format!("{trace}:9");
        let headers = [("X-Proof-Trace", header.as_str())];
        let mut ids = Vec::new();
        for seed in [11, 12] {
            let spec = SPEC.replace("\"seed\":7", &format!("\"seed\":{seed}"));
            let reply = proof_serve::client::Call::new(addr, "POST", "/jobs")
                .body(&spec)
                .headers(&headers)
                .send()
                .unwrap();
            assert_eq!(reply.status, 201, "{}", reply.body);
            let v: serde_json::Value = serde_json::from_str(&reply.body).unwrap();
            assert_eq!(v["trace"].as_u64(), Some(trace));
            ids.push(v["id"].as_u64().unwrap());
        }
        for &id in &ids {
            wait_done(addr, id);
        }
        let (status, body) = get(addr, &format!("/trace/{trace}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
        let jobs: Vec<u64> = doc["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"] == "job")
            .map(|e| e["args"]["job"].as_u64().unwrap())
            .collect();
        assert_eq!(jobs, [ids[0]], "round {round}: {body}");
        server.shutdown();
    }
}

#[test]
fn jobs_adopt_the_submitters_trace_context() {
    let server = boot(1);
    let addr = server.addr();

    // submit under an external trace context via the X-Proof-Trace header
    let reply = proof_serve::client::Call::new(addr, "POST", "/jobs")
        .body(SPEC)
        .headers(&[("X-Proof-Trace", "424242:9")])
        .send()
        .unwrap();
    assert_eq!(reply.status, 201, "{}", reply.body);
    let v: serde_json::Value = serde_json::from_str(&reply.body).unwrap();
    assert_eq!(
        v["trace"].as_u64(),
        Some(424242),
        "job adopted the submitted trace id"
    );
    let id = v["id"].as_u64().unwrap();
    let status_doc = wait_done(addr, id);
    assert_eq!(status_doc["trace"].as_u64(), Some(424242));
    assert_eq!(
        status_doc["remote_parent"].as_u64(),
        Some(9),
        "status records the submitter's parent span id"
    );

    // the raw span listing for the adopted trace carries the linkage fields
    let (status, body) = get(addr, "/trace/424242?format=spans").unwrap();
    assert_eq!(status, 200, "{body}");
    let doc: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(doc["trace"].as_u64(), Some(424242));
    let spans = doc["spans"].as_array().unwrap();
    assert!(!spans.is_empty());
    let job_span = spans
        .iter()
        .find(|s| s["name"] == "job")
        .expect("job span in listing");
    assert_eq!(job_span["fields"]["job"].as_u64(), Some(id));
    assert_eq!(job_span["fields"]["remote_parent"].as_u64(), Some(9));
    // deterministic ordering: (start_us, id) non-decreasing
    let starts: Vec<f64> = spans
        .iter()
        .map(|s| s["start_us"].as_f64().unwrap())
        .collect();
    assert!(starts.windows(2).all(|w| w[0] <= w[1]));

    // a locally-submitted job still allocates its own trace id
    let (status, reply) = post(addr, "/jobs", SPEC).unwrap();
    assert_eq!(status, 201, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_ne!(v["trace"].as_u64(), Some(424242));
    let local = wait_done(addr, v["id"].as_u64().unwrap());
    assert!(local["remote_parent"].is_null());
}

#[test]
fn healthz_and_flight_recorder_expose_runtime_state() {
    let server = boot(1);
    let addr = server.addr();
    run_one_job(addr, SPEC);

    let (status, body) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["status"], "ok");
    assert_eq!(v["version"].as_str(), Some(env!("CARGO_PKG_VERSION")));
    assert!(v["uptime_s"].as_u64().is_some());
    for tier in ["memory_hits", "disk_hits", "remote_hits", "misses"] {
        assert!(
            v["cache"][tier].as_u64().is_some(),
            "healthz cache summary missing {tier}: {body}"
        );
    }

    let (status, body) = get(addr, "/debug/events").unwrap();
    assert_eq!(status, 200, "{body}");
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["dropped"].as_u64(), Some(0));
    let events = v["events"].as_array().unwrap();
    let kinds: Vec<&str> = events.iter().filter_map(|e| e["kind"].as_str()).collect();
    assert!(kinds.contains(&"submit"), "flight recorder saw the submit");
    assert!(kinds.contains(&"job"), "flight recorder saw the completion");
    // seq numbers are strictly increasing
    let seqs: Vec<u64> = events.iter().map(|e| e["seq"].as_u64().unwrap()).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn prometheus_exposition_covers_the_registry_and_derived_series() {
    let server = boot(1);
    let addr = server.addr();
    run_one_job(addr, SPEC);

    let (status, text) = get(addr, "/metrics?format=prometheus").unwrap();
    assert_eq!(status, 200);

    // every line is a comment or `name[{labels}] value` with a float value
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE proof_serve_") || line.starts_with("# HELP proof_serve_"),
                "bad comment: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(series.starts_with("proof_serve_"), "bad name: {line}");
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
    }

    // former JSON counters and the stage histograms are all present
    for series in [
        "proof_serve_http_requests_total ",
        "proof_serve_jobs_submitted_total ",
        "proof_serve_jobs_done_total ",
        "proof_serve_jobs_failed_total ",
        "proof_serve_jobs_executed_total ",
        "proof_serve_cache_hits_total ",
        "proof_serve_cache_misses_total ",
        "proof_serve_cache_evictions_total ",
        "proof_serve_cache_disk_hits_total ",
        "proof_serve_stage_cache_hits_total ",
        "proof_serve_stage_cache_misses_total ",
        "proof_serve_trace_spans_dropped_total ",
        "proof_serve_queue_depth ",
        "proof_serve_queue_capacity ",
        "proof_serve_workers ",
        "proof_serve_worker_utilization ",
        "proof_serve_cache_bytes ",
        "proof_serve_stage_cache_entries ",
        "proof_serve_stage_compile_us_bucket{le=",
        "proof_serve_stage_metrics_us_count ",
        "proof_serve_job_execute_us_bucket{le=",
        "proof_serve_job_queue_wait_us_sum ",
    ] {
        assert!(text.contains(series), "missing series {series:?}");
    }

    // histogram buckets are cumulative and capped by +Inf == _count
    let sample = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("no sample {name}"))
            .rsplit_once(' ')
            .unwrap()
            .1
            .parse()
            .unwrap()
    };
    let count = sample("proof_serve_job_execute_us_count ");
    assert!(count >= 1.0);
    assert_eq!(
        sample("proof_serve_job_execute_us_bucket{le=\"+Inf\"}"),
        count
    );
    let buckets: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("proof_serve_job_execute_us_bucket"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "not cumulative");

    // the default format is still the JSON document
    let (status, json) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let m: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(m["queue"]["capacity"].as_u64().is_some());
}

/// The JSON `/metrics` histograms: one fixed key set, and buckets as
/// `[le, count]` pairs with power-of-two bounds that add up to `count`.
#[test]
fn metrics_histograms_keep_their_key_set_and_bucket_shape() {
    let server = boot(1);
    let addr = server.addr();
    run_one_job(addr, SPEC);
    let (status, body) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200, "{body}");
    let m: serde_json::Value = serde_json::from_str(&body).unwrap();
    for hist in [&m["latency"]["total_us"], &m["stages"]["compile_us"]] {
        let obj = hist.as_object().expect("histogram object");
        let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["buckets", "count", "max_us", "mean_us", "p50_us", "p99_us", "sum_us"],
            "{hist}"
        );
        let count = hist["count"].as_u64().unwrap();
        assert!(count >= 1, "{hist}");
        let buckets = hist["buckets"].as_array().unwrap();
        assert!(!buckets.is_empty(), "{hist}");
        let mut total = 0;
        for b in buckets {
            let pair = b.as_array().expect("bucket is an array");
            assert_eq!(pair.len(), 2, "{hist}");
            let (le, n) = (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap());
            assert!(le.is_power_of_two() && n > 0, "{hist}");
            total += n;
        }
        assert_eq!(total, count, "{hist}");
        assert!(hist["mean_us"].as_f64().is_some(), "{hist}");
    }
    server.shutdown();
}
