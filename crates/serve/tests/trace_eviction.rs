//! A finished job keeps its trace however many spans the process closes
//! outside any capture afterwards. The flood below runs in a test binary
//! of its own so its spans never share a process with other tests' jobs.

use proof_serve::client::{get, post};
use proof_serve::{ServeConfig, Server};
use serde_json::Value;

const SPEC: &str = r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":3}"#;

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("{e}: {body}"))
}

#[test]
fn job_spans_survive_ring_eviction() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let (status, reply) = post(addr, "/jobs", SPEC).unwrap();
    assert_eq!(status, 201, "{reply}");
    let submitted = json(&reply);
    let (id, trace) = (
        submitted["id"].as_u64().unwrap(),
        submitted["trace"].as_u64().unwrap(),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while json(&get(addr, &format!("/jobs/{id}?wait_ms=1000")).unwrap().1)["status"] != "done" {
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} never finished"
        );
    }
    let document = get(addr, &format!("/trace/{trace}")).unwrap();
    let listing = get(addr, &format!("/trace/{trace}?format=spans")).unwrap();
    assert_eq!(document.0, 200, "{}", document.1);
    assert_eq!(listing.0, 200, "{}", listing.1);

    // a flood of uncaptured spans, in another trace and in the job's own
    let flood = proof_obs::new_trace_id();
    for _ in 0..16_384 {
        proof_obs::span_in(flood, "flood").finish();
    }
    for _ in 0..proof_obs::CAPTURE_CAPACITY {
        proof_obs::span_in(trace, "flood").finish();
    }

    assert_eq!(get(addr, &format!("/trace/{trace}")).unwrap(), document);
    assert_eq!(
        get(addr, &format!("/trace/{trace}?format=spans")).unwrap(),
        listing
    );
    let spans = json(&listing.1);
    let names: Vec<&str> = spans["spans"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|s| s["name"].as_str())
        .collect();
    for want in [
        "job",
        "compile",
        "builtin_profile",
        "map",
        "metrics",
        "assemble",
    ] {
        assert!(names.contains(&want), "missing span {want:?}: {names:?}");
    }
    // only a job's own capture overflow counts as dropped
    let (_, prom) = get(addr, "/metrics?format=prometheus").unwrap();
    let dropped: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("proof_serve_trace_spans_dropped_total "))
        .expect("dropped-spans series")
        .parse()
        .unwrap();
    assert_eq!(dropped, 0, "{prom}");
    server.shutdown();
}
