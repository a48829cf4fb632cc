//! A finished job keeps its trace however much the process-wide span ring
//! evicts. The flood below would evict other tests' ring records, so it
//! runs in a test binary of its own.

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

    // more spans of another trace than the shared ring holds
    let (tracer, ring) = proof_obs::shared_ring_tracer();
    let flood = proof_obs::new_trace_id();
    for _ in 0..=proof_obs::DEFAULT_RING_CAPACITY {
        tracer.span_in(flood, "flood").finish();
    }
    assert!(ring.spans().iter().all(|s| s.trace == flood));

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
    // the ring's own evictions are still counted
    let (_, prom) = get(addr, "/metrics?format=prometheus").unwrap();
    let dropped: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("proof_serve_trace_spans_dropped_total "))
        .expect("dropped-spans series")
        .parse()
        .unwrap();
    assert!(dropped >= 1, "{prom}");
    server.shutdown();
}
