//! End-to-end fault-tolerance scenarios against a live daemon, driven by
//! the deterministic fault-injection plan (`proof_obs::fault`): worker
//! panic isolation, deadline timeouts, queue backpressure a client rides
//! out by honoring `Retry-After`, and transient-failure retries.
//!
//! The installed plan is process-global, so every test serializes on one
//! mutex and clears the plan on exit (panic included) via a drop guard.

use proof_serve::client::{get, post, Call};
use proof_serve::{ServeConfig, Server, SpanView, TraceSpans};
use std::net::SocketAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Holds the serialization lock and clears the global plan when dropped.
struct PlanGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for PlanGuard {
    fn drop(&mut self) {
        proof_obs::fault::clear();
    }
}

fn install(plan: &str) -> PlanGuard {
    let lock = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    proof_obs::fault::install(proof_obs::FaultPlan::parse(plan).expect("valid plan"));
    PlanGuard(lock)
}

fn boot(config: ServeConfig) -> Server {
    Server::start(config).expect("bind ephemeral port")
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = post(addr, "/jobs", body).unwrap();
    assert_eq!(status, 201, "{reply}");
    serde_json::from_str::<serde_json::Value>(&reply).unwrap()["id"]
        .as_u64()
        .unwrap()
}

/// Poll until the job reaches any terminal status; return its record.
fn wait_terminal(addr: SocketAddr, id: u64) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        if matches!(v["status"].as_str(), Some("done" | "failed" | "timed_out")) {
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The value of one counter in the Prometheus exposition.
fn prom_counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = get(addr, "/metrics?format=prometheus").unwrap();
    assert_eq!(status, 200);
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from exposition:\n{body}"))
        .parse()
        .expect("counter value")
}

#[test]
fn panicking_stage_fails_one_job_and_spares_the_daemon() {
    let _guard = install("map:panic@777");
    let server = boot(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let poisoned = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":777}"#,
    );
    let healthy = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":778}"#,
    );

    let bad = wait_terminal(addr, poisoned);
    assert_eq!(bad["status"], "failed", "{bad}");
    let err = bad["error"].as_str().unwrap();
    assert!(err.contains("panicked"), "{err}");
    assert!(
        err.contains("injected fault: panic at stage 'map'"),
        "{err}"
    );

    // the sibling job and the daemon itself are untouched
    assert_eq!(wait_terminal(addr, healthy)["status"], "done");
    let (status, _) = get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(prom_counter(addr, "proof_serve_panics_total"), 1);
    assert_eq!(prom_counter(addr, "proof_serve_jobs_failed_total"), 1);
}

#[test]
fn deadline_overrun_reports_timed_out_and_504() {
    let _guard = install("builtin_profile:stall:400@888");
    let server = boot(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":888,"timeout_ms":100}"#,
    );
    let v = wait_terminal(addr, id);
    assert_eq!(v["status"], "timed_out", "{v}");
    assert_eq!(v["timeout_ms"], 100);
    let err = v["error"].as_str().unwrap();
    assert!(err.contains("deadline exceeded"), "{err}");
    assert!(err.contains("builtin_profile"), "{err}");

    let (status, body) = get(addr, &format!("/jobs/{id}/report")).unwrap();
    assert_eq!(status, 504, "{body}");
    assert_eq!(prom_counter(addr, "proof_serve_timeouts_total"), 1);
    assert_eq!(prom_counter(addr, "proof_serve_jobs_timed_out_total"), 1);
}

#[test]
fn full_queue_backpressures_with_429_and_recovers_after_retry_after() {
    let _guard = install("metrics:stall:600@999");
    let server = boot(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // occupy the single worker with a stalled job...
    let stalled = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":999}"#,
    );
    let start = Instant::now();
    while Instant::now() - start < Duration::from_secs(30) {
        let (_, body) = get(addr, &format!("/jobs/{stalled}")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        if v["status"] == "running" {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...fill the 1-deep queue...
    let queued = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":2,"seed":11}"#,
    );
    // ...and the next submission bounces with 429 + Retry-After
    let third = r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":4,"seed":12}"#;
    let r = Call::new(addr, "POST", "/jobs").body(third).send().unwrap();
    assert_eq!(r.status, 429, "{}", r.body);
    assert_eq!(r.retry_after_s, Some(1), "429 must carry Retry-After");
    assert!(prom_counter(addr, "proof_serve_rejected_total") >= 1);

    // a client that waits out each Retry-After hint rides out the stall
    // and gets in
    let mut attempts = 0;
    let third_id = loop {
        let r = Call::new(addr, "POST", "/jobs").body(third).send().unwrap();
        if r.status == 201 {
            break serde_json::from_str::<serde_json::Value>(&r.body).unwrap()["id"]
                .as_u64()
                .unwrap();
        }
        assert_eq!(r.status, 429, "{}", r.body);
        attempts += 1;
        assert!(attempts < 30, "the queue never drained");
        std::thread::sleep(Duration::from_secs(r.retry_after_s.expect("Retry-After")));
    };

    for id in [stalled, queued, third_id] {
        assert_eq!(wait_terminal(addr, id)["status"], "done");
    }
}

#[test]
fn transient_failures_retry_to_success_with_counted_attempts() {
    let _guard = install("compile:fail:2@555");
    let server = boot(ServeConfig {
        workers: 1,
        max_retries: 2,
        retry_base_ms: 5,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":555}"#,
    );
    let v = wait_terminal(addr, id);
    assert_eq!(v["status"], "done", "{v}");
    // two injected transient failures, then success on the third attempt
    assert_eq!(v["attempts"], 3, "{v}");
    assert_eq!(prom_counter(addr, "proof_serve_retries_total"), 2);
    assert_eq!(prom_counter(addr, "proof_serve_jobs_done_total"), 1);
}

#[test]
fn exhausted_retries_fail_with_the_transient_error() {
    let _guard = install("compile:fail:10@556");
    let server = boot(ServeConfig {
        workers: 1,
        max_retries: 1,
        retry_base_ms: 5,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":556}"#,
    );
    let v = wait_terminal(addr, id);
    assert_eq!(v["status"], "failed", "{v}");
    assert_eq!(v["attempts"], 2, "{v}");
    let err = v["error"].as_str().unwrap();
    assert!(err.contains("transient"), "{err}");
    assert_eq!(prom_counter(addr, "proof_serve_retries_total"), 1);
}

#[test]
fn server_default_timeout_applies_when_spec_has_none() {
    let _guard = install("metrics:stall:400@889");
    let server = boot(ServeConfig {
        workers: 1,
        job_timeout_ms: Some(100),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":889}"#,
    );
    let v = wait_terminal(addr, id);
    assert_eq!(v["status"], "timed_out", "{v}");
    assert_eq!(v["timeout_ms"], 100, "{v}");
}

#[test]
fn a_queued_job_shows_its_timeout_budget() {
    // the first job stalls the only worker, so the next two wait queued;
    // each one's budget is already on its status and in its sweep
    let _guard = install("compile:stall:800@901");
    let server = boot(ServeConfig {
        workers: 1,
        job_timeout_ms: Some(30_000),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let stalled = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":901}"#,
    );
    let own = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":902,"timeout_ms":60000}"#,
    );
    let (status, reply) = post(
        addr,
        "/sweep",
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batches":[1],"seed":903}"#,
    )
    .unwrap();
    assert_eq!(status, 201, "{reply}");
    let group = serde_json::from_str::<serde_json::Value>(&reply).unwrap()["group"].clone();

    let (_, body) = get(addr, &format!("/jobs/{own}")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    assert_eq!(v["status"], "queued", "{v}");
    assert_eq!(v["timeout_ms"], 60000, "{v}");
    let (_, body) = get(addr, &format!("/sweep/{group}")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&body).unwrap();
    let member = &v["jobs"][0];
    assert_eq!(member["status"], "queued", "{v}");
    assert_eq!(member["timeout_ms"], 30000, "{v}");

    let sweep_job = member["id"].as_u64().unwrap();
    for id in [stalled, own, sweep_job] {
        assert_eq!(wait_terminal(addr, id)["status"], "done");
    }
}

/// One span of a job's subtree, with ids replaced by positions in the
/// job's listing: `(name, parent position, start, end, fields)`.
type SpanRow = (String, Option<usize>, f64, f64, String);

/// The job subtrees of a `?format=spans` listing, in listing order, with
/// the job span's run-varying `job` id field dropped.
fn job_subtrees(listing: &str) -> Vec<Vec<SpanRow>> {
    let doc: TraceSpans = serde_json::from_str(listing).unwrap();
    let mut jobs: Vec<Vec<SpanView>> = Vec::new();
    for mut span in doc.spans {
        if span.name == "job" {
            span.fields.remove("job");
            jobs.push(Vec::new());
        }
        jobs.last_mut()
            .expect("a job span opens its job")
            .push(span);
    }
    jobs.iter()
        .map(|spans| {
            let pos = |id: u64| spans.iter().position(|s| s.id == id);
            spans
                .iter()
                .map(|s| {
                    let fields = serde_json::to_string(&s.fields).unwrap();
                    (s.name.clone(), pos(s.parent), s.start_us, s.end_us, fields)
                })
                .collect()
        })
        .collect()
}

#[test]
fn concurrent_jobs_of_one_trace_render_their_spans_as_if_alone() {
    // job A stalls in compile while job B runs start to finish beside it,
    // both under one adopted trace on a 2-worker daemon
    let _guard = install("compile:stall:400@41");
    let specs = [
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":41}"#,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":2,"seed":42}"#,
    ];
    let run = |trace: u64, specs: &[&str]| {
        let server = boot(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let addr = server.addr();
        let header = format!("{trace}:9");
        let ids: Vec<u64> = specs
            .iter()
            .map(|spec| {
                let reply = Call::new(addr, "POST", "/jobs")
                    .body(spec)
                    .headers(&[("X-Proof-Trace", header.as_str())])
                    .send()
                    .unwrap();
                assert_eq!(reply.status, 201, "{}", reply.body);
                serde_json::from_str::<serde_json::Value>(&reply.body).unwrap()["id"]
                    .as_u64()
                    .unwrap()
            })
            .collect();
        for id in ids {
            assert_eq!(wait_terminal(addr, id)["status"], "done");
        }
        let (status, listing) = get(addr, &format!("/trace/{trace}?format=spans")).unwrap();
        assert_eq!(status, 200, "{listing}");
        server.shutdown();
        job_subtrees(&listing)
    };
    let together = run(616_161, &specs);
    let alone: Vec<Vec<SpanRow>> = [(616_162, specs[0]), (616_163, specs[1])]
        .into_iter()
        .flat_map(|(trace, spec)| run(trace, &[spec]))
        .collect();
    assert_eq!(together, alone);
}
