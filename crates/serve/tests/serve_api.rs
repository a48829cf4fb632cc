//! End-to-end tests against a live daemon on an ephemeral port.

use proof_core::{profile_model, MetricMode};
use proof_hw::PlatformId;
use proof_ir::DType;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use proof_serve::client::{get, post};
use proof_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn boot(workers: usize) -> Server {
    Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

fn wait_status(addr: SocketAddr, id: u64, want: &str) -> serde_json::Value {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = get(addr, &format!("/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "{body}");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        if v["status"] == want {
            return v;
        }
        assert_ne!(v["status"], "failed", "job {id} failed: {}", v["error"]);
        assert!(Instant::now() < deadline, "timed out waiting for job {id}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = post(addr, "/jobs", body).unwrap();
    assert_eq!(status, 201, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    v["id"].as_u64().unwrap()
}

/// The acceptance scenario: same ResNet-50 job twice (second is a cache
/// hit), a 3-point batch sweep in one tracked group, report equality with a
/// direct library call, and a zero-drop graceful shutdown.
#[test]
fn resnet50_roundtrip_with_cache_and_sweep() {
    let server = boot(2);
    let addr = server.addr();
    let spec = r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batch":8,"dtype":"fp16","seed":42}"#;

    // first submission simulates, second hits the artifact cache
    let first = submit(addr, spec);
    wait_status(addr, first, "done");
    let second = submit(addr, spec);
    let v = wait_status(addr, second, "done");
    assert_eq!(v["cache_hit"], true);

    let (status, metrics) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let m: serde_json::Value = serde_json::from_str(&metrics).unwrap();
    assert_eq!(m["cache"]["misses"], 1u64);
    assert!(m["cache"]["hits"].as_u64().unwrap() >= 1);
    assert_eq!(m["jobs"]["done"], 2u64);
    assert!(m["latency"]["execute_us"]["count"].as_u64().unwrap() >= 2);

    // the served report is bit-for-bit the direct library-call result
    let (status, served) = get(addr, &format!("/jobs/{first}/report")).unwrap();
    assert_eq!(status, 200);
    let direct = profile_model(
        &ModelId::ResNet50.build(8),
        &PlatformId::A100.spec(),
        BackendFlavor::TrtLike,
        &SessionConfig::new(DType::F16).with_seed(42),
        MetricMode::Predicted,
    )
    .unwrap()
    .to_json();
    assert_eq!(served, direct);
    // and both submissions served the identical artifact
    let (_, served2) = get(addr, &format!("/jobs/{second}/report")).unwrap();
    assert_eq!(served, served2);

    // 3-point batch sweep tracked as one group
    let (status, reply) = post(
        addr,
        "/sweep",
        r#"{"model":"resnet-50","hardware":"a100","backend":"trt","batches":[1,2,4],"dtype":"fp16","seed":42}"#,
    )
    .unwrap();
    assert_eq!(status, 201, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["submitted"], 3u64);
    let gid = v["group"].as_u64().unwrap();
    let ids: Vec<u64> = v["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .map(|j| j.as_u64().unwrap())
        .collect();
    for id in &ids {
        wait_status(addr, *id, "done");
    }
    let (status, sweep) = get(addr, &format!("/sweep/{gid}")).unwrap();
    assert_eq!(status, 200);
    let s: serde_json::Value = serde_json::from_str(&sweep).unwrap();
    assert_eq!(s["total"], 3u64);
    assert_eq!(s["done"], 3u64);
    // distinct batches → distinct cache keys → no aliasing inside the sweep
    let keys: std::collections::BTreeSet<String> = s["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .map(|j| j["key"].as_str().unwrap().to_string())
        .collect();
    assert_eq!(keys.len(), 3);

    // graceful shutdown accounts for every accepted job
    let drain = server.shutdown();
    assert_eq!(drain.dropped, 0);
    assert_eq!(drain.failed, 0);
    assert_eq!(drain.done, 5);
}

/// N concurrent identical submissions cost exactly one simulation; the
/// other N−1 jobs coalesce onto the in-flight build and report cache hits.
#[test]
fn concurrent_identical_jobs_simulate_once() {
    const N: usize = 6;
    let server = boot(3);
    let addr = server.addr();
    let spec = r#"{"model":"shufflenetv2-x0.5","hardware":"a100","batch":4,"seed":123}"#;

    let ids: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| scope.spawn(move || submit(addr, spec)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut hits = 0;
    for id in &ids {
        let v = wait_status(addr, *id, "done");
        if v["cache_hit"] == true {
            hits += 1;
        }
    }
    assert_eq!(hits, N - 1, "exactly one job may simulate");

    let (_, metrics) = get(addr, "/metrics").unwrap();
    let m: serde_json::Value = serde_json::from_str(&metrics).unwrap();
    assert_eq!(m["cache"]["misses"], 1u64);
    assert_eq!(m["cache"]["hits"], (N - 1) as u64);
    server.shutdown();
}

/// Jobs that differ only in their simulation seed never alias.
#[test]
fn seed_is_part_of_the_job_identity() {
    let server = boot(2);
    let addr = server.addr();
    let a = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":2,"seed":1}"#,
    );
    let b = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":2,"seed":2}"#,
    );
    let va = wait_status(addr, a, "done");
    let vb = wait_status(addr, b, "done");
    assert_ne!(va["key"], vb["key"].as_str().unwrap());
    assert_eq!(vb["cache_hit"], false, "different seed must not hit");
    // different measurement noise → different artifacts
    let (_, ra) = get(addr, &format!("/jobs/{a}/report")).unwrap();
    let (_, rb) = get(addr, &format!("/jobs/{b}/report")).unwrap();
    assert_ne!(ra, rb);
    server.shutdown();
}

/// Resubmitting the same spec under the other metric mode reuses the
/// cached pipeline prefix: compile/profile/map run once, only the metric
/// and assembly stages run again — and the report is still bit-for-bit the
/// direct library-call result.
#[test]
fn stage_cache_reuses_prefix_across_modes() {
    let server = boot(1);
    let addr = server.addr();
    let predicted = r#"{"model":"shufflenetv2-x0.5","hardware":"a100","backend":"trt","batch":2,"dtype":"fp16","seed":9,"mode":"predicted"}"#;
    let measured = r#"{"model":"shufflenetv2-x0.5","hardware":"a100","backend":"trt","batch":2,"dtype":"fp16","seed":9,"mode":"measured"}"#;

    let a = submit(addr, predicted);
    wait_status(addr, a, "done");
    let b = submit(addr, measured);
    let vb = wait_status(addr, b, "done");
    // different mode → different artifact key, so this is NOT an artifact hit
    assert_eq!(vb["cache_hit"], false);

    let (status, metrics) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let m: serde_json::Value = serde_json::from_str(&metrics).unwrap();
    // ...but it IS a stage-cache hit: the prefix was prepared exactly once
    assert_eq!(m["stage_cache"]["misses"], 1u64);
    assert!(m["stage_cache"]["hits"].as_u64().unwrap() >= 1);
    assert_eq!(m["stages"]["compile_us"]["count"], 1u64);
    assert_eq!(m["stages"]["builtin_profile_us"]["count"], 1u64);
    assert_eq!(m["stages"]["map_us"]["count"], 1u64);
    assert_eq!(m["stages"]["metrics_us"]["count"], 2u64);
    assert_eq!(m["stages"]["assemble_us"]["count"], 2u64);

    // the prefix-reused measured report equals the fresh monolithic run
    let (status, served) = get(addr, &format!("/jobs/{b}/report")).unwrap();
    assert_eq!(status, 200);
    let direct = profile_model(
        &ModelId::ShuffleNetV2x05.build(2),
        &PlatformId::A100.spec(),
        BackendFlavor::TrtLike,
        &SessionConfig::new(DType::F16).with_seed(9),
        MetricMode::Measured,
    )
    .unwrap()
    .to_json();
    assert_eq!(served, direct);
    server.shutdown();
}

/// Shutdown initiated while jobs are still queued drains all of them.
#[test]
fn shutdown_drains_queued_jobs() {
    let server = boot(1);
    let addr = server.addr();
    let ids: Vec<u64> = (1..=4)
        .map(|b| {
            submit(
                addr,
                &format!(r#"{{"model":"shufflenetv2-x0.5","hardware":"a100","batch":{b}}}"#),
            )
        })
        .collect();
    assert_eq!(ids.len(), 4);
    let drain = server.shutdown(); // no waiting: most jobs still queued
    assert_eq!(drain.dropped, 0);
    assert_eq!(drain.done + drain.failed, 4);
    assert_eq!(drain.failed, 0);
}

#[test]
fn api_error_paths() {
    let server = boot(1);
    let addr = server.addr();
    let (status, _) = post(addr, "/jobs", "{not json").unwrap();
    assert_eq!(status, 400);
    let (status, body) = post(addr, "/jobs", r#"{"model":"nope","hardware":"a100"}"#).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown model"));
    let (status, _) = get(addr, "/jobs/999").unwrap();
    assert_eq!(status, 404);
    let (status, _) = get(addr, "/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = request_delete(addr).unwrap();
    assert_eq!(status, 405);
    // report of an unfinished job: queue a job on a busy server and ask
    let id = submit(addr, r#"{"model":"resnet-50","hardware":"a100","batch":8}"#);
    let (status, _) = get(addr, &format!("/jobs/{id}/report")).unwrap();
    assert!(status == 409 || status == 200); // may already be done
    let (status, body) = get(addr, "/models").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("resnet-50"));
    server.shutdown();
}

/// `POST /sweep` expansion as a table: each accepted body's jobs, in
/// submission order, as `model/dtype/batch mode seed timeout_ms`, and each
/// refused body's exact 400 error text. Pins the grid order (model, then
/// dtype, then batch), the keys passed through to every job, and that an
/// absent axis leaves its key out, so the job's own default or alias
/// applies.
#[test]
fn sweep_expansion_table_is_pinned() {
    let server = boot(2);
    let addr = server.addr();
    let accepted: [(&str, &[&str]); 3] = [
        (
            r#"{"models":["mobilenetv2-0.5","shufflenetv2-x0.5"],"dtypes":["fp16","fp32"],"batches":[1,2],"hardware":"a100","seed":7}"#,
            &[
                "mobilenetv2-0.5/fp16/1 predicted 7 null",
                "mobilenetv2-0.5/fp16/2 predicted 7 null",
                "mobilenetv2-0.5/fp32/1 predicted 7 null",
                "mobilenetv2-0.5/fp32/2 predicted 7 null",
                "shufflenetv2-x0.5/fp16/1 predicted 7 null",
                "shufflenetv2-x0.5/fp16/2 predicted 7 null",
                "shufflenetv2-x0.5/fp32/1 predicted 7 null",
                "shufflenetv2-x0.5/fp32/2 predicted 7 null",
            ],
        ),
        (
            r#"{"model":"mobilenetv2-0.5","hardware":"a100","batches":[2,1],"mode":"measured","seed":11,"timeout_ms":60000}"#,
            &[
                "mobilenetv2-0.5/fp16/2 measured 11 60000",
                "mobilenetv2-0.5/fp16/1 measured 11 60000",
            ],
        ),
        (
            r#"{"model":"mobilenetv2-0.5","platform":"a100","precision":"fp32","seed":12}"#,
            &["mobilenetv2-0.5/fp32/1 predicted 12 null"],
        ),
    ];
    for (body, want) in accepted {
        let (status, reply) = post(addr, "/sweep", body).unwrap();
        assert_eq!(status, 201, "{body}: {reply}");
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["submitted"], want.len() as u64, "{body}");
        // a job's timeout budget shows once it has run
        for id in v["jobs"].as_array().unwrap() {
            wait_status(addr, id.as_u64().unwrap(), "done");
        }
        let (status, group) = get(addr, &format!("/sweep/{}", v["group"])).unwrap();
        assert_eq!(status, 200, "{group}");
        let g: serde_json::Value = serde_json::from_str(&group).unwrap();
        let members = g["jobs"].as_array().unwrap();
        let ids: Vec<&serde_json::Value> = members.iter().map(|j| &j["id"]).collect();
        let submitted: Vec<&serde_json::Value> = v["jobs"].as_array().unwrap().iter().collect();
        assert_eq!(ids, submitted, "{body}: members in submission order");
        let got: Vec<String> = members
            .iter()
            .map(|j| {
                let spec = &j["spec"];
                format!(
                    "{}/{}/{} {} {} {}",
                    spec["model"].as_str().unwrap(),
                    spec["dtype"].as_str().unwrap(),
                    spec["batch"],
                    spec["mode"].as_str().unwrap(),
                    spec["seed"],
                    j["timeout_ms"]
                )
            })
            .collect();
        assert_eq!(got, want, "{body}");
    }

    let oversized = format!(
        r#"{{"models":["mobilenetv2-0.5","resnet-50"],"hardware":"a100","batches":[{}]}}"#,
        (1..=2049)
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let refused = [
        (
            r#"["mobilenetv2-0.5"]"#.to_string(),
            "sweep spec must be a JSON object",
        ),
        (
            r#"{"model":"mobilenetv2-0.5","hardware":"a100","batches":4}"#.to_string(),
            "field 'batches' must be an array",
        ),
        (
            r#"{"models":[],"hardware":"a100"}"#.to_string(),
            "field 'models' must not be empty",
        ),
        (oversized, "sweep grid larger than 4096 points"),
    ];
    for (body, error) in refused {
        let (status, reply) = post(addr, "/sweep", &body).unwrap();
        assert_eq!(status, 400, "{reply}");
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["error"], error);
    }
    let drain = server.shutdown();
    assert_eq!((drain.done, drain.failed, drain.dropped), (11, 0, 0));
}

fn request_delete(addr: SocketAddr) -> std::io::Result<(u16, String)> {
    let r = proof_serve::client::Call::new(addr, "DELETE", "/jobs/1").send()?;
    Ok((r.status, r.into_body()))
}
