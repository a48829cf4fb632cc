//! Peer cache sharing over HTTP: the `/cache` surface, two-daemon remote
//! hits, and degradation when a peer is dead, corrupt, or saturated — a
//! broken peer must never fail a job, only cost a local rebuild.

use proof_core::{profile_model, MetricMode};
use proof_hw::PlatformId;
use proof_ir::DType;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use proof_serve::client::{get, post, Call};
use proof_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn submit(addr: SocketAddr, body: &str) -> u64 {
    let (status, reply) = post(addr, "/jobs", body).unwrap();
    assert_eq!(status, 201, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    v["id"].as_u64().unwrap()
}

fn metrics(addr: SocketAddr) -> serde_json::Value {
    let (status, body) = get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    serde_json::from_str(&body).unwrap()
}

/// An address that refuses every connection: bind, record, drop.
fn refused_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

/// A fake peer that answers every request with one canned HTTP response —
/// the shape of a node serving corrupt bytes or pure backpressure.
fn canned_peer(response: &'static str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { continue };
            let mut buf = [0u8; 65536];
            let _ = s.read(&mut buf);
            let _ = s.write_all(response.as_bytes());
        }
    });
    addr
}

/// Connections and requests a [`keep_alive_peer`] has seen.
#[derive(Default)]
struct PeerTally {
    connections: AtomicUsize,
    requests: AtomicUsize,
}

/// A fake peer that keeps every connection alive: `GET /cache/*` is a 404
/// miss and `PUT /cache/*` a 201, each sized and `Connection: keep-alive`,
/// on as many requests as a connection carries. It counts what it sees.
fn keep_alive_peer() -> (SocketAddr, Arc<PeerTally>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tally = Arc::new(PeerTally::default());
    let seen = Arc::clone(&tally);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            seen.connections.fetch_add(1, Ordering::SeqCst);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || serve_kept_alive(stream, &seen));
        }
    });
    (addr, tally)
}

fn serve_kept_alive(stream: TcpStream, seen: &PeerTally) {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    loop {
        let mut start = String::new();
        if reader.read_line(&mut start).unwrap_or(0) == 0 {
            return;
        }
        let mut length = 0;
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            if line == "\r\n" {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; length];
        if reader.read_exact(&mut body).is_err() {
            return;
        }
        seen.requests.fetch_add(1, Ordering::SeqCst);
        let (status, body) = if start.starts_with("GET /cache/") {
            ("404 Not Found", r#"{"error":"miss"}"#)
        } else if start.starts_with("PUT /cache/") {
            ("201 Created", r#"{"stored":true}"#)
        } else {
            ("400 Bad Request", r#"{"error":"unexpected"}"#)
        };
        let reply = format!(
            "HTTP/1.1 {status}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        if writer.write_all(reply.as_bytes()).is_err() {
            return;
        }
    }
}

#[test]
fn cache_endpoints_round_trip() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();

    // PUT a valid artifact, read it back byte-for-byte
    let r = Call::new(addr, "PUT", "/cache/deadbeef00112233")
        .body(r#"{"x":1}"#)
        .send()
        .unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let v: serde_json::Value = serde_json::from_str(&r.body).unwrap();
    assert_eq!(v["key"], "deadbeef00112233");
    assert_eq!(v["bytes"], 7u64);
    let (status, body) = get(addr, "/cache/deadbeef00112233").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"x":1}"#);

    // unknown key is a miss, not an error
    let (status, _) = get(addr, "/cache/0000000000000000").unwrap();
    assert_eq!(status, 404);
    // malformed keys are rejected before touching any tier
    let (status, _) = get(addr, "/cache/.hidden").unwrap();
    assert_eq!(status, 400);
    // a PUT of non-JSON bytes must not poison the store
    let r = Call::new(addr, "PUT", "/cache/deadbeef99887766")
        .body("not-json{")
        .send()
        .unwrap();
    assert_eq!(r.status, 400);
    let (status, _) = get(addr, "/cache/deadbeef99887766").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn peer_registration_endpoint() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, reply) = post(addr, "/cache/peers", r#"{"peers":["127.0.0.1:9999"]}"#).unwrap();
    assert_eq!(status, 200, "{reply}");
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["added"], 1u64);
    assert_eq!(v["peers"], 1u64);
    // re-advertising the same endpoint does not duplicate it
    let (_, reply) = post(addr, "/cache/peers", r#"{"peers":["127.0.0.1:9999"]}"#).unwrap();
    let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
    assert_eq!(v["peers"], 1u64);
    assert_eq!(metrics(addr)["cache"]["peers"], 1u64);
    // malformed addresses are rejected
    let (status, _) = post(addr, "/cache/peers", r#"{"peers":["not-an-addr"]}"#).unwrap();
    assert_eq!(status, 400);
    server.shutdown();
}

/// A refused advertisement attaches none of its addresses: an earlier
/// build attached each address as it parsed it, so the valid one before
/// the malformed one stayed attached behind the 400.
#[test]
fn refused_peer_advertisement_attaches_nothing() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let (status, _) = post(
        addr,
        "/cache/peers",
        r#"{"peers":["127.0.0.1:9999","not-an-addr"]}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    let (status, reply) = post(addr, "/cache/peers", r#"{"peers":[]}"#).unwrap();
    assert_eq!(status, 200);
    assert_eq!(reply, r#"{"added":0,"peers":0}"#);
    server.shutdown();
}

/// A daemon with a warm peer serves identical submissions from the remote
/// tier: no second simulation, byte-identical artifact, remote-hit counter.
#[test]
fn remote_tier_shares_artifacts_between_daemons() {
    let spec = r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":2,"seed":11}"#;
    let warm = Server::start(ServeConfig::default()).unwrap();
    let id = submit(warm.addr(), spec);
    wait_done(warm.addr(), id);
    let (_, reference) = get(warm.addr(), &format!("/jobs/{id}/report")).unwrap();

    let cold = Server::start(ServeConfig {
        peer_cache: vec![warm.addr()],
        ..ServeConfig::default()
    })
    .unwrap();
    let id2 = submit(cold.addr(), spec);
    let v = wait_done(cold.addr(), id2);
    assert_eq!(v["cache_hit"], true, "warm peer should satisfy the lookup");
    assert_eq!(v["cache_tier"], "remote");
    let (_, served) = get(cold.addr(), &format!("/jobs/{id2}/report")).unwrap();
    assert_eq!(served, reference, "remote tier changed the artifact bytes");

    let m = metrics(cold.addr());
    assert_eq!(m["cache"]["remote_hits"], 1u64);
    assert_eq!(m["cache"]["misses"], 0u64);
    cold.shutdown();
    warm.shutdown();
}

/// A peer that refuses connections costs a local rebuild, never the job.
#[test]
fn dead_peer_falls_back_to_local_build() {
    let server = Server::start(ServeConfig {
        peer_cache: vec![refused_addr()],
        peer_timeout_ms: 250,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":5}"#,
    );
    let v = wait_done(addr, id);
    assert_eq!(v["cache_hit"], false);
    let m = metrics(addr);
    assert!(m["cache"]["remote_errors"].as_u64().unwrap() >= 1);
    assert_eq!(m["cache"]["misses"], 1u64);
    server.shutdown();
}

/// A peer serving garbage bytes is detected, counted, and ignored.
#[test]
fn corrupt_peer_bytes_fall_back_to_local_build() {
    let peer =
        canned_peer("HTTP/1.1 200 OK\r\ncontent-length: 9\r\nconnection: close\r\n\r\nnot-json{");
    let server = Server::start(ServeConfig {
        peer_cache: vec![peer],
        peer_timeout_ms: 500,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":4,"seed":5}"#,
    );
    let v = wait_done(addr, id);
    assert_eq!(v["cache_hit"], false);
    let m = metrics(addr);
    assert!(m["cache"]["corrupt"].as_u64().unwrap() >= 1);

    // the locally rebuilt artifact is still the direct library-call result
    let (_, served) = get(addr, &format!("/jobs/{id}/report")).unwrap();
    let platform = PlatformId::A100.spec();
    let direct = profile_model(
        &ModelId::MobileNetV2x05.build(4),
        &platform,
        BackendFlavor::for_platform(&platform),
        &SessionConfig::new(DType::F16).with_seed(5),
        MetricMode::Predicted,
    )
    .unwrap()
    .to_json();
    assert_eq!(served, direct);
    server.shutdown();
}

/// A saturated peer (429 on every request) backs off without failing jobs.
#[test]
fn busy_peer_falls_back_to_local_build() {
    let peer = canned_peer(
        "HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\nconnection: close\r\n\r\n",
    );
    let server = Server::start(ServeConfig {
        peer_cache: vec![peer],
        peer_timeout_ms: 500,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let id = submit(
        addr,
        r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":8,"seed":5}"#,
    );
    let v = wait_done(addr, id);
    assert_eq!(v["cache_hit"], false);
    let m = metrics(addr);
    assert!(m["cache"]["remote_busy"].as_u64().unwrap() >= 1);
    assert_eq!(m["jobs"]["failed"], 0u64);
    server.shutdown();
}

/// A node's miss walks and publishes to one peer share one kept-alive
/// connection: four cold jobs on a one-worker daemon are eight peer
/// requests over a single accepted connection. Re-advertising the peer
/// mid-way keeps the attached peer, and with it that connection.
#[test]
fn peer_connections_are_reused() {
    let (peer, tally) = keep_alive_peer();
    let server = Server::start(ServeConfig {
        workers: 1,
        peer_cache: vec![peer],
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    for batch in 1..=4 {
        if batch == 3 {
            let body = format!(r#"{{"peers":["{peer}"]}}"#);
            let (status, reply) = post(addr, "/cache/peers", &body).unwrap();
            assert_eq!(status, 200, "{reply}");
            assert_eq!(reply, r#"{"added":1,"peers":1}"#);
        }
        let spec =
            format!(r#"{{"model":"mobilenetv2-0.5","hardware":"a100","batch":{batch},"seed":17}}"#);
        let v = wait_done(addr, submit(addr, &spec));
        assert_eq!(v["cache_tier"], "built");
    }
    let m = metrics(addr);
    assert_eq!(m["cache"]["publishes"], 4u64);
    assert_eq!(m["cache"]["remote_errors"], 0u64);
    assert_eq!(tally.requests.load(Ordering::SeqCst), 8);
    assert_eq!(
        tally.connections.load(Ordering::SeqCst),
        1,
        "every peer request after the first must reuse its connection"
    );
    server.shutdown();
}

/// A pooled connection to a peer that has since shut down costs at most a
/// rebuild: the next job still ends `done`, built locally.
#[test]
fn stale_pooled_peer_connection_costs_a_rebuild_not_a_job() {
    let b = Server::start(ServeConfig::default()).unwrap();
    let a = Server::start(ServeConfig {
        peer_cache: vec![b.addr()],
        peer_timeout_ms: 500,
        ..ServeConfig::default()
    })
    .unwrap();
    let spec = |batch: u64| {
        format!(r#"{{"model":"mobilenetv2-0.5","hardware":"a100","batch":{batch},"seed":23}}"#)
    };
    let v = wait_done(a.addr(), submit(a.addr(), &spec(1)));
    assert_eq!(v["cache_tier"], "built");
    assert_eq!(metrics(a.addr())["cache"]["publishes"], 1u64);

    b.shutdown();
    let v = wait_done(a.addr(), submit(a.addr(), &spec(2)));
    assert_eq!(v["status"], "done");
    assert_eq!(v["cache_tier"], "built");
    a.shutdown();
}
