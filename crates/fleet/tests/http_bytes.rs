//! The HTTP wire contract of both daemons, pinned byte for byte: status
//! line, header order and values, and body, for one request of each
//! response kind `proof-serve` and the `proof-fleet` coordinator answer,
//! kept-alive exchanges and inline job results included. Requests go out
//! as raw bytes and replies are read to EOF (or, on a kept-alive
//! connection, to their declared length), so nothing between the socket
//! and the assertion can normalise a difference away.

use proof_core::GridSpec;
use proof_fleet::{run_grid_local, Fleet, FleetConfig, FleetServer, FleetServerConfig};
use proof_serve::client::{Call, ConnPool};
use proof_serve::{AnalysisJob, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Send `request` verbatim and return everything the daemon wrote before
/// closing the connection.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).unwrap();
    String::from_utf8(reply).unwrap()
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Read exactly one reply off a kept-alive connection: the head, then as
/// many body bytes as it declares.
fn read_one(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).unwrap();
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw.clone()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    raw.extend(body);
    String::from_utf8(raw).unwrap()
}

/// Send `GET path` with `Connection: keep-alive` on `stream` and read its
/// one reply.
fn get_kept_alive(stream: &mut TcpStream, path: &str) -> String {
    let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    read_one(stream)
}

/// The exact bytes of a reply with the given head fields and body.
fn reply(status: &str, content_type: &str, retry_after: Option<u64>, body: &str) -> String {
    let retry = retry_after.map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n{body}",
        body.len()
    )
}

fn json(status: &str, body: &str) -> String {
    reply(status, "application/json", None, body)
}

/// The exact bytes of a JSON reply that keeps its connection alive.
fn json_kept_alive(status: &str, body: &str) -> String {
    json(status, body).replacen("Connection: close", "Connection: keep-alive", 1)
}

/// A Prometheus reply: the head is pinned exactly, the body (live counter
/// values) only by its exposition shape.
fn assert_prometheus(raw: &str, prefix: &str) {
    let (_, body) = raw.split_once("\r\n\r\n").unwrap();
    assert_eq!(
        raw,
        reply("200 OK", "text/plain; version=0.0.4", None, body),
        "{raw}"
    );
    assert!(body.starts_with("# HELP "), "{body}");
    assert!(body.contains(&format!("# TYPE {prefix}")), "{body}");
}

/// Requests every daemon answers the same way: unknown endpoint, unknown
/// method, and an unparseable request line.
fn assert_common_errors(addr: SocketAddr) {
    assert_eq!(
        get(addr, "/nope"),
        json("404 Not Found", r#"{"error":"no such endpoint"}"#)
    );
    assert_eq!(
        send(addr, "DELETE", "/jobs/1", ""),
        json(
            "405 Method Not Allowed",
            r#"{"error":"method not allowed"}"#
        )
    );
    assert_eq!(
        exchange(addr, "GARBAGE\r\n\r\n"),
        json("400 Bad Request", r#"{"error":"malformed request line"}"#)
    );
}

#[test]
fn serve_reply_bytes_are_pinned() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let models: Vec<String> = proof_models::ModelId::ALL
        .iter()
        .map(|id| format!("\"{}\"", id.slug()))
        .collect();
    assert_eq!(
        get(addr, "/models"),
        json("200 OK", &format!(r#"{{"models":[{}]}}"#, models.join(",")))
    );

    // 201 from a submission that adopts the caller's trace id, so every
    // byte of the reply is known in advance
    let spec = r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":3}"#;
    let key = AnalysisJob::from_value(&serde_json::from_str(spec).unwrap())
        .unwrap()
        .cache_key();
    let submitted = exchange(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nX-Proof-Trace: 424242:9\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        ),
    );
    assert_eq!(
        submitted,
        json(
            "201 Created",
            &format!(r#"{{"id":1,"key":"{key}","status":"queued","trace":424242}}"#)
        )
    );
    assert_eq!(
        send(addr, "PUT", "/cache/deadbeef00112233", r#"{"x":1}"#),
        json("201 Created", r#"{"bytes":7,"key":"deadbeef00112233"}"#)
    );

    // a two-point sweep cannot fit the one-slot queue: 429 + Retry-After
    let sweep = r#"{"model":"mobilenetv2-0.5","hardware":"a100","batches":[1,2]}"#;
    assert_eq!(
        send(addr, "POST", "/sweep", sweep),
        reply(
            "429 Too Many Requests",
            "application/json",
            Some(1),
            r#"{"error":"job queue cannot hold the whole sweep"}"#
        )
    );

    assert_common_errors(addr);
    assert_prometheus(&get(addr, "/metrics?format=prometheus"), "proof_serve_");
    server.shutdown();
}

#[test]
fn coordinator_reply_bytes_are_pinned() {
    let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
    let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    let addr = server.addr();

    assert_eq!(
        get(addr, "/grid/trace"),
        json("404 Not Found", r#"{"error":"no grid run yet"}"#)
    );

    let spec = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":13}"#;
    let merged =
        run_grid_local(&GridSpec::from_value(&serde_json::from_str(spec).unwrap()).unwrap())
            .unwrap();
    assert_eq!(send(addr, "POST", "/grid", spec), json("200 OK", &merged));
    assert_eq!(
        send(addr, "POST", "/grid/submit", spec),
        json("202 Accepted", r#"{"run_id":2,"shards":2}"#)
    );

    assert_common_errors(addr);
    assert_prometheus(&get(addr, "/metrics?format=prometheus"), "proof_fleet_");
    server.shutdown();
}

/// Two requests on one `Connection: keep-alive` socket get two replies
/// that keep it alive; a third request without the header gets the usual
/// `Connection: close` reply and the daemon closes the socket.
fn assert_kept_alive(addr: SocketAddr, path: &str, expected: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..2 {
        assert_eq!(
            get_kept_alive(&mut stream, path),
            json_kept_alive("200 OK", expected)
        );
    }
    let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
    stream.write_all(request.as_bytes()).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert_eq!(String::from_utf8(rest).unwrap(), json("200 OK", expected));
}

#[test]
fn kept_alive_exchanges_are_pinned_on_both_daemons() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let models: Vec<String> = proof_models::ModelId::ALL
        .iter()
        .map(|id| format!("\"{}\"", id.slug()))
        .collect();
    let models = format!(r#"{{"models":[{}]}}"#, models.join(","));
    assert_kept_alive(server.addr(), "/models", &models);
    server.shutdown();

    let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
    let coordinator = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    let spec = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1],"seed":17}"#;
    let merged =
        run_grid_local(&GridSpec::from_value(&serde_json::from_str(spec).unwrap()).unwrap())
            .unwrap();
    assert_eq!(
        send(coordinator.addr(), "POST", "/grid", spec),
        json("200 OK", &merged)
    );
    // the last run's merged trace is stable between two reads
    let (_, trace) = get(coordinator.addr(), "/grid/trace")
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap();
    assert_kept_alive(coordinator.addr(), "/grid/trace", &trace);
    coordinator.shutdown();
}

#[test]
fn a_waiting_submission_settles_a_memory_hit_inline() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let spec = r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":19}"#;
    let first = send(addr, "POST", "/jobs", spec);
    assert!(first.starts_with("HTTP/1.1 201 Created\r\n"), "{first}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !get(addr, "/jobs/1?wait_ms=500").contains(r#""status":"done""#) {
        assert!(Instant::now() < deadline, "job 1 never finished");
    }

    // the repeat is a memory hit: one exchange answers it, artifact inline
    let report = get(addr, "/jobs/1/report");
    let (_, artifact) = report.split_once("\r\n\r\n").unwrap();
    let settled = send(addr, "POST", "/jobs?wait_ms=1000", spec);
    assert_eq!(
        settled,
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nX-Proof-Job: 2\r\nConnection: close\r\n\r\n{artifact}",
            artifact.len()
        )
    );
    assert_eq!(get(addr, "/jobs/2/report"), json("200 OK", artifact));
    server.shutdown();
}

#[test]
fn kept_alive_calls_do_not_wait_on_nagle() {
    // with Nagle's algorithm holding back a reply split across writes,
    // each exchange waits out the peer's delayed ACK (40 ms on Linux):
    // 50 of them take at least 2 s
    let server = Server::start(ServeConfig::default()).unwrap();
    let pool = ConnPool::default();
    let start = Instant::now();
    for _ in 0..50 {
        let r = Call::new(server.addr(), "GET", "/healthz")
            .timeout(Duration::from_secs(5))
            .keep_alive(&pool)
            .send()
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 calls took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn coordinator_shutdown_closes_an_idle_kept_alive_connection() {
    let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
    let coordinator = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    let mut idle = TcpStream::connect(coordinator.addr()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reply = get_kept_alive(&mut idle, "/healthz");
    assert!(reply.contains("Connection: keep-alive"), "{reply}");

    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        coordinator.shutdown();
        let _ = done.send(());
    });
    finished
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown waited on an idle kept-alive connection");
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the daemon closed without a reply");
}
