//! The HTTP wire contract of both daemons, pinned byte for byte: status
//! line, header order and values, and body, for one request of each
//! response kind `proof-serve` and the `proof-fleet` coordinator answer.
//! Requests go out as raw bytes and replies are read to EOF, so nothing
//! between the socket and the assertion can normalise a difference away.

use proof_core::GridSpec;
use proof_fleet::{run_grid_local, Fleet, FleetConfig, FleetServer, FleetServerConfig};
use proof_serve::{AnalysisJob, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

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
    // the reason phrase of a 202 has always been "Unknown": pinned as sent
    assert_eq!(
        send(addr, "POST", "/grid/submit", spec),
        json("202 Unknown", r#"{"run_id":2,"shards":2}"#)
    );

    assert_common_errors(addr);
    assert_prometheus(&get(addr, "/metrics?format=prometheus"), "proof_fleet_");
    server.shutdown();
}
