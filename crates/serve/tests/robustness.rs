//! Malformed-HTTP and bad-input coverage: every case must produce a clean
//! 4xx (or a summarily closed connection) and leave the daemon serving —
//! `/healthz` is probed after each abuse. These pin the fixes for the
//! unbounded request-line read (memory-exhaustion DoS) and the
//! empty-batch-sweep panic. The bounds on kept-alive connections and on
//! `wait_ms` job waits are pinned here too: neither may hold a reply past
//! its cap or delay a shutdown.

use proof_serve::client::get;
use proof_serve::{ServeConfig, Server, MAX_JOB_WAIT};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn boot() -> Server {
    Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Fire raw bytes at the server and return the status code it answered
/// with, or `None` if it just dropped the connection.
fn raw(addr: SocketAddr, bytes: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).unwrap();
    // the server may 400-and-close mid-upload; a send error is acceptable
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let text = String::from_utf8_lossy(&reply);
    text.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|s| s.parse().ok())
}

fn assert_alive(addr: SocketAddr) {
    let (status, body) = get(addr, "/healthz").expect("server must still answer");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn oversized_request_line_is_rejected_not_buffered() {
    let server = boot();
    let addr = server.addr();
    // 64 KB with no newline: the old code read_line'd this unboundedly
    // before any cap; the fix rejects once the 16 KB header budget is spent
    let status = raw(addr, &vec![b'a'; 64 * 1024]);
    assert!(
        status.is_none() || status == Some(400),
        "expected rejection, got {status:?}"
    );
    assert_alive(addr);
}

#[test]
fn oversized_headers_are_rejected() {
    let server = boot();
    let addr = server.addr();
    let mut req = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..4096 {
        req.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    req.extend_from_slice(b"\r\n");
    let status = raw(addr, &req);
    assert!(
        status.is_none() || status == Some(400),
        "expected rejection, got {status:?}"
    );
    assert_alive(addr);
}

#[test]
fn non_numeric_content_length_is_a_400() {
    let server = boot();
    let addr = server.addr();
    let status = raw(
        addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status, Some(400));
    assert_alive(addr);
}

#[test]
fn huge_content_length_is_refused_without_allocation() {
    let server = boot();
    let addr = server.addr();
    let status = raw(
        addr,
        b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    );
    assert_eq!(status, Some(400));
    assert_alive(addr);
}

#[test]
fn non_utf8_body_is_a_400() {
    let server = boot();
    let addr = server.addr();
    let mut req = b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
    req.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
    let status = raw(addr, &req);
    assert_eq!(status, Some(400));
    assert_alive(addr);
}

#[test]
fn empty_batch_sweep_is_a_400_not_a_panic() {
    let server = boot();
    let addr = server.addr();
    let (status, body) = proof_serve::client::post(
        addr,
        "/sweep",
        r#"{"model":"resnet-50","hardware":"a100","batches":[]}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("must not be empty"), "{body}");
    assert_alive(addr);
}

#[test]
fn zero_timeout_is_a_400() {
    let server = boot();
    let addr = server.addr();
    let (status, body) = proof_serve::client::post(
        addr,
        "/jobs",
        r#"{"model":"resnet-50","hardware":"a100","timeout_ms":0}"#,
    )
    .unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("timeout_ms"), "{body}");
    assert_alive(addr);
}

/// Connect and send the start of a request line, then go silent.
fn silent_client(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /heal").unwrap();
    stream
}

#[test]
fn shutdown_is_not_stalled_by_a_silent_client() {
    let server = boot();
    let silent = silent_client(server.addr());
    // let the acceptor hand the connection to a handler
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let report = finished
        .recv_timeout(std::time::Duration::from_secs(1))
        .expect("shutdown waited on a client that never sent its request");
    assert_eq!(report.dropped, 0);
    drop(silent);
}

#[test]
fn a_silent_client_is_closed_within_the_deadline() {
    let server = boot();
    let addr = server.addr();
    let mut silent = silent_client(addr);
    let slack = std::time::Duration::from_secs(3);
    silent
        .set_read_timeout(Some(proof_serve::http::IO_DEADLINE + slack))
        .unwrap();
    let start = std::time::Instant::now();
    // the daemon gives up on the request: whatever it says, it then closes
    let mut reply = Vec::new();
    silent
        .read_to_end(&mut reply)
        .expect("the daemon closed the connection instead of holding it");
    assert!(start.elapsed() < proof_serve::http::IO_DEADLINE + slack);
    assert_alive(addr);
}

#[test]
fn connections_past_the_cap_get_503_with_retry_after_until_slots_free() {
    use proof_serve::client::Call;
    use proof_serve::http::MAX_CONNECTIONS;
    let server = boot();
    let addr = server.addr();
    // every handler slot held by a client that connected and said nothing
    let silent: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let r = Call::new(addr, "GET", "/healthz").send().unwrap();
    assert_eq!(r.status, 503, "{}", r.body);
    assert_eq!(r.retry_after_s, Some(1), "503 must carry Retry-After");

    // once they hang up, their slots come back
    drop(silent);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let r = Call::new(addr, "GET", "/healthz").send().unwrap();
        if r.status == 200 {
            break;
        }
        assert_eq!(r.status, 503, "{}", r.body);
        assert!(std::time::Instant::now() < deadline, "slots never freed");
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
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

/// Open a connection and leave it idle after one kept-alive exchange.
fn kept_alive_idle(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    let reply = read_one(&mut stream);
    assert!(reply.contains("Connection: keep-alive\r\n"), "{reply}");
    stream
}

fn requests_total(addr: SocketAddr) -> u64 {
    let (_, body) = get(addr, "/metrics?format=prometheus").unwrap();
    body.lines()
        .find_map(|l| l.strip_prefix("proof_serve_http_requests_total "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("request counter exported") as u64
}

#[test]
fn requests_on_a_kept_alive_connection_count_one_each() {
    let server = boot();
    let addr = server.addr();
    let before = requests_total(addr);
    let mut stream = kept_alive_idle(addr);
    stream
        .write_all(b"GET /models HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        .unwrap();
    read_one(&mut stream);
    // two requests on one connection, plus the second scrape itself
    assert_eq!(requests_total(addr), before + 2 + 1);
}

#[test]
fn an_idle_kept_alive_connection_does_not_delay_shutdown() {
    let server = boot();
    let mut idle = kept_alive_idle(server.addr());
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let report = finished
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown waited on an idle kept-alive connection");
    assert_eq!(report.dropped, 0);
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest)
        .expect("the daemon closed the idle connection");
    assert!(rest.is_empty(), "EOF, no further reply");
}

/// Seeds whose jobs stall 1500 ms at the metrics stage, one per test so no
/// two tests share a job (identical jobs would coalesce on one build).
const HELD: [u64; 3] = [770_001, 770_002, 770_003];

/// Install the stall plan for [`HELD`] once. Every entry is scoped to its
/// seed, so other tests in this binary never meet a fault.
fn hold_jobs() {
    static PLAN: std::sync::Once = std::sync::Once::new();
    PLAN.call_once(|| {
        let plan = HELD
            .iter()
            .map(|seed| format!("metrics:stall:1500@{seed}"))
            .collect::<Vec<_>>()
            .join(";");
        proof_obs::fault::install(proof_obs::fault::FaultPlan::parse(&plan).unwrap());
    });
}

fn held_spec(seed: u64) -> String {
    format!(r#"{{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":{seed}}}"#)
}

/// Submit `body` with `wait_ms` on a helper thread; the reply arrives on
/// the returned channel with the time the exchange took.
fn submit_waiting(
    addr: SocketAddr,
    wait_ms: u64,
    body: String,
) -> mpsc::Receiver<(u16, String, Duration)> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let start = Instant::now();
        let (status, reply) =
            proof_serve::client::post(addr, &format!("/jobs?wait_ms={wait_ms}"), &body).unwrap();
        let _ = tx.send((status, reply, start.elapsed()));
    });
    rx
}

#[test]
fn a_waiting_submission_of_a_held_job_answers_201_after_the_wait() {
    hold_jobs();
    let server = boot();
    let replies = submit_waiting(server.addr(), 200, held_spec(HELD[0]));
    let (status, body, took) = replies
        .recv_timeout(Duration::from_secs(5))
        .expect("the wait outlived wait_ms");
    assert_eq!(status, 201, "{body}");
    assert!(body.contains(r#""id":1"#), "{body}");
    assert!(
        took >= Duration::from_millis(200),
        "answered early: {took:?}"
    );
    assert!(
        took < Duration::from_millis(1200),
        "answered late: {took:?}"
    );
    assert_eq!(server.shutdown().dropped, 0);
}

#[test]
fn shutdown_during_a_job_wait_answers_it_promptly() {
    hold_jobs();
    let server = boot();
    let replies = submit_waiting(server.addr(), 1000, held_spec(HELD[1]));
    // let the request reach its wait
    std::thread::sleep(Duration::from_millis(100));
    let (done, finished) = mpsc::channel();
    let shutdown_at = Instant::now();
    std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let (status, body, _) = replies
        .recv_timeout(Duration::from_secs(5))
        .expect("the wait never returned");
    assert_eq!(status, 201, "{body}");
    assert!(
        shutdown_at.elapsed() < Duration::from_millis(600),
        "shutdown did not cut the wait short: {:?}",
        shutdown_at.elapsed()
    );
    // the drain still finishes the held job
    let report = finished
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown never returned");
    assert_eq!((report.done, report.dropped), (1, 0));
}

#[test]
fn an_oversized_wait_ms_is_capped() {
    hold_jobs();
    let server = boot();
    let replies = submit_waiting(server.addr(), 600_000, held_spec(HELD[2]));
    let (status, body, took) = replies
        .recv_timeout(MAX_JOB_WAIT + Duration::from_secs(3))
        .expect("the wait ran past its cap");
    assert_eq!(status, 201, "{body}");
    assert!(took >= MAX_JOB_WAIT, "answered before the cap: {took:?}");
    assert_eq!(server.shutdown().dropped, 0);
}
