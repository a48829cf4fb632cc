//! Malformed-HTTP and bad-input coverage: every case must produce a clean
//! 4xx (or a summarily closed connection) and leave the daemon serving —
//! `/healthz` is probed after each abuse. These pin the fixes for the
//! unbounded request-line read (memory-exhaustion DoS) and the
//! empty-batch-sweep panic.

use proof_serve::client::get;
use proof_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

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
