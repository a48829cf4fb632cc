//! The blocking HTTP client for proof-serve's JSON API — the one
//! implementation shared by the fleet coordinator, the CLI walkthroughs,
//! and the integration tests.
//!
//! Promoted out of `http` (where it started life as test-adjacent helpers)
//! into a public module: [`request_full`] is the primitive (status + body +
//! parsed `Retry-After`), [`RetryPolicy`] adds deterministic seed-keyed
//! exponential backoff that honors a backpressuring server's `Retry-After`
//! hint as a floor, and every read is capped so a misbehaving peer cannot
//! exhaust client memory. All entry points have a
//! `*_timeout` variant that bounds connect/read/write — the fleet
//! dispatcher uses those to tell a dead or wedged node from a slow one.

use crate::http::{bad, read_line_capped, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client reads. Responses are larger than the
/// requests a daemon accepts (`MAX_BODY_BYTES`): a merged grid artifact of
/// `MAX_GRID_CELLS` cells of the largest reports (about 200 KB compact
/// each) comes to about 0.8 GiB.
const MAX_RESPONSE_BYTES: usize = 1 << 30;

/// A client response: status, body, and the parsed `Retry-After` seconds
/// if the server sent one.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub retry_after_s: Option<u64>,
}

/// Blocking one-shot client: send `method path` with an optional JSON body,
/// return `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let r = request_full(addr, method, path, body)?;
    Ok((r.status, r.body))
}

/// [`request`] keeping the response headers the retry layer needs. Reads
/// are capped: headers to `MAX_HEADER_BYTES` like the server side, body to
/// `MAX_RESPONSE_BYTES` whether or not the server declared a length.
pub fn request_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    request_full_timeout(addr, method, path, body, None)
}

/// [`request_full`] with an optional wall-clock bound applied to the
/// connect and to every read/write on the socket. A `None` timeout blocks
/// indefinitely (the pre-fleet behavior); with `Some(d)`, a node that
/// accepts the connection but never answers surfaces as a timeout error
/// instead of hanging the caller.
pub fn request_full_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Option<Duration>,
) -> std::io::Result<Response> {
    request_full_timeout_headers(addr, method, path, body, timeout, &[])
}

/// [`request_full_timeout`] with caller-supplied extra request headers —
/// the fleet dispatcher uses this to attach `X-Proof-Trace` context to
/// shard submissions. Header names and values must be single-line; they are
/// sent verbatim.
pub fn request_full_timeout_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Option<Duration>,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<Response> {
    let mut stream = match timeout {
        Some(d) => TcpStream::connect_timeout(&addr, d)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let body = body.unwrap_or("");
    let extra: String = extra_headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEADER_BYTES;
    let mut raw_status = Vec::new();
    let n = read_line_capped(&mut reader, &mut raw_status, budget)?;
    if n == 0 {
        return Err(bad("connection closed before status line"));
    }
    budget -= n;
    let status_line = String::from_utf8(raw_status).map_err(|_| bad("status line is not UTF-8"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = None;
    let mut retry_after_s = None;
    loop {
        let mut raw = Vec::new();
        let n = read_line_capped(&mut reader, &mut raw, budget)?;
        if n == 0 {
            return Err(bad("connection closed inside headers"));
        }
        budget -= n;
        let line = String::from_utf8(raw).map_err(|_| bad("header is not UTF-8"))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after_s = value.trim().parse::<u64>().ok();
            }
        }
    }
    if content_length.is_some_and(|n| n > MAX_RESPONSE_BYTES) {
        return Err(bad("body too large"));
    }
    // grow the buffer as bytes arrive rather than trusting a declared
    // length beyond the request cap
    let mut buf = Vec::with_capacity(content_length.unwrap_or(0).min(MAX_BODY_BYTES));
    let limit = content_length.unwrap_or(MAX_RESPONSE_BYTES + 1);
    reader.take(limit as u64).read_to_end(&mut buf)?;
    if content_length.is_some_and(|n| buf.len() < n) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed inside body",
        ));
    }
    if buf.len() > MAX_RESPONSE_BYTES {
        return Err(bad("body too large"));
    }
    let body = String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Response {
        status,
        body,
        retry_after_s,
    })
}

/// `GET path` convenience wrapper.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    request(addr, "GET", path, None)
}

/// `POST path` convenience wrapper.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(addr, "POST", path, Some(body))
}

/// Deterministic retry schedule for 429/503 backpressure: exponential
/// backoff with seed-keyed jitter. Given the same seed the delay sequence
/// is byte-for-byte reproducible, so tests and CI scripts that exercise
/// backpressure stay deterministic; a `Retry-After` hint from the server
/// raises (never lowers under) the computed delay.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = one attempt total).
    pub max_retries: u32,
    /// Base delay for the first retry; doubles each retry.
    pub base_ms: u64,
    /// Ceiling for any single delay (pre-`Retry-After`).
    pub max_delay_ms: u64,
    /// Jitter key; same seed → same delays.
    pub seed: u64,
}

impl RetryPolicy {
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            base_ms: 25,
            max_delay_ms: 2_000,
            seed,
        }
    }

    /// The delay before retry `attempt` (1-based), ignoring `Retry-After`:
    /// `base * 2^(attempt-1)`, capped, plus 0–25% deterministic jitter.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << (attempt.saturating_sub(1)).min(32))
            .min(self.max_delay_ms);
        let jitter = proof_obs::fault::mix64(self.seed ^ u64::from(attempt)) % (exp / 4 + 1);
        exp + jitter
    }

    /// The delay actually slept before retry `attempt`, honoring the
    /// server's `Retry-After` hint (seconds) as a floor.
    pub fn effective_delay_ms(&self, attempt: u32, retry_after_s: Option<u64>) -> u64 {
        let hinted = retry_after_s.map_or(0, |s| s.saturating_mul(1_000));
        self.delay_ms(attempt).max(hinted)
    }
}

/// [`request`] with retries on 429/503 (and connect errors), backing off
/// per `policy`. Returns the last response once it is not retryable or
/// retries are exhausted.
pub fn request_with_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
) -> std::io::Result<(u16, String)> {
    let r = request_with_retry_timeout(addr, method, path, body, policy, None)?;
    Ok((r.status, r.body))
}

/// The full retrying client: [`request_full_timeout`] under a
/// [`RetryPolicy`]. Retries 429/503 honoring `Retry-After` as a floor, and
/// transport errors other than a refused connection (a refused connection
/// means the server is gone — the caller should pick another node, not
/// wait). Returns the last [`Response`] once it is not retryable or the
/// budget is exhausted — a 429 that outlives `policy.max_retries` comes
/// back as that 429 for the caller to act on.
pub fn request_with_retry_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    timeout: Option<Duration>,
) -> std::io::Result<Response> {
    request_with_retry_timeout_headers(addr, method, path, body, policy, timeout, &[])
}

/// [`request_with_retry_timeout`] with extra request headers carried on
/// every attempt (e.g. `X-Proof-Trace` context on fleet submissions).
pub fn request_with_retry_timeout_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
    timeout: Option<Duration>,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<Response> {
    let mut attempt = 0u32;
    loop {
        match request_full_timeout_headers(addr, method, path, body, timeout, extra_headers) {
            Ok(r) if (r.status == 429 || r.status == 503) && attempt < policy.max_retries => {
                attempt += 1;
                let ms = policy.effective_delay_ms(attempt, r.retry_after_s);
                std::thread::sleep(Duration::from_millis(ms));
            }
            Ok(r) => return Ok(r),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => return Err(e),
            Err(_) if attempt < policy.max_retries => {
                attempt += 1;
                let ms = policy.effective_delay_ms(attempt, None);
                std::thread::sleep(Duration::from_millis(ms));
            }
            Err(e) => return Err(e),
        }
    }
}

/// `POST path` with backpressure-aware retries.
pub fn post_with_retry(
    addr: SocketAddr,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> std::io::Result<(u16, String)> {
    request_with_retry(addr, "POST", path, Some(body), policy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delays_are_deterministic_and_exponential() {
        let p = RetryPolicy::new(42);
        let a: Vec<u64> = (1..=4).map(|i| p.delay_ms(i)).collect();
        let b: Vec<u64> = (1..=4).map(|i| p.delay_ms(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // exponential base under the jitter: delay(i) within [base*2^(i-1), base*2^(i-1)*1.25]
        for (i, &d) in a.iter().enumerate() {
            let base = p.base_ms << i;
            assert!(d >= base && d <= base + base / 4, "attempt {i}: {d}");
        }
        let q = RetryPolicy::new(43);
        assert_ne!(
            (1..=4).map(|i| q.delay_ms(i)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn retry_after_is_a_floor_not_a_cap() {
        let p = RetryPolicy::new(7);
        assert_eq!(p.effective_delay_ms(1, Some(3)), 3_000.max(p.delay_ms(1)));
        assert_eq!(p.effective_delay_ms(1, None), p.delay_ms(1));
        // a tiny hint never lowers the computed backoff
        assert!(p.effective_delay_ms(2, Some(0)) >= p.delay_ms(2));
    }

    #[test]
    fn delay_caps_at_max() {
        let p = RetryPolicy {
            max_retries: 10,
            base_ms: 100,
            max_delay_ms: 400,
            seed: 1,
        };
        assert!(p.delay_ms(10) <= 400 + 100, "capped plus <=25% jitter");
    }

    #[test]
    fn timeout_client_gives_up_on_a_black_hole_listener() {
        // a listener that accepts but never responds: the bounded client
        // must error out instead of blocking forever
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            // keep the accepted sockets alive until the client times out
            let a = listener.accept();
            std::thread::sleep(Duration::from_millis(500));
            drop(a);
        });
        let start = std::time::Instant::now();
        let err = request_full_timeout(
            addr,
            "GET",
            "/healthz",
            None,
            Some(Duration::from_millis(100)),
        )
        .unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        assert!(start.elapsed() < Duration::from_millis(450));
        hold.join().unwrap();
    }
}
