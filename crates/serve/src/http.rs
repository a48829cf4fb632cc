//! The one HTTP/1.1 layer both daemons share, over `std::net`: the
//! [`HttpServer`] scaffold (acceptor, bounded handler threads, socket
//! deadlines, shutdown drain) that `proof-serve` and the `proof-fleet`
//! coordinator start with their [`Routes`], the typed [`Response`] every
//! route returns, one response writer, and one capped head reader that
//! parses request heads here and response heads in [`crate::client`].
//!
//! A connection carries one request unless the request asks for more with
//! `Connection: keep-alive`; then the handler answers `Connection:
//! keep-alive` and reads the next request on the same socket. Every other
//! exchange is `Connection: close`, byte for byte as before keep-alive.
//!
//! Every read from the peer is capped (`MAX_HEADER_BYTES` for the start
//! line + headers, a per-side cap for bodies) **while reading**, not
//! after: an earlier version buffered an arbitrarily long request line via
//! `read_line` before checking any limit, which let a single connection
//! exhaust memory.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

pub(crate) const MAX_HEADER_BYTES: usize = 16 * 1024;
pub(crate) const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// The read and write timeout of every accepted socket: a client that goes
/// silent, mid-request or mid-reply, or leaves a kept-alive connection
/// idle, loses its connection and its handler thread once this runs out.
pub const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Live connection handlers per daemon. Past the cap the acceptor answers
/// `503` + `Retry-After` itself and closes without spawning: a flooded
/// daemon sheds load instead of growing threads, and a fleet dispatcher
/// reads the 503 as a busy node, not a dead one.
pub const MAX_CONNECTIONS: usize = 128;

/// `Retry-After` seconds sent with every 429/503 backpressure reply.
pub const RETRY_AFTER_S: u64 = 1;

const JSON: &str = "application/json";

/// A parsed request. Bodies are read eagerly (Content-Length only; no
/// chunked encoding — every client this daemon targets sends sized bodies).
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (no '?'), empty if absent.
    pub query: String,
    pub body: String,
    /// Parsed `X-Proof-Trace: <trace>:<span>` header, if present and
    /// well-formed: the caller's (trace id, parent span id) context that
    /// dispatched work should adopt. Malformed values are ignored — trace
    /// context is observability metadata and must never fail a request.
    pub trace_parent: Option<(u64, u64)>,
    /// The request sent `Connection: keep-alive`: the handler keeps the
    /// connection open for the next request.
    pub keep_alive: bool,
}

/// One HTTP reply: what a route returns and what the client reads back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub content_type: String,
    /// `Retry-After` seconds, sent with 429/503 backpressure replies.
    pub retry_after_s: Option<u64>,
    /// `X-Proof-Job`: the job a submission settled inline, whose artifact
    /// is the body.
    pub job: Option<u64>,
    /// Shared, so a stored artifact is sent from its store without a copy.
    pub body: Arc<String>,
}

/// A route handler's outcome: `Err` carries an early refusal, so handlers
/// can bail out with `?`; either way the value is the reply to send.
pub type Reply = Result<Response, Response>;

#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

impl Response {
    /// A JSON reply whose body is already JSON text (stored artifacts,
    /// rendered traces, merged grids), owned or shared with a store.
    pub fn json(status: u16, body: impl Into<Arc<String>>) -> Response {
        Response {
            status,
            content_type: JSON.to_string(),
            retry_after_s: None,
            job: None,
            body: body.into(),
        }
    }

    /// A JSON reply carrying `value` serialized.
    pub fn encode<T: Serialize + ?Sized>(status: u16, value: &T) -> Response {
        let body = serde_json::to_string(value).expect("writing JSON to a String cannot fail");
        Response::json(status, body)
    }

    /// The body read as `T`: the one call that reads a reply, as
    /// [`Response::encode`] is the one that writes it.
    pub fn decode<T: Deserialize>(&self) -> serde_json::Result<T> {
        serde_json::from_str(&self.body)
    }

    /// The body as an owned `String`: a reply read off the wire owns its
    /// body alone, so this copies only a body still shared with a store.
    pub fn into_body(self) -> String {
        Arc::try_unwrap(self.body).unwrap_or_else(|shared| shared.as_str().to_owned())
    }

    /// The error reply both daemons send: `{"error": msg}`.
    pub fn error(status: u16, msg: &str) -> Response {
        Response::encode(
            status,
            &ErrorBody {
                error: msg.to_string(),
            },
        )
    }

    /// A Prometheus text exposition, the one non-JSON body.
    pub fn prometheus(body: String) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4".to_string(),
            ..Response::json(200, body)
        }
    }

    /// Attach a `Retry-After` hint (backpressure replies).
    pub fn retry_after(self, seconds: u64) -> Response {
        Response {
            retry_after_s: Some(seconds),
            ..self
        }
    }

    /// Attach an `X-Proof-Job` id (a submission settled inline).
    pub fn job(self, id: u64) -> Response {
        Response {
            job: Some(id),
            ..self
        }
    }
}

/// Parse an `X-Proof-Trace` header value: two decimal u64s as
/// `<trace>:<span>`, trace non-zero.
pub fn parse_trace_header(value: &str) -> Option<(u64, u64)> {
    let (trace, span) = value.trim().split_once(':')?;
    let trace: u64 = trace.trim().parse().ok()?;
    let span: u64 = span.trim().parse().ok()?;
    if trace == 0 {
        return None;
    }
    Some((trace, span))
}

/// Read one `\n`-terminated line into `buf`, consuming at most
/// `budget` bytes. Returns the number of bytes consumed; `Ok(0)` means
/// clean EOF before any byte. Errors as soon as the budget is exhausted
/// without buffering the oversized line.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    budget: usize,
) -> std::io::Result<usize> {
    let mut consumed = 0usize;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(consumed); // EOF
        }
        let limit = available.len().min(budget - consumed + 1);
        match available[..limit].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if consumed + pos + 1 > budget {
                    return Err(bad("line too long"));
                }
                buf.extend_from_slice(&available[..=pos]);
                reader.consume(pos + 1);
                return Ok(consumed + pos + 1);
            }
            None => {
                let take = available.len();
                if consumed + take > budget {
                    return Err(bad("line too long"));
                }
                buf.extend_from_slice(&available[..take]);
                reader.consume(take);
                consumed += take;
            }
        }
    }
}

/// A message head, request or response, with the headers this layer reads.
#[derive(Debug, Default)]
pub(crate) struct Head {
    /// The request line or status line, without its line ending.
    pub start: String,
    pub content_length: Option<usize>,
    pub content_type: Option<String>,
    pub retry_after_s: Option<u64>,
    pub job: Option<u64>,
    pub trace_parent: Option<(u64, u64)>,
    /// `Connection: keep-alive` (any other value, or none, means close).
    pub keep_alive: bool,
}

/// The one head reader: start line plus headers, `MAX_HEADER_BYTES` in
/// all. `Ok(None)` means the peer closed before sending a byte.
pub(crate) fn read_head<R: BufRead>(reader: &mut R) -> std::io::Result<Option<Head>> {
    let mut budget = MAX_HEADER_BYTES;
    let mut head: Option<Head> = None;
    loop {
        let mut raw = Vec::new();
        let n = read_line_capped(reader, &mut raw, budget)?;
        if n == 0 {
            return match head {
                None => Ok(None),
                Some(_) => Err(bad("connection closed inside headers")),
            };
        }
        budget -= n;
        let line = String::from_utf8(raw).map_err(|_| bad("header is not UTF-8"))?;
        let line = line.trim_end();
        let Some(head) = head.as_mut() else {
            head = Some(Head {
                start: line.to_string(),
                ..Head::default()
            });
            continue;
        };
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = Some(value.parse().map_err(|_| bad("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("content-type") {
            head.content_type = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("retry-after") {
            head.retry_after_s = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-proof-job") {
            head.job = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-proof-trace") {
            head.trace_parent = parse_trace_header(value);
        } else if name.eq_ignore_ascii_case("connection") {
            head.keep_alive = value.eq_ignore_ascii_case("keep-alive");
        }
    }
    Ok(head)
}

/// Read a body of `content_length` bytes, or up to EOF when no length was
/// declared, refusing more than `cap` bytes before and while reading.
pub(crate) fn read_body<R: Read>(
    reader: R,
    content_length: Option<usize>,
    cap: usize,
) -> std::io::Result<String> {
    if content_length.is_some_and(|n| n > cap) {
        return Err(bad("body too large"));
    }
    // grow the buffer as bytes arrive rather than trusting a declared
    // length beyond the request cap
    let mut buf = Vec::with_capacity(content_length.unwrap_or(0).min(MAX_BODY_BYTES));
    let limit = content_length.unwrap_or(cap + 1);
    reader.take(limit as u64).read_to_end(&mut buf)?;
    if content_length.is_some_and(|n| buf.len() < n) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed inside body",
        ));
    }
    if buf.len() > cap {
        return Err(bad("body too large"));
    }
    String::from_utf8(buf).map_err(|_| bad("body is not UTF-8"))
}

/// Read one request. `Ok(None)` means the peer closed the connection
/// before sending anything.
fn read_request<R: BufRead>(reader: &mut R) -> std::io::Result<Option<Request>> {
    let Some(head) = read_head(reader)? else {
        return Ok(None);
    };
    let mut parts = head.start.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(bad("malformed request line")),
    };
    // a request without Content-Length has no body
    let body = read_body(
        reader,
        Some(head.content_length.unwrap_or(0)),
        MAX_BODY_BYTES,
    )?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        trace_parent: head.trace_parent,
        keep_alive: head.keep_alive,
    }))
}

pub(crate) fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The value of the first `key=...` param in a raw query string (the
/// [`Request::query`] field: no leading '?', params separated by '&').
/// `None` when the key is absent; a valueless `key` (no '=') is `None` too.
pub fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// True when the query string carries `key=value` as one of its
/// `&`-separated params, in any position. Both daemons route format
/// selectors (`format=prometheus`, `format=spans`) and mode selectors
/// (`mode=async`) through this, so `?format=prometheus&x=1` works the same
/// everywhere — an earlier coordinator build compared the whole raw query
/// against `format=prometheus` and silently fell back to JSON when any
/// other param rode along.
pub fn query_has(query: &str, key: &str, value: &str) -> bool {
    query_param(query, key) == Some(value)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// The one response writer: head and body leave in one `write_all`, so a
/// kept-alive exchange never waits on Nagle's algorithm against the
/// peer's delayed ACK.
fn write_response(mut stream: &TcpStream, r: &Response, keep_alive: bool) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        r.status,
        reason(r.status),
        r.content_type,
        r.body.len()
    );
    if let Some(s) = r.retry_after_s {
        let _ = write!(head, "Retry-After: {s}\r\n");
    }
    if let Some(id) = r.job {
        let _ = write!(head, "X-Proof-Job: {id}\r\n");
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(head, "Connection: {connection}\r\n\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(r.body.as_bytes());
    stream.write_all(&out)
}

/// Lock, recovering from poisoning: every structure guarded in this crate
/// stays valid at each lock release, so a thread that died holding a lock
/// must not wedge the daemon.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What a daemon plugs into [`HttpServer`]: its routes, plus two optional
/// observation hooks.
pub trait Routes: Send + Sync + 'static {
    /// Answer one parsed request.
    fn route(&self, req: &Request) -> Response;

    /// Called once per request read off a connection, parsed or not, and
    /// once per connection the acceptor refuses at the cap. A kept-alive
    /// connection counts each of its requests.
    fn received(&self) {}

    /// Called once per answered request, before the reply is written;
    /// `req` is `None` when the request did not parse.
    fn answered(&self, _peer: Option<SocketAddr>, _req: Option<&Request>, _status: u16) {}
}

#[derive(Default)]
struct Counts {
    /// Handler threads alive, bounded by [`MAX_CONNECTIONS`].
    live: usize,
    /// Handlers that have read a complete request and not yet answered it.
    busy: usize,
    /// Set by [`HttpServer::stop`]: the acceptor exits at its next wake,
    /// and no connection is kept alive past its current reply.
    stopping: bool,
    /// Kept-alive connections waiting for their next request, by slot id:
    /// `stop` shuts them down so their handlers see EOF at once.
    kept_alive: HashMap<u64, TcpStream>,
    /// The id of the next slot handed out.
    next_slot: u64,
}

/// Counts live handlers against the cap and, among them, the busy ones.
/// Shutdown waits only for the busy ones: a handler still waiting on a
/// silent client has nothing to finish, and its deadline reaps it; a
/// handler idle between kept-alive requests is closed by `stop`.
#[derive(Default)]
struct ConnGate {
    counts: Mutex<Counts>,
    idle: Condvar,
}

/// One live handler's claim on the gate. Dropping it releases the claim
/// wherever that happens: at the end of the handler, during a panic's
/// unwind, or with the closure of a spawn that failed.
struct Slot {
    gate: Arc<ConnGate>,
    id: u64,
    busy: bool,
}

impl ConnGate {
    fn try_enter(gate: &Arc<ConnGate>) -> Option<Slot> {
        let mut counts = lock_clean(&gate.counts);
        if counts.live >= MAX_CONNECTIONS {
            return None;
        }
        counts.live += 1;
        counts.next_slot += 1;
        Some(Slot {
            gate: Arc::clone(gate),
            id: counts.next_slot,
            busy: false,
        })
    }

    /// One busy handler has answered: wake the drain when it was the last.
    fn release(&self, counts: &mut Counts) {
        counts.busy -= 1;
        if counts.busy == 0 {
            self.idle.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut counts = lock_clean(&self.counts);
        while counts.busy > 0 {
            counts = self.idle.wait(counts).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Slot {
    /// Mark the handler as owing a reply: shutdown now waits for it.
    fn set_busy(&mut self) {
        let mut counts = lock_clean(&self.gate.counts);
        counts.kept_alive.remove(&self.id);
        counts.busy += 1;
        self.busy = true;
    }

    /// Whether the connection may outlive the reply being written.
    fn may_keep_alive(&self) -> bool {
        !lock_clean(&self.gate.counts).stopping
    }

    /// The reply is written and the handler waits for the next request on
    /// `stream`, where `stop` can reach it. `false` when the server is
    /// stopping and the connection must close instead.
    fn set_idle(&mut self, stream: &TcpStream) -> bool {
        let mut counts = lock_clean(&self.gate.counts);
        if std::mem::take(&mut self.busy) {
            self.gate.release(&mut counts);
        }
        if counts.stopping {
            return false;
        }
        match stream.try_clone() {
            Ok(clone) => {
                counts.kept_alive.insert(self.id, clone);
                true
            }
            Err(_) => false,
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        let mut counts = lock_clean(&self.gate.counts);
        counts.live -= 1;
        counts.kept_alive.remove(&self.id);
        if self.busy {
            self.gate.release(&mut counts);
        }
    }
}

/// A running HTTP acceptor serving one [`Routes`]: a thread per
/// connection, at most [`MAX_CONNECTIONS`] of them, every socket under
/// [`IO_DEADLINE`].
pub struct HttpServer {
    addr: SocketAddr,
    gate: Arc<ConnGate>,
    acceptor: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Serve `routes` on `listener`. Threads are named `<name>-acceptor`
    /// and `<name>-conn`.
    pub fn start<R: Routes>(
        listener: TcpListener,
        name: &str,
        routes: Arc<R>,
    ) -> std::io::Result<HttpServer> {
        let addr = listener.local_addr()?;
        let gate = Arc::new(ConnGate::default());
        let acceptor = {
            let gate = Arc::clone(&gate);
            let conn_name = format!("{name}-conn");
            std::thread::Builder::new()
                .name(format!("{name}-acceptor"))
                .spawn(move || accept_loop(&listener, &routes, &gate, &conn_name))?
        };
        Ok(HttpServer {
            addr,
            gate,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every kept-alive connection waiting for its
    /// next request, then wait for every handler that has read a complete
    /// request to answer it. Idempotent.
    pub fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        {
            let mut counts = lock_clean(&self.gate.counts);
            counts.stopping = true;
            for (_, idle) in counts.kept_alive.drain() {
                let _ = idle.shutdown(Shutdown::Both);
            }
        }
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        self.gate.wait_idle();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop<R: Routes>(
    listener: &TcpListener,
    routes: &Arc<R>,
    gate: &Arc<ConnGate>,
    conn_name: &str,
) {
    for stream in listener.incoming() {
        if lock_clean(&gate.counts).stopping {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // bounds every read and write, the refusal below included
        let _ = stream.set_read_timeout(Some(IO_DEADLINE));
        let _ = stream.set_write_timeout(Some(IO_DEADLINE));
        let _ = stream.set_nodelay(true);
        let Some(slot) = ConnGate::try_enter(gate) else {
            routes.received();
            refuse(&mut stream);
            continue;
        };
        let routes = Arc::clone(routes);
        // a failed spawn drops the closure, and the slot with it
        let _ = std::thread::Builder::new()
            .name(conn_name.to_string())
            .spawn(move || handle(&*routes, stream, slot));
    }
}

/// Answer an over-cap connection with `503` + `Retry-After`, then discard
/// whatever request bytes already arrived so the close is a clean FIN, not
/// a reset that could destroy the reply in flight.
fn refuse(stream: &mut TcpStream) {
    let reply = Response::error(503, "too many connections").retry_after(RETRY_AFTER_S);
    let _ = write_response(stream, &reply, false);
    if stream.set_nonblocking(true).is_ok() {
        let _ = std::io::copy(
            &mut stream.take(MAX_HEADER_BYTES as u64),
            &mut std::io::sink(),
        );
    }
}

/// Serve one connection: one request, or as many as the client keeps it
/// alive for.
fn handle<R: Routes>(routes: &R, stream: TcpStream, mut slot: Slot) {
    let peer = stream.peer_addr().ok();
    let mut reader = BufReader::new(&stream);
    loop {
        let (reply, keep_alive) = match read_request(&mut reader) {
            Ok(None) => return,
            // the client went silent past the deadline: nobody to answer
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => return,
            Ok(Some(request)) => {
                slot.set_busy();
                routes.received();
                let reply = routes.route(&request);
                routes.answered(peer, Some(&request), reply.status);
                (reply, request.keep_alive && slot.may_keep_alive())
            }
            Err(e) => {
                routes.received();
                routes.answered(peer, None, 400);
                (Response::error(400, &e.to_string()), false)
            }
        };
        if write_response(&stream, &reply, keep_alive).is_err()
            || !keep_alive
            || !slot.set_idle(&stream)
        {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn capped_line_reads_short_lines() {
        let mut r = Cursor::new(b"GET / HTTP/1.1\r\nrest".to_vec());
        let mut buf = Vec::new();
        let n = read_line_capped(&mut r, &mut buf, 64).unwrap();
        assert_eq!(n, 16);
        assert_eq!(buf, b"GET / HTTP/1.1\r\n");
    }

    #[test]
    fn capped_line_rejects_oversized_line_without_buffering_it() {
        let big = vec![b'a'; 1024];
        let mut r = Cursor::new(big);
        let mut buf = Vec::new();
        let err = read_line_capped(&mut r, &mut buf, 100).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(buf.len() <= 100, "must not buffer past the cap");
    }

    #[test]
    fn capped_line_eof_is_zero() {
        let mut r = Cursor::new(Vec::new());
        let mut buf = Vec::new();
        assert_eq!(read_line_capped(&mut r, &mut buf, 16).unwrap(), 0);
    }

    #[test]
    fn head_reader_parses_requests_and_responses_alike() {
        let mut r = Cursor::new(
            b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
              content-length: 2\r\nRetry-After: 1\r\nX-Proof-Trace: 7:3\r\n\r\n{}"
                .to_vec(),
        );
        let head = read_head(&mut r).unwrap().unwrap();
        assert_eq!(head.start, "HTTP/1.1 429 Too Many Requests");
        assert_eq!(head.content_length, Some(2));
        assert_eq!(head.content_type.as_deref(), Some("application/json"));
        assert_eq!(head.retry_after_s, Some(1));
        assert_eq!(head.trace_parent, Some((7, 3)));
        assert_eq!(read_body(&mut r, head.content_length, 16).unwrap(), "{}");

        let mut empty = Cursor::new(Vec::new());
        assert!(read_head(&mut empty).unwrap().is_none());
        let mut cut = Cursor::new(b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec());
        assert!(read_head(&mut cut).is_err(), "EOF inside the headers");
        let mut bad_len = Cursor::new(b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n".to_vec());
        assert!(read_head(&mut bad_len).is_err());
    }

    #[test]
    fn body_reader_enforces_length_and_cap() {
        assert_eq!(read_body(&b"abcdef"[..], Some(3), 8).unwrap(), "abc");
        assert_eq!(read_body(&b"abcdef"[..], None, 8).unwrap(), "abcdef");
        assert!(
            read_body(&b"abc"[..], Some(9), 8).is_err(),
            "declared over cap"
        );
        assert!(
            read_body(&b"abcdef"[..], None, 4).is_err(),
            "undeclared over cap"
        );
        let short = read_body(&b"ab"[..], Some(3), 8).unwrap_err();
        assert_eq!(short.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_slot_dropped_before_reaching_a_thread_releases_its_count() {
        let gate = Arc::new(ConnGate::default());
        let mut slots: Vec<Slot> = (0..MAX_CONNECTIONS)
            .map(|_| ConnGate::try_enter(&gate).expect("below the cap"))
            .collect();
        assert!(ConnGate::try_enter(&gate).is_none(), "the cap holds");
        // a spawn that fails drops its closure, and the slot inside it
        let closure = {
            let slot = slots.pop().unwrap();
            move || drop(slot)
        };
        drop(closure);
        assert!(ConnGate::try_enter(&gate).is_some(), "the count came back");
        // a busy slot released the same way leaves no drain waiting
        let mut busy = ConnGate::try_enter(&gate).unwrap();
        busy.set_busy();
        drop(busy);
        // and so does one that went idle between kept-alive requests
        let mut kept = ConnGate::try_enter(&gate).unwrap();
        kept.set_busy();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        assert!(kept.set_idle(&stream));
        gate.wait_idle();
        drop(kept);
        assert!(lock_clean(&gate.counts).kept_alive.is_empty());
        gate.wait_idle();
        drop(slots);
        assert_eq!(lock_clean(&gate.counts).live, 0);
    }

    #[test]
    fn query_params_match_in_any_position() {
        assert!(query_has("format=prometheus", "format", "prometheus"));
        assert!(query_has("format=prometheus&x=1", "format", "prometheus"));
        assert!(query_has("x=1&format=prometheus", "format", "prometheus"));
        assert!(!query_has("format=spans", "format", "prometheus"));
        assert!(!query_has("", "format", "prometheus"));
        // valueless or prefix-colliding keys never match
        assert!(!query_has("format", "format", "prometheus"));
        assert!(!query_has("xformat=prometheus", "format", "prometheus"));
        assert_eq!(query_param("since=12&format=spans", "since"), Some("12"));
        assert_eq!(query_param("since=12", "format"), None);
        assert_eq!(query_param("since", "since"), None);
    }

    #[test]
    fn trace_header_parses_or_is_ignored() {
        assert_eq!(parse_trace_header("42:7"), Some((42, 7)));
        assert_eq!(parse_trace_header(" 42 : 7 "), Some((42, 7)));
        assert_eq!(parse_trace_header("42:0"), Some((42, 0)));
        // malformed or zero-trace values are dropped, never an error
        assert_eq!(parse_trace_header("0:7"), None);
        assert_eq!(parse_trace_header("42"), None);
        assert_eq!(parse_trace_header("a:b"), None);
        assert_eq!(parse_trace_header(""), None);
    }
}
