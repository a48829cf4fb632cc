//! The blocking HTTP client for both daemons' APIs — the one
//! implementation shared by the fleet coordinator, the peer-cache tier,
//! the CLI walkthroughs, and the integration tests.
//!
//! [`Call`] builds one exchange — method, path, optional body, timeout and
//! extra headers — and [`Call::send`] returns the typed [`Response`];
//! [`get`] and [`post`] wrap the two common shapes. The response head goes
//! through the same capped reader the daemons use for requests, and the
//! body is capped too, so a misbehaving peer cannot exhaust client memory.
//! The client never retries: a 429/503 comes back as a response with its
//! `Retry-After` hint, for the caller to schedule on.

use crate::http::{bad, read_body, read_head, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body the client reads. Responses are larger than the
/// requests a daemon accepts (`MAX_BODY_BYTES`): a merged grid artifact of
/// `MAX_GRID_CELLS` cells of the largest reports (about 200 KB compact
/// each) comes to about 0.8 GiB.
const MAX_RESPONSE_BYTES: usize = 1 << 30;

/// One blocking request, built up and then [`sent`](Call::send).
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    addr: SocketAddr,
    method: &'a str,
    path: &'a str,
    body: &'a str,
    timeout: Option<Duration>,
    headers: &'a [(&'a str, &'a str)],
}

impl<'a> Call<'a> {
    /// `method path` against `addr`, with an empty body, no timeout and no
    /// extra headers.
    pub fn new(addr: SocketAddr, method: &'a str, path: &'a str) -> Call<'a> {
        Call {
            addr,
            method,
            path,
            body: "",
            timeout: None,
            headers: &[],
        }
    }

    /// The request body, sent as `application/json`.
    pub fn body(self, body: &'a str) -> Call<'a> {
        Call { body, ..self }
    }

    /// Bound the connect and every read and write. Without it the call
    /// blocks for as long as the peer does; with it, a node that accepts
    /// the connection but never answers surfaces as a timeout error.
    pub fn timeout(self, timeout: Duration) -> Call<'a> {
        Call {
            timeout: Some(timeout),
            ..self
        }
    }

    /// Extra request headers (the fleet attaches `X-Proof-Trace` context to
    /// shard submissions). Names and values must be single-line; they are
    /// sent verbatim.
    pub fn headers(self, headers: &'a [(&'a str, &'a str)]) -> Call<'a> {
        Call { headers, ..self }
    }

    /// Send the request and read the whole response.
    pub fn send(self) -> std::io::Result<Response> {
        let mut stream = match self.timeout {
            Some(d) => TcpStream::connect_timeout(&self.addr, d)?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        let extra: String = self
            .headers
            .iter()
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .collect();
        let head = format!(
            "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n",
            self.method,
            self.path,
            self.addr,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let head =
            read_head(&mut reader)?.ok_or_else(|| bad("connection closed before status line"))?;
        let status = head
            .start
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        Ok(Response {
            status,
            content_type: head.content_type.unwrap_or_default(),
            retry_after_s: head.retry_after_s,
            body: read_body(reader, head.content_length, MAX_RESPONSE_BYTES)?,
        })
    }
}

/// `GET path`, returning `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let r = Call::new(addr, "GET", path).send()?;
    Ok((r.status, r.body))
}

/// `POST path` with a JSON body, returning `(status, body)`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let r = Call::new(addr, "POST", path).body(body).send()?;
    Ok((r.status, r.body))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let err = Call::new(addr, "GET", "/healthz")
            .timeout(Duration::from_millis(100))
            .send()
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
