//! The blocking HTTP client for both daemons' APIs — the one
//! implementation shared by the fleet coordinator, the peer-cache tier,
//! the CLI walkthroughs, and the integration tests.
//!
//! [`Call`] builds one exchange — method, path, optional body, timeout and
//! extra headers — and [`Call::send`] returns the typed [`Response`];
//! [`get`] and [`post`] wrap the two common shapes. [`Call::write`] splits
//! the exchange: the request goes out now and [`Sent::read`] reads the
//! reply later, so a caller can have requests outstanding on several
//! connections at once. A call given a [`ConnPool`] asks for
//! `Connection: keep-alive` and reuses the pool's connections; any other
//! call opens a connection of its own and asks for `Connection: close`.
//! The response head goes through the same capped reader the daemons use
//! for requests, and the body is capped too, so a misbehaving peer cannot
//! exhaust client memory. The client never retries: a 429/503 comes back
//! as a response with its `Retry-After` hint, for the caller to schedule
//! on.

use crate::http::{bad, lock_clean, read_body, read_head, Response, IO_DEADLINE};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Largest response body the client reads. Responses are larger than the
/// requests a daemon accepts (`MAX_BODY_BYTES`): a merged grid artifact of
/// `MAX_GRID_CELLS` cells of the largest reports (about 200 KB compact
/// each) comes to about 0.8 GiB.
const MAX_RESPONSE_BYTES: usize = 1 << 30;

/// Idle connections one [`ConnPool`] holds; a connection returned to a
/// full pool is closed.
const MAX_IDLE_CONNECTIONS: usize = 16;

/// How long a pooled connection may sit idle and still be reused: half the
/// daemon's [`IO_DEADLINE`], so the client never writes to a connection
/// the daemon is about to close.
const MAX_IDLE: Duration = Duration::from_millis(IO_DEADLINE.as_millis() as u64 / 2);

/// Kept-alive connections to one daemon. Clones share the pool.
#[derive(Debug, Clone, Default)]
pub struct ConnPool {
    idle: Arc<Mutex<Vec<(TcpStream, Instant)>>>,
}

impl ConnPool {
    /// The most recently returned connection that is young enough and that
    /// the daemon has not closed meanwhile.
    fn take(&self) -> Option<TcpStream> {
        let mut idle = lock_clean(&self.idle);
        while let Some((stream, since)) = idle.pop() {
            if since.elapsed() < MAX_IDLE && still_open(&stream) {
                return Some(stream);
            }
        }
        None
    }

    fn put(&self, stream: TcpStream) {
        let mut idle = lock_clean(&self.idle);
        idle.retain(|(_, since)| since.elapsed() < MAX_IDLE);
        if idle.len() < MAX_IDLE_CONNECTIONS {
            idle.push((stream, Instant::now()));
        }
    }
}

/// Whether an idle connection is still open: the daemon closes one by
/// sending FIN, which a non-blocking peek reads as EOF.
fn still_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let open = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && open
}

/// One blocking request, built up and then [`sent`](Call::send).
#[derive(Debug, Clone, Copy)]
pub struct Call<'a> {
    addr: SocketAddr,
    method: &'a str,
    path: &'a str,
    body: &'a str,
    timeout: Option<Duration>,
    headers: &'a [(&'a str, &'a str)],
    pool: Option<&'a ConnPool>,
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
            pool: None,
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

    /// Send `Connection: keep-alive` over a connection from `pool` (or a
    /// new one), and return the connection there when the reply keeps it
    /// alive too. `pool` must hold connections to this call's address.
    pub fn keep_alive(self, pool: &'a ConnPool) -> Call<'a> {
        Call {
            pool: Some(pool),
            ..self
        }
    }

    /// Send the request and read the whole response.
    pub fn send(self) -> std::io::Result<Response> {
        self.write()?.read()
    }

    /// Send the request, head and body in one write, and return without
    /// reading the reply.
    pub fn write(self) -> std::io::Result<Sent> {
        let mut stream = match self.pool.and_then(ConnPool::take) {
            Some(stream) => stream,
            None => {
                let stream = match self.timeout {
                    Some(d) => TcpStream::connect_timeout(&self.addr, d)?,
                    None => TcpStream::connect(self.addr)?,
                };
                stream.set_nodelay(true)?;
                stream
            }
        };
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        let extra: String = self
            .headers
            .iter()
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .collect();
        let connection = if self.pool.is_some() {
            "keep-alive"
        } else {
            "close"
        };
        let mut request = format!(
            "{} {} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: {connection}\r\n\r\n",
            self.method,
            self.path,
            self.addr,
            self.body.len()
        )
        .into_bytes();
        request.extend_from_slice(self.body.as_bytes());
        stream.write_all(&request)?;
        Ok(Sent {
            reader: BufReader::new(stream),
            pool: self.pool.cloned(),
        })
    }
}

/// A request on the wire whose reply has not been read yet.
#[derive(Debug)]
pub struct Sent {
    reader: BufReader<TcpStream>,
    pool: Option<ConnPool>,
}

impl Sent {
    /// Read the whole response; a kept-alive connection goes back to its
    /// pool.
    pub fn read(mut self) -> std::io::Result<Response> {
        let head = read_head(&mut self.reader)?
            .ok_or_else(|| bad("connection closed before status line"))?;
        let status = head
            .start
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let body = read_body(&mut self.reader, head.content_length, MAX_RESPONSE_BYTES)?;
        // reusable only when the reply ended where its length said and
        // nothing past it arrived
        if let Some(pool) = &self.pool {
            if head.keep_alive && head.content_length.is_some() && self.reader.buffer().is_empty() {
                pool.put(self.reader.into_inner());
            }
        }
        Ok(Response {
            status,
            content_type: head.content_type.unwrap_or_default(),
            retry_after_s: head.retry_after_s,
            job: head.job,
            body: body.into(),
        })
    }
}

/// `GET path`, returning `(status, body)`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let r = Call::new(addr, "GET", path).send()?;
    Ok((r.status, r.into_body()))
}

/// `POST path` with a JSON body, returning `(status, body)`.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let r = Call::new(addr, "POST", path).body(body).send()?;
    Ok((r.status, r.into_body()))
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

    #[test]
    fn kept_alive_calls_reuse_one_pooled_connection() {
        let server = crate::Server::start(crate::ServeConfig::default()).unwrap();
        let pool = ConnPool::default();
        for _ in 0..3 {
            let r = Call::new(server.addr(), "GET", "/healthz")
                .keep_alive(&pool)
                .send()
                .unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(lock_clean(&pool.idle).len(), 1, "one connection, reused");
        }
        // shutdown closes the idle connection, and the pool notices
        server.shutdown();
        let (stream, since) = lock_clean(&pool.idle).pop().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while still_open(&stream) {
            assert!(Instant::now() < deadline, "the close never arrived");
            std::thread::sleep(Duration::from_millis(10));
        }
        lock_clean(&pool.idle).push((stream, since));
        assert!(pool.take().is_none(), "a closed connection was offered");
    }
}
