//! HTTP transport for the store's remote-peer tier.
//!
//! `proof-store` defines [`PeerClient`] without any transport; this is the
//! implementation over proof-serve's own `/cache/<key>` surface, so every
//! daemon doubles as a cache peer for every other daemon. Requests carry a
//! short timeout — a slow peer must cost less than the rebuild it is
//! trying to save — and one attempt only, over a kept-alive [`ConnPool`]
//! of this peer's own: a cold build's miss walk and its publish share one
//! connection instead of paying a connect each. The store's degradation
//! counters make peer flakiness visible, the local build makes it
//! harmless; a pooled connection the peer closed costs at most that one
//! attempt.
//!
//! Thread bound: every idle pooled connection holds a handler thread on
//! the peer and counts against its [`MAX_CONNECTIONS`]. A node holds at
//! most `min(workers, MAX_IDLE_CONNECTIONS)` of them per peer — one per
//! worker walking or publishing at once, and the client pool keeps no
//! more than `MAX_IDLE_CONNECTIONS` (16). The client drops a connection
//! idle past `MAX_IDLE` (2.5 s) instead of reusing it, and the peer reaps
//! one idle past its [`IO_DEADLINE`].
//!
//! [`MAX_CONNECTIONS`]: crate::http::MAX_CONNECTIONS
//! [`IO_DEADLINE`]: crate::http::IO_DEADLINE

use crate::client::{Call, ConnPool};
use crate::http::Response;
use proof_store::{ArtifactKey, PeerClient, TierError};
use std::net::SocketAddr;
use std::time::Duration;

/// A peer daemon's cache endpoint, with its kept-alive connections.
pub struct HttpPeer {
    addr: SocketAddr,
    timeout: Duration,
    pool: ConnPool,
}

impl HttpPeer {
    pub fn new(addr: SocketAddr, timeout: Duration) -> HttpPeer {
        HttpPeer {
            addr,
            timeout,
            pool: ConnPool::default(),
        }
    }

    fn send(&self, call: Call<'_>) -> Result<Response, TierError> {
        call.timeout(self.timeout)
            .keep_alive(&self.pool)
            .send()
            .map_err(|e| TierError::Unavailable(format!("{}: {e}", self.addr)))
    }

    fn unexpected(&self, status: u16) -> TierError {
        TierError::Unavailable(format!("{}: unexpected status {status}", self.addr))
    }
}

impl PeerClient for HttpPeer {
    fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    fn fetch(&self, key: &ArtifactKey) -> Result<Option<String>, TierError> {
        let reply = self.send(Call::new(self.addr, "GET", &format!("/cache/{key}")))?;
        match reply.status {
            200 => Ok(Some(reply.into_body())),
            404 => Ok(None),
            429 | 503 => Err(TierError::Busy),
            s => Err(self.unexpected(s)),
        }
    }

    fn publish(&self, key: &ArtifactKey, artifact: &str) -> Result<(), TierError> {
        let reply =
            self.send(Call::new(self.addr, "PUT", &format!("/cache/{key}")).body(artifact))?;
        match reply.status {
            200 | 201 => Ok(()),
            429 | 503 => Err(TierError::Busy),
            s => Err(self.unexpected(s)),
        }
    }
}
