//! HTTP transport for the store's remote-peer tier.
//!
//! `proof-store` defines [`PeerClient`] without any transport; this is the
//! implementation over proof-serve's own `/cache/<key>` surface, so every
//! daemon doubles as a cache peer for every other daemon. Requests carry a
//! short timeout — a slow peer must cost less than the rebuild it is
//! trying to save — and one attempt only: the store's degradation counters
//! make peer flakiness visible, the local build makes it harmless.

use crate::client::Call;
use proof_store::{ArtifactKey, PeerClient, TierError};
use std::net::SocketAddr;
use std::time::Duration;

/// A peer daemon's cache endpoint.
pub struct HttpPeer {
    addr: SocketAddr,
    timeout: Duration,
}

impl HttpPeer {
    pub fn new(addr: SocketAddr, timeout: Duration) -> HttpPeer {
        HttpPeer { addr, timeout }
    }
}

impl PeerClient for HttpPeer {
    fn endpoint(&self) -> String {
        self.addr.to_string()
    }

    fn fetch(&self, key: &ArtifactKey) -> Result<Option<String>, TierError> {
        let reply = Call::new(self.addr, "GET", &format!("/cache/{key}"))
            .timeout(self.timeout)
            .send()
            .map_err(|e| TierError::Unavailable(format!("{}: {e}", self.addr)))?;
        match reply.status {
            200 => Ok(Some(reply.into_body())),
            404 => Ok(None),
            429 | 503 => Err(TierError::Busy),
            s => Err(TierError::Unavailable(format!(
                "{}: unexpected status {s}",
                self.addr
            ))),
        }
    }

    fn publish(&self, key: &ArtifactKey, artifact: &str) -> Result<(), TierError> {
        let reply = Call::new(self.addr, "PUT", &format!("/cache/{key}"))
            .body(artifact)
            .timeout(self.timeout)
            .send()
            .map_err(|e| TierError::Unavailable(format!("{}: {e}", self.addr)))?;
        match reply.status {
            200 | 201 => Ok(()),
            429 | 503 => Err(TierError::Busy),
            s => Err(TierError::Unavailable(format!(
                "{}: unexpected status {s}",
                self.addr
            ))),
        }
    }
}
