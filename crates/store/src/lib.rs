//! proof-store: the unified tiered artifact store.
//!
//! One cache subsystem for the whole stack. A [`TieredStore`] composes
//! three [`CacheTier`]s behind a single-flight lookup:
//!
//! ```text
//! lookup(key):  memory LRU ──miss──▶ disk ──miss──▶ remote peers ──miss──▶ build
//!                   ▲                  ▲                 │                   │
//!                   └──── fill ────────┴───── fill ──────┘    fulfill: disk + memory + wake, then publish
//! ```
//!
//! - [`ArtifactKey`] — validated canonical addressing shared by every
//!   tier (hash digests, stage-prefix keys), safe as filename and URL
//!   path segment alike.
//! - [`MemoryLru`] — byte- or entry-weighed LRU with O(log n)
//!   sequence-number recency.
//! - [`DiskTier`] — atomic `<key>.json` files; corrupt/truncated files
//!   are detected, unlinked, and rebuilt, never served.
//! - [`RemoteTier`] — other nodes' caches behind an injected
//!   [`PeerClient`] transport; every peer failure degrades to a local
//!   build.
//! - [`KeyedFlight`] — reusable single-flight claims (also drives serve's
//!   stage-prefix cache).
//!
//! The crate deliberately has no HTTP code: proof-serve provides the
//! `PeerClient` over its own `/cache/<key>` surface, keeping the
//! dependency DAG `store ← serve ← fleet`.
//!
//! Cache identity: keys are content addresses of the *resolved* job spec.
//! Every spec field including `seed` participates; `timeout_ms` is
//! excluded (execution metadata, not artifact identity) — see
//! `proof_serve::AnalysisJob::cache_key`.

mod disk;
mod flight;
mod key;
mod memory;
mod remote;
mod store;
mod tier;

pub use disk::DiskTier;
pub use flight::{Claim, FlightGuard, KeyedFlight};
pub use key::{ArtifactKey, MAX_KEY_LEN};
pub use memory::{MemoryLru, MemoryTier};
pub use remote::{PeerClient, RemoteCounters, RemoteTier};
pub use store::{BuildGuard, HitTier, Lookup, StoreConfig, StoreStats, TieredStore};
pub use tier::{validate_artifact, CacheTier, TierError};
