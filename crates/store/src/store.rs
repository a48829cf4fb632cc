//! The tiered store: memory → disk → remote → build, single-flighted.
//!
//! One lookup protocol serves every consumer:
//!
//! 1. probe memory (lock-free of the flight set, so warm hits never queue);
//! 2. claim the key in [`KeyedFlight`] — losers block until the winner
//!    resolves, then re-check memory;
//! 3. the claim winner probes disk, then the remote peers, filling every
//!    hit *inward* (remote → disk + memory, disk → memory) so the next
//!    lookup short-circuits at the top;
//! 4. a miss everywhere returns a [`BuildGuard`]: the caller builds the
//!    artifact once and [`BuildGuard::fulfill`] writes it to disk, inserts
//!    it into memory, wakes the coalesced waiters, and only then replicates
//!    it to the peers (best-effort), so no waiter waits on the network.
//!
//! Tier damage never fails a lookup: corrupt disk files and broken peers
//! are counted, skipped, and rebuilt over.

use crate::disk::DiskTier;
use crate::flight::{Claim, FlightGuard, KeyedFlight};
use crate::key::ArtifactKey;
use crate::memory::MemoryTier;
use crate::remote::{PeerClient, RemoteCounters, RemoteTier};
use crate::tier::{validate_artifact, CacheTier, TierError};
use proof_obs::{Counter, MetricsRegistry};
use serde::Serialize;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Store shape: how much memory, and whether a disk tier backs it.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Byte budget for the in-memory LRU tier.
    pub memory_budget_bytes: usize,
    /// Directory for the disk tier; `None` runs memory + remote only.
    pub disk_dir: Option<PathBuf>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memory_budget_bytes: 64 << 20,
            disk_dir: None,
        }
    }
}

/// Which tier answered a hit (also the label recorded on job records and
/// metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    Memory,
    Disk,
    Remote,
}

impl HitTier {
    pub fn as_str(&self) -> &'static str {
        match self {
            HitTier::Memory => "memory",
            HitTier::Disk => "disk",
            HitTier::Remote => "remote",
        }
    }
}

/// The two outcomes of [`TieredStore::lookup_or_begin`].
pub enum Lookup<'a> {
    /// Cached artifact plus the tier that served it.
    Hit(Arc<String>, HitTier),
    /// Nothing cached anywhere; the caller owns the (single-flighted)
    /// build.
    Miss(BuildGuard<'a>),
}

/// Live counter handles; registered once per store on the shared registry
/// so serve's Prometheus exposition picks them up with zero glue.
struct StoreCounters {
    memory_hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    remote_hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    fills: Arc<Counter>,
    publishes: Arc<Counter>,
    remote_errors: Arc<Counter>,
    remote_busy: Arc<Counter>,
    corrupt: Arc<Counter>,
}

impl StoreCounters {
    fn register(registry: &MetricsRegistry) -> StoreCounters {
        StoreCounters {
            memory_hits: registry.counter("cache_memory_hits_total"),
            disk_hits: registry.counter("cache_disk_hits_total"),
            remote_hits: registry.counter("cache_remote_hits_total"),
            misses: registry.counter("cache_misses_total"),
            evictions: registry.counter("cache_evictions_total"),
            fills: registry.counter("cache_fills_total"),
            publishes: registry.counter("cache_publishes_total"),
            remote_errors: registry.counter("cache_remote_errors_total"),
            remote_busy: registry.counter("cache_remote_busy_total"),
            corrupt: registry.counter("cache_corrupt_total"),
        }
    }
}

/// Point-in-time store statistics (serialized into `GET /metrics`).
/// `hits` aggregates all tiers; `disk_hits` keeps its historical meaning
/// for dashboards that predate the tier split.
#[derive(Debug, Clone, Serialize)]
pub struct StoreStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub remote_hits: u64,
    pub remote_errors: u64,
    pub remote_busy: u64,
    pub corrupt: u64,
    pub fills: u64,
    pub publishes: u64,
    pub entries: usize,
    pub bytes: usize,
    pub budget_bytes: usize,
    pub peers: usize,
}

/// The composed hierarchy. Memory is always present; disk and peers are
/// optional and can be attached at runtime (peers arrive by fleet
/// advertisement).
pub struct TieredStore {
    flight: KeyedFlight,
    memory: MemoryTier,
    disk: Option<DiskTier>,
    remote: RemoteTier,
    counters: StoreCounters,
}

impl TieredStore {
    /// Build the store and register its counters on `registry`.
    pub fn new(config: StoreConfig, registry: &MetricsRegistry) -> io::Result<TieredStore> {
        let counters = StoreCounters::register(registry);
        let memory = MemoryTier::new(config.memory_budget_bytes, Arc::clone(&counters.evictions));
        let disk = match &config.disk_dir {
            Some(dir) => Some(DiskTier::new(dir)?),
            None => None,
        };
        let remote = RemoteTier::new(RemoteCounters {
            errors: Arc::clone(&counters.remote_errors),
            busy: Arc::clone(&counters.remote_busy),
            corrupt: Arc::clone(&counters.corrupt),
        });
        Ok(TieredStore {
            flight: KeyedFlight::new(),
            memory,
            disk,
            remote,
            counters,
        })
    }

    /// Attach a peer's cache endpoint to the remote tier.
    pub fn add_peer(&self, peer: Arc<dyn PeerClient>) {
        self.remote.add_peer(peer);
    }

    pub fn peer_count(&self) -> usize {
        self.remote.peer_count()
    }

    pub fn peer_endpoints(&self) -> Vec<String> {
        self.remote.peer_endpoints()
    }

    /// The full lookup protocol: walk the tiers outward, fill inward,
    /// coalesce concurrent builders. Exactly one caller per key ever gets
    /// [`Lookup::Miss`] at a time.
    pub fn lookup_or_begin(&self, key: &ArtifactKey) -> Lookup<'_> {
        loop {
            if let Some(artifact) = self.memory.get_arc(key) {
                self.counters.memory_hits.inc();
                return Lookup::Hit(artifact, HitTier::Memory);
            }
            let guard = match self.flight.claim(key.as_str()) {
                Claim::Claimed(g) => g,
                // the in-flight holder resolved; memory may now have it —
                // loop to re-check (and re-claim if the holder abandoned)
                Claim::Released => continue,
            };
            // double-check under the claim: the previous holder may have
            // filled memory between our miss and our claim
            if let Some(artifact) = self.memory.get_arc(key) {
                self.counters.memory_hits.inc();
                guard.complete();
                return Lookup::Hit(artifact, HitTier::Memory);
            }
            if let Some(artifact) = self.probe_disk(key) {
                self.counters.disk_hits.inc();
                self.counters.fills.inc();
                let artifact = Arc::new(artifact);
                self.memory.insert_arc(key, Arc::clone(&artifact));
                guard.complete();
                return Lookup::Hit(artifact, HitTier::Disk);
            }
            // RemoteTier::get degrades internally; Ok(None) and Err are
            // both misses
            if let Ok(Some(artifact)) = self.remote.get(key) {
                self.counters.remote_hits.inc();
                self.counters.fills.inc();
                if let Some(disk) = &self.disk {
                    let _ = disk.put(key, &artifact);
                }
                let artifact = Arc::new(artifact);
                self.memory.insert_arc(key, Arc::clone(&artifact));
                guard.complete();
                return Lookup::Hit(artifact, HitTier::Remote);
            }
            self.counters.misses.inc();
            return Lookup::Miss(BuildGuard {
                store: self,
                key: key.clone(),
                guard: Some(guard),
            });
        }
    }

    /// Local-tiers-only fetch (memory, then disk, filling memory). This is
    /// what a node serves to *peers* over `GET /cache/<key>` — it must
    /// never recurse into the remote tier, or two peers missing the same
    /// key would chase each other.
    pub fn get_local(&self, key: &ArtifactKey) -> Option<Arc<String>> {
        if let Some(artifact) = self.memory.get_arc(key) {
            self.counters.memory_hits.inc();
            return Some(artifact);
        }
        let artifact = Arc::new(self.probe_disk(key)?);
        self.counters.disk_hits.inc();
        self.counters.fills.inc();
        self.memory.insert_arc(key, Arc::clone(&artifact));
        Some(artifact)
    }

    /// Accept an externally built artifact (peer replication via
    /// `PUT /cache/<key>`). Rejects non-JSON bytes so a confused peer
    /// cannot poison the local tiers.
    pub fn insert_local(&self, key: &ArtifactKey, artifact: String) -> Result<usize, TierError> {
        if !validate_artifact(&artifact) {
            self.counters.corrupt.inc();
            return Err(TierError::Corrupt(
                "artifact does not parse as JSON".to_string(),
            ));
        }
        let bytes = artifact.len();
        if let Some(disk) = &self.disk {
            let _ = disk.put(key, &artifact);
        }
        self.memory.insert_arc(key, Arc::new(artifact));
        self.counters.fills.inc();
        Ok(bytes)
    }

    fn probe_disk(&self, key: &ArtifactKey) -> Option<String> {
        match self.disk.as_ref()?.get(key) {
            Ok(found) => found,
            Err(TierError::Corrupt(_)) => {
                // the tier already unlinked the damaged file; count and
                // rebuild
                self.counters.corrupt.inc();
                None
            }
            Err(_) => None,
        }
    }

    pub fn stats(&self) -> StoreStats {
        let memory_hits = self.counters.memory_hits.get();
        let disk_hits = self.counters.disk_hits.get();
        let remote_hits = self.counters.remote_hits.get();
        StoreStats {
            hits: memory_hits + disk_hits + remote_hits,
            misses: self.counters.misses.get(),
            evictions: self.counters.evictions.get(),
            memory_hits,
            disk_hits,
            remote_hits,
            remote_errors: self.counters.remote_errors.get(),
            remote_busy: self.counters.remote_busy.get(),
            corrupt: self.counters.corrupt.get(),
            fills: self.counters.fills.get(),
            publishes: self.counters.publishes.get(),
            entries: self.memory.entries(),
            bytes: self.memory.bytes(),
            budget_bytes: self.memory.budget_bytes(),
            peers: self.remote.peer_count(),
        }
    }
}

/// Exclusive right to build one artifact. Dropping without
/// [`BuildGuard::fulfill`] (builder failed or panicked) releases the
/// coalesced waiters to retry.
pub struct BuildGuard<'a> {
    store: &'a TieredStore,
    key: ArtifactKey,
    guard: Option<FlightGuard<'a>>,
}

impl BuildGuard<'_> {
    pub fn key(&self) -> &ArtifactKey {
        &self.key
    }

    /// Write the built artifact through every tier — disk first (so a
    /// crash after this point still persists it), then memory — wake the
    /// waiters, and last replicate it to the peers, best-effort: coalesced
    /// waiters never wait on the network.
    pub fn fulfill(mut self, artifact: String) -> Arc<String> {
        if let Some(disk) = &self.store.disk {
            let _ = disk.put(&self.key, &artifact);
        }
        let artifact = Arc::new(artifact);
        self.store
            .memory
            .insert_arc(&self.key, Arc::clone(&artifact));
        if let Some(g) = self.guard.take() {
            g.complete();
        }
        let accepted = self.store.remote.publish(&self.key, &artifact);
        self.store.counters.publishes.add(accepted as u64);
        artifact
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn key(s: &str) -> ArtifactKey {
        ArtifactKey::new(s).unwrap()
    }

    fn mem_store() -> TieredStore {
        TieredStore::new(
            StoreConfig {
                memory_budget_bytes: 1 << 20,
                disk_dir: None,
            },
            &MetricsRegistry::new(),
        )
        .unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proof-store-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn hit_after_miss() {
        let store = mem_store();
        let k = key("k1");
        match store.lookup_or_begin(&k) {
            Lookup::Miss(guard) => {
                guard.fulfill(r#"{"v":1}"#.to_string());
            }
            Lookup::Hit(..) => panic!("cold store cannot hit"),
        }
        match store.lookup_or_begin(&k) {
            Lookup::Hit(a, tier) => {
                assert_eq!(a.as_str(), r#"{"v":1}"#);
                assert_eq!(tier, HitTier::Memory);
            }
            Lookup::Miss(_) => panic!("must hit after fulfill"),
        }
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_under_tight_budget() {
        let store = TieredStore::new(
            StoreConfig {
                memory_budget_bytes: 20,
                disk_dir: None,
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        for k in ["a", "b"] {
            match store.lookup_or_begin(&key(k)) {
                Lookup::Miss(g) => {
                    g.fulfill(format!(r#"{{"k":"{k}"}}"#));
                }
                Lookup::Hit(..) => panic!(),
            }
        }
        // touch "a" so "b" is the LRU victim
        assert!(matches!(store.lookup_or_begin(&key("a")), Lookup::Hit(..)));
        match store.lookup_or_begin(&key("c")) {
            Lookup::Miss(g) => {
                g.fulfill(r#"{"k":"c"}"#.to_string());
            }
            Lookup::Hit(..) => panic!(),
        }
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(matches!(store.lookup_or_begin(&key("b")), Lookup::Miss(_)));
    }

    #[test]
    fn eviction_falls_back_to_disk_tier() {
        let dir = tmpdir("fallback");
        let store = TieredStore::new(
            StoreConfig {
                memory_budget_bytes: 12,
                disk_dir: Some(dir.clone()),
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        match store.lookup_or_begin(&key("a")) {
            Lookup::Miss(g) => {
                g.fulfill(r#"{"k":"a"}"#.to_string());
            }
            Lookup::Hit(..) => panic!(),
        }
        match store.lookup_or_begin(&key("b")) {
            Lookup::Miss(g) => {
                g.fulfill(r#"{"k":"b"}"#.to_string());
            }
            Lookup::Hit(..) => panic!(),
        }
        // "a" was evicted from memory but persists on disk
        match store.lookup_or_begin(&key("a")) {
            Lookup::Hit(a, tier) => {
                assert_eq!(a.as_str(), r#"{"k":"a"}"#);
                assert_eq!(tier, HitTier::Disk);
            }
            Lookup::Miss(_) => panic!("disk tier must answer"),
        }
        let s = store.stats();
        assert_eq!(s.disk_hits, 1);
        assert_eq!(s.misses, 2);
        // and the disk hit filled memory back in
        assert!(matches!(
            store.lookup_or_begin(&key("a")),
            Lookup::Hit(_, HitTier::Memory)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_artifact_is_a_miss_and_rebuilds() {
        let dir = tmpdir("corrupt");
        let store = TieredStore::new(
            StoreConfig {
                memory_budget_bytes: 1 << 20,
                disk_dir: Some(dir.clone()),
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        // plant a truncated artifact where the disk tier will find it
        std::fs::write(dir.join("feedc0de.json"), r#"{"cells":[{"lat"#).unwrap();
        match store.lookup_or_begin(&key("feedc0de")) {
            Lookup::Miss(g) => {
                g.fulfill(r#"{"cells":[]}"#.to_string());
            }
            Lookup::Hit(a, _) => panic!("served corrupt bytes: {a}"),
        }
        let s = store.stats();
        assert_eq!(s.corrupt, 1);
        assert_eq!(s.misses, 1);
        // rebuilt artifact replaced the corrupt file
        assert_eq!(
            std::fs::read_to_string(dir.join("feedc0de.json")).unwrap(),
            r#"{"cells":[]}"#
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_lookups_build_once() {
        let store = Arc::new(mem_store());
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                let builds = Arc::clone(&builds);
                std::thread::spawn(move || match store.lookup_or_begin(&key("shared")) {
                    Lookup::Hit(a, _) => a.as_str().to_string(),
                    Lookup::Miss(g) => {
                        builds.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        g.fulfill(r#"{"built":true}"#.to_string())
                            .as_str()
                            .to_string()
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), r#"{"built":true}"#);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight");
        let s = store.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn abandoned_build_releases_waiters() {
        let store = Arc::new(mem_store());
        let k = key("doomed");
        let guard = match store.lookup_or_begin(&k) {
            Lookup::Miss(g) => g,
            Lookup::Hit(..) => panic!(),
        };
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                matches!(store.lookup_or_begin(&key("doomed")), Lookup::Miss(_))
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard); // simulated builder death
        assert!(
            waiter.join().unwrap(),
            "waiter must get its own build claim"
        );
    }

    #[test]
    fn remote_tier_fills_disk_and_memory_inward() {
        use crate::remote::PeerClient;
        struct OneKeyPeer;
        impl PeerClient for OneKeyPeer {
            fn endpoint(&self) -> String {
                "peer:1".to_string()
            }
            fn fetch(&self, key: &ArtifactKey) -> Result<Option<String>, TierError> {
                Ok((key.as_str() == "warm").then(|| r#"{"from":"peer"}"#.to_string()))
            }
            fn publish(&self, _: &ArtifactKey, _: &str) -> Result<(), TierError> {
                Ok(())
            }
        }
        let dir = tmpdir("inward");
        let store = TieredStore::new(
            StoreConfig {
                memory_budget_bytes: 1 << 20,
                disk_dir: Some(dir.clone()),
            },
            &MetricsRegistry::new(),
        )
        .unwrap();
        store.add_peer(Arc::new(OneKeyPeer));
        match store.lookup_or_begin(&key("warm")) {
            Lookup::Hit(a, tier) => {
                assert_eq!(tier, HitTier::Remote);
                assert_eq!(a.as_str(), r#"{"from":"peer"}"#);
            }
            Lookup::Miss(_) => panic!("remote tier must answer"),
        }
        // filled inward: disk file exists, next lookup hits memory
        assert!(dir.join("warm.json").exists());
        assert!(matches!(
            store.lookup_or_begin(&key("warm")),
            Lookup::Hit(_, HitTier::Memory)
        ));
        assert_eq!(store.stats().remote_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_local_never_consults_peers() {
        use crate::remote::PeerClient;
        struct PanicPeer;
        impl PeerClient for PanicPeer {
            fn endpoint(&self) -> String {
                "peer:2".to_string()
            }
            fn fetch(&self, _: &ArtifactKey) -> Result<Option<String>, TierError> {
                panic!("get_local must not reach the remote tier");
            }
            fn publish(&self, _: &ArtifactKey, _: &str) -> Result<(), TierError> {
                Ok(())
            }
        }
        let store = mem_store();
        store.add_peer(Arc::new(PanicPeer));
        assert!(store.get_local(&key("absent")).is_none());
        store
            .insert_local(&key("present"), r#"{"v":9}"#.to_string())
            .unwrap();
        assert_eq!(
            store.get_local(&key("present")).unwrap().as_str(),
            r#"{"v":9}"#
        );
    }

    #[test]
    fn insert_local_rejects_non_json() {
        let store = mem_store();
        let damaged = [
            "not json",
            r#"{"cells":[{"lat"#,
            r#"{"x":-}"#,
            r#"{"name":"\udc00"}"#,
            r#"{"a":1,}"#,
        ];
        for artifact in damaged {
            assert!(matches!(
                store.insert_local(&key("bad"), artifact.to_string()),
                Err(TierError::Corrupt(_))
            ));
            assert!(store.get_local(&key("bad")).is_none());
        }
        assert_eq!(store.stats().corrupt, damaged.len() as u64);
    }

    #[test]
    fn fulfill_publishes_to_peers() {
        use crate::remote::PeerClient;
        use std::sync::Mutex;
        struct RecordingPeer(Mutex<Vec<(String, String)>>);
        impl PeerClient for RecordingPeer {
            fn endpoint(&self) -> String {
                "peer:3".to_string()
            }
            fn fetch(&self, _: &ArtifactKey) -> Result<Option<String>, TierError> {
                Ok(None)
            }
            fn publish(&self, key: &ArtifactKey, artifact: &str) -> Result<(), TierError> {
                self.0
                    .lock()
                    .unwrap()
                    .push((key.to_string(), artifact.to_string()));
                Ok(())
            }
        }
        let store = mem_store();
        let peer = Arc::new(RecordingPeer(Mutex::new(Vec::new())));
        store.add_peer(Arc::clone(&peer) as Arc<dyn PeerClient>);
        match store.lookup_or_begin(&key("pub")) {
            Lookup::Miss(g) => {
                g.fulfill(r#"{"v":7}"#.to_string());
            }
            Lookup::Hit(..) => panic!(),
        }
        let published = peer.0.lock().unwrap();
        assert_eq!(
            published.as_slice(),
            &[("pub".to_string(), r#"{"v":7}"#.to_string())]
        );
        assert_eq!(store.stats().publishes, 1);
    }

    /// A slow peer delays only the builder: the artifact is in memory and
    /// the coalesced waiters are awake before the publish starts.
    #[test]
    fn fulfill_wakes_waiters_before_publishing() {
        use crate::remote::PeerClient;
        use std::sync::{mpsc, Mutex};
        use std::time::Duration;
        /// Holds every publish until the test releases it.
        struct GatedPeer(Mutex<mpsc::Receiver<()>>);
        impl PeerClient for GatedPeer {
            fn endpoint(&self) -> String {
                "peer:4".to_string()
            }
            fn fetch(&self, _: &ArtifactKey) -> Result<Option<String>, TierError> {
                Ok(None)
            }
            fn publish(&self, _: &ArtifactKey, _: &str) -> Result<(), TierError> {
                let _ = self.0.lock().unwrap().recv_timeout(Duration::from_secs(10));
                Ok(())
            }
        }
        let (release, gate) = mpsc::channel();
        let store = mem_store();
        store.add_peer(Arc::new(GatedPeer(Mutex::new(gate))));
        let Lookup::Miss(guard) = store.lookup_or_begin(&key("slow")) else {
            panic!("cold store cannot hit");
        };
        std::thread::scope(|s| {
            let builder = s.spawn(move || guard.fulfill(r#"{"v":1}"#.to_string()));
            // the waiter coalesces on the claim, or arrives after it, and
            // must get its hit while the publish is still held
            let waiter = s.spawn(|| store.lookup_or_begin(&key("slow")));
            assert!(matches!(
                waiter.join().unwrap(),
                Lookup::Hit(_, HitTier::Memory)
            ));
            assert_eq!(store.stats().publishes, 0, "the publish was released early");
            release.send(()).unwrap();
            builder.join().unwrap();
        });
        assert_eq!(store.stats().publishes, 1);
    }
}
