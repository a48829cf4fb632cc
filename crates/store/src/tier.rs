//! The tier abstraction every cache layer implements.
//!
//! A tier is a fallible key→artifact map. Artifacts are JSON documents
//! carried as `String`s — the store validates bytes coming back from the
//! untrusted tiers (disk survives truncation, peers can be mid-crash), so a
//! tier hit is never served without parsing cleanly first.

use crate::key::ArtifactKey;

/// Why a tier could not answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierError {
    /// The tier itself is unreachable or failing (I/O error, peer down).
    Unavailable(String),
    /// The tier returned bytes that do not parse as a JSON artifact.
    Corrupt(String),
    /// The tier is alive but shedding load (peer answered 429/503).
    Busy,
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Unavailable(e) => write!(f, "tier unavailable: {e}"),
            TierError::Corrupt(e) => write!(f, "corrupt artifact: {e}"),
            TierError::Busy => write!(f, "tier busy"),
        }
    }
}

impl std::error::Error for TierError {}

/// One layer of the cache hierarchy. `get` answers `Ok(None)` for a clean
/// miss; errors are reserved for the tier malfunctioning, so the store can
/// count them and keep walking outward instead of failing the lookup.
pub trait CacheTier: Send + Sync {
    /// Short stable name for metrics and logs (`"memory"`, `"disk"`,
    /// `"remote"`).
    fn name(&self) -> &'static str;
    /// Fetch an artifact. `Ok(None)` is a miss, not an error.
    fn get(&self, key: &ArtifactKey) -> Result<Option<String>, TierError>;
    /// Store an artifact (used for inward fills and build completion).
    fn put(&self, key: &ArtifactKey, artifact: &str) -> Result<(), TierError>;
}

/// Every artifact in the store is a JSON document; anything that does not
/// parse is treated as tier damage, not data. Checks exactly what a parse
/// into `serde_json::Value` would accept, without building the tree.
pub fn validate_artifact(artifact: &str) -> bool {
    serde_json::validate(artifact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_validation_is_json_well_formedness() {
        assert!(validate_artifact(r#"{"latency_ms": 1.5}"#));
        assert!(validate_artifact("[1,2,3]"));
        assert!(!validate_artifact(r#"{"latency_ms": 1."#));
        assert!(!validate_artifact(""));
        assert!(!validate_artifact("not json"));
    }
}
