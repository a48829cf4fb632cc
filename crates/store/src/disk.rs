//! Disk tier: one `<key>.json` file per artifact, written atomically.
//!
//! Reads are defensive: the process can die mid-write (the tmp+rename
//! protocol makes that unlikely, but an operator can also hand the tier a
//! directory of files from anywhere), so every loaded artifact is parsed
//! before being served. A truncated or corrupt file is reported as
//! [`TierError::Corrupt`] — the store counts it, deletes the damaged file,
//! and rebuilds, instead of propagating garbage to a client.

use crate::key::ArtifactKey;
use crate::tier::{validate_artifact, CacheTier, TierError};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub struct DiskTier {
    dir: PathBuf,
}

impl DiskTier {
    /// Open (creating if needed) the backing directory.
    pub fn new(dir: &Path) -> io::Result<DiskTier> {
        fs::create_dir_all(dir)?;
        Ok(DiskTier {
            dir: dir.to_path_buf(),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }
}

impl CacheTier for DiskTier {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn get(&self, key: &ArtifactKey) -> Result<Option<String>, TierError> {
        let path = self.path_for(key);
        let raw = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(TierError::Unavailable(e.to_string())),
        };
        if !validate_artifact(&raw) {
            // never serve the damaged file again; rebuilding overwrites it
            let _ = fs::remove_file(&path);
            return Err(TierError::Corrupt(format!(
                "{} does not parse as JSON",
                path.display()
            )));
        }
        Ok(Some(raw))
    }

    fn put(&self, key: &ArtifactKey, artifact: &str) -> Result<(), TierError> {
        let path = self.path_for(key);
        let tmp = self.dir.join(format!("{key}.json.tmp"));
        fs::write(&tmp, artifact)
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(|e| TierError::Unavailable(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("proof-store-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_artifacts() {
        let dir = tmpdir("rt");
        let tier = DiskTier::new(&dir).unwrap();
        let key = ArtifactKey::new("cafebabe").unwrap();
        assert_eq!(tier.get(&key), Ok(None));
        tier.put(&key, r#"{"ok":true}"#).unwrap();
        assert_eq!(tier.get(&key), Ok(Some(r#"{"ok":true}"#.to_string())));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_corrupt_and_removed() {
        let dir = tmpdir("trunc");
        let tier = DiskTier::new(&dir).unwrap();
        let key = ArtifactKey::new("deadbeef").unwrap();
        let deep = format!("{}{}", "[".repeat(194), "]".repeat(194));
        for damaged in [
            // a partial write: valid prefix, chopped off mid-object
            r#"{"cells":[{"latency"#,
            // cut inside a number, an escape, a literal
            r#"{"latency_ms":1."#,
            r#"{"name":"a\u00"#,
            r#"{"ok":tru"#,
            // bytes no parse accepts, anywhere in an otherwise whole document
            r#"{"name":"\ud800"}"#,
            "{\"name\":\"a\u{1}b\"}",
            r#"{"ok":true} trailing"#,
            &deep,
        ] {
            fs::write(dir.join("deadbeef.json"), damaged).unwrap();
            assert!(
                matches!(tier.get(&key), Err(TierError::Corrupt(_))),
                "{damaged}"
            );
            // the damaged file is gone, so the next probe is a clean miss
            assert_eq!(tier.get(&key), Ok(None));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_cannot_escape_the_directory() {
        // belt and braces: ArtifactKey already rejects '/', so every path
        // the tier builds stays inside its directory
        assert!(ArtifactKey::new("../outside").is_err());
    }
}
