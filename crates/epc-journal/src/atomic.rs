//! Atomic, torn-write-safe file writes.
//!
//! The commit protocol is the classic one: write the full content to
//! `<name>.tmp` in the destination directory, fsync the file, rename it
//! over the final path, then fsync the directory so the rename itself is
//! durable. A crash at any point leaves the final path either absent,
//! with its previous content, or with the complete new content — never a
//! prefix.

use crate::sha256::hash_hex;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// What one atomic write produced: the file's bare name, its content
/// hash, and its size. Journal entries embed these so a resuming run can
/// verify every checkpoint byte-for-byte before trusting it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactRecord {
    /// Bare file name (no directory components).
    pub file: String,
    /// Lowercase-hex SHA-256 of the content.
    pub sha256: String,
    /// Content length in bytes.
    pub bytes: u64,
}

impl ArtifactRecord {
    /// Reads `self.file` under `dir` and verifies length and hash.
    /// Returns the content on success, a descriptive error otherwise.
    pub fn read_verified(&self, dir: &Path) -> io::Result<Vec<u8>> {
        let path = dir.join(&self.file);
        let content = fs::read(&path)?;
        if content.len() as u64 != self.bytes || hash_hex(&content) != self.sha256 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint {} failed hash validation ({} bytes on disk, {} recorded)",
                    path.display(),
                    content.len(),
                    self.bytes
                ),
            ));
        }
        Ok(content)
    }
}

/// Atomically writes `contents` to `dir/name` (write `.tmp`, fsync,
/// rename, fsync dir) and returns the [`ArtifactRecord`] describing it.
/// `name` must be a bare file name.
pub fn write_atomic(dir: &Path, name: &str, contents: &[u8]) -> io::Result<ArtifactRecord> {
    if name.contains(['/', '\\']) || name.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("artifact name {name:?} must be a bare file name"),
        ));
    }
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dir.join(name))?;
    sync_dir(dir)?;
    Ok(ArtifactRecord {
        file: name.to_owned(),
        sha256: hash_hex(contents),
        bytes: contents.len() as u64,
    })
}

/// [`write_atomic`] addressed by full path instead of `(dir, name)`.
/// Parent directories are created as needed.
pub fn write_atomic_path(path: &Path, contents: &[u8]) -> io::Result<ArtifactRecord> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    fs::create_dir_all(&parent)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("path {} has no valid file name", path.display()),
            )
        })?
        .to_owned();
    write_atomic(&parent, &name, contents)
}

/// Fsyncs a directory so a completed rename or a newly created file
/// survives power loss; errors name the directory. Only unix can open a
/// directory for sync, so elsewhere this is a no-op.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    if !cfg!(unix) {
        return Ok(());
    }
    fs::File::open(dir).and_then(|d| d.sync_all()).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("syncing directory {}: {e}", dir.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-journal-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_then_read_verified_round_trips() {
        let dir = temp_dir();
        let rec = write_atomic(&dir, "a.json", b"{\"k\":1}").unwrap();
        assert_eq!(rec.file, "a.json");
        assert_eq!(rec.bytes, 7);
        assert_eq!(rec.read_verified(&dir).unwrap(), b"{\"k\":1}");
        // No stray temp file is left behind.
        assert!(!dir.join("a.json.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrite_replaces_content_atomically() {
        let dir = temp_dir();
        write_atomic(&dir, "f", b"old").unwrap();
        let rec = write_atomic(&dir, "f", b"new content").unwrap();
        assert_eq!(fs::read(dir.join("f")).unwrap(), b"new content");
        assert_eq!(rec.bytes, 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_detected_by_hash() {
        let dir = temp_dir();
        let rec = write_atomic(&dir, "c.bin", b"0123456789").unwrap();
        // Simulate a torn write: truncate the committed file.
        let f = fs::OpenOptions::new()
            .write(true)
            .open(dir.join("c.bin"))
            .unwrap();
        f.set_len(4).unwrap();
        drop(f);
        let err = rec.read_verified(&dir).unwrap_err();
        assert!(err.to_string().contains("hash validation"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_length_corruption_is_detected() {
        let dir = temp_dir();
        let rec = write_atomic(&dir, "d.bin", b"abcdef").unwrap();
        fs::write(dir.join("d.bin"), b"abcdeX").unwrap();
        assert!(rec.read_verified(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_with_separators_are_rejected() {
        let dir = temp_dir();
        assert!(write_atomic(&dir, "sub/dir.txt", b"x").is_err());
        assert!(write_atomic(&dir, "", b"x").is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_path_creates_parents() {
        let dir = temp_dir();
        let path = dir.join("nested/deep/out.txt");
        let rec = write_atomic_path(&path, b"hello").unwrap();
        assert_eq!(rec.file, "out.txt");
        assert_eq!(fs::read(path).unwrap(), b"hello");
        fs::remove_dir_all(&dir).unwrap();
    }
}
