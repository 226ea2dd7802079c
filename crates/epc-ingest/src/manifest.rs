//! The generation manifest (`generations.manifest.jsonl`): the shared
//! `epc-journal` [`Log`] over [`GenerationEntry`] lines — one per sealed
//! generation, appended after its deltas and `current/` are durable —
//! plus the hash-chain check of [`GenerationManifest::load_validated`].

use crate::generation::{validate_chain, GenerationEntry};
use epc_journal::{write_atomic_path, JournalEntry, Loaded, Log};
use std::io;
use std::ops::Deref;
use std::path::Path;

/// File name of the generation manifest inside an ingest run directory.
pub const GENERATIONS_FILE: &str = "generations.manifest.jsonl";

impl JournalEntry for GenerationEntry {
    const FILE: &'static str = GENERATIONS_FILE;
}

/// Handle to an ingest run directory's generation manifest: the plain
/// [`Log`] (`load` / `append` / `rewrite`) plus the hash-chain check.
#[derive(Debug, Clone)]
pub struct GenerationManifest(Log<GenerationEntry>);

impl Deref for GenerationManifest {
    type Target = Log<GenerationEntry>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl GenerationManifest {
    /// The manifest of `run_dir` (the file itself may not exist yet).
    pub fn at(run_dir: &Path) -> Self {
        GenerationManifest(Log::at(run_dir))
    }

    /// Loads the manifest and validates the sealed prefix's hash chain,
    /// returning the entries plus the chain tip the next generation must
    /// record as its parent. Chain violations are `InvalidData` errors
    /// naming the manifest path and line — a tampered manifest must never
    /// be silently folded.
    pub fn load_validated(&self) -> io::Result<(Loaded<GenerationEntry>, String)> {
        let loaded = self.load()?;
        let tip = validate_chain(&loaded.entries).map_err(|msg| {
            let msg = format!("{}: {msg}", self.path().display());
            io::Error::new(io::ErrorKind::InvalidData, msg)
        })?;
        Ok((loaded, tip))
    }
}

/// Writes `contents` to `path` with the crate's atomic discipline —
/// re-exported convenience so runner code checkpointing generation deltas
/// under `gens/gen-%05d/` does not need to depend on `epc-journal`
/// directly.
pub fn write_delta(path: &Path, contents: &[u8]) -> io::Result<epc_journal::ArtifactRecord> {
    write_atomic_path(path, contents)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::generation::{GenerationOutcome, GENESIS};
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-ingest-manifest-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(seq: usize, parent: &str) -> GenerationEntry {
        GenerationEntry {
            seq,
            batch: format!("b{seq}.csv"),
            batch_hash: format!("bh{seq}"),
            config_fingerprint: "cfg".into(),
            cumulative_input_hash: format!("cum{seq}"),
            parent: parent.to_owned(),
            outcome: GenerationOutcome::Complete,
            reasons: Vec::new(),
            recompute: "exact".into(),
            records_in: 10,
            records_kept: 9,
            quarantined: 1,
            faults: BTreeMap::new(),
            artifacts_written: 2,
            artifacts_carried: 0,
            checkpoints: Vec::new(),
            current: Vec::new(),
        }
    }

    fn seal(m: &GenerationManifest, n: usize) -> Vec<GenerationEntry> {
        let mut parent = GENESIS.to_owned();
        let mut out = Vec::new();
        for seq in 0..n {
            let e = entry(seq, &parent);
            m.append(&e).unwrap();
            parent = e.chain_hash();
            out.push(e);
        }
        out
    }

    #[test]
    fn load_validated_returns_the_chain_tip() {
        let dir = temp_dir();
        let m = GenerationManifest::at(&dir);
        let (loaded, tip) = m.load_validated().unwrap();
        assert!(loaded.entries.is_empty());
        assert_eq!(tip, GENESIS);
        let sealed = seal(&m, 3);
        let (loaded, tip) = m.load_validated().unwrap();
        assert_eq!(loaded.entries.len(), 3);
        assert_eq!(tip, sealed[2].chain_hash());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_validated_rejects_a_tampered_prefix() {
        let dir = temp_dir();
        let m = GenerationManifest::at(&dir);
        let mut sealed = seal(&m, 3);
        sealed[1].records_kept = 999; // tamper, then rewrite the file
        m.rewrite(&sealed).unwrap();
        let err = m.load_validated().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("hash chain"), "{msg}");
        // Line 3's parent no longer matches the tampered line 2.
        let at = format!("{}: line 3: ", m.path().display());
        assert!(msg.starts_with(&at), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_delta_creates_parents_and_verifies() {
        let dir = temp_dir();
        let path = dir.join("gens/gen-00000/clean.delta.json");
        let rec = write_delta(&path, b"{\"x\":1}").unwrap();
        assert_eq!(rec.bytes, 7);
        let bytes = rec.read_verified(&dir.join("gens/gen-00000")).unwrap();
        assert_eq!(bytes, b"{\"x\":1}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
