//! The generation grammar: what one sealed micro-batch records.

use epc_journal::{hash_hex, ArtifactRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Directory (relative to the run dir) holding sealed generation deltas.
pub const GENS_DIR: &str = "gens";

/// Directory (relative to the run dir) holding the cumulative artifacts —
/// a durable run directory equivalent to a one-shot run over every sealed
/// batch concatenated.
pub const CURRENT_DIR: &str = "current";

/// The chain-hash sentinel of the first generation (no parent).
pub const GENESIS: &str = "genesis";

/// How a generation's batch ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GenerationOutcome {
    /// Every stage produced its product; the batch is fully folded in.
    Complete,
    /// A degradable stage was skipped (supervisor policy); cumulative
    /// artifacts cover what could be computed.
    Degraded,
    /// The batch was poisoned (nothing survived quarantine): its records
    /// contribute nothing, sealed generations and `current/` are
    /// untouched, and the entry only records the abandonment.
    Abandoned,
}

impl GenerationOutcome {
    /// The CLI exit code for a run whose *worst* generation had this
    /// outcome (mirrors `RunOutcome`: 0 complete, 3 degraded, 1 failed).
    pub fn exit_code(&self) -> u8 {
        match self {
            GenerationOutcome::Complete => 0,
            GenerationOutcome::Degraded => 3,
            GenerationOutcome::Abandoned => 1,
        }
    }

    /// Stable lowercase label (`complete` / `degraded` / `abandoned`).
    pub fn as_str(&self) -> &'static str {
        match self {
            GenerationOutcome::Complete => "complete",
            GenerationOutcome::Degraded => "degraded",
            GenerationOutcome::Abandoned => "abandoned",
        }
    }
}

/// The directory name of generation `seq` (`gen-00042`).
pub fn gen_dir_name(seq: usize) -> String {
    format!("gen-{seq:05}")
}

/// The directory of generation `seq`, relative to the run dir
/// (`gens/gen-00042`).
pub fn gen_dir(seq: usize) -> PathBuf {
    PathBuf::from(GENS_DIR).join(gen_dir_name(seq))
}

/// One sealed generation: everything a resuming ingest needs to decide
/// whether the batch can be skipped, to fold its deltas, and to prove the
/// sealed prefix is exactly what was committed.
///
/// Like `epc-journal`'s `StageEntry`, an entry is a pure function of the
/// run's inputs and configuration — no timestamps, no host names — so the
/// manifest of a resumed ingest is byte-identical to one that never
/// crashed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GenerationEntry {
    /// Zero-based position in the batch sequence.
    pub seq: usize,
    /// Batch label (the input file's name, not its path).
    pub batch: String,
    /// Hash of the batch's input records (CSV bytes of the parsed batch).
    pub batch_hash: String,
    /// Fingerprint of the effective configuration and stakeholder; a
    /// mismatch invalidates the whole sealed prefix.
    pub config_fingerprint: String,
    /// Hash over the *cumulative* input (all batches up to and including
    /// this one) — what a one-shot run over the concatenation would see.
    pub cumulative_input_hash: String,
    /// Chain hash of the parent entry ([`GENESIS`] for `seq` 0). Forms a
    /// hash chain over the manifest, so a tampered or mixed-up prefix is
    /// detected before its deltas are folded.
    pub parent: String,
    /// How the batch ended up.
    pub outcome: GenerationOutcome,
    /// Degradation/abandonment reasons (deterministic order).
    pub reasons: Vec<String>,
    /// Recompute mode that sealed this generation: always `exact`. Resume
    /// rejects an entry recording anything else and folds it again.
    pub recompute: String,
    /// Records entering the batch (pre-validation).
    pub records_in: usize,
    /// Records from this batch surviving cleaning + outlier removal.
    pub records_kept: usize,
    /// Records this batch quarantined.
    pub quarantined: usize,
    /// Fault histogram of the quarantined records.
    pub faults: BTreeMap<String, usize>,
    /// Cumulative artifacts rewritten for this generation.
    pub artifacts_written: usize,
    /// Cumulative artifacts byte-identical to the previous generation and
    /// carried without rewriting.
    pub artifacts_carried: usize,
    /// Checkpoint files sealing this generation's delta state,
    /// hash-validated on resume. Paths are relative to the run directory.
    pub checkpoints: Vec<ArtifactRecord>,
    /// The full cumulative artifact set under `current/` as of this
    /// generation (paths relative to `current/`). The next generation's
    /// `artifacts_written` / `artifacts_carried` counters are computed
    /// against *this recorded list*, never against the disk state, so a
    /// crashed-and-resumed manifest stays byte-identical to an
    /// uninterrupted one.
    pub current: Vec<ArtifactRecord>,
}

impl GenerationEntry {
    /// The chain hash of this entry: SHA-256 over its serialized JSON
    /// (which includes `parent`, so the hash covers the whole prefix).
    pub fn chain_hash(&self) -> String {
        // Serialization of a plain struct cannot fail; fall back to a
        // sentinel that can never equal a real hex digest.
        match serde_json::to_string(self) {
            Ok(json) => hash_hex(json.as_bytes()),
            Err(_) => "unserializable".to_owned(),
        }
    }

    /// This generation's delta directory, relative to the run dir.
    pub fn dir(&self) -> PathBuf {
        gen_dir(self.seq)
    }
}

/// Validates that `entries` form a well-formed sealed prefix: contiguous
/// `seq` from 0, a consistent config fingerprint, and an intact parent
/// hash chain. Returns the chain hash of the last entry ([`GENESIS`] when
/// empty), i.e. the `parent` the next generation must record.
///
/// An error starts with the offending entry's 1-based manifest line. The
/// manifest holds one line per entry, so entry `i` is line `i + 1`.
pub fn validate_chain(entries: &[GenerationEntry]) -> Result<String, String> {
    let mut parent = GENESIS.to_owned();
    for (i, entry) in entries.iter().enumerate() {
        let line = i + 1;
        if entry.seq != i {
            return Err(format!(
                "line {line}: generation manifest out of order: entry {i} has seq {}",
                entry.seq
            ));
        }
        if entry.parent != parent {
            let of = if i == 0 {
                String::new()
            } else {
                format!(", the chain hash of line {i}")
            };
            return Err(format!(
                "line {line}: generation {} breaks the hash chain: parent {} != expected {parent}{of}",
                entry.seq, entry.parent
            ));
        }
        if i > 0 && entry.config_fingerprint != entries[0].config_fingerprint {
            return Err(format!(
                "line {line}: generation {} was sealed under a different configuration than line 1",
                entry.seq
            ));
        }
        parent = entry.chain_hash();
    }
    Ok(parent)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn entry(seq: usize, parent: &str) -> GenerationEntry {
        GenerationEntry {
            seq,
            batch: format!("batch-{seq}.csv"),
            batch_hash: format!("bh{seq}"),
            config_fingerprint: "cfg".into(),
            cumulative_input_hash: format!("cum{seq}"),
            parent: parent.to_owned(),
            outcome: GenerationOutcome::Complete,
            reasons: Vec::new(),
            recompute: "exact".into(),
            records_in: 100,
            records_kept: 95,
            quarantined: 5,
            faults: BTreeMap::from([("non_finite".to_owned(), 5usize)]),
            artifacts_written: 3,
            artifacts_carried: 1,
            checkpoints: vec![ArtifactRecord {
                file: format!("gens/gen-{seq:05}/clean.delta.json"),
                sha256: "00".into(),
                bytes: 2,
            }],
            current: vec![ArtifactRecord {
                file: "dashboard.html".into(),
                sha256: "11".into(),
                bytes: 4,
            }],
        }
    }

    /// A well-formed chain: each entry's parent is the previous chain hash.
    fn chain(n: usize) -> Vec<GenerationEntry> {
        let mut entries: Vec<GenerationEntry> = Vec::new();
        let mut parent = GENESIS.to_owned();
        for seq in 0..n {
            let e = entry(seq, &parent);
            parent = e.chain_hash();
            entries.push(e);
        }
        entries
    }

    #[test]
    fn outcome_exit_codes_match_run_outcome_policy() {
        assert_eq!(GenerationOutcome::Complete.exit_code(), 0);
        assert_eq!(GenerationOutcome::Degraded.exit_code(), 3);
        assert_eq!(GenerationOutcome::Abandoned.exit_code(), 1);
        assert_eq!(GenerationOutcome::Abandoned.as_str(), "abandoned");
    }

    #[test]
    fn gen_dir_is_zero_padded_and_sortable() {
        assert_eq!(gen_dir_name(0), "gen-00000");
        assert_eq!(gen_dir_name(42), "gen-00042");
        assert_eq!(gen_dir(7), PathBuf::from("gens/gen-00007"));
        let mut names: Vec<String> = [3usize, 11, 0, 100]
            .iter()
            .map(|&s| gen_dir_name(s))
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec!["gen-00000", "gen-00003", "gen-00011", "gen-00100"]
        );
    }

    #[test]
    fn chain_hash_is_deterministic_and_parent_sensitive() {
        let a = entry(0, GENESIS);
        let b = entry(0, GENESIS);
        assert_eq!(a.chain_hash(), b.chain_hash());
        let c = entry(0, "different-parent");
        assert_ne!(a.chain_hash(), c.chain_hash());
        let mut d = entry(0, GENESIS);
        d.records_kept += 1;
        assert_ne!(a.chain_hash(), d.chain_hash(), "hash covers the payload");
    }

    #[test]
    fn validate_chain_accepts_well_formed_prefixes() {
        for n in 0..4 {
            let entries = chain(n);
            let tip = validate_chain(&entries).unwrap();
            if n == 0 {
                assert_eq!(tip, GENESIS);
            } else {
                assert_eq!(tip, entries.last().unwrap().chain_hash());
            }
        }
    }

    #[test]
    fn validate_chain_rejects_tampering() {
        // Broken seq.
        let mut entries = chain(3);
        entries[1].seq = 5;
        let err = validate_chain(&entries).unwrap_err();
        assert!(
            err.starts_with("line 2: ") && err.contains("out of order"),
            "{err}"
        );

        // Tampered payload: entry 1's recorded chain no longer matches
        // entry 2's parent.
        let mut entries = chain(3);
        entries[1].records_kept = 9999;
        let err = validate_chain(&entries).unwrap_err();
        assert!(
            err.starts_with("line 3: ")
                && err.contains("breaks the hash chain")
                && err.ends_with("the chain hash of line 2"),
            "{err}"
        );

        // Config drift.
        let mut entries = chain(3);
        // Rebuild the chain with a divergent fingerprint so the hashes
        // line up but the fingerprint check still fires.
        entries[2].config_fingerprint = "other".into();
        let parent = entries[1].chain_hash();
        entries[2].parent = parent;
        let err = validate_chain(&entries).unwrap_err();
        assert!(
            err.starts_with("line 3: ") && err.contains("different configuration"),
            "{err}"
        );
    }

    #[test]
    fn entry_round_trips_through_json() {
        let entries = chain(2);
        for e in &entries {
            let json = serde_json::to_string(e).unwrap();
            let back: GenerationEntry = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
        }
    }
}
