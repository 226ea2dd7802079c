//! # epc-journal
//!
//! Run durability for the INDICE pipeline, in the WAL/crash-recovery
//! spirit: a killed process must lose at most the stage it was inside,
//! never the whole run, and a restarted run must produce artifacts
//! byte-identical to an uninterrupted one.
//!
//! Two building blocks:
//!
//! * **Atomic artifact writes** — [`write_atomic`] writes to `<name>.tmp`,
//!   fsyncs, renames over the final path, and fsyncs the directory. A
//!   crash mid-write leaves either the old content or the new content on
//!   disk, never a torn mix. Every write returns an [`ArtifactRecord`]
//!   carrying the content's SHA-256, so readers can *detect* corruption
//!   that slipped past the rename protocol (disk faults, manual edits,
//!   injected torn writes).
//! * **The journal** — [`Log<E>`] is an append-only JSONL file of
//!   [`JournalEntry`] lines with one recovery rule (torn tail dropped and
//!   reported, any other bad line rejected with its line number). The
//!   durable run's [`Journal`] is `Log<StageEntry>`: `run.manifest.jsonl`,
//!   one [`StageEntry`] per committed pipeline stage with config
//!   fingerprint, input hash, and the checkpoint files (with hashes) that
//!   capture the stage's product. A resuming run replays the journal,
//!   skips every stage whose entry validates, and re-executes from the
//!   first invalid entry onward. The fleet and ingest journals are the
//!   same `Log` over their own entry types.
//!
//! Entries deliberately contain no timestamps or host state: the journal
//! of a resumed run is byte-identical to the journal of an uninterrupted
//! run, so the chaos gate can hash the whole run directory.

mod atomic;
mod journal;
mod sha256;

pub use atomic::{write_atomic, write_atomic_path, ArtifactRecord};
pub use journal::{encode_lines, Journal, JournalEntry, Loaded, Log, StageEntry, MANIFEST_FILE};
pub use sha256::{hash_hex, Sha256};
