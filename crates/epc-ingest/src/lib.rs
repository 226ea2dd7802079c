//! # epc-ingest
//!
//! Crash-safe incremental ingest for the INDICE pipeline: a run directory
//! becomes a sequence of sealed **generations**, one per ingested
//! micro-batch, committed by an append-fsync'd line in
//! `generations.manifest.jsonl` (the same append-then-fsync commit-point
//! discipline as `epc-journal`'s run manifest — the manifest line *is* the
//! commit; everything it references must already be durable).
//!
//! Layout of an ingest run directory:
//!
//! ```text
//! out/
//!   generations.manifest.jsonl   one GenerationEntry JSON line per batch
//!   gens/gen-00000/              sealed per-generation checkpoint deltas
//!   gens/gen-00001/
//!   current/                     cumulative artifacts (a durable run dir)
//! ```
//!
//! Sealed generations are immutable; `current/` is rebuilt (last-write-wins,
//! deterministic bytes) after each batch, so re-processing a batch after a
//! crash rewrites identical content. Entries form a hash chain — each
//! records the chain hash of its parent — so a resuming ingest can prove
//! the sealed prefix it is folding is exactly the one that was committed.
//!
//! This crate holds the *bookkeeping*: the generation grammar, manifest
//! I/O, chain validation, and directory layout. The pipeline-aware runner
//! (cleaning deltas, mergeable analytics, dashboard regeneration) lives in
//! `indice::generations`.

mod generation;
mod manifest;

pub use generation::{
    gen_dir, gen_dir_name, validate_chain, GenerationEntry, GenerationOutcome, CURRENT_DIR,
    GENESIS, GENS_DIR,
};
pub use manifest::{write_delta, GenerationManifest, GENERATIONS_FILE};
