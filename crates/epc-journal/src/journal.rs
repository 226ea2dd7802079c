//! The append-only JSONL journal behind the durable run ([`Journal`]),
//! the fleet coordinator and incremental ingest. Each line is a commit,
//! appended and fsync'd after everything it references is durable.
//!
//! The one recovery rule: a missing file is an empty journal; a final line
//! without its newline is a torn append — dropped even if it parses,
//! reported, and cut off before the next append; any other unparsable
//! line is an `InvalidData` error naming the file and 1-based line; every
//! I/O error names the path.
//!
//! Entries carry no timestamps or host state, so the journal of a resumed
//! run is byte-identical to the journal of an uninterrupted run.
//!
//! [`Log::commit`] is the commit step of every run mode, and the one
//! place an injected [`CrashPoint`] tears a file or fires after the line.

use crate::atomic::{sync_dir, write_atomic, ArtifactRecord};
use crate::crash::{CommitPoint, CrashPoint};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

/// File name of the run journal inside a run directory.
pub const MANIFEST_FILE: &str = "run.manifest.jsonl";

/// An entry type with a journal of its own. The file name belongs to the
/// type, so a handle can never read one journal's lines as another's.
pub trait JournalEntry: Serialize + Deserialize {
    /// File name of this entry type's journal inside its directory.
    const FILE: &'static str;

    /// The files this entry commits, relative to the journal's directory.
    fn files(&self) -> &[ArtifactRecord];
}

/// What [`Log::load`] recovered. A dropped torn tail is sound recovery,
/// but callers surface it (CLI warning, recovery counter) so a clean
/// resume stays distinguishable from one that lost a half-written line.
#[derive(Debug, Clone, PartialEq)]
pub struct Loaded<E> {
    /// Every complete line, in commit order.
    pub entries: Vec<E>,
    /// `true` when the file ended in a line without its newline — a torn
    /// append that was dropped.
    pub recovered_torn_tail: bool,
}

/// Handle to the `E` journal of a directory (the file may not exist yet).
#[derive(Debug, Clone)]
pub struct Log<E> {
    dir: PathBuf,
    entry: PhantomData<fn() -> E>,
}

/// The durable run's stage journal.
pub type Journal = Log<StageEntry>;

impl<E: JournalEntry> Log<E> {
    /// The journal of `dir`.
    pub fn at(dir: &Path) -> Self {
        Log {
            dir: dir.to_path_buf(),
            entry: PhantomData,
        }
    }

    /// Full path of the journal file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(E::FILE)
    }

    /// Loads every committed entry under the module's recovery rule.
    pub fn load(&self) -> io::Result<Loaded<E>> {
        let path = self.path();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(named("reading", &path, e)),
        };
        let (complete, torn) = split_torn_tail(&bytes);
        let entries = complete
            .split(|&b| b == b'\n')
            .enumerate()
            .filter(|(_, line)| !line.iter().all(u8::is_ascii_whitespace))
            .map(|(i, line)| {
                std::str::from_utf8(line)
                    .map_err(|e| e.to_string())
                    .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
                    .map_err(|msg| {
                        let at = format!("{}: line {}", path.display(), i + 1);
                        io::Error::new(io::ErrorKind::InvalidData, format!("{at}: {msg}"))
                    })
            })
            .collect::<io::Result<Vec<E>>>()?;
        Ok(Loaded {
            entries,
            recovered_torn_tail: !torn.is_empty(),
        })
    }

    /// Appends one entry and fsyncs — the commit point. Everything the
    /// entry references must already be durable. A torn tail left by an
    /// earlier crash is cut off first.
    pub fn append(&self, entry: &E) -> io::Result<()> {
        let line = encode_lines(std::slice::from_ref(entry))?;
        let path = self.path();
        let commit = || -> io::Result<()> {
            let mut f = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&path)?;
            cut_torn_tail(&mut f)?;
            f.write_all(line.as_bytes())?;
            f.sync_all()
        };
        commit().map_err(|e| named("appending to", &path, e))?;
        sync_dir(&self.dir)
    }

    /// Appends `entry` as unit `unit`'s commit and plays `crash` out when
    /// it names that unit: `Torn` first halves the entry's first file,
    /// and once the line is durable `After` and `Torn` return the point
    /// that fired. `Before` is checked where the unit starts.
    pub fn commit<K: PartialEq>(
        &self,
        entry: &E,
        unit: &K,
        crash: Option<&CrashPoint<K>>,
    ) -> io::Result<Option<CommitPoint>> {
        let fired = crash
            .filter(|c| c.at == *unit && c.point != CommitPoint::Before)
            .map(|c| c.point);
        if let (Some(CommitPoint::Torn), Some(first)) = (fired, entry.files().first()) {
            let path = self.dir.join(&first.file);
            let tear = || {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(first.bytes / 2)?;
                f.sync_all()
            };
            tear().map_err(|e| named("tearing", &path, e))?;
        }
        self.append(entry)?;
        Ok(fired)
    }

    /// Atomically replaces the journal with exactly `entries` — used when
    /// a resume drops rejected entries or canonicalizes their order.
    pub fn rewrite(&self, entries: &[E]) -> io::Result<()> {
        let text = encode_lines(entries)?;
        write_atomic(&self.dir, E::FILE, text.as_bytes())
            .map(drop)
            .map_err(|e| named("rewriting", &self.path(), e))
    }
}

/// The journal encoding of `entries`: one `serde_json` line each, every
/// line ending in `\n`.
pub fn encode_lines<E: Serialize>(entries: &[E]) -> io::Result<String> {
    entries
        .iter()
        .map(|entry| match serde_json::to_string(entry) {
            Ok(line) => Ok(line + "\n"),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        })
        .collect()
}

/// Splits journal bytes at the last newline: the complete lines before
/// it (without that newline) and the torn append after it.
fn split_torn_tail(bytes: &[u8]) -> (&[u8], &[u8]) {
    let mut parts = bytes.rsplitn(2, |&b| b == b'\n');
    let torn = parts.next().unwrap_or_default();
    (parts.next().unwrap_or_default(), torn)
}

/// Truncates `f` to its newline-terminated prefix, so the next append
/// starts a fresh line instead of extending a torn fragment.
fn cut_torn_tail(f: &mut File) -> io::Result<()> {
    let mut last = [b'\n'];
    let len = f.metadata()?.len();
    if len > 0 {
        f.seek(SeekFrom::Start(len - 1))?;
        f.read_exact(&mut last)?;
    }
    if last != [b'\n'] {
        let mut bytes = Vec::new();
        f.seek(SeekFrom::Start(0))?;
        f.read_to_end(&mut bytes)?;
        let (_, torn) = split_torn_tail(&bytes);
        f.set_len((bytes.len() - torn.len()) as u64)?;
    }
    Ok(())
}

fn named(what: &str, path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// One committed stage: everything a resuming run needs to decide whether
/// the stage can be skipped and, if so, to rehydrate its product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageEntry {
    /// Zero-based position in the stage sequence.
    pub seq: usize,
    /// Stage name (`preprocess` / `analytics` / `dashboard`).
    pub stage: String,
    /// Fingerprint of the effective configuration and stakeholder; a
    /// mismatch invalidates the entry (the run is a different computation).
    pub config_fingerprint: String,
    /// Hash of the run's inputs (dataset, street map, hierarchy).
    pub input_hash: String,
    /// `true` when the supervisor degraded this stage (no product; the
    /// checkpoint list is empty and resuming re-registers the degradation
    /// instead of re-running the stage).
    pub degraded: bool,
    /// Degradation reasons this stage contributed to the run outcome.
    pub reasons: Vec<String>,
    /// Records entering the stage (for resumed stage reports).
    pub records_in: usize,
    /// Records (or artifacts) leaving the stage.
    pub records_out: usize,
    /// Records this stage quarantined.
    pub quarantined: usize,
    /// Fault histogram of the quarantined records.
    pub faults: BTreeMap<String, usize>,
    /// Checkpoint files capturing the stage product, hash-validated on
    /// resume. Paths are relative to the run directory.
    pub checkpoints: Vec<ArtifactRecord>,
}

impl JournalEntry for StageEntry {
    const FILE: &'static str = MANIFEST_FILE;

    fn files(&self) -> &[ArtifactRecord] {
        &self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "epc-journal-manifest-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn entry(seq: usize, stage: &str) -> StageEntry {
        StageEntry {
            seq,
            stage: stage.to_owned(),
            config_fingerprint: "cfg".into(),
            input_hash: "in".into(),
            degraded: false,
            reasons: Vec::new(),
            records_in: 10,
            records_out: 9,
            quarantined: 1,
            faults: BTreeMap::from([("non_finite".to_owned(), 1usize)]),
            checkpoints: vec![ArtifactRecord {
                file: format!("{stage}.json"),
                sha256: "00".into(),
                bytes: 2,
            }],
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        let loaded = j.load().unwrap();
        assert!(loaded.entries.is_empty(), "missing file = empty journal");
        assert!(!loaded.recovered_torn_tail);
        j.append(&entry(0, "preprocess")).unwrap();
        j.append(&entry(1, "analytics")).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries.len(), 2);
        assert_eq!(loaded.entries[0], entry(0, "preprocess"));
        assert_eq!(loaded.entries[1], entry(1, "analytics"));
        assert!(!loaded.recovered_torn_tail, "clean journal reports no tear");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        j.append(&entry(0, "preprocess")).unwrap();
        j.append(&entry(1, "analytics")).unwrap();
        // Simulate a crash mid-append: chop the last line in half.
        let text = fs::read_to_string(j.path()).unwrap();
        fs::write(j.path(), &text[..text.len() - 40]).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries.len(), 1);
        assert_eq!(loaded.entries[0].stage, "preprocess");
        assert!(
            loaded.recovered_torn_tail,
            "discarding a torn tail must be surfaced, not silent"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_interior_line_is_rejected_with_its_line_number() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        j.append(&entry(0, "preprocess")).unwrap();
        let mut text = fs::read_to_string(j.path()).unwrap();
        text.push_str("{not json}\n");
        fs::write(j.path(), &text).unwrap();
        j.append(&entry(2, "dashboard")).unwrap();
        // Dropping line 2 would silently lose the commit on line 3.
        let err = j.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(MANIFEST_FILE) && msg.contains("line 2"),
            "{msg}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_cut_before_the_next_append() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        j.append(&entry(0, "preprocess")).unwrap();
        j.append(&entry(1, "analytics")).unwrap();
        let clean = fs::read(j.path()).unwrap();
        fs::write(j.path(), &clean[..clean.len() - 40]).unwrap();
        let loaded = j.load().unwrap();
        assert!(loaded.recovered_torn_tail);
        j.append(&entry(1, "analytics")).unwrap();
        let healed = j.load().unwrap();
        assert_eq!(
            healed.entries,
            vec![entry(0, "preprocess"), entry(1, "analytics")]
        );
        assert!(!healed.recovered_torn_tail);
        assert_eq!(fs::read(j.path()).unwrap(), clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_plays_a_crash_out_only_at_its_unit() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        let mut e = entry(0, "preprocess");
        e.checkpoints[0] = write_atomic(&dir, "preprocess.json", b"{}").unwrap();
        let crash = |raw: &str| raw.parse::<CrashPoint<usize>>().unwrap();

        // No crash, a crash at another unit, and `before` (the runner's
        // to check) all commit and fire nothing.
        for c in [None, Some(crash("1:torn")), Some(crash("0:before"))] {
            assert_eq!(j.commit(&e, &0, c.as_ref()).unwrap(), None, "{c:?}");
        }
        assert_eq!(j.load().unwrap().entries.len(), 3);
        assert_eq!(fs::read(dir.join("preprocess.json")).unwrap(), b"{}");

        // `after` fires once the line is durable, files untouched.
        let fired = j.commit(&e, &0, Some(&crash("0:after"))).unwrap();
        assert_eq!(fired, Some(CommitPoint::After));
        assert_eq!(j.load().unwrap().entries.len(), 4);
        assert_eq!(fs::read(dir.join("preprocess.json")).unwrap(), b"{}");

        // `torn` halves the first file, then commits the full record.
        assert!(e.checkpoints[0].read_verified(&dir).is_ok());
        let fired = j.commit(&e, &0, Some(&crash("0:torn"))).unwrap();
        assert_eq!(fired, Some(CommitPoint::Torn));
        assert_eq!(j.load().unwrap().entries.last(), Some(&e));
        assert_eq!(fs::read(dir.join("preprocess.json")).unwrap(), b"{");
        assert!(e.checkpoints[0].read_verified(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_error_names_journal_path() {
        let dir = temp_dir();
        // A directory in the journal's place cannot be read as a file.
        fs::create_dir_all(dir.join(MANIFEST_FILE)).unwrap();
        let err = Journal::at(&dir).load().unwrap_err();
        assert!(err.to_string().contains(MANIFEST_FILE), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_truncates_to_prefix() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        j.append(&entry(0, "preprocess")).unwrap();
        j.append(&entry(1, "analytics")).unwrap();
        j.append(&entry(2, "dashboard")).unwrap();
        let all = j.load().unwrap().entries;
        j.rewrite(&all[..1]).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries.len(), 1);
        assert_eq!(loaded.entries[0].stage, "preprocess");
        assert!(!loaded.recovered_torn_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A crash *during* `rewrite` must never lose committed entries.
    /// `rewrite` goes through `write_atomic` (tmp + fsync + rename), so
    /// every intermediate state a kill can leave behind is either the old
    /// journal or the new one. This test walks the protocol's crash
    /// windows explicitly.
    #[test]
    fn rewrite_interrupted_midway_never_loses_committed_entries() {
        let dir = temp_dir();
        let j = Journal::at(&dir);
        j.append(&entry(0, "preprocess")).unwrap();
        j.append(&entry(1, "analytics")).unwrap();
        j.append(&entry(2, "dashboard")).unwrap();
        let committed = j.load().unwrap().entries;

        // Crash window 1: the replacement text was written to the tmp
        // file (possibly torn), but the rename never happened. The live
        // journal must still hold every committed entry.
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        fs::write(&tmp, b"{\"seq\":0,\"stage\":\"prep").unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(
            loaded.entries, committed,
            "tmp file must not shadow the journal"
        );
        assert!(!loaded.recovered_torn_tail);

        // Crash window 2: the kill landed after the rename. The journal
        // is exactly the rewritten prefix — complete lines, no tear.
        j.rewrite(&committed[..2]).unwrap();
        let loaded = j.load().unwrap();
        assert_eq!(loaded.entries, committed[..2]);
        assert!(!loaded.recovered_torn_tail);

        // A stale tmp from window 1 must not break later appends either.
        fs::write(&tmp, b"stale garbage").unwrap();
        j.append(&entry(2, "dashboard")).unwrap();
        assert_eq!(j.load().unwrap().entries, committed);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-running an interrupted rewrite (the resume path re-validates
    /// and rewrites again) converges to the same bytes as a rewrite that
    /// was never interrupted.
    #[test]
    fn rewrite_after_interrupted_rewrite_is_byte_identical() {
        let dir_clean = temp_dir();
        let dir_crashed = temp_dir();
        for dir in [&dir_clean, &dir_crashed] {
            let j = Journal::at(dir);
            j.append(&entry(0, "preprocess")).unwrap();
            j.append(&entry(1, "analytics")).unwrap();
        }
        let j_crashed = Journal::at(&dir_crashed);
        let prefix = j_crashed.load().unwrap().entries;
        // Interrupted attempt: tmp written, rename lost.
        fs::write(
            dir_crashed.join(format!("{MANIFEST_FILE}.tmp")),
            b"half a li",
        )
        .unwrap();
        // Both sides now perform the rewrite to the same prefix.
        j_crashed.rewrite(&prefix[..1]).unwrap();
        let j_clean = Journal::at(&dir_clean);
        let clean_prefix = j_clean.load().unwrap().entries;
        j_clean.rewrite(&clean_prefix[..1]).unwrap();
        let a = fs::read(j_clean.path()).unwrap();
        let b = fs::read(j_crashed.path()).unwrap();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir_clean).unwrap();
        fs::remove_dir_all(&dir_crashed).unwrap();
    }

    #[test]
    fn journal_bytes_are_deterministic() {
        let dir_a = temp_dir();
        let dir_b = temp_dir();
        for dir in [&dir_a, &dir_b] {
            let j = Journal::at(dir);
            j.append(&entry(0, "preprocess")).unwrap();
            j.append(&entry(1, "analytics")).unwrap();
        }
        let a = fs::read(Journal::at(&dir_a).path()).unwrap();
        let b = fs::read(Journal::at(&dir_b).path()).unwrap();
        assert_eq!(a, b);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }
}
