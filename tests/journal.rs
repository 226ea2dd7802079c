//! Crash-window suite for the one journal every run mode commits through.
//!
//! `epc_journal::Log<E>` backs the durable run (`StageEntry`), the fleet
//! coordinator (`FleetEvent`) and incremental ingest (`GenerationEntry`).
//! Each property below runs once per entry type, so the three journals
//! are held to the same recovery rule: a final line without its newline
//! is a torn append (dropped, reported, and cut before the next append),
//! any other unparsable line is an `InvalidData` error naming the file
//! and line, and a rewrite interrupted at any point leaves either the old
//! journal or the new one.
// Test code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_coord::FleetEvent;
use epc_ingest::{GenerationEntry, GenerationOutcome, GENESIS};
use epc_journal::{encode_lines, ArtifactRecord, JournalEntry, Log, StageEntry};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "indice-journal-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A journal entry type with three distinct sample entries. Each sample
/// carries a non-ASCII string, so byte-offset tears also split
/// multi-byte characters.
trait Sample: JournalEntry + Clone + PartialEq + Debug {
    fn samples() -> Vec<Self>;
}

fn checkpoint(file: &str) -> ArtifactRecord {
    ArtifactRecord {
        file: file.to_owned(),
        sha256: "ab".repeat(32),
        bytes: 1234,
    }
}

impl Sample for StageEntry {
    fn samples() -> Vec<Self> {
        ["preprocess", "analytics", "dashboard"]
            .iter()
            .enumerate()
            .map(|(seq, stage)| StageEntry {
                seq,
                stage: (*stage).to_owned(),
                config_fingerprint: "cfg".into(),
                input_hash: "in".into(),
                degraded: seq == 1,
                reasons: vec![format!("città {seq}")],
                records_in: 300 - seq,
                records_out: 290 - seq,
                quarantined: seq,
                faults: BTreeMap::from([("non_finite".to_owned(), seq)]),
                checkpoints: vec![checkpoint(&format!("checkpoints/{stage}.ckpt.json"))],
            })
            .collect()
    }
}

impl Sample for FleetEvent {
    fn samples() -> Vec<Self> {
        vec![
            FleetEvent::scheduled("00-torino", "fp"),
            FleetEvent::retried("00-torino", "fp", 1, 120, "stage panicked in città"),
            FleetEvent::committed(
                "00-torino",
                "fp",
                2,
                false,
                vec!["città".to_owned()],
                BTreeMap::from([("kept".to_owned(), "290".to_owned())]),
                vec![checkpoint("cities/00-torino/metrics.json")],
            ),
        ]
    }
}

impl Sample for GenerationEntry {
    fn samples() -> Vec<Self> {
        let mut parent = GENESIS.to_owned();
        (0..3)
            .map(|seq| {
                let entry = GenerationEntry {
                    seq,
                    batch: format!("città-{seq}.csv"),
                    batch_hash: format!("bh{seq}"),
                    config_fingerprint: "cfg".into(),
                    cumulative_input_hash: format!("cum{seq}"),
                    parent: parent.clone(),
                    outcome: GenerationOutcome::Complete,
                    reasons: Vec::new(),
                    recompute: "exact".into(),
                    records_in: 100,
                    records_kept: 97,
                    quarantined: 3,
                    faults: BTreeMap::new(),
                    artifacts_written: 4,
                    artifacts_carried: seq,
                    checkpoints: vec![checkpoint("clean.delta.json")],
                    current: vec![checkpoint("dashboard.html")],
                };
                parent = entry.chain_hash();
                entry
            })
            .collect()
    }
}

/// The journal of `dir` holding every sample, appended one by one, plus
/// its bytes.
fn committed<E: Sample>(dir: &Path) -> (Log<E>, Vec<u8>) {
    let log = Log::<E>::at(dir);
    for entry in E::samples() {
        log.append(&entry).unwrap();
    }
    let bytes = fs::read(log.path()).unwrap();
    (log, bytes)
}

fn round_trip<E: Sample>() {
    let dir = TempDir::new();
    let empty = Log::<E>::at(&dir.0).load().unwrap();
    assert!(
        empty.entries.is_empty(),
        "a missing file is an empty journal"
    );
    assert!(!empty.recovered_torn_tail);
    let (log, bytes) = committed::<E>(&dir.0);
    let loaded = log.load().unwrap();
    assert_eq!(loaded.entries, E::samples());
    assert!(!loaded.recovered_torn_tail);
    assert_eq!(bytes, encode_lines(&E::samples()).unwrap().into_bytes());
}

fn torn_tail_at_every_offset<E: Sample>() {
    let dir = TempDir::new();
    let (log, bytes) = committed::<E>(&dir.0);
    let ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    for cut in 0..=bytes.len() {
        fs::write(log.path(), &bytes[..cut]).unwrap();
        let loaded = log
            .load()
            .unwrap_or_else(|e| panic!("cut at byte {cut}: {e}"));
        let whole = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(loaded.entries, E::samples()[..whole], "cut at byte {cut}");
        assert_eq!(
            loaded.recovered_torn_tail,
            cut > 0 && !ends.contains(&cut),
            "the flag is set exactly when bytes were dropped (cut at byte {cut})"
        );
    }
}

fn torn_tail_is_cut_before_the_next_append<E: Sample>() {
    let dir = TempDir::new();
    let (log, clean) = committed::<E>(&dir.0);
    let last_start = clean[..clean.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    // Half of the last line, and all of it but its newline (a line that
    // parses but was never committed).
    for cut in [last_start + (clean.len() - last_start) / 2, clean.len() - 1] {
        fs::write(log.path(), &clean[..cut]).unwrap();
        let torn = log.load().unwrap();
        assert!(torn.recovered_torn_tail, "cut at byte {cut}");
        assert_eq!(torn.entries.len(), 2, "cut at byte {cut}");
        log.append(&E::samples()[2]).unwrap();
        let healed = log.load().unwrap();
        assert_eq!(healed.entries, E::samples(), "cut at byte {cut}");
        assert!(!healed.recovered_torn_tail, "cut at byte {cut}");
        assert_eq!(fs::read(log.path()).unwrap(), clean, "cut at byte {cut}");
    }
}

fn corrupt_middle_line_is_rejected<E: Sample>() {
    let dir = TempDir::new();
    let (log, bytes) = committed::<E>(&dir.0);
    let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let half = &lines[1][..lines[1].len() / 2];
    for bad in [half, b"{not json}", b"\xff\xfe"] {
        fs::write(log.path(), [lines[0], bad, lines[2], b""].join(&b'\n')).unwrap();
        let err = log.load().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        assert!(msg.contains(E::FILE) && msg.contains("line 2"), "{msg}");
    }
}

fn stale_tmp_in_every_rewrite_window<E: Sample>() {
    let dir = TempDir::new();
    let (log, bytes) = committed::<E>(&dir.0);
    let tmp = dir.0.join(format!("{}.tmp", E::FILE));
    let prefix = encode_lines(&E::samples()[..2]).unwrap();
    // The kill landed before the rename: the tmp holds a torn or a
    // complete replacement, and the live journal is untouched.
    for staged in [&prefix.as_bytes()[..prefix.len() / 2], prefix.as_bytes()] {
        fs::write(&tmp, staged).unwrap();
        let loaded = log.load().unwrap();
        assert_eq!(
            loaded.entries,
            E::samples(),
            "tmp must not shadow the journal"
        );
        assert!(!loaded.recovered_torn_tail);
        assert_eq!(fs::read(log.path()).unwrap(), bytes);
    }
    // The retried rewrite completes: exactly the new prefix, tmp consumed.
    log.rewrite(&E::samples()[..2]).unwrap();
    assert_eq!(log.load().unwrap().entries, E::samples()[..2]);
    assert!(!tmp.exists());
    // A tmp left from an older attempt never breaks later appends.
    fs::write(&tmp, b"stale garbage").unwrap();
    log.append(&E::samples()[2]).unwrap();
    let loaded = log.load().unwrap();
    assert_eq!(loaded.entries, E::samples());
    assert!(!loaded.recovered_torn_tail);
    assert_eq!(fs::read(log.path()).unwrap(), bytes);
}

fn rewrite_after_interrupted_rewrite_is_byte_identical<E: Sample>() {
    let (clean_dir, crashed_dir) = (TempDir::new(), TempDir::new());
    let (clean, _) = committed::<E>(&clean_dir.0);
    let (crashed, _) = committed::<E>(&crashed_dir.0);
    fs::write(crashed_dir.0.join(format!("{}.tmp", E::FILE)), b"half a li").unwrap();
    clean.rewrite(&E::samples()[..1]).unwrap();
    crashed.rewrite(&E::samples()[..1]).unwrap();
    assert_eq!(
        fs::read(clean.path()).unwrap(),
        fs::read(crashed.path()).unwrap()
    );
}

fn bytes_are_deterministic<E: Sample>() {
    let dirs = [TempDir::new(), TempDir::new(), TempDir::new()];
    let (_, a) = committed::<E>(&dirs[0].0);
    let (_, b) = committed::<E>(&dirs[1].0);
    let rewritten = Log::<E>::at(&dirs[2].0);
    rewritten.rewrite(&E::samples()).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, fs::read(rewritten.path()).unwrap());
}

fn load_errors_name_the_path<E: Sample>() {
    let dir = TempDir::new();
    let log = Log::<E>::at(&dir.0);
    // A directory in the journal's place cannot be read as a file.
    fs::create_dir_all(log.path()).unwrap();
    let err = log.load().unwrap_err();
    assert!(
        err.to_string().contains(&log.path().display().to_string()),
        "{err}"
    );
    let err = log.append(&E::samples()[0]).unwrap_err();
    assert!(err.to_string().contains(E::FILE), "{err}");
}

macro_rules! crash_window_suite {
    ($($module:ident => $entry:ty),+ $(,)?) => {$(
        mod $module {
            #[test]
            fn round_trip() {
                super::round_trip::<$entry>();
            }

            #[test]
            fn torn_tail_at_every_offset() {
                super::torn_tail_at_every_offset::<$entry>();
            }

            #[test]
            fn torn_tail_is_cut_before_the_next_append() {
                super::torn_tail_is_cut_before_the_next_append::<$entry>();
            }

            #[test]
            fn corrupt_middle_line_is_rejected() {
                super::corrupt_middle_line_is_rejected::<$entry>();
            }

            #[test]
            fn stale_tmp_in_every_rewrite_window() {
                super::stale_tmp_in_every_rewrite_window::<$entry>();
            }

            #[test]
            fn rewrite_after_interrupted_rewrite_is_byte_identical() {
                super::rewrite_after_interrupted_rewrite_is_byte_identical::<$entry>();
            }

            #[test]
            fn bytes_are_deterministic() {
                super::bytes_are_deterministic::<$entry>();
            }

            #[test]
            fn load_errors_name_the_path() {
                super::load_errors_name_the_path::<$entry>();
            }
        }
    )+};
}

crash_window_suite! {
    stage_entry => epc_journal::StageEntry,
    fleet_event => epc_coord::FleetEvent,
    generation_entry => epc_ingest::GenerationEntry,
}
