//! Durability suite: journaled checkpoint/resume under injected crashes.
//!
//! The contract under test (PR 4): a durable run that dies at *any* crash
//! point — before a stage's commit, right after it, or mid-commit with a
//! torn checkpoint file — can be resumed and finishes with a run
//! directory (artifacts, checkpoints, and the journal itself) that is
//! **byte-identical** to an uninterrupted run's. Resume must skip exactly
//! the stages whose journal entries validate (asserted via
//! `journal_hits`), replay the rest, and detect torn checkpoints by
//! content hash. The stage deadline watchdog must degrade overrunning
//! stages deterministically under an injected clock.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_faults::CrashSpec;
use epc_geo::streetmap::StreetMap;
use epc_journal::{Journal, MANIFEST_FILE};
use epc_query::Stakeholder;
use epc_runtime::{ManualClock, RuntimeConfig};
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::durable::{DurableOptions, CHECKPOINT_DIR};
use indice::engine::Indice;
use indice::pipeline::{RunOutcome, StageDeadline};
use indice::IndiceError;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const STAGES: [&str; 3] = ["preprocess", "analytics", "dashboard"];

fn collection() -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 700,
        city: CityConfig {
            n_districts: 4,
            neighbourhoods_per_district: 2,
            streets_per_neighbourhood: 3,
            houses_per_street: 8,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut c, &NoiseConfig::default());
    c
}

fn engine_at(threads: usize) -> Indice {
    Indice::from_collection(collection(), IndiceConfig::default())
        .with_runtime(RuntimeConfig::new(threads))
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A fresh, unique run directory under the system temp dir.
fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "indice-durability-{}-{}-{}",
        std::process::id(),
        tag,
        NEXT_DIR.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, relative path → content bytes.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                out.insert(rel, fs::read(&path).expect("read file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Asserts two run directories are byte-identical, file by file.
fn assert_trees_identical(a: &Path, b: &Path, context: &str) {
    let (ta, tb) = (tree(a), tree(b));
    assert_eq!(
        ta.keys().collect::<Vec<_>>(),
        tb.keys().collect::<Vec<_>>(),
        "{context}: file sets differ"
    );
    for (name, bytes) in &ta {
        assert_eq!(
            Some(bytes),
            tb.get(name),
            "{context}: {name} differs between runs"
        );
    }
}

#[test]
fn uninterrupted_durable_run_journals_every_stage() {
    let engine = engine_at(2);
    let dir = run_dir("plain");
    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir),
        )
        .expect("durable run");
    assert!(out.outcome.produced_output(), "outcome: {}", out.outcome);
    assert!(out.journal_hits.is_empty());
    assert_eq!(out.replayed, STAGES);

    let loaded = Journal::at(&dir).load().expect("journal loads");
    assert!(!loaded.recovered_torn_tail);
    let entries = loaded.entries;
    assert_eq!(entries.len(), 3);
    for (i, (entry, stage)) in entries.iter().zip(STAGES).enumerate() {
        assert_eq!(entry.seq, i);
        assert_eq!(entry.stage, stage);
        assert!(!entry.degraded);
        for rec in &entry.checkpoints {
            rec.read_verified(&dir).expect("checkpoint validates");
        }
    }
    assert!(dir.join(MANIFEST_FILE).is_file());
    assert!(dir
        .join(CHECKPOINT_DIR)
        .join("preprocess.ckpt.json")
        .is_file());
    assert!(dir
        .join(CHECKPOINT_DIR)
        .join("analytics.ckpt.json")
        .is_file());
    assert!(dir.join("dashboard.html").is_file());
    let _ = fs::remove_dir_all(&dir);
}

/// The tentpole acceptance test: for every stage × crash point, the
/// crashed-then-resumed run directory is byte-identical to an
/// uninterrupted run's, journal hits are exactly the validated prefix,
/// and the journal ends with exactly one entry per stage.
#[test]
fn crash_resume_matrix_restores_byte_identical_runs() {
    let engine = engine_at(2);
    let baseline = run_dir("baseline");
    engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&baseline),
        )
        .expect("baseline run");

    for (si, stage) in STAGES.iter().enumerate() {
        for point in ["before", "after", "torn"] {
            let context = format!("{stage}:{point}");
            let spec = CrashSpec::parse(&context).expect("valid spec");
            let dir = run_dir(&format!("crash-{stage}-{point}"));

            // The "process" dies at the injected crash point...
            let err = engine
                .run_durable(
                    Stakeholder::PublicAdministration,
                    &DurableOptions::new(&dir).with_crash(&spec),
                )
                .expect_err("crash spec must abort the run");
            match &err {
                IndiceError::CrashInjected { stage: s, point: p } => {
                    assert_eq!((s.as_str(), p.as_str()), (*stage, point), "{context}");
                }
                other => panic!("{context}: unexpected error {other}"),
            }

            // ...leaving a journal prefix: the crashed stage committed its
            // entry for `after` and `torn` (torn with a corrupt
            // checkpoint), but not for `before`.
            let committed = Journal::at(&dir).load().expect("journal loads");
            let expect_committed = match point {
                "before" => si,
                _ => si + 1,
            };
            assert_eq!(committed.entries.len(), expect_committed, "{context}");

            // Resume replays from the first invalid entry.
            let out = engine
                .run_durable(
                    Stakeholder::PublicAdministration,
                    &DurableOptions::new(&dir).resuming(),
                )
                .expect("resume succeeds");
            assert!(out.outcome.produced_output(), "{context}: {}", out.outcome);

            // A torn checkpoint must fail hash validation, so the crashed
            // stage is replayed; a clean `after` commit is a journal hit.
            let expect_hits: Vec<&str> = match point {
                "after" => STAGES[..=si].to_vec(),
                _ => STAGES[..si].to_vec(),
            };
            assert_eq!(out.journal_hits, expect_hits, "{context}: journal hits");
            assert_eq!(
                out.replayed,
                STAGES[expect_hits.len()..].to_vec(),
                "{context}: replayed stages"
            );

            // Exactly one journal entry per stage — no duplicates from the
            // crashed attempt — and bitwise equality with the baseline,
            // journal included.
            assert_eq!(
                Journal::at(&dir)
                    .load()
                    .expect("journal loads")
                    .entries
                    .len(),
                3,
                "{context}"
            );
            assert_trees_identical(&baseline, &dir, &context);
            let _ = fs::remove_dir_all(&dir);
        }
    }
    let _ = fs::remove_dir_all(&baseline);
}

/// Copies every file under `from` to the same relative path under `to`.
fn copy_tree(from: &Path, to: &Path) {
    for (rel, bytes) in tree(from) {
        let path = to.join(rel);
        fs::create_dir_all(path.parent().expect("a file has a parent")).expect("mkdir");
        fs::write(path, bytes).expect("copy file");
    }
}

/// The config fingerprint deliberately excludes the thread budget, so a
/// run crashed at one parallelism can resume at another — and still end
/// byte-identical. A run at 2 threads hashes its input beside stage 1; a
/// crash at each point of each stage, resumed at 1, 2 and 8 threads, ends
/// at the tree of an uninterrupted sequential run.
#[test]
fn resume_is_byte_identical_across_thread_budgets() {
    let baseline = run_dir("threads-baseline");
    engine_at(1)
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&baseline),
        )
        .expect("baseline run");

    let resumers: Vec<(usize, Indice)> = [1usize, 2, 8].map(|t| (t, engine_at(t))).into();
    let crasher = &resumers[1].1;
    for (si, stage) in STAGES.iter().enumerate() {
        for point in ["before", "after", "torn"] {
            let spec = CrashSpec::parse(&format!("{stage}:{point}")).expect("valid spec");
            let crashed = run_dir(&format!("threads-crash-{stage}-{point}"));
            crasher
                .run_durable(
                    Stakeholder::PublicAdministration,
                    &DurableOptions::new(&crashed).with_crash(&spec),
                )
                .expect_err("crash aborts");
            let expect_hits = match point {
                "after" => &STAGES[..=si],
                _ => &STAGES[..si],
            };
            for (threads, engine) in &resumers {
                let context = format!("{stage}:{point} resumed at {threads} thread(s)");
                let dir = run_dir(&format!("threads-{stage}-{point}-{threads}"));
                copy_tree(&crashed, &dir);
                let out = engine
                    .run_durable(
                        Stakeholder::PublicAdministration,
                        &DurableOptions::new(&dir).resuming(),
                    )
                    .expect("resume succeeds");
                assert_eq!(out.journal_hits, expect_hits, "{context}");
                assert_trees_identical(&baseline, &dir, &context);
                let _ = fs::remove_dir_all(&dir);
            }
            let _ = fs::remove_dir_all(&crashed);
        }
    }
    let _ = fs::remove_dir_all(&baseline);
}

/// A street map whose text cannot be written (a field holds the `;`
/// separator) fails the run before any stage, at every thread budget, with
/// the error the fingerprint has always reported: the check runs before
/// the identity task starts. Nothing is journaled or checkpointed, and no
/// stage span is recorded.
#[test]
fn a_street_map_with_a_separator_fails_before_any_stage() {
    for threads in [1usize, 2, 8] {
        let c = collection();
        let mut entries = c.city.street_map.entries().to_vec();
        let last = entries.last_mut().expect("the city has streets");
        last.district = format!("{}; east", last.district);
        let expected = format!(
            "durability error: street map not serializable: field {:?} contains a separator",
            last.district
        );
        let engine = Indice::new(
            c.dataset,
            StreetMap::from_entries(entries),
            c.city.hierarchy,
            IndiceConfig::default(),
        )
        .with_runtime(RuntimeConfig::new(threads));
        let clock = ManualClock::advancing(7);
        let obs = epc_obs::Obs::new(&clock);
        let dir = run_dir(&format!("separator-{threads}"));
        let err = engine
            .run_durable(
                Stakeholder::PublicAdministration,
                &DurableOptions::new(&dir).with_obs(&obs),
            )
            .expect_err("the street map cannot be fingerprinted");
        assert!(matches!(err, IndiceError::Durability(_)), "{err:?}");
        assert_eq!(err.to_string(), expected, "threads = {threads}");
        assert!(
            tree(&dir).is_empty(),
            "threads = {threads}: files were written"
        );
        assert_eq!(obs.tracer().logical_jsonl(), "", "threads = {threads}");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Under an injected clock every stage overruns its budget by exactly the
/// scripted amount, so the watchdog's verdict is deterministic: the
/// degradable analytics stage loses its product, required stages keep
/// theirs, and the run outcome is `Degraded` with one reason per overrun.
#[test]
fn deadline_overruns_degrade_deterministically_under_injected_clock() {
    let engine = engine_at(2);
    let reasons_of = |dir: &Path| -> Vec<String> {
        let clock = ManualClock::advancing(1_000);
        let out = engine
            .run_durable(
                Stakeholder::PublicAdministration,
                &DurableOptions::new(dir).with_deadline(StageDeadline {
                    budget_ms: 500,
                    clock: &clock,
                }),
            )
            .expect("durable run");
        assert_eq!(out.degraded_stages, vec!["analytics"]);
        assert!(out.analytics.is_none(), "overrun product must be dropped");
        assert!(out.preprocess.is_some(), "required product must be kept");
        match out.outcome {
            RunOutcome::Degraded(reasons) => reasons,
            other => panic!("expected a degraded outcome, got {other}"),
        }
    };

    let (dir_a, dir_b) = (run_dir("deadline-a"), run_dir("deadline-b"));
    let reasons = reasons_of(&dir_a);
    let deadline_reasons: Vec<&String> = reasons
        .iter()
        .filter(|r| r.contains("exceeded its deadline"))
        .collect();
    assert_eq!(deadline_reasons.len(), 3, "{reasons:?}");
    assert!(
        deadline_reasons
            .iter()
            .all(|r| r.contains("1000 ms > budget 500 ms")),
        "{reasons:?}"
    );
    assert!(
        deadline_reasons[1].contains("'analytics'")
            && deadline_reasons[1].contains("product discarded"),
        "{reasons:?}"
    );
    assert!(
        deadline_reasons[0].contains("required product kept"),
        "{reasons:?}"
    );

    // Deterministic: a second run scripts the same clock and reproduces
    // the same verdicts and the same bytes on disk.
    assert_eq!(reasons, reasons_of(&dir_b));
    assert_trees_identical(&dir_a, &dir_b, "deadline-degraded runs");

    // Resuming the degraded run replays nothing and reports the same
    // degradation (the analytics entry is journaled product-less).
    let resumed = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir_a).resuming(),
        )
        .expect("resume succeeds");
    assert_eq!(resumed.journal_hits, STAGES);
    assert!(resumed.replayed.is_empty());
    assert_eq!(resumed.degraded_stages, vec!["analytics"]);
    match resumed.outcome {
        RunOutcome::Degraded(r) => assert_eq!(r, reasons),
        other => panic!("expected a degraded outcome, got {other}"),
    }
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// Resuming a finished run validates every entry, skips every stage, and
/// leaves the directory untouched; a *non*-resume run into the same
/// directory starts over (the journal is rewritten, outputs identical).
#[test]
fn resume_of_a_complete_run_is_a_full_journal_hit() {
    let engine = engine_at(2);
    let dir = run_dir("complete");
    engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir),
        )
        .expect("first run");
    let before = tree(&dir);

    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir).resuming(),
        )
        .expect("resume succeeds");
    assert_eq!(out.journal_hits, STAGES);
    assert!(out.replayed.is_empty());
    assert!(out.outcome.produced_output());
    // The dashboard stage was satisfied from disk: its artifacts are in
    // the run dir (and in `artifacts`), not re-rendered in memory.
    assert!(out.dashboard.is_none());
    assert!(!out.artifacts.is_empty());
    assert_eq!(before, tree(&dir), "resume must not rewrite any file");

    // Fresh (non-resume) run into the same directory: starts over, same
    // bytes.
    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir),
        )
        .expect("overwrite run");
    assert!(out.journal_hits.is_empty());
    assert_eq!(out.replayed, STAGES);
    assert_eq!(before, tree(&dir));
    let _ = fs::remove_dir_all(&dir);
}

/// A journal written for different inputs must not be trusted: resume
/// with a changed configuration invalidates the whole prefix and replays
/// everything.
#[test]
fn resume_rejects_a_journal_from_different_inputs() {
    let dir = run_dir("fingerprint");
    engine_at(2)
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir),
        )
        .expect("first run");

    // Same data, different effective config (stakeholder changes the
    // fingerprint).
    let out = engine_at(2)
        .run_durable(Stakeholder::Citizen, &DurableOptions::new(&dir).resuming())
        .expect("resume succeeds");
    assert!(out.journal_hits.is_empty(), "stale journal must not hit");
    assert_eq!(out.replayed, STAGES);
    assert_eq!(
        Journal::at(&dir)
            .load()
            .expect("journal loads")
            .entries
            .len(),
        3
    );
    let _ = fs::remove_dir_all(&dir);
}
