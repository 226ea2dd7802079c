//! Incremental-ingest suite: generation-journaled micro-batches.
//!
//! The load-bearing contract (PR 9): ingesting N chunks with
//! `indice::generations::ingest` produces a `current/` directory
//! **byte-identical** to a one-shot durable run over the concatenated
//! input — at any thread count — and an ingest killed at any batch
//! boundary (before the commit, right after it, or mid-seal with a torn
//! delta) resumes to a run directory byte-identical to an uninterrupted
//! ingest's. A poisoned batch is abandoned without damaging sealed
//! generations. The contract holds with no ε: exact is the only
//! recompute mode, and a run directory whose manifest records another
//! mode (`warm`) fails resume validation and is folded again, exactly.
// Test code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_faults::{BatchScope, DeterministicInjector, IngestCrash};
use epc_ingest::{GenerationEntry, GenerationManifest, GENESIS};
use epc_model::value::Value;
use epc_model::wellknown as wk;
use epc_model::{Dataset, Record};
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::durable::DurableOptions;
use indice::engine::Indice;
use indice::generations::{
    ingest, IngestBatch, IngestInputs, IngestOptions, IngestOutcome, RecomputeMode,
};
use indice::IndiceError;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn collection() -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 600,
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

/// Splits `dataset` into `n` contiguous chunks (the last takes the
/// remainder).
fn split(dataset: &Dataset, n: usize) -> Vec<IngestBatch> {
    let rows = dataset.n_rows();
    let chunk = rows / n;
    (0..n)
        .map(|i| {
            let start = i * chunk;
            let end = if i == n - 1 { rows } else { start + chunk };
            let indices: Vec<usize> = (start..end).collect();
            IngestBatch::new(
                format!("chunk-{i}.csv"),
                dataset.select_rows(&indices).unwrap(),
            )
        })
        .collect()
}

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "indice-ingest-{}-{}-{}",
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

fn inputs_at(c: &SyntheticCollection, threads: usize) -> IngestInputs<'_> {
    IngestInputs {
        street_map: &c.city.street_map,
        hierarchy: &c.city.hierarchy,
        config: IndiceConfig::default(),
        runtime: RuntimeConfig::new(threads),
    }
}

/// One-shot durable run over the full collection into a fresh dir;
/// returns the dir.
fn one_shot(c: &SyntheticCollection, threads: usize, tag: &str) -> PathBuf {
    let engine = Indice::from_collection(c.clone(), IndiceConfig::default())
        .with_runtime(RuntimeConfig::new(threads));
    let dir = run_dir(tag);
    let out = engine
        .run_durable(
            Stakeholder::PublicAdministration,
            &DurableOptions::new(&dir),
        )
        .expect("one-shot durable run");
    assert!(out.outcome.produced_output());
    dir
}

#[test]
fn chunked_ingest_is_byte_identical_to_one_shot_at_every_thread_count() {
    let c = collection();
    for threads in [1usize, 2, 8] {
        let shot = one_shot(&c, threads, "oneshot");
        let dir = run_dir("chunked");
        let batches = split(&c.dataset, 3);
        let out = ingest(
            &batches,
            inputs_at(&c, threads),
            Stakeholder::PublicAdministration,
            &IngestOptions::new(&dir),
        )
        .expect("chunked ingest");
        assert_eq!(out.entries.len(), 3);
        assert_eq!(out.processed.len(), 3);
        assert!(out.sealed_skipped.is_empty());
        assert_trees_identical(
            &shot,
            &dir.join("current"),
            &format!("threads={threads}: current/ vs one-shot"),
        );
        // The per-generation record accounting covers the whole input.
        let records_in: usize = out.entries.iter().map(|e| e.records_in).sum();
        let kept: usize = out.entries.iter().map(|e| e.records_kept).sum();
        assert_eq!(
            records_in,
            c.dataset.n_rows() - out.quarantined_total - records_dropped_by_selection(&c)
        );
        assert!(kept <= records_in);
        let _ = fs::remove_dir_all(&shot);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Rows the category filter drops before preprocessing (they are neither
/// quarantined nor counted as a batch's `records_in`).
fn records_dropped_by_selection(c: &SyntheticCollection) -> usize {
    let cat_id = c.dataset.schema().attr_id(wk::BUILDING_CATEGORY).unwrap();
    (0..c.dataset.n_rows())
        .filter(|&r| c.dataset.value(r, cat_id) != Value::Cat("E.1.1".to_owned()))
        .count()
}

#[test]
fn killed_ingest_resumes_byte_identical_at_every_crash_point() {
    let c = collection();
    let batches = split(&c.dataset, 3);

    // Reference: an uninterrupted ingest.
    let ref_dir = run_dir("uninterrupted");
    ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&ref_dir),
    )
    .expect("uninterrupted ingest");

    for spec in ["1:before", "1:after", "1:torn"] {
        let crash = IngestCrash::parse(spec).unwrap();
        let dir = run_dir("crashed");
        let died = ingest(
            &batches,
            inputs_at(&c, 2),
            Stakeholder::PublicAdministration,
            &IngestOptions::new(&dir).with_crash(&crash),
        );
        match died {
            Err(IndiceError::CrashInjected { stage, .. }) => {
                assert_eq!(stage, "ingest batch 1", "crash at {spec}")
            }
            other => panic!("{spec}: expected injected crash, got {other:?}"),
        }

        // Resume at a different thread count — outputs are
        // thread-invariant, so this must not change a byte.
        let resumed = ingest(
            &batches,
            inputs_at(&c, 1),
            Stakeholder::PublicAdministration,
            &IngestOptions::new(&dir).resuming(),
        )
        .expect("resumed ingest");
        assert_eq!(resumed.entries.len(), 3, "{spec}");
        match spec {
            // The sealed prefix survives; only unsealed batches replay.
            "1:before" => assert_eq!(resumed.sealed_skipped.len(), 1, "{spec}"),
            // Batch 1's commit landed before the crash.
            "1:after" => assert_eq!(resumed.sealed_skipped.len(), 2, "{spec}"),
            // The torn delta must be detected and batch 1 re-ingested.
            "1:torn" => {
                assert_eq!(resumed.sealed_skipped.len(), 1, "{spec}");
                assert!(
                    resumed
                        .resume_rejection
                        .as_deref()
                        .unwrap_or("")
                        .contains("generation 1"),
                    "{spec}: rejection should name the torn generation, got {:?}",
                    resumed.resume_rejection
                );
            }
            _ => unreachable!(),
        }
        assert_trees_identical(&ref_dir, &dir, &format!("crash {spec}: whole run dir"));
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&ref_dir);
}

/// A batch whose records all miss the configured building category:
/// category selection leaves nothing, so the batch must be abandoned.
fn poison_batch(template: &Dataset) -> IngestBatch {
    let cat_id = template.schema().attr_id(wk::BUILDING_CATEGORY).unwrap();
    let mut poisoned = Dataset::new(template.schema_arc());
    for row in 0..template.n_rows().min(40) {
        let values: Vec<Value> = (0..template.schema().len())
            .map(|i| {
                let id = epc_model::AttrId(i as u32);
                if id == cat_id {
                    Value::Cat("E.9.9".to_owned())
                } else {
                    template.value(row, id)
                }
            })
            .collect();
        poisoned.push_record(Record::from_values(values)).unwrap();
    }
    IngestBatch::new("poison.csv", poisoned)
}

#[test]
fn poisoned_batch_is_abandoned_without_damaging_sealed_generations() {
    let c = collection();
    let mut batches = split(&c.dataset, 2);
    batches.insert(1, poison_batch(&c.dataset));

    let dir = run_dir("poisoned");
    let out = ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    )
    .expect("ingest with poisoned batch");
    assert_eq!(out.entries.len(), 3);
    assert_eq!(
        out.entries[1].outcome,
        epc_ingest::GenerationOutcome::Abandoned
    );
    assert_eq!(out.entries[1].records_kept, 0);
    assert!(out.entries[1].checkpoints.is_empty());
    assert!(out.entries[1].reasons[0].contains("abandoned"));
    // Abandonment is a failure outcome: exit code 1.
    assert!(matches!(out.outcome, IngestOutcome::Failed(_)));
    assert_eq!(out.outcome.exit_code(), 1);
    // The abandoned batch contributes nothing: current/ is byte-identical
    // to ingesting only the healthy batches.
    let healthy_dir = run_dir("healthy");
    let healthy: Vec<IngestBatch> = vec![batches[0].clone(), batches[2].clone()];
    ingest(
        &healthy,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&healthy_dir),
    )
    .expect("healthy ingest");
    assert_trees_identical(
        &healthy_dir.join("current"),
        &dir.join("current"),
        "poisoned batch must not change cumulative artifacts",
    );
    // The sealed generation before the poison is untouched.
    let gen0 = dir.join("gens/gen-00000/clean.delta.json");
    let healthy_gen0 = healthy_dir.join("gens/gen-00000/clean.delta.json");
    assert_eq!(fs::read(&gen0).unwrap(), fs::read(&healthy_gen0).unwrap());
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&healthy_dir);
}

/// The input hash of every generation: SHA-256 of the CSV text of the
/// folded (not abandoned) batches, concatenated in order.
fn expected_cumulative_hashes(batches: &[IngestBatch], abandoned: &[usize]) -> Vec<String> {
    let mut cum: Option<Dataset> = None;
    batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            if !abandoned.contains(&i) {
                match &mut cum {
                    Some(d) => d.append(&batch.dataset).unwrap(),
                    None => cum = Some(batch.dataset.clone()),
                }
            }
            match &cum {
                Some(d) => epc_journal::hash_hex(epc_model::csv::to_csv(d).as_bytes()),
                None => epc_journal::hash_hex(b""),
            }
        })
        .collect()
}

#[test]
fn cumulative_input_hashes_equal_the_hash_of_the_concatenated_input() {
    let c = collection();
    let mut batches = split(&c.dataset, 3);
    // An abandoned batch first: the generation records the hash of no
    // input, and no later hash includes its rows.
    batches.insert(0, poison_batch(&c.dataset));
    let expected = expected_cumulative_hashes(&batches, &[0]);
    let hashes = |entries: &[GenerationEntry]| -> Vec<String> {
        entries
            .iter()
            .map(|e| e.cumulative_input_hash.clone())
            .collect()
    };

    let dir = run_dir("cumhash");
    let fresh = ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    )
    .expect("fresh ingest");
    assert_eq!(hashes(&fresh.entries), expected, "fresh ingest");
    assert_eq!(expected[0], epc_journal::hash_hex(b""));
    let _ = fs::remove_dir_all(&dir);

    // Resumed at every batch boundary, the running hash restarts from the
    // sealed prefix and still lands on the same hashes.
    for boundary in 1..batches.len() {
        let crash = IngestCrash::parse(&format!("{boundary}:before")).unwrap();
        let dir = run_dir("cumhash-resume");
        let died = ingest(
            &batches,
            inputs_at(&c, 2),
            Stakeholder::PublicAdministration,
            &IngestOptions::new(&dir).with_crash(&crash),
        );
        assert!(matches!(died, Err(IndiceError::CrashInjected { .. })));
        let resumed = ingest(
            &batches,
            inputs_at(&c, 1),
            Stakeholder::PublicAdministration,
            &IngestOptions::new(&dir).resuming(),
        )
        .expect("resumed ingest");
        assert_eq!(resumed.sealed_skipped.len(), boundary);
        assert_eq!(hashes(&resumed.entries), expected, "resume at {boundary}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn appending_batches_to_a_sealed_run_skips_the_sealed_prefix() {
    let c = collection();
    let batches = split(&c.dataset, 3);

    let dir = run_dir("append");
    let first = ingest(
        &batches[..1],
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    )
    .expect("initial ingest");
    assert_eq!(first.processed, vec!["chunk-0.csv"]);

    // Re-ingesting without resume must refuse the dirty directory.
    let refused = ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    );
    assert!(
        matches!(refused, Err(IndiceError::Durability(ref msg)) if msg.contains("resume")),
        "expected a durability refusal, got {refused:?}"
    );

    let appended = ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir).resuming(),
    )
    .expect("appending ingest");
    assert_eq!(appended.sealed_skipped, vec!["chunk-0.csv"]);
    assert_eq!(appended.processed, vec!["chunk-1.csv", "chunk-2.csv"]);
    assert_eq!(appended.entries.len(), 3);

    // Identical to a one-shot durable run over everything.
    let shot = one_shot(&c, 2, "append-oneshot");
    assert_trees_identical(&shot, &dir.join("current"), "appended ingest vs one-shot");

    // Counter conservation: every current/ file was either written or
    // carried, and the manifest accounts for both.
    for entry in &appended.entries {
        assert_eq!(
            entry.artifacts_written + entry.artifacts_carried,
            entry.current.len(),
            "generation {} counters must cover the current file set",
            entry.seq
        );
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&shot);
}

#[test]
fn warm_sealed_run_dir_resumes_to_the_exact_tree() {
    let c = collection();
    let batches = split(&c.dataset, 2);

    // Reference: an uninterrupted ingest.
    let ref_dir = run_dir("exact");
    ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&ref_dir),
    )
    .expect("exact ingest");

    // The same ingest, its manifest then rewritten as a `warm` ingest
    // would have sealed it, parents recomputed so the hash chain holds.
    let dir = run_dir("warm-sealed");
    let sealed = ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    )
    .expect("ingest to relabel");
    let mut parent = GENESIS.to_owned();
    let warm: Vec<GenerationEntry> = sealed
        .entries
        .iter()
        .map(|entry| {
            let mut entry = entry.clone();
            entry.recompute = "warm".into();
            entry.parent = parent.clone();
            parent = entry.chain_hash();
            entry
        })
        .collect();
    let manifest = GenerationManifest::at(&dir);
    manifest.rewrite(&warm).unwrap();
    manifest
        .load_validated()
        .expect("the relabelled chain is intact");

    // Resume validation rejects generation 0, so both batches are folded
    // again in exact mode.
    let resumed = ingest(
        &batches,
        inputs_at(&c, 1),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir).resuming(),
    )
    .expect("resumed ingest");
    let why = resumed.resume_rejection.as_deref().unwrap_or("");
    assert!(
        why.contains("sealed generation 0 rejected") && why.contains("\"warm\""),
        "rejection should name generation 0 and its mode, got {why:?}"
    );
    assert!(resumed.sealed_skipped.is_empty());
    assert_eq!(resumed.processed, vec!["chunk-0.csv", "chunk-1.csv"]);
    assert!(resumed
        .entries
        .iter()
        .all(|e| e.recompute == RecomputeMode::Exact.as_str()));
    assert_trees_identical(&ref_dir, &dir, "warm-sealed run dir after resume");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&ref_dir);
}

#[test]
fn a_leftover_current_file_that_cannot_be_removed_fails_the_ingest() {
    let c = collection();
    let batches = split(&c.dataset, 2);
    let dir = run_dir("stuck-leftover");
    ingest(
        &batches[..1],
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    )
    .expect("seal batch 0");

    // Batch 1 loses its analytics stage, so its generation no longer
    // produces the analytics checkpoint that generation 0 left in
    // `current/`; a non-empty directory in its place cannot be removed.
    let stuck = dir.join("current/checkpoints/analytics.ckpt.json");
    fs::remove_file(&stuck).unwrap();
    fs::create_dir_all(stuck.join("inner")).unwrap();
    let injector = DeterministicInjector::new(7).kill_stage("analytics", 1);
    let scope = BatchScope::parse("1").unwrap();
    let resumed = ingest(
        &batches,
        inputs_at(&c, 2),
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir)
            .resuming()
            .with_injector(&injector)
            .scoped_to(&scope),
    );
    assert!(
        matches!(&resumed, Err(IndiceError::Durability(msg)) if msg.contains("analytics.ckpt.json")),
        "expected a durability error naming the leftover, got {resumed:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
