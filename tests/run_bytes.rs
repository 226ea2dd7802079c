//! Pinned run bytes: the tree hash of three run directories, compared
//! with constants.
//!
//! Every other byte-identity gate in the suite compares two runs of the
//! *current* code with each other (resumed vs uninterrupted, batched vs
//! one-shot, 1 thread vs 4). None of them notices a change that moves
//! both sides the same way — a different dictionary order in a
//! checkpoint, a reformatted number in the hashed CSV, a new field in a
//! journal line. This test pins the bytes themselves:
//!
//! - a durable run over ~1,200 generated records;
//! - the same run under a deterministic fault injector (10% of records
//!   corrupted), so the quarantine filter runs;
//! - a 3-batch incremental ingest of the same input.
//!
//! The tree hash is SHA-256 over the sorted `path<TAB>sha256` lines of
//! every file, the same scheme `perfbench` uses for its golden trees. A
//! change that moves these hashes changes what users' run directories
//! contain, and must say so.
// Test code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_faults::DeterministicInjector;
use epc_journal::hash_hex;
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::durable::DurableOptions;
use indice::engine::Indice;
use indice::generations::{ingest, IngestBatch, IngestInputs, IngestOptions};
use std::fs;
use std::path::{Path, PathBuf};

const DURABLE_RUN: &str = "0f11aea592fd33be6627221968ad499e6c1c6f404cd6470003be92ecbe5191a6";
const FAULTED_RUN: &str = "fefc9b98df9ca488ae2ffbec4345713aaf97c7a3844f0bee024bcb8bdbf4d414";
const INGEST_RUN: &str = "d897fed2fd27bc9655605c4924525b6e5c9fe37fbde4677a25ab0ad00e81fdb1";

fn collection() -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 1_200,
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

/// A fresh, unique run directory under the system temp dir.
fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("indice-run-bytes-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// SHA-256 over the sorted `relative-path <TAB> sha256-of-bytes` lines
/// of every file under `root`.
fn tree_hash(root: &Path) -> String {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) {
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
                out.push((rel, path));
            }
        }
    }
    let mut files = Vec::new();
    walk(root, root, &mut files);
    files.sort();
    let listing: String = files
        .iter()
        .map(|(rel, path)| format!("{rel}\t{}\n", hash_hex(&fs::read(path).expect("read"))))
        .collect();
    hash_hex(listing.as_bytes())
}

fn durable_tree(injector: Option<&DeterministicInjector>, tag: &str) -> String {
    let engine = Indice::from_collection(collection(), IndiceConfig::default())
        .with_runtime(RuntimeConfig::new(2));
    let dir = run_dir(tag);
    let mut opts = DurableOptions::new(&dir);
    if let Some(inj) = injector {
        opts = opts.with_injector(inj);
    }
    let out = engine
        .run_durable(Stakeholder::PublicAdministration, &opts)
        .expect("durable run");
    assert_eq!(
        out.replayed,
        ["preprocess", "analytics", "dashboard"],
        "{tag}: every stage runs"
    );
    if injector.is_some() {
        assert!(!out.quarantine.is_empty(), "{tag}: the injector must bite");
    }
    let hash = tree_hash(&dir);
    let _ = fs::remove_dir_all(&dir);
    hash
}

#[test]
fn durable_run_bytes_are_pinned() {
    assert_eq!(durable_tree(None, "durable"), DURABLE_RUN);
}

#[test]
fn faulted_durable_run_bytes_are_pinned() {
    let inj = DeterministicInjector::new(7).with_record_rate(0.1);
    assert_eq!(durable_tree(Some(&inj), "faulted"), FAULTED_RUN);
}

#[test]
fn ingest_run_bytes_are_pinned() {
    let c = collection();
    let rows = c.dataset.n_rows();
    let batches: Vec<IngestBatch> = (0..3)
        .map(|i| {
            let indices: Vec<usize> = (i * rows / 3..(i + 1) * rows / 3).collect();
            IngestBatch::new(
                format!("batch-{i}.csv"),
                c.dataset.select_rows(&indices).unwrap(),
            )
        })
        .collect();
    let inputs = IngestInputs {
        street_map: &c.city.street_map,
        hierarchy: &c.city.hierarchy,
        config: IndiceConfig::default(),
        runtime: RuntimeConfig::new(2),
    };
    let dir = run_dir("ingest");
    let out = ingest(
        &batches,
        inputs,
        Stakeholder::PublicAdministration,
        &IngestOptions::new(&dir),
    )
    .expect("ingest");
    assert_eq!(out.processed.len(), 3, "every batch folds");
    let hash = tree_hash(&dir);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(hash, INGEST_RUN);
}
