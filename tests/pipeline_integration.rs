//! End-to-end pipeline integration: all three stakeholders, determinism,
//! and serialization round-trips on a noisy mid-size collection.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_journal::MANIFEST_FILE;
use epc_model::wellknown as wk;
use epc_query::Stakeholder;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::durable::{DurableOptions, DASHBOARD_FILE};
use indice::engine::Indice;

fn collection(n: usize, seed: u64) -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: n,
        seed,
        city: CityConfig {
            n_districts: 6,
            neighbourhoods_per_district: 3,
            streets_per_neighbourhood: 4,
            houses_per_street: 10,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut c, &NoiseConfig::default());
    c
}

#[test]
fn every_stakeholder_gets_a_complete_run() {
    let engine = Indice::from_collection(collection(1_500, 1), IndiceConfig::default());
    for stakeholder in Stakeholder::ALL {
        let out = engine
            .run(stakeholder)
            .unwrap_or_else(|e| panic!("run failed for {}: {e}", stakeholder.name()));
        assert!(
            out.preprocess.dataset.n_rows() > 800,
            "{}",
            stakeholder.name()
        );
        assert!(out.analytics.chosen_k >= 2);
        assert!(out.dashboard.n_panels() >= 3);
        let html = out.dashboard.render_html();
        assert!(html.len() > 10_000, "dashboard should embed real content");
        assert!(html.contains(stakeholder.name()));
    }
}

#[test]
fn pipeline_is_deterministic() {
    let a = Indice::from_collection(collection(1_000, 7), IndiceConfig::default())
        .run(Stakeholder::PublicAdministration)
        .unwrap();
    let b = Indice::from_collection(collection(1_000, 7), IndiceConfig::default())
        .run(Stakeholder::PublicAdministration)
        .unwrap();
    assert_eq!(a.preprocess.removed_rows, b.preprocess.removed_rows);
    assert_eq!(a.analytics.chosen_k, b.analytics.chosen_k);
    assert_eq!(
        a.analytics.kmeans.assignments,
        b.analytics.kmeans.assignments
    );
    assert_eq!(a.analytics.rules.len(), b.analytics.rules.len());
    assert_eq!(a.dashboard.render_html(), b.dashboard.render_html());
}

#[test]
fn different_seeds_give_different_data_same_shape() {
    let a = collection(1_000, 1);
    let b = collection(1_000, 2);
    assert_ne!(a.dataset, b.dataset);
    assert_eq!(a.dataset.n_cols(), b.dataset.n_cols());
}

#[test]
fn cleaned_dataset_round_trips_through_csv() {
    let engine = Indice::from_collection(collection(600, 3), IndiceConfig::default());
    let out = engine.run(Stakeholder::Citizen).unwrap();
    let csv = epc_model::csv::to_csv(&out.preprocess.dataset);
    let back = epc_model::csv::from_csv(out.preprocess.dataset.schema_arc(), &csv).unwrap();
    assert_eq!(back.n_rows(), out.preprocess.dataset.n_rows());
    let s = back.schema();
    let eph = s.require(wk::EPH).unwrap();
    for row in (0..back.n_rows()).step_by(97) {
        assert_eq!(back.num(row, eph), out.preprocess.dataset.num(row, eph));
    }
}

#[test]
fn category_filter_keeps_only_e11() {
    let engine = Indice::from_collection(collection(1_200, 4), IndiceConfig::default());
    let out = engine.run(Stakeholder::PublicAdministration).unwrap();
    let ds = &out.preprocess.dataset;
    let cat_id = ds.schema().require(wk::BUILDING_CATEGORY).unwrap();
    for row in 0..ds.n_rows() {
        assert_eq!(ds.cat(row, cat_id), Some("E.1.1"));
    }
}

#[test]
fn removed_plus_kept_equals_selected() {
    let engine = Indice::from_collection(collection(900, 5), IndiceConfig::default());
    let out = engine.run(Stakeholder::PublicAdministration).unwrap();
    assert_eq!(
        out.preprocess.kept_rows.len() + out.preprocess.removed_rows.len(),
        out.preprocess.cleaning.total
    );
    assert_eq!(
        out.preprocess.kept_rows.len(),
        out.preprocess.dataset.n_rows()
    );
}

/// Per-stage `(name, records_in, records_out, quarantined)`.
fn stage_counts(report: &epc_runtime::PipelineReport) -> Vec<(String, usize, usize, usize)> {
    report
        .stages
        .iter()
        .map(|s| (s.name.clone(), s.records_in, s.records_out, s.quarantined))
        .collect()
}

#[test]
fn every_run_mode_produces_the_same_bytes() {
    let engine = Indice::from_collection(collection(800, 11), IndiceConfig::default());
    let stakeholder = Stakeholder::PublicAdministration;
    let strict = engine.run(stakeholder).unwrap();
    let supervised = engine.run_supervised(stakeholder, None, None);
    assert!(
        supervised.outcome.produced_output(),
        "{}",
        supervised.outcome
    );
    let dir = std::env::temp_dir().join(format!("indice_run_modes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = engine
        .run_durable(stakeholder, &DurableOptions::new(&dir))
        .unwrap();
    assert!(durable.outcome.produced_output(), "{}", durable.outcome);

    // The dashboard page: in memory for the first two, on disk for the
    // durable run.
    let html = strict.dashboard.render_html();
    let supervised_html = supervised.dashboard.as_ref().unwrap().render_html();
    assert!(supervised_html == html, "supervised dashboard.html differs");
    let on_disk = std::fs::read_to_string(dir.join(DASHBOARD_FILE)).unwrap();
    assert!(on_disk == html, "durable dashboard.html differs");

    // Every artifact, and no other file at the run-directory root besides
    // the dashboard and the journal.
    assert!(!strict.artifacts.is_empty());
    assert_eq!(supervised.artifacts, strict.artifacts);
    for (file, content) in &strict.artifacts {
        let on_disk = std::fs::read_to_string(dir.join(file)).unwrap();
        assert!(&on_disk == content, "durable {file} differs");
    }
    let mut root_files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    root_files.sort();
    let mut expected: Vec<String> = strict.artifacts.keys().cloned().collect();
    expected.push(DASHBOARD_FILE.to_owned());
    expected.push(MANIFEST_FILE.to_owned());
    expected.sort();
    assert_eq!(root_files, expected);

    // The per-stage record and quarantine counts agree.
    let counts = stage_counts(&strict.report);
    assert_eq!(counts.len(), 3);
    assert_eq!(stage_counts(&supervised.report), counts);
    assert_eq!(stage_counts(&durable.report), counts);

    let _ = std::fs::remove_dir_all(&dir);
}
