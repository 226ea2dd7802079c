//! Edge-case and failure-injection integration tests: the pipeline must
//! degrade gracefully — clear errors, never panics — on hostile inputs.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::{wellknown as wk, Dataset, Value};
use epc_query::Stakeholder;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::{AnalyticsConfig, IndiceConfig, KSelection};
use indice::engine::Indice;
use indice::IndiceError;

fn tiny_city() -> CityConfig {
    CityConfig {
        n_districts: 2,
        neighbourhoods_per_district: 2,
        streets_per_neighbourhood: 2,
        houses_per_street: 5,
        ..CityConfig::default()
    }
}

fn collection(n: usize) -> SyntheticCollection {
    EpcGenerator::new(SynthConfig {
        n_records: n,
        city: tiny_city(),
        ..SynthConfig::default()
    })
    .generate()
}

#[test]
fn minimal_collection_still_runs() {
    // Small but above every internal minimum (clustering needs complete
    // rows; elbow needs k_max < n).
    let c = collection(60);
    let engine = Indice::from_collection(
        c,
        IndiceConfig {
            building_category: None,
            analytics: AnalyticsConfig {
                k: KSelection::Elbow { k_min: 2, k_max: 5 },
                ..AnalyticsConfig::default()
            },
            ..IndiceConfig::default()
        },
    );
    let out = engine
        .run(Stakeholder::Citizen)
        .expect("small run succeeds");
    assert!(out.analytics.chosen_k >= 2);
}

#[test]
fn all_features_missing_is_a_clean_error() {
    let mut c = collection(100);
    let s = c.dataset.schema_arc();
    for attr in wk::CASE_STUDY_FEATURES {
        let id = s.require(attr).unwrap();
        for row in 0..c.dataset.n_rows() {
            c.dataset.set_value(row, id, Value::Missing).unwrap();
        }
    }
    let engine = Indice::from_collection(
        c,
        IndiceConfig {
            building_category: None,
            ..IndiceConfig::default()
        },
    );
    let err = engine.run(Stakeholder::Citizen).unwrap_err();
    assert!(
        matches!(err, IndiceError::Clustering(_)),
        "expected a clustering error, got {err}"
    );
}

#[test]
fn every_address_garbage_still_produces_a_dashboard() {
    let mut c = collection(120);
    let s = c.dataset.schema_arc();
    let addr = s.require(wk::ADDRESS).unwrap();
    for row in 0..c.dataset.n_rows() {
        c.dataset
            .set_value(row, addr, Value::cat(format!("zzz{row}qqq")))
            .unwrap();
    }
    let engine = Indice::from_collection(
        c,
        IndiceConfig {
            building_category: None,
            geocoder_quota: 0, // no rescue
            ..IndiceConfig::default()
        },
    );
    let out = engine.run(Stakeholder::Citizen).expect("run survives");
    // Nothing resolves, but coordinates were already valid, so maps and
    // analytics still work.
    assert_eq!(out.preprocess.cleaning.by_reference, 0);
    assert_eq!(
        out.preprocess.cleaning.unresolved,
        out.preprocess.cleaning.total
    );
    assert!(out.dashboard.n_panels() >= 3);
}

#[test]
fn constant_feature_does_not_break_clustering_or_correlation() {
    let mut c = collection(150);
    let s = c.dataset.schema_arc();
    let id = s.require(wk::ASPECT_RATIO).unwrap();
    for row in 0..c.dataset.n_rows() {
        c.dataset.set_value(row, id, Value::num(0.5)).unwrap();
    }
    let out = indice::analytics::analyze_observed(
        &c.dataset,
        &IndiceConfig {
            building_category: None,
            ..IndiceConfig::default()
        },
        &epc_runtime::RuntimeConfig::sequential(),
        None,
    )
    .expect("constant feature tolerated");
    // Correlations with the constant feature are undefined, not crashes.
    let idx = out
        .correlation
        .names
        .iter()
        .position(|n| n == wk::ASPECT_RATIO)
        .unwrap();
    for j in 0..out.correlation.len() {
        if j != idx {
            assert!(out.correlation.get(idx, j).is_nan());
        }
    }
    assert!(out.chosen_k >= 2);
}

#[test]
fn extreme_noise_still_terminates() {
    let mut c = collection(200);
    apply_noise(
        &mut c,
        &NoiseConfig {
            typo_rate: 0.9,
            abbreviation_rate: 0.5,
            zip_missing_rate: 0.5,
            zip_wrong_rate: 0.3,
            coord_missing_rate: 0.4,
            coord_wrong_rate: 0.3,
            univariate_outlier_rate: 0.1,
            multivariate_outlier_rate: 0.05,
            seed: 3,
        },
    );
    let engine = Indice::from_collection(
        c,
        IndiceConfig {
            building_category: None,
            ..IndiceConfig::default()
        },
    );
    match engine.run(Stakeholder::PublicAdministration) {
        Ok(out) => {
            assert!(out.preprocess.dataset.n_rows() > 0);
        }
        Err(e) => {
            // Acceptable outcome on 90% corruption: a clean empty/clustering
            // error, never a panic.
            assert!(
                matches!(
                    e,
                    IndiceError::EmptyCollection(_) | IndiceError::Clustering(_)
                ),
                "unexpected error {e}"
            );
        }
    }
}

#[test]
fn fixed_k_larger_than_survivors_errors_cleanly() {
    let c = collection(40);
    let engine = Indice::from_collection(
        c,
        IndiceConfig {
            building_category: None,
            analytics: AnalyticsConfig {
                k: KSelection::Fixed(500),
                ..AnalyticsConfig::default()
            },
            ..IndiceConfig::default()
        },
    );
    let err = engine.run(Stakeholder::Citizen).unwrap_err();
    assert!(matches!(err, IndiceError::Clustering(_)), "{err}");
}

#[test]
fn autoconfig_advice_runs_end_to_end() {
    let mut c = collection(400);
    apply_noise(&mut c, &NoiseConfig::default());
    let advice = indice::autoconfig::suggest_config(
        &c.dataset,
        &IndiceConfig {
            building_category: None,
            ..IndiceConfig::default()
        },
    );
    let engine = Indice::from_collection(c, advice.config);
    let out = engine
        .run(Stakeholder::PublicAdministration)
        .expect("advised config runs");
    assert!(out.analytics.chosen_k >= 2);
}

#[test]
fn dataset_with_duplicated_rows_is_handled() {
    let base = collection(30);
    let mut ds = Dataset::new(base.dataset.schema_arc());
    for _ in 0..10 {
        ds.append(&base.dataset).unwrap();
    }
    assert_eq!(ds.n_rows(), 300);
    let out = indice::analytics::analyze_observed(
        &ds,
        &IndiceConfig {
            building_category: None,
            ..IndiceConfig::default()
        },
        &epc_runtime::RuntimeConfig::sequential(),
        None,
    )
    .expect("duplicates tolerated");
    assert!(out.chosen_k >= 2);
}

#[test]
fn feature_span_beyond_f64_max_is_a_clean_error_naming_it() {
    // ±1.7e308 is finite, so record validation accepts it, but the
    // column's max − min overflows f64: scaling used to yield NaN
    // distances that panicked the preprocess stage. Scaled features now
    // stay finite, and the feature — whose ordinary values would all
    // collapse onto one scaled point — is refused by name.
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 400,
        seed: 5,
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut c, &NoiseConfig::default());
    let id = c.dataset.schema().require(wk::HEAT_SURFACE).unwrap();
    for row in 1..60 {
        let v = if row % 2 == 1 { 1.7e308 } else { -1.7e308 };
        c.dataset.set_value(row, id, Value::num(v)).unwrap();
    }
    let err = Indice::from_collection(c, IndiceConfig::default())
        .run(Stakeholder::Citizen)
        .unwrap_err();
    assert!(
        matches!(&err, IndiceError::Clustering(msg) if msg.contains(wk::HEAT_SURFACE)),
        "expected a clustering error naming {}, got {err}",
        wk::HEAT_SURFACE
    );
}
