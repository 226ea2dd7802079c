//! The energy-scientist stakeholder: benchmarking analyses with the three
//! univariate outlier methods, the expert-configuration feedback loop of
//! §2.1.2, and a manual K sweep.
//!
//! ```sh
//! cargo run --release --example energy_scientist
//! ```
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::wellknown as wk;
use epc_query::Stakeholder;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};
use indice::config::{AnalyticsConfig, IndiceConfig, KSelection};
use indice::engine::Indice;
use indice::outliers::UnivariateMethod;
use std::fs;
use std::path::Path;

fn main() {
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: 8_000,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(
        &mut collection,
        &NoiseConfig {
            univariate_outlier_rate: 0.02,
            ..NoiseConfig::default()
        },
    );
    let truth_outliers: std::collections::BTreeSet<usize> =
        collection.truth.injected_outliers.iter().copied().collect();

    // --- Compare the three univariate methods (§2.1.2) over the three
    //     corrupted attributes (Uw, Uo, EPH), union of per-attribute hits ---
    println!(
        "== Outlier methods over Uw/Uo/EPH ({} injected) ==",
        truth_outliers.len()
    );
    let s = collection.dataset.schema();
    let watched = [wk::U_WINDOWS, wk::U_OPAQUE, wk::EPH];
    let methods = [
        UnivariateMethod::default_boxplot(),
        UnivariateMethod::default_gesd_for(collection.dataset.n_rows()),
        UnivariateMethod::default_mad(),
    ];
    let mut best: Option<(UnivariateMethod, f64)> = None;
    for method in &methods {
        let mut hits: std::collections::BTreeSet<usize> = Default::default();
        for attr in watched {
            let id = s.require(attr).unwrap();
            let (values, rows) = collection.dataset.numeric_with_rows(id);
            hits.extend(method.detect(&values).into_iter().map(|i| rows[i]));
        }
        let tp = hits.intersection(&truth_outliers).count();
        let precision = tp as f64 / hits.len().max(1) as f64;
        let recall = tp as f64 / truth_outliers.len().max(1) as f64;
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        println!(
            "{:<10} flagged {:>5}  precision {:.2}  recall {:.2}  F1 {:.2}",
            method.name(),
            hits.len(),
            precision,
            recall,
            f1
        );
        if best.as_ref().map(|(_, b)| f1 > *b).unwrap_or(true) {
            best = Some((method.clone(), f1));
        }
    }
    let (best_method, best_f1) = best.unwrap();
    println!("expert picks: {} (F1 {best_f1:.2})", best_method.name());

    // --- Record the expert choice; non-experts inherit it (§2.1.2) ---
    let engine = Indice::from_collection(collection, IndiceConfig::default());
    engine.record_outlier_choice(
        Stakeholder::EnergyScientist,
        wk::U_WINDOWS,
        best_method.clone(),
    );
    println!(
        "suggested default for non-experts on u_windows: {:?}",
        engine
            .suggested_outlier_method(wk::U_WINDOWS)
            .map(|m| m.name())
    );

    // --- Manual K sweep (the scientist distrusts automatic elbows) ---
    println!("\n== K sweep ==");
    for k in [3, 5, 7] {
        let cfg = IndiceConfig {
            analytics: AnalyticsConfig {
                k: KSelection::Fixed(k),
                ..AnalyticsConfig::default()
            },
            ..IndiceConfig::default()
        };
        let out =
            indice::analytics::analyze_observed(engine.dataset(), &cfg, &engine.runtime(), None)
                .expect("analytics");
        println!(
            "K = {k}: SSE = {:.1}, cluster sizes = {:?}",
            out.kmeans.sse,
            out.kmeans.cluster_sizes()
        );
    }

    // --- Full scientist dashboard ---
    let output = engine
        .run(Stakeholder::EnergyScientist)
        .expect("pipeline runs");
    println!(
        "\nscientist run: K = {}, {} rules, {} panels",
        output.analytics.chosen_k,
        output.analytics.rules.len(),
        output.dashboard.n_panels()
    );
    let dir = Path::new("target/indice-artifacts/energy_scientist");
    fs::create_dir_all(dir).expect("create artifact dir");
    fs::write(dir.join("dashboard.html"), output.dashboard.render_html()).expect("write dashboard");
    println!("dashboard written to {}", dir.display());
}
