//! §2.1.2 — the outlier-detection experiment: precision/recall of the
//! three univariate methods (boxplot, gESD, MAD) and the DBSCAN
//! multivariate detector against injected ground-truth outliers, plus
//! runtime scaling, including the grid noise kernel the pipeline runs
//! against the labelled DBSCAN it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epc_mining::dbscan::{dbscan_noise, dbscan_with_runtime};
use epc_mining::kdistance::estimate_dbscan_params;
use epc_mining::matrix::Matrix;
use epc_mining::normalize::MinMaxScaler;
use epc_model::wellknown as wk;
use epc_runtime::RuntimeConfig;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};
use indice::outliers::UnivariateMethod;
use std::collections::BTreeSet;

fn collection_with_outliers(n: usize) -> epc_synth::epcgen::SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: n,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(
        &mut c,
        &NoiseConfig {
            univariate_outlier_rate: 0.02,
            multivariate_outlier_rate: 0.005,
            ..NoiseConfig::none()
        },
    );
    c
}

fn pr(flagged: &BTreeSet<usize>, truth: &BTreeSet<usize>) -> (f64, f64) {
    let tp = flagged.intersection(truth).count() as f64;
    (
        tp / flagged.len().max(1) as f64,
        tp / truth.len().max(1) as f64,
    )
}

fn bench_outliers(c: &mut Criterion) {
    let collection = collection_with_outliers(25_000);
    let truth: BTreeSet<usize> = collection.truth.injected_outliers.iter().copied().collect();
    eprintln!(
        "\n== Outlier detection vs {} injected outliers (25 000 EPCs) ==",
        truth.len()
    );
    eprintln!(
        "{:<22} {:>9} {:>10} {:>8}",
        "method", "flagged", "precision", "recall"
    );

    // Univariate union over the three corruption targets (Uw, Uo, EPH).
    let s = collection.dataset.schema();
    let attrs = [wk::U_WINDOWS, wk::U_OPAQUE, wk::EPH];
    let methods = [
        UnivariateMethod::default_boxplot(),
        UnivariateMethod::default_gesd_for(collection.dataset.n_rows()),
        UnivariateMethod::default_mad(),
    ];
    for method in &methods {
        let mut flagged = BTreeSet::new();
        for attr in attrs {
            let id = s.require(attr).unwrap();
            let (values, rows) = collection.dataset.numeric_with_rows(id);
            flagged.extend(method.detect(&values).into_iter().map(|i| rows[i]));
        }
        let (p, r) = pr(&flagged, &truth);
        eprintln!(
            "{:<22} {:>9} {:>9.2} {:>8.2}",
            format!("univariate {}", method.name()),
            flagged.len(),
            p,
            r
        );
    }

    // Multivariate DBSCAN over the five case-study features.
    let ids: Vec<_> = wk::CASE_STUDY_FEATURES
        .iter()
        .map(|a| s.require(a).unwrap())
        .collect();
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for r in 0..collection.dataset.n_rows() {
        let vals: Option<Vec<f64>> = ids
            .iter()
            .map(|&id| collection.dataset.num(r, id))
            .collect();
        if let Some(v) = vals {
            rows.push(r);
            data.extend(v);
        }
    }
    let matrix = Matrix::from_vec(data, rows.len(), ids.len());
    let (_, scaled) = MinMaxScaler::fit_transform(&matrix).unwrap();
    let sample_rows: Vec<Vec<f64>> = (0..rows.len())
        .step_by((rows.len() / 1_500).max(1))
        .map(|i| scaled.row(i).to_vec())
        .collect();
    let params = estimate_dbscan_params(&Matrix::from_rows(&sample_rows), &[4, 5, 6, 8], 0.15)
        .expect("params estimated");
    let sequential = RuntimeConfig::sequential();
    let noise = dbscan_noise(&scaled, &params, &sequential).noise;
    assert_eq!(
        noise,
        dbscan_with_runtime(&scaled, &params, &sequential).noise_indices()
    );
    let flagged: BTreeSet<usize> = noise.into_iter().map(|i| rows[i]).collect();
    let (p, r) = pr(&flagged, &truth);
    eprintln!(
        "{:<22} {:>9} {:>9.2} {:>8.2}   (eps {:.3}, minPts {})",
        "multivariate DBSCAN",
        flagged.len(),
        p,
        r,
        params.eps,
        params.min_points
    );

    // --- Runtime scaling ---
    let mut group = c.benchmark_group("outliers");
    group.sample_size(10);
    for n in [5_000usize, 25_000] {
        let coll = collection_with_outliers(n);
        let id = coll.dataset.schema().require(wk::U_WINDOWS).unwrap();
        let (values, _) = coll.dataset.numeric_with_rows(id);
        for method in &methods {
            group.bench_with_input(
                BenchmarkId::new(format!("univariate_{}", method.name()), n),
                &values,
                |b, values| b.iter(|| method.detect(values)),
            );
        }
    }
    // DBSCAN over 5-D points: the grid noise kernel against the labelled
    // algorithm, whose neighbour lists grow with the square of the input.
    let sub_rows: Vec<Vec<f64>> = (0..scaled.n_rows())
        .step_by(5)
        .map(|i| scaled.row(i).to_vec())
        .collect();
    let sub = Matrix::from_rows(&sub_rows);
    for points in [&sub, &scaled] {
        let n = points.n_rows();
        group.bench_with_input(BenchmarkId::new("dbscan_noise", n), points, |b, m| {
            b.iter(|| dbscan_noise(m, &params, &sequential))
        });
        group.bench_with_input(BenchmarkId::new("dbscan_labelled", n), points, |b, m| {
            b.iter(|| dbscan_with_runtime(m, &params, &sequential))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_outliers);
criterion_main!(benches);
