//! §2.2.2 — the K-selection experiment: the SSE-vs-K curve whose elbow
//! picks K ("the K value is chosen as the point where the marginal
//! decrease in the SSE curve is maximized"), plus K-means runtime scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epc_mining::elbow::{elbow_k, elbow_k_by_distance, sse_curve_with_runtime};
use epc_mining::kmeans::{KMeans, KMeansConfig};
use epc_mining::matrix::Matrix;
use epc_mining::normalize::MinMaxScaler;
use epc_model::wellknown as wk;
use epc_runtime::RuntimeConfig;
use epc_synth::{EpcGenerator, SynthConfig};

fn feature_matrix(n: usize) -> Matrix {
    let c = EpcGenerator::new(SynthConfig {
        n_records: n,
        ..SynthConfig::default()
    })
    .generate();
    let s = c.dataset.schema();
    let ids: Vec<_> = wk::CASE_STUDY_FEATURES
        .iter()
        .map(|a| s.require(a).unwrap())
        .collect();
    let mut data = Vec::new();
    let mut rows = 0;
    for r in 0..c.dataset.n_rows() {
        let vals: Option<Vec<f64>> = ids.iter().map(|&id| c.dataset.num(r, id)).collect();
        if let Some(v) = vals {
            data.extend(v);
            rows += 1;
        }
    }
    let m = Matrix::from_vec(data, rows, ids.len());
    MinMaxScaler::fit_transform(&m).unwrap().1
}

fn bench_kmeans(c: &mut Criterion) {
    let scaled = feature_matrix(25_000);

    eprintln!("\n== SSE vs K (25 000 EPCs, 5 scaled features) ==");
    let base = KMeansConfig::default();
    let curve = sse_curve_with_runtime(&scaled, 2..=10, &base, &RuntimeConfig::sequential());
    eprintln!("{:>4} {:>12}", "K", "SSE");
    for (k, sse) in &curve {
        eprintln!("{k:>4} {sse:>12.2}");
    }
    eprintln!(
        "elbow (marginal-decrease criterion): K = {:?}; geometric criterion: K = {:?}",
        elbow_k(&curve),
        elbow_k_by_distance(&curve)
    );

    let mut group = c.benchmark_group("kmeans");
    group.sample_size(10);
    for n in [5_000usize, 25_000] {
        let m = feature_matrix(n);
        group.bench_with_input(BenchmarkId::new("fit_k5", n), &m, |b, m| {
            b.iter(|| {
                KMeans::new(KMeansConfig {
                    k: 5,
                    ..KMeansConfig::default()
                })
                .fit_traced(m, &RuntimeConfig::sequential())
                .unwrap()
                .0
            })
        });
    }
    group.bench_function("elbow_sweep_2_to_10_25k", |b| {
        b.iter(|| sse_curve_with_runtime(&scaled, 2..=10, &base, &RuntimeConfig::sequential()))
    });
    group.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
