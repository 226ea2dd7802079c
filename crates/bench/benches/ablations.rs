//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. k-means++ vs random initialization (SSE quality and convergence);
//! 2. Levenshtein-only cleaning vs + geocoder fallback (coverage);
//! 3. unbounded DP vs bounded DP vs bit-parallel Levenshtein in the
//!    street scan (speed);
//! 4. marker-clustering cell-size sweep (aggregation behaviour);
//! 5. K-means vs agglomerative clustering (silhouette quality — the
//!    future-work comparison of §4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epc_geo::cleaning::{clean_addresses, AddressQuery, CleaningConfig};
use epc_geo::geocode::{QuotaGeocoder, SimulatedGeocoder};
use epc_geo::levenshtein::{levenshtein, levenshtein_bounded, BitPattern};
use epc_mining::kmeans::{KMeans, KMeansConfig, KMeansInit};
use epc_mining::matrix::Matrix;
use epc_mining::normalize::MinMaxScaler;
use epc_model::wellknown as wk;
use epc_runtime::RuntimeConfig;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};
use epc_viz::clustermarker::cluster_markers;
use epc_viz::scale::GeoProjection;

fn bench_ablations(c: &mut Criterion) {
    // --- 1. k-means init ablation ---
    let coll = EpcGenerator::new(SynthConfig {
        n_records: 10_000,
        ..SynthConfig::default()
    })
    .generate();
    let s = coll.dataset.schema();
    let ids: Vec<_> = wk::CASE_STUDY_FEATURES
        .iter()
        .map(|a| s.require(a).unwrap())
        .collect();
    let mut data = Vec::new();
    for r in 0..coll.dataset.n_rows() {
        for &id in &ids {
            data.push(coll.dataset.num(r, id).unwrap());
        }
    }
    let matrix = Matrix::from_vec(data, coll.dataset.n_rows(), ids.len());
    let (_, scaled) = MinMaxScaler::fit_transform(&matrix).unwrap();

    eprintln!("\n== Ablation 1: k-means init (K = 5, 10 000 points, 5 seeds) ==");
    eprintln!(
        "{:<12} {:>12} {:>12} {:>8}",
        "init", "mean SSE", "worst SSE", "iters"
    );
    for (name, init) in [
        ("random", KMeansInit::Random),
        ("kmeans++", KMeansInit::KMeansPlusPlus),
    ] {
        let mut sses = Vec::new();
        let mut iters = 0usize;
        for seed in 0..5u64 {
            let m = KMeans::new(KMeansConfig {
                k: 5,
                init,
                seed,
                ..KMeansConfig::default()
            })
            .fit_traced(&scaled, &RuntimeConfig::sequential())
            .unwrap()
            .0;
            sses.push(m.sse);
            iters += m.n_iter;
        }
        let mean = sses.iter().sum::<f64>() / sses.len() as f64;
        let worst = sses.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        eprintln!(
            "{name:<12} {mean:>12.2} {worst:>12.2} {:>8.1}",
            iters as f64 / 5.0
        );
    }

    // --- 2. geocoder ablation ---
    let mut noisy = EpcGenerator::new(SynthConfig {
        n_records: 10_000,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(
        &mut noisy,
        &NoiseConfig {
            typo_rate: 0.35,
            ..NoiseConfig::default()
        },
    );
    let ns = noisy.dataset.schema();
    let addr = ns.require(wk::ADDRESS).unwrap();
    let hn = ns.require(wk::HOUSE_NUMBER).unwrap();
    let queries: Vec<AddressQuery> = (0..noisy.dataset.n_rows())
        .map(|row| AddressQuery {
            id: row,
            address: epc_geo::address::Address {
                street: noisy.dataset.cat(row, addr).unwrap_or("").to_owned(),
                house_number: noisy.dataset.cat(row, hn).map(str::to_owned),
                zip: None,
            },
            point: None,
        })
        .collect();
    let strict = CleaningConfig {
        phi: 0.92,
        ..CleaningConfig::default()
    };
    let (_, without) = clean_addresses(
        &queries,
        &noisy.city.street_map,
        None,
        &strict,
        &RuntimeConfig::sequential(),
        None,
    );
    let geocoder = QuotaGeocoder::new(
        SimulatedGeocoder::new(&noisy.city.street_map, 0.55, 0.02),
        100_000,
    );
    let (_, with) = clean_addresses(
        &queries,
        &noisy.city.street_map,
        Some(&geocoder),
        &strict,
        &RuntimeConfig::sequential(),
        None,
    );
    eprintln!("\n== Ablation 2: geocoder fallback (phi = 0.92, 10 000 noisy addresses) ==");
    eprintln!(
        "without geocoder: {} resolved, {} unresolved",
        without.by_reference, without.unresolved
    );
    eprintln!(
        "with geocoder:    {} resolved (+{} via geocoder), {} unresolved",
        with.by_reference + with.by_geocoder,
        with.by_geocoder,
        with.unresolved
    );

    // --- 4. marker-clustering cell-size sweep ---
    let pts: Vec<(epc_geo::point::GeoPoint, Option<f64>)> = {
        let lat = s.require(wk::LATITUDE).unwrap();
        let lon = s.require(wk::LONGITUDE).unwrap();
        let eph = s.require(wk::EPH).unwrap();
        (0..coll.dataset.n_rows())
            .map(|r| {
                (
                    epc_geo::point::GeoPoint {
                        lat: coll.dataset.num(r, lat).unwrap(),
                        lon: coll.dataset.num(r, lon).unwrap(),
                    },
                    coll.dataset.num(r, eph),
                )
            })
            .collect()
    };
    let bbox =
        epc_geo::bbox::BoundingBox::from_points(&pts.iter().map(|(p, _)| *p).collect::<Vec<_>>())
            .unwrap();
    let proj = GeoProjection::fit(bbox, 760.0, 560.0, 12.0);
    eprintln!("\n== Ablation 4: marker-cluster cell size (10 000 points) ==");
    eprintln!("{:>10} {:>9} {:>12}", "cell px", "markers", "max marker");
    for cell in [14.0, 36.0, 64.0, 120.0, 240.0] {
        let markers = cluster_markers(&pts, &proj, cell);
        eprintln!(
            "{cell:>10.0} {:>9} {:>12}",
            markers.len(),
            markers.iter().map(|m| m.count).max().unwrap_or(0)
        );
    }

    // --- 5. K-means vs hierarchical, judged by silhouette ---
    {
        use epc_mining::hierarchical::{hierarchical_clusters, Linkage};
        use epc_mining::silhouette::silhouette_score;
        // Subsample: agglomerative is O(n³).
        let sub_rows: Vec<Vec<f64>> = (0..scaled.n_rows())
            .step_by(scaled.n_rows() / 600)
            .map(|i| scaled.row(i).to_vec())
            .collect();
        let sub = Matrix::from_rows(&sub_rows);
        eprintln!(
            "\n== Ablation 5: clustering algorithms (silhouette, {} points, K = 4) ==",
            sub.n_rows()
        );
        let km = KMeans::new(KMeansConfig {
            k: 4,
            ..KMeansConfig::default()
        })
        .fit_traced(&sub, &RuntimeConfig::sequential())
        .unwrap()
        .0;
        let km_sil = silhouette_score(&sub, &km.assignments).unwrap();
        eprintln!("{:<22} silhouette {:.3}", "k-means++", km_sil);
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let labels = hierarchical_clusters(&sub, 4, linkage).unwrap();
            let sil = silhouette_score(&sub, &labels).unwrap();
            eprintln!(
                "{:<22} silhouette {:.3}",
                format!("agglomerative {linkage:?}"),
                sil
            );
        }
    }

    // --- 3. Levenshtein micro-benchmarks ---
    let mut group = c.benchmark_group("ablations");
    let a = "corso vittorio emanuele ii";
    let b = "via madonna di campagna";
    group.bench_function("levenshtein_unbounded", |bch| {
        bch.iter(|| levenshtein(std::hint::black_box(a), std::hint::black_box(b)))
    });
    group.bench_function("levenshtein_bounded_3", |bch| {
        bch.iter(|| levenshtein_bounded(std::hint::black_box(a), std::hint::black_box(b), 3))
    });
    // The street scan compiles the query once and reuses it for every name.
    let pattern = BitPattern::new(a).unwrap();
    let b_len = b.chars().count();
    group.bench_function("bit_pattern_bounded_3", |bch| {
        bch.iter(|| {
            std::hint::black_box(&pattern).distance_within(std::hint::black_box(b), b_len, 3)
        })
    });
    group.bench_function("bit_pattern_unbounded", |bch| {
        bch.iter(|| {
            std::hint::black_box(&pattern).distance_within(
                std::hint::black_box(b),
                b_len,
                usize::MAX,
            )
        })
    });
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("marker_clustering", 10_000usize),
        &pts,
        |bch, pts| bch.iter(|| cluster_markers(pts, &proj, 64.0)),
    );
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
