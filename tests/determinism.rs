//! Determinism suite: the full INDICE pipeline must produce bitwise
//! identical outputs for any thread budget. A run at `threads = 1` is the
//! reference; runs at 2 and 8 threads must match it exactly — artifacts,
//! rendered HTML, cluster assignments, SSE bits, and removed-row sets.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::engine::{Indice, IndiceOutput};

fn collection() -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 1_600,
        city: CityConfig {
            n_districts: 4,
            neighbourhoods_per_district: 2,
            streets_per_neighbourhood: 3,
            houses_per_street: 10,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(&mut c, &NoiseConfig::default());
    c
}

fn run_at(threads: usize) -> IndiceOutput {
    let engine = Indice::from_collection(collection(), IndiceConfig::default())
        .with_runtime(RuntimeConfig::new(threads));
    engine.run(Stakeholder::PublicAdministration).unwrap()
}

fn assert_outputs_identical(reference: &IndiceOutput, other: &IndiceOutput, threads: usize) {
    // Stage 1: cleaning and outlier removal.
    assert_eq!(
        reference.preprocess.kept_rows, other.preprocess.kept_rows,
        "kept rows differ at {threads} threads"
    );
    assert_eq!(
        reference.preprocess.removed_rows, other.preprocess.removed_rows,
        "removed rows differ at {threads} threads"
    );
    assert_eq!(
        reference.preprocess.cleaning, other.preprocess.cleaning,
        "cleaning report differs at {threads} threads"
    );
    assert_eq!(
        reference.preprocess.multivariate_flagged, other.preprocess.multivariate_flagged,
        "DBSCAN flags differ at {threads} threads"
    );

    // Stage 2: clustering and rules, down to float bits.
    assert_eq!(
        reference.analytics.kmeans.assignments, other.analytics.kmeans.assignments,
        "cluster assignments differ at {threads} threads"
    );
    assert_eq!(
        reference.analytics.kmeans.sse.to_bits(),
        other.analytics.kmeans.sse.to_bits(),
        "SSE bits differ at {threads} threads"
    );
    assert_eq!(
        reference.analytics.kmeans.centroids, other.analytics.kmeans.centroids,
        "centroids differ at {threads} threads"
    );
    assert_eq!(
        reference.analytics.chosen_k, other.analytics.chosen_k,
        "chosen K differs at {threads} threads"
    );
    assert_eq!(
        reference.analytics.rules, other.analytics.rules,
        "association rules differ at {threads} threads"
    );

    // Stage 3: every artifact byte-for-byte, including drill-down pages.
    assert_eq!(
        reference.dashboard.render_html(),
        other.dashboard.render_html(),
        "dashboard HTML differs at {threads} threads"
    );
    let ref_names: Vec<&String> = reference.artifacts.keys().collect();
    let other_names: Vec<&String> = other.artifacts.keys().collect();
    assert_eq!(
        ref_names, other_names,
        "artifact set differs at {threads} threads"
    );
    for (name, content) in &reference.artifacts {
        assert_eq!(
            content, &other.artifacts[name],
            "artifact {name} differs at {threads} threads"
        );
    }
}

mod fault_shuffle {
    //! Quarantine determinism under row shuffling: fault decisions key on
    //! stable record identities, so permuting the input rows (moving every
    //! fault to a different position) with a fixed fault seed must yield
    //! the identical quarantine set and the identical clean subset — and
    //! the analytics over that subset must stay bitwise identical across
    //! thread budgets.

    use super::*;
    use epc_faults::{Corruption, DeterministicInjector};
    use epc_model::{wellknown as wk, Dataset};
    use indice::engine::SupervisedOutput;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    const FAULT_SEED: u64 = 0xFEED;

    fn small_collection() -> SyntheticCollection {
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

    fn injector() -> DeterministicInjector {
        DeterministicInjector::new(FAULT_SEED)
            .with_record_rate(0.15)
            .with_corruption(Corruption::NonFinite {
                attribute: wk::ASPECT_RATIO.to_owned(),
            })
            .with_geocode_rate(0.1)
    }

    /// Rebuilds `dataset` with its rows in `perm` order.
    fn permute_rows(dataset: &Dataset, perm: &[usize]) -> Dataset {
        let mut out = Dataset::new(dataset.schema_arc());
        for &row in perm {
            let mut record = out.empty_record();
            for (id, _) in dataset.schema().iter() {
                record
                    .set(id, dataset.value(row, id))
                    .expect("same schema, same ids");
            }
            out.push_record(record).expect("record matches schema");
        }
        out
    }

    /// Fisher–Yates driven by splitmix64 — deterministic per seed.
    fn permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }

    fn run_supervised(dataset: Dataset, threads: usize) -> SupervisedOutput {
        let c = small_collection();
        let engine = indice::engine::Indice::new(
            dataset,
            c.city.street_map,
            c.city.hierarchy,
            IndiceConfig::default(),
        )
        .with_runtime(RuntimeConfig::new(threads));
        let inj = injector();
        engine.run_supervised(Stakeholder::PublicAdministration, Some(&inj), None)
    }

    /// The certificate ids surviving preprocessing — the clean subset.
    fn clean_subset(out: &SupervisedOutput) -> BTreeSet<String> {
        let cleaned = &out.preprocess.as_ref().expect("preprocess ran").dataset;
        let id = cleaned.schema().require(wk::CERTIFICATE_ID).expect("id");
        (0..cleaned.n_rows())
            .filter_map(|row| cleaned.cat(row, id).map(str::to_owned))
            .collect()
    }

    struct Baseline {
        quarantine_keys: Vec<String>,
        clean_subset: BTreeSet<String>,
    }

    fn baseline() -> &'static Baseline {
        static BASELINE: OnceLock<Baseline> = OnceLock::new();
        BASELINE.get_or_init(|| {
            let out = run_supervised(small_collection().dataset, 1);
            assert!(out.outcome.produced_output());
            assert!(!out.quarantine.is_empty(), "faults must actually land");
            Baseline {
                quarantine_keys: out
                    .quarantine
                    .keys()
                    .iter()
                    .map(|k| k.to_string())
                    .collect(),
                clean_subset: clean_subset(&out),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 3 })]

        #[test]
        fn shuffled_fault_positions_keep_quarantine_and_clean_subset(
            shuffle_seed in 1u64..u64::MAX
        ) {
            let base = baseline();
            let c = small_collection();
            let perm = permutation(c.dataset.n_rows(), shuffle_seed);
            let shuffled = permute_rows(&c.dataset, &perm);

            let reference = run_supervised(shuffled.clone(), 1);
            prop_assert!(reference.outcome.produced_output());

            // Same faults hit the same records, wherever the rows moved.
            let keys: Vec<String> = reference
                .quarantine
                .keys()
                .iter()
                .map(|k| k.to_string())
                .collect();
            prop_assert_eq!(&keys, &base.quarantine_keys);
            prop_assert_eq!(&clean_subset(&reference), &base.clean_subset);

            // And the analytics over the clean subset stays bitwise
            // identical across thread budgets.
            for threads in [2, 8] {
                let other = run_supervised(shuffled.clone(), threads);
                let ra = reference.analytics.as_ref().expect("analytics ran");
                let oa = other.analytics.as_ref().expect("analytics ran");
                prop_assert_eq!(&ra.kmeans.assignments, &oa.kmeans.assignments);
                prop_assert_eq!(ra.kmeans.sse.to_bits(), oa.kmeans.sse.to_bits());
                prop_assert_eq!(ra.chosen_k, oa.chosen_k);
                prop_assert_eq!(&ra.rules, &oa.rules);
                prop_assert_eq!(
                    other.quarantine.keys().iter().map(|k| k.to_string()).collect::<Vec<_>>(),
                    keys.clone()
                );
            }
        }
    }
}

mod hash_order {
    //! Regression tests for the D3 sweep: result-producing modules must not
    //! let hash-map iteration order reach their outputs. Each test pins an
    //! order-invariance property that held only by accident (or not at all)
    //! when these paths were built on `std::collections::HashMap`.

    use epc_mining::apriori::{Apriori, TransactionSet};
    use epc_mining::matrix::Matrix;
    use epc_mining::naive_bayes::GaussianNb;
    use epc_stats::freq::frequency_table;
    use epc_viz::clustermarker::{cluster_markers, ClusterMarkerMap};
    use epc_viz::scale::GeoProjection;
    use std::collections::BTreeSet;

    #[test]
    fn frequency_table_is_input_order_invariant() {
        let labels = ["C", "A", "B", "A", "C", "A", "D", "B", "C", "A"];
        let reference = frequency_table(labels.iter().copied());
        let mut reversed = labels;
        reversed.reverse();
        assert_eq!(reference, frequency_table(reversed.iter().copied()));
        // Rotations exercise every first-appearance order of the labels.
        for rot in 1..labels.len() {
            let mut rotated = labels;
            rotated.rotate_left(rot);
            assert_eq!(reference, frequency_table(rotated.iter().copied()));
        }
    }

    /// Mines `transactions` and returns the frequent itemsets as
    /// `(sorted item names, count)` — an id-free, order-free fingerprint.
    fn mined_fingerprint(transactions: &[Vec<&str>]) -> BTreeSet<(Vec<String>, usize)> {
        let mut t = TransactionSet::new();
        for items in transactions {
            t.push(items);
        }
        let frequent = Apriori {
            min_support: 0.3,
            max_len: 3,
        }
        .mine(&t, &epc_runtime::RuntimeConfig::sequential())
        .0;
        frequent
            .iter()
            .map(|f| {
                let mut names = t.dict.resolve(&f.items);
                names.sort();
                (names, f.count)
            })
            .collect()
    }

    #[test]
    fn apriori_itemsets_are_transaction_order_invariant() {
        let transactions = vec![
            vec!["bread", "milk"],
            vec!["bread", "diapers", "beer", "eggs"],
            vec!["milk", "diapers", "beer", "cola"],
            vec!["bread", "milk", "diapers", "beer"],
            vec!["bread", "milk", "diapers", "cola"],
        ];
        let reference = mined_fingerprint(&transactions);
        assert!(!reference.is_empty());
        let mut reversed = transactions.clone();
        reversed.reverse();
        assert_eq!(reference, mined_fingerprint(&reversed));
        let mut rotated = transactions;
        rotated.rotate_left(2);
        assert_eq!(reference, mined_fingerprint(&rotated));
    }

    #[test]
    fn naive_bayes_class_order_is_independent_of_first_appearance() {
        // Each class's rows are identical, so per-class moments cannot
        // depend on row order — any difference between the two fits could
        // only come from class-grouping iteration order.
        let low = vec![1.0, 2.0];
        let high = vec![9.0, 8.0];
        let rows_a: Vec<Vec<f64>> = vec![low.clone(), low.clone(), high.clone(), high.clone()];
        let rows_b: Vec<Vec<f64>> = vec![high.clone(), high.clone(), low.clone(), low.clone()];
        let nb_a = GaussianNb::fit(&Matrix::from_rows(&rows_a), &["lo", "lo", "hi", "hi"]).unwrap();
        let nb_b = GaussianNb::fit(&Matrix::from_rows(&rows_b), &["hi", "hi", "lo", "lo"]).unwrap();
        assert_eq!(nb_a.classes(), nb_b.classes());
        let mut sorted = nb_a.classes().to_vec();
        sorted.sort();
        assert_eq!(nb_a.classes(), sorted.as_slice(), "classes must be sorted");
        for x in [&low, &high, &vec![5.0, 5.0]] {
            assert_eq!(nb_a.predict(x), nb_b.predict(x));
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&nb_a.log_joint(x)), bits(&nb_b.log_joint(x)));
        }
    }

    #[test]
    fn cluster_markers_are_repeatable_and_strictly_ordered() {
        use epc_geo::bbox::BoundingBox;
        use epc_geo::point::GeoPoint;
        use epc_model::Granularity;

        let points: Vec<(GeoPoint, Option<f64>)> = (0..400)
            .map(|i| {
                let a = ((i as u64 * 2654435761) % 997) as f64 / 997.0;
                let b = ((i as u64 * 40503 + 7) % 991) as f64 / 991.0;
                (
                    GeoPoint::new(45.0 + a * 0.08, 7.6 + b * 0.08),
                    Some(40.0 + (i % 150) as f64),
                )
            })
            .collect();
        let pts: Vec<GeoPoint> = points.iter().map(|(p, _)| *p).collect();
        let bounds = BoundingBox::from_points(&pts).unwrap();
        let proj = GeoProjection::fit(bounds, 760.0, 440.0, 12.0);
        let reference = cluster_markers(&points, &proj, 64.0);
        for _ in 0..3 {
            assert_eq!(reference, cluster_markers(&points, &proj, 64.0));
        }
        // Marker order is a total order: count desc, then lat, then lon —
        // no two adjacent markers may be order-ambiguous.
        for w in reference.windows(2) {
            assert!(
                w[0].count > w[1].count || (w[0].count == w[1].count && w[0].center != w[1].center),
                "ambiguous marker order"
            );
        }
        // The map-level wrapper is repeatable too.
        let mut map = ClusterMarkerMap::new("t", "v", Granularity::District);
        for (p, v) in &points {
            map.add_point(*p, *v);
        }
        assert_eq!(map.markers(), map.markers());
    }
}

#[test]
fn pipeline_outputs_are_identical_across_thread_counts() {
    let reference = run_at(1);
    // The parallel paths really are exercised: the drill-down pages
    // produced by the coarse-grained zoom fan-out must be present.
    for level in epc_model::Granularity::ALL {
        assert!(reference
            .artifacts
            .contains_key(&format!("dashboard_{level}.html")));
    }
    for threads in [2, 8] {
        let parallel = run_at(threads);
        assert_outputs_identical(&reference, &parallel, threads);
    }
}
