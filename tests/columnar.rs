//! Differential row-vs-columnar harness (ISSUE 10).
//!
//! The columnar engine is an execution detail: switching
//! `Engine::Row` → `Engine::Columnar` must change *nothing* observable —
//! query results, cleaning outcomes, K-means centroids, and dashboard
//! artifacts stay bitwise identical. This suite gates that contract:
//!
//! * full-pipeline runs at 1k records × seeds {2024, 7} × threads
//!   {1, 2, 8} compared artifact-by-artifact against the row reference;
//! * component differentials at 25k records (query battery, group-by
//!   aggregation, address cleaning, feature gathering + K-means) and a
//!   DBSCAN differential at 2k;
//! * proptests for encode/decode round-trips (dictionary, delta, RLE,
//!   bit-pack), zone-map pruning soundness (a skipped block provably
//!   contains no match — checked by bit-equality with the naive filter),
//!   and selection-bitmap algebra (and/or/not vs naive).
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_query::Stakeholder;
use epc_runtime::{Engine, RuntimeConfig};
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::engine::{Indice, IndiceOutput};

const SEEDS: [u64; 2] = [2024, 7];

fn collection(n_records: usize, seed: u64) -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records,
        seed,
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
    apply_noise(
        &mut c,
        &NoiseConfig {
            seed: seed ^ 0x00C0_FFEE,
            ..NoiseConfig::default()
        },
    );
    c
}

mod full_pipeline {
    //! The end-to-end gate: every artifact byte-for-byte.

    use super::*;

    fn run(seed: u64, threads: usize, engine: Engine) -> IndiceOutput {
        let indice = Indice::from_collection(collection(1_000, seed), IndiceConfig::default())
            .with_runtime(RuntimeConfig::new(threads).with_engine(engine));
        indice.run(Stakeholder::PublicAdministration).unwrap()
    }

    fn assert_identical(row: &IndiceOutput, col: &IndiceOutput, seed: u64, threads: usize) {
        let at = format!("seed {seed}, {threads} threads");
        // Stage 1: cleaning and outlier removal.
        assert_eq!(
            row.preprocess.kept_rows, col.preprocess.kept_rows,
            "kept rows differ at {at}"
        );
        assert_eq!(
            row.preprocess.removed_rows, col.preprocess.removed_rows,
            "removed rows differ at {at}"
        );
        assert_eq!(
            row.preprocess.cleaning, col.preprocess.cleaning,
            "cleaning report differs at {at}"
        );
        assert_eq!(
            row.preprocess.multivariate_flagged, col.preprocess.multivariate_flagged,
            "DBSCAN flags differ at {at}"
        );
        // Stage 2: clustering, down to float bits.
        assert_eq!(
            row.analytics.kmeans.assignments, col.analytics.kmeans.assignments,
            "cluster assignments differ at {at}"
        );
        assert_eq!(
            row.analytics.kmeans.sse.to_bits(),
            col.analytics.kmeans.sse.to_bits(),
            "SSE bits differ at {at}"
        );
        assert_eq!(
            row.analytics.kmeans.centroids, col.analytics.kmeans.centroids,
            "centroids differ at {at}"
        );
        assert_eq!(row.analytics.chosen_k, col.analytics.chosen_k);
        assert_eq!(row.analytics.rules, col.analytics.rules);
        // Stage 3: every artifact byte-for-byte.
        assert_eq!(
            row.dashboard.render_html(),
            col.dashboard.render_html(),
            "dashboard HTML differs at {at}"
        );
        let row_names: Vec<&String> = row.artifacts.keys().collect();
        let col_names: Vec<&String> = col.artifacts.keys().collect();
        assert_eq!(row_names, col_names, "artifact set differs at {at}");
        for (name, content) in &row.artifacts {
            assert_eq!(
                content, &col.artifacts[name],
                "artifact {name} differs at {at}"
            );
        }
    }

    #[test]
    fn columnar_pipeline_matches_row_bitwise_across_seeds_and_threads() {
        for seed in SEEDS {
            let reference = run(seed, 1, Engine::Row);
            for threads in [1, 2, 8] {
                let columnar = run(seed, threads, Engine::Columnar);
                assert_identical(&reference, &columnar, seed, threads);
            }
        }
    }
}

mod components_25k {
    //! Per-stage differentials at the paper's collection scale (~25 000
    //! certificates), where a full-pipeline run would be dominated by
    //! the O(n²) DBSCAN sweep.

    use super::*;
    use epc_columnar::{DatasetColumnarExt, ScanStats};
    use epc_model::{wellknown as wk, Dataset};
    use epc_query::{
        group_by, group_by_columnar, mask_columnar, matching_rows_columnar, AggFn, Predicate, Query,
    };
    use std::sync::OnceLock;

    fn dataset(seed: u64) -> &'static Dataset {
        static CACHE: OnceLock<Vec<(u64, Dataset)>> = OnceLock::new();
        let all = CACHE.get_or_init(|| {
            SEEDS
                .iter()
                .map(|&s| (s, collection(25_000, s).dataset))
                .collect()
        });
        &all.iter().find(|(s, _)| *s == seed).unwrap().1
    }

    fn predicate_battery() -> Vec<Predicate> {
        vec![
            Predicate::between(wk::EPH, 50.0, 250.0),
            Predicate::eq(wk::EPC_CLASS, "C"),
            Predicate::between(wk::EPH, 50.0, 250.0).and(Predicate::eq(wk::EPC_CLASS, "C").not()),
            Predicate::eq(wk::HEATING_FUEL, "no-such-fuel").or(Predicate::between(
                wk::HEATED_VOLUME,
                0.0,
                1.0e4,
            )),
            Predicate::between(wk::ETA_H, 0.6, 0.8).and(Predicate::between(
                wk::ASPECT_RATIO,
                0.2,
                0.7,
            )),
            Predicate::True,
        ]
    }

    #[test]
    fn query_battery_matches_row_path() {
        for seed in SEEDS {
            let ds = dataset(seed);
            let store = ds.to_columns();
            for (i, pred) in predicate_battery().into_iter().enumerate() {
                let bound = pred.bind(ds.schema()).unwrap();
                let (col_mask, _) = mask_columnar(&pred, &store).unwrap();
                assert_eq!(
                    bound.mask(ds),
                    col_mask,
                    "mask differs for predicate #{i}, seed {seed}"
                );
                for query in [
                    Query::filtered(pred.clone()),
                    Query::filtered(pred.clone()).with_limit(37),
                ] {
                    let mut stats = ScanStats::default();
                    assert_eq!(
                        query.matching_rows(ds).unwrap(),
                        matching_rows_columnar(&query, &store, &mut stats).unwrap(),
                        "matching rows differ for predicate #{i}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn zone_maps_skip_provably_empty_blocks() {
        let ds = dataset(2024);
        let store = ds.to_columns();
        // A range far above any synthetic EPH value: every block's zone map
        // excludes it, so the scan must skip all blocks and match nothing.
        let pred = Predicate::between(wk::EPH, 1.0e9, 2.0e9);
        let query = Query::filtered(pred.clone());
        let mut stats = ScanStats::default();
        let rows = matching_rows_columnar(&query, &store, &mut stats).unwrap();
        assert_eq!(rows, query.matching_rows(ds).unwrap());
        assert!(rows.is_empty());
        assert!(stats.blocks_skipped > 0, "zone maps must actually skip");
        assert_eq!(stats.blocks_scanned, 0, "no block may need decoding");
    }

    #[test]
    fn group_by_matches_row_path() {
        const ALL_AGGS: [AggFn; 6] = [
            AggFn::Mean,
            AggFn::Count,
            AggFn::Min,
            AggFn::Max,
            AggFn::Median,
            AggFn::Std,
        ];
        for seed in SEEDS {
            let ds = dataset(seed);
            let store = ds.to_columns();
            for (group_attr, value_attr) in [
                (wk::EPC_CLASS, wk::EPH),
                (wk::DISTRICT, wk::EP_GLOBAL),
                (wk::HEATING_FUEL, wk::HEATED_VOLUME),
            ] {
                let row = group_by(ds, group_attr, value_attr, &ALL_AGGS).unwrap();
                let col = group_by_columnar(&store, group_attr, value_attr, &ALL_AGGS).unwrap();
                assert_eq!(row, col, "group-by {group_attr}/{value_attr}, seed {seed}");
            }
        }
    }

    #[test]
    fn cleaning_outcomes_match_row_path() {
        use epc_geo::address::Address;
        use epc_geo::cleaning::{
            clean_addresses, clean_addresses_columnar, AddressQuery, CleaningConfig,
        };
        use epc_geo::geocode::{QuotaGeocoder, SimulatedGeocoder};
        use epc_geo::point::GeoPoint;

        let c = collection(25_000, 2024);
        let s = c.dataset.schema();
        let (addr, hn, zip) = (
            s.require(wk::ADDRESS).unwrap(),
            s.require(wk::HOUSE_NUMBER).unwrap(),
            s.require(wk::ZIP_CODE).unwrap(),
        );
        let (lat, lon) = (
            s.require(wk::LATITUDE).unwrap(),
            s.require(wk::LONGITUDE).unwrap(),
        );
        let queries: Vec<AddressQuery> = (0..c.dataset.n_rows())
            .map(|row| AddressQuery {
                id: row,
                address: Address {
                    street: c.dataset.cat(row, addr).unwrap_or("").to_owned(),
                    house_number: c.dataset.cat(row, hn).map(str::to_owned),
                    zip: c.dataset.cat(row, zip).map(str::to_owned),
                },
                point: match (c.dataset.num(row, lat), c.dataset.num(row, lon)) {
                    (Some(a), Some(b)) => Some(GeoPoint { lat: a, lon: b }),
                    _ => None,
                },
            })
            .collect();
        let cfg = CleaningConfig::default();
        for threads in [1, 2, 8] {
            let runtime = RuntimeConfig::new(threads);
            // Fresh geocoders per engine: the quota counter is stateful.
            let geo_row =
                QuotaGeocoder::new(SimulatedGeocoder::new(&c.city.street_map, 0.55, 0.0), 500);
            let geo_col =
                QuotaGeocoder::new(SimulatedGeocoder::new(&c.city.street_map, 0.55, 0.0), 500);
            let (row_cleaned, row_report) = clean_addresses(
                &queries,
                &c.city.street_map,
                Some(&geo_row),
                &cfg,
                &runtime,
                None,
            );
            let (col_cleaned, col_report, dedup) = clean_addresses_columnar(
                &queries,
                &c.city.street_map,
                Some(&geo_col),
                &cfg,
                &runtime,
                None,
            );
            assert_eq!(
                row_cleaned, col_cleaned,
                "cleaned rows at {threads} threads"
            );
            assert_eq!(row_report, col_report, "report at {threads} threads");
            assert_eq!(dedup.total, queries.len());
            assert!(
                dedup.distinct_streets < dedup.total / 10,
                "dedup must collapse repeated streets ({} distinct of {})",
                dedup.distinct_streets,
                dedup.total
            );
        }
    }

    fn row_path_features(ds: &Dataset) -> (Vec<usize>, Vec<f64>) {
        let ids: Vec<_> = wk::CASE_STUDY_FEATURES
            .iter()
            .map(|a| ds.schema().require(a).unwrap())
            .collect();
        let mut rows = Vec::new();
        let mut data = Vec::new();
        for row in 0..ds.n_rows() {
            let vals: Vec<Option<f64>> = ids.iter().map(|&id| ds.num(row, id)).collect();
            if vals.iter().all(Option::is_some) {
                rows.push(row);
                data.extend(vals.into_iter().flatten());
            }
        }
        (rows, data)
    }

    #[test]
    fn kmeans_centroids_match_row_path() {
        use epc_mining::kmeans::{KMeans, KMeansConfig};
        use epc_mining::matrix::Matrix;

        for seed in SEEDS {
            let ds = dataset(seed);
            let store = ds.to_columns();
            let ids: Vec<_> = wk::CASE_STUDY_FEATURES
                .iter()
                .map(|a| ds.schema().require(a).unwrap())
                .collect();
            let (row_rows, row_data) = row_path_features(ds);
            let (col_rows, col_matrix) = epc_mining::columnar::feature_matrix(&store, &ids);
            assert_eq!(row_rows, col_rows, "gathered rows, seed {seed}");
            let row_matrix = Matrix::from_vec(row_data, row_rows.len(), ids.len());
            assert_eq!(
                row_matrix
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                col_matrix
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "feature matrix bits, seed {seed}"
            );
            let kmeans = KMeans::new(KMeansConfig::default());
            let runtime = RuntimeConfig::new(2);
            let (row_model, _) = kmeans.fit_traced(&row_matrix, &runtime).unwrap();
            let (col_model, _) = kmeans.fit_traced(&col_matrix, &runtime).unwrap();
            assert_eq!(row_model.centroids, col_model.centroids, "seed {seed}");
            assert_eq!(row_model.assignments, col_model.assignments, "seed {seed}");
        }
    }

    #[test]
    fn dbscan_labels_match_row_path_small_n() {
        use epc_mining::dbscan::{dbscan_with_runtime, DbscanConfig};
        use epc_mining::matrix::Matrix;

        let c = collection(2_000, 7);
        let ds = &c.dataset;
        let store = ds.to_columns();
        let ids: Vec<_> = wk::CASE_STUDY_FEATURES
            .iter()
            .map(|a| ds.schema().require(a).unwrap())
            .collect();
        let (row_rows, row_data) = row_path_features(ds);
        let (col_rows, col_matrix) = epc_mining::columnar::feature_matrix(&store, &ids);
        assert_eq!(row_rows, col_rows);
        let row_matrix = Matrix::from_vec(row_data, row_rows.len(), ids.len());
        let cfg = DbscanConfig {
            eps: 0.8,
            min_points: 5,
        };
        for threads in [1, 2, 8] {
            let runtime = RuntimeConfig::new(threads);
            assert_eq!(
                dbscan_with_runtime(&row_matrix, &cfg, &runtime),
                dbscan_with_runtime(&col_matrix, &cfg, &runtime),
                "DBSCAN at {threads} threads"
            );
        }
    }
}

mod proptests {
    //! Encode/decode round-trips, zone-map soundness, bitmap algebra.

    use epc_columnar::{Bitmap, CodeBlock, NumBlock, NumericColumn, ScanStats, SortedDict};
    use proptest::prelude::*;

    /// Mixed-regime f64 slots: integral (delta + bit-pack), constant
    /// runs (RLE), and raw bit patterns (plain — including NaN payloads,
    /// infinities, and -0.0, which must survive bit-for-bit).
    fn slot_value(kind: u8, small: i64, raw: u64) -> f64 {
        match kind % 4 {
            0 => small as f64,
            1 => 42.5,
            2 => f64::from_bits(raw),
            _ => (small as f64) * 1.0e6,
        }
    }

    fn bits(slots: &[Option<f64>]) -> Vec<Option<u64>> {
        slots.iter().map(|s| s.map(f64::to_bits)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn num_block_round_trips_bitwise(
            raw in prop::collection::vec(
                prop::option::of((0u8..4, -4096i64..4096, 0u64..u64::MAX)),
                0..700,
            )
        ) {
            let slots: Vec<Option<f64>> = raw
                .into_iter()
                .map(|s| s.map(|(k, i, r)| slot_value(k, i, r)))
                .collect();
            let block = NumBlock::encode(&slots);
            let mut decoded = Vec::new();
            block.decode_into(&mut decoded);
            prop_assert_eq!(bits(&decoded), bits(&slots));
            prop_assert!(block.bytes_encoded() <= block.bytes_plain().max(64));
        }

        #[test]
        fn code_block_round_trips(
            slots in prop::collection::vec(prop::option::of(0u32..12), 0..700)
        ) {
            let block = CodeBlock::encode(&slots);
            let mut decoded = Vec::new();
            block.decode_into(&mut decoded);
            prop_assert_eq!(decoded, slots);
        }

        #[test]
        fn dictionary_round_trips_and_is_input_order_invariant(
            labels in prop::collection::vec("[a-d]{0,3}", 0..60),
            rot in 0usize..59,
        ) {
            let dict = SortedDict::from_labels(labels.iter().map(String::as_str));
            // Round-trip: every label resolves to an id that resolves back.
            for label in &labels {
                let id = dict.id_of(label).expect("inserted label");
                prop_assert_eq!(dict.label(id), Some(label.as_str()));
            }
            // Ids are assigned in sorted label order.
            let sorted: Vec<&str> = dict.labels().iter().map(String::as_str).collect();
            let mut expect = sorted.clone();
            expect.sort_unstable();
            expect.dedup();
            prop_assert_eq!(sorted, expect);
            // Input order cannot leak into the encoding.
            let mut rotated = labels.clone();
            if !rotated.is_empty() {
                let mid = rot % rotated.len();
                rotated.rotate_left(mid);
            }
            let dict2 = SortedDict::from_labels(rotated.iter().map(String::as_str));
            prop_assert_eq!(dict.labels(), dict2.labels());
        }

        #[test]
        fn zone_map_pruning_loses_no_match(
            raw in prop::collection::vec(
                prop::option::of((0u8..4, -4096i64..4096, 0u64..u64::MAX)),
                0..2600,
            ),
            lo in -5000.0f64..5000.0,
            width in 0.0f64..2000.0,
        ) {
            let slots: Vec<Option<f64>> = raw
                .into_iter()
                .map(|s| s.map(|(k, i, r)| slot_value(k, i, r)))
                .collect();
            let col = NumericColumn::from_slots(&slots);
            let hi = lo + width;
            let mut stats = ScanStats::default();
            let got = epc_columnar::kernels::num_range(&col, Some(lo), Some(hi), &mut stats);
            let naive: Vec<bool> = slots
                .iter()
                .map(|s| s.map(|v| v >= lo && v <= hi).unwrap_or(false))
                .collect();
            // Bit-equality with the naive filter: a skipped block that
            // contained a match would show up as a lost `true` here.
            prop_assert_eq!(got.to_bools(), naive);
            prop_assert_eq!(
                (stats.blocks_scanned + stats.blocks_skipped) as usize,
                col.blocks().len()
            );
        }

        #[test]
        fn bitmap_algebra_matches_naive(
            pair in prop::collection::vec((0u8..2, 0u8..2), 0..300)
        ) {
            let (a_bools, b_bools): (Vec<bool>, Vec<bool>) =
                pair.into_iter().map(|(x, y)| (x == 1, y == 1)).unzip();
            let a = Bitmap::from_bools(&a_bools);
            let b = Bitmap::from_bools(&b_bools);
            let zip = |f: fn(bool, bool) -> bool| -> Vec<bool> {
                a_bools.iter().zip(&b_bools).map(|(&x, &y)| f(x, y)).collect()
            };
            prop_assert_eq!(a.and(&b).to_bools(), zip(|x, y| x && y));
            prop_assert_eq!(a.or(&b).to_bools(), zip(|x, y| x || y));
            prop_assert_eq!(
                a.not().to_bools(),
                a_bools.iter().map(|&x| !x).collect::<Vec<_>>()
            );
            // ones() enumerates exactly the set bits, in order.
            let ones: Vec<usize> = a.ones().collect();
            let expect: Vec<usize> = a_bools
                .iter()
                .enumerate()
                .filter_map(|(i, &x)| x.then_some(i))
                .collect();
            prop_assert_eq!(ones, expect);
        }
    }
}
