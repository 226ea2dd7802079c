//! Integration of the §2.1.1 cleaning algorithm against synthetic ground
//! truth: reconstruction accuracy, φ monotonicity, and the geocoder-quota
//! trade-off the paper describes.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_geo::address::Address;
use epc_geo::cleaning::{clean_addresses, AddressQuery, CleaningConfig};
use epc_geo::geocode::{Geocoder, QuotaGeocoder, SimulatedGeocoder};
use epc_geo::point::GeoPoint;
use epc_model::wellknown as wk;
use epc_runtime::RuntimeConfig;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};

fn noisy_collection() -> SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: 1_200,
        city: CityConfig {
            n_districts: 4,
            neighbourhoods_per_district: 2,
            streets_per_neighbourhood: 4,
            houses_per_street: 10,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    apply_noise(
        &mut c,
        &NoiseConfig {
            typo_rate: 0.3,
            abbreviation_rate: 0.2,
            zip_missing_rate: 0.1,
            zip_wrong_rate: 0.03,
            coord_missing_rate: 0.08,
            coord_wrong_rate: 0.06,
            univariate_outlier_rate: 0.0,
            multivariate_outlier_rate: 0.0,
            seed: 11,
        },
    );
    c
}

fn queries_of(c: &SyntheticCollection) -> Vec<AddressQuery> {
    let s = c.dataset.schema();
    let addr = s.require(wk::ADDRESS).unwrap();
    let hn = s.require(wk::HOUSE_NUMBER).unwrap();
    let zip = s.require(wk::ZIP_CODE).unwrap();
    let lat = s.require(wk::LATITUDE).unwrap();
    let lon = s.require(wk::LONGITUDE).unwrap();
    (0..c.dataset.n_rows())
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
        .collect()
}

fn street_accuracy(cleaned: &[epc_geo::cleaning::CleanedAddress], c: &SyntheticCollection) -> f64 {
    let ok = cleaned
        .iter()
        .filter(|x| x.address.street == c.truth.streets[x.id])
        .count();
    ok as f64 / cleaned.len().max(1) as f64
}

#[test]
fn default_phi_reconstructs_most_streets() {
    let c = noisy_collection();
    let queries = queries_of(&c);
    let (cleaned, report) = clean_addresses(
        &queries,
        &c.city.street_map,
        None,
        &CleaningConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    );
    let acc = street_accuracy(&cleaned, &c);
    assert!(acc > 0.9, "street accuracy {acc}");
    assert_eq!(report.total, queries.len());
    assert!(report.by_reference as f64 > 0.9 * report.total as f64);
}

#[test]
fn coordinates_are_restored_close_to_truth() {
    let c = noisy_collection();
    let queries = queries_of(&c);
    let (cleaned, _) = clean_addresses(
        &queries,
        &c.city.street_map,
        None,
        &CleaningConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    );
    let mut errors_m = Vec::new();
    for x in &cleaned {
        if let Some(p) = x.point {
            errors_m.push(p.haversine_m(&c.truth.points[x.id]));
        }
    }
    let median = {
        let mut v = errors_m.clone();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[v.len() / 2]
    };
    // Nearest-civic interpolation keeps errors at street scale.
    assert!(median < 300.0, "median coordinate error {median} m");
}

#[test]
fn stricter_phi_resolves_fewer_by_reference() {
    let c = noisy_collection();
    let queries = queries_of(&c);
    let mut prev = usize::MAX;
    for phi in [0.7, 0.8, 0.9, 0.97] {
        let cfg = CleaningConfig {
            phi,
            ..CleaningConfig::default()
        };
        let (_, report) = clean_addresses(
            &queries,
            &c.city.street_map,
            None,
            &cfg,
            &RuntimeConfig::sequential(),
            None,
        );
        assert!(
            report.by_reference <= prev,
            "phi {phi}: {} > {prev}",
            report.by_reference
        );
        prev = report.by_reference;
    }
}

#[test]
fn geocoder_quota_rescues_unresolved_addresses() {
    let c = noisy_collection();
    let queries = queries_of(&c);
    // Very strict φ so the reference map misses the typo-heavy tail.
    let cfg = CleaningConfig {
        phi: 0.97,
        ..CleaningConfig::default()
    };
    let (_, without) = clean_addresses(
        &queries,
        &c.city.street_map,
        None,
        &cfg,
        &RuntimeConfig::sequential(),
        None,
    );
    assert!(
        without.unresolved > 0,
        "need unresolved addresses for the test"
    );

    let geocoder = QuotaGeocoder::new(
        SimulatedGeocoder::new(&c.city.street_map, 0.55, 0.0),
        10_000,
    );
    let (_, with) = clean_addresses(
        &queries,
        &c.city.street_map,
        Some(&geocoder),
        &cfg,
        &RuntimeConfig::sequential(),
        None,
    );
    assert!(with.unresolved < without.unresolved);
    assert!(with.by_geocoder > 0);
    assert_eq!(with.geocoder_requests, geocoder.requests_made());
    // Quota respected: only unresolved-by-reference addresses hit the API.
    assert!(geocoder.requests_made() <= without.unresolved);
}

#[test]
fn abbreviated_streets_are_exact_matches_after_normalization() {
    let c = noisy_collection();
    let s = c.dataset.schema();
    let addr = s.require(wk::ADDRESS).unwrap();
    // Find an abbreviated, non-typo row.
    let row = (0..c.dataset.n_rows()).find(|&r| {
        let street = c.dataset.cat(r, addr).unwrap_or("");
        (street.starts_with("C.so ") || street.starts_with("V. "))
            && epc_geo::address::normalize_street(street)
                == epc_geo::address::normalize_street(&c.truth.streets[r])
    });
    let Some(row) = row else {
        return; // seed produced no such row; nothing to check
    };
    let queries = queries_of(&c);
    let (cleaned, _) = clean_addresses(
        &queries[row..=row],
        &c.city.street_map,
        None,
        &CleaningConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    );
    match cleaned[0].outcome {
        epc_geo::cleaning::CleaningOutcome::ResolvedByReference { similarity } => {
            assert_eq!(similarity, 1.0, "abbreviation must normalize to exact")
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(cleaned[0].address.street, c.truth.streets[row]);
}

#[test]
fn unresolved_never_invents_data() {
    let c = noisy_collection();
    let map = &c.city.street_map;
    let garbage = AddressQuery {
        id: 0,
        address: Address::new("zzz qqq xxx", Some("1"), None),
        point: None,
    };
    let (cleaned, report) = clean_addresses(
        std::slice::from_ref(&garbage),
        map,
        None,
        &CleaningConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    );
    assert_eq!(report.unresolved, 1);
    assert_eq!(cleaned[0].address, garbage.address);
    assert_eq!(cleaned[0].point, None);
    assert_eq!(cleaned[0].district, None);
}
