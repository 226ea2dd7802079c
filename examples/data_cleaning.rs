//! Deep dive into the §2.1.1 address-cleaning algorithm: accuracy against
//! ground truth as the similarity threshold φ sweeps, and the effect of the
//! geocoder quota.
//!
//! ```sh
//! cargo run --release --example data_cleaning
//! ```
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_geo::address::Address;
use epc_geo::cleaning::{clean_addresses, AddressQuery, CleaningConfig};
use epc_geo::geocode::{QuotaGeocoder, SimulatedGeocoder};
use epc_geo::point::GeoPoint;
use epc_model::wellknown as wk;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};

fn main() {
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: 6_000,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(
        &mut collection,
        &NoiseConfig {
            typo_rate: 0.25,
            abbreviation_rate: 0.15,
            zip_missing_rate: 0.10,
            coord_missing_rate: 0.08,
            coord_wrong_rate: 0.05,
            ..NoiseConfig::default()
        },
    );

    // Build the cleaning queries straight from the (noisy) dataset.
    let s = collection.dataset.schema();
    let addr_id = s.require(wk::ADDRESS).unwrap();
    let hn_id = s.require(wk::HOUSE_NUMBER).unwrap();
    let zip_id = s.require(wk::ZIP_CODE).unwrap();
    let lat_id = s.require(wk::LATITUDE).unwrap();
    let lon_id = s.require(wk::LONGITUDE).unwrap();
    let queries: Vec<AddressQuery> = (0..collection.dataset.n_rows())
        .map(|row| AddressQuery {
            id: row,
            address: Address {
                street: collection
                    .dataset
                    .cat(row, addr_id)
                    .unwrap_or("")
                    .to_owned(),
                house_number: collection.dataset.cat(row, hn_id).map(str::to_owned),
                zip: collection.dataset.cat(row, zip_id).map(str::to_owned),
            },
            point: match (
                collection.dataset.num(row, lat_id),
                collection.dataset.num(row, lon_id),
            ) {
                (Some(lat), Some(lon)) => Some(GeoPoint { lat, lon }),
                _ => None,
            },
        })
        .collect();

    let reference = &collection.city.street_map;
    let truth = &collection.truth;

    // --- φ sweep, no geocoder (the local-only ablation) ---
    println!("== phi sweep (reference map only) ==");
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>10}",
        "phi", "resolved", "unresolved", "street-acc", "zip-acc"
    );
    for phi in [0.70, 0.75, 0.80, 0.85, 0.90, 0.95] {
        let cfg = CleaningConfig {
            phi,
            ..CleaningConfig::default()
        };
        let (cleaned, report) = clean_addresses(
            &queries,
            reference,
            None,
            &cfg,
            &epc_runtime::RuntimeConfig::sequential(),
            None,
        );
        let (street_acc, zip_acc) = accuracy(&cleaned, truth);
        println!(
            "{phi:>6.2} {:>10} {:>10} {:>11.1}% {:>9.1}%",
            report.by_reference,
            report.unresolved,
            street_acc * 100.0,
            zip_acc * 100.0
        );
    }

    // --- Geocoder quota sweep at the default φ ---
    println!("\n== geocoder quota sweep (phi = 0.85) ==");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12}",
        "quota", "by-ref", "by-geo", "unresolved", "street-acc"
    );
    for quota in [0usize, 100, 500, 2_000, 10_000] {
        let cfg = CleaningConfig::default();
        let geocoder = QuotaGeocoder::new(SimulatedGeocoder::new(reference, 0.55, 0.02), quota);
        let geo: Option<&dyn epc_geo::geocode::Geocoder> =
            if quota > 0 { Some(&geocoder) } else { None };
        let (cleaned, report) = clean_addresses(
            &queries,
            reference,
            geo,
            &cfg,
            &epc_runtime::RuntimeConfig::sequential(),
            None,
        );
        let (street_acc, _) = accuracy(&cleaned, truth);
        println!(
            "{quota:>8} {:>10} {:>10} {:>10} {:>11.1}%",
            report.by_reference,
            report.by_geocoder,
            report.unresolved,
            street_acc * 100.0
        );
    }
}

/// Fraction of records whose repaired street / ZIP matches the ground
/// truth.
fn accuracy(
    cleaned: &[epc_geo::cleaning::CleanedAddress],
    truth: &epc_synth::epcgen::GroundTruth,
) -> (f64, f64) {
    let mut street_ok = 0usize;
    let mut zip_ok = 0usize;
    for c in cleaned {
        if c.address.street == truth.streets[c.id] {
            street_ok += 1;
        }
        if c.address.zip.as_deref() == Some(truth.zips[c.id].as_str()) {
            zip_ok += 1;
        }
    }
    let n = cleaned.len().max(1) as f64;
    (street_ok as f64 / n, zip_ok as f64 / n)
}
