//! §2.1.1 — the geospatial-cleaning experiment: street-reconstruction
//! accuracy vs the similarity threshold φ (a table the paper implies but
//! could not compute without ground truth), plus cleaning throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epc_geo::address::Address;
use epc_geo::cleaning::{clean_addresses, AddressQuery, CleaningConfig};
use epc_geo::point::GeoPoint;
use epc_model::wellknown as wk;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};

fn noisy(n: usize) -> epc_synth::epcgen::SyntheticCollection {
    let mut c = EpcGenerator::new(SynthConfig {
        n_records: n,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(
        &mut c,
        &NoiseConfig {
            typo_rate: 0.25,
            abbreviation_rate: 0.15,
            ..NoiseConfig::default()
        },
    );
    c
}

fn queries_of(c: &epc_synth::epcgen::SyntheticCollection) -> Vec<AddressQuery> {
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

fn bench_cleaning(c: &mut Criterion) {
    let collection = noisy(25_000);
    let queries = queries_of(&collection);

    eprintln!("\n== Cleaning accuracy vs phi (25 000 noisy addresses, reference map only) ==");
    eprintln!(
        "{:>6} {:>10} {:>12} {:>12} {:>12}",
        "phi", "by-ref", "unresolved", "street-acc", "zip-acc"
    );
    for phi in [0.70, 0.75, 0.80, 0.85, 0.90, 0.95] {
        let cfg = CleaningConfig {
            phi,
            ..CleaningConfig::default()
        };
        let (cleaned, report) = clean_addresses(
            &queries,
            &collection.city.street_map,
            None,
            &cfg,
            &epc_runtime::RuntimeConfig::sequential(),
            None,
        );
        let street_ok = cleaned
            .iter()
            .filter(|x| x.address.street == collection.truth.streets[x.id])
            .count();
        let zip_ok = cleaned
            .iter()
            .filter(|x| x.address.zip.as_deref() == Some(collection.truth.zips[x.id].as_str()))
            .count();
        eprintln!(
            "{phi:>6.2} {:>10} {:>12} {:>11.1}% {:>11.1}%",
            report.by_reference,
            report.unresolved,
            street_ok as f64 / queries.len() as f64 * 100.0,
            zip_ok as f64 / queries.len() as f64 * 100.0,
        );
    }

    let mut group = c.benchmark_group("cleaning");
    group.sample_size(10);
    for n in [2_000usize, 10_000, 25_000] {
        let coll = noisy(n);
        let qs = queries_of(&coll);
        group.bench_with_input(BenchmarkId::new("reference_only", n), &qs, |b, qs| {
            b.iter(|| {
                clean_addresses(
                    qs,
                    &coll.city.street_map,
                    None,
                    &CleaningConfig::default(),
                    &epc_runtime::RuntimeConfig::sequential(),
                    None,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cleaning);
criterion_main!(benches);
