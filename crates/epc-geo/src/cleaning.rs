//! The multi-step geospatial cleaning algorithm of §2.1.1.
//!
//! For each EPC address:
//!
//! 1. the (normalized) street is compared with every street of the
//!    referenced street map via Levenshtein similarity;
//! 2. when the best similarity reaches the user-defined threshold φ, the
//!    referenced entry replaces the noisy fields — street name, ZIP code,
//!    latitude and longitude are repaired from the reference;
//! 3. otherwise a geocoding request is sent to the (quota-limited)
//!    [`crate::geocode::Geocoder`] fallback;
//! 4. addresses neither matched nor geocoded remain unresolved (and are
//!    typically excluded from map views downstream).

use crate::address::{is_plausible_zip, normalize_house_number, Address};
use crate::geocode::{GeocodeFailure, Geocoder};
use crate::point::GeoPoint;
use crate::streetmap::StreetMap;
use std::collections::BTreeMap;

/// One address to clean, identified by the caller's row id.
#[derive(Debug, Clone, PartialEq)]
pub struct AddressQuery {
    /// Caller-side identifier (e.g. dataset row index).
    pub id: usize,
    /// The (possibly noisy) address.
    pub address: Address,
    /// The (possibly wrong or missing) geolocation.
    pub point: Option<GeoPoint>,
}

/// How an address was resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CleaningOutcome {
    /// Matched against the referenced street map with this similarity.
    ResolvedByReference {
        /// Levenshtein similarity of the accepted match (≥ φ).
        similarity: f64,
    },
    /// Resolved through the geocoding fallback.
    ResolvedByGeocoder,
    /// The geocoder failed transiently even after retries; the record was
    /// *degraded* to its district's centroid instead of being dropped.
    Degraded,
    /// Could not be resolved; original fields kept.
    Unresolved,
}

/// Bit-flags of the fields the cleaning step repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CorrectedFields {
    /// The street string was replaced.
    pub street: bool,
    /// The house number was replaced/normalized.
    pub house_number: bool,
    /// The ZIP code was filled in or fixed.
    pub zip: bool,
    /// Latitude/longitude were filled in or fixed.
    pub coords: bool,
}

impl CorrectedFields {
    /// Number of repaired fields.
    pub fn count(&self) -> usize {
        usize::from(self.street)
            + usize::from(self.house_number)
            + usize::from(self.zip)
            + usize::from(self.coords)
    }
}

/// A cleaned address: repaired fields plus provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanedAddress {
    /// The caller's id, copied from the query.
    pub id: usize,
    /// Resolution outcome.
    pub outcome: CleaningOutcome,
    /// The repaired (or original, when unresolved) address.
    pub address: Address,
    /// The repaired (or original) geolocation.
    pub point: Option<GeoPoint>,
    /// District of the matched entry, when known.
    pub district: Option<String>,
    /// Neighbourhood of the matched entry, when known.
    pub neighbourhood: Option<String>,
    /// Which fields were changed.
    pub corrected: CorrectedFields,
}

/// Configuration of the cleaning step.
#[derive(Debug, Clone, PartialEq)]
pub struct CleaningConfig {
    /// The similarity threshold φ of §2.1.1 (matches with similarity ≥ φ
    /// are accepted).
    pub phi: f64,
    /// Coordinates farther than this many meters from the referenced entry
    /// are considered wrong and replaced.
    pub max_coord_error_m: f64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            phi: 0.85,
            max_coord_error_m: 250.0,
        }
    }
}

/// Aggregate statistics of one cleaning run.
#[derive(Debug, Clone, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CleaningReport {
    /// Total addresses processed.
    pub total: usize,
    /// Resolved against the referenced street map.
    pub by_reference: usize,
    /// Of which: matched with similarity 1 after normalization.
    pub exact_matches: usize,
    /// Resolved through the geocoder fallback.
    pub by_geocoder: usize,
    /// Degraded to a district-centroid location after retries were
    /// exhausted.
    pub degraded: usize,
    /// Left unresolved.
    pub unresolved: usize,
    /// Geocoding requests actually issued.
    pub geocoder_requests: usize,
    /// Geocoder retry attempts performed (transient-failure recovery).
    pub geocoder_retries: usize,
    /// Count of repaired ZIP codes.
    pub zips_fixed: usize,
    /// Count of repaired coordinate pairs.
    pub coords_fixed: usize,
    /// Count of repaired street strings.
    pub streets_fixed: usize,
}

impl CleaningReport {
    /// Adds `other`'s counts field-wise. Every field is a per-record
    /// tally, so the report of a concatenated input equals the merged
    /// reports of its chunks — the property incremental ingest builds on.
    pub fn merge(&mut self, other: &CleaningReport) {
        self.total += other.total;
        self.by_reference += other.by_reference;
        self.exact_matches += other.exact_matches;
        self.by_geocoder += other.by_geocoder;
        self.degraded += other.degraded;
        self.unresolved += other.unresolved;
        self.geocoder_requests += other.geocoder_requests;
        self.geocoder_retries += other.geocoder_retries;
        self.zips_fixed += other.zips_fixed;
        self.coords_fixed += other.coords_fixed;
        self.streets_fixed += other.streets_fixed;
    }
}

/// Last-resort coordinates for records whose geocoding keeps failing
/// transiently: the centroid of the district the record claims to belong
/// to.
///
/// `hints[i]` is the district hint for `queries[i]` (usually read straight
/// from the dataset's district column before cleaning). When the geocoder
/// exhausts its retry budget on a transient failure and a hint with a known
/// centroid exists, the record is kept with
/// [`CleaningOutcome::Degraded`] provenance instead of being dropped.
#[derive(Debug, Clone, Default)]
pub struct DegradedFallback {
    /// District name → district centroid.
    pub centroids: BTreeMap<String, GeoPoint>,
    /// Per-query district hint, parallel to the `queries` slice.
    pub hints: Vec<Option<String>>,
}

impl DegradedFallback {
    /// The centroid for `queries[idx]`, when both the hint and its centroid
    /// are known.
    fn lookup(&self, idx: usize) -> Option<(&str, GeoPoint)> {
        let hint = self.hints.get(idx)?.as_deref()?;
        let centroid = *self.centroids.get(hint)?;
        Some((hint, centroid))
    }
}

/// Runs the §2.1.1 cleaning algorithm over `queries`.
///
/// `geocoder` is consulted only for addresses the reference map cannot
/// resolve (pass a [`crate::geocode::QuotaGeocoder`] to model the free-tier
/// limit; pass `None` to disable the fallback entirely — the ablation of
/// the benchmark suite).
///
/// The Levenshtein matching against the reference map (step 1) depends
/// only on the street *string* and φ, so it runs once per **distinct**
/// street, data-parallel under `runtime`: EPC street columns repeat
/// heavily (a city's certificates share a few thousand streets). The
/// per-row repair from that match (step 2) is pure and runs data-parallel
/// too. The geocoder fallback (step 3) is inherently stateful — the quota
/// counter must be consumed in input order — so it runs as a sequential
/// second pass over the addresses the reference could not resolve. The
/// combined result is bitwise identical to matching every row on its own,
/// sequentially, for any thread budget.
///
/// `fallback` adds a district-centroid fallback for transient geocoder
/// failures. With `None`, every geocoder miss comes back
/// [`CleaningOutcome::Unresolved`]. With a fallback, permanent misses
/// still do, while transient failures ([`GeocodeFailure::Transient`],
/// surfaced after the geocoder's own retry budget is spent) degrade to the
/// district centroid when the fallback knows one.
pub fn clean_addresses(
    queries: &[AddressQuery],
    reference: &StreetMap,
    geocoder: Option<&dyn Geocoder>,
    config: &CleaningConfig,
    runtime: &epc_runtime::RuntimeConfig,
    fallback: Option<&DegradedFallback>,
) -> (Vec<CleanedAddress>, CleaningReport) {
    // The distinct streets, borrowed and sorted, so each row finds its
    // street's slot by binary search.
    let mut distinct: Vec<&str> = queries.iter().map(|q| q.address.street.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();

    // Pass 1a (parallel, pure): one reference scan per distinct street.
    let hits = epc_runtime::par_map(runtime, &distinct, |street| {
        reference.best_match(street, config.phi)
    });

    // Pass 1b (parallel, pure): per-row repair from the memoised match.
    let by_reference = epc_runtime::par_map(runtime, queries, |q| {
        let hit = distinct
            .binary_search(&q.address.street.as_str())
            .ok()
            .and_then(|slot| hits.get(slot))
            .and_then(Option::as_ref);
        clean_with_hit(q, hit, reference, config)
    });
    resolve_remainder(queries, by_reference, geocoder, config, fallback)
}

/// Pass 2 (sequential, input order): geocoder fallback for the addresses
/// the reference could not resolve, plus report tallying.
fn resolve_remainder(
    queries: &[AddressQuery],
    by_reference: Vec<Option<CleanedAddress>>,
    geocoder: Option<&dyn Geocoder>,
    config: &CleaningConfig,
    fallback: Option<&DegradedFallback>,
) -> (Vec<CleanedAddress>, CleaningReport) {
    let mut report = CleaningReport {
        total: queries.len(),
        ..CleaningReport::default()
    };
    let requests_before = geocoder.map(|g| g.requests_made()).unwrap_or(0);
    let retries_before = geocoder.map(|g| g.retries_made()).unwrap_or(0);
    let mut out = Vec::with_capacity(queries.len());
    for (idx, (q, referenced)) in queries.iter().zip(by_reference).enumerate() {
        let cleaned = match referenced {
            Some(c) => c,
            None => clean_by_geocoder(q, idx, geocoder, config, fallback),
        };
        match cleaned.outcome {
            CleaningOutcome::ResolvedByReference { similarity } => {
                report.by_reference += 1;
                if similarity >= 1.0 {
                    report.exact_matches += 1;
                }
            }
            CleaningOutcome::ResolvedByGeocoder => report.by_geocoder += 1,
            CleaningOutcome::Degraded => report.degraded += 1,
            CleaningOutcome::Unresolved => report.unresolved += 1,
        }
        if cleaned.corrected.zip {
            report.zips_fixed += 1;
        }
        if cleaned.corrected.coords {
            report.coords_fixed += 1;
        }
        if cleaned.corrected.street {
            report.streets_fixed += 1;
        }
        out.push(cleaned);
    }
    report.geocoder_requests = geocoder
        .map(|g| g.requests_made() - requests_before)
        .unwrap_or(0);
    report.geocoder_retries = geocoder
        .map(|g| g.retries_made() - retries_before)
        .unwrap_or(0);
    (out, report)
}

/// Step 2: repairs `q` from its street's match against the referenced
/// street map (`None`: no street reached φ). Pure — safe to run
/// data-parallel.
fn clean_with_hit(
    q: &AddressQuery,
    hit: Option<&crate::streetmap::StreetMatch>,
    reference: &StreetMap,
    config: &CleaningConfig,
) -> Option<CleanedAddress> {
    let hit = hit?;
    let entry = reference.lookup(&hit.street_key, q.address.house_number.as_deref())?;
    Some(repair_from(
        q,
        CleaningOutcome::ResolvedByReference {
            similarity: hit.similarity,
        },
        &entry.street,
        &entry.house_number,
        &entry.zip,
        entry.point,
        Some(entry.district.clone()),
        Some(entry.neighbourhood.clone()),
        config,
    ))
}

/// Steps 3–4: quota-limited geocoder fallback, else degraded/unresolved.
/// Stateful — must run sequentially in input order.
fn clean_by_geocoder(
    q: &AddressQuery,
    idx: usize,
    geocoder: Option<&dyn Geocoder>,
    config: &CleaningConfig,
    fallback: Option<&DegradedFallback>,
) -> CleanedAddress {
    if let Some(g) = geocoder {
        match g.try_geocode(&q.address) {
            Ok(res) => {
                return repair_from(
                    q,
                    CleaningOutcome::ResolvedByGeocoder,
                    &res.street,
                    &res.house_number,
                    &res.zip,
                    res.point,
                    res.district,
                    res.neighbourhood,
                    config,
                );
            }
            Err(failure) if failure.is_transient() => {
                if let Some((district, centroid)) = fallback.and_then(|f| f.lookup(idx)) {
                    return CleanedAddress {
                        id: q.id,
                        outcome: CleaningOutcome::Degraded,
                        address: q.address.clone(),
                        point: Some(centroid),
                        district: Some(district.to_owned()),
                        neighbourhood: None,
                        corrected: CorrectedFields {
                            coords: true,
                            ..CorrectedFields::default()
                        },
                    };
                }
            }
            Err(GeocodeFailure::NotFound | GeocodeFailure::Transient(_)) => {}
        }
    }
    CleanedAddress {
        id: q.id,
        outcome: CleaningOutcome::Unresolved,
        address: q.address.clone(),
        point: q.point,
        district: None,
        neighbourhood: None,
        corrected: CorrectedFields::default(),
    }
}

#[allow(clippy::too_many_arguments)]
fn repair_from(
    q: &AddressQuery,
    outcome: CleaningOutcome,
    street: &str,
    house_number: &str,
    zip: &str,
    point: GeoPoint,
    district: Option<String>,
    neighbourhood: Option<String>,
    config: &CleaningConfig,
) -> CleanedAddress {
    let mut corrected = CorrectedFields::default();

    if q.address.street != street {
        corrected.street = true;
    }
    let repaired_hn = match q.address.house_number.as_deref() {
        Some(hn) if normalize_house_number(hn) == normalize_house_number(house_number) => {
            // Keep the canonical form but don't count a pure-format change
            // as a correction.
            house_number.to_owned()
        }
        Some(_) | None => {
            corrected.house_number = true;
            house_number.to_owned()
        }
    };
    let zip_ok = q
        .address
        .zip
        .as_deref()
        .map(|z| is_plausible_zip(z) && z == zip)
        .unwrap_or(false);
    if !zip_ok {
        corrected.zip = true;
    }
    let final_point = match q.point {
        Some(p) if p.is_valid() && p.haversine_m(&point) <= config.max_coord_error_m => p,
        _ => {
            corrected.coords = true;
            point
        }
    };

    CleanedAddress {
        id: q.id,
        outcome,
        address: Address {
            street: street.to_owned(),
            house_number: Some(repaired_hn),
            zip: Some(zip.to_owned()),
        },
        point: Some(final_point),
        district,
        neighbourhood,
        corrected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocode::{QuotaGeocoder, SimulatedGeocoder};
    use crate::streetmap::StreetEntry;
    use epc_runtime::RuntimeConfig;

    fn entry(street: &str, hn: &str, zip: &str, lat: f64, lon: f64) -> StreetEntry {
        StreetEntry {
            street: street.to_owned(),
            house_number: hn.to_owned(),
            zip: zip.to_owned(),
            point: GeoPoint::new(lat, lon),
            district: "Centro".into(),
            neighbourhood: "Quadrilatero".into(),
        }
    }

    fn reference() -> StreetMap {
        StreetMap::from_entries(vec![
            entry("Via Roma", "10", "10121", 45.0700, 7.6800),
            entry("Via Roma", "12", "10121", 45.0702, 7.6803),
            entry("Corso Francia", "5", "10143", 45.0780, 7.6400),
        ])
    }

    fn cfg() -> CleaningConfig {
        CleaningConfig::default()
    }

    #[test]
    fn clean_address_passes_through_unchanged() {
        let q = AddressQuery {
            id: 0,
            address: Address::new("Via Roma", Some("10"), Some("10121")),
            point: Some(GeoPoint::new(45.0700, 7.6800)),
        };
        let (res, report) = clean_addresses(
            &[q],
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        let c = &res[0];
        assert!(matches!(
            c.outcome,
            CleaningOutcome::ResolvedByReference { similarity } if similarity == 1.0
        ));
        assert_eq!(
            c.corrected.count(),
            0,
            "nothing should change: {:?}",
            c.corrected
        );
        assert_eq!(report.exact_matches, 1);
        assert_eq!(report.by_reference, 1);
    }

    #[test]
    fn typo_street_is_repaired() {
        let q = AddressQuery {
            id: 3,
            address: Address::new("via rma", Some("10"), None),
            point: None,
        };
        let (res, report) = clean_addresses(
            &[q],
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        let c = &res[0];
        assert_eq!(c.address.street, "Via Roma");
        assert_eq!(c.address.zip.as_deref(), Some("10121"));
        assert!(c.corrected.street && c.corrected.zip && c.corrected.coords);
        assert_eq!(c.point.unwrap(), GeoPoint::new(45.0700, 7.6800));
        assert_eq!(c.district.as_deref(), Some("Centro"));
        assert_eq!(report.streets_fixed, 1);
        assert_eq!(report.zips_fixed, 1);
        assert_eq!(report.coords_fixed, 1);
    }

    #[test]
    fn wrong_coordinates_are_replaced() {
        let q = AddressQuery {
            id: 1,
            address: Address::new("Via Roma", Some("12"), Some("10121")),
            // ~11 km off: clearly wrong.
            point: Some(GeoPoint::new(45.17, 7.68)),
        };
        let (res, _) = clean_addresses(
            &[q],
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        let c = &res[0];
        assert!(c.corrected.coords);
        assert_eq!(c.point.unwrap(), GeoPoint::new(45.0702, 7.6803));
    }

    #[test]
    fn nearby_coordinates_are_kept() {
        let original = GeoPoint::new(45.07005, 7.68005); // a few meters off
        let q = AddressQuery {
            id: 1,
            address: Address::new("Via Roma", Some("10"), Some("10121")),
            point: Some(original),
        };
        let (res, _) = clean_addresses(
            &[q],
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert!(!res[0].corrected.coords);
        assert_eq!(res[0].point.unwrap(), original);
    }

    #[test]
    fn below_phi_goes_to_geocoder() {
        // Ground truth contains a street missing from the local reference.
        let mut truth = reference();
        truth.insert(entry("Via Garibaldi", "7", "10122", 45.0730, 7.6820));
        let geocoder = QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), 10);
        let q = AddressQuery {
            id: 9,
            address: Address::new("via garibaldi", Some("7"), None),
            point: None,
        };
        let (res, report) = clean_addresses(
            &[q],
            &reference(),
            Some(&geocoder),
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert!(matches!(
            res[0].outcome,
            CleaningOutcome::ResolvedByGeocoder
        ));
        assert_eq!(res[0].address.zip.as_deref(), Some("10122"));
        assert_eq!(report.by_geocoder, 1);
        assert_eq!(report.geocoder_requests, 1);
    }

    #[test]
    fn unresolved_keeps_original() {
        let q = AddressQuery {
            id: 7,
            address: Address::new("xyzxyzxyz", None, Some("99999")),
            point: None,
        };
        let (res, report) = clean_addresses(
            std::slice::from_ref(&q),
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert!(matches!(res[0].outcome, CleaningOutcome::Unresolved));
        assert_eq!(res[0].address, q.address);
        assert_eq!(res[0].point, None);
        assert_eq!(report.unresolved, 1);
    }

    #[test]
    fn quota_limits_geocoder_usage() {
        let truth = {
            let mut t = reference();
            t.insert(entry("Via Garibaldi", "7", "10122", 45.0730, 7.6820));
            t
        };
        let geocoder = QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), 1);
        let queries: Vec<AddressQuery> = (0..3)
            .map(|i| AddressQuery {
                id: i,
                address: Address::new("via garibaldi", Some("7"), None),
                point: None,
            })
            .collect();
        let (res, report) = clean_addresses(
            &queries,
            &reference(),
            Some(&geocoder),
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert_eq!(report.by_geocoder, 1);
        assert_eq!(report.unresolved, 2);
        assert_eq!(report.geocoder_requests, 1, "refused calls don't count");
        assert!(matches!(
            res[0].outcome,
            CleaningOutcome::ResolvedByGeocoder
        ));
        assert!(matches!(res[2].outcome, CleaningOutcome::Unresolved));
    }

    #[test]
    fn phi_controls_acceptance() {
        let q = AddressQuery {
            id: 0,
            address: Address::new("via rqmq", Some("10"), None), // 2 edits from "via roma"
            point: None,
        };
        let strict = CleaningConfig { phi: 0.95, ..cfg() };
        let (res, _) = clean_addresses(
            std::slice::from_ref(&q),
            &reference(),
            None,
            &strict,
            &RuntimeConfig::sequential(),
            None,
        );
        assert!(matches!(res[0].outcome, CleaningOutcome::Unresolved));

        let lenient = CleaningConfig { phi: 0.7, ..cfg() };
        let (res, _) = clean_addresses(
            &[q],
            &reference(),
            None,
            &lenient,
            &RuntimeConfig::sequential(),
            None,
        );
        assert!(matches!(
            res[0].outcome,
            CleaningOutcome::ResolvedByReference { .. }
        ));
    }

    #[test]
    fn missing_zip_is_filled_in() {
        let q = AddressQuery {
            id: 0,
            address: Address::new("Via Roma", Some("10"), None),
            point: Some(GeoPoint::new(45.0700, 7.6800)),
        };
        let (res, _) = clean_addresses(
            &[q],
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert_eq!(res[0].address.zip.as_deref(), Some("10121"));
        assert!(res[0].corrected.zip);
        assert!(!res[0].corrected.coords);
    }

    #[test]
    fn parallel_cleaning_matches_sequential_bitwise() {
        let truth = {
            let mut t = reference();
            t.insert(entry("Via Garibaldi", "7", "10122", 45.0730, 7.6820));
            t
        };
        // A mix of exact, noisy, geocoder-only, and hopeless addresses —
        // enough of them to cross par_map's per-thread minimum.
        let streets = ["Via Roma", "via rma", "via garibaldi", "zzzzzz"];
        let queries: Vec<AddressQuery> = (0..128)
            .map(|i| AddressQuery {
                id: i,
                address: Address::new(streets[i % streets.len()], Some("10"), None),
                point: None,
            })
            .collect();
        // Quota smaller than the geocoder-needing queries, so consumption
        // order is observable in the outcomes.
        let seq_geo = QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), 9);
        let (seq, seq_report) = clean_addresses(
            &queries,
            &reference(),
            Some(&seq_geo),
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        for threads in [2usize, 8] {
            let par_geo = QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), 9);
            let (par, par_report) = clean_addresses(
                &queries,
                &reference(),
                Some(&par_geo),
                &cfg(),
                &RuntimeConfig::new(threads),
                None,
            );
            assert_eq!(par, seq, "threads = {threads}");
            assert_eq!(par_report, seq_report, "threads = {threads}");
        }
    }

    /// The per-row algorithm [`clean_addresses`] memoises: one reference
    /// scan per row, sequentially, then the same geocoder pass.
    fn clean_addresses_per_row(
        queries: &[AddressQuery],
        reference: &StreetMap,
        geocoder: Option<&dyn Geocoder>,
        config: &CleaningConfig,
        fallback: Option<&DegradedFallback>,
    ) -> (Vec<CleanedAddress>, CleaningReport) {
        let by_reference = queries
            .iter()
            .map(|q| {
                let hit = reference.best_match(&q.address.street, config.phi);
                clean_with_hit(q, hit.as_ref(), reference, config)
            })
            .collect();
        resolve_remainder(queries, by_reference, geocoder, config, fallback)
    }

    #[test]
    fn memoised_cleaning_matches_the_per_row_oracle() {
        let truth = {
            let mut t = reference();
            t.insert(entry("Via Garibaldi", "7", "10122", 45.0730, 7.6820));
            t
        };
        // Heavy street repetition (the shape the memo exploits), a quota
        // small enough that geocoder consumption order is observable, and
        // enough rows to cross par_map's per-thread minimum.
        let streets = ["Via Roma", "via rma", "via garibaldi", "zzzzzz", "VIA ROMA"];
        let queries: Vec<AddressQuery> = (0..160)
            .map(|i| AddressQuery {
                id: i,
                address: Address::new(streets[i % streets.len()], Some("10"), None),
                point: None,
            })
            .collect();
        let oracle_geo = QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), 9);
        let (want, want_report) =
            clean_addresses_per_row(&queries, &reference(), Some(&oracle_geo), &cfg(), None);
        for threads in [1usize, 2, 8] {
            let geo = QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), 9);
            let (got, got_report) = clean_addresses(
                &queries,
                &reference(),
                Some(&geo),
                &cfg(),
                &RuntimeConfig::new(threads),
                None,
            );
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(got_report, want_report, "threads = {threads}");
        }
    }

    /// A geocoder that fails call `i` transiently when bit `i % 64` of
    /// `failures` is set, and otherwise delegates to `inner`.
    struct Flaky<G> {
        inner: G,
        failures: u64,
        calls: std::cell::Cell<usize>,
    }

    impl<G: Geocoder> Geocoder for Flaky<G> {
        fn geocode(&self, query: &Address) -> Option<crate::geocode::GeocodeResult> {
            self.try_geocode(query).ok()
        }
        fn try_geocode(
            &self,
            query: &Address,
        ) -> Result<crate::geocode::GeocodeResult, GeocodeFailure> {
            let i = self.calls.get();
            self.calls.set(i + 1);
            if self.failures >> (i % 64) & 1 == 1 {
                return Err(GeocodeFailure::Transient(
                    crate::geocode::TransientKind::Quota,
                ));
            }
            self.inner.try_geocode(query)
        }
        fn requests_made(&self) -> usize {
            self.calls.get()
        }
    }

    /// A street name past the bit-parallel kernel's 64 characters, so
    /// matching takes the DP path.
    const LONG_STREET: &str =
        "Via dei Cavalieri di Vittorio Veneto e della Gloriosa Resistenza Piemontese";

    /// Raw spellings for generated rows: repeats, spellings that
    /// normalise equal, near misses, empty and blank strings, Unicode,
    /// long names, and streets only the geocoder knows.
    const SPELLINGS: [&str; 18] = [
        "Via Roma",
        "V. Roma",
        "VIA  ROMA",
        "via roma",
        "Vïa Ròma",
        "via rma",
        "Corso Francia",
        "C.so Francia",
        "corso fracia",
        "",
        "   ",
        "Улица Ленина",
        "улица лeнина",
        LONG_STREET,
        "Via dei Cavalieri di Vittorio Veneto e della Gloriosa Resistenza Piemontesi",
        "via garibaldi",
        "Via Garibaldo",
        "zzzzzz",
    ];

    fn oracle_reference() -> StreetMap {
        let mut map = reference();
        map.insert(entry("Улица Ленина", "3", "10150", 45.0900, 7.6600));
        map.insert(entry(LONG_STREET, "1", "10131", 45.0600, 7.7000));
        map
    }

    fn random_query(rng: &mut rand::rngs::StdRng, id: usize) -> AddressQuery {
        use rand::Rng;
        let street = if rng.gen_bool(0.15) {
            // A fresh near-duplicate: one char of a spelling dropped.
            let base: Vec<char> = SPELLINGS[rng.gen_range(0..SPELLINGS.len())]
                .chars()
                .collect();
            let cut = rng.gen_range(0..=base.len());
            base.iter()
                .enumerate()
                .filter(|&(i, _)| i != cut)
                .map(|(_, c)| c)
                .collect()
        } else {
            SPELLINGS[rng.gen_range(0..SPELLINGS.len())].to_owned()
        };
        let house = ["10", "12", "5", "3", "1", "7", "99"];
        let house_number = rng
            .gen_bool(0.8)
            .then(|| house[rng.gen_range(0..house.len())]);
        let zip = ["10121", "10143", "99999"];
        let zip = rng.gen_bool(0.5).then(|| zip[rng.gen_range(0..zip.len())]);
        let point = match rng.gen_range(0..3) {
            0 => None,
            1 => Some(GeoPoint::new(45.0701, 7.6801)),
            _ => Some(GeoPoint::new(45.17, 7.58)),
        };
        AddressQuery {
            id,
            address: Address::new(&street, house_number, zip),
            point,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        #[test]
        fn memoised_cleaning_equals_the_per_row_oracle(seed in 0u64..u64::MAX) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..=160);
            let queries: Vec<AddressQuery> = (0..n).map(|id| random_query(&mut rng, id)).collect();
            let map = oracle_reference();
            let mut truth = oracle_reference();
            truth.insert(entry("Via Garibaldi", "7", "10122", 45.0730, 7.6820));
            let config = CleaningConfig {
                phi: [0.7, 0.85, 0.95][rng.gen_range(0..3)],
                ..cfg()
            };
            let quota = rng.gen_range(0..12);
            let failures = if rng.gen_bool(0.5) { rng.gen::<u64>() } else { 0 };
            let with_geocoder = rng.gen_bool(0.8);
            let districts = [Some("Centro"), Some("Periferia"), None];
            let fallback = rng.gen_bool(0.5).then(|| DegradedFallback {
                centroids: BTreeMap::from([("Centro".to_owned(), GeoPoint::new(45.071, 7.682))]),
                hints: (0..n)
                    .map(|_| districts[rng.gen_range(0..districts.len())].map(str::to_owned))
                    .collect(),
            });
            let geocoder = || Flaky {
                inner: QuotaGeocoder::new(SimulatedGeocoder::new(&truth, 0.6, 0.0), quota),
                failures,
                calls: std::cell::Cell::new(0),
            };

            let oracle_geo = geocoder();
            let (want, want_report) = clean_addresses_per_row(
                &queries,
                &map,
                with_geocoder.then_some(&oracle_geo as &dyn Geocoder),
                &config,
                fallback.as_ref(),
            );
            for threads in [1usize, 2, 8] {
                let geo = geocoder();
                let (got, got_report) = clean_addresses(
                    &queries,
                    &map,
                    with_geocoder.then_some(&geo as &dyn Geocoder),
                    &config,
                    &RuntimeConfig::new(threads),
                    fallback.as_ref(),
                );
                proptest::prop_assert_eq!(&got, &want, "threads = {}", threads);
                proptest::prop_assert_eq!(&got_report, &want_report, "threads = {}", threads);
            }
        }
    }

    #[test]
    fn report_totals_are_consistent() {
        let queries = vec![
            AddressQuery {
                id: 0,
                address: Address::new("Via Roma", Some("10"), Some("10121")),
                point: Some(GeoPoint::new(45.0700, 7.6800)),
            },
            AddressQuery {
                id: 1,
                address: Address::new("zzzzzz", None, None),
                point: None,
            },
        ];
        let (_, r) = clean_addresses(
            &queries,
            &reference(),
            None,
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert_eq!(r.total, 2);
        assert_eq!(
            r.by_reference + r.by_geocoder + r.degraded + r.unresolved,
            r.total
        );
    }

    /// A geocoder whose every lookup fails with a quota-style transient
    /// error — models an upstream service outage.
    struct AlwaysTransient;

    impl Geocoder for AlwaysTransient {
        fn geocode(&self, _query: &Address) -> Option<crate::geocode::GeocodeResult> {
            None
        }
        fn try_geocode(
            &self,
            _query: &Address,
        ) -> Result<crate::geocode::GeocodeResult, GeocodeFailure> {
            Err(GeocodeFailure::Transient(
                crate::geocode::TransientKind::Quota,
            ))
        }
        fn requests_made(&self) -> usize {
            0
        }
    }

    fn degraded_fallback() -> DegradedFallback {
        let mut centroids = BTreeMap::new();
        centroids.insert("Centro".to_owned(), GeoPoint::new(45.071, 7.682));
        DegradedFallback {
            centroids,
            hints: vec![Some("Centro".to_owned())],
        }
    }

    #[test]
    fn transient_failure_degrades_to_district_centroid() {
        let q = AddressQuery {
            id: 4,
            address: Address::new("via sconosciuta", Some("3"), None),
            point: None,
        };
        let fallback = degraded_fallback();
        let (res, report) = clean_addresses(
            std::slice::from_ref(&q),
            &reference(),
            Some(&AlwaysTransient),
            &cfg(),
            &RuntimeConfig::sequential(),
            Some(&fallback),
        );
        assert!(matches!(res[0].outcome, CleaningOutcome::Degraded));
        assert_eq!(res[0].point, Some(GeoPoint::new(45.071, 7.682)));
        assert_eq!(res[0].district.as_deref(), Some("Centro"));
        assert_eq!(res[0].address, q.address, "original address is kept");
        assert!(res[0].corrected.coords);
        assert_eq!(report.degraded, 1);
        assert_eq!(report.unresolved, 0);
        assert_eq!(report.coords_fixed, 1);
    }

    #[test]
    fn transient_failure_without_fallback_stays_unresolved() {
        let q = AddressQuery {
            id: 4,
            address: Address::new("via sconosciuta", Some("3"), None),
            point: None,
        };
        // No fallback at all, and a fallback whose hint has no centroid:
        // both leave the record unresolved instead of degrading it.
        let no_centroid = DegradedFallback {
            centroids: BTreeMap::new(),
            hints: vec![Some("Centro".to_owned())],
        };
        for fallback in [None, Some(&no_centroid)] {
            let (res, report) = clean_addresses(
                std::slice::from_ref(&q),
                &reference(),
                Some(&AlwaysTransient),
                &cfg(),
                &RuntimeConfig::sequential(),
                fallback,
            );
            assert!(matches!(res[0].outcome, CleaningOutcome::Unresolved));
            assert_eq!(report.degraded, 0);
            assert_eq!(report.unresolved, 1);
        }
    }

    #[test]
    fn retry_counts_surface_in_the_report() {
        use crate::geocode::RetryGeocoder;
        let truth = {
            let mut t = reference();
            t.insert(entry("Via Garibaldi", "7", "10122", 45.0730, 7.6820));
            t
        };
        // RetryGeocoder over a permanently-missing street performs no
        // retries (NotFound is permanent); the report records zero.
        let retry = RetryGeocoder::new(
            SimulatedGeocoder::new(&truth, 0.6, 0.0),
            3,
            epc_runtime::Backoff::default(),
        );
        let q = AddressQuery {
            id: 0,
            address: Address::new("zzzzzz", None, None),
            point: None,
        };
        let (_, report) = clean_addresses(
            &[q],
            &reference(),
            Some(&retry),
            &cfg(),
            &RuntimeConfig::sequential(),
            None,
        );
        assert_eq!(report.geocoder_retries, 0);
        assert_eq!(report.unresolved, 1);
    }
}
