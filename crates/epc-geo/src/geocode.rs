//! The geocoding fallback of §2.1.1.
//!
//! "When the association to a referenced address is not possible … a
//! geocoding request is sent via the Google Geocoding APIs … INDICE exploits
//! the Google Geocoding service only when the association cannot be resolved
//! through the referenced street map due to a limit on the number of free
//! requests."
//!
//! The paper's external dependency is abstracted behind the [`Geocoder`]
//! trait; [`QuotaGeocoder`] enforces the request budget; and
//! [`SimulatedGeocoder`] is the deterministic stand-in used in this
//! reproduction (see DESIGN.md, substitution table).
//!
//! For fault tolerance, [`Geocoder::try_geocode`] distinguishes permanent
//! misses ([`GeocodeFailure::NotFound`]) from transient provider failures
//! ([`GeocodeFailure::Transient`]), and [`RetryGeocoder`] retries the
//! latter up to a budget with a seedable, fully deterministic
//! [`Backoff`] schedule (`epc-runtime`'s, keyed by [`query_hash`]).

use crate::address::Address;
use crate::point::GeoPoint;
use crate::streetmap::StreetMap;
use epc_runtime::{fnv1a, Backoff};
use std::cell::Cell;

/// A successful geocoding response.
#[derive(Debug, Clone, PartialEq)]
pub struct GeocodeResult {
    /// Canonical street name.
    pub street: String,
    /// Canonical house number (may be interpolated).
    pub house_number: String,
    /// ZIP code.
    pub zip: String,
    /// Geolocation.
    pub point: GeoPoint,
    /// District, when the provider returns administrative levels.
    pub district: Option<String>,
    /// Neighbourhood, when available.
    pub neighbourhood: Option<String>,
}

/// The kind of a transient geocoding failure — the provider was reached
/// (or should have been) but did not produce an answer this time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// The provider rejected the request for quota/rate reasons.
    Quota,
    /// The request timed out.
    Timeout,
}

impl std::fmt::Display for TransientKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransientKind::Quota => write!(f, "quota"),
            TransientKind::Timeout => write!(f, "timeout"),
        }
    }
}

/// Why a geocode attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeocodeFailure {
    /// The address does not resolve — retrying cannot help.
    NotFound,
    /// A transient provider failure — a retry may succeed.
    Transient(TransientKind),
}

impl GeocodeFailure {
    /// `true` for failures worth retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, GeocodeFailure::Transient(_))
    }
}

/// A textual-address → structured-address service.
pub trait Geocoder {
    /// Attempts to geocode `query`. `None` means the service could not
    /// resolve the address (or refused the request).
    fn geocode(&self, query: &Address) -> Option<GeocodeResult>;

    /// Number of requests issued so far (successful or not).
    fn requests_made(&self) -> usize;

    /// Like [`Geocoder::geocode`], but distinguishing permanent misses
    /// from transient failures. The default maps every miss to
    /// [`GeocodeFailure::NotFound`]; wrappers that can observe transient
    /// conditions override this.
    fn try_geocode(&self, query: &Address) -> Result<GeocodeResult, GeocodeFailure> {
        self.geocode(query).ok_or(GeocodeFailure::NotFound)
    }

    /// Number of *retry* attempts this geocoder performed beyond first
    /// tries (only [`RetryGeocoder`] reports a non-zero value).
    fn retries_made(&self) -> usize {
        0
    }
}

/// FNV-1a hash of a query's street + house number; the deterministic key
/// used by failure draws and backoff jitter.
pub fn query_hash(query: &Address) -> u64 {
    let house_number = query.house_number.as_deref().unwrap_or("");
    fnv1a(query.street.bytes().chain(house_number.bytes()))
}

/// Wraps a geocoder with a hard request quota (the free-tier limit the
/// paper works around). Requests beyond the quota return `None` without
/// reaching the inner service.
pub struct QuotaGeocoder<G> {
    inner: G,
    quota: usize,
    used: Cell<usize>,
}

impl<G: Geocoder> QuotaGeocoder<G> {
    /// Wraps `inner` with a budget of `quota` requests.
    pub fn new(inner: G, quota: usize) -> Self {
        QuotaGeocoder {
            inner,
            quota,
            used: Cell::new(0),
        }
    }

    /// Remaining request budget.
    pub fn remaining(&self) -> usize {
        self.quota.saturating_sub(self.used.get())
    }

    /// `true` when the quota is exhausted.
    pub fn exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

impl<G: Geocoder> Geocoder for QuotaGeocoder<G> {
    fn geocode(&self, query: &Address) -> Option<GeocodeResult> {
        if self.exhausted() {
            return None;
        }
        self.used.set(self.used.get() + 1);
        self.inner.geocode(query)
    }

    fn requests_made(&self) -> usize {
        self.used.get()
    }

    fn try_geocode(&self, query: &Address) -> Result<GeocodeResult, GeocodeFailure> {
        // An exhausted *run budget* is permanent within the run: the free
        // tier will not replenish while the pipeline executes, so it maps
        // to `NotFound` rather than a retriable failure.
        if self.exhausted() {
            return Err(GeocodeFailure::NotFound);
        }
        self.used.set(self.used.get() + 1);
        self.inner.try_geocode(query)
    }

    fn retries_made(&self) -> usize {
        self.inner.retries_made()
    }
}

/// Environment variable overriding the geocoder retry budget, read by
/// [`try_geocode_retries_from_env`].
pub const GEOCODE_RETRIES_ENV_VAR: &str = "INDICE_GEOCODE_RETRIES";

/// Default retry budget when [`GEOCODE_RETRIES_ENV_VAR`] is unset.
pub const DEFAULT_GEOCODE_RETRIES: u32 = 3;

/// Strictly validates an `INDICE_GEOCODE_RETRIES` value: `None` (unset)
/// is [`DEFAULT_GEOCODE_RETRIES`], anything set must parse as a
/// non-negative integer. Pure, so rejection paths are unit-testable.
pub fn parse_geocode_retries(raw: Option<&str>) -> Result<u32, String> {
    let Some(raw) = raw else {
        return Ok(DEFAULT_GEOCODE_RETRIES);
    };
    raw.trim().parse().map_err(|_| {
        format!("{GEOCODE_RETRIES_ENV_VAR} must be a non-negative integer, got {raw:?}")
    })
}

/// Reads the retry budget from [`GEOCODE_RETRIES_ENV_VAR`] (see
/// [`parse_geocode_retries`]); a malformed value is an error, never a
/// silent fallback to the default.
pub fn try_geocode_retries_from_env() -> Result<u32, String> {
    let raw = std::env::var(GEOCODE_RETRIES_ENV_VAR).ok();
    parse_geocode_retries(raw.as_deref())
}

/// Retries transient failures of an inner geocoder up to a budget, with a
/// deterministic [`Backoff`] schedule between attempts.
///
/// Permanent misses ([`GeocodeFailure::NotFound`]) are returned
/// immediately — retrying an address that does not exist is wasted quota.
/// When the budget is exhausted the last transient failure is surfaced so
/// the caller can degrade (e.g. fall back to a district centroid).
pub struct RetryGeocoder<G> {
    inner: G,
    retries: u32,
    backoff: Backoff,
    retries_made: Cell<usize>,
}

impl<G: Geocoder> RetryGeocoder<G> {
    /// Wraps `inner` with `retries` retries per query under `backoff`.
    pub fn new(inner: G, retries: u32, backoff: Backoff) -> Self {
        RetryGeocoder {
            inner,
            retries,
            backoff,
            retries_made: Cell::new(0),
        }
    }

    /// The configured retry budget.
    pub fn retry_budget(&self) -> u32 {
        self.retries
    }

    /// The backoff schedule generator.
    pub fn backoff(&self) -> Backoff {
        self.backoff
    }
}

impl<G: Geocoder> Geocoder for RetryGeocoder<G> {
    fn geocode(&self, query: &Address) -> Option<GeocodeResult> {
        self.try_geocode(query).ok()
    }

    fn requests_made(&self) -> usize {
        self.inner.requests_made()
    }

    fn try_geocode(&self, query: &Address) -> Result<GeocodeResult, GeocodeFailure> {
        let key = query_hash(query);
        let mut last = GeocodeFailure::NotFound;
        for attempt in 0..=self.retries {
            if attempt > 0 {
                self.retries_made.set(self.retries_made.get() + 1);
                let delay = self.backoff.delay_ms(key, attempt);
                if delay > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
            }
            match self.inner.try_geocode(query) {
                Ok(res) => return Ok(res),
                Err(GeocodeFailure::NotFound) => return Err(GeocodeFailure::NotFound),
                Err(f @ GeocodeFailure::Transient(_)) => last = f,
            }
        }
        Err(last)
    }

    fn retries_made(&self) -> usize {
        self.retries_made.get()
    }
}

/// Deterministic geocoder simulator backed by a ground-truth street map.
///
/// It resolves addresses the way a production geocoder would — tolerant
/// fuzzy matching against its own (complete) reference data — but with a
/// configurable failure rate driven by a hash of the query, so runs are
/// reproducible without an RNG. It borrows the map, so sharing one map
/// between the cleaning pass and the fallback copies nothing.
pub struct SimulatedGeocoder<'a> {
    truth: &'a StreetMap,
    /// Minimum similarity the simulator accepts (it is *more* tolerant
    /// than the local reference-map step, like a production service).
    min_similarity: f64,
    /// Fraction of queries that fail spuriously, in `[0, 1]`.
    failure_rate: f64,
    requests: Cell<usize>,
}

impl<'a> SimulatedGeocoder<'a> {
    /// Creates a simulator over ground-truth data.
    pub fn new(truth: &'a StreetMap, min_similarity: f64, failure_rate: f64) -> Self {
        SimulatedGeocoder {
            truth,
            min_similarity,
            failure_rate,
            requests: Cell::new(0),
        }
    }
}

impl Geocoder for SimulatedGeocoder<'_> {
    fn geocode(&self, query: &Address) -> Option<GeocodeResult> {
        self.requests.set(self.requests.get() + 1);
        // Deterministic spurious failure.
        let draw = (query_hash(query) % 10_000) as f64 / 10_000.0;
        if draw < self.failure_rate {
            return None;
        }
        let hit = self.truth.best_match(&query.street, self.min_similarity)?;
        let entry = self
            .truth
            .lookup(&hit.street_key, query.house_number.as_deref())?;
        Some(GeocodeResult {
            street: entry.street.clone(),
            house_number: entry.house_number.clone(),
            zip: entry.zip.clone(),
            point: entry.point,
            district: Some(entry.district.clone()),
            neighbourhood: Some(entry.neighbourhood.clone()),
        })
    }

    fn requests_made(&self) -> usize {
        self.requests.get()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::streetmap::StreetEntry;

    /// A scripted geocoder whose per-query outcomes are predetermined:
    /// fails transiently for the first `transient_failures` calls, then
    /// delegates to `inner`.
    struct FlakyGeocoder<G> {
        inner: G,
        transient_failures: usize,
        kind: TransientKind,
        calls: Cell<usize>,
    }

    impl<G: Geocoder> Geocoder for FlakyGeocoder<G> {
        fn geocode(&self, query: &Address) -> Option<GeocodeResult> {
            self.try_geocode(query).ok()
        }

        fn requests_made(&self) -> usize {
            self.calls.get()
        }

        fn try_geocode(&self, query: &Address) -> Result<GeocodeResult, GeocodeFailure> {
            let n = self.calls.get();
            self.calls.set(n + 1);
            if n < self.transient_failures {
                return Err(GeocodeFailure::Transient(self.kind));
            }
            self.inner.try_geocode(query)
        }
    }

    fn truth() -> StreetMap {
        StreetMap::from_entries(vec![
            StreetEntry {
                street: "Via Roma".into(),
                house_number: "10".into(),
                zip: "10121".into(),
                point: GeoPoint::new(45.07, 7.68),
                district: "Centro".into(),
                neighbourhood: "Centro Storico".into(),
            },
            StreetEntry {
                street: "Corso Francia".into(),
                house_number: "22".into(),
                zip: "10143".into(),
                point: GeoPoint::new(45.078, 7.64),
                district: "Ovest".into(),
                neighbourhood: "Parella".into(),
            },
        ])
    }

    #[test]
    fn simulator_resolves_noisy_addresses() {
        let map = truth();
        let g = SimulatedGeocoder::new(&map, 0.6, 0.0);
        let res = g
            .geocode(&Address::new("via rooma", Some("10"), None))
            .expect("should resolve");
        assert_eq!(res.street, "Via Roma");
        assert_eq!(res.zip, "10121");
        assert_eq!(res.district.as_deref(), Some("Centro"));
        assert_eq!(g.requests_made(), 1);
    }

    #[test]
    fn simulator_fails_on_garbage() {
        let map = truth();
        let g = SimulatedGeocoder::new(&map, 0.6, 0.0);
        assert!(g.geocode(&Address::new("qwertyuiop", None, None)).is_none());
        assert_eq!(g.requests_made(), 1, "failed requests still count");
    }

    #[test]
    fn simulator_failure_rate_is_deterministic() {
        let map = truth();
        let g1 = SimulatedGeocoder::new(&map, 0.6, 0.5);
        let g2 = SimulatedGeocoder::new(&map, 0.6, 0.5);
        let queries: Vec<Address> = (0..30)
            .map(|i| Address::new(&format!("via roma {i}"), Some("10"), None))
            .collect();
        let r1: Vec<bool> = queries.iter().map(|q| g1.geocode(q).is_some()).collect();
        let r2: Vec<bool> = queries.iter().map(|q| g2.geocode(q).is_some()).collect();
        assert_eq!(r1, r2, "same inputs → same outcomes");
        assert!(r1.iter().any(|&b| b) || r1.iter().any(|&b| !b));
    }

    #[test]
    fn quota_blocks_after_budget() {
        let map = truth();
        let g = QuotaGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), 2);
        let q = Address::new("via roma", Some("10"), None);
        assert!(g.geocode(&q).is_some());
        assert!(g.geocode(&q).is_some());
        assert!(g.exhausted());
        assert!(g.geocode(&q).is_none(), "third request must be refused");
        assert_eq!(g.requests_made(), 2, "refused requests don't count");
    }

    #[test]
    fn quota_remaining_counts_down() {
        let map = truth();
        let g = QuotaGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), 3);
        assert_eq!(g.remaining(), 3);
        let _ = g.geocode(&Address::new("via roma", None, None));
        assert_eq!(g.remaining(), 2);
    }

    #[test]
    fn zero_quota_never_calls_inner() {
        let map = truth();
        let g = QuotaGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), 0);
        assert!(g.geocode(&Address::new("via roma", None, None)).is_none());
        assert_eq!(g.requests_made(), 0);
    }

    #[test]
    fn try_geocode_distinguishes_miss_from_quota() {
        let map = truth();
        let g = QuotaGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), 1);
        // Permanent miss: the street does not exist.
        assert_eq!(
            g.try_geocode(&Address::new("qwertyuiop", None, None)),
            Err(GeocodeFailure::NotFound)
        );
        // Quota exhausted: also permanent within the run.
        assert_eq!(
            g.try_geocode(&Address::new("via roma", Some("10"), None)),
            Err(GeocodeFailure::NotFound)
        );
        assert_eq!(g.requests_made(), 1);
    }

    #[test]
    fn retry_recovers_from_transient_failures() {
        let map = truth();
        let flaky = FlakyGeocoder {
            inner: SimulatedGeocoder::new(&map, 0.6, 0.0),
            transient_failures: 2,
            kind: TransientKind::Timeout,
            calls: Cell::new(0),
        };
        let g = RetryGeocoder::new(flaky, 3, Backoff::default());
        let res = g
            .try_geocode(&Address::new("via roma", Some("10"), None))
            .expect("third attempt succeeds");
        assert_eq!(res.street, "Via Roma");
        assert_eq!(g.retries_made(), 2);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_transient_failure() {
        let map = truth();
        let flaky = FlakyGeocoder {
            inner: SimulatedGeocoder::new(&map, 0.6, 0.0),
            transient_failures: 100,
            kind: TransientKind::Quota,
            calls: Cell::new(0),
        };
        let g = RetryGeocoder::new(flaky, 2, Backoff::default());
        assert_eq!(
            g.try_geocode(&Address::new("via roma", Some("10"), None)),
            Err(GeocodeFailure::Transient(TransientKind::Quota))
        );
        assert_eq!(g.retries_made(), 2, "budget respected");
    }

    #[test]
    fn retry_does_not_waste_attempts_on_permanent_misses() {
        let map = truth();
        let g = RetryGeocoder::new(
            SimulatedGeocoder::new(&map, 0.6, 0.0),
            5,
            Backoff::default(),
        );
        assert_eq!(
            g.try_geocode(&Address::new("qwertyuiop", None, None)),
            Err(GeocodeFailure::NotFound)
        );
        assert_eq!(g.retries_made(), 0);
        assert_eq!(g.requests_made(), 1);
    }

    #[test]
    fn strict_retry_parsing_rejects_malformed_values() {
        assert_eq!(parse_geocode_retries(None), Ok(DEFAULT_GEOCODE_RETRIES));
        assert_eq!(parse_geocode_retries(Some("0")), Ok(0));
        assert_eq!(parse_geocode_retries(Some(" 12 ")), Ok(12));
        for bad in ["-1", "three", "", "1.5"] {
            let err = parse_geocode_retries(Some(bad)).unwrap_err();
            assert!(err.contains(GEOCODE_RETRIES_ENV_VAR), "{err}");
        }
    }

    #[test]
    fn retry_env_budget_parses_with_fallback() {
        // The env var is process-global; tests only exercise the parsing
        // contract via a scoped set/unset. Unset falls back to the default;
        // a malformed value is an error.
        std::env::set_var(GEOCODE_RETRIES_ENV_VAR, "7");
        assert_eq!(try_geocode_retries_from_env(), Ok(7));
        std::env::set_var(GEOCODE_RETRIES_ENV_VAR, "nope");
        assert!(try_geocode_retries_from_env().is_err());
        std::env::remove_var(GEOCODE_RETRIES_ENV_VAR);
        assert_eq!(try_geocode_retries_from_env(), Ok(DEFAULT_GEOCODE_RETRIES));
    }
}
