//! A geocoder wrapper that injects transient failures.

use crate::injector::FaultInjector;
use epc_geo::geocode::{query_hash, GeocodeFailure, GeocodeResult, Geocoder};
use epc_geo::Address;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

/// Wraps an inner [`Geocoder`] and consults a [`FaultInjector`] before
/// every call: when the injector says a `(query, attempt)` fails, the call
/// returns [`GeocodeFailure::Transient`] without reaching the inner
/// service (the provider was "unreachable", so no quota is consumed).
///
/// Attempts are counted per query key so a retrying caller (e.g.
/// [`epc_geo::RetryGeocoder`]) presents increasing attempt numbers to the
/// injector — injected failures can then recover on retry, exactly like a
/// real flaky provider.
pub struct FaultyGeocoder<'a, G> {
    inner: G,
    injector: &'a dyn FaultInjector,
    attempts: RefCell<BTreeMap<u64, u32>>,
    injected: Cell<usize>,
}

impl<'a, G: Geocoder> FaultyGeocoder<'a, G> {
    /// Wraps `inner`, injecting the failures `injector` dictates.
    pub fn new(inner: G, injector: &'a dyn FaultInjector) -> Self {
        FaultyGeocoder {
            inner,
            injector,
            attempts: RefCell::new(BTreeMap::new()),
            injected: Cell::new(0),
        }
    }

    /// Number of failures injected so far.
    pub fn injected_failures(&self) -> usize {
        self.injected.get()
    }
}

impl<G: Geocoder> Geocoder for FaultyGeocoder<'_, G> {
    fn geocode(&self, query: &Address) -> Option<GeocodeResult> {
        self.try_geocode(query).ok()
    }

    fn requests_made(&self) -> usize {
        self.inner.requests_made()
    }

    fn try_geocode(&self, query: &Address) -> Result<GeocodeResult, GeocodeFailure> {
        let key = query_hash(query);
        let attempt = {
            let mut attempts = self.attempts.borrow_mut();
            let slot = attempts.entry(key).or_insert(0);
            let current = *slot;
            *slot += 1;
            current
        };
        if let Some(kind) = self.injector.fail_geocode(key, attempt) {
            self.injected.set(self.injected.get() + 1);
            return Err(GeocodeFailure::Transient(kind));
        }
        self.inner.try_geocode(query)
    }

    fn retries_made(&self) -> usize {
        self.inner.retries_made()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::injector::{DeterministicInjector, NoFaults};
    use epc_geo::geocode::{RetryGeocoder, SimulatedGeocoder};
    use epc_geo::{GeoPoint, StreetEntry, StreetMap};
    use epc_runtime::Backoff;

    fn truth() -> StreetMap {
        StreetMap::from_entries(vec![StreetEntry {
            street: "Via Roma".into(),
            house_number: "10".into(),
            zip: "10121".into(),
            point: GeoPoint::new(45.07, 7.68),
            district: "Centro".into(),
            neighbourhood: "Quadrilatero".into(),
        }])
    }

    fn query() -> Address {
        Address::new("Via Roma", Some("10"), None)
    }

    #[test]
    fn no_faults_is_transparent() {
        let map = truth();
        let inj = NoFaults;
        let faulty = FaultyGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), &inj);
        let plain = SimulatedGeocoder::new(&map, 0.6, 0.0);
        assert_eq!(faulty.try_geocode(&query()), plain.try_geocode(&query()));
        assert_eq!(faulty.injected_failures(), 0);
    }

    #[test]
    fn injected_failures_are_transient_and_counted() {
        let map = truth();
        let inj = DeterministicInjector::new(3).with_geocode_rate(1.0);
        let faulty = FaultyGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), &inj);
        let res = faulty.try_geocode(&query());
        assert!(matches!(res, Err(GeocodeFailure::Transient(_))));
        assert_eq!(faulty.injected_failures(), 1);
        // The provider was never reached.
        assert_eq!(faulty.requests_made(), 0);
    }

    #[test]
    fn retry_over_faulty_geocoder_recovers() {
        let map = truth();
        // Find a seed/rate where attempt 0 fails but a retry within budget
        // succeeds, then prove the retry wrapper recovers the result.
        let key = epc_geo::geocode::query_hash(&query());
        let inj = (0..64)
            .map(|seed| DeterministicInjector::new(seed).with_geocode_rate(0.6))
            .find(|inj| {
                inj.fail_geocode(key, 0).is_some()
                    && (1..=3).any(|a| inj.fail_geocode(key, a).is_none())
            })
            .expect("some seed yields fail-then-recover for this key");
        let retry = RetryGeocoder::new(
            FaultyGeocoder::new(SimulatedGeocoder::new(&map, 0.6, 0.0), &inj),
            3,
            Backoff::default(),
        );
        let res = retry.try_geocode(&query());
        assert!(res.is_ok(), "retry should recover: {res:?}");
        assert!(retry.retries_made() >= 1);
    }
}
