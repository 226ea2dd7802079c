//! Per-city fault specs for fleet chaos runs.
//!
//! A [`FleetFaults`] maps city ids to [`CityFaultSpec`]s and materializes
//! a [`DeterministicInjector`] for one `(city, attempt)` — so a chaos
//! test can kill exactly city i's stage s on attempt k, or corrupt only
//! city j's records, and prove every *other* city's outputs are
//! byte-identical to a fault-free run. Per-city injector seeds derive
//! from the fleet seed with the same SplitMix64 discipline as the record
//! draws, so specs stay thread- and shard-order-invariant.

use crate::injector::{Corruption, DeterministicInjector};
use epc_runtime::{fnv1a, splitmix64};
use std::collections::BTreeMap;

/// Kill one stage of a city's shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKillSpec {
    /// Stage to kill (`preprocess` / `analytics` / `dashboard`).
    pub stage: String,
    /// Kill only on this shard attempt (1-based); `None` kills the stage
    /// on *every* attempt, which exhausts the retry budget and proves
    /// the abandonment path.
    pub attempt: Option<u32>,
}

/// Faults aimed at a single city.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CityFaultSpec {
    /// Optional stage kill.
    pub kill: Option<StageKillSpec>,
    /// Record-corruption rate in `[0, 1]` for this city only.
    pub record_rate: f64,
    /// Transient geocode-failure rate in `[0, 1]` for this city only.
    pub geocode_rate: f64,
    /// Corruption to apply when `record_rate` fires; `None` uses the
    /// injector default (non-finite aspect ratio).
    pub corruption: Option<Corruption>,
}

/// The fleet-level fault plan: one seed, per-city specs. Cities without a
/// spec get a clean (inert) injector.
#[derive(Debug, Clone, Default)]
pub struct FleetFaults {
    /// Base fault seed; each city's injector seed derives from it.
    pub seed: u64,
    /// Per-city fault specs, keyed by city id.
    pub cities: BTreeMap<String, CityFaultSpec>,
}

impl FleetFaults {
    /// An empty (fault-free) plan under `seed`.
    pub fn new(seed: u64) -> Self {
        FleetFaults {
            seed,
            cities: BTreeMap::new(),
        }
    }

    /// Adds a spec for `city`, replacing any existing one.
    pub fn with_city(mut self, city: &str, spec: CityFaultSpec) -> Self {
        self.cities.insert(city.to_owned(), spec);
        self
    }

    /// Whether any spec targets `city`.
    pub fn targets(&self, city: &str) -> bool {
        self.cities.contains_key(city)
    }

    /// Materializes the injector for one `(city, attempt)`. Pure function
    /// of the plan: the same arguments always yield an injector making
    /// the same decisions.
    pub fn injector_for(&self, city: &str, attempt: u32) -> DeterministicInjector {
        let city_seed = splitmix64(self.seed ^ fnv1a(city.bytes()));
        let Some(spec) = self.cities.get(city) else {
            return DeterministicInjector::new(city_seed);
        };
        let mut injector = DeterministicInjector::new(city_seed)
            .with_record_rate(spec.record_rate)
            .with_geocode_rate(spec.geocode_rate);
        if let Some(corruption) = &spec.corruption {
            injector = injector.with_corruption(corruption.clone());
        }
        if let Some(kill) = &spec.kill {
            if kill.attempt.is_none() || kill.attempt == Some(attempt) {
                // The shard runs each stage once per attempt, so killing
                // invocation 1 kills the stage for this attempt.
                injector = injector.kill_stage(&kill.stage, 1);
            }
        }
        injector
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::injector::FaultInjector;

    #[test]
    fn unspecified_cities_get_inert_injectors() {
        let faults = FleetFaults::new(7).with_city(
            "01-milano",
            CityFaultSpec {
                record_rate: 1.0,
                ..CityFaultSpec::default()
            },
        );
        let clean = faults.injector_for("00-torino", 1);
        assert_eq!(clean.corrupt_record("EPC-000001"), None);
        let dirty = faults.injector_for("01-milano", 1);
        assert!(dirty.corrupt_record("EPC-000001").is_some());
    }

    #[test]
    fn kill_on_attempt_k_spares_other_attempts() {
        let faults = FleetFaults::new(0).with_city(
            "02-genova",
            CityFaultSpec {
                kill: Some(StageKillSpec {
                    stage: "preprocess".to_owned(),
                    attempt: Some(1),
                }),
                ..CityFaultSpec::default()
            },
        );
        assert!(faults
            .injector_for("02-genova", 1)
            .fail_stage("preprocess", 1)
            .is_some());
        assert!(faults
            .injector_for("02-genova", 2)
            .fail_stage("preprocess", 1)
            .is_none());
    }

    #[test]
    fn kill_every_attempt_when_attempt_is_none() {
        let faults = FleetFaults::new(0).with_city(
            "02-genova",
            CityFaultSpec {
                kill: Some(StageKillSpec {
                    stage: "analytics".to_owned(),
                    attempt: None,
                }),
                ..CityFaultSpec::default()
            },
        );
        for attempt in 1..5 {
            assert!(faults
                .injector_for("02-genova", attempt)
                .fail_stage("analytics", 1)
                .is_some());
        }
    }

    #[test]
    fn per_city_seeds_differ_but_are_stable() {
        let faults = FleetFaults::new(3)
            .with_city(
                "a",
                CityFaultSpec {
                    record_rate: 0.5,
                    ..CityFaultSpec::default()
                },
            )
            .with_city(
                "b",
                CityFaultSpec {
                    record_rate: 0.5,
                    ..CityFaultSpec::default()
                },
            );
        let hits = |city: &str| -> Vec<String> {
            let injector = faults.injector_for(city, 1);
            (0..300)
                .map(|i| format!("EPC-{i:06}"))
                .filter(|k| injector.corrupt_record(k).is_some())
                .collect()
        };
        assert_ne!(hits("a"), hits("b"), "cities draw independent streams");
        assert_eq!(hits("a"), hits("a"), "decisions are stable");
    }
}
