//! Parameterized multi-city fleets: one seed expands into N per-city
//! [`SynthConfig`]s with varied size, climate and archetype mix — the
//! synthetic stand-in for "every region's registry at once" that the
//! fleet coordinator shards over.
//!
//! Everything is a pure function of `(fleet seed, city index)`: per-city
//! seeds are derived with `epc-runtime`'s SplitMix64, like the fault
//! injector's, so city 3 of a 12-city fleet generates the same
//! collection as city 3 of a 4-city fleet with the same seed — shard
//! isolation is testable because the inputs are shard-invariant.

use crate::city::CityConfig;
use crate::epcgen::SynthConfig;
use epc_geo::point::GeoPoint;
use epc_runtime::splitmix64;

/// Name bank: real northern/central Italian cities with their centres
/// and a rough climate multiplier relative to Turin (coastal cities run
/// milder, the Po plain slightly harsher).
const CITY_BANK: &[(&str, f64, f64, f64)] = &[
    ("Torino", 45.0703, 7.6869, 1.00),
    ("Milano", 45.4642, 9.1900, 1.02),
    ("Genova", 44.4056, 8.9463, 0.85),
    ("Bologna", 44.4949, 11.3426, 0.98),
    ("Firenze", 43.7696, 11.2558, 0.90),
    ("Venezia", 45.4408, 12.3155, 0.97),
    ("Verona", 45.4384, 10.9916, 0.99),
    ("Trieste", 45.6495, 13.7768, 0.93),
    ("Parma", 44.8015, 10.3279, 1.00),
    ("Brescia", 45.5416, 10.2118, 1.03),
    ("Padova", 45.4064, 11.8768, 0.98),
    ("Modena", 44.6471, 10.9252, 0.99),
];

/// Fleet-level generator configuration: one seed, N cities.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of cities to emit (the bank cycles past 12, with a numeric
    /// suffix keeping names unique).
    pub n_cities: usize,
    /// Baseline records per city; each city's size class scales this by
    /// 0.7 / 1.0 / 1.3.
    pub records_per_city: usize,
    /// The single fleet seed every per-city seed derives from.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_cities: 4,
            records_per_city: 2_000,
            seed: 2024,
        }
    }
}

/// One city's slot in the fleet plan: a stable id plus the fully derived
/// generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CitySpec {
    /// Stable shard id, `"<index:02>-<lowercase name>"` — doubles as the
    /// city's directory name under the fleet run directory.
    pub id: String,
    /// Derived generator configuration for this city.
    pub synth: SynthConfig,
}

impl FleetConfig {
    /// Expands the fleet into per-city specs (pure function of the
    /// config).
    pub fn cities(&self) -> Vec<CitySpec> {
        (0..self.n_cities).map(|i| self.city(i)).collect()
    }

    /// Derives the spec of city `index`.
    pub fn city(&self, index: usize) -> CitySpec {
        let (name, lat, lon, climate) = CITY_BANK[index % CITY_BANK.len()];
        let name = if index < CITY_BANK.len() {
            name.to_owned()
        } else {
            format!("{name} {}", index / CITY_BANK.len() + 1)
        };
        let id = format!("{index:02}-{}", name.to_lowercase().replace(' ', "-"));
        let h = splitmix64(self.seed ^ splitmix64(index as u64 + 1));
        // Size class: small / medium / large — varies both the record
        // count and the physical extent of the procedural city.
        let (records_scale, n_districts, neighbourhoods) = match h % 3 {
            0 => (0.7, 6, 3),
            1 => (1.0, 8, 4),
            _ => (1.3, 10, 4),
        };
        // Archetype skew in [-0.25, 0.25]: some cities lean historic,
        // some lean modern periphery.
        let skew = ((splitmix64(h) % 501) as f64 / 1000.0) - 0.25;
        let n_records = ((self.records_per_city as f64 * records_scale) as usize).max(50);
        CitySpec {
            id,
            synth: SynthConfig {
                n_records,
                city: CityConfig {
                    name,
                    center: GeoPoint::new(lat, lon),
                    n_districts,
                    neighbourhoods_per_district: neighbourhoods,
                    seed: splitmix64(h ^ 0xc17f),
                    ..CityConfig::default()
                },
                climate_factor: climate,
                archetype_skew: skew,
                seed: splitmix64(h ^ 0x5eed),
                ..SynthConfig::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_expansion_is_deterministic() {
        let a = FleetConfig::default().cities();
        let b = FleetConfig::default().cities();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn city_spec_is_fleet_size_invariant() {
        let small = FleetConfig {
            n_cities: 4,
            ..FleetConfig::default()
        };
        let large = FleetConfig {
            n_cities: 12,
            ..FleetConfig::default()
        };
        assert_eq!(small.city(3), large.city(3));
    }

    #[test]
    fn ids_are_unique_and_stable_past_the_bank() {
        let fleet = FleetConfig {
            n_cities: 30,
            ..FleetConfig::default()
        };
        let specs = fleet.cities();
        let mut ids: Vec<&str> = specs.iter().map(|s| s.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 30, "city ids must be unique");
        assert_eq!(specs[0].id, "00-torino");
        assert_eq!(specs[12].id, "12-torino-2");
    }

    #[test]
    fn cities_vary_in_size_climate_and_mix() {
        let specs = FleetConfig {
            n_cities: 12,
            ..FleetConfig::default()
        }
        .cities();
        let sizes: std::collections::BTreeSet<usize> =
            specs.iter().map(|s| s.synth.n_records).collect();
        assert!(sizes.len() > 1, "size classes should differ");
        let climates: std::collections::BTreeSet<u64> = specs
            .iter()
            .map(|s| (s.synth.climate_factor * 100.0) as u64)
            .collect();
        assert!(climates.len() > 1, "climates should differ");
        assert!(specs.iter().any(|s| s.synth.archetype_skew < 0.0));
        assert!(specs.iter().any(|s| s.synth.archetype_skew > 0.0));
    }

    #[test]
    fn different_seeds_give_different_fleets() {
        let a = FleetConfig {
            seed: 1,
            ..FleetConfig::default()
        }
        .cities();
        let b = FleetConfig {
            seed: 2,
            ..FleetConfig::default()
        }
        .cities();
        assert_ne!(a, b);
    }
}
