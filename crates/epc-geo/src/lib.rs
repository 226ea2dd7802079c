//! # epc-geo
//!
//! Geospatial substrate for the INDICE reproduction:
//!
//! * [`point`] / [`bbox`] — WGS84 points, haversine distances, bounding boxes;
//! * [`mod@levenshtein`] — the edit distance and the normalized similarity in
//!   `[0, 1]` the paper uses to match noisy addresses (§2.1.1);
//! * [`address`] — address normalization (abbreviation expansion, casing,
//!   punctuation) so `"C.so Vittorio Emanuele II"` and
//!   `"corso vittorio emanuele ii"` compare equal;
//! * [`streetmap`] — the *referenced street map* (street names, house
//!   numbers, ZIP codes, geolocation) the cleaning algorithm matches
//!   against;
//! * [`geocode`] — the geocoding fallback: a [`geocode::Geocoder`] trait
//!   with a request quota (the paper uses Google's free tier only when the
//!   reference map cannot resolve an address) and a deterministic simulator;
//! * [`cleaning`] — the multi-step address-cleaning algorithm of §2.1.1;
//! * [`region`] — district/neighbourhood polygons with point-in-polygon
//!   assignment, backing the spatial-granularity drill-down.

pub mod address;
pub mod bbox;
pub mod cleaning;
pub mod geocode;
pub mod levenshtein;
pub mod point;
pub mod region;
pub mod streetmap;

pub use address::Address;
pub use bbox::BoundingBox;
pub use cleaning::{
    clean_addresses, AddressQuery, CleanedAddress, CleaningConfig, CleaningOutcome, CleaningReport,
    DegradedFallback,
};
pub use geocode::{
    GeocodeFailure, GeocodeResult, Geocoder, QuotaGeocoder, RetryGeocoder, SimulatedGeocoder,
    TransientKind,
};
pub use levenshtein::{levenshtein, similarity};
pub use point::GeoPoint;
pub use region::{Polygon, Region, RegionHierarchy};
pub use streetmap::{StreetEntry, StreetMap};
