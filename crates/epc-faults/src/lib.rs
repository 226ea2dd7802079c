//! # epc-faults
//!
//! A deterministic, seedable fault-injection harness for the INDICE
//! pipeline. Chaos testing a data pipeline is only useful when the chaos is
//! *reproducible*: every fault decision here is a pure function of a seed
//! and a stable record key, so a failing chaos run can be replayed
//! bit-for-bit by rerunning with the same seed — at any thread count.
//!
//! Three hook points, one per failure domain:
//!
//! * **record boundary** — [`FaultInjector::corrupt_record`] decides, per
//!   record key, whether (and how) to corrupt the record before
//!   preprocessing sees it ([`Corruption`]);
//! * **geocode call** — [`FaultInjector::fail_geocode`] decides, per
//!   `(query, attempt)`, whether a geocoding call fails transiently;
//!   [`FaultyGeocoder`] applies those decisions around any
//!   [`epc_geo::Geocoder`];
//! * **stage boundary** — [`FaultInjector::fail_stage`] can kill a pipeline
//!   stage on its Nth invocation, exercising the supervisor's
//!   graceful-degradation policy.
//!
//! [`DeterministicInjector`] implements all three from a single seed;
//! [`NoFaults`] is the inert default. [`corrupt_dataset`] applies record
//! corruption to an [`epc_model::Dataset`] in place and reports exactly
//! which keys were hit, so tests can assert quarantine counts precisely.

mod corrupt;
mod crash;
mod fleet;
mod geocoder;
mod injector;

pub use corrupt::corrupt_dataset;
pub use crash::BatchScope;
pub use fleet::{CityFaultSpec, FleetFaults, StageKillSpec};
pub use geocoder::FaultyGeocoder;
pub use injector::{Corruption, DeterministicInjector, FaultInjector, NoFaults};
