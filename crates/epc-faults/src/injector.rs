//! The injector trait and its deterministic implementation.

use epc_geo::TransientKind;
use epc_runtime::{fnv1a, splitmix64};
use std::collections::BTreeMap;

/// How a record gets corrupted at the ingestion boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Overwrite a numeric attribute with `NaN`. Caught by the always-on
    /// non-finite validation scan, so every such corruption lands in the
    /// quarantine — the accounting is exact.
    NonFinite {
        /// Name of the attribute to overwrite.
        attribute: String,
    },
    /// Replace the street string with unresolvable garbage derived from
    /// the record key. The record survives validation but exercises the
    /// geocoder fallback / unresolved path.
    ScrambleAddress,
}

/// Decides, deterministically, which faults to inject where.
///
/// Implementations must be pure functions of their configuration and the
/// hook arguments: the same `(key, attempt)` must always produce the same
/// decision, regardless of call order or thread interleaving — that is
/// what makes chaos runs replayable.
pub trait FaultInjector: Send + Sync {
    /// Should the record identified by `key` be corrupted? `None` = leave
    /// it alone.
    fn corrupt_record(&self, key: &str) -> Option<Corruption>;

    /// Should the geocode call for `key` (see [`epc_geo::geocode::query_hash`])
    /// fail transiently on this `attempt` (0 = first try)? Keying on the
    /// attempt lets retries recover — exactly like a real flaky provider.
    fn fail_geocode(&self, key: u64, attempt: u32) -> Option<TransientKind>;

    /// Should the pipeline stage `stage` be killed on its `invocation`-th
    /// run (1-based)? Returns the panic message to raise.
    fn fail_stage(&self, stage: &str, invocation: usize) -> Option<String>;
}

/// The inert injector: never corrupts, never fails, never kills.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn corrupt_record(&self, _key: &str) -> Option<Corruption> {
        None
    }
    fn fail_geocode(&self, _key: u64, _attempt: u32) -> Option<TransientKind> {
        None
    }
    fn fail_stage(&self, _stage: &str, _invocation: usize) -> Option<String> {
        None
    }
}

/// Domain separators so the three hooks draw from independent streams of
/// the same seed.
const DOMAIN_RECORD: u64 = 0x5245_434f_5244_0001; // "RECORD"
const DOMAIN_GEOCODE: u64 = 0x4745_4f43_4f44_0002; // "GEOCOD"

/// A seedable injector whose every decision is a pure function of
/// `(seed, key)` — never of wall-clock time, call order, or thread
/// schedule.
///
/// Rates are probabilities in `[0, 1]`, resolved by hashing the stable
/// record key: shuffling the input rows does not change *which* records
/// are hit, only when the hits are encountered.
#[derive(Debug, Clone)]
pub struct DeterministicInjector {
    seed: u64,
    record_rate: f64,
    geocode_rate: f64,
    corruption: Corruption,
    stage_kills: BTreeMap<String, usize>,
}

impl DeterministicInjector {
    /// A new injector with all rates zero — configure with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> Self {
        DeterministicInjector {
            seed,
            record_rate: 0.0,
            geocode_rate: 0.0,
            corruption: Corruption::NonFinite {
                attribute: epc_model::wellknown::ASPECT_RATIO.to_owned(),
            },
            stage_kills: BTreeMap::new(),
        }
    }

    /// Corrupt this fraction of records (by stable key).
    pub fn with_record_rate(mut self, rate: f64) -> Self {
        self.record_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Fail this fraction of geocode attempts transiently.
    pub fn with_geocode_rate(mut self, rate: f64) -> Self {
        self.geocode_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Use this corruption instead of the default
    /// (`NonFinite { attribute: aspect_ratio }`).
    pub fn with_corruption(mut self, corruption: Corruption) -> Self {
        self.corruption = corruption;
        self
    }

    /// Kill `stage` on its `invocation`-th run (1-based).
    pub fn kill_stage(mut self, stage: &str, invocation: usize) -> Self {
        self.stage_kills.insert(stage.to_owned(), invocation);
        self
    }

    /// The configured record-corruption rate.
    pub fn record_rate(&self) -> f64 {
        self.record_rate
    }

    /// The configured geocode-failure rate.
    pub fn geocode_rate(&self) -> f64 {
        self.geocode_rate
    }

    /// A uniform draw in `[0, 1)` for `(domain, key)` under this seed.
    fn draw(&self, domain: u64, key: u64) -> f64 {
        let h = splitmix64(self.seed ^ domain ^ splitmix64(key));
        // 53 bits of mantissa: exact double conversion.
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl FaultInjector for DeterministicInjector {
    fn corrupt_record(&self, key: &str) -> Option<Corruption> {
        if self.record_rate > 0.0 && self.draw(DOMAIN_RECORD, fnv1a(key.bytes())) < self.record_rate
        {
            Some(self.corruption.clone())
        } else {
            None
        }
    }

    fn fail_geocode(&self, key: u64, attempt: u32) -> Option<TransientKind> {
        if self.geocode_rate > 0.0
            && self.draw(DOMAIN_GEOCODE, key.wrapping_add(attempt as u64)) < self.geocode_rate
        {
            // Alternate failure kinds deterministically so both are
            // exercised.
            Some(if (key ^ attempt as u64) & 1 == 0 {
                TransientKind::Quota
            } else {
                TransientKind::Timeout
            })
        } else {
            None
        }
    }

    fn fail_stage(&self, stage: &str, invocation: usize) -> Option<String> {
        match self.stage_kills.get(stage) {
            Some(&nth) if nth == invocation => Some(format!(
                "injected fault: stage '{stage}' killed on invocation {invocation}"
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_key() {
        let a = DeterministicInjector::new(42).with_record_rate(0.3);
        let b = DeterministicInjector::new(42).with_record_rate(0.3);
        for i in 0..200 {
            let key = format!("EPC-{i:05}");
            assert_eq!(a.corrupt_record(&key), b.corrupt_record(&key));
        }
    }

    #[test]
    fn different_seeds_hit_different_records() {
        let a = DeterministicInjector::new(1).with_record_rate(0.5);
        let b = DeterministicInjector::new(2).with_record_rate(0.5);
        let hits = |inj: &DeterministicInjector| -> Vec<String> {
            (0..200)
                .map(|i| format!("EPC-{i:05}"))
                .filter(|k| inj.corrupt_record(k).is_some())
                .collect()
        };
        assert_ne!(hits(&a), hits(&b));
    }

    #[test]
    fn rate_is_roughly_respected() {
        let inj = DeterministicInjector::new(7).with_record_rate(0.2);
        let hits = (0..2000)
            .map(|i| format!("EPC-{i:05}"))
            .filter(|k| inj.corrupt_record(k).is_some())
            .count();
        // 20% of 2000 = 400; allow a generous hash-variance band.
        assert!((300..=500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_rate_never_fires() {
        let inj = DeterministicInjector::new(9);
        for i in 0..500 {
            assert_eq!(inj.corrupt_record(&format!("EPC-{i}")), None);
            assert_eq!(inj.fail_geocode(i, 0), None);
        }
    }

    #[test]
    fn geocode_failures_can_recover_across_attempts() {
        let inj = DeterministicInjector::new(11).with_geocode_rate(0.5);
        // Find a key that fails on attempt 0 but succeeds on some later
        // attempt — proof that retries are meaningful.
        let recovered = (0..200u64).any(|key| {
            inj.fail_geocode(key, 0).is_some()
                && (1..4).any(|att| inj.fail_geocode(key, att).is_none())
        });
        assert!(recovered);
    }

    #[test]
    fn stage_kill_fires_only_on_the_configured_invocation() {
        let inj = DeterministicInjector::new(0).kill_stage("analytics", 2);
        assert_eq!(inj.fail_stage("analytics", 1), None);
        assert!(inj.fail_stage("analytics", 2).is_some());
        assert_eq!(inj.fail_stage("analytics", 3), None);
        assert_eq!(inj.fail_stage("preprocess", 2), None);
    }

    #[test]
    fn no_faults_is_inert() {
        let inj = NoFaults;
        assert_eq!(inj.corrupt_record("anything"), None);
        assert_eq!(inj.fail_geocode(123, 0), None);
        assert_eq!(inj.fail_stage("preprocess", 1), None);
    }
}
