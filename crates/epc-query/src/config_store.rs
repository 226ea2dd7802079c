//! The expert-configuration store of §2.1.2.
//!
//! "By collecting and storing expert user (e.g., energy scientists) INDICE
//! configurations, the non-expert users can receive interesting and
//! effective suggestions to properly deal with noisy data … their choices
//! are automatically stored as default configurations for non-expert
//! users."
//!
//! The store is keyed by attribute name and generic over the configuration
//! payload (the `indice` crate instantiates it with its outlier-method
//! enum). It is thread-safe: dashboards record choices from interactive
//! sessions while analytics pipelines read suggestions concurrently. It
//! is also deterministic: each attribute keeps its configurations in the
//! order they were first recorded, so a tie in the vote goes to the first
//! one — the same in every store fed the same history.

use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// attribute name → (config, times chosen by an expert), configs in the
/// order they were first recorded.
type Choices<C> = BTreeMap<String, Vec<(C, usize)>>;

/// A concurrent, frequency-ranked store of expert configurations.
#[derive(Debug, Default)]
pub struct ExpertConfigStore<C> {
    by_attribute: RwLock<Choices<C>>,
}

impl<C: Clone + Eq> ExpertConfigStore<C> {
    /// An empty store.
    pub fn new() -> Self {
        ExpertConfigStore {
            by_attribute: RwLock::new(BTreeMap::new()),
        }
    }

    // A writer that panicked mid-update can at worst have left one count
    // unincremented, so a poisoned lock is still safe to use.
    fn read(&self) -> RwLockReadGuard<'_, Choices<C>> {
        self.by_attribute
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Choices<C>> {
        self.by_attribute
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Records that an expert chose `config` for `attribute`.
    pub fn record(&self, attribute: &str, config: C) {
        let mut guard = self.write();
        let choices = guard.entry(attribute.to_owned()).or_default();
        match choices.iter_mut().find(|(c, _)| *c == config) {
            Some((_, n)) => *n += 1,
            None => choices.push((config, 1)),
        }
    }

    /// The configuration most frequently chosen by experts for
    /// `attribute`, if any — what a non-expert is offered as default. A
    /// tie goes to the configuration recorded first.
    pub fn suggest(&self, attribute: &str) -> Option<C> {
        // `max_by_key` returns the last of several maxima, so scanning in
        // reverse record order hands a tie to the first recorded.
        self.read()
            .get(attribute)?
            .iter()
            .rev()
            .max_by_key(|(_, n)| *n)
            .map(|(c, _)| c.clone())
    }

    /// Number of recorded choices for `attribute`.
    pub fn n_records(&self, attribute: &str) -> usize {
        self.read()
            .get(attribute)
            .map(|choices| choices.iter().map(|(_, n)| n).sum())
            .unwrap_or(0)
    }

    /// Attributes with at least one recorded choice, sorted.
    pub fn attributes(&self) -> Vec<String> {
        self.read().keys().cloned().collect()
    }

    /// Clears all recorded choices.
    pub fn clear(&self) {
        self.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Method {
        Boxplot,
        Gesd,
        Mad,
    }

    #[test]
    fn empty_store_suggests_nothing() {
        let store: ExpertConfigStore<Method> = ExpertConfigStore::new();
        assert_eq!(store.suggest("u_windows"), None);
        assert_eq!(store.n_records("u_windows"), 0);
        assert!(store.attributes().is_empty());
    }

    #[test]
    fn majority_choice_wins() {
        let store = ExpertConfigStore::new();
        store.record("u_windows", Method::Gesd);
        store.record("u_windows", Method::Mad);
        store.record("u_windows", Method::Gesd);
        assert_eq!(store.suggest("u_windows"), Some(Method::Gesd));
        assert_eq!(store.n_records("u_windows"), 3);
    }

    #[test]
    fn suggestions_are_per_attribute() {
        let store = ExpertConfigStore::new();
        store.record("u_windows", Method::Gesd);
        store.record("aspect_ratio", Method::Boxplot);
        assert_eq!(store.suggest("u_windows"), Some(Method::Gesd));
        assert_eq!(store.suggest("aspect_ratio"), Some(Method::Boxplot));
        assert_eq!(store.suggest("eta_h"), None);
        assert_eq!(store.attributes(), vec!["aspect_ratio", "u_windows"]);
    }

    #[test]
    fn clear_resets() {
        let store = ExpertConfigStore::new();
        store.record("x", Method::Mad);
        store.clear();
        assert_eq!(store.suggest("x"), None);
    }

    #[test]
    fn concurrent_recording_is_safe_and_lossless() {
        let store = ExpertConfigStore::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let store = &store;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let m = if t % 2 == 0 {
                            Method::Gesd
                        } else {
                            Method::Mad
                        };
                        store.record("eph", m);
                    }
                });
            }
        });
        assert_eq!(store.n_records("eph"), 800);
        // 4 threads × 100 each → a tie between Gesd and Mad, which goes to
        // whichever thread recorded first; the suggestion must exist.
        assert!(store.suggest("eph").is_some());
    }

    #[test]
    fn a_tie_goes_to_the_first_recorded_choice_in_every_store() {
        // Each fresh store would draw its own hash seed if the choices
        // lived in a `HashMap`; the winner must not depend on it.
        for _ in 0..64 {
            let store = ExpertConfigStore::new();
            store.record("u_windows", Method::Mad);
            store.record("u_windows", Method::Gesd);
            assert_eq!(store.suggest("u_windows"), Some(Method::Mad));
            store.record("u_windows", Method::Gesd);
            store.record("u_windows", Method::Mad);
            assert_eq!(store.suggest("u_windows"), Some(Method::Mad));
        }
    }

    #[test]
    fn a_poisoned_lock_still_records_and_suggests() {
        let store = ExpertConfigStore::new();
        store.record("x", Method::Boxplot);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.by_attribute.write().unwrap();
            panic!("a writer dies holding the lock");
        }));
        assert!(store.by_attribute.is_poisoned());
        store.record("x", Method::Boxplot);
        assert_eq!(store.suggest("x"), Some(Method::Boxplot));
        assert_eq!(store.n_records("x"), 2);
    }

    #[test]
    fn updated_majority_flips_suggestion() {
        let store = ExpertConfigStore::new();
        store.record("x", Method::Boxplot);
        assert_eq!(store.suggest("x"), Some(Method::Boxplot));
        store.record("x", Method::Mad);
        store.record("x", Method::Mad);
        assert_eq!(store.suggest("x"), Some(Method::Mad));
    }
}
