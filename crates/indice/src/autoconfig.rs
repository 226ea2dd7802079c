//! Automatic configuration suggestion — the future-work item of §4: "the
//! analysis process should be empowered by an automatic tool suggesting
//! appropriate analysis configurations for the considered datasets."
//!
//! The advisor inspects the dataset's statistical shape and proposes an
//! [`IndiceConfig`]:
//!
//! * outlier method per attribute — heavily skewed or heavy-tailed
//!   attributes get the robust MAD rule; near-symmetric light-tailed ones
//!   the Tukey boxplot; moderately skewed ones gESD;
//! * the K sweep range — scaled with √(n/2) capped to a practical band;
//! * the Apriori support threshold — lower for larger collections (rare
//!   patterns become statistically meaningful with more transactions);
//! * the geocoder quota — proportional to the collection size.

use crate::config::{AnalyticsConfig, IndiceConfig, KSelection, OutlierConfig, RuleStageConfig};
use crate::outliers::UnivariateMethod;
use epc_model::Dataset;
use epc_stats::descriptive::{excess_kurtosis, skewness};

/// Why the advisor picked a method for an attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeAdvice {
    /// Attribute name.
    pub attribute: String,
    /// Sample skewness (NaN when undefined).
    pub skewness: f64,
    /// Excess kurtosis (NaN when undefined).
    pub kurtosis: f64,
    /// The method chosen.
    pub method: UnivariateMethod,
    /// One-line human-readable rationale (shown in the dashboard's
    /// settings panel).
    pub rationale: String,
}

/// The advisor's full proposal.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigAdvice {
    /// The proposed configuration (start from it, override freely).
    pub config: IndiceConfig,
    /// Per-attribute outlier-method advice with rationales.
    pub attribute_advice: Vec<AttributeAdvice>,
}

/// Skewness above which a distribution counts as heavily skewed.
const HEAVY_SKEW: f64 = 1.5;
/// Skewness above which a distribution counts as moderately skewed.
const MODERATE_SKEW: f64 = 0.5;
/// Excess kurtosis above which tails count as heavy.
const HEAVY_TAILS: f64 = 4.0;

/// Proposes a full configuration for `dataset`, starting from `base`
/// (typically [`IndiceConfig::default`]) and adjusting the data-dependent
/// knobs.
pub fn suggest_config(dataset: &Dataset, base: &IndiceConfig) -> ConfigAdvice {
    let n = dataset.n_rows();
    let mut attribute_advice = Vec::new();
    let mut univariate = Vec::new();

    for (attr, _) in &base.outliers.univariate {
        let advice = advise_attribute(dataset, attr, n);
        univariate.push((attr.clone(), advice.method.clone()));
        attribute_advice.push(advice);
    }

    // K sweep: √(n/2) heuristic upper bound, clamped to a practical band.
    let k_max = ((n as f64 / 2.0).sqrt() as usize).clamp(4, 12);

    // Support threshold: rarer patterns are trustworthy on bigger data.
    let min_support = match n {
        0..=1_000 => 0.10,
        1_001..=10_000 => 0.05,
        _ => 0.02,
    };

    let config = IndiceConfig {
        outliers: OutlierConfig {
            univariate,
            ..base.outliers.clone()
        },
        analytics: AnalyticsConfig {
            k: KSelection::Elbow { k_min: 2, k_max },
            ..base.analytics.clone()
        },
        rule_stage: RuleStageConfig {
            rules: epc_mining::rules::RuleConfig {
                min_support,
                ..base.rule_stage.rules.clone()
            },
            ..base.rule_stage.clone()
        },
        geocoder_quota: (n / 10).clamp(100, 10_000),
        ..base.clone()
    };
    ConfigAdvice {
        config,
        attribute_advice,
    }
}

fn advise_attribute(dataset: &Dataset, attr: &str, n: usize) -> AttributeAdvice {
    let values = dataset
        .schema()
        .attr_id(attr)
        .map(|id| dataset.numeric_values(id))
        .unwrap_or_default();
    let skew = skewness(&values).unwrap_or(f64::NAN);
    let kurt = excess_kurtosis(&values).unwrap_or(f64::NAN);
    let (method, rationale) = if skew.is_nan() {
        (
            UnivariateMethod::default_mad(),
            "insufficient data: MAD as the safe default".to_owned(),
        )
    } else if skew.abs() >= HEAVY_SKEW || kurt >= HEAVY_TAILS {
        (
            UnivariateMethod::default_mad(),
            format!("heavily skewed/heavy-tailed (skew {skew:.2}, kurt {kurt:.2}): robust MAD"),
        )
    } else if skew.abs() >= MODERATE_SKEW {
        (
            UnivariateMethod::default_gesd_for(n),
            format!("moderately skewed (skew {skew:.2}): sequential gESD"),
        )
    } else {
        (
            UnivariateMethod::default_boxplot(),
            format!("near-symmetric (skew {skew:.2}): Tukey boxplot"),
        )
    };
    AttributeAdvice {
        attribute: attr.to_owned(),
        skewness: skew,
        kurtosis: kurt,
        method,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_synth::city::CityConfig;
    use epc_synth::epcgen::{EpcGenerator, SynthConfig};

    fn dataset(n: usize) -> Dataset {
        EpcGenerator::new(SynthConfig {
            n_records: n,
            city: CityConfig {
                n_districts: 4,
                neighbourhoods_per_district: 2,
                streets_per_neighbourhood: 3,
                houses_per_street: 8,
                ..CityConfig::default()
            },
            ..SynthConfig::default()
        })
        .generate()
        .dataset
    }

    #[test]
    fn advice_covers_every_configured_attribute() {
        let ds = dataset(800);
        let advice = suggest_config(&ds, &IndiceConfig::default());
        assert_eq!(
            advice.attribute_advice.len(),
            IndiceConfig::default().outliers.univariate.len()
        );
        for a in &advice.attribute_advice {
            assert!(!a.rationale.is_empty());
        }
        // The proposed config references the same attributes.
        let attrs: Vec<&String> = advice
            .config
            .outliers
            .univariate
            .iter()
            .map(|(a, _)| a)
            .collect();
        for a in &advice.attribute_advice {
            assert!(attrs.contains(&&a.attribute));
        }
    }

    #[test]
    fn support_threshold_shrinks_with_scale() {
        let small = suggest_config(&dataset(500), &IndiceConfig::default());
        let large = suggest_config(&dataset(12_000), &IndiceConfig::default());
        assert!(
            small.config.rule_stage.rules.min_support > large.config.rule_stage.rules.min_support
        );
    }

    #[test]
    fn k_range_scales_with_n_but_stays_bounded() {
        let small = suggest_config(&dataset(200), &IndiceConfig::default());
        let large = suggest_config(&dataset(12_000), &IndiceConfig::default());
        let k_of = |c: &IndiceConfig| match c.analytics.k {
            KSelection::Elbow { k_max, .. } => k_max,
            _ => panic!("advisor always proposes elbow"),
        };
        assert!(k_of(&small.config) <= k_of(&large.config));
        assert!(k_of(&large.config) <= 12);
        assert!(k_of(&small.config) >= 4);
    }

    #[test]
    fn suggested_config_actually_runs() {
        let ds = dataset(700);
        let advice = suggest_config(&ds, &IndiceConfig::default());
        let out = crate::analytics::analyze_observed(
            &ds,
            &advice.config,
            &epc_runtime::RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        assert!(out.chosen_k >= 2);
    }

    #[test]
    fn skewed_attributes_get_robust_methods() {
        // heat_surface is log-normal in the generator → clearly skewed →
        // never the plain boxplot.
        let ds = dataset(2_000);
        let mut cfg = IndiceConfig::default();
        cfg.outliers
            .univariate
            .push(("heat_surface".to_owned(), UnivariateMethod::default_mad()));
        let advice = suggest_config(&ds, &cfg);
        let hs = advice
            .attribute_advice
            .iter()
            .find(|a| a.attribute == "heat_surface")
            .unwrap();
        assert!(hs.skewness > MODERATE_SKEW, "skew {}", hs.skewness);
        assert_ne!(hs.method.name(), "boxplot");
    }

    #[test]
    fn unknown_attribute_defaults_safely() {
        let ds = dataset(300);
        let mut cfg = IndiceConfig::default();
        cfg.outliers
            .univariate
            .push(("ghost".to_owned(), UnivariateMethod::default_mad()));
        let advice = suggest_config(&ds, &cfg);
        let ghost = advice
            .attribute_advice
            .iter()
            .find(|a| a.attribute == "ghost")
            .unwrap();
        assert!(ghost.skewness.is_nan());
        assert_eq!(ghost.method, UnivariateMethod::default_mad());
    }
}
