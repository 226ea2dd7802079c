//! Association-rule generation with the four quality indices of §2.2.2:
//! support, confidence, lift, and conviction.
//!
//! "To select only a subset of interesting rules, constraints on various
//! goodness measures are used … Default thresholds are set by INDICE
//! however the end-user could change the default values."

use crate::apriori::{Apriori, AprioriTrace, FrequentItemset, ItemDictionary, TransactionSet};
use std::collections::BTreeMap;

/// An association rule `A → B` with its quality indices.
#[derive(Debug, Clone, PartialEq)]
pub struct AssociationRule {
    /// Antecedent item names, sorted.
    pub antecedent: Vec<String>,
    /// Consequent item names, sorted.
    pub consequent: Vec<String>,
    /// Relative support of `A ∪ B`.
    pub support: f64,
    /// Confidence `P(B | A)`.
    pub confidence: f64,
    /// Lift `confidence / P(B)` (1 = independence).
    pub lift: f64,
    /// Conviction `(1 − P(B)) / (1 − confidence)`;
    /// `f64::INFINITY` for exact rules (confidence 1).
    pub conviction: f64,
}

impl AssociationRule {
    /// Renders the rule in the `A → B` notation used by the dashboards.
    pub fn display(&self) -> String {
        format!(
            "{} => {}",
            self.antecedent.join(" & "),
            self.consequent.join(" & ")
        )
    }
}

/// Thresholds on the rule quality indices (INDICE's defaults; every value
/// can be overridden by the end user).
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfig {
    /// Minimum relative support of the rule (and of the itemsets mined).
    pub min_support: f64,
    /// Minimum confidence.
    pub min_confidence: f64,
    /// Minimum lift (1.0 keeps only positively correlated rules).
    pub min_lift: f64,
    /// Maximum antecedent + consequent size.
    pub max_len: usize,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            min_support: 0.05,
            min_confidence: 0.6,
            min_lift: 1.0,
            max_len: 4,
        }
    }
}

/// Mines association rules from a transaction set: Apriori for frequent
/// itemsets, then rule generation over every non-trivial split of each
/// itemset, filtered by the thresholds in `config` and sorted by lift
/// (descending), then confidence, then support. Also returns the Apriori
/// per-level [`AprioriTrace`] for observability.
///
/// `runtime` is forwarded to the Apriori support-counting pass; rule
/// generation itself is cheap and runs sequentially.
pub fn mine_rules_traced_with_runtime(
    data: &TransactionSet,
    config: &RuleConfig,
    runtime: &epc_runtime::RuntimeConfig,
) -> (Vec<AssociationRule>, AprioriTrace) {
    let (frequent, trace) = Apriori {
        min_support: config.min_support,
        max_len: config.max_len,
    }
    .mine(data, runtime);
    let rules = rules_from_frequent(&frequent, &data.dict, data.len(), config);
    (rules, trace)
}

/// Generates rules from pre-mined frequent itemsets.
pub fn rules_from_frequent(
    frequent: &[FrequentItemset],
    dict: &ItemDictionary,
    n_transactions: usize,
    config: &RuleConfig,
) -> Vec<AssociationRule> {
    if n_transactions == 0 {
        return Vec::new();
    }
    let counts: BTreeMap<&[u32], usize> = frequent
        .iter()
        .map(|f| (f.items.as_slice(), f.count))
        .collect();
    let n = n_transactions as f64;
    let mut rules = Vec::new();

    for f in frequent.iter().filter(|f| f.items.len() >= 2) {
        let whole = f.count as f64;
        // Every non-empty proper subset as antecedent.
        let k = f.items.len();
        for mask in 1..((1u32 << k) - 1) {
            let mut ante = Vec::new();
            let mut cons = Vec::new();
            for (j, &item) in f.items.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    ante.push(item);
                } else {
                    cons.push(item);
                }
            }
            let Some(&ante_count) = counts.get(ante.as_slice()) else {
                continue; // subset of a frequent set is frequent; defensive
            };
            let Some(&cons_count) = counts.get(cons.as_slice()) else {
                continue;
            };
            let support = whole / n;
            let confidence = whole / ante_count as f64;
            let p_cons = cons_count as f64 / n;
            let lift = confidence / p_cons;
            let conviction = if confidence >= 1.0 {
                f64::INFINITY
            } else {
                (1.0 - p_cons) / (1.0 - confidence)
            };
            if confidence >= config.min_confidence && lift >= config.min_lift {
                rules.push(AssociationRule {
                    antecedent: dict.resolve(&ante),
                    consequent: dict.resolve(&cons),
                    support,
                    confidence,
                    lift,
                    conviction,
                });
            }
        }
    }
    rules.sort_by(|a, b| {
        b.lift
            .partial_cmp(&a.lift)
            .unwrap()
            .then(b.confidence.partial_cmp(&a.confidence).unwrap())
            .then(b.support.partial_cmp(&a.support).unwrap())
            .then(a.antecedent.cmp(&b.antecedent))
    });
    rules
}

/// Keeps the `k` best rules (the "top-k rules that satisfy all constraints"
/// displayed in the tabular visualization of §2.3).
pub fn top_k(rules: &[AssociationRule], k: usize) -> Vec<AssociationRule> {
    rules.iter().take(k).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_runtime::RuntimeConfig;

    fn market() -> TransactionSet {
        let mut t = TransactionSet::new();
        t.push(&["bread", "milk"]);
        t.push(&["bread", "diapers", "beer", "eggs"]);
        t.push(&["milk", "diapers", "beer", "cola"]);
        t.push(&["bread", "milk", "diapers", "beer"]);
        t.push(&["bread", "milk", "diapers", "cola"]);
        t
    }

    fn get<'a>(
        rules: &'a [AssociationRule],
        ante: &[&str],
        cons: &[&str],
    ) -> Option<&'a AssociationRule> {
        rules.iter().find(|r| {
            r.antecedent.iter().map(String::as_str).collect::<Vec<_>>() == ante
                && r.consequent.iter().map(String::as_str).collect::<Vec<_>>() == cons
        })
    }

    #[test]
    fn beer_to_diapers_textbook_rule() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.4,
                min_confidence: 0.8,
                min_lift: 0.0,
                max_len: 2,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        let r = get(&rules, &["beer"], &["diapers"]).expect("rule must exist");
        // supp({beer, diapers}) = 3/5; conf = 3/3 = 1; lift = 1 / (4/5) = 1.25
        assert!((r.support - 0.6).abs() < 1e-12);
        assert!((r.confidence - 1.0).abs() < 1e-12);
        assert!((r.lift - 1.25).abs() < 1e-12);
        assert_eq!(
            r.conviction,
            f64::INFINITY,
            "exact rule has infinite conviction"
        );
    }

    #[test]
    fn diapers_to_beer_has_lower_confidence() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.4,
                min_confidence: 0.5,
                min_lift: 0.0,
                max_len: 2,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        let r = get(&rules, &["diapers"], &["beer"]).unwrap();
        // conf = 3/4 = 0.75; lift = 0.75 / 0.6 = 1.25;
        // conviction = (1 − 0.6)/(1 − 0.75) = 1.6
        assert!((r.confidence - 0.75).abs() < 1e-12);
        assert!((r.lift - 1.25).abs() < 1e-12);
        assert!((r.conviction - 1.6).abs() < 1e-12);
    }

    #[test]
    fn confidence_threshold_filters() {
        let strict = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.4,
                min_confidence: 0.9,
                min_lift: 0.0,
                max_len: 2,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        assert!(get(&strict, &["diapers"], &["beer"]).is_none());
        assert!(get(&strict, &["beer"], &["diapers"]).is_some());
    }

    #[test]
    fn lift_threshold_removes_negative_correlations() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.2,
                min_confidence: 0.0,
                min_lift: 1.0,
                max_len: 2,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        for r in &rules {
            assert!(r.lift >= 1.0, "rule {} has lift {}", r.display(), r.lift);
        }
    }

    #[test]
    fn rules_are_sorted_by_lift_then_confidence() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig::default(),
            &RuntimeConfig::sequential(),
        )
        .0;
        for w in rules.windows(2) {
            assert!(
                w[0].lift > w[1].lift
                    || (w[0].lift == w[1].lift && w[0].confidence >= w[1].confidence)
            );
        }
    }

    #[test]
    fn multi_item_antecedents_appear() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.3,
                min_confidence: 0.5,
                min_lift: 0.0,
                max_len: 3,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        assert!(
            rules.iter().any(|r| r.antecedent.len() == 2),
            "3-itemsets must generate 2-item antecedents"
        );
    }

    #[test]
    fn top_k_truncates() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.2,
                min_confidence: 0.1,
                min_lift: 0.0,
                max_len: 3,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        assert!(rules.len() > 3);
        let t = top_k(&rules, 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], rules[0]);
    }

    #[test]
    fn display_renders_arrow_notation() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.4,
                min_confidence: 0.8,
                min_lift: 0.0,
                max_len: 2,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        let r = get(&rules, &["beer"], &["diapers"]).unwrap();
        assert_eq!(r.display(), "beer => diapers");
    }

    #[test]
    fn empty_data_yields_no_rules() {
        let rules = mine_rules_traced_with_runtime(
            &TransactionSet::new(),
            &RuleConfig::default(),
            &RuntimeConfig::sequential(),
        )
        .0;
        assert!(rules.is_empty());
    }

    #[test]
    fn support_of_rule_equals_support_of_union() {
        let rules = mine_rules_traced_with_runtime(
            &market(),
            &RuleConfig {
                min_support: 0.3,
                min_confidence: 0.0,
                min_lift: 0.0,
                max_len: 3,
            },
            &RuntimeConfig::sequential(),
        )
        .0;
        for r in &rules {
            // support ≤ confidence always; equality iff antecedent support
            // equals union support.
            assert!(r.support <= r.confidence + 1e-12);
            assert!(r.support > 0.0 && r.support <= 1.0);
            assert!(r.confidence > 0.0 && r.confidence <= 1.0);
        }
    }
}
