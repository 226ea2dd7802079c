//! Integration of the analytics stage against the synthetic generator's
//! latent structure: clusters must track building archetypes, rules must
//! recover the thermal-quality → consumption signal, and the correlation
//! screening must reproduce the Figure-3 verdict.
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::wellknown as wk;
use epc_runtime::RuntimeConfig;
use epc_synth::archetype::ARCHETYPES;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use indice::analytics::analyze_observed;
use indice::config::{AnalyticsConfig, IndiceConfig, KSelection};

fn collection() -> SyntheticCollection {
    EpcGenerator::new(SynthConfig {
        n_records: 3_000,
        city: CityConfig {
            n_districts: 4,
            neighbourhoods_per_district: 2,
            streets_per_neighbourhood: 4,
            houses_per_street: 10,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate()
}

#[test]
fn clusters_align_with_archetype_structure() {
    let c = collection();
    let cfg = IndiceConfig {
        analytics: AnalyticsConfig {
            k: KSelection::Fixed(ARCHETYPES.len()),
            ..AnalyticsConfig::default()
        },
        ..IndiceConfig::default()
    };
    let out = analyze_observed(&c.dataset, &cfg, &RuntimeConfig::sequential(), None).unwrap();

    // Measure cluster→archetype purity: each cluster's dominant archetype
    // share, weighted by cluster size. Random assignment would give ~1/6;
    // the blocks are broad and overlapping, so demand a clear improvement.
    let mut weighted_purity = 0.0;
    let mut total = 0usize;
    for cluster in 0..out.chosen_k {
        let mut counts = vec![0usize; ARCHETYPES.len()];
        for (i, &row) in out.feature_rows.iter().enumerate() {
            if out.kmeans.assignments[i] == cluster {
                counts[c.truth.archetypes[row]] += 1;
            }
        }
        let size: usize = counts.iter().sum();
        if size == 0 {
            continue;
        }
        let dominant = *counts.iter().max().unwrap();
        weighted_purity += dominant as f64;
        total += size;
    }
    let purity = weighted_purity / total as f64;
    assert!(purity > 0.4, "cluster purity {purity:.2} (chance ≈ 0.17)");
}

#[test]
fn elbow_k_lands_in_a_sane_range() {
    let c = collection();
    let out = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    // The latent structure has 6 archetypes with overlap; an elbow between
    // 2 and 8 is credible, outside it something is broken.
    assert!(
        (2..=8).contains(&out.chosen_k),
        "elbow K = {} (curve {:?})",
        out.chosen_k,
        out.sse_curve
    );
    // SSE decreases along the curve.
    for w in out.sse_curve.windows(2) {
        assert!(
            w[1].1 <= w[0].1 * 1.05,
            "SSE should trend down: {:?}",
            out.sse_curve
        );
    }
}

#[test]
fn figure3_verdict_weak_pairwise_correlation() {
    let c = collection();
    let out = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    assert!(out.eligible);
    // And the matrix is a proper correlation matrix.
    let m = &out.correlation;
    for i in 0..m.len() {
        assert_eq!(m.get(i, i), 1.0);
        for j in 0..m.len() {
            let v = m.get(i, j);
            assert!(v.is_nan() || (-1.0..=1.0).contains(&v));
            assert_eq!(m.get(i, j).to_bits(), m.get(j, i).to_bits());
        }
    }
}

#[test]
fn rules_recover_the_injected_physics() {
    let c = collection();
    let out = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    // The generator's EPH law makes poor windows + poor efficiency imply
    // high consumption; the miner must surface that with lift > 1.
    let supporting = out
        .rules
        .iter()
        .filter(|r| {
            r.consequent.iter().any(|i| i == "eph=High")
                && r.antecedent.iter().any(|i| {
                    i == "u_windows=Very high" || i == "u_windows=High" || i == "eta_h=Low"
                })
        })
        .count();
    assert!(
        supporting > 0,
        "rules: {:?}",
        out.rules.iter().map(|r| r.display()).collect::<Vec<_>>()
    );
    for r in &out.rules {
        assert!(r.lift >= 1.1, "config demands lift ≥ 1.1, got {}", r.lift);
        assert!(r.support > 0.0 && r.support <= 1.0);
        assert!(r.confidence >= 0.6);
    }
}

#[test]
fn contradictory_rules_do_not_survive() {
    // "Good windows → high consumption" must not appear with high lift.
    let c = collection();
    let out = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    let contradiction = out.rules.iter().find(|r| {
        r.antecedent.iter().any(|i| i == "u_windows=Low")
            && r.antecedent.len() == 1
            && r.consequent.iter().any(|i| i == "eph=High")
    });
    assert!(
        contradiction.is_none(),
        "found {:?}",
        contradiction.map(|r| r.display())
    );
}

#[test]
fn cluster_mean_response_orders_with_centroid_quality() {
    let c = collection();
    let out = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    // Correlation between centroid Uw (index 2) and mean EPH across
    // clusters should be positive: worse windows → more consumption.
    let uw: Vec<f64> = out
        .cluster_summaries
        .iter()
        .map(|s| s.centroid[2])
        .collect();
    let eph: Vec<f64> = out
        .cluster_summaries
        .iter()
        .map(|s| s.mean_response.unwrap())
        .collect();
    let rho = epc_stats::correlation::pearson(&uw, &eph).unwrap();
    assert!(rho > 0.5, "cluster-level Uw↔EPH correlation {rho}");
}

#[test]
fn analytics_is_robust_to_missing_feature_values() {
    let mut c = collection();
    // Punch holes into a feature column.
    let id = c.dataset.schema().require(wk::U_WINDOWS).unwrap();
    for row in (0..c.dataset.n_rows()).step_by(5) {
        c.dataset
            .set_value(row, id, epc_model::Value::Missing)
            .unwrap();
    }
    let out = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    assert_eq!(
        out.feature_rows.len(),
        c.dataset.n_rows() - c.dataset.n_rows().div_ceil(5),
        "incomplete rows must be excluded from clustering"
    );
    assert!(out.chosen_k >= 2);
}
