//! §2.2.2 — the association-rule experiment: rule counts and quality as
//! the support threshold sweeps (the "different granularity level"
//! inspection the paper mentions), plus Apriori runtime scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use epc_mining::apriori::TransactionSet;
use epc_mining::rules::{mine_rules_traced_with_runtime, RuleConfig};
use epc_model::wellknown as wk;
use epc_runtime::RuntimeConfig;
use epc_synth::{EpcGenerator, SynthConfig};
use indice::config::footnote4_discretizers;

/// Builds the footnote-4 transactional encoding of `n` certificates.
fn transactions(n: usize) -> TransactionSet {
    let c = EpcGenerator::new(SynthConfig {
        n_records: n,
        ..SynthConfig::default()
    })
    .generate();
    let discretizers = footnote4_discretizers();
    let s = c.dataset.schema();
    let eph_id = s.require(wk::EPH).unwrap();
    let eph_values = c.dataset.numeric_values(eph_id);
    let q33 = epc_stats::quantile::quantile(&eph_values, 1.0 / 3.0).unwrap();
    let q67 = epc_stats::quantile::quantile(&eph_values, 2.0 / 3.0).unwrap();
    let eph_disc =
        epc_mining::discretize::Discretizer::with_auto_labels(wk::EPH, vec![q33, q67]).unwrap();

    let mut tset = TransactionSet::new();
    for row in 0..c.dataset.n_rows() {
        let mut items = Vec::new();
        for d in &discretizers {
            let id = s.require(&d.attribute).unwrap();
            if let Some(x) = c.dataset.num(row, id) {
                items.push(d.item(x));
            }
        }
        if let Some(y) = c.dataset.num(row, eph_id) {
            items.push(eph_disc.item(y));
        }
        tset.push_owned(&items);
    }
    tset
}

fn bench_rules(c: &mut Criterion) {
    let tset = transactions(25_000);

    eprintln!("\n== Rules vs minimum support (25 000 EPCs, footnote-4 items) ==");
    eprintln!(
        "{:>10} {:>8} {:>10} {:>10}",
        "min_supp", "rules", "max lift", "best rule"
    );
    for min_support in [0.02, 0.05, 0.10, 0.20, 0.30] {
        let cfg = RuleConfig {
            min_support,
            min_confidence: 0.6,
            min_lift: 1.1,
            max_len: 3,
        };
        let rules = mine_rules_traced_with_runtime(&tset, &cfg, &RuntimeConfig::sequential()).0;
        let best = rules.first();
        eprintln!(
            "{min_support:>10.2} {:>8} {:>10.2}  {}",
            rules.len(),
            best.map(|r| r.lift).unwrap_or(f64::NAN),
            best.map(|r| r.display()).unwrap_or_default()
        );
    }

    let mut group = c.benchmark_group("rules");
    group.sample_size(10);
    for n in [5_000usize, 25_000] {
        let t = transactions(n);
        group.bench_with_input(BenchmarkId::new("mine_supp_0.05", n), &t, |b, t| {
            b.iter(|| {
                mine_rules_traced_with_runtime(
                    t,
                    &RuleConfig {
                        min_support: 0.05,
                        min_confidence: 0.6,
                        min_lift: 1.1,
                        max_len: 3,
                    },
                    &RuntimeConfig::sequential(),
                )
                .0
            })
        });
    }
    group.bench_function("mine_supp_0.02_25k", |b| {
        b.iter(|| {
            mine_rules_traced_with_runtime(
                &tset,
                &RuleConfig {
                    min_support: 0.02,
                    min_confidence: 0.6,
                    min_lift: 1.1,
                    max_len: 3,
                },
                &RuntimeConfig::sequential(),
            )
            .0
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rules);
criterion_main!(benches);
