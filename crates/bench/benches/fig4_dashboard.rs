//! Figure 4 — the district-level public-administration dashboard: the
//! K-means cluster-marker map, the EPH frequency distributions (overall and
//! per cluster), and the association-rule table.
//!
//! Prints the dashboard's content summary (clusters found, per-cluster EPH
//! means, top rules), writes the HTML page, and benchmarks stage-3
//! assembly.

use criterion::{criterion_group, criterion_main, Criterion};
use epc_query::stakeholder::default_report_spec;
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};
use indice::analytics::analyze_observed;
use indice::config::IndiceConfig;
use indice::dashboard::build_dashboard_with_spec;

fn bench_fig4(c: &mut Criterion) {
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: 25_000,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(&mut collection, &NoiseConfig::none());
    let config = IndiceConfig::default();
    let analytics = analyze_observed(
        &collection.dataset,
        &config,
        &RuntimeConfig::sequential(),
        None,
    )
    .expect("analytics runs");

    eprintln!("\n== Figure 4: dashboard content (PA, district level) ==");
    eprintln!(
        "K = {} (elbow over {:?})",
        analytics.chosen_k, analytics.sse_curve
    );
    eprintln!("{:<8} {:>7} {:>10}", "cluster", "size", "mean EPH");
    for s in &analytics.cluster_summaries {
        eprintln!(
            "{:<8} {:>7} {:>10.1}",
            s.cluster,
            s.size,
            s.mean_response.unwrap_or(f64::NAN)
        );
    }
    eprintln!("top rules:");
    for r in analytics.rules.iter().take(5) {
        eprintln!(
            "  {:<60} conf {:.2} lift {:.2}",
            r.display(),
            r.confidence,
            r.lift
        );
    }

    let spec = default_report_spec(Stakeholder::PublicAdministration);
    let out = build_dashboard_with_spec(
        &collection.dataset,
        &collection.city.hierarchy,
        &analytics,
        &spec,
        12,
    )
    .expect("dashboard builds");
    let dir = std::path::Path::new("target/indice-artifacts/bench");
    std::fs::create_dir_all(dir).ok();
    std::fs::write(dir.join("fig4_dashboard.html"), out.dashboard.render_html()).ok();
    eprintln!(
        "dashboard with {} panels written to {}/fig4_dashboard.html",
        out.dashboard.n_panels(),
        dir.display()
    );

    let mut group = c.benchmark_group("fig4_dashboard");
    group.sample_size(10);
    group.bench_function("build_panels_25k", |b| {
        b.iter(|| {
            build_dashboard_with_spec(
                &collection.dataset,
                &collection.city.hierarchy,
                &analytics,
                &spec,
                12,
            )
            .unwrap()
        })
    });
    group.bench_function("render_html", |b| b.iter(|| out.dashboard.render_html()));
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
