//! The paper's case study (§3): the public-administration stakeholder
//! analysing E.1.1 permanent residences of a Turin-like city at the full
//! ~25 000-certificate scale.
//!
//! Regenerates the content of all three result figures:
//! * Figure 2 — choropleth + scatter maps (unit/neighbourhood zoom) and
//!   cluster-marker maps (district/city zoom);
//! * Figure 3 — the grayscale correlation plot matrix of the five
//!   thermo-physical features;
//! * Figure 4 — the district-level dashboard (cluster-marker map of the
//!   K-means result, EPH distributions overall and per cluster,
//!   association-rule table).
//!
//! ```sh
//! cargo run --release --example public_administration
//! ```
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::wellknown as wk;
use epc_query::Stakeholder;
use epc_synth::{EpcGenerator, NoiseConfig, SynthConfig};
use epc_viz::rulestable::RulesTable;
use indice::config::IndiceConfig;
use indice::dashboard::{drilldown_series_detailed_with_runtime, figure2_maps};
use indice::engine::Indice;
use std::fs;
use std::path::Path;

fn main() {
    let dir = Path::new("target/indice-artifacts/public_administration");
    fs::create_dir_all(dir).expect("create artifact dir");

    // The paper's collection: ~25 000 EPCs, 132 attributes, issued
    // 2016-2018 for a major north-west Italian city.
    println!("generating the 25 000-certificate collection…");
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: 25_000,
        ..SynthConfig::default()
    })
    .generate();
    epc_synth::noise::apply_noise(&mut collection, &NoiseConfig::default());

    let engine = Indice::from_collection(collection, IndiceConfig::default());
    println!("running the INDICE pipeline (PA stakeholder, E.1.1 only)…");
    let output = engine
        .run(Stakeholder::PublicAdministration)
        .expect("pipeline runs");

    // --- §2.1 report ---
    let pre = &output.preprocess;
    println!("\n== Pre-processing (Section 2.1) ==");
    println!(
        "addresses: {} total, {} resolved by reference map ({} exact), {} by geocoder, {} unresolved",
        pre.cleaning.total,
        pre.cleaning.by_reference,
        pre.cleaning.exact_matches,
        pre.cleaning.by_geocoder,
        pre.cleaning.unresolved
    );
    println!(
        "fields repaired: {} streets, {} ZIP codes, {} coordinate pairs; geocoder requests: {}",
        pre.cleaning.streets_fixed,
        pre.cleaning.zips_fixed,
        pre.cleaning.coords_fixed,
        pre.cleaning.geocoder_requests
    );
    for (attr, rows) in &pre.univariate_flagged {
        println!("univariate outliers on {attr}: {}", rows.len());
    }
    println!(
        "multivariate (DBSCAN {:?}): {} flagged; total removed {}",
        pre.dbscan_params,
        pre.multivariate_flagged.len(),
        pre.removed_rows.len()
    );

    // --- Figure 3: correlation matrix ---
    println!("\n== Correlation check (Figure 3) ==");
    let m = &output.analytics.correlation;
    print!("{:>14}", "");
    for name in &m.names {
        print!("{name:>14}");
    }
    println!();
    for i in 0..m.len() {
        print!("{:>14}", m.names[i]);
        for j in 0..m.len() {
            print!("{:>14.3}", m.get(i, j));
        }
        println!();
    }
    println!(
        "eligible for clustering (no |rho| >= 0.8): {}",
        output.analytics.eligible
    );

    // --- §2.2: clustering & rules ---
    println!("\n== Analytics (Section 2.2) ==");
    println!("SSE curve: {:?}", output.analytics.sse_curve);
    println!("chosen K (elbow): {}", output.analytics.chosen_k);
    println!(
        "{:<8} {:>7} {:>10}   centroid (S/V, Uo, Uw, Sr, ETAH)",
        "cluster", "size", "mean EPH"
    );
    for s in &output.analytics.cluster_summaries {
        let c: Vec<String> = s.centroid.iter().map(|v| format!("{v:.2}")).collect();
        println!(
            "{:<8} {:>7} {:>10.1}   [{}]",
            s.cluster,
            s.size,
            s.mean_response.unwrap_or(f64::NAN),
            c.join(", ")
        );
    }
    let table = RulesTable {
        title: "Association rules (EPH response, footnote-4 bins)".into(),
        top_k: 12,
    };
    println!("\n{}", table.render_text(&output.analytics.rules));

    // --- Figure 2: the four-map series on Uo / Uw ---
    let fig2 = figure2_maps(&pre.dataset, engine.hierarchy(), wk::U_WINDOWS)
        .expect("figure 2 maps render");
    for (name, svg) in &fig2 {
        fs::write(dir.join(name), svg).expect("write figure 2 map");
    }
    println!(
        "figure 2 maps written: {:?}",
        fig2.keys().collect::<Vec<_>>()
    );

    // --- Figure 4: the dashboard + artifacts ---
    fs::write(
        dir.join("fig4_dashboard.html"),
        output.dashboard.render_html(),
    )
    .expect("write dashboard");
    for (name, content) in &output.artifacts {
        fs::write(dir.join(name), content).expect("write artifact");
    }
    println!(
        "figure 4 dashboard + {} artifacts written to {}",
        output.artifacts.len(),
        dir.display()
    );

    // --- The zoom drill-down series: one cross-linked dashboard per
    //     granularity (the paper's interactive zoom navigation) ---
    let pages = drilldown_series_detailed_with_runtime(
        &pre.dataset,
        engine.hierarchy(),
        &output.analytics,
        Stakeholder::PublicAdministration,
        12,
        &engine.runtime(),
    )
    .expect("drill-down series renders");
    for page in &pages {
        fs::write(dir.join(&page.file), &page.html).expect("write drill-down page");
    }
    println!(
        "drill-down series written ({}); open dashboard_city.html and zoom in",
        pages.len()
    );
}
