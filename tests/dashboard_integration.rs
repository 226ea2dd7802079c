//! Integration of the dashboard stage: well-formed artifacts, zoom-level
//! behaviour of the cluster-marker maps (Figure 2), and panel completeness
//! (Figure 4).
// Test/demo code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::{wellknown as wk, Granularity};
use epc_query::stakeholder::{default_report_spec, ReportSpec, Stakeholder};
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig};
use indice::analytics::{analyze_observed, AnalyticsOutput};
use indice::config::IndiceConfig;
use indice::dashboard::{build_dashboard_with_spec, figure2_maps};

fn setup() -> (
    epc_model::Dataset,
    epc_geo::region::RegionHierarchy,
    AnalyticsOutput,
) {
    let c = EpcGenerator::new(SynthConfig {
        n_records: 1_500,
        city: CityConfig {
            n_districts: 6,
            neighbourhoods_per_district: 2,
            streets_per_neighbourhood: 3,
            houses_per_street: 8,
            ..CityConfig::default()
        },
        ..SynthConfig::default()
    })
    .generate();
    let analytics = analyze_observed(
        &c.dataset,
        &IndiceConfig::default(),
        &epc_runtime::RuntimeConfig::sequential(),
        None,
    )
    .unwrap();
    (c.dataset, c.city.hierarchy, analytics)
}

/// A light well-formedness check: every opening tag of the kinds we emit
/// has a matching closer, and the envelope is svg.
fn assert_svg_well_formed(svg: &str) {
    assert!(svg.starts_with("<svg"), "missing svg root");
    assert!(svg.trim_end().ends_with("</svg>"));
    for tag in ["text", "title"] {
        let opens = svg.matches(&format!("<{tag}")).count();
        let closes = svg.matches(&format!("</{tag}>")).count();
        assert_eq!(opens, closes, "unbalanced <{tag}>");
    }
    assert!(!svg.contains("NaN"), "NaN leaked into the SVG");
}

#[test]
fn figure2_zoom_series_aggregates_monotonically() {
    let (ds, hier, _) = setup();
    let maps = figure2_maps(&ds, &hier, wk::U_OPAQUE).unwrap();
    for svg in maps.values() {
        assert_svg_well_formed(svg);
    }
    // City-level markers aggregate more than district-level: fewer circles.
    let city_circles = maps["fig2_clustermarkers_city.svg"]
        .matches("<circle")
        .count();
    let district_circles = maps["fig2_clustermarkers_district.svg"]
        .matches("<circle")
        .count();
    assert!(
        city_circles < district_circles,
        "city {city_circles} vs district {district_circles}"
    );
    // Scatter shows every geolocated unit.
    let scatter_circles = maps["fig2_scatter_unit.svg"].matches("<circle").count();
    assert!(scatter_circles > district_circles * 3);
}

#[test]
fn figure4_dashboard_artifacts_parse() {
    let (ds, hier, analytics) = setup();
    let spec = default_report_spec(Stakeholder::PublicAdministration);
    let out = build_dashboard_with_spec(&ds, &hier, &analytics, &spec, 10).unwrap();
    for (name, content) in &out.artifacts {
        if name.ends_with(".svg") {
            assert_svg_well_formed(content);
        } else if name.ends_with(".geojson") {
            let v: serde_json::Value = serde_json::from_str(content)
                .unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
            assert_eq!(v["type"], "FeatureCollection", "{name}");
            assert!(
                !v["features"].as_array().unwrap().is_empty(),
                "{name} empty"
            );
        }
    }
    let html = out.dashboard.render_html();
    assert!(html.contains("</html>"));
    assert_eq!(
        html.matches("<section").count(),
        out.dashboard.n_panels(),
        "one section per panel"
    );
}

#[test]
fn marker_counts_total_the_certificates_at_every_level() {
    let (ds, hier, analytics) = setup();
    for level in Granularity::ALL {
        let spec = ReportSpec {
            granularity: level,
            ..default_report_spec(Stakeholder::PublicAdministration)
        };
        let out = build_dashboard_with_spec(&ds, &hier, &analytics, &spec, 10).unwrap();
        let geojson = out
            .artifacts
            .get(&format!("clustermarkers_{level}.geojson"))
            .unwrap();
        let v: serde_json::Value = serde_json::from_str(geojson).unwrap();
        let total: u64 = v["features"]
            .as_array()
            .unwrap()
            .iter()
            .map(|f| f["properties"]["count"].as_u64().unwrap())
            .sum();
        assert_eq!(total as usize, ds.n_rows(), "level {level}");
    }
}

#[test]
fn choropleth_covers_every_region_with_data() {
    let (ds, hier, analytics) = setup();
    let spec = default_report_spec(Stakeholder::Citizen); // neighbourhood level
    let out = build_dashboard_with_spec(&ds, &hier, &analytics, &spec, 10).unwrap();
    let geojson = out
        .artifacts
        .get("choropleth_neighbourhood.geojson")
        .unwrap();
    let v: serde_json::Value = serde_json::from_str(geojson).unwrap();
    let features = v["features"].as_array().unwrap();
    assert_eq!(features.len(), hier.neighbourhoods.len());
    // Every neighbourhood hosts certificates in this city, so every value
    // is non-null.
    for f in features {
        assert!(
            !f["properties"]["value"].is_null(),
            "{} has no value",
            f["properties"]["name"]
        );
    }
}

#[test]
fn rules_text_artifact_matches_rules() {
    let (ds, hier, analytics) = setup();
    let spec = default_report_spec(Stakeholder::PublicAdministration);
    let out = build_dashboard_with_spec(&ds, &hier, &analytics, &spec, 5).unwrap();
    let text = out.artifacts.get("rules.txt").unwrap();
    for r in analytics.rules.iter().take(3) {
        let first_item = &r.consequent[0];
        assert!(
            text.contains(first_item.as_str()),
            "rule item {first_item} missing from rules.txt"
        );
    }
}

#[test]
fn correlation_svg_has_one_cell_per_pair() {
    let (ds, hier, analytics) = setup();
    let spec = default_report_spec(Stakeholder::EnergyScientist);
    let out = build_dashboard_with_spec(&ds, &hier, &analytics, &spec, 10).unwrap();
    let svg = out.artifacts.get("correlation_matrix.svg").unwrap();
    let n = analytics.correlation.len();
    // n² cells + 1 background.
    assert_eq!(svg.matches("<rect").count(), n * n + 1);
}
