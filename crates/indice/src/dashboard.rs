//! Stage 3 — the informative dashboard (§2.3): builds the panels of
//! Figure 4 (and the map series of Figure 2) from the analytics output, and
//! emits self-contained HTML plus GeoJSON artifacts.

use crate::analytics::AnalyticsOutput;
use crate::error::IndiceError;
use epc_columnar::{ColumnStore, DatasetColumnarExt};
use epc_geo::point::GeoPoint;
use epc_geo::region::RegionHierarchy;
use epc_model::{wellknown as wk, Dataset, Granularity};
use epc_query::aggregate::{group_by, AggFn, GroupRow};
use epc_query::columnar::group_by_columnar;
use epc_query::stakeholder::{default_report_spec, ReportKind, ReportSpec, Stakeholder};
use epc_runtime::Engine;
use epc_stats::histogram::Histogram;
use epc_viz::choropleth::ChoroplethMap;
use epc_viz::clustermarker::ClusterMarkerMap;
use epc_viz::corrplot::CorrelationPlot;
use epc_viz::dashboard::{Dashboard, PanelContent};
use epc_viz::histplot::HistogramPlot;
use epc_viz::rulestable::RulesTable;
use epc_viz::scattermap::ScatterMap;
use serde_json::Map;
use std::collections::BTreeMap;

/// Everything stage 3 produces.
#[derive(Debug, Clone)]
pub struct DashboardOutput {
    /// The assembled dashboard (render with
    /// [`epc_viz::dashboard::Dashboard::render_html`]).
    pub dashboard: Dashboard,
    /// Standalone artifacts: file name → content (SVG maps of Figure 2,
    /// GeoJSON layers, the rule table as text).
    pub artifacts: BTreeMap<String, String>,
    /// Cluster-markers rendered on this dashboard's marker maps
    /// (observability: the per-zoom marker count).
    pub n_markers: usize,
}

/// Builds the dashboard for a stakeholder, following the automatically
/// proposed [`ReportSpec`] (overridable by passing a custom spec to
/// [`build_dashboard_with_spec`]). Under [`Engine::Columnar`] the per-area
/// aggregations run as dictionary-id group-bys over a [`ColumnStore`]. The
/// rendered dashboard and every artifact are byte-identical whichever
/// engine produced them.
pub fn build_dashboard_with_engine(
    dataset: &Dataset,
    hierarchy: &RegionHierarchy,
    analytics: &AnalyticsOutput,
    stakeholder: Stakeholder,
    top_k_rules: usize,
    engine: Engine,
) -> Result<DashboardOutput, IndiceError> {
    let spec = default_report_spec(stakeholder);
    build_dashboard_spec_core(
        dataset,
        hierarchy,
        Some(analytics),
        &spec,
        top_k_rules,
        &[],
        engine,
    )
}

/// Builds the dashboard from an explicit report spec.
pub fn build_dashboard_with_spec(
    dataset: &Dataset,
    hierarchy: &RegionHierarchy,
    analytics: &AnalyticsOutput,
    spec: &ReportSpec,
    top_k_rules: usize,
) -> Result<DashboardOutput, IndiceError> {
    build_dashboard_spec_core(
        dataset,
        hierarchy,
        Some(analytics),
        spec,
        top_k_rules,
        &[],
        Engine::Row,
    )
}

/// Mean of `value_attr` grouped by `group_attr`, through whichever engine
/// is selected. Row and columnar results are identical (gated by
/// `tests/columnar.rs`); the store, when given, must be built from
/// `dataset`.
fn mean_by_group(
    dataset: &Dataset,
    store: Option<&ColumnStore>,
    group_attr: &str,
    value_attr: &str,
) -> Result<Vec<GroupRow>, IndiceError> {
    let rows = match store {
        Some(store) => group_by_columnar(store, group_attr, value_attr, &[AggFn::Mean])?,
        None => group_by(dataset, group_attr, value_attr, &[AggFn::Mean])?,
    };
    Ok(rows)
}

/// The shared dashboard builder. With `analytics = Some(..)` this is the
/// full §2.3 dashboard; with `None` it is the *degraded* dashboard: the
/// map and distribution panels (which need only the cleaned dataset)
/// still render, and one "Analytics unavailable" panel lists
/// `degradation_reasons` in place of the analytics-dependent panels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_dashboard_spec_core(
    dataset: &Dataset,
    hierarchy: &RegionHierarchy,
    analytics: Option<&AnalyticsOutput>,
    spec: &ReportSpec,
    top_k_rules: usize,
    degradation_reasons: &[String],
    engine: Engine,
) -> Result<DashboardOutput, IndiceError> {
    // One store serves every group-by of this dashboard.
    let store = (engine == Engine::Columnar).then(|| dataset.to_columns());
    let mut dashboard = Dashboard::new(
        &format!("INDICE — {}", hierarchy.city),
        &format!("{} · {} level", spec.stakeholder.name(), spec.granularity),
    );
    let mut artifacts = BTreeMap::new();
    let mut n_markers = 0usize;
    let response_label = response_axis_label(dataset, &spec.response);
    let points = certificate_points(dataset, &spec.response)?;

    for kind in &spec.reports {
        match kind {
            ReportKind::ChoroplethMap => {
                let level = match spec.granularity {
                    Granularity::City | Granularity::District => Granularity::District,
                    _ => Granularity::Neighbourhood,
                };
                let group_attr = match level {
                    Granularity::District => wk::DISTRICT,
                    _ => wk::NEIGHBOURHOOD,
                };
                let rows = mean_by_group(dataset, store.as_ref(), group_attr, &spec.response)?;
                let means: BTreeMap<&str, f64> = rows
                    .iter()
                    .filter_map(|r| r.values[0].map(|v| (r.group.as_str(), v)))
                    .collect();
                let mut map = ChoroplethMap::new(
                    &format!("Average {} by {level}", spec.response),
                    &response_label,
                );
                for region in hierarchy.regions_at(level) {
                    map.add_area(region.clone(), means.get(region.name.as_str()).copied());
                }
                let svg = map.render();
                artifacts.insert(format!("choropleth_{level}.svg"), svg.clone());
                let regions: Vec<_> = hierarchy
                    .regions_at(level)
                    .iter()
                    .map(|r| (r.clone(), means.get(r.name.as_str()).copied()))
                    .collect();
                artifacts.insert(
                    format!("choropleth_{level}.geojson"),
                    serde_json::to_string_pretty(&epc_viz::geojson::regions_feature_collection(
                        &regions,
                    ))
                    .map_err(|e| IndiceError::Internal(format!("geojson serialization: {e}")))?,
                );
                dashboard.add_panel("Choropleth map", PanelContent::Svg(svg), true);
            }
            ReportKind::ScatterMap => {
                let mut map = ScatterMap::new(
                    &format!("{} per housing unit", spec.response),
                    &response_label,
                );
                for region in hierarchy.regions_at(Granularity::District) {
                    map.add_outline(region.clone());
                }
                for (p, v, label) in &points {
                    map.add_point(*p, *v, label);
                }
                let svg = map.render();
                artifacts.insert("scatter_units.svg".into(), svg.clone());
                let geo_points: Vec<(GeoPoint, Map<String, serde_json::Value>)> = points
                    .iter()
                    .map(|(p, v, label)| {
                        let mut props = Map::new();
                        props.insert("label".into(), serde_json::json!(label));
                        props.insert(spec.response.clone(), serde_json::json!(v));
                        (*p, props)
                    })
                    .collect();
                artifacts.insert(
                    "scatter_units.geojson".into(),
                    serde_json::to_string_pretty(&epc_viz::geojson::points_feature_collection(
                        &geo_points,
                    ))
                    .map_err(|e| IndiceError::Internal(format!("geojson serialization: {e}")))?,
                );
                dashboard.add_panel("Scatter map", PanelContent::Svg(svg), true);
            }
            ReportKind::ClusterMarkerMap => {
                let mut map = ClusterMarkerMap::new(
                    &format!("{} cluster-markers", spec.response),
                    &response_label,
                    spec.granularity,
                );
                for (p, v, _) in &points {
                    map.add_point(*p, *v);
                }
                let svg = map.render();
                artifacts.insert(
                    format!("clustermarkers_{}.svg", spec.granularity),
                    svg.clone(),
                );
                let markers = map.markers();
                n_markers += markers.len();
                artifacts.insert(
                    format!("clustermarkers_{}.geojson", spec.granularity),
                    serde_json::to_string_pretty(&epc_viz::geojson::markers_feature_collection(
                        &markers,
                    ))
                    .map_err(|e| IndiceError::Internal(format!("geojson serialization: {e}")))?,
                );
                dashboard.add_panel("Cluster-marker map", PanelContent::Svg(svg), true);
            }
            ReportKind::FrequencyDistribution => {
                let response_id = dataset.schema().require(&spec.response)?;
                let all = dataset.numeric_values(response_id);
                let mut plot = HistogramPlot::new(
                    &format!("{} frequency distribution", spec.response),
                    &response_label,
                );
                if let Some(h) = Histogram::auto(&all) {
                    plot.add_series("all certificates", h);
                }
                dashboard.add_panel(
                    "Frequency distribution",
                    PanelContent::Svg(plot.render()),
                    false,
                );

                // Per-cluster distribution (Figure 4's right-hand chart).
                if let Some(analytics) = analytics.filter(|a| a.chosen_k > 1) {
                    let mut per_cluster = HistogramPlot::new(
                        &format!("{} by cluster", spec.response),
                        &response_label,
                    );
                    per_cluster.relative = true;
                    for c in 0..analytics.chosen_k {
                        let values: Vec<f64> = analytics
                            .feature_rows
                            .iter()
                            .zip(&analytics.kmeans.assignments)
                            .filter(|&(_, &a)| a == c)
                            .filter_map(|(&row, _)| dataset.num(row, response_id))
                            .collect();
                        if let Some(h) = Histogram::equal_width(&values, 12) {
                            per_cluster.add_series(&format!("cluster {c}"), h);
                        }
                    }
                    dashboard.add_panel(
                        "Distribution by cluster",
                        PanelContent::Svg(per_cluster.render()),
                        false,
                    );
                }
            }
            ReportKind::AssociationRules => {
                if let Some(analytics) = analytics {
                    let table = RulesTable {
                        title: format!("Association rules ({})", spec.response),
                        top_k: top_k_rules,
                    };
                    let html = table.render_html(&analytics.rules);
                    let text = table.render_text(&analytics.rules);
                    artifacts.insert("rules.txt".into(), text);
                    dashboard.add_panel("Association rules", PanelContent::Html(html), false);
                }
            }
            ReportKind::CorrelationMatrix => {
                if let Some(analytics) = analytics {
                    let svg = CorrelationPlot::default().render(&analytics.correlation);
                    artifacts.insert("correlation_matrix.svg".into(), svg.clone());
                    dashboard.add_panel("Correlation matrix", PanelContent::Svg(svg), false);
                }
            }
            ReportKind::ClusterSummary => {
                if let Some(analytics) = analytics {
                    dashboard.add_panel(
                        "Cluster summary",
                        PanelContent::Text(cluster_summary_text(analytics)),
                        false,
                    );
                }
            }
            ReportKind::OutlierBoxplots => {
                let mut plot = epc_viz::boxplot_svg::BoxplotPlot::new(
                    "Boxplots of the expert-analysis attributes",
                );
                for attr in wk::EXPERT_ANALYSIS_ATTRIBUTES {
                    let Ok(id) = dataset.schema().require(attr) else {
                        continue;
                    };
                    let values = dataset.numeric_values(id);
                    if let Some(summary) = epc_stats::boxplot::boxplot_summary(&values, 1.5) {
                        let outliers: Vec<f64> =
                            summary.outliers.iter().map(|&i| values[i]).collect();
                        plot.add_row(attr, summary, outliers);
                    }
                }
                let svg = plot.render();
                artifacts.insert("outlier_boxplots.svg".into(), svg.clone());
                dashboard.add_panel("Outlier boxplots", PanelContent::Svg(svg), false);
            }
        }
    }
    if analytics.is_none() {
        let mut text = String::from(
            "The analytics stage did not complete; cluster, rule, and \
             correlation panels are unavailable in this run.\n",
        );
        for reason in degradation_reasons {
            text.push_str(&format!("  - {reason}\n"));
        }
        dashboard.add_panel("Analytics unavailable", PanelContent::Text(text), false);
    }
    Ok(DashboardOutput {
        dashboard,
        artifacts,
        n_markers,
    })
}

/// One rendered page of the drill-down series, with its marker count.
#[derive(Debug, Clone)]
pub struct ZoomPage {
    /// Zoom level the page renders.
    pub level: Granularity,
    /// Output file name (`dashboard_<granularity>.html`).
    pub file: String,
    /// The rendered page.
    pub html: String,
    /// Cluster-markers rendered on the page's marker maps.
    pub markers: usize,
}

/// Builds the *drill-down series*: one dashboard per spatial granularity,
/// cross-linked so "the user can switch from one view to another, simply by
/// changing the analysis zoom" (§2.3) — the static equivalent of the
/// paper's interactive zoom navigation. File names follow
/// `dashboard_<granularity>.html` and each page links to the other levels.
///
/// Each zoom level renders as one coarse parallel task under `runtime`
/// (the four dashboards share no state), and pages come back in the fixed
/// [`Granularity::ALL`] order with their marker counts for observability,
/// so the output never depends on the thread budget.
pub fn drilldown_series_detailed_with_runtime(
    dataset: &Dataset,
    hierarchy: &RegionHierarchy,
    analytics: &AnalyticsOutput,
    stakeholder: Stakeholder,
    top_k_rules: usize,
    runtime: &epc_runtime::RuntimeConfig,
) -> Result<Vec<ZoomPage>, IndiceError> {
    let rendered: Vec<Result<ZoomPage, IndiceError>> =
        epc_runtime::par_map_coarse(runtime, &Granularity::ALL, |&level| {
            let (page, markers) = render_zoom_page(
                dataset,
                hierarchy,
                analytics,
                stakeholder,
                top_k_rules,
                level,
                runtime.engine,
            )?;
            Ok(ZoomPage {
                level,
                file: format!("dashboard_{level}.html"),
                html: page,
                markers,
            })
        });
    rendered.into_iter().collect()
}

/// Renders the single zoom-level page of the drill-down series, nav bar
/// included. Returns the page plus its marker count.
#[allow(clippy::too_many_arguments)]
fn render_zoom_page(
    dataset: &Dataset,
    hierarchy: &RegionHierarchy,
    analytics: &AnalyticsOutput,
    stakeholder: Stakeholder,
    top_k_rules: usize,
    level: Granularity,
    engine: Engine,
) -> Result<(String, usize), IndiceError> {
    let spec = ReportSpec {
        granularity: level,
        ..default_report_spec(stakeholder)
    };
    let out = build_dashboard_spec_core(
        dataset,
        hierarchy,
        Some(analytics),
        &spec,
        top_k_rules,
        &[],
        engine,
    )?;
    let mut html = out.dashboard.render_html();
    // Inject the zoom-navigation bar right after the header.
    let nav: String = {
        let mut nav = String::from("<nav style=\"padding:8px 24px;background:#1b3349;\">zoom: ");
        for l in Granularity::ALL {
            if l == level {
                nav.push_str(&format!(
                    "<strong style=\"color:#fff;margin-right:12px;\">{l}</strong>"
                ));
            } else {
                nav.push_str(&format!(
                    "<a style=\"color:#9fc2e0;margin-right:12px;\" href=\"dashboard_{l}.html\">{l}</a>"
                ));
            }
        }
        nav.push_str("</nav>");
        nav
    };
    if let Some(pos) = html.find("</header>") {
        html.insert_str(pos + "</header>".len(), &nav);
    }
    Ok((html, out.n_markers))
}

/// Renders the Figure-2 map series: choropleth + scatter at housing-unit
/// and neighbourhood zoom, cluster-marker maps at district and city zoom.
pub fn figure2_maps(
    dataset: &Dataset,
    hierarchy: &RegionHierarchy,
    attribute: &str,
) -> Result<BTreeMap<String, String>, IndiceError> {
    let mut artifacts = BTreeMap::new();
    let label = response_axis_label(dataset, attribute);
    let points = certificate_points(dataset, attribute)?;

    // Upper row: choropleth (neighbourhood) + scatter (single certificate).
    let rows = mean_by_group(dataset, None, wk::NEIGHBOURHOOD, attribute)?;
    let means: BTreeMap<&str, f64> = rows
        .iter()
        .filter_map(|r| r.values[0].map(|v| (r.group.as_str(), v)))
        .collect();
    let mut choro = ChoroplethMap::new(&format!("Average {attribute} by neighbourhood"), &label);
    for region in hierarchy.regions_at(Granularity::Neighbourhood) {
        choro.add_area(region.clone(), means.get(region.name.as_str()).copied());
    }
    artifacts.insert("fig2_choropleth_neighbourhood.svg".into(), choro.render());

    let mut scatter = ScatterMap::new(&format!("{attribute} per housing unit"), &label);
    for (p, v, l) in &points {
        scatter.add_point(*p, *v, l);
    }
    artifacts.insert("fig2_scatter_unit.svg".into(), scatter.render());

    // Bottom row: cluster-markers at district and city level.
    for level in [Granularity::District, Granularity::City] {
        let mut map = ClusterMarkerMap::new(&format!("{attribute} cluster-markers"), &label, level);
        for (p, v, _) in &points {
            map.add_point(*p, *v);
        }
        artifacts.insert(format!("fig2_clustermarkers_{level}.svg"), map.render());
    }
    Ok(artifacts)
}

/// `(point, value, popup label)` triples for every geolocated certificate.
fn certificate_points(
    dataset: &Dataset,
    attribute: &str,
) -> Result<Vec<(GeoPoint, Option<f64>, String)>, IndiceError> {
    let lat_id = dataset.schema().require(wk::LATITUDE)?;
    let lon_id = dataset.schema().require(wk::LONGITUDE)?;
    let id_id = dataset.schema().require(wk::CERTIFICATE_ID)?;
    let attr_id = dataset.schema().require(attribute)?;
    let mut out = Vec::new();
    for r in 0..dataset.n_rows() {
        let (Some(lat), Some(lon)) = (dataset.num(r, lat_id), dataset.num(r, lon_id)) else {
            continue;
        };
        let p = GeoPoint { lat, lon };
        if !p.is_valid() {
            continue;
        }
        let v = dataset.num(r, attr_id);
        let cert = dataset.cat(r, id_id).unwrap_or("(unknown)");
        let label = match v {
            Some(v) => format!("{cert}: {attribute} = {v:.1}"),
            None => format!("{cert}: {attribute} missing"),
        };
        out.push((p, v, label));
    }
    Ok(out)
}

fn response_axis_label(dataset: &Dataset, attribute: &str) -> String {
    dataset
        .schema()
        .def_by_name(attribute)
        .map(|d| d.axis_label())
        .unwrap_or_else(|| attribute.to_owned())
}

/// The textual cluster-summary panel.
fn cluster_summary_text(analytics: &AnalyticsOutput) -> String {
    let mut out = format!(
        "K = {} (SSE elbow{})\n",
        analytics.chosen_k,
        if analytics.sse_curve.is_empty() {
            " not used: K fixed a-priori".to_owned()
        } else {
            format!(
                "; SSE at K: {:.1}",
                analytics
                    .sse_curve
                    .iter()
                    .find(|(k, _)| *k == analytics.chosen_k)
                    .map(|(_, s)| *s)
                    .unwrap_or(f64::NAN)
            )
        }
    );
    out.push_str(&format!(
        "{:<8} {:>7} {:>12}  centroid ({})\n",
        "cluster",
        "size",
        "mean resp.",
        analytics.feature_names.join(", ")
    ));
    for s in &analytics.cluster_summaries {
        let centroid: Vec<String> = s.centroid.iter().map(|v| format!("{v:.2}")).collect();
        out.push_str(&format!(
            "{:<8} {:>7} {:>12}  [{}]\n",
            s.cluster,
            s.size,
            s.mean_response
                .map(|v| format!("{v:.1}"))
                .unwrap_or_else(|| "-".into()),
            centroid.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytics::analyze_observed;
    use crate::config::IndiceConfig;
    use epc_runtime::RuntimeConfig;
    use epc_synth::city::CityConfig;
    use epc_synth::epcgen::{EpcGenerator, SynthConfig};

    fn setup() -> (Dataset, RegionHierarchy, AnalyticsOutput) {
        let c = EpcGenerator::new(SynthConfig {
            n_records: 800,
            city: CityConfig {
                n_districts: 4,
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
            &RuntimeConfig::sequential(),
            None,
        )
        .unwrap();
        (c.dataset, c.city.hierarchy, analytics)
    }

    #[test]
    fn pa_dashboard_has_all_figure4_panels() {
        let (ds, hier, analytics) = setup();
        let out = build_dashboard_with_engine(
            &ds,
            &hier,
            &analytics,
            Stakeholder::PublicAdministration,
            10,
            Engine::Row,
        )
        .unwrap();
        let titles: Vec<&str> = out
            .dashboard
            .panels()
            .iter()
            .map(|p| p.title.as_str())
            .collect();
        assert!(titles.contains(&"Cluster-marker map"));
        assert!(titles.contains(&"Frequency distribution"));
        assert!(titles.contains(&"Distribution by cluster"));
        assert!(titles.contains(&"Association rules"));
        assert!(titles.contains(&"Correlation matrix"));
        assert!(titles.contains(&"Cluster summary"));
        let html = out.dashboard.render_html();
        assert!(html.contains("public administration · district level"));
    }

    #[test]
    fn citizen_dashboard_is_simpler() {
        let (ds, hier, analytics) = setup();
        let out = build_dashboard_with_engine(
            &ds,
            &hier,
            &analytics,
            Stakeholder::Citizen,
            10,
            Engine::Row,
        )
        .unwrap();
        let titles: Vec<&str> = out
            .dashboard
            .panels()
            .iter()
            .map(|p| p.title.as_str())
            .collect();
        assert!(titles.contains(&"Choropleth map"));
        assert!(titles.contains(&"Scatter map"));
        assert!(!titles.contains(&"Association rules"));
    }

    #[test]
    fn artifacts_include_geojson_and_svg() {
        let (ds, hier, analytics) = setup();
        let out = build_dashboard_with_engine(
            &ds,
            &hier,
            &analytics,
            Stakeholder::PublicAdministration,
            10,
            Engine::Row,
        )
        .unwrap();
        assert!(out.artifacts.contains_key("clustermarkers_district.svg"));
        assert!(out
            .artifacts
            .contains_key("clustermarkers_district.geojson"));
        assert!(out.artifacts.contains_key("correlation_matrix.svg"));
        assert!(out.artifacts.contains_key("rules.txt"));
        // GeoJSON is parseable.
        let geo: serde_json::Value =
            serde_json::from_str(&out.artifacts["clustermarkers_district.geojson"]).unwrap();
        assert_eq!(geo["type"], "FeatureCollection");
    }

    #[test]
    fn figure2_series_has_all_four_maps() {
        let (ds, hier, _) = setup();
        let maps = figure2_maps(&ds, &hier, wk::U_WINDOWS).unwrap();
        assert_eq!(maps.len(), 4);
        assert!(maps.contains_key("fig2_choropleth_neighbourhood.svg"));
        assert!(maps.contains_key("fig2_scatter_unit.svg"));
        assert!(maps.contains_key("fig2_clustermarkers_district.svg"));
        assert!(maps.contains_key("fig2_clustermarkers_city.svg"));
        for svg in maps.values() {
            assert!(svg.starts_with("<svg"));
        }
    }

    #[test]
    fn drilldown_series_links_every_level() {
        let (ds, hier, analytics) = setup();
        let pages = drilldown_series_detailed_with_runtime(
            &ds,
            &hier,
            &analytics,
            Stakeholder::PublicAdministration,
            8,
            &RuntimeConfig::sequential(),
        )
        .unwrap();
        assert_eq!(pages.len(), 4);
        for (page, level) in pages.iter().zip(Granularity::ALL) {
            assert_eq!(page.file, format!("dashboard_{level}.html"));
            let page = &page.html;
            // Each page links to the other three levels.
            for other in Granularity::ALL {
                if other != level {
                    assert!(
                        page.contains(&format!("dashboard_{other}.html")),
                        "{level} page missing link to {other}"
                    );
                }
            }
            // The current level is highlighted, not linked.
            assert!(!page.contains(&format!("href=\"dashboard_{level}.html\"")));
            assert!(page.contains("</html>"));
        }
    }

    #[test]
    fn degraded_dashboard_keeps_maps_and_explains_the_gap() {
        let (ds, hier, _) = setup();
        let out = build_dashboard_spec_core(
            &ds,
            &hier,
            None,
            &default_report_spec(Stakeholder::PublicAdministration),
            10,
            &["stage 'analytics' panicked: injected fault".to_owned()],
            Engine::Row,
        )
        .unwrap();
        let titles: Vec<&str> = out
            .dashboard
            .panels()
            .iter()
            .map(|p| p.title.as_str())
            .collect();
        // Data-only panels survive.
        assert!(titles.contains(&"Cluster-marker map"));
        assert!(titles.contains(&"Frequency distribution"));
        // Analytics panels are replaced by the notice.
        assert!(!titles.contains(&"Association rules"));
        assert!(!titles.contains(&"Correlation matrix"));
        assert!(titles.contains(&"Analytics unavailable"));
        let html = out.dashboard.render_html();
        assert!(html.contains("injected fault"));
        assert!(!out.artifacts.contains_key("rules.txt"));
    }

    #[test]
    fn cluster_summary_mentions_every_cluster() {
        let (_, _, analytics) = setup();
        let text = cluster_summary_text(&analytics);
        for s in &analytics.cluster_summaries {
            assert!(text.contains(&format!("\n{:<8}", s.cluster)), "{text}");
        }
        assert!(text.contains("K ="));
    }

    #[test]
    fn scatter_points_skip_missing_coordinates() {
        let (mut ds, hier, analytics) = setup();
        let lat_id = ds.schema().require(wk::LATITUDE).unwrap();
        ds.set_value(0, lat_id, epc_model::Value::Missing).unwrap();
        let out = build_dashboard_with_engine(
            &ds,
            &hier,
            &analytics,
            Stakeholder::Citizen,
            10,
            Engine::Row,
        )
        .unwrap();
        let svg = &out.artifacts["scatter_units.svg"];
        assert!(svg.contains(&format!("{} certificates", ds.n_rows() - 1)));
    }
}
