//! The staged pipeline executor behind every INDICE run mode.
//!
//! The paper's Figure-1 architecture is three sequential blocks. This
//! module makes each block a [`Stage`] over a shared [`PipelineContext`],
//! so stages can be instrumented, re-run with a changed configuration, or
//! skipped when their inputs are already cached in the context — without
//! re-running the whole pipeline.
//!
//! [`Stage`] is the one stage table: its exhaustive matches say what each
//! block runs, which [`StagePolicy`] the supervisor applies to it, and
//! which context product it owns. `execute_stage_supervised` is the one
//! executor: every run mode — [`crate::engine::Indice::run`], the
//! supervised run, the durable run (and through it the fleet), and
//! incremental ingest — executes its stages through it, which times each
//! stage with [`epc_runtime::StageTimer`] into a per-stage
//! [`epc_runtime::PipelineReport`]. All intra-stage data-parallelism goes
//! through [`epc_runtime`]'s deterministic primitives, so a pipeline run
//! produces bitwise-identical outputs for any thread budget.

use crate::analytics::AnalyticsOutput;
use crate::config::IndiceConfig;
use crate::dashboard::{build_dashboard_spec_core, drilldown_series_detailed_with_runtime};
use crate::error::IndiceError;
use crate::preprocess::{clean_phase, outlier_phase, PreprocessOutput};
use epc_faults::FaultInjector;
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_model::{wellknown as wk, Dataset, Quarantine};
use epc_obs::Obs;
use epc_query::predicate::Predicate;
use epc_query::query::Query;
use epc_query::stakeholder::{default_report_spec, Stakeholder};
use epc_runtime::{Clock, PipelineReport, RuntimeConfig, StageTimer};
use epc_viz::dashboard::Dashboard;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Shared state flowing through the stages: immutable inputs plus the
/// intermediate products each stage fills in.
pub struct PipelineContext<'a> {
    /// The raw input dataset (before category selection).
    pub dataset: &'a Dataset,
    /// The referenced street map used by the cleaning pass.
    pub street_map: &'a StreetMap,
    /// The region hierarchy of the city under analysis.
    pub hierarchy: &'a RegionHierarchy,
    /// The effective configuration (expert suggestions already applied).
    pub config: IndiceConfig,
    /// The stakeholder the dashboards are built for.
    pub stakeholder: Stakeholder,
    /// The execution runtime every stage's kernels run under.
    pub runtime: RuntimeConfig,
    /// Stage-1 product: cleaned, outlier-free data plus reports.
    pub preprocess: Option<PreprocessOutput>,
    /// Stage-2 product: clusters, rules, correlations.
    pub analytics: Option<AnalyticsOutput>,
    /// Stage-3 product: the assembled dashboard.
    pub dashboard: Option<Dashboard>,
    /// Stage-3 product: standalone artifacts, file name → content.
    pub artifacts: BTreeMap<String, String>,
    /// Fault injector consulted at record, geocode, and stage boundaries
    /// (`None` in production runs).
    pub injector: Option<&'a dyn FaultInjector>,
    /// Records diverted out of the pipeline, with their faults.
    pub quarantine: Quarantine,
    /// Names of stages the supervisor degraded (skipped after failure).
    pub degraded_stages: Vec<String>,
    /// How many times each stage has been invoked on this context (drives
    /// the injector's Nth-invocation stage kills).
    pub stage_invocations: BTreeMap<&'static str, usize>,
    /// The clock stage timers sample. Defaults to the shared process
    /// [`epc_runtime::wall_clock`]; [`PipelineContext::with_obs`] swaps in
    /// the observability bundle's clock so every time reading in a run
    /// flows through one injectable source.
    pub clock: &'a dyn Clock,
    /// Observability bundle recording spans, points, and metrics
    /// (`None`: no recording).
    pub obs: Option<&'a Obs<'a>>,
}

impl<'a> PipelineContext<'a> {
    /// A fresh context with no stage products yet.
    pub fn new(
        dataset: &'a Dataset,
        street_map: &'a StreetMap,
        hierarchy: &'a RegionHierarchy,
        config: IndiceConfig,
        stakeholder: Stakeholder,
        runtime: RuntimeConfig,
    ) -> Self {
        PipelineContext {
            dataset,
            street_map,
            hierarchy,
            config,
            stakeholder,
            runtime,
            preprocess: None,
            analytics: None,
            dashboard: None,
            artifacts: BTreeMap::new(),
            injector: None,
            quarantine: Quarantine::new(),
            degraded_stages: Vec::new(),
            stage_invocations: BTreeMap::new(),
            clock: epc_runtime::wall_clock(),
            obs: None,
        }
    }

    /// Attaches an observability bundle. The bundle's clock becomes the
    /// context clock, so stage timers and trace events share one time
    /// source.
    pub fn with_obs(mut self, obs: &'a Obs<'a>) -> Self {
        self.clock = obs.clock();
        self.obs = Some(obs);
        self
    }

    /// The cleaned dataset, or an error naming the stage that should have
    /// produced it.
    fn cleaned_dataset(&self) -> Result<&Dataset, IndiceError> {
        self.preprocess
            .as_ref()
            .map(|p| &p.dataset)
            .ok_or(IndiceError::EmptyCollection("preprocess stage not run"))
    }
}

/// Record counts a stage reports for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Records entering the stage.
    pub records_in: usize,
    /// Records (or artifacts, for the dashboard stage) leaving it.
    pub records_out: usize,
}

/// One pipeline block. The variants, in [`Stage::ALL`] order, are the
/// standard three-block sequence of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1 — category selection (§2.2.1) followed by geospatial
    /// cleaning and outlier removal (§2.1). Fills
    /// [`PipelineContext::preprocess`].
    Preprocess,
    /// Stage 2 — correlation screening, clustering, discretization, and
    /// rule mining (§2.2). Fills [`PipelineContext::analytics`].
    Analytics,
    /// Stage 3 — the stakeholder dashboard plus the per-zoom drill-down
    /// pages and standalone artifacts (§2.3). Fills
    /// [`PipelineContext::dashboard`] and [`PipelineContext::artifacts`].
    Dashboard,
}

impl std::str::FromStr for Stage {
    type Err = String;

    /// The stage called `name`; an unknown name is rejected with the
    /// list of valid ones.
    fn from_str(name: &str) -> Result<Self, String> {
        Stage::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "unknown stage {name:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Stage {
    /// Every stage, in execution order.
    pub const ALL: [Stage; 3] = [Stage::Preprocess, Stage::Analytics, Stage::Dashboard];

    /// The stage name shown in reports, journals, spans, and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Preprocess => "preprocess",
            Stage::Analytics => "analytics",
            Stage::Dashboard => "dashboard",
        }
    }

    /// The supervisor's failure policy: preprocessing and the dashboard
    /// are load-bearing, analytics can be skipped (the dashboard then
    /// renders maps and distributions without cluster panels).
    pub fn policy(self) -> StagePolicy {
        match self {
            Stage::Preprocess | Stage::Dashboard => StagePolicy::Required,
            Stage::Analytics => StagePolicy::Degradable,
        }
    }

    /// Executes the stage over `ctx`.
    pub fn run(self, ctx: &mut PipelineContext<'_>) -> Result<StageStats, IndiceError> {
        match self {
            Stage::Preprocess => run_preprocess(ctx),
            Stage::Analytics => run_analytics(ctx),
            Stage::Dashboard => run_dashboard(ctx),
        }
    }

    /// Drops the product the stage wrote into the context, so downstream
    /// stages (and resumed runs) behave exactly as if it had failed
    /// outright.
    fn discard_product(self, ctx: &mut PipelineContext<'_>) {
        match self {
            Stage::Preprocess => ctx.preprocess = None,
            Stage::Analytics => ctx.analytics = None,
            Stage::Dashboard => {
                ctx.dashboard = None;
                ctx.artifacts.clear();
            }
        }
    }
}

/// Data selection (§2.2.1): the rows of the configured building category
/// (the case study filters on E.1.1), or every row when none is set.
/// Selection is a row-wise filter, so it commutes with concatenation —
/// which lets ingest select per batch.
pub(crate) fn select_category(
    dataset: &Dataset,
    config: &IndiceConfig,
) -> Result<Dataset, IndiceError> {
    let Some(cat) = &config.building_category else {
        return Ok(dataset.clone());
    };
    Ok(Query::filtered(Predicate::eq(wk::BUILDING_CATEGORY, cat)).run(dataset)?)
}

fn run_preprocess(ctx: &mut PipelineContext<'_>) -> Result<StageStats, IndiceError> {
    let selected = select_category(ctx.dataset, &ctx.config)?;
    if selected.is_empty() {
        return Err(IndiceError::EmptyCollection("category selection"));
    }
    let records_in = selected.n_rows();
    let quarantined_before = ctx.quarantine.len();
    // Stage 1 is the composition of its two phases; incremental ingest runs
    // the clean phase per batch and the outlier phase over the merged
    // cumulative data, which is what makes batched == one-shot.
    let clean = clean_phase(
        selected,
        ctx.street_map,
        &ctx.config,
        &ctx.runtime,
        ctx.injector,
        ctx.obs,
        ctx.config.geocoder_quota,
    )?;
    let (out, quarantine) = outlier_phase(clean, &ctx.config, &ctx.runtime, ctx.obs)?;
    let records_out = out.dataset.n_rows();
    ctx.preprocess = Some(out);
    ctx.quarantine.merge(quarantine);
    if let Some(obs) = ctx.obs {
        // Per-rule quarantine counters (kind → count this invocation).
        for (kind, n) in ctx.quarantine.histogram_from(quarantined_before) {
            obs.metrics().inc(&format!("quarantine_{kind}"), n as u64);
        }
    }
    Ok(StageStats {
        records_in,
        records_out,
    })
}

fn run_analytics(ctx: &mut PipelineContext<'_>) -> Result<StageStats, IndiceError> {
    let cleaned = ctx.cleaned_dataset()?;
    let records_in = cleaned.n_rows();
    let out = crate::analytics::analyze_observed(cleaned, &ctx.config, &ctx.runtime, ctx.obs)?;
    let records_out = out.feature_rows.len();
    ctx.analytics = Some(out);
    Ok(StageStats {
        records_in,
        records_out,
    })
}

fn run_dashboard(ctx: &mut PipelineContext<'_>) -> Result<StageStats, IndiceError> {
    let cleaned = ctx.cleaned_dataset()?;
    let records_in = cleaned.n_rows();
    let analytics = ctx.analytics.as_ref();
    // A missing analytics product is an ordering error — unless the
    // supervisor degraded that stage, in which case the dashboard still
    // renders its analytics-free panels and explains the gap.
    if analytics.is_none() && ctx.degraded_stages.is_empty() {
        return Err(IndiceError::EmptyCollection("analytics stage not run"));
    }
    let reasons: Vec<String> = ctx
        .degraded_stages
        .iter()
        .map(|s| format!("stage '{s}' failed and was skipped"))
        .collect();
    let out = build_dashboard_spec_core(
        cleaned,
        ctx.hierarchy,
        analytics,
        &default_report_spec(ctx.stakeholder),
        ctx.config.rule_stage.top_k,
        &reasons,
    )?;
    if let Some(obs) = ctx.obs {
        obs.point("dashboard:main", &[("markers", out.n_markers.into())]);
        obs.metrics()
            .inc("dashboard_markers_main", out.n_markers as u64);
    }
    let mut artifacts = out.artifacts;
    // The drill-down zoom series (one coarse task per level) needs the
    // cluster panels, so a degraded dashboard renders without it.
    if let Some(analytics) = analytics {
        let pages = drilldown_series_detailed_with_runtime(
            cleaned,
            ctx.hierarchy,
            analytics,
            ctx.stakeholder,
            ctx.config.rule_stage.top_k,
            &ctx.runtime,
        )?;
        for page in pages {
            if let Some(obs) = ctx.obs {
                obs.point(
                    "dashboard:zoom",
                    &[
                        ("level", page.level.to_string().into()),
                        ("markers", page.markers.into()),
                    ],
                );
                obs.metrics()
                    .inc("dashboard_markers_zoom", page.markers as u64);
            }
            artifacts.insert(page.file, page.html);
        }
    }
    let records_out = artifacts.len();
    ctx.dashboard = Some(out.dashboard);
    ctx.artifacts = artifacts;
    Ok(StageStats {
        records_in,
        records_out,
    })
}

/// What the supervisor does when a stage fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StagePolicy {
    /// Failure aborts the run: later stages cannot do without this one.
    Required,
    /// Failure is recorded and the run continues; downstream stages render
    /// what they can without this stage's product.
    Degradable,
}

/// How a supervised run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every stage succeeded and nothing was quarantined or degraded.
    Complete,
    /// The pipeline produced output, but parts are missing or approximate;
    /// each reason says why.
    Degraded(Vec<String>),
    /// A required stage failed; no usable output.
    Failed(IndiceError),
}

impl RunOutcome {
    /// `true` unless the run failed outright.
    pub fn produced_output(&self) -> bool {
        !matches!(self, RunOutcome::Failed(_))
    }

    /// Process exit code the CLI maps this outcome to: 0 complete,
    /// 3 degraded, 1 failed.
    pub fn exit_code(&self) -> u8 {
        match self {
            RunOutcome::Complete => 0,
            RunOutcome::Degraded(_) => 3,
            RunOutcome::Failed(_) => 1,
        }
    }
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Complete => write!(f, "complete"),
            RunOutcome::Degraded(reasons) => {
                write!(f, "degraded ({})", reasons.join("; "))
            }
            RunOutcome::Failed(e) => write!(f, "failed: {e}"),
        }
    }
}

/// Per-stage wall-clock budget, enforced by sampling `clock` immediately
/// before and after each stage. The clock is injectable so deadline
/// behaviour is deterministic under test ([`epc_runtime::ManualClock`])
/// while production uses [`epc_runtime::WallClock`] — this module itself
/// never reads the wall clock (lint rule D2).
pub struct StageDeadline<'a> {
    /// Budget each stage may spend, in milliseconds.
    pub budget_ms: u64,
    /// The clock sampled at stage boundaries.
    pub clock: &'a dyn Clock,
}

/// How one supervised stage execution ended.
pub(crate) enum StageExec {
    /// The stage produced its product; its report entry is pushed.
    Succeeded,
    /// The stage failed, panicked, or overran its deadline, and the
    /// supervisor degraded it; the reason belongs in the run outcome.
    Degraded(String),
    /// A required stage failed; the run cannot continue.
    Failed(IndiceError),
}

/// Histogram bounds for per-stage record counts (records leaving a stage).
const STAGE_RECORDS_BOUNDS: &[u64] = &[10, 100, 1_000, 10_000, 100_000];

/// Executes one stage under the supervisor: injector stage-kills fire as
/// panics, panics are caught, quarantine deltas are accounted, and — when
/// a [`StageDeadline`] is given — the stage's boundary-to-boundary time is
/// checked against the budget. An overrunning [`StagePolicy::Degradable`]
/// stage has its product discarded (the watchdog treats "too slow" as
/// "failed"); an overrunning required stage keeps its product but still
/// degrades the run outcome. Pushes exactly one report entry.
pub(crate) fn execute_stage_supervised(
    stage: Stage,
    policy: StagePolicy,
    ctx: &mut PipelineContext<'_>,
    report: &mut PipelineReport,
    deadline: Option<&StageDeadline<'_>>,
) -> StageExec {
    let name = stage.name();
    let invocation = ctx.stage_invocations.entry(name).or_insert(0);
    *invocation += 1;
    let kill = ctx
        .injector
        .and_then(|inj| inj.fail_stage(name, *invocation));
    let quarantined_before = ctx.quarantine.len();
    let started_ms = deadline.map(|d| d.clock.now_ms());
    let span = ctx.obs.map(|o| o.span(&format!("stage:{name}")));
    let timer = StageTimer::start_with(name, ctx.clock);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if let Some(msg) = kill {
            panic!("{msg}");
        }
        stage.run(ctx)
    }));
    let quarantine_delta = ctx.quarantine.len().saturating_sub(quarantined_before);
    let faults = ctx.quarantine.histogram_from(quarantined_before);
    match outcome {
        Ok(Ok(stats)) => {
            report.push(timer.finish_detailed(
                stats.records_in,
                stats.records_out,
                quarantine_delta,
                faults,
            ));
            if let Some(obs) = ctx.obs {
                let m = obs.metrics();
                m.inc(&format!("stage_{name}_records_in"), stats.records_in as u64);
                m.inc(
                    &format!("stage_{name}_records_out"),
                    stats.records_out as u64,
                );
                m.observe(
                    "stage_records_out",
                    STAGE_RECORDS_BOUNDS,
                    stats.records_out as u64,
                );
                m.inc(
                    &format!("stage_{name}_quarantined"),
                    quarantine_delta as u64,
                );
            }
            let span_fields = [
                ("quarantined", quarantine_delta.into()),
                ("records_in", stats.records_in.into()),
                ("records_out", stats.records_out.into()),
            ];
            if let (Some(d), Some(started)) = (deadline, started_ms) {
                let elapsed = d.clock.now_ms().saturating_sub(started);
                if elapsed > d.budget_ms {
                    if let Some(span) = span {
                        span.finish("deadline_overrun", &span_fields);
                    }
                    return match policy {
                        StagePolicy::Degradable => {
                            stage.discard_product(ctx);
                            ctx.degraded_stages.push(name.to_owned());
                            StageExec::Degraded(format!(
                                "stage '{name}' exceeded its deadline \
                                 ({elapsed} ms > budget {} ms); product discarded",
                                d.budget_ms
                            ))
                        }
                        StagePolicy::Required => StageExec::Degraded(format!(
                            "stage '{name}' exceeded its deadline \
                             ({elapsed} ms > budget {} ms); required product kept",
                            d.budget_ms
                        )),
                    };
                }
            }
            if let Some(span) = span {
                span.finish("ok", &span_fields);
            }
            StageExec::Succeeded
        }
        Ok(Err(e)) => {
            report.push(timer.finish_detailed(0, 0, quarantine_delta, faults));
            if let Some(span) = span {
                span.finish("error", &[("quarantined", quarantine_delta.into())]);
            }
            match policy {
                StagePolicy::Required => StageExec::Failed(e),
                StagePolicy::Degradable => {
                    ctx.degraded_stages.push(name.to_owned());
                    StageExec::Degraded(format!("stage '{name}' failed: {e}"))
                }
            }
        }
        Err(payload) => {
            let message = panic_message(payload);
            report.push(timer.finish_detailed(0, 0, quarantine_delta, faults));
            if let Some(span) = span {
                span.finish("panicked", &[("quarantined", quarantine_delta.into())]);
            }
            match policy {
                StagePolicy::Required => StageExec::Failed(IndiceError::StagePanicked {
                    stage: name.to_owned(),
                    message,
                }),
                StagePolicy::Degradable => {
                    ctx.degraded_stages.push(name.to_owned());
                    StageExec::Degraded(format!("stage '{name}' panicked: {message}"))
                }
            }
        }
    }
}

/// Appends the run-level degradation reasons derived from the final
/// context state (degraded geocodes, quarantined records) and folds
/// everything into the run outcome. Shared by every runner so resumed and
/// batched runs report identical outcomes.
pub(crate) fn finish_outcome(ctx: &PipelineContext<'_>, mut reasons: Vec<String>) -> RunOutcome {
    if let Some(p) = &ctx.preprocess {
        if p.cleaning.degraded > 0 {
            reasons.push(format!(
                "{} record(s) geocoded to district centroids after retry exhaustion",
                p.cleaning.degraded
            ));
        }
    }
    if reasons.is_empty() && !ctx.quarantine.is_empty() {
        reasons.push(format!(
            "{} record(s) quarantined during preprocessing",
            ctx.quarantine.len()
        ));
    }
    if reasons.is_empty() {
        RunOutcome::Complete
    } else {
        RunOutcome::Degraded(reasons)
    }
}

/// Runs `stages` in order under the supervisor, each with its policy:
/// stage panics are caught, failures of [`StagePolicy::Degradable`] stages
/// turn into degradation reasons instead of aborting, and per-stage
/// quarantine deltas land in the report. Stage deadlines apply only to
/// durable runs ([`crate::durable::DurableOptions::with_deadline`]).
/// Never returns `Err` — failure is the [`RunOutcome::Failed`] variant,
/// paired with the partial report.
pub fn run_pipeline_supervised(
    stages: &[(Stage, StagePolicy)],
    ctx: &mut PipelineContext<'_>,
) -> (RunOutcome, PipelineReport) {
    let mut report = PipelineReport::new(ctx.runtime.threads);
    let mut reasons: Vec<String> = Vec::new();
    for &(stage, policy) in stages {
        match execute_stage_supervised(stage, policy, ctx, &mut report, None) {
            StageExec::Succeeded => {}
            StageExec::Degraded(reason) => reasons.push(reason),
            StageExec::Failed(e) => return (RunOutcome::Failed(e), report),
        }
    }
    (finish_outcome(ctx, reasons), report)
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_synth::city::CityConfig;
    use epc_synth::epcgen::{EpcGenerator, SynthConfig};
    use epc_synth::noise::{apply_noise, NoiseConfig};

    fn collection() -> epc_synth::epcgen::SyntheticCollection {
        let mut c = EpcGenerator::new(SynthConfig {
            n_records: 700,
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
        apply_noise(&mut c, &NoiseConfig::default());
        c
    }

    #[test]
    fn full_pipeline_reports_every_stage() {
        let c = collection();
        let mut ctx = PipelineContext::new(
            &c.dataset,
            &c.city.street_map,
            &c.city.hierarchy,
            IndiceConfig::default(),
            Stakeholder::PublicAdministration,
            RuntimeConfig::sequential(),
        );
        let strict = Stage::ALL.map(|s| (s, StagePolicy::Required));
        let (outcome, report) = run_pipeline_supervised(&strict, &mut ctx);
        assert!(outcome.produced_output(), "{outcome}");
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.stages[0].name, "preprocess");
        assert_eq!(report.stages[1].name, "analytics");
        assert_eq!(report.stages[2].name, "dashboard");
        assert!(report.stage("preprocess").unwrap().records_in > 0);
        assert!(ctx.preprocess.is_some());
        assert!(ctx.analytics.is_some());
        assert!(ctx.dashboard.is_some());
        assert!(!ctx.artifacts.is_empty());
        // The drill-down pages ride along as artifacts.
        assert!(ctx.artifacts.contains_key("dashboard_district.html"));
    }

    /// `--crash-at`, `--crash-at-batch` and `--crash-at-city` share one
    /// grammar: a stage or an index, a colon, and a commit point.
    #[test]
    fn crash_points_share_one_grammar_over_stages_and_indices() {
        use epc_journal::{CommitPoint, CrashPoint};
        let points = [CommitPoint::Before, CommitPoint::After, CommitPoint::Torn];
        for at in Stage::ALL {
            for point in points {
                let crash = CrashPoint { at, point };
                let text = crash.to_string();
                assert_eq!(text, format!("{}:{point}", at.name()));
                assert_eq!(text.parse::<CrashPoint<Stage>>(), Ok(crash), "{text}");
            }
        }
        for at in [0usize, 1, 12, usize::MAX] {
            for point in points {
                let crash = CrashPoint { at, point };
                let text = crash.to_string();
                assert_eq!(text.parse::<CrashPoint<usize>>(), Ok(crash), "{text}");
            }
        }
        for (raw, canonical) in [
            (" analytics : torn ", "analytics:torn"),
            ("dashboard:after", "dashboard:after"),
        ] {
            let crash: CrashPoint<Stage> = raw.parse().unwrap();
            assert_eq!(crash.to_string(), canonical, "{raw:?}");
        }
        assert_eq!(
            " 07 :before"
                .parse::<CrashPoint<usize>>()
                .unwrap()
                .to_string(),
            "7:before"
        );

        let grammar = "expected <unit>:<before|after|torn>";
        let unknown_stage =
            "unknown stage \"analytcs\" (expected one of: preprocess, analytics, dashboard)";
        for (raw, why) in [
            ("analytics", grammar),
            ("analytics:", grammar),
            (":before", grammar),
            (" :torn", grammar),
            ("analytics:during", grammar),
            ("analytics:torn:x", grammar),
            ("analytcs:before", unknown_stage),
        ] {
            let err = raw.parse::<CrashPoint<Stage>>().unwrap_err();
            assert_eq!(err, format!("invalid crash point {raw:?}: {why}"));
        }
        for raw in [
            "1", "1:", ":after", "x:after", "-1:torn", "1.5:torn", "1:during",
        ] {
            let err = raw.parse::<CrashPoint<usize>>().unwrap_err();
            assert!(
                err.starts_with(&format!("invalid crash point {raw:?}: ")),
                "{raw:?}: {err}"
            );
        }
    }

    #[test]
    fn stages_out_of_order_fail_cleanly() {
        let c = collection();
        let mut ctx = PipelineContext::new(
            &c.dataset,
            &c.city.street_map,
            &c.city.hierarchy,
            IndiceConfig::default(),
            Stakeholder::Citizen,
            RuntimeConfig::sequential(),
        );
        assert!(Stage::Analytics.run(&mut ctx).is_err());
        assert!(Stage::Dashboard.run(&mut ctx).is_err());
    }

    #[test]
    fn a_stage_can_be_rerun_on_cached_inputs() {
        let c = collection();
        let mut ctx = PipelineContext::new(
            &c.dataset,
            &c.city.street_map,
            &c.city.hierarchy,
            IndiceConfig::default(),
            Stakeholder::PublicAdministration,
            RuntimeConfig::sequential(),
        );
        let strict = Stage::ALL.map(|s| (s, StagePolicy::Required));
        let (outcome, _) = run_pipeline_supervised(&strict, &mut ctx);
        assert!(outcome.produced_output(), "{outcome}");
        let first_k = ctx.analytics.as_ref().unwrap().chosen_k;

        // Re-run analytics alone with a fixed K — preprocessing is reused
        // from the context, untouched.
        let cleaned_rows = ctx.preprocess.as_ref().unwrap().dataset.n_rows();
        ctx.config.analytics.k = crate::config::KSelection::Fixed(first_k + 1);
        let stats = Stage::Analytics.run(&mut ctx).unwrap();
        assert_eq!(stats.records_in, cleaned_rows);
        assert_eq!(ctx.analytics.as_ref().unwrap().chosen_k, first_k + 1);
        assert_eq!(
            ctx.preprocess.as_ref().unwrap().dataset.n_rows(),
            cleaned_rows
        );
    }
}
