//! # indice
//!
//! INDICE — *INformative DynamiC dashboard Engine* — the core library of
//! this reproduction of Cerquitelli et al., "Exploring energy performance
//! certificates through visualization" (EDBT/ICDT Workshops 2019, BigVis).
//!
//! INDICE analyses collections of Energy Performance Certificates in three
//! stages, mirroring Figure 1 of the paper:
//!
//! 1. **Data pre-processing** ([`preprocess`]) — geospatial cleaning of
//!    addresses/ZIP/coordinates against a referenced street map with a
//!    geocoder fallback (§2.1.1), and outlier detection & removal with the
//!    boxplot / gESD / MAD univariate methods and DBSCAN multivariate
//!    detection (§2.1.2);
//! 2. **Data selection & analytics** ([`analytics`]) — querying,
//!    correlation screening, K-means clustering with elbow-based K
//!    selection, CART-driven discretization, and association-rule mining
//!    with support/confidence/lift/conviction (§2.2);
//! 3. **Informative dashboards** ([`dashboard`]) — choropleth, scatter and
//!    cluster-marker maps at city/district/neighbourhood/unit granularity,
//!    frequency distributions, rule tables and correlation matrices,
//!    assembled into self-contained HTML + GeoJSON artifacts (§2.3).
//!
//! The stages are the variants of [`pipeline::Stage`], executed over a
//! shared [`pipeline::PipelineContext`] by one supervised executor that
//! every run mode shares — in-memory, durable/resumable, multi-city fleet,
//! and incremental ingest. It times every block and runs each block's hot
//! loops data-parallel through [`epc_runtime`] — deterministically:
//! outputs are bitwise identical for any thread budget (set it with
//! `INDICE_THREADS` or [`engine::Indice::with_runtime`]).
//!
//! The pipeline is fault-tolerant: malformed records are diverted into a
//! typed [`epc_model::Quarantine`] instead of panicking, transient
//! geocoder failures are retried with deterministic backoff (falling back
//! to district centroids once the budget is exhausted), and
//! [`engine::Indice::run_supervised`] applies each stage's
//! [`pipeline::StagePolicy`], converting stage failures into graceful
//! degradation — an analytics failure still yields a dashboard with maps
//! and distributions plus an "analytics unavailable" panel, and the
//! [`pipeline::RunOutcome`] says whether the run was complete, degraded,
//! or failed. [`engine::Indice::run`] is the strict variant (every stage
//! required), and [`engine::Indice::run_durable`] checkpoints each stage
//! into a resumable run directory. The companion `epc-faults` crate
//! injects deterministic faults for chaos testing.
//!
//! The [`engine::Indice`] type ties the stages together:
//!
//! ```no_run
//! use indice::engine::Indice;
//! use indice::config::IndiceConfig;
//! use epc_query::Stakeholder;
//! use epc_synth::{EpcGenerator, SynthConfig, NoiseConfig};
//!
//! let mut collection = EpcGenerator::new(SynthConfig {
//!     n_records: 5_000,
//!     ..SynthConfig::default()
//! })
//! .generate();
//! epc_synth::noise::apply_noise(&mut collection, &NoiseConfig::default());
//!
//! let engine = Indice::from_collection(collection, IndiceConfig::default());
//! let output = engine.run(Stakeholder::PublicAdministration).unwrap();
//! println!("{} clusters, {} rules", output.analytics.chosen_k, output.analytics.rules.len());
//! std::fs::write("dashboard.html", output.dashboard.render_html()).unwrap();
//! ```

pub mod analytics;
pub mod autoconfig;
pub mod checkpoint;
pub mod config;
pub mod dashboard;
pub mod durable;
pub mod engine;
pub mod error;
pub mod fleet;
pub mod generations;
pub mod outliers;
pub mod pipeline;
pub mod preprocess;

pub use autoconfig::{suggest_config, ConfigAdvice};
pub use config::{
    AnalyticsConfig, FaultToleranceConfig, IndiceConfig, KSelection, OutlierConfig, RuleStageConfig,
};
pub use durable::{DurableOptions, DurableOutput};
pub use engine::{Indice, IndiceOutput, SupervisedOutput};
pub use error::IndiceError;
pub use fleet::{
    run_fleet, FleetRunOptions, FleetRunOutput, CITIES_DIR, CITY_METRICS_FILE,
    FLEET_DASHBOARD_FILE, FLEET_METRICS_FILE,
};
pub use generations::{
    ingest, IngestBatch, IngestInputs, IngestOptions, IngestOutcome, IngestOutput, RecomputeMode,
    CLEAN_DELTA_FILE,
};
pub use outliers::UnivariateMethod;
pub use pipeline::{
    run_pipeline_supervised, PipelineContext, RunOutcome, Stage, StageDeadline, StagePolicy,
    StageStats,
};
