//! Golden-trace observability tests (ISSUE 5): the logical event stream
//! produced by an observed pipeline run must be bitwise identical for any
//! thread budget, and must match the checked-in golden file.
//!
//! Under a `ManualClock` even the wall-clock fields are deterministic, so
//! the *full* trace (timestamps included) is also asserted identical
//! across thread budgets.
//!
//! Regenerate the golden file after an intentional trace-schema change:
//!
//! ```text
//! INDICE_UPDATE_GOLDEN=1 cargo test -p indice --test observability
//! ```

use epc_obs::Obs;
use epc_query::Stakeholder;
use epc_runtime::{ManualClock, RuntimeConfig};
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig, SyntheticCollection};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::config::IndiceConfig;
use indice::engine::{Indice, SupervisedOutput};

const GOLDEN: &str = include_str!("golden/observability_trace.jsonl");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/observability_trace.jsonl"
);

fn collection() -> SyntheticCollection {
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

fn engine_at(threads: usize) -> Indice {
    Indice::from_collection(collection(), IndiceConfig::default())
        .with_runtime(RuntimeConfig::new(threads))
}

/// One observed run under a `ManualClock` advancing 7 ms per sample.
/// Returns (full jsonl, logical jsonl, metrics text, output).
fn observed_run(threads: usize) -> (String, String, String, SupervisedOutput) {
    let clock = ManualClock::advancing(7);
    let obs = Obs::new(&clock);
    let out =
        engine_at(threads).run_supervised(Stakeholder::PublicAdministration, None, Some(&obs));
    (
        obs.tracer().to_jsonl(),
        obs.tracer().logical_jsonl(),
        obs.metrics().expose_text(),
        out,
    )
}

#[test]
fn golden_trace_is_bitwise_identical_across_thread_budgets() {
    let (full_1, logical_1, metrics_1, out_1) = observed_run(1);
    assert!(matches!(
        out_1.outcome,
        indice::pipeline::RunOutcome::Complete | indice::pipeline::RunOutcome::Degraded(_)
    ));
    assert!(!logical_1.is_empty());

    if std::env::var_os("INDICE_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &logical_1).expect("writing golden trace");
    }

    for threads in [2usize, 8] {
        let (full, logical, metrics, out) = observed_run(threads);
        // Full stream: ManualClock makes even wall_ms thread-invariant.
        assert_eq!(full, full_1, "full trace diverged at threads = {threads}");
        assert_eq!(
            logical, logical_1,
            "logical trace diverged at threads = {threads}"
        );
        assert_eq!(
            metrics, metrics_1,
            "metrics diverged at threads = {threads}"
        );
        // And the pipeline products themselves stay identical.
        assert_eq!(out.artifacts, out_1.artifacts, "threads = {threads}");
    }

    // The checked-in golden file is the logical projection.
    assert_eq!(
        logical_1, GOLDEN,
        "logical trace no longer matches tests/golden/observability_trace.jsonl; \
         rerun with INDICE_UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn wall_time_is_present_in_full_and_absent_in_logical_stream() {
    let (full, logical, _, _) = observed_run(1);
    assert!(
        full.contains("\"wall_ms\""),
        "full stream carries wall time"
    );
    assert!(
        !logical.contains("\"wall_ms\""),
        "logical stream must exclude wall time"
    );
    // Every line carries a sequence number, dense from zero.
    for (i, line) in logical.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\": {i}, ")),
            "line {i} out of sequence: {line}"
        );
    }
}

#[test]
fn observed_run_records_every_layer() {
    let clock = ManualClock::advancing(3);
    let obs = Obs::new(&clock);
    let out = engine_at(2).run_supervised(Stakeholder::PublicAdministration, None, Some(&obs));
    assert!(out.outcome.produced_output());

    let trace = obs.tracer().to_jsonl();
    for name in [
        "stage:preprocess",
        "stage:analytics",
        "stage:dashboard",
        "preprocess:cleaning",
        "preprocess:dbscan",
        "preprocess:univariate",
        "analytics:correlation",
        "kmeans:elbow",
        "kmeans:round",
        "apriori:level",
        "dashboard:main",
        "dashboard:zoom",
    ] {
        assert!(trace.contains(&format!("\"name\": \"{name}\"")), "{name}");
    }

    let m = obs.metrics();
    assert!(m.counter("stage_preprocess_records_in") > 0);
    assert!(m.counter("stage_dashboard_records_out") > 0);
    assert!(m.counter("kmeans_iterations") > 0);
    assert!(m.counter("apriori_candidates") > 0);
    assert!(m.counter("rules_mined") > 0);
    assert!(m.counter("dashboard_markers_zoom") > 0);
    assert_eq!(
        m.gauge("kmeans_chosen_k"),
        out.analytics.as_ref().map(|a| a.chosen_k as i64)
    );
    let h = m.histogram("stage_records_out").expect("stage histogram");
    assert_eq!(h.count(), 3, "one observation per stage");
}

#[test]
fn observed_products_match_unobserved_run() {
    let engine = engine_at(2);
    let plain = engine.run_supervised(Stakeholder::PublicAdministration, None, None);
    let clock = ManualClock::advancing(5);
    let obs = Obs::new(&clock);
    let observed = engine.run_supervised(Stakeholder::PublicAdministration, None, Some(&obs));
    assert_eq!(plain.artifacts, observed.artifacts);
    assert_eq!(
        plain.analytics.as_ref().map(|a| a.chosen_k),
        observed.analytics.as_ref().map(|a| a.chosen_k)
    );
    assert_eq!(plain.quarantine.len(), observed.quarantine.len());
}

#[test]
fn durable_resume_counters_distinguish_hits_from_replays() {
    use indice::durable::DurableOptions;

    let dir = std::env::temp_dir().join(format!("indice_obs_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = engine_at(1);

    // Fresh run: everything replays, every stage commits checkpoints.
    let clock = ManualClock::advancing(2);
    let obs = Obs::new(&clock);
    let opts = DurableOptions::new(&dir).with_obs(&obs);
    let out = engine
        .run_durable(Stakeholder::PublicAdministration, &opts)
        .expect("durable run");
    assert!(out.outcome.produced_output());
    let m = obs.metrics();
    assert_eq!(m.counter("resume_replayed"), 3);
    assert_eq!(m.counter("resume_journal_hits"), 0);
    assert!(m.counter("checkpoint_files_total") >= 3);
    assert!(m.counter("checkpoint_bytes_total") > 0);

    // Resumed run: everything is a journal hit, nothing replays.
    let clock2 = ManualClock::advancing(2);
    let obs2 = Obs::new(&clock2);
    let opts2 = DurableOptions::new(&dir).resuming().with_obs(&obs2);
    let out2 = engine
        .run_durable(Stakeholder::PublicAdministration, &opts2)
        .expect("resumed run");
    assert!(out2.outcome.produced_output());
    let m2 = obs2.metrics();
    assert_eq!(m2.counter("resume_journal_hits"), 3);
    assert_eq!(m2.counter("resume_replayed"), 0);
    assert!(m2.counter("resume_rehydrated_bytes") > 0);
    assert!(obs2
        .tracer()
        .to_jsonl()
        .contains("\"name\": \"journal:hit\""));

    let _ = std::fs::remove_dir_all(&dir);
}
