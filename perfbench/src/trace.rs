//! The traced run: one extra child per workload, never mixed into the
//! end-to-end numbers.
//!
//! It re-executes the measured call from the same public functions the
//! call is made of, in pipeline order, with a span around each stage; the
//! stage spans partition the run and must commit the same bytes the
//! untraced call commits (the parent process compares the trees). Kernel
//! spans are probes: each kernel is re-run on its stage's own inputs,
//! after the partition, and reported next to its stage. Spans stay in
//! memory and are written to one JSONL file at the end.

use crate::stats::Summary;
use crate::workload::{self, Workload, THREADS};
use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_ingest::{
    gen_dir_name, write_delta, GenerationEntry, GenerationManifest, GenerationOutcome, CURRENT_DIR,
    GENS_DIR,
};
use epc_journal::{hash_hex, write_atomic, ArtifactRecord, Journal, StageEntry, MANIFEST_FILE};
use epc_mining::dbscan::dbscan_with_runtime;
use epc_mining::elbow::sse_curve_with_runtime;
use epc_mining::kdistance::estimate_dbscan_params;
use epc_mining::rules::mine_rules_traced_with_runtime;
use epc_mining::{KMeans, KMeansConfig, Matrix, MinMaxScaler, TransactionSet};
use epc_model::csv::to_csv;
use epc_model::{wellknown as wk, Dataset, Quarantine};
use epc_query::predicate::Predicate;
use epc_query::query::Query;
use epc_query::Stakeholder;
use epc_runtime::{Engine, RuntimeConfig};
use indice::analytics::{analyze_observed, AnalyticsOutput};
use indice::checkpoint::{
    decode_analytics, decode_clean_phase, encode_analytics, encode_clean_phase, encode_preprocess,
};
use indice::dashboard::{build_dashboard_with_engine, drilldown_series_detailed_with_runtime};
use indice::durable::{CHECKPOINT_DIR, DASHBOARD_FILE};
use indice::preprocess::{
    clean_phase, merge_clean_phases, outlier_phase, CleanPhase, PreprocessOutput,
};
use indice::{IndiceConfig, KSelection, CLEAN_DELTA_FILE};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

const STAKEHOLDER: Stakeholder = Stakeholder::PublicAdministration;

/// How many times the traced child runs the decomposed call, and then
/// each probe; every time it reports is the median over the repeats.
const REPEATS: usize = 3;

/// Rows `estimate_dbscan_params` sees at most (the outlier phase's
/// stride sample).
const PARAM_ESTIMATION_SAMPLE: usize = 1_500;

/// Stage spans: together they partition the traced run.
const STAGES: &[&str] = &[
    "ingest.manifest_load",
    "journal.hash",
    "journal.decode",
    "geo.clean",
    "ingest.merge",
    "stage.outlier",
    "stage.analytics",
    "viz.dashboard",
    "viz.render_html",
    "journal.encode",
    "journal.write",
];

/// One timed interval: name, start and end (seconds since the child
/// started), and the index of the enclosing span.
struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its index.
    fn enter(&mut self, name: &str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    fn exit(&mut self) {
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total duration of the spans directly under `root` whose name
    /// `keep` accepts; `None` when there is none.
    fn under(&self, root: usize, keep: impl Fn(&str) -> bool) -> Option<f64> {
        let mut spans = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root) && keep(&s.name))
            .peekable();
        spans.peek()?;
        Some(spans.map(|s| s.end - s.start).sum())
    }

    /// Median over `roots` of the time spent in spans named `name`
    /// directly under each root; `None` when no root has such a span.
    fn median_under(&self, roots: &[usize], name: &str) -> Option<f64> {
        let per_root: Vec<f64> = roots
            .iter()
            .filter_map(|&r| self.under(r, |n| n == name))
            .collect();
        Summary::of(&per_root).map(|s| s.median)
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = serde_json::json!({
                "id": id,
                "name": s.name.as_str(),
                "parent": s.parent,
                "start_s": s.start,
                "end_s": s.end,
            });
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

/// Per-layer metrics: name → (value, unit).
#[derive(Default)]
struct Layers(BTreeMap<String, (f64, &'static str)>);

impl Layers {
    fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_owned(), (value, unit));
    }

    fn count(&mut self, name: &str, value: usize) {
        self.set(name, value as f64, "count");
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Everything the stages of the decomposed run produced, for the probes.
struct Products {
    /// The category-selected rows the cleaning pass received, the geocoder
    /// quota it was granted, and the clean phase it returned.
    selected: Dataset,
    quota: usize,
    geo: CleanPhase,
    /// The clean phase the outlier phase received (merged, for append).
    clean: CleanPhase,
    pre: PreprocessOutput,
    analytics: AnalyticsOutput,
    dashboard_artifacts: BTreeMap<String, String>,
    dashboard_html: String,
    markers: usize,
    preprocess_ckpt: String,
    analytics_ckpt: String,
}

/// The traced child: loads the inputs, runs the decomposed call and the
/// probes, writes the spans to `trace_file`, and returns one JSON line
/// with the per-layer metrics and the tree hash of the committed run
/// directory.
pub fn run(
    w: &Workload,
    inputs: &Path,
    run_dir: &Path,
    trace_file: &Path,
) -> Result<String, String> {
    let mut t = Tracer::new();
    let mut m = Layers::default();

    let setup = t.enter("setup");
    let files = workload::csv_files(w);
    let mut parse_quarantine = Quarantine::new();
    let mut batches = Vec::new();
    let mut csv_bytes = 0;
    t.enter("model.csv_parse");
    for file in files {
        let (dataset, bytes) = workload::load_csv(&inputs.join(&file), &mut parse_quarantine)?;
        csv_bytes += bytes;
        batches.push(indice::IngestBatch::new(file, dataset));
    }
    t.exit();
    let loaded = workload::Loaded {
        batches,
        parse_quarantine,
        street_map: workload::load_street_map(inputs)?,
        hierarchy: workload::load_regions(inputs)?,
    };
    t.exit();
    let csv_parse = t.under(setup, |n| n == "model.csv_parse");
    m.set("model.csv_parse_s", csv_parse.unwrap_or(0.0), "s");
    m.set("model.csv_mb", csv_bytes as f64 / 1e6, "MB");
    m.count("model.records_in", loaded.records_in());

    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let ctx = Ctx {
        config: IndiceConfig::default(),
        runtime: RuntimeConfig::new(THREADS),
        street_map: &loaded.street_map,
        hierarchy: &loaded.hierarchy,
        obs: &obs,
    };

    // The measured call and its decomposition alternate REPEATS times,
    // each from the run directory the parent prepared, so that coverage
    // compares times taken under the same machine load.
    let pristine = run_dir.with_extension("pristine");
    crate::tree::remove_tree(&pristine)?;
    if run_dir.exists() {
        crate::tree::copy_tree(run_dir, &pristine)?;
    }
    let reset = || -> Result<(), String> {
        crate::tree::remove_tree(run_dir)?;
        if pristine.exists() {
            crate::tree::copy_tree(&pristine, run_dir)?;
        }
        Ok(())
    };
    let mut untraced = Vec::with_capacity(REPEATS);
    let mut runs = Vec::with_capacity(REPEATS);
    let mut products = None;
    for _ in 0..REPEATS {
        reset()?;
        let (run_s, _) = if w.is_append() {
            crate::child::fold_last_batch(w, &loaded, run_dir, 0)?
        } else {
            crate::child::one_shot(loaded.clone(), run_dir)?
        };
        untraced.push(run_s);
        reset()?;
        runs.push(t.enter("run"));
        products = Some(if w.is_append() {
            fold_last_batch(&mut t, &ctx, &loaded.batches, run_dir)?
        } else {
            let dataset = &loaded.batches.first().ok_or("no input batch")?.dataset;
            one_shot(&mut t, &ctx, dataset, run_dir)?
        });
        t.exit();
    }
    crate::tree::remove_tree(&pristine)?;
    let products = products.ok_or("no traced run")?;
    let stage_sums: Vec<f64> = runs
        .iter()
        .filter_map(|&r| t.under(r, |n| STAGES.contains(&n)))
        .collect();
    let median = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.median);
    m.set(
        "trace.coverage",
        median(&stage_sums) / median(&untraced).max(f64::MIN_POSITIVE),
        "ratio",
    );

    let mut probes = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        probes.push(t.enter("probes"));
        probe_geo(&mut t, &mut m, &ctx, &products)?;
        probe_outliers(&mut t, &mut m, &ctx, &products)?;
        probe_analytics(&mut t, &mut m, &ctx, &products)?;
        probe_viz(&mut t, &mut m, &ctx, &products)?;
        if !w.is_append() {
            probe_resume(&mut t, &products, run_dir)?;
            probe_merge(&mut t, &ctx, &products)?;
        }
        t.exit();
    }

    // A stage of the partition reports its median over the runs; a name
    // the partition lacks (the resume and merge costs of a one-shot run)
    // reports its probe's median.
    let time = |name: &str| {
        t.median_under(&runs, name)
            .or_else(|| t.median_under(&probes, name))
            .unwrap_or(0.0)
    };
    for stage in STAGES {
        m.set(&format!("{stage}_s"), time(stage), "s");
    }
    for probe in [
        "geo.match_busy",
        "geo.clean_columnar",
        "outliers.univariate",
        "mining.kdistance",
        "mining.dbscan",
        "stage.analytics_columnar",
        "mining.elbow",
        "mining.kmeans",
        "mining.apriori",
        "viz.dashboard_columnar",
    ] {
        m.set(&format!("{probe}_s"), time(probe), "s");
    }
    // Stage minus its probes. Both come from separate executions, so a
    // stage whose kernels are nearly all of it can read slightly below 0.
    let rest =
        |stage: &str, kernels: &[&str]| time(stage) - kernels.iter().map(|k| time(k)).sum::<f64>();
    m.set(
        "outliers.rest_s",
        rest("stage.outlier", &["outliers.univariate", "mining.dbscan"]),
        "s",
    );
    m.set(
        "analytics.rest_s",
        rest(
            "stage.analytics",
            &["mining.elbow", "mining.kmeans", "mining.apriori"],
        ),
        "s",
    );
    let checkpoint_bytes = products.preprocess_ckpt.len() + products.analytics_ckpt.len();
    m.set("journal.checkpoint_bytes", checkpoint_bytes as f64, "B");
    m.set(
        "journal.bytes_written",
        crate::tree::tree_bytes(run_dir)? as f64,
        "B",
    );
    m.count("runtime.threads", THREADS);

    let tree = crate::tree::tree_hash(run_dir)?;
    if w.is_append() {
        equals_one_shot(inputs, run_dir, &ctx)?;
    }

    fs::write(trace_file, t.to_jsonl()).map_err(err("writing the trace"))?;
    let metrics: serde_json::Map<String, serde_json::Value> =
        m.0.iter()
            .map(|(k, (v, u))| (k.clone(), serde_json::json!({"value": *v, "unit": *u})))
            .collect();
    Ok(serde_json::json!({
        "tree": tree,
        "metrics": serde_json::Value::Object(metrics),
    })
    .to_string())
}

/// What the traced child reports: per-layer metrics and the run
/// directory's tree hash.
pub struct TracedRun {
    pub layers: BTreeMap<String, (f64, String)>,
    pub tree: String,
}

/// Parses the traced child's line.
pub fn parse(line: &str) -> Result<TracedRun, String> {
    let v: serde_json::Value =
        serde_json::from_str(line).map_err(|e| format!("bad traced output {line:?}: {e}"))?;
    let tree = v
        .get("tree")
        .and_then(serde_json::Value::as_str)
        .ok_or("traced output lacks the tree hash")?
        .to_owned();
    let mut layers = BTreeMap::new();
    let metrics = v
        .get("metrics")
        .and_then(serde_json::Value::as_object)
        .ok_or("traced output lacks metrics")?;
    for (name, entry) in metrics.iter() {
        let value = entry
            .get("value")
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("traced metric {name} lacks a value"))?;
        let unit = entry
            .get("unit")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("traced metric {name} lacks a unit"))?;
        layers.insert(name.clone(), (value, unit.to_owned()));
    }
    Ok(TracedRun { layers, tree })
}

/// Shared inputs of the decomposed call.
struct Ctx<'a> {
    config: IndiceConfig,
    runtime: RuntimeConfig,
    street_map: &'a StreetMap,
    hierarchy: &'a RegionHierarchy,
    obs: &'a epc_obs::Obs<'a>,
}

/// The durable runner's configuration fingerprint.
fn config_fingerprint(ctx: &Ctx<'_>) -> Result<String, String> {
    let streets = ctx.street_map.to_text()?;
    let regions = serde_json::to_string(ctx.hierarchy).map_err(err("serializing regions"))?;
    let text = format!("{:?}|{STAKEHOLDER:?}|{streets}|{regions}", ctx.config);
    Ok(hash_hex(text.as_bytes()))
}

fn select(dataset: &Dataset, config: &IndiceConfig) -> Result<Dataset, String> {
    match &config.building_category {
        Some(cat) => Query::filtered(Predicate::eq(wk::BUILDING_CATEGORY, cat))
            .run(dataset)
            .map_err(err("category selection")),
        None => Ok(dataset.clone()),
    }
}

/// Analytics and dashboard over the preprocess product, then the encoded
/// checkpoints — the stages after preprocessing, shared by both call
/// shapes. The caller commits the files.
struct Rest {
    analytics: AnalyticsOutput,
    artifacts: BTreeMap<String, String>,
    html: String,
    markers: usize,
    analytics_ckpt: String,
}

fn analytics_and_dashboard(
    t: &mut Tracer,
    ctx: &Ctx<'_>,
    pre: &PreprocessOutput,
) -> Result<Rest, String> {
    let analytics = t
        .span("stage.analytics", || {
            analyze_observed(&pre.dataset, &ctx.config, &ctx.runtime, Some(ctx.obs))
        })
        .map_err(err("analytics"))?;
    let analytics_ckpt = t.span("journal.encode", || encode_analytics(&analytics));
    let (dashboard, artifacts, markers) = t.span("viz.dashboard", || {
        dashboard(ctx, &pre.dataset, &analytics, ctx.runtime)
    })?;
    let html = t.span("viz.render_html", || dashboard.render_html());
    Ok(Rest {
        analytics,
        artifacts,
        html,
        markers,
        analytics_ckpt,
    })
}

/// The dashboard stage: main dashboard plus the drill-down pages.
fn dashboard(
    ctx: &Ctx<'_>,
    cleaned: &Dataset,
    analytics: &AnalyticsOutput,
    runtime: RuntimeConfig,
) -> Result<
    (
        epc_viz::dashboard::Dashboard,
        BTreeMap<String, String>,
        usize,
    ),
    String,
> {
    let top_k = ctx.config.rule_stage.top_k;
    let out = build_dashboard_with_engine(
        cleaned,
        ctx.hierarchy,
        analytics,
        STAKEHOLDER,
        top_k,
        runtime.engine,
    )
    .map_err(err("dashboard"))?;
    let pages = drilldown_series_detailed_with_runtime(
        cleaned,
        ctx.hierarchy,
        analytics,
        STAKEHOLDER,
        top_k,
        &runtime,
    )
    .map_err(err("drill-down pages"))?;
    let mut artifacts = out.artifacts;
    let mut markers = out.n_markers;
    for page in pages {
        markers += page.markers;
        artifacts.insert(page.file, page.html);
    }
    Ok((out.dashboard, artifacts, markers))
}

/// The three journal entries a complete durable run commits.
fn stage_entries(
    config_fp: &str,
    input_hash: &str,
    selected_rows: usize,
    pre: &PreprocessOutput,
    quarantine: &Quarantine,
    rest: &Rest,
    checkpoints: [Vec<ArtifactRecord>; 3],
) -> Vec<StageEntry> {
    let kept = pre.dataset.n_rows();
    let counts = [
        (
            selected_rows,
            kept,
            quarantine.len(),
            quarantine.histogram(),
        ),
        (kept, rest.analytics.feature_rows.len(), 0, BTreeMap::new()),
        (kept, rest.artifacts.len(), 0, BTreeMap::new()),
    ];
    ["preprocess", "analytics", "dashboard"]
        .into_iter()
        .zip(counts)
        .zip(checkpoints)
        .enumerate()
        .map(
            |(seq, ((stage, (records_in, records_out, quarantined, faults)), checkpoints))| {
                StageEntry {
                    seq,
                    stage: stage.to_owned(),
                    config_fingerprint: config_fp.to_owned(),
                    input_hash: input_hash.to_owned(),
                    degraded: false,
                    reasons: Vec::new(),
                    records_in,
                    records_out,
                    quarantined,
                    faults,
                    checkpoints,
                }
            },
        )
        .collect()
}

/// `Indice::run_durable` on a fresh directory, stage by stage.
fn one_shot(
    t: &mut Tracer,
    ctx: &Ctx<'_>,
    dataset: &Dataset,
    run_dir: &Path,
) -> Result<Products, String> {
    let ckpt_dir = run_dir.join(CHECKPOINT_DIR);
    let journal = Journal::at(run_dir);
    let (config_fp, input_hash) = t.span("journal.hash", || {
        fs::create_dir_all(&ckpt_dir).map_err(err("creating the run directory"))?;
        Ok::<_, String>((
            config_fingerprint(ctx)?,
            hash_hex(to_csv(dataset).as_bytes()),
        ))
    })?;

    let selected = t.span("geo.clean", || select(dataset, &ctx.config))?;
    let selected_copy = selected.clone();
    let clean = t
        .span("geo.clean", || {
            clean_phase(
                selected,
                ctx.street_map,
                &ctx.config,
                &ctx.runtime,
                None,
                Some(ctx.obs),
                ctx.config.geocoder_quota,
            )
        })
        .map_err(err("clean phase"))?;
    let clean_copy = clean.clone();
    let (pre, quarantine) = t
        .span("stage.outlier", || {
            outlier_phase(clean, &ctx.config, &ctx.runtime, Some(ctx.obs))
        })
        .map_err(err("outlier phase"))?;
    let preprocess_ckpt = t.span("journal.encode", || encode_preprocess(&pre, &quarantine));
    let pre_rec = t.span("journal.write", || {
        write_atomic(
            &ckpt_dir,
            "preprocess.ckpt.json",
            preprocess_ckpt.as_bytes(),
        )
    });
    let pre_rec = under_checkpoints(pre_rec.map_err(err("writing the preprocess checkpoint"))?);

    let rest = analytics_and_dashboard(t, ctx, &pre)?;
    let records = t.span("journal.write", || {
        let an = write_atomic(
            &ckpt_dir,
            "analytics.ckpt.json",
            rest.analytics_ckpt.as_bytes(),
        )?;
        let mut dash = vec![write_atomic(run_dir, DASHBOARD_FILE, rest.html.as_bytes())?];
        for (file, content) in &rest.artifacts {
            dash.push(write_atomic(run_dir, file, content.as_bytes())?);
        }
        Ok::<_, std::io::Error>((an, dash))
    });
    let (an_rec, dash_recs) = records.map_err(err("writing checkpoints"))?;
    let entries = stage_entries(
        &config_fp,
        &input_hash,
        selected_copy.n_rows(),
        &pre,
        &quarantine,
        &rest,
        [vec![pre_rec], vec![under_checkpoints(an_rec)], dash_recs],
    );
    // The durable runner appends each stage's line right after its
    // checkpoint; the lines are the same, so append them together.
    t.span("journal.write", || {
        entries.iter().try_for_each(|e| journal.append(e))
    })
    .map_err(err("appending the journal"))?;

    Ok(Products {
        selected: selected_copy,
        quota: ctx.config.geocoder_quota,
        geo: clean_copy.clone(),
        clean: clean_copy,
        pre,
        analytics: rest.analytics,
        dashboard_artifacts: rest.artifacts,
        dashboard_html: rest.html,
        markers: rest.markers,
        preprocess_ckpt,
        analytics_ckpt: rest.analytics_ckpt,
    })
}

fn under_checkpoints(rec: ArtifactRecord) -> ArtifactRecord {
    ArtifactRecord {
        file: format!("{CHECKPOINT_DIR}/{}", rec.file),
        ..rec
    }
}

fn record_for(file: &str, contents: &str) -> ArtifactRecord {
    ArtifactRecord {
        file: file.to_owned(),
        sha256: hash_hex(contents.as_bytes()),
        bytes: contents.len() as u64,
    }
}

/// `indice::ingest(.., resuming)` folding the last batch into the sealed
/// prefix, stage by stage.
fn fold_last_batch(
    t: &mut Tracer,
    ctx: &Ctx<'_>,
    batches: &[indice::IngestBatch],
    run_dir: &Path,
) -> Result<Products, String> {
    let last = batches.len() - 1;
    let current_dir = run_dir.join(CURRENT_DIR);
    let manifest = GenerationManifest::at(run_dir);
    let sealed = t.span("ingest.manifest_load", || {
        let (loaded, _tip) = manifest.load_validated()?;
        for entry in &loaded.entries {
            for rec in &entry.checkpoints {
                rec.read_verified(run_dir)?;
            }
        }
        Ok::<_, std::io::Error>(loaded.entries)
    });
    let sealed = sealed.map_err(err("loading the generation manifest"))?;
    check(sealed.len() == last, || {
        format!("{} sealed generations, expected {last}", sealed.len())
    })?;
    let (config_fp, batch_hashes) = t.span("journal.hash", || {
        let hashes: Vec<String> = batches
            .iter()
            .map(|b| hash_hex(to_csv(&b.dataset).as_bytes()))
            .collect();
        Ok::<_, String>((config_fingerprint(ctx)?, hashes))
    })?;

    let mut phases = t.span("journal.decode", || {
        sealed
            .iter()
            .map(|entry| {
                let rec = entry
                    .checkpoints
                    .first()
                    .ok_or("sealed generation has no delta")?;
                let bytes = rec
                    .read_verified(run_dir)
                    .map_err(err("re-reading a delta"))?;
                let text = String::from_utf8(bytes).map_err(err("delta not UTF-8"))?;
                decode_clean_phase(&text).map_err(err("decoding a delta"))
            })
            .collect::<Result<Vec<CleanPhase>, String>>()
    })?;
    let quota_used: usize = phases.iter().map(|p| p.cleaning.geocoder_requests).sum();

    let batch = &batches[last];
    let selected = t.span("geo.clean", || select(&batch.dataset, &ctx.config))?;
    let selected_copy = selected.clone();
    let quota = ctx.config.geocoder_quota.saturating_sub(quota_used);
    let phase = t
        .span("geo.clean", || {
            clean_phase(
                selected,
                ctx.street_map,
                &ctx.config,
                &ctx.runtime,
                None,
                Some(ctx.obs),
                quota,
            )
        })
        .map_err(err("clean phase"))?;
    let batch_input_rows = phase.input_rows;
    let delta_text = t.span("journal.encode", || encode_clean_phase(&phase));
    let delta_rel = format!("{GENS_DIR}/{}/{CLEAN_DELTA_FILE}", gen_dir_name(last));
    let written = t
        .span("journal.write", || {
            write_delta(&run_dir.join(&delta_rel), delta_text.as_bytes())
        })
        .map_err(err("writing the clean delta"))?;
    let delta_rec = ArtifactRecord {
        file: delta_rel,
        sha256: written.sha256,
        bytes: written.bytes,
    };
    let batch_offset: usize = phases.iter().map(|p| p.input_rows).sum();
    let batch_quarantine = phase.quarantine.clone();
    let geo_phase = phase.clone();
    phases.push(phase);

    let (merged, cumulative) = t.span("ingest.merge", || {
        let mut cum = batches[0].dataset.clone();
        for b in &batches[1..] {
            cum.append(&b.dataset).map_err(err("appending batches"))?;
        }
        Ok::<_, String>((merge_clean_phases(phases.clone()), cum))
    })?;
    let merged = merged.map_err(err("merging clean phases"))?;
    let input_hash = t.span("journal.hash", || hash_hex(to_csv(&cumulative).as_bytes()));
    let merged_input_rows = merged.input_rows;
    let clean_copy = merged.clone();
    let (pre, quarantine) = t
        .span("stage.outlier", || {
            outlier_phase(merged, &ctx.config, &ctx.runtime, Some(ctx.obs))
        })
        .map_err(err("outlier phase"))?;
    let records_kept = pre
        .kept_rows
        .iter()
        .filter(|&&r| r >= batch_offset && r < batch_offset + batch_input_rows)
        .count();

    let rest = analytics_and_dashboard(t, ctx, &pre)?;
    let preprocess_ckpt = t.span("journal.encode", || encode_preprocess(&pre, &quarantine));

    // `current/`: the same files a one-shot durable run writes, each
    // rewritten only when its bytes changed.
    let mut files: Vec<(String, String)> = vec![
        (
            format!("{CHECKPOINT_DIR}/preprocess.ckpt.json"),
            preprocess_ckpt.clone(),
        ),
        (
            format!("{CHECKPOINT_DIR}/analytics.ckpt.json"),
            rest.analytics_ckpt.clone(),
        ),
        (DASHBOARD_FILE.to_owned(), rest.html.clone()),
    ];
    files.extend(rest.artifacts.iter().map(|(f, c)| (f.clone(), c.clone())));
    let recs: Vec<ArtifactRecord> = files.iter().map(|(f, c)| record_for(f, c)).collect();
    let entries = stage_entries(
        &config_fp,
        &input_hash,
        merged_input_rows,
        &pre,
        &quarantine,
        &rest,
        [
            vec![recs[0].clone()],
            vec![recs[1].clone()],
            recs[2..].to_vec(),
        ],
    );
    let mut journal_text = String::new();
    for e in &entries {
        journal_text.push_str(&serde_json::to_string(e).map_err(err("serializing the journal"))?);
        journal_text.push('\n');
    }
    files.push((MANIFEST_FILE.to_owned(), journal_text));

    let prev_current = sealed.last().map(|e| e.current.clone()).unwrap_or_default();
    let (current, written, carried) = t
        .span("journal.write", || {
            let mut current = Vec::new();
            let (mut written, mut carried) = (0, 0);
            for (file, content) in &files {
                let rec = record_for(file, content);
                if prev_current.contains(&rec) && rec.read_verified(&current_dir).is_ok() {
                    carried += 1;
                } else {
                    write_delta(&current_dir.join(file), content.as_bytes())?;
                    written += 1;
                }
                current.push(rec);
            }
            Ok::<_, std::io::Error>((current, written, carried))
        })
        .map_err(err("writing current/"))?;
    let parent = sealed
        .last()
        .map(GenerationEntry::chain_hash)
        .unwrap_or_default();
    let entry = GenerationEntry {
        seq: last,
        batch: batch.name.clone(),
        batch_hash: batch_hashes[last].clone(),
        config_fingerprint: config_fp,
        cumulative_input_hash: input_hash,
        parent,
        outcome: GenerationOutcome::Complete,
        reasons: Vec::new(),
        recompute: indice::RecomputeMode::Exact.as_str().to_owned(),
        records_in: batch_input_rows,
        records_kept,
        quarantined: batch_quarantine.len(),
        faults: batch_quarantine.histogram(),
        artifacts_written: written,
        artifacts_carried: carried,
        checkpoints: vec![delta_rec],
        current,
    };
    t.span("journal.write", || manifest.append(&entry))
        .map_err(err("appending the generation manifest"))?;

    Ok(Products {
        selected: selected_copy,
        quota,
        geo: geo_phase,
        clean: clean_copy,
        pre,
        analytics: rest.analytics,
        dashboard_artifacts: rest.artifacts,
        dashboard_html: rest.html,
        markers: rest.markers,
        preprocess_ckpt,
        analytics_ckpt: rest.analytics_ckpt,
    })
}

/// Street matching: every selected row's street through
/// `StreetMap::best_match`, one thread, one timer per call; the clean
/// phase under the columnar engine, which must return the same phase.
fn probe_geo(t: &mut Tracer, m: &mut Layers, ctx: &Ctx<'_>, p: &Products) -> Result<(), String> {
    let addr = p
        .selected
        .schema()
        .require(wk::ADDRESS)
        .map_err(err("address column"))?;
    let streets: Vec<&str> = (0..p.selected.n_rows())
        .map(|r| p.selected.cat(r, addr).unwrap_or(""))
        .collect();
    let phi = ctx.config.cleaning.phi;
    let mut call_us = Vec::with_capacity(streets.len());
    let (mut hits, mut exact) = (0usize, 0usize);
    t.span("geo.match_busy", || {
        for street in &streets {
            let start = Instant::now();
            let hit = ctx.street_map.best_match(street, phi);
            call_us.push(start.elapsed().as_secs_f64() * 1e6);
            if let Some(h) = std::hint::black_box(hit) {
                hits += 1;
                if h.similarity >= 1.0 {
                    exact += 1;
                }
            }
        }
    });
    let calls = streets.len().max(1);
    let mut distinct = streets.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let us = crate::stats::percentiles(&call_us, &[0.5, 0.99]);
    m.count("geo.match_calls", streets.len());
    m.count("geo.match_distinct", distinct.len());
    m.set("geo.match_p50_us", us[0], "us");
    m.set("geo.match_p99_us", us[1], "us");
    m.set("geo.match_hit_ratio", hits as f64 / calls as f64, "ratio");
    m.set("geo.exact_ratio", exact as f64 / calls as f64, "ratio");
    m.count("geo.street_names", ctx.street_map.n_streets());

    let selected = p.selected.clone();
    let columnar = t
        .span("geo.clean_columnar", || {
            let runtime = ctx.runtime.with_engine(Engine::Columnar);
            clean_phase(
                selected,
                ctx.street_map,
                &ctx.config,
                &runtime,
                None,
                None,
                p.quota,
            )
        })
        .map_err(err("columnar clean phase"))?;
    check(columnar == p.geo, || {
        "columnar clean phase differs from the row one".into()
    })?;
    m.count("geo.geocoder_requests", p.geo.cleaning.geocoder_requests);
    m.count("geo.unresolved", p.geo.cleaning.unresolved);
    Ok(())
}

/// The outlier phase's kernels on its own input: the univariate detectors,
/// the k-distance parameter estimation and DBSCAN, each of which must
/// reproduce the phase's result.
fn probe_outliers(
    t: &mut Tracer,
    m: &mut Layers,
    ctx: &Ctx<'_>,
    p: &Products,
) -> Result<(), String> {
    let data = &p.clean.dataset;
    let mut flagged = 0;
    for (attr, method) in &ctx.config.outliers.univariate {
        let id = data
            .schema()
            .require(attr)
            .map_err(err("univariate attribute"))?;
        let (values, _) = data.numeric_with_rows(id);
        flagged += t.span("outliers.univariate", || method.detect(&values).len());
    }
    m.count("outliers.univariate_flagged", flagged);

    let params = p
        .pre
        .dbscan_params
        .as_ref()
        .ok_or("the outlier phase ran no DBSCAN")?;
    let (_, scaled) = scaled_features(&ctx.config, data)?;
    let stride = (scaled.n_rows() / PARAM_ESTIMATION_SAMPLE).max(1);
    let sample_rows: Vec<Vec<f64>> = (0..scaled.n_rows())
        .step_by(stride)
        .map(|i| scaled.row(i).to_vec())
        .collect();
    let sample = Matrix::from_rows(&sample_rows);
    let outliers = &ctx.config.outliers;
    let estimated = t.span("mining.kdistance", || {
        estimate_dbscan_params(
            &sample,
            &outliers.min_points_candidates,
            outliers.stability_tol,
        )
    });
    check(estimated.as_ref() == Some(params), || {
        format!("k-distance probe estimates {estimated:?}, the outlier phase {params:?}")
    })?;
    let result = t.span("mining.dbscan", || {
        dbscan_with_runtime(&scaled, params, &ctx.runtime)
    });
    let noise = result.noise_indices().len();
    check(noise == p.pre.multivariate_flagged.len(), || {
        format!(
            "DBSCAN probe flags {noise} points, the outlier phase {}",
            p.pre.multivariate_flagged.len()
        )
    })?;
    let points = result.labels.len();
    m.count("mining.dbscan_points", points);
    m.count("mining.dbscan_neighbour_links", result.neighbour_links);
    m.set(
        "mining.dbscan_links_per_point",
        result.neighbour_links as f64 / points.max(1) as f64,
        "count",
    );
    m.count("mining.dbscan_noise", noise);
    Ok(())
}

/// Complete rows of the configured features, min-max scaled — the matrix
/// both DBSCAN and K-means see.
fn scaled_features(config: &IndiceConfig, data: &Dataset) -> Result<(Vec<usize>, Matrix), String> {
    let ids = config
        .analytics
        .features
        .iter()
        .map(|f| data.schema().require(f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("feature column"))?;
    let mut rows = Vec::new();
    let mut values = Vec::new();
    for r in 0..data.n_rows() {
        let row: Option<Vec<f64>> = ids.iter().map(|&id| data.num(r, id)).collect();
        if let Some(v) = row {
            rows.push(r);
            values.extend(v);
        }
    }
    let matrix = Matrix::from_vec(values, rows.len(), ids.len());
    let (_, scaled) = MinMaxScaler::fit_transform(&matrix).ok_or("empty feature matrix")?;
    Ok((rows, scaled))
}

/// The analytics stage's kernels on its own input: the elbow sweep, the
/// final K-means fit and Apriori; then the stage under the columnar
/// engine, which must encode to the same checkpoint.
fn probe_analytics(
    t: &mut Tracer,
    m: &mut Layers,
    ctx: &Ctx<'_>,
    p: &Products,
) -> Result<(), String> {
    let a = &ctx.config.analytics;
    let data = &p.pre.dataset;
    let (rows, scaled) = scaled_features(&ctx.config, data)?;
    check(rows == p.analytics.feature_rows, || {
        "feature rows differ from the stage's".into()
    })?;
    let base = KMeansConfig {
        k: 0,
        init: a.init,
        seed: a.seed,
        ..KMeansConfig::default()
    };
    if let KSelection::Elbow { k_min, k_max } = a.k {
        let curve = t.span("mining.elbow", || {
            sse_curve_with_runtime(&scaled, k_min..=k_max, &base, &ctx.runtime)
        });
        check(curve == p.analytics.sse_curve, || {
            "elbow curve differs from the stage's".into()
        })?;
    }
    let k = p.analytics.chosen_k;
    let fit = t.span("mining.kmeans", || {
        KMeans::new(KMeansConfig { k, ..base }).fit_traced(&scaled, &ctx.runtime)
    });
    let (model, fit_trace) = fit.ok_or("K-means probe fit failed")?;
    check(model.assignments == p.analytics.kmeans.assignments, || {
        "K-means probe assignments differ from the stage's".into()
    })?;
    m.count("mining.kmeans_iterations", fit_trace.round_inertia.len());

    let response = data
        .schema()
        .require(&a.response)
        .map_err(err("response column"))?;
    let mut transactions = TransactionSet::new();
    for &row in &p.analytics.feature_rows {
        let mut items: Vec<String> = Vec::new();
        for d in &p.analytics.discretizers {
            let id = data
                .schema()
                .require(&d.attribute)
                .map_err(err("discretized column"))?;
            if let Some(x) = data.num(row, id) {
                items.push(d.item(x));
            }
        }
        if let Some(y) = data.num(row, response) {
            items.push(p.analytics.response_discretizer.item(y));
        }
        transactions.push_owned(&items);
    }
    let (rules, apriori) = t.span("mining.apriori", || {
        mine_rules_traced_with_runtime(&transactions, &ctx.config.rule_stage.rules, &ctx.runtime)
    });
    check(rules == p.analytics.rules, || {
        "Apriori probe rules differ from the stage's".into()
    })?;
    m.count(
        "mining.apriori_candidates",
        apriori.levels.iter().map(|l| l.candidates).sum(),
    );
    m.count(
        "mining.apriori_pruned",
        apriori.levels.iter().map(|l| l.pruned).sum(),
    );
    m.count("mining.rules", rules.len());

    let columnar = t
        .span("stage.analytics_columnar", || {
            analyze_observed(
                data,
                &ctx.config,
                &ctx.runtime.with_engine(Engine::Columnar),
                None,
            )
        })
        .map_err(err("columnar analytics"))?;
    check(encode_analytics(&columnar) == p.analytics_ckpt, || {
        "columnar analytics differ from the row ones".into()
    })?;
    Ok(())
}

/// The dashboard stage under the columnar engine, which must render the
/// same bytes; output sizes.
fn probe_viz(t: &mut Tracer, m: &mut Layers, ctx: &Ctx<'_>, p: &Products) -> Result<(), String> {
    let columnar = ctx.runtime.with_engine(Engine::Columnar);
    let (dash, artifacts, markers) = t.span("viz.dashboard_columnar", || {
        dashboard(ctx, &p.pre.dataset, &p.analytics, columnar)
    })?;
    check(
        artifacts == p.dashboard_artifacts
            && dash.render_html() == p.dashboard_html
            && markers == p.markers,
        || "columnar dashboard differs from the row one".into(),
    )?;
    let html: usize = p.dashboard_html.len()
        + p.dashboard_artifacts
            .iter()
            .filter(|(f, _)| f.ends_with(".html"))
            .map(|(_, c)| c.len())
            .sum::<usize>();
    m.set("viz.html_bytes", html as f64, "B");
    m.count("viz.markers", p.markers);
    Ok(())
}

/// What resuming the fresh run would cost: validating its journal and
/// decoding its analytics checkpoint. (Decoding the preprocess checkpoint
/// grows with the square of its size and takes tens of seconds here; the
/// append workload pays that cost on its clean deltas inside its run.)
fn probe_resume(t: &mut Tracer, p: &Products, run_dir: &Path) -> Result<(), String> {
    t.span("ingest.manifest_load", || {
        let loaded = Journal::at(run_dir).load()?;
        for entry in &loaded.entries {
            for rec in &entry.checkpoints {
                rec.read_verified(run_dir)?;
            }
        }
        Ok::<_, std::io::Error>(())
    })
    .map_err(err("validating the journal"))?;
    let decoded = t
        .span("journal.decode", || decode_analytics(&p.analytics_ckpt))
        .map_err(err("decoding the analytics checkpoint"))?;
    check(encode_analytics(&decoded) == p.analytics_ckpt, || {
        "the decoded analytics checkpoint does not re-encode to the same bytes".into()
    })
}

/// What merging two ingest batches costs at this size: clean the selected
/// rows as two batches (quota carried) and merge them; the merge must
/// equal the one-shot clean phase.
fn probe_merge(t: &mut Tracer, ctx: &Ctx<'_>, p: &Products) -> Result<(), String> {
    let n = p.selected.n_rows();
    let half = |rows: std::ops::Range<usize>| {
        p.selected
            .select_rows(&rows.collect::<Vec<_>>())
            .map_err(err("splitting the selection"))
    };
    let first = clean_phase(
        half(0..n / 2)?,
        ctx.street_map,
        &ctx.config,
        &ctx.runtime,
        None,
        None,
        ctx.config.geocoder_quota,
    )
    .map_err(err("clean phase"))?;
    let quota = ctx
        .config
        .geocoder_quota
        .saturating_sub(first.cleaning.geocoder_requests);
    let second = clean_phase(
        half(n / 2..n)?,
        ctx.street_map,
        &ctx.config,
        &ctx.runtime,
        None,
        None,
        quota,
    )
    .map_err(err("clean phase"))?;
    let merged = t
        .span("ingest.merge", || merge_clean_phases(vec![first, second]))
        .map_err(err("merging clean phases"))?;
    // Appending keeps each batch's categorical dictionary order, so the
    // datasets compare by content.
    let same = to_csv(&merged.dataset) == to_csv(&p.clean.dataset)
        && CleanPhase {
            dataset: p.clean.dataset.clone(),
            ..merged
        } == p.clean;
    check(same, || {
        "two merged batches differ from the one-shot clean phase".into()
    })
}

/// Batched equals one-shot: `indice run` over the concatenated batches
/// must commit the tree the fold left in `current/`.
fn equals_one_shot(inputs: &Path, run_dir: &Path, ctx: &Ctx<'_>) -> Result<(), String> {
    let mut quarantine = Quarantine::new();
    let (dataset, _) = workload::load_csv(&inputs.join(workload::CSV_FILE), &mut quarantine)?;
    let one_shot_dir = run_dir.with_extension("one-shot");
    crate::tree::remove_tree(&one_shot_dir)?;
    let engine = indice::Indice::new(
        dataset,
        ctx.street_map.clone(),
        ctx.hierarchy.clone(),
        IndiceConfig::default(),
    )
    .with_runtime(ctx.runtime);
    engine
        .run_durable(STAKEHOLDER, &indice::DurableOptions::new(&one_shot_dir))
        .map_err(err("one-shot run"))?;
    let one_shot = crate::tree::tree_hash(&one_shot_dir)?;
    crate::tree::remove_tree(&one_shot_dir)?;
    let batched = crate::tree::tree_hash(&run_dir.join(CURRENT_DIR))?;
    check(one_shot == batched, || {
        format!("batched current/ {batched} differs from the one-shot run {one_shot}")
    })
}
