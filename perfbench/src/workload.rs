//! Workload definitions, seeded input generation, and the input loader the
//! measured children share with the untimed preparation step.

use epc_geo::region::RegionHierarchy;
use epc_geo::streetmap::StreetMap;
use epc_model::{Dataset, Quarantine};
use epc_synth::noise::{apply_noise, NoiseConfig};
use epc_synth::{CityConfig, EpcGenerator, SynthConfig};
use indice::{IngestBatch, IngestInputs, IngestOptions, IngestOutcome};
use std::fs;
use std::path::Path;

/// Worker threads of every measured run. Fixed, never read from the
/// environment, so no knob outside the benchmark can move its numbers.
pub const THREADS: usize = 2;

/// File names of the generated inputs.
pub const CSV_FILE: &str = "epcs.csv";
pub const STREETS_FILE: &str = "street_map.txt";
pub const REGIONS_FILE: &str = "regions.json";

/// Address noise applied to the generated certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Noise {
    /// `NoiseConfig::default()`.
    Default,
    /// The `indice generate --noise heavy` preset.
    Heavy,
}

/// One benchmark workload: the inputs it generates and the call it times.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Certificates generated (before `--scale`).
    pub records: usize,
    /// Streets per neighbourhood of the generated city (32 neighbourhoods).
    pub streets_per_neighbourhood: usize,
    pub noise: Noise,
    /// 1: one durable run over all records. n > 1: the records are split
    /// into n CSV batches; batches 0..n-1 are sealed untimed and the timed
    /// call folds the last one into the sealed run directory.
    pub batches: usize,
}

impl Workload {
    pub fn is_append(&self) -> bool {
        self.batches > 1
    }
}

pub const WORKLOADS: &[Workload] = &[
    // The paper's scenario: the default 192-street city, one durable run.
    // k-distance estimation and DBSCAN take over half of run_s and DBSCAN's
    // neighbour lists set peak memory; 89% of streets match exactly, so
    // street matching is a small share.
    Workload {
        name: "city-15k",
        records: 15_000,
        streets_per_neighbourhood: 6,
        noise: Noise::Default,
        batches: 1,
    },
    // The mirror image: a 6,400-street city with the `heavy` noise preset.
    // Fuzzy street matching and the geocoder fallback take most of run_s
    // and DBSCAN over 3k points is small. Nearly every raw street is
    // distinct, so a per-string memo alone cannot remove the cost.
    Workload {
        name: "streets-4k",
        records: 4_000,
        streets_per_neighbourhood: 200,
        noise: Noise::Heavy,
        batches: 1,
    },
    // The operator's append path: fold batch 5 of 5 into a run whose first
    // four batches were sealed untimed. Decoding the sealed clean deltas
    // takes over half of run_s; one-shot runs never decode, so a codec
    // change that trades encode for decode cost shows here only.
    Workload {
        name: "append-5x1.5k",
        records: 7_500,
        streets_per_neighbourhood: 6,
        noise: Noise::Default,
        batches: 5,
    },
];

pub fn find(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })
}

/// File name of batch `i` of an append workload.
pub fn batch_file(i: usize) -> String {
    format!("batch-{i}.csv")
}

/// Certificates generated for `w` at `scale` (at least 200, so the
/// pipeline always has enough rows to cluster).
pub fn scaled_records(w: &Workload, scale: f64) -> usize {
    ((w.records as f64 * scale).round() as usize).max(200)
}

fn io_err<'a>(what: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> String + 'a {
    move |e| format!("{what} {}: {e}", path.display())
}

/// Seed of the building stock and of the outliers injected into it.
///
/// DBSCAN's ε comes from the elbow of a sampled k-distance curve, and a
/// different stock or outlier draw moves it by ±8%, the neighbour lists
/// DBSCAN materialises by ±40%, and peak memory by ±20%. Holding the stock
/// fixed keeps those numbers comparable across seeds; `--seed` draws the
/// address noise, which is what the cleaning layer works on.
const STOCK_SEED: u64 = 2024;

/// Generates the inputs of `w` from `seed` into `dir`: the certificate CSV,
/// the referenced street map and the region hierarchy, plus one CSV per
/// batch for append workloads. The same seed writes the same bytes.
pub fn generate(w: &Workload, seed: u64, scale: f64, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(io_err("creating", dir))?;
    let mut collection = EpcGenerator::new(SynthConfig {
        n_records: scaled_records(w, scale),
        city: CityConfig {
            streets_per_neighbourhood: w.streets_per_neighbourhood,
            ..CityConfig::default()
        },
        seed: STOCK_SEED,
        ..SynthConfig::default()
    })
    .generate();
    let defaults = NoiseConfig::default();
    apply_noise(
        &mut collection,
        &NoiseConfig {
            univariate_outlier_rate: defaults.univariate_outlier_rate,
            multivariate_outlier_rate: defaults.multivariate_outlier_rate,
            seed: STOCK_SEED,
            ..NoiseConfig::none()
        },
    );
    let address_noise = match w.noise {
        Noise::Default => defaults,
        Noise::Heavy => NoiseConfig {
            typo_rate: 0.35,
            abbreviation_rate: 0.2,
            zip_missing_rate: 0.12,
            coord_missing_rate: 0.1,
            coord_wrong_rate: 0.06,
            ..defaults
        },
    };
    apply_noise(
        &mut collection,
        &NoiseConfig {
            univariate_outlier_rate: 0.0,
            multivariate_outlier_rate: 0.0,
            seed,
            ..address_noise
        },
    );

    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        fs::write(&path, text).map_err(io_err("writing", &path))
    };
    let dataset = &collection.dataset;
    write(CSV_FILE, &epc_model::csv::to_csv(dataset))?;
    write(STREETS_FILE, &collection.city.street_map.to_text()?)?;
    let regions = serde_json::to_string_pretty(&collection.city.hierarchy)
        .map_err(|e| format!("serializing regions: {e}"))?;
    write(REGIONS_FILE, &regions)?;
    if w.is_append() {
        let n = dataset.n_rows();
        for i in 0..w.batches {
            let rows: Vec<usize> = (i * n / w.batches..(i + 1) * n / w.batches).collect();
            let batch = dataset
                .select_rows(&rows)
                .map_err(|e| format!("splitting batch {i}: {e}"))?;
            write(&batch_file(i), &epc_model::csv::to_csv(&batch))?;
        }
    }
    Ok(())
}

/// Parsed inputs, exactly as `indice run` / `indice ingest` load them.
#[derive(Clone)]
pub struct Loaded {
    /// One dataset for one-shot workloads, one per batch for append ones.
    pub batches: Vec<IngestBatch>,
    /// Rows the lenient CSV reader diverted.
    pub parse_quarantine: Quarantine,
    pub street_map: StreetMap,
    pub hierarchy: RegionHierarchy,
}

impl Loaded {
    /// Certificates read, parsed or quarantined.
    pub fn records_in(&self) -> usize {
        self.batches
            .iter()
            .map(|b| b.dataset.n_rows())
            .sum::<usize>()
            + self.parse_quarantine.len()
    }
}

/// Reads one CSV with the lenient reader `indice run` uses.
pub fn load_csv(path: &Path, quarantine: &mut Quarantine) -> Result<(Dataset, usize), String> {
    let text = fs::read_to_string(path).map_err(io_err("reading", path))?;
    let schema = epc_model::schema::standard_epc_schema();
    let dataset = epc_model::csv::from_csv_lenient(schema, &text, quarantine)
        .map_err(|e| format!("parsing {}: {e}", path.display()))?;
    Ok((dataset, text.len()))
}

pub fn load_street_map(dir: &Path) -> Result<StreetMap, String> {
    let path = dir.join(STREETS_FILE);
    StreetMap::from_text(&fs::read_to_string(&path).map_err(io_err("reading", &path))?)
}

pub fn load_regions(dir: &Path) -> Result<RegionHierarchy, String> {
    let path = dir.join(REGIONS_FILE);
    let text = fs::read_to_string(&path).map_err(io_err("reading", &path))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// The CSV files the timed call reads: the whole CSV, or every batch.
pub fn csv_files(w: &Workload) -> Vec<String> {
    if w.is_append() {
        (0..w.batches).map(batch_file).collect()
    } else {
        vec![CSV_FILE.to_owned()]
    }
}

/// Loads the inputs of `w` from `dir`: its CSV files, the street map and
/// the regions.
pub fn load(w: &Workload, dir: &Path) -> Result<Loaded, String> {
    let files = csv_files(w);
    let mut parse_quarantine = Quarantine::new();
    let mut batches = Vec::with_capacity(files.len());
    for file in files {
        let (dataset, _) = load_csv(&dir.join(&file), &mut parse_quarantine)?;
        batches.push(IngestBatch::new(file, dataset));
    }
    Ok(Loaded {
        batches,
        parse_quarantine,
        street_map: load_street_map(dir)?,
        hierarchy: load_regions(dir)?,
    })
}

/// Seals every batch but the last of an append workload into `run_dir`
/// (untimed preparation). Returns the addresses those batches left
/// unresolved, which the timed fold cannot report by itself.
pub fn seal_prefix(w: &Workload, inputs: &Path, run_dir: &Path) -> Result<u64, String> {
    let loaded = load(w, inputs)?;
    let clock = epc_runtime::WallClock::new();
    let obs = epc_obs::Obs::new(&clock);
    let opts = IngestOptions::new(run_dir).with_obs(&obs);
    let out = indice::ingest(
        &loaded.batches[..w.batches - 1],
        ingest_inputs(&loaded),
        epc_query::Stakeholder::PublicAdministration,
        &opts,
    )
    .map_err(|e| format!("sealing batches: {e}"))?;
    if out.outcome != IngestOutcome::Complete {
        return Err(format!("sealing batches: outcome {:?}", out.outcome));
    }
    Ok(obs.metrics().counter("geocode_unresolved"))
}

/// The reference inputs of an ingest call over `loaded`.
pub fn ingest_inputs(loaded: &Loaded) -> IngestInputs<'_> {
    IngestInputs {
        street_map: &loaded.street_map,
        hierarchy: &loaded.hierarchy,
        config: indice::IndiceConfig::default(),
        runtime: epc_runtime::RuntimeConfig::new(THREADS),
    }
}
