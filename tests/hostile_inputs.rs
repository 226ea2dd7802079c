//! Hostile-input harness over every on-disk decoder.
//!
//! Journals, checkpoints, CSV and street maps are read back from disk on
//! every resume, and a disk fault or a stray edit can hand any of them
//! arbitrary bytes. The property for each decoder: a truncated or
//! byte-flipped copy of a small valid file either decodes to a value that
//! round-trips through its own encoder, or is rejected with an error —
//! it never panics. Fixtures come from one ~300-record synthetic ingest,
//! so checkpoint decoding (super-linear in size) stays fast.
// Test code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_coord::FleetEvent;
use epc_geo::StreetMap;
use epc_ingest::{GenerationEntry, GENERATIONS_FILE};
use epc_journal::{encode_lines, JournalEntry, Log, StageEntry, MANIFEST_FILE};
use epc_model::csv::{from_csv_lenient, to_csv};
use epc_model::{Quarantine, Schema};
use epc_query::Stakeholder;
use epc_runtime::RuntimeConfig;
use epc_synth::city::CityConfig;
use epc_synth::epcgen::{EpcGenerator, SynthConfig};
use epc_synth::noise::{apply_noise, NoiseConfig};
use indice::checkpoint::{
    decode_analytics, decode_clean_phase, decode_preprocess, encode_analytics, encode_clean_phase,
    encode_preprocess,
};
use indice::config::IndiceConfig;
use indice::durable::CHECKPOINT_DIR;
use indice::generations::{ingest, IngestBatch, IngestInputs, IngestOptions, CLEAN_DELTA_FILE};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A fresh, empty directory under the system temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "indice-hostile-{}-{}",
            std::process::id(),
            NEXT_DIR.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Valid on-disk bytes of every format, from one small ingest.
struct Fixtures {
    run_journal: Vec<u8>,
    generations: Vec<u8>,
    fleet_journal: Vec<u8>,
    preprocess: Vec<u8>,
    analytics: Vec<u8>,
    clean_delta: Vec<u8>,
    schema: Arc<Schema>,
    csv: Vec<u8>,
    street_map: Vec<u8>,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut c = EpcGenerator::new(SynthConfig {
            n_records: 300,
            city: CityConfig {
                n_districts: 2,
                neighbourhoods_per_district: 2,
                streets_per_neighbourhood: 2,
                houses_per_street: 6,
                ..CityConfig::default()
            },
            ..SynthConfig::default()
        })
        .generate();
        apply_noise(&mut c, &NoiseConfig::default());
        let rows = c.dataset.n_rows();
        let batches: Vec<IngestBatch> = [(0, rows / 2), (rows / 2, rows)]
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| {
                let indices: Vec<usize> = (start..end).collect();
                IngestBatch::new(
                    format!("batch-{i}.csv"),
                    c.dataset.select_rows(&indices).unwrap(),
                )
            })
            .collect();
        let dir = TempDir::new();
        let inputs = IngestInputs {
            street_map: &c.city.street_map,
            hierarchy: &c.city.hierarchy,
            config: IndiceConfig::default(),
            runtime: RuntimeConfig::new(1),
        };
        ingest(
            &batches,
            inputs,
            Stakeholder::PublicAdministration,
            &IngestOptions::new(&dir.0),
        )
        .expect("fixture ingest");
        let read = |rel: &str| fs::read(dir.0.join(rel)).expect(rel);
        let checkpoints = format!("current/{CHECKPOINT_DIR}");
        let fleet = [
            FleetEvent::scheduled("00-torino", "fp"),
            FleetEvent::started("00-torino", "fp", 1),
            FleetEvent::retried("00-torino", "fp", 1, 120, "stage panicked"),
            FleetEvent::started("00-torino", "fp", 2),
            FleetEvent::committed(
                "00-torino",
                "fp",
                2,
                false,
                Vec::new(),
                BTreeMap::from([("kept".to_owned(), "290".to_owned())]),
                Vec::new(),
            ),
        ];
        Fixtures {
            run_journal: read(&format!("current/{MANIFEST_FILE}")),
            generations: read(GENERATIONS_FILE),
            fleet_journal: encode_lines(&fleet).unwrap().into_bytes(),
            preprocess: read(&format!("{checkpoints}/preprocess.ckpt.json")),
            analytics: read(&format!("{checkpoints}/analytics.ckpt.json")),
            clean_delta: read(&format!("gens/gen-00000/{CLEAN_DELTA_FILE}")),
            schema: c.dataset.schema_arc(),
            csv: to_csv(&c.dataset).into_bytes(),
            street_map: c.city.street_map.to_text().unwrap().into_bytes(),
        }
    })
}

/// One case's damage: an optional cut and up to three byte overwrites,
/// each position a fraction of the file length.
#[derive(Debug, Clone)]
struct Damage {
    cut: Option<f64>,
    flips: Vec<(f64, u8)>,
}

impl Damage {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        let at = |frac: f64, len: usize| ((frac * len as f64) as usize).min(len.saturating_sub(1));
        let mut out = bytes.to_vec();
        if let Some(frac) = self.cut {
            out.truncate(at(frac, bytes.len()));
        }
        for &(frac, byte) in &self.flips {
            if !out.is_empty() {
                let i = at(frac, out.len());
                out[i] = byte;
            }
        }
        out
    }
}

/// Half the cases truncate; every case overwrites zero to three bytes,
/// mostly with ASCII so that the text decoders see valid UTF-8 and get
/// past the reader.
fn damage() -> impl Strategy<Value = Damage> {
    (
        (0u8..2, 0.0f64..1.0),
        prop::collection::vec((0.0f64..1.0, 0u8..160), 0..4),
    )
        .prop_map(|((cut, at), flips)| Damage {
            cut: (cut == 1).then_some(at),
            flips,
        })
}

/// Runs `decode_encode` (decode, then re-encode what was decoded) on
/// `damaged`. The case passes when the reader rejects the bytes (invalid
/// UTF-8 is rejected by `read_to_string` before any decoder runs) or the
/// decoder returns an error; an accepted value must re-decode to the same
/// encoding. A panic fails the case.
fn round_trips_or_rejects(
    what: &str,
    valid: &[u8],
    damage: &Damage,
    decode_encode: impl Fn(&str) -> Result<String, String>,
) -> Result<(), TestCaseError> {
    let damaged = damage.apply(valid);
    let Ok(text) = std::str::from_utf8(&damaged) else {
        return Ok(());
    };
    let Ok(first) = catch_unwind(AssertUnwindSafe(|| decode_encode(text))) else {
        return Err(TestCaseError::Fail(format!(
            "{what} panicked under {damage:?}"
        )));
    };
    let Ok(encoded) = first else {
        return Ok(());
    };
    let again = catch_unwind(AssertUnwindSafe(|| decode_encode(&encoded)));
    prop_assert!(
        matches!(&again, Ok(Ok(e)) if *e == encoded),
        "{what}: value accepted under {damage:?} does not round-trip"
    );
    Ok(())
}

/// Loads `damaged` as an `E` journal. A load either succeeds with
/// entries that survive their own re-encoding, or fails with an
/// `InvalidData` error naming the file.
fn journal_round_trips_or_rejects<E: JournalEntry + PartialEq + std::fmt::Debug>(
    valid: &[u8],
    damage: &Damage,
) -> Result<(), TestCaseError> {
    let dir = TempDir::new();
    let log = Log::<E>::at(&dir.0);
    fs::write(log.path(), damage.apply(valid)).unwrap();
    match catch_unwind(AssertUnwindSafe(|| log.load())) {
        Err(_) => Err(TestCaseError::Fail(format!(
            "{}: load panicked under {damage:?}",
            E::FILE
        ))),
        Ok(Err(e)) => {
            prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            prop_assert!(e.to_string().contains(E::FILE), "{e}");
            Ok(())
        }
        Ok(Ok(loaded)) => {
            let copy = Log::<E>::at(&dir.0.join("copy"));
            fs::create_dir_all(dir.0.join("copy")).unwrap();
            copy.rewrite(&loaded.entries).unwrap();
            let reloaded = copy.load().unwrap();
            prop_assert_eq!(reloaded.entries, loaded.entries);
            Ok(())
        }
    }
}

fn decode_encode_preprocess(text: &str) -> Result<String, String> {
    let (out, quarantine) = decode_preprocess(text).map_err(|e| e.to_string())?;
    Ok(encode_preprocess(&out, &quarantine))
}

fn decode_encode_analytics(text: &str) -> Result<String, String> {
    let out = decode_analytics(text).map_err(|e| e.to_string())?;
    Ok(encode_analytics(&out))
}

fn decode_encode_clean_phase(text: &str) -> Result<String, String> {
    let phase = decode_clean_phase(text).map_err(|e| e.to_string())?;
    Ok(encode_clean_phase(&phase))
}

fn decode_encode_csv(schema: &Arc<Schema>, text: &str) -> Result<String, String> {
    let mut quarantine = Quarantine::new();
    let ds = from_csv_lenient(schema.clone(), text, &mut quarantine).map_err(|e| e.to_string())?;
    Ok(to_csv(&ds))
}

fn decode_encode_street_map(text: &str) -> Result<String, String> {
    StreetMap::from_text(text)?.to_text()
}

#[test]
fn fixtures_decode_to_their_own_bytes() {
    let f = fixtures();
    let text = |bytes: &[u8]| String::from_utf8(bytes.to_vec()).unwrap();
    for (what, bytes, decode_encode) in [
        (
            "preprocess",
            &f.preprocess,
            decode_encode_preprocess as fn(&str) -> _,
        ),
        ("analytics", &f.analytics, decode_encode_analytics),
        ("clean delta", &f.clean_delta, decode_encode_clean_phase),
        ("street map", &f.street_map, decode_encode_street_map),
    ] {
        assert_eq!(decode_encode(&text(bytes)), Ok(text(bytes)), "{what}");
    }
    assert_eq!(
        decode_encode_csv(&f.schema, &text(&f.csv)),
        Ok(text(&f.csv))
    );
    let journals = TempDir::new();
    let dir: &Path = &journals.0;
    fs::write(dir.join(MANIFEST_FILE), &f.run_journal).unwrap();
    fs::write(dir.join(GENERATIONS_FILE), &f.generations).unwrap();
    assert_eq!(Log::<StageEntry>::at(dir).load().unwrap().entries.len(), 3);
    assert_eq!(
        Log::<GenerationEntry>::at(dir)
            .load()
            .unwrap()
            .entries
            .len(),
        2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_journal_round_trips_or_rejects(d in damage()) {
        journal_round_trips_or_rejects::<StageEntry>(&fixtures().run_journal, &d)?;
    }

    #[test]
    fn fleet_journal_round_trips_or_rejects(d in damage()) {
        journal_round_trips_or_rejects::<FleetEvent>(&fixtures().fleet_journal, &d)?;
    }

    #[test]
    fn generation_manifest_round_trips_or_rejects(d in damage()) {
        journal_round_trips_or_rejects::<GenerationEntry>(&fixtures().generations, &d)?;
    }

    #[test]
    fn preprocess_checkpoint_round_trips_or_rejects(d in damage()) {
        let f = fixtures();
        round_trips_or_rejects("decode_preprocess", &f.preprocess, &d, decode_encode_preprocess)?;
    }

    #[test]
    fn analytics_checkpoint_round_trips_or_rejects(d in damage()) {
        let f = fixtures();
        round_trips_or_rejects("decode_analytics", &f.analytics, &d, decode_encode_analytics)?;
    }

    #[test]
    fn clean_delta_round_trips_or_rejects(d in damage()) {
        let f = fixtures();
        round_trips_or_rejects("decode_clean_phase", &f.clean_delta, &d, decode_encode_clean_phase)?;
    }

    #[test]
    fn csv_round_trips_or_rejects(d in damage()) {
        let f = fixtures();
        round_trips_or_rejects("from_csv_lenient", &f.csv, &d, |text| {
            decode_encode_csv(&f.schema, text)
        })?;
    }

    #[test]
    fn street_map_round_trips_or_rejects(d in damage()) {
        let f = fixtures();
        round_trips_or_rejects("StreetMap::from_text", &f.street_map, &d, decode_encode_street_map)?;
    }
}
