//! Typed record faults and the quarantine sink of the fault-tolerant
//! pipeline.
//!
//! The paper's EPC collections are noisy — misspelled addresses, missing
//! or out-of-range attributes, failed geocodes — and a production pipeline
//! must survive them. Instead of panicking (or silently dropping rows),
//! malformed records are diverted into a [`Quarantine`] carrying a typed
//! [`RecordFault`], and the run continues on the surviving records. The
//! quarantine exposes exact per-kind histograms so stage reports can
//! account for every diverted record.

use crate::dataset::{ColumnData, Dataset};
use crate::jsonnum::{decode_f64, encode_f64};
use serde::Value as JsonValue;
use std::collections::BTreeMap;
use std::fmt;

/// Why a record was quarantined instead of processed.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordFault {
    /// A CSV row failed to parse (bad arity, unparsable number,
    /// unterminated quote, …).
    CsvParse {
        /// 1-based line number in the source document.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A quantitative value was NaN or ±∞.
    NonFinite {
        /// Offending attribute.
        attribute: String,
    },
    /// A quantitative value fell outside its plausible range.
    OutOfRange {
        /// Offending attribute.
        attribute: String,
        /// The offending value.
        value: f64,
        /// Lower bound of the plausible range (inclusive).
        min: f64,
        /// Upper bound of the plausible range (inclusive).
        max: f64,
    },
    /// A categorical value was not among the known levels.
    UnknownCategory {
        /// Offending attribute.
        attribute: String,
        /// The unknown label.
        value: String,
    },
    /// The address could not be resolved by the reference map, the
    /// geocoder, or the degraded fallback.
    UnresolvableAddress,
    /// A fault injector corrupted the record (chaos testing).
    Injected {
        /// What the injector did.
        detail: String,
    },
}

impl RecordFault {
    /// Stable, short kind label used as the histogram key.
    pub fn kind(&self) -> &'static str {
        match self {
            RecordFault::CsvParse { .. } => "csv_parse",
            RecordFault::NonFinite { .. } => "non_finite",
            RecordFault::OutOfRange { .. } => "out_of_range",
            RecordFault::UnknownCategory { .. } => "unknown_category",
            RecordFault::UnresolvableAddress => "unresolvable_address",
            RecordFault::Injected { .. } => "injected",
        }
    }
}

impl fmt::Display for RecordFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordFault::CsvParse { line, reason } => {
                write!(f, "CSV parse failure at line {line}: {reason}")
            }
            RecordFault::NonFinite { attribute } => {
                write!(f, "non-finite value for attribute {attribute:?}")
            }
            RecordFault::OutOfRange {
                attribute,
                value,
                min,
                max,
            } => write!(
                f,
                "value {value} of attribute {attribute:?} outside plausible range [{min}, {max}]"
            ),
            RecordFault::UnknownCategory { attribute, value } => {
                write!(f, "unknown level {value:?} for attribute {attribute:?}")
            }
            RecordFault::UnresolvableAddress => write!(f, "address could not be resolved"),
            RecordFault::Injected { detail } => write!(f, "injected fault: {detail}"),
        }
    }
}

// Checkpoint serde for [`RecordFault`] is hand-written rather than derived:
// `OutOfRange` carries `f64` bounds, and the shim's derived float encoding is
// lossy for `-0.0` and non-finite values (see [`crate::jsonnum`]). A resumed
// run must rehydrate quarantine state exactly, so the float fields go through
// the exact codec. The representation mirrors what the derive would emit for
// the non-float variants (single-key object, unit variant as string).
impl serde::Serialize for RecordFault {
    fn to_json_value(&self) -> JsonValue {
        let obj = |variant: &str, fields: Vec<(&str, JsonValue)>| {
            let body = fields
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect::<serde::Map<String, JsonValue>>();
            JsonValue::Object(
                [(variant.to_owned(), JsonValue::Object(body))]
                    .into_iter()
                    .collect(),
            )
        };
        match self {
            RecordFault::CsvParse { line, reason } => obj(
                "CsvParse",
                vec![
                    ("line", JsonValue::Num(*line as f64)),
                    ("reason", JsonValue::Str(reason.clone())),
                ],
            ),
            RecordFault::NonFinite { attribute } => obj(
                "NonFinite",
                vec![("attribute", JsonValue::Str(attribute.clone()))],
            ),
            RecordFault::OutOfRange {
                attribute,
                value,
                min,
                max,
            } => obj(
                "OutOfRange",
                vec![
                    ("attribute", JsonValue::Str(attribute.clone())),
                    ("value", encode_f64(*value)),
                    ("min", encode_f64(*min)),
                    ("max", encode_f64(*max)),
                ],
            ),
            RecordFault::UnknownCategory { attribute, value } => obj(
                "UnknownCategory",
                vec![
                    ("attribute", JsonValue::Str(attribute.clone())),
                    ("value", JsonValue::Str(value.clone())),
                ],
            ),
            RecordFault::UnresolvableAddress => JsonValue::Str("UnresolvableAddress".to_owned()),
            RecordFault::Injected { detail } => {
                obj("Injected", vec![("detail", JsonValue::Str(detail.clone()))])
            }
        }
    }
}

impl serde::Deserialize for RecordFault {
    fn from_json_value(v: &JsonValue) -> Result<Self, serde::Error> {
        fn field<'a>(
            body: &'a JsonValue,
            variant: &str,
            name: &str,
        ) -> Result<&'a JsonValue, serde::Error> {
            body.get(name).ok_or_else(|| {
                serde::Error::custom(format!("RecordFault::{variant} missing field {name:?}"))
            })
        }
        fn string(v: &JsonValue) -> Result<String, serde::Error> {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| serde::Error::mismatch("string", v))
        }
        match v {
            JsonValue::Str(s) if s == "UnresolvableAddress" => Ok(RecordFault::UnresolvableAddress),
            JsonValue::Object(map) => {
                let (variant, body) = map
                    .iter()
                    .next()
                    .ok_or_else(|| serde::Error::custom("empty RecordFault object"))?;
                match variant.as_str() {
                    "CsvParse" => Ok(RecordFault::CsvParse {
                        line: field(body, variant, "line")?
                            .as_u64()
                            .ok_or_else(|| serde::Error::custom("CsvParse line must be a u64"))?
                            as usize,
                        reason: string(field(body, variant, "reason")?)?,
                    }),
                    "NonFinite" => Ok(RecordFault::NonFinite {
                        attribute: string(field(body, variant, "attribute")?)?,
                    }),
                    "OutOfRange" => Ok(RecordFault::OutOfRange {
                        attribute: string(field(body, variant, "attribute")?)?,
                        value: decode_f64(field(body, variant, "value")?)?,
                        min: decode_f64(field(body, variant, "min")?)?,
                        max: decode_f64(field(body, variant, "max")?)?,
                    }),
                    "UnknownCategory" => Ok(RecordFault::UnknownCategory {
                        attribute: string(field(body, variant, "attribute")?)?,
                        value: string(field(body, variant, "value")?)?,
                    }),
                    "Injected" => Ok(RecordFault::Injected {
                        detail: string(field(body, variant, "detail")?)?,
                    }),
                    other => Err(serde::Error::custom(format!(
                        "unknown RecordFault variant {other:?}"
                    ))),
                }
            }
            other => Err(serde::Error::mismatch("RecordFault", other)),
        }
    }
}

/// One diverted record: a stable key (certificate id when available,
/// otherwise a synthetic key), the source row when known, and the fault.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QuarantinedRecord {
    /// Stable record key — survives row reordering, unlike indices.
    pub key: String,
    /// Row index in the dataset the record was diverted from, if any.
    pub row: Option<usize>,
    /// Why the record was diverted.
    pub fault: RecordFault,
}

/// The quarantine sink: collects diverted records in arrival order and
/// answers exact per-kind accounting questions.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct Quarantine {
    records: Vec<QuarantinedRecord>,
}

impl Quarantine {
    /// An empty quarantine.
    pub fn new() -> Self {
        Quarantine::default()
    }

    /// Diverts one record.
    pub fn push(&mut self, key: impl Into<String>, row: Option<usize>, fault: RecordFault) {
        self.records.push(QuarantinedRecord {
            key: key.into(),
            row,
            fault,
        });
    }

    /// Number of quarantined records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was diverted.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The diverted records, in arrival order.
    pub fn records(&self) -> &[QuarantinedRecord] {
        &self.records
    }

    /// Exact fault histogram: kind label → count, deterministically
    /// ordered.
    pub fn histogram(&self) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for r in &self.records {
            *h.entry(r.fault.kind().to_owned()).or_insert(0) += 1;
        }
        h
    }

    /// Like [`Quarantine::histogram`], but only over records arrived at or
    /// after index `start` — the per-stage delta when a stage snapshots
    /// `len()` before running.
    pub fn histogram_from(&self, start: usize) -> BTreeMap<String, usize> {
        let mut h = BTreeMap::new();
        for r in self.records.iter().skip(start) {
            *h.entry(r.fault.kind().to_owned()).or_insert(0) += 1;
        }
        h
    }

    /// The sorted, de-duplicated set of quarantined record keys.
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.records.iter().map(|r| r.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Appends another quarantine's records (stage hand-off).
    pub fn merge(&mut self, other: Quarantine) {
        self.records.extend(other.records);
    }

    /// Shifts every record's row index (and synthetic `row:<n>` fallback
    /// key) by `offset`. Batch ingest quarantines records against
    /// batch-local row numbers; rebasing them onto the cumulative input
    /// makes the merged quarantine identical to a one-shot run's over the
    /// concatenated data.
    pub fn rebase_rows(&mut self, offset: usize) {
        if offset == 0 {
            return;
        }
        for r in &mut self.records {
            if let Some(row) = r.row.as_mut() {
                *row += offset;
            }
            if let Some(n) = r
                .key
                .strip_prefix("row:")
                .and_then(|s| s.parse::<usize>().ok())
            {
                r.key = format!("row:{}", n + offset);
            }
        }
    }
}

impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "quarantine: empty");
        }
        write!(f, "quarantine: {} records (", self.len())?;
        let mut first = true;
        for (kind, n) in self.histogram() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{kind}: {n}")?;
        }
        write!(f, ")")
    }
}

/// What the record-validation scan checks. Non-finite quantitative values
/// are always faults; range and category checks only run for the
/// attributes listed here, so the default policy never diverts records a
/// paper-faithful run would keep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ValidationPolicy {
    /// `(attribute, min, max)` inclusive plausible ranges.
    pub ranges: Vec<(String, f64, f64)>,
    /// `(attribute, known levels)` for categorical attributes.
    pub known_categories: Vec<(String, Vec<String>)>,
}

impl ValidationPolicy {
    /// The default policy: only the always-on non-finite check.
    pub fn minimal() -> Self {
        ValidationPolicy::default()
    }
}

/// Scans `dataset` for faulty records under `policy`.
///
/// Returns `(row, fault)` pairs in ascending row order; a row appears at
/// most once (the first fault found in schema order wins), so callers can
/// treat the result as the exact quarantine set.
///
/// The scan runs column by column over borrowed cells, in schema order,
/// and skips rows an earlier column already faulted, so each row keeps
/// its first fault. A categorical column decides membership in its known
/// levels once per dictionary code; a fault is the only allocation.
pub fn scan_faults(dataset: &Dataset, policy: &ValidationPolicy) -> Vec<(usize, RecordFault)> {
    let schema = dataset.schema();
    let mut faults: Vec<Option<RecordFault>> = vec![None; dataset.n_rows()];
    for (id, def) in schema.iter() {
        let Some(column) = dataset.column(id) else {
            continue;
        };
        match column.data() {
            ColumnData::Numeric(cells) => {
                // A later policy entry for the same attribute wins.
                let range = policy
                    .ranges
                    .iter()
                    .rfind(|(attr, _, _)| *attr == def.name)
                    .map(|&(_, min, max)| (min, max));
                for (slot, cell) in faults.iter_mut().zip(cells) {
                    let Some(x) = *cell else { continue };
                    if slot.is_some() {
                        continue;
                    }
                    if !x.is_finite() {
                        *slot = Some(RecordFault::NonFinite {
                            attribute: def.name.clone(),
                        });
                    } else if let Some((min, max)) = range {
                        if x < min || x > max {
                            *slot = Some(RecordFault::OutOfRange {
                                attribute: def.name.clone(),
                                value: x,
                                min,
                                max,
                            });
                        }
                    }
                }
            }
            ColumnData::Categorical(cat) => {
                let Some((_, levels)) = policy
                    .known_categories
                    .iter()
                    .rfind(|(attr, _)| *attr == def.name)
                else {
                    continue;
                };
                let known: Vec<bool> = (0..cat.cardinality() as u32)
                    .map(|code| {
                        cat.label(code)
                            .is_some_and(|l| levels.iter().any(|k| k == l))
                    })
                    .collect();
                for (slot, code) in faults.iter_mut().zip(cat.codes()) {
                    let Some(code) = *code else { continue };
                    if slot.is_some() || known.get(code as usize) == Some(&true) {
                        continue;
                    }
                    if let Some(label) = cat.label(code) {
                        *slot = Some(RecordFault::UnknownCategory {
                            attribute: def.name.clone(),
                            value: label.to_owned(),
                        });
                    }
                }
            }
        }
    }
    faults
        .into_iter()
        .enumerate()
        .filter_map(|(row, fault)| Some((row, fault?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::{AttrId, AttributeDef};
    use crate::dataset::Dataset;
    use crate::schema::Schema;
    use crate::value::Value;
    use std::sync::Arc;

    #[test]
    fn rebase_rows_shifts_indices_and_synthetic_keys() {
        let mut q = Quarantine::new();
        q.push("cert-7", Some(2), RecordFault::UnresolvableAddress);
        q.push(
            "row:5",
            Some(5),
            RecordFault::NonFinite {
                attribute: "x".into(),
            },
        );
        q.push("row:abc", None, RecordFault::UnresolvableAddress);
        let mut unshifted = q.clone();
        unshifted.rebase_rows(0);
        assert_eq!(unshifted, q, "offset 0 is the identity");
        q.rebase_rows(100);
        assert_eq!(q.records()[0].key, "cert-7", "real keys stay put");
        assert_eq!(q.records()[0].row, Some(102));
        assert_eq!(q.records()[1].key, "row:105", "synthetic keys shift");
        assert_eq!(q.records()[1].row, Some(105));
        assert_eq!(q.records()[2].key, "row:abc", "non-numeric suffix kept");
        assert_eq!(q.records()[2].row, None);
    }

    #[test]
    fn quarantine_serde_round_trips_every_fault_kind() {
        let mut q = Quarantine::new();
        q.push(
            "r1",
            Some(3),
            RecordFault::CsvParse {
                line: 4,
                reason: "bad arity".into(),
            },
        );
        q.push(
            "r2",
            None,
            RecordFault::NonFinite {
                attribute: "x".into(),
            },
        );
        q.push(
            "r3",
            Some(0),
            RecordFault::OutOfRange {
                attribute: "x".into(),
                value: -0.0,
                min: 0.5,
                max: f64::INFINITY,
            },
        );
        q.push(
            "r4",
            None,
            RecordFault::UnknownCategory {
                attribute: "c".into(),
                value: "??".into(),
            },
        );
        q.push("r5", Some(9), RecordFault::UnresolvableAddress);
        q.push(
            "r6",
            None,
            RecordFault::Injected {
                detail: "bitflip".into(),
            },
        );

        let text = serde_json::to_string(&q).unwrap();
        let back: Quarantine = serde_json::from_str(&text).unwrap();
        assert_eq!(back.len(), 6);
        assert_eq!(back.histogram(), q.histogram());
        // The exact float codec keeps the -0.0 sign and the infinite bound.
        match &back.records()[2].fault {
            RecordFault::OutOfRange { value, max, .. } => {
                assert!(*value == 0.0 && value.is_sign_negative());
                assert_eq!(*max, f64::INFINITY);
            }
            other => panic!("wrong fault: {other:?}"),
        }
        assert_eq!(back, q);
        // Re-serialization is byte-stable (journal determinism depends on it).
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn record_fault_serde_rejects_unknown_variants() {
        use serde::Deserialize as _;
        let bad = serde_json::from_str::<serde::Value>("{\"Exploded\":{}}").unwrap();
        assert!(RecordFault::from_json_value(&bad).is_err());
        let bad = serde_json::from_str::<serde::Value>("\"NotAUnitVariant\"").unwrap();
        assert!(RecordFault::from_json_value(&bad).is_err());
    }

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                AttributeDef::numeric("x", "", ""),
                AttributeDef::categorical("cat", ""),
            ])
            .unwrap(),
        )
    }

    fn dataset(rows: &[(Option<f64>, Option<&str>)]) -> Dataset {
        let mut ds = Dataset::new(schema());
        for (x, c) in rows {
            let mut r = ds.empty_record();
            r.set(AttrId(0), Value::from(*x)).unwrap();
            r.set(AttrId(1), c.map(Value::cat).unwrap_or(Value::Missing))
                .unwrap();
            ds.push_record(r).unwrap();
        }
        ds
    }

    #[test]
    fn non_finite_is_always_a_fault() {
        let ds = dataset(&[
            (Some(1.0), Some("a")),
            (Some(f64::NAN), Some("a")),
            (Some(f64::INFINITY), Some("a")),
            (None, Some("a")),
        ]);
        let faults = scan_faults(&ds, &ValidationPolicy::minimal());
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].0, 1);
        assert_eq!(faults[1].0, 2);
        assert!(matches!(faults[0].1, RecordFault::NonFinite { .. }));
    }

    #[test]
    fn range_and_category_checks_are_opt_in() {
        let ds = dataset(&[(Some(99.0), Some("weird")), (Some(1.0), Some("ok"))]);
        assert!(scan_faults(&ds, &ValidationPolicy::minimal()).is_empty());

        let policy = ValidationPolicy {
            ranges: vec![("x".into(), 0.0, 10.0)],
            known_categories: vec![("cat".into(), vec!["ok".into()])],
        };
        let faults = scan_faults(&ds, &policy);
        assert_eq!(faults.len(), 1, "first fault per row wins");
        assert!(matches!(faults[0].1, RecordFault::OutOfRange { .. }));
    }

    #[test]
    fn missing_values_are_not_faults() {
        let ds = dataset(&[(None, None)]);
        let policy = ValidationPolicy {
            ranges: vec![("x".into(), 0.0, 1.0)],
            known_categories: vec![("cat".into(), vec!["ok".into()])],
        };
        assert!(scan_faults(&ds, &policy).is_empty());
    }

    #[test]
    fn quarantine_histogram_is_exact() {
        let mut q = Quarantine::new();
        q.push("a", Some(0), RecordFault::UnresolvableAddress);
        q.push(
            "b",
            Some(1),
            RecordFault::NonFinite {
                attribute: "x".into(),
            },
        );
        q.push("c", None, RecordFault::UnresolvableAddress);
        assert_eq!(q.len(), 3);
        let h = q.histogram();
        assert_eq!(h["unresolvable_address"], 2);
        assert_eq!(h["non_finite"], 1);
        assert_eq!(q.keys(), vec!["a", "b", "c"]);
        let text = q.to_string();
        assert!(text.contains("3 records") && text.contains("non_finite: 1"));
    }

    #[test]
    fn quarantine_merge_accumulates() {
        let mut a = Quarantine::new();
        a.push("a", Some(0), RecordFault::UnresolvableAddress);
        let mut b = Quarantine::new();
        b.push(
            "b",
            None,
            RecordFault::CsvParse {
                line: 3,
                reason: "bad".into(),
            },
        );
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.histogram().len(), 2);
        assert_eq!(Quarantine::new().to_string(), "quarantine: empty");
    }

    #[test]
    fn fault_kinds_and_display_are_stable() {
        let faults = [
            RecordFault::CsvParse {
                line: 2,
                reason: "r".into(),
            },
            RecordFault::NonFinite {
                attribute: "x".into(),
            },
            RecordFault::OutOfRange {
                attribute: "x".into(),
                value: 9.0,
                min: 0.0,
                max: 1.0,
            },
            RecordFault::UnknownCategory {
                attribute: "c".into(),
                value: "z".into(),
            },
            RecordFault::UnresolvableAddress,
            RecordFault::Injected { detail: "d".into() },
        ];
        let kinds: Vec<&str> = faults.iter().map(|f| f.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "csv_parse",
                "non_finite",
                "out_of_range",
                "unknown_category",
                "unresolvable_address",
                "injected"
            ]
        );
        for f in &faults {
            assert!(!f.to_string().is_empty());
        }
    }
}
