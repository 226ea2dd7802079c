//! Property-based tests of the data-model layer: CSV round-trips over
//! arbitrary content, dataset selection invariants, and schema lookups.
//!
//! The column-wise `select_rows`, `retain_mask`, `append`, the streaming
//! CSV and checkpoint JSON writers and the validation scan are checked
//! against the row-wise implementations they replaced, kept below as
//! oracles: whole-`Dataset` equality (dictionaries, their index, codes and
//! missing counts), equal bytes and equal fault lists.
// Test code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::{
    csv, scan_faults, AttrId, AttributeDef, Dataset, ModelError, Record, RecordFault, Schema,
    ValidationPolicy, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            AttributeDef::numeric("x", "", ""),
            AttributeDef::categorical("label", ""),
            AttributeDef::numeric("y", "m", ""),
        ])
        .unwrap(),
    )
}

type Row = (Option<f64>, Option<String>, Option<f64>);

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        prop::option::of(-1e9f64..1e9),
        prop::option::of("[ -~\r]{0,20}"), // printable ASCII incl. commas/quotes, and CR
        prop::option::of(-1e9f64..1e9),
    )
}

fn build(rows: &[Row]) -> Dataset {
    let mut ds = Dataset::new(schema());
    for (x, label, y) in rows {
        let mut r = ds.empty_record();
        r.set(AttrId(0), Value::from(*x)).unwrap();
        r.set(
            AttrId(1),
            label.clone().map(Value::Cat).unwrap_or(Value::Missing),
        )
        .unwrap();
        r.set(AttrId(2), Value::from(*y)).unwrap();
        ds.push_record(r).unwrap();
    }
    ds
}

proptest! {
    #[test]
    fn csv_round_trip_preserves_values(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let ds = build(&rows);
        let text = csv::to_csv(&ds);
        let back = csv::from_csv(ds.schema_arc(), &text).unwrap();
        prop_assert_eq!(back.n_rows(), ds.n_rows());
        for row in 0..ds.n_rows() {
            // Numbers survive through decimal formatting.
            match (ds.num(row, AttrId(0)), back.num(row, AttrId(0))) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs())),
                (a, b) => prop_assert_eq!(a.is_none(), b.is_none()),
            }
            // Labels survive exactly — unless the label was the empty
            // string, which is indistinguishable from missing in CSV.
            let orig = ds.cat(row, AttrId(1));
            let got = back.cat(row, AttrId(1));
            match orig {
                Some("") => prop_assert_eq!(got, None),
                other => prop_assert_eq!(got, other),
            }
        }
    }

    #[test]
    fn select_rows_is_faithful(rows in prop::collection::vec(row_strategy(), 1..30), indices in prop::collection::vec(0usize..30, 0..15)) {
        let ds = build(&rows);
        let valid: Vec<usize> = indices.into_iter().filter(|&i| i < ds.n_rows()).collect();
        let sel = ds.select_rows(&valid).unwrap();
        prop_assert_eq!(sel.n_rows(), valid.len());
        for (new_row, &orig) in valid.iter().enumerate() {
            prop_assert_eq!(sel.value(new_row, AttrId(0)), ds.value(orig, AttrId(0)));
            prop_assert_eq!(sel.value(new_row, AttrId(1)), ds.value(orig, AttrId(1)));
        }
    }

    #[test]
    fn retain_mask_keeps_exactly_true_rows(rows in prop::collection::vec(row_strategy(), 1..30), seed in 0u64..1000) {
        let ds = build(&rows);
        let mask: Vec<bool> = (0..ds.n_rows()).map(|i| !(i as u64 + seed).is_multiple_of(3)).collect();
        let mut filtered = ds.clone();
        filtered.retain_mask(&mask).unwrap();
        prop_assert_eq!(filtered.n_rows(), mask.iter().filter(|&&b| b).count());
    }

    #[test]
    fn missing_counts_match_scan(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let ds = build(&rows);
        let by_scan = (0..ds.n_rows())
            .map(|r| {
                usize::from(ds.value(r, AttrId(0)).is_missing())
                    + usize::from(ds.value(r, AttrId(1)).is_missing())
                    + usize::from(ds.value(r, AttrId(2)).is_missing())
            })
            .sum::<usize>();
        prop_assert_eq!(ds.total_missing(), by_scan);
    }

    #[test]
    fn set_value_then_get_round_trips(rows in prop::collection::vec(row_strategy(), 1..20), v in -1e9f64..1e9) {
        let mut ds = build(&rows);
        let row = ds.n_rows() - 1;
        ds.set_value(row, AttrId(0), Value::num(v)).unwrap();
        prop_assert_eq!(ds.num(row, AttrId(0)), Some(v));
        ds.set_value(row, AttrId(1), Value::cat("patched")).unwrap();
        prop_assert_eq!(ds.cat(row, AttrId(1)), Some("patched"));
    }

    #[test]
    fn records_reject_wrong_kinds(x in -1e9f64..1e9) {
        let mut ds = Dataset::new(schema());
        let mut r = Record::missing(3);
        r.set(AttrId(1), Value::num(x)).unwrap(); // numeric into categorical
        prop_assert!(ds.push_record(r).is_err());
        prop_assert_eq!(ds.n_rows(), 0);
        // And the dataset stays usable.
        let mut ok = ds.empty_record();
        ok.set(AttrId(0), Value::num(x)).unwrap();
        prop_assert!(ds.push_record(ok).is_ok());
    }
}

// ---------------------------------------------------------------------------
// Oracles: the row-wise implementations the column-wise ones replaced.
// ---------------------------------------------------------------------------

/// Every cell of `row` as a `Value` (categorical labels cloned).
fn row_values(ds: &Dataset, row: usize) -> Vec<Value> {
    (0..ds.n_cols())
        .map(|i| ds.value(row, AttrId(i as u32)))
        .collect()
}

/// `select_rows` as a row-by-row rebuild through `Value` and interning.
fn oracle_select_rows(ds: &Dataset, indices: &[usize]) -> Result<Dataset, ModelError> {
    let mut out = Dataset::new(ds.schema_arc());
    for &row in indices {
        if row >= ds.n_rows() {
            return Err(ModelError::RowOutOfBounds {
                row,
                n_rows: ds.n_rows(),
            });
        }
        out.push_record(Record::from_values(row_values(ds, row)))?;
    }
    Ok(out)
}

/// `append` as pushing `other`'s rows one by one.
fn oracle_append(ds: &mut Dataset, other: &Dataset) {
    for row in 0..other.n_rows() {
        ds.push_record(Record::from_values(row_values(other, row)))
            .unwrap();
    }
}

/// `to_csv` as one `String` per cell, quoted field by field.
fn oracle_to_csv(ds: &Dataset) -> String {
    fn format_num(x: f64) -> String {
        if x.fract() == 0.0 && x.abs() < 1e15 {
            format!("{}", x as i64)
        } else {
            format!("{x}")
        }
    }
    fn write_row(out: &mut String, fields: impl Iterator<Item = String>) {
        let mut first = true;
        for field in fields {
            if !first {
                out.push(',');
            }
            first = false;
            if field.contains(',')
                || field.contains('"')
                || field.contains('\n')
                || field.contains('\r')
            {
                out.push('"');
                for ch in field.chars() {
                    if ch == '"' {
                        out.push('"');
                    }
                    out.push(ch);
                }
                out.push('"');
            } else {
                out.push_str(&field);
            }
        }
        out.push('\n');
    }
    let mut out = String::new();
    write_row(&mut out, ds.schema().iter().map(|(_, d)| d.name.clone()));
    for row in 0..ds.n_rows() {
        write_row(
            &mut out,
            row_values(ds, row).into_iter().map(|v| match v {
                Value::Num(x) => format_num(x),
                Value::Cat(s) => s,
                Value::Missing => String::new(),
            }),
        );
    }
    out
}

// ---------------------------------------------------------------------------
// Datasets whose dictionaries are out of first-appearance order and hold
// labels no row uses — what in-place cleaning repairs leave behind.
// ---------------------------------------------------------------------------

/// Labels that need CSV quoting or JSON escapes, plus plain ones.
const LABELS: [&str; 11] = [
    "",
    "a",
    "b",
    "with, comma",
    "say \"hi\"",
    "line1\nline2",
    "città",
    "tab\tand\\slash",
    "€,\"\n",
    "ok\r",
    "\r",
];

/// Numbers on every formatting branch: ±0, NaN, ±∞, integers just below
/// and at 1e15, integers past `i64::MAX` (where an `as i64` cast would
/// saturate), subnormals.
const SPECIALS: [f64; 14] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e15,
    -1e15,
    999_999_999_999_999.0,
    1e15 + 2.0,
    1e19,
    -1e300,
    0.5,
    5e-324,
    2016.0,
];

fn label_strategy() -> impl Strategy<Value = Option<String>> {
    (0usize..14, "[ab,\"\n\rè]{0,4}").prop_map(|(i, random)| match i {
        0 => None,
        i => Some(LABELS.get(i - 1).map_or(random, |l| (*l).to_owned())),
    })
}

/// A number on a formatting edge, a random one, or missing; `finite`
/// leaves out NaN (which no `Dataset` equals) and the infinities.
fn number_strategy(finite: bool) -> impl Strategy<Value = Option<f64>> {
    (0usize..22, -1e17f64..1e17).prop_map(move |(i, random)| match i {
        0 => None,
        i => match SPECIALS.get(i - 1).copied() {
            Some(x) if finite && !x.is_finite() => Some(1.0),
            Some(x) => Some(x),
            None => Some(random),
        },
    })
}

type EdgeRow = (Option<f64>, Option<String>, Option<f64>);

fn edge_row(finite: bool) -> impl Strategy<Value = EdgeRow> {
    (
        number_strategy(finite),
        label_strategy(),
        number_strategy(finite),
    )
}

/// `rows`, then each `(row, label)` repair written in place — which
/// leaves replaced labels in the dictionary and new ones at its end.
fn build_dirty(rows: &[EdgeRow], repairs: &[(usize, usize)]) -> Dataset {
    let mut ds = Dataset::new(schema());
    for (x, label, y) in rows {
        let mut r = ds.empty_record();
        r.set(AttrId(0), Value::from(*x)).unwrap();
        r.set(AttrId(1), label.clone().map_or(Value::Missing, Value::Cat))
            .unwrap();
        r.set(AttrId(2), Value::from(*y)).unwrap();
        ds.push_record(r).unwrap();
    }
    for &(row, label) in repairs {
        if row < ds.n_rows() {
            let value = LABELS.get(label).map_or(Value::Missing, |l| Value::cat(*l));
            ds.set_value(row, AttrId(1), value).unwrap();
        }
    }
    ds
}

fn repairs() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..30, 0usize..10), 0..8)
}

proptest! {
    #[test]
    fn select_rows_equals_the_row_wise_rebuild(
        rows in prop::collection::vec(edge_row(true), 0..30),
        fixes in repairs(),
        indices in prop::collection::vec(0usize..32, 0..40),
    ) {
        let ds = build_dirty(&rows, &fixes);
        let got = ds.select_rows(&indices);
        prop_assert_eq!(got.clone(), oracle_select_rows(&ds, &indices));
        if let Ok(sel) = got {
            prop_assert_eq!(csv::to_csv(&sel), oracle_to_csv(&sel));
        }
    }

    #[test]
    fn retain_mask_equals_the_row_wise_rebuild(
        rows in prop::collection::vec(edge_row(true), 0..30),
        fixes in repairs(),
        seed in 0u64..1000,
        modulus in 1u64..5,
    ) {
        let ds = build_dirty(&rows, &fixes);
        let mask: Vec<bool> = (0..ds.n_rows() as u64)
            .map(|i| !(i * 7 + seed).is_multiple_of(modulus + 1))
            .collect();
        let kept: Vec<usize> = (0..ds.n_rows()).filter(|&i| mask[i]).collect();
        let mut filtered = ds.clone();
        filtered.retain_mask(&mask).unwrap();
        prop_assert_eq!(filtered, oracle_select_rows(&ds, &kept).unwrap());

        let mut untouched = ds.clone();
        let short = &mask[..mask.len().saturating_sub(1)];
        prop_assert_eq!(untouched.retain_mask(short).is_err(), !mask.is_empty());
        prop_assert_eq!(untouched, ds);
    }

    #[test]
    fn append_equals_the_row_wise_rebuild(
        left in prop::collection::vec(edge_row(true), 0..20),
        left_fixes in repairs(),
        right in prop::collection::vec(edge_row(true), 0..20),
        right_fixes in repairs(),
    ) {
        let (a, b) = (build_dirty(&left, &left_fixes), build_dirty(&right, &right_fixes));
        let mut got = a.clone();
        got.append(&b).unwrap();
        let mut expected = a;
        oracle_append(&mut expected, &b);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn write_csv_equals_the_row_wise_writer(
        rows in prop::collection::vec(edge_row(false), 0..30),
        fixes in repairs(),
    ) {
        let ds = build_dirty(&rows, &fixes);
        let expected = oracle_to_csv(&ds);
        prop_assert_eq!(csv::to_csv(&ds), expected.clone());
        let mut streamed = Vec::new();
        csv::write_csv(&ds, &mut streamed).unwrap();
        prop_assert_eq!(String::from_utf8(streamed).unwrap(), expected);
    }

    #[test]
    fn write_json_equals_the_whole_tree(
        rows in prop::collection::vec(edge_row(false), 0..30),
        fixes in repairs(),
    ) {
        let ds = build_dirty(&rows, &fixes);
        let mut text = String::from("prefix:");
        ds.write_json(&mut text);
        prop_assert_eq!(text, format!("prefix:{}", serde::Serialize::to_json_value(&ds).to_compact_string()));
    }
}

/// `scan_faults` as the row-by-row scan it replaced: one `Value` (and so
/// one `String` per categorical cell) per cell, first fault in schema
/// order, later policy entries winning.
fn oracle_scan_faults(ds: &Dataset, policy: &ValidationPolicy) -> Vec<(usize, RecordFault)> {
    use std::collections::BTreeMap;
    let schema = ds.schema();
    let mut range_by_attr: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
    for (attr, min, max) in &policy.ranges {
        if let Ok(id) = schema.require(attr) {
            range_by_attr.insert(id.0, (*min, *max));
        }
    }
    let mut levels_by_attr: BTreeMap<u32, &[String]> = BTreeMap::new();
    for (attr, levels) in &policy.known_categories {
        if let Ok(id) = schema.require(attr) {
            levels_by_attr.insert(id.0, levels.as_slice());
        }
    }
    let mut out = Vec::new();
    for row in 0..ds.n_rows() {
        let mut fault = None;
        for (id, def) in schema.iter() {
            match ds.value(row, id) {
                Value::Num(x) => {
                    if !x.is_finite() {
                        fault = Some(RecordFault::NonFinite {
                            attribute: def.name.clone(),
                        });
                    } else if let Some(&(min, max)) = range_by_attr.get(&id.0) {
                        if x < min || x > max {
                            fault = Some(RecordFault::OutOfRange {
                                attribute: def.name.clone(),
                                value: x,
                                min,
                                max,
                            });
                        }
                    }
                }
                Value::Cat(label) => {
                    if let Some(levels) = levels_by_attr.get(&id.0) {
                        if !levels.iter().any(|l| l == &label) {
                            fault = Some(RecordFault::UnknownCategory {
                                attribute: def.name.clone(),
                                value: label,
                            });
                        }
                    }
                }
                Value::Missing => {}
            }
            if fault.is_some() {
                break;
            }
        }
        if let Some(fault) = fault {
            out.push((row, fault));
        }
    }
    out
}

/// Validation policies over the test schema: ranges on `x` and `y` (an
/// attribute may appear twice, or be unknown) and known levels for
/// `label`, drawn from [`LABELS`].
fn policy_strategy() -> impl Strategy<Value = ValidationPolicy> {
    (
        prop::collection::vec((0usize..4, -1e9f64..1e9, 0.0f64..2e9), 0..4),
        prop::collection::vec(0usize..11, 0..6),
        0usize..3,
    )
        .prop_map(|(ranges, levels, how)| ValidationPolicy {
            ranges: ranges
                .into_iter()
                .map(|(attr, min, width)| {
                    let name = ["x", "y", "label", "nope"][attr];
                    (name.to_owned(), min, min + width)
                })
                .collect(),
            known_categories: match how {
                0 => Vec::new(),
                n => vec![(
                    ["label", "nope"][n - 1].to_owned(),
                    levels.iter().map(|&i| LABELS[i].to_owned()).collect(),
                )],
            },
        })
}

proptest! {
    #[test]
    fn scan_faults_equals_the_value_scan(
        rows in prop::collection::vec(edge_row(false), 0..30),
        fixes in repairs(),
        policy in policy_strategy(),
    ) {
        let ds = build_dirty(&rows, &fixes);
        let got = scan_faults(&ds, &policy);
        let want = oracle_scan_faults(&ds, &policy);
        // `RecordFault` compares f64 fields with `==`; faults never hold
        // NaN (the range check runs on finite values only).
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            scan_faults(&ds, &ValidationPolicy::minimal()),
            oracle_scan_faults(&ds, &ValidationPolicy::minimal())
        );
    }
}

#[test]
fn select_rows_rejects_the_first_out_of_range_index() {
    let ds = build_dirty(&[(Some(1.0), Some("a".into()), None)], &[]);
    let err = ds.select_rows(&[0, 3, 5]).unwrap_err();
    assert_eq!(err, ModelError::RowOutOfBounds { row: 3, n_rows: 1 });
}
