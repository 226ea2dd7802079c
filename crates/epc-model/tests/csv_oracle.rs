//! Differential tests of the one-pass CSV reader against the reader it
//! replaced, kept below as the oracle: `split_records` copies each logical
//! record into a `String`, `parse_record` each field, and every row goes
//! through a `Record` of owned `Value`s. The only change to the oracle is
//! the line number it reports: the physical line where the record starts.
//!
//! On hostile text both readers must give an equal `Dataset` (dictionaries,
//! their index, codes and missing counts), an equal quarantine (keys,
//! lines, reasons) and an equal strict-mode error.
// Test code: panicking on malformed setup is the desired behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use epc_model::{
    csv, AttrId, AttributeDef, ColumnData, Dataset, ModelError, Quarantine, Record, RecordFault,
    Schema, Value,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

// ── The oracle ─────────────────────────────────────────────────────────

fn oracle_read(
    schema: Arc<Schema>,
    text: &str,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<Dataset, ModelError> {
    let mut lines = split_records(text);
    let (header_line, header) = lines.next().ok_or(ModelError::Csv {
        line: 1,
        reason: "empty document".into(),
    })?;
    let header_fields = parse_record(&header, header_line)?;
    let expected: Vec<&str> = schema.iter().map(|(_, d)| d.name.as_str()).collect();
    if header_fields.len() != expected.len()
        || header_fields.iter().zip(&expected).any(|(a, b)| a != b)
    {
        return Err(ModelError::Csv {
            line: header_line,
            reason: format!(
                "header does not match schema (got {} fields, expected {})",
                header_fields.len(),
                expected.len()
            ),
        });
    }

    let mut ds = Dataset::new(schema);
    for (line_no, raw) in lines {
        if raw.trim().is_empty() {
            continue;
        }
        match parse_row(&ds, &raw, line_no) {
            Ok(record) => ds.push_record(record)?,
            Err(e) => match (&mut quarantine, e) {
                (Some(q), ModelError::Csv { line, reason }) => {
                    q.push(
                        format!("line:{line}"),
                        None,
                        RecordFault::CsvParse { line, reason },
                    );
                }
                (_, e) => return Err(e),
            },
        }
    }
    Ok(ds)
}

fn parse_row(ds: &Dataset, raw: &str, line_no: usize) -> Result<Record, ModelError> {
    let fields = parse_record(raw, line_no)?;
    if fields.len() != ds.n_cols() {
        return Err(ModelError::Csv {
            line: line_no,
            reason: format!("expected {} fields, got {}", ds.n_cols(), fields.len()),
        });
    }
    let mut values = Vec::with_capacity(fields.len());
    for (field, (_, def)) in fields.into_iter().zip(ds.schema().iter()) {
        let value = if field.is_empty() {
            Value::Missing
        } else if def.kind.is_numeric() {
            let x: f64 = field.parse().map_err(|_| ModelError::Csv {
                line: line_no,
                reason: format!("invalid number {field:?} for attribute {}", def.name),
            })?;
            Value::Num(x)
        } else {
            Value::Cat(field)
        };
        values.push(value);
    }
    Ok(Record::from_values(values))
}

/// Logical records with the physical line each starts on.
fn split_records(text: &str) -> impl Iterator<Item = (usize, String)> + '_ {
    let mut records = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut line = 1;
    let mut start = 1;
    for ch in text.chars() {
        match ch {
            '"' => {
                in_quotes = !in_quotes;
                current.push(ch);
            }
            '\n' if !in_quotes => {
                // trailing \r from CRLF files
                if current.ends_with('\r') {
                    current.pop();
                }
                records.push((start, std::mem::take(&mut current)));
                line += 1;
                start = line;
            }
            '\n' => {
                line += 1;
                current.push(ch);
            }
            _ => current.push(ch),
        }
    }
    if !current.is_empty() {
        records.push((start, current));
    }
    records.into_iter()
}

fn parse_record(line: &str, line_no: usize) -> Result<Vec<String>, ModelError> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        current.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => current.push(ch),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut current)),
                _ => current.push(ch),
            }
        }
    }
    if in_quotes {
        return Err(ModelError::Csv {
            line: line_no,
            reason: "unterminated quote".into(),
        });
    }
    fields.push(current);
    Ok(fields)
}

// ── Hostile text ───────────────────────────────────────────────────────

/// Two categorical columns between two numeric ones: labels repeat across
/// rows, so the reader's last-code reuse is hit and missed.
fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(vec![
            AttributeDef::numeric("x", "", ""),
            AttributeDef::categorical("a", ""),
            AttributeDef::categorical("b", ""),
            AttributeDef::numeric("y", "", ""),
        ])
        .unwrap(),
    )
}

const HEADERS: [&str; 8] = [
    "x,a,b,y\n",
    "x,a,b,y\r\n",
    "\"x\",a,\"b\",y\n",
    "x,a,b,y",
    "x,a,b\n",
    "x,a,b,y,z\n",
    "",
    "\"x,a,b,y\n",
];

/// Fields: numbers (good and bad), labels that repeat, quoted commas and
/// newlines, doubled quotes, stray mid-field quotes, an unterminated
/// quote, whitespace-only and non-ASCII text.
const FIELDS: [&str; 26] = [
    "",
    "",
    "1",
    "-0",
    "0",
    "2.5",
    "1e300",
    "NaN",
    "-inf",
    "abc",
    "12x",
    "v",
    "v",
    "w",
    "Via Roma",
    "\"q,uo\"",
    "\"line\nbreak\"",
    "\"two\r\nlines\"",
    "\"dbl\"\"q\"",
    "mid\"quote",
    "\"unterminated",
    " ",
    "\u{a0}",
    "é\u{2003}ü",
    "\"\"",
    "\r",
];

/// Row ends: LF, CRLF, a lone CR (kept in the record), a blank line, a
/// line of Unicode whitespace only, and nothing (rows run together).
const ENDS: [&str; 8] = [
    "\n",
    "\n",
    "\r\n",
    "\r",
    "\n\n",
    "\n \u{3000}\t\n",
    "\r\n\r\n",
    "",
];

/// A document: a header (a third of them bad or missing), then rows of
/// 3–5 fields (4 is right), each with an end.
fn document() -> impl Strategy<Value = String> {
    (
        0usize..HEADERS.len() + 4,
        prop::collection::vec(
            (
                prop::collection::vec(0usize..FIELDS.len(), 3..6),
                0usize..ENDS.len(),
            ),
            0..12,
        ),
        0usize..4,
    )
        .prop_map(|(header, rows, tail)| {
            // Four of every twelve documents get the plain header.
            let mut text = HEADERS.get(header).unwrap_or(&HEADERS[0]).to_string();
            for (fields, end) in rows {
                let fields: Vec<&str> = fields.iter().map(|&f| FIELDS[f]).collect();
                text.push_str(&fields.join(","));
                text.push_str(ENDS[end]);
            }
            // A final `\r` with no `\n` after it, or a missing final newline.
            match tail {
                1 => text.push('\r'),
                2 if text.ends_with('\n') => {
                    text.pop();
                }
                _ => {}
            }
            text
        })
}

/// Whole-`Dataset` equality with numbers compared by their bits, so that
/// a `NaN` read from the text equals itself: schema, row count, and per
/// column the missing count, the cells, the dictionary and its index.
fn same_dataset(a: &Dataset, b: &Dataset) -> bool {
    let columns_equal = (0..a.n_cols()).all(|i| {
        let id = AttrId(i as u32);
        let (Some(ca), Some(cb)) = (a.column(id), b.column(id)) else {
            return false;
        };
        let cells_equal = match (ca.data(), cb.data()) {
            (ColumnData::Numeric(va), ColumnData::Numeric(vb)) => {
                va.len() == vb.len()
                    && va
                        .iter()
                        .zip(vb)
                        .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
            }
            (ColumnData::Categorical(da), ColumnData::Categorical(db)) => {
                da.codes() == db.codes()
                    && da.cardinality() == db.cardinality()
                    && (0..da.cardinality() as u32).all(|code| {
                        let label = da.label(code);
                        label == db.label(code)
                            && label.and_then(|l| da.code(l)) == Some(code)
                            && label.and_then(|l| db.code(l)) == Some(code)
                    })
            }
            _ => false,
        };
        cells_equal && ca.missing_count() == cb.missing_count()
    });
    a.schema() == b.schema()
        && a.n_rows() == b.n_rows()
        && a.n_cols() == b.n_cols()
        && columns_equal
}

fn same_result(a: &Result<Dataset, ModelError>, b: &Result<Dataset, ModelError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => same_dataset(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Both readers, strict and lenient, on one text.
fn assert_readers_agree(text: &str) -> Result<(), TestCaseError> {
    let strict = csv::from_csv(schema(), text);
    let oracle_strict = oracle_read(schema(), text, None);
    prop_assert!(
        same_result(&strict, &oracle_strict),
        "strict, text {:?}\n  left: {:?}\n right: {:?}",
        text,
        strict,
        oracle_strict
    );

    let mut q = Quarantine::new();
    let mut oracle_q = Quarantine::new();
    let lenient = csv::from_csv_lenient(schema(), text, &mut q);
    let oracle_lenient = oracle_read(schema(), text, Some(&mut oracle_q));
    prop_assert!(
        same_result(&lenient, &oracle_lenient),
        "lenient, text {:?}\n  left: {:?}\n right: {:?}",
        text,
        lenient,
        oracle_lenient
    );
    prop_assert_eq!(
        &q,
        &oracle_q,
        "quarantine, text {:?}\n  left: {:?}\n right: {:?}",
        text,
        q,
        oracle_q
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn reader_equals_the_oracle_on_hostile_documents(text in document()) {
        assert_readers_agree(&text)?;
    }

    #[test]
    fn reader_equals_the_oracle_on_hostile_characters(
        body in "[ab1,\"\n\r .e\u{a0}-]{0,120}",
        header in 0usize..3,
    ) {
        let text = format!("{}{body}", HEADERS[header]);
        assert_readers_agree(&text)?;
    }
}

#[test]
fn reader_equals_the_oracle_on_fixed_edge_cases() {
    for text in [
        "",
        "\n",
        "\r",
        "x,a,b,y",
        "x,a,b,y\r",
        "x,a,b,y\n1,v,w,2\r",
        "x,a,b,y\n1,v,w,2",
        "x,a,b,y\n1,\"v\nw\",w,2\nbad,row\n",
        "x,a,b,y\n1,\"unterminated,w,2\n3,v,w,4\n",
        "x,a,b,y\n\u{2003}\n\u{a0}\u{3000}\r\n1,v,v,1\n",
        "x,a,b,y\r\n1,v,w,2\r\n3,v,w,4\r\n",
        "x,a,b,y\n1,v,\"w\"\"\",2\n1,v,mid\"q,2\n",
        "x,a,b,y\n1,v,w\n1,v,w,2,3\nnope,v,w,2\n",
        "\"x\na\",b,y\n1,v,w,2\n",
    ] {
        assert_readers_agree(text).unwrap();
    }
}
