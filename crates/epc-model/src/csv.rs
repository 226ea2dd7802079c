//! Minimal CSV (de)serialization for datasets.
//!
//! The Piedmont EPC collection is distributed as CSV open data; this module
//! provides a dependency-free reader/writer sufficient for round-tripping
//! datasets produced by the synthetic generator: comma-separated, RFC-4180
//! style quoting (`"` doubling), header row with attribute names, empty
//! fields read as missing.
//!
//! Two readers are offered: [`from_csv`] rejects the whole document on the
//! first malformed row, while [`from_csv_lenient`] diverts malformed rows
//! into a [`Quarantine`] and keeps going — the ingest mode of the
//! fault-tolerant pipeline.

use crate::attribute::AttrId;
use crate::dataset::{Cell, ColumnData, Dataset};
use crate::error::ModelError;
use crate::fault::{Quarantine, RecordFault};
use crate::schema::Schema;
use std::fmt::Write as _;
use std::io;
use std::sync::Arc;

/// Serializes a dataset to CSV with a header row.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    // Appending to a String cannot fail, so neither can the walk.
    let _ = for_each_line(ds, |line| {
        out.push_str(line);
        Ok(())
    });
    out
}

/// Streams [`to_csv`]'s text into `out` one line at a time, reading the
/// columns directly: no per-cell `String`, no document-sized buffer.
pub fn write_csv(ds: &Dataset, out: &mut impl io::Write) -> io::Result<()> {
    for_each_line(ds, |line| out.write_all(line.as_bytes()))
}

/// Renders the header and every row into one reused line buffer and hands
/// each finished line (newline included) to `emit`.
fn for_each_line(ds: &Dataset, mut emit: impl FnMut(&str) -> io::Result<()>) -> io::Result<()> {
    let mut line = String::new();
    for (i, (_, def)) in ds.schema().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_field(&mut line, &def.name);
    }
    line.push('\n');
    emit(&line)?;
    let columns: Vec<&ColumnData> = (0..ds.n_cols())
        .filter_map(|i| ds.column(AttrId(i as u32)))
        .map(|c| c.data())
        .collect();
    for row in 0..ds.n_rows() {
        line.clear();
        for (i, column) in columns.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            match column {
                ColumnData::Numeric(v) => {
                    if let Some(&Some(x)) = v.get(row) {
                        push_num(&mut line, x);
                    }
                }
                ColumnData::Categorical(c) => {
                    if let Some(label) = c.get(row) {
                        push_field(&mut line, label);
                    }
                }
            }
        }
        line.push('\n');
        emit(&line)?;
    }
    Ok(())
}

/// Formats a float without trailing noise: integers below 1e15 render as
/// `i64` (so without ".0", and `-0.0` as `0`), everything else with `{}`.
fn push_num(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Appends one field, quoted (with `"` doubled) when it contains a comma,
/// a quote or a newline.
fn push_field(out: &mut String, field: &str) {
    if field.contains([',', '"', '\n']) {
        out.push('"');
        for (i, part) in field.split('"').enumerate() {
            if i > 0 {
                out.push_str("\"\"");
            }
            out.push_str(part);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Parses a CSV document into a dataset over `schema`.
///
/// The header must list exactly the schema's attribute names in schema
/// order. Empty fields become [`crate::Value::Missing`]; fields of numeric columns
/// that fail to parse as `f64` are an error.
pub fn from_csv(schema: Arc<Schema>, text: &str) -> Result<Dataset, ModelError> {
    read_csv(schema, text, None)
}

/// Fault-tolerant variant of [`from_csv`]: rows that fail to parse — wrong
/// arity, unparsable numbers, unterminated quotes — are diverted into
/// `quarantine` with a [`RecordFault::CsvParse`] reason instead of aborting
/// the whole load. A bad header is still fatal (nothing downstream could
/// be trusted).
pub fn from_csv_lenient(
    schema: Arc<Schema>,
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Dataset, ModelError> {
    read_csv(schema, text, Some(quarantine))
}

/// Shared reader: strict when `quarantine` is `None`, lenient otherwise.
///
/// One pass over `text` that copies no record and no field: [`Records`]
/// yields each logical record as a slice of `text`, a record without `"`
/// splits on `,` into slices, and [`Dataset::push_cells`] interns labels
/// straight from them. A record that holds a `"` goes through
/// [`parse_record`] instead. Errors name the physical line (1-based,
/// counting `\n`) where the record starts.
fn read_csv(
    schema: Arc<Schema>,
    text: &str,
    mut quarantine: Option<&mut Quarantine>,
) -> Result<Dataset, ModelError> {
    let mut records = Records {
        rest: text,
        line: 1,
    };
    let header = records.next().ok_or(ModelError::Csv {
        line: 1,
        reason: "empty document".into(),
    })?;
    let header_fields = parse_record(header.text, header.line)?;
    let expected: Vec<&str> = schema.iter().map(|(_, d)| d.name.as_str()).collect();
    if header_fields.len() != expected.len()
        || header_fields.iter().zip(&expected).any(|(a, b)| a != b)
    {
        return Err(ModelError::Csv {
            line: header.line,
            reason: format!(
                "header does not match schema (got {} fields, expected {})",
                header_fields.len(),
                expected.len()
            ),
        });
    }

    let mut ds = Dataset::new(schema);
    let mut fields: Vec<&str> = Vec::new();
    let mut cells: Vec<Cell<'_>> = Vec::new();
    let mut last = vec![None; ds.n_cols()];
    for record in records {
        if record.text.trim().is_empty() {
            continue;
        }
        let pushed = if record.quoted {
            parse_record(record.text, record.line).and_then(|owned| {
                let fields: Vec<&str> = owned.iter().map(String::as_str).collect();
                let mut cells = Vec::new();
                parse_cells(ds.schema(), &fields, record.line, &mut cells)?;
                ds.push_cells(&cells, &mut last)
            })
        } else {
            fields.clear();
            fields.extend(record.text.split(','));
            parse_cells(ds.schema(), &fields, record.line, &mut cells)
                .and_then(|()| ds.push_cells(&cells, &mut last))
        };
        match (pushed, &mut quarantine) {
            (Ok(()), _) => {}
            (Err(ModelError::Csv { line, reason }), Some(q)) => {
                q.push(
                    format!("line:{line}"),
                    None,
                    RecordFault::CsvParse { line, reason },
                );
            }
            (Err(e), _) => return Err(e),
        }
    }
    Ok(ds)
}

/// Parses one data row's fields against `schema` into `cells` (cleared
/// first): an empty field is missing, a numeric column's field an `f64`,
/// a categorical column's field its label. Fails on the field count, then
/// on the first bad number in column order.
fn parse_cells<'f>(
    schema: &Schema,
    fields: &[&'f str],
    line: usize,
    cells: &mut Vec<Cell<'f>>,
) -> Result<(), ModelError> {
    if fields.len() != schema.len() {
        return Err(ModelError::Csv {
            line,
            reason: format!("expected {} fields, got {}", schema.len(), fields.len()),
        });
    }
    cells.clear();
    for (&field, (_, def)) in fields.iter().zip(schema.iter()) {
        let cell = if field.is_empty() {
            Cell::Missing
        } else if def.kind.is_numeric() {
            Cell::Num(field.parse().map_err(|_| ModelError::Csv {
                line,
                reason: format!("invalid number {field:?} for attribute {}", def.name),
            })?)
        } else {
            Cell::Cat(field)
        };
        cells.push(cell);
    }
    Ok(())
}

/// One logical record: a slice of the document.
struct RawRecord<'a> {
    /// Physical line (1-based) the record starts on.
    line: usize,
    /// The record without its terminating `\n` and one `\r` before it.
    text: &'a str,
    /// Whether the record holds a `"`.
    quoted: bool,
}

/// Splits a CSV document into logical records, honouring quoted newlines:
/// a record ends at the first `\n` after an even number of `"`. One `\r`
/// before that `\n` is dropped (CRLF files); a last record with no `\n`
/// keeps everything, a final `\r` included. `"`, `\r` and `\n` are ASCII,
/// so every offset found here is a char boundary.
struct Records<'a> {
    /// The document after the records already yielded.
    rest: &'a str,
    /// Physical line of the next record.
    line: usize,
}

impl<'a> Iterator for Records<'a> {
    type Item = RawRecord<'a>;

    fn next(&mut self) -> Option<RawRecord<'a>> {
        let rest = self.rest;
        if rest.is_empty() {
            return None;
        }
        let line = self.line;
        // Fast path: the next `\n` ends the record unless a `"` precedes it.
        let newline = rest.find('\n');
        let head = newline.and_then(|at| rest.get(..at)).unwrap_or(rest);
        let (end, quoted) = if head.contains('"') {
            let mut in_quotes = false;
            let mut end = None;
            for (at, byte) in rest.bytes().enumerate() {
                match byte {
                    b'"' => in_quotes = !in_quotes,
                    b'\n' if in_quotes => self.line += 1,
                    b'\n' => {
                        end = Some(at);
                        break;
                    }
                    _ => {}
                }
            }
            (end, true)
        } else {
            (newline, false)
        };
        let text = match end {
            Some(at) => {
                self.rest = rest.get(at + 1..).unwrap_or_default();
                self.line += 1;
                let body = rest.get(..at).unwrap_or_default();
                body.strip_suffix('\r').unwrap_or(body)
            }
            None => {
                self.rest = "";
                rest
            }
        };
        Some(RawRecord { line, text, quoted })
    }
}

/// Parses one logical record into fields, handling quotes.
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

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::attribute::{AttrId, AttributeDef};
    use crate::value::Value;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                AttributeDef::numeric("x", "", ""),
                AttributeDef::categorical("name", ""),
            ])
            .unwrap(),
        )
    }

    fn sample() -> Dataset {
        let mut ds = Dataset::new(schema());
        for (x, name) in [
            (Some(1.5), Some("plain")),
            (Some(2.0), Some("with, comma")),
            (None, Some("with \"quote\"")),
            (Some(-3.25), None),
        ] {
            let mut r = ds.empty_record();
            r.set(AttrId(0), Value::from(x)).unwrap();
            r.set(AttrId(1), name.map(Value::cat).unwrap_or(Value::Missing))
                .unwrap();
            ds.push_record(r).unwrap();
        }
        ds
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ds = sample();
        let text = to_csv(&ds);
        let back = from_csv(schema(), &text).unwrap();
        assert_eq!(back.n_rows(), ds.n_rows());
        for row in 0..ds.n_rows() {
            assert_eq!(back.num(row, AttrId(0)), ds.num(row, AttrId(0)));
            assert_eq!(back.cat(row, AttrId(1)), ds.cat(row, AttrId(1)));
        }
    }

    #[test]
    fn header_is_first_line() {
        let text = to_csv(&sample());
        assert!(text.starts_with("x,name\n"));
    }

    #[test]
    fn quoting_is_applied() {
        let text = to_csv(&sample());
        assert!(text.contains("\"with, comma\""));
        assert!(text.contains("\"with \"\"quote\"\"\""));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        let mut ds = Dataset::new(schema());
        let mut r = ds.empty_record();
        r.set(AttrId(0), Value::num(2016.0)).unwrap();
        ds.push_record(r).unwrap();
        assert!(to_csv(&ds).contains("2016,"));
    }

    #[test]
    fn bad_header_is_rejected() {
        let err = from_csv(schema(), "a,b\n1,2\n").unwrap_err();
        assert!(matches!(err, ModelError::Csv { line: 1, .. }));
    }

    #[test]
    fn bad_number_is_rejected_with_line() {
        let err = from_csv(schema(), "x,name\nnot_a_number,ok\n").unwrap_err();
        match err {
            ModelError::Csv { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("not_a_number"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn wrong_field_count_is_rejected() {
        let err = from_csv(schema(), "x,name\n1\n").unwrap_err();
        assert!(matches!(err, ModelError::Csv { line: 2, .. }));
    }

    #[test]
    fn unterminated_quote_is_rejected() {
        let err = from_csv(schema(), "x,name\n1,\"oops\n").unwrap_err();
        assert!(matches!(err, ModelError::Csv { .. }));
    }

    #[test]
    fn empty_lines_are_skipped() {
        let ds = from_csv(schema(), "x,name\n1,a\n\n2,b\n").unwrap();
        assert_eq!(ds.n_rows(), 2);
    }

    #[test]
    fn lenient_reader_quarantines_bad_rows() {
        let text = "x,name\n1,a\nnot_a_number,b\n2\n3,\"oops\n4,d\n";
        let mut q = Quarantine::new();
        let ds = from_csv_lenient(schema(), text, &mut q).unwrap();
        // Rows 3 (bad number), 4 (arity), 5 (unterminated quote swallows
        // the rest of the document as one logical record) are diverted.
        assert_eq!(ds.n_rows(), 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.histogram()["csv_parse"], 3);
        assert!(q
            .records()
            .iter()
            .any(|r| matches!(&r.fault, RecordFault::CsvParse { line: 3, reason } if reason.contains("not_a_number"))));
    }

    #[test]
    fn errors_name_the_physical_line_a_record_starts_on() {
        // The quoted label spans lines 2-3, so `bad,row` is on line 4.
        let text = "x,name\n1,\"two\nlines\"\nbad,row\n";
        let reason = "invalid number \"bad\" for attribute x".to_owned();
        assert_eq!(
            from_csv(schema(), text).unwrap_err(),
            ModelError::Csv {
                line: 4,
                reason: reason.clone()
            }
        );
        let mut q = Quarantine::new();
        let ds = from_csv_lenient(schema(), text, &mut q).unwrap();
        assert_eq!(ds.cat(0, AttrId(1)), Some("two\nlines"));
        let [record] = q.records() else {
            panic!("expected one quarantined record, got {:?}", q.records());
        };
        assert_eq!(record.key, "line:4");
        assert_eq!(record.fault, RecordFault::CsvParse { line: 4, reason });
    }

    #[test]
    fn lenient_reader_matches_strict_on_clean_input() {
        let text = to_csv(&sample());
        let mut q = Quarantine::new();
        let lenient = from_csv_lenient(schema(), &text, &mut q).unwrap();
        let strict = from_csv(schema(), &text).unwrap();
        assert!(q.is_empty());
        assert_eq!(lenient.n_rows(), strict.n_rows());
        for row in 0..strict.n_rows() {
            assert_eq!(lenient.num(row, AttrId(0)), strict.num(row, AttrId(0)));
            assert_eq!(lenient.cat(row, AttrId(1)), strict.cat(row, AttrId(1)));
        }
    }

    #[test]
    fn lenient_reader_still_rejects_bad_headers() {
        let mut q = Quarantine::new();
        assert!(from_csv_lenient(schema(), "a,b\n1,2\n", &mut q).is_err());
        assert!(from_csv_lenient(schema(), "", &mut q).is_err());
    }

    #[test]
    fn quoted_newline_stays_in_field() {
        let mut ds = Dataset::new(schema());
        let mut r = ds.empty_record();
        r.set(AttrId(0), Value::num(1.0)).unwrap();
        r.set(AttrId(1), Value::cat("line1\nline2")).unwrap();
        ds.push_record(r).unwrap();
        let text = to_csv(&ds);
        let back = from_csv(schema(), &text).unwrap();
        assert_eq!(back.cat(0, AttrId(1)), Some("line1\nline2"));
    }
}
