//! Columnar in-memory dataset.
//!
//! Storage is column-major: numeric columns are `Vec<Option<f64>>`, while
//! categorical columns are dictionary-encoded (`Vec<String>` dictionary plus
//! `Vec<Option<u32>>` codes). This keeps the ~25 000 × 132 collection of the
//! paper compact and makes the per-attribute scans of the pre-processing and
//! analytics stages cache-friendly.

use crate::attribute::{AttrId, AttrKind};
use crate::error::ModelError;
use crate::schema::Schema;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Dictionary-encoded categorical column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatColumn {
    dict: Vec<String>,
    index: HashMap<String, u32>,
    codes: Vec<Option<u32>>,
}

impl CatColumn {
    /// Interns `label` and returns its code.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&code) = self.index.get(label) {
            return code;
        }
        let code = self.dict.len() as u32;
        self.dict.push(label.to_owned());
        self.index.insert(label.to_owned(), code);
        code
    }

    /// The label for a code.
    pub fn label(&self, code: u32) -> Option<&str> {
        self.dict.get(code as usize).map(String::as_str)
    }

    /// The code for a label, if already interned.
    pub fn code(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// Number of distinct labels interned so far.
    pub fn cardinality(&self) -> usize {
        self.dict.len()
    }

    /// Raw codes, one per row.
    pub fn codes(&self) -> &[Option<u32>] {
        &self.codes
    }

    /// The label at a row, if present.
    pub fn get(&self, row: usize) -> Option<&str> {
        self.codes
            .get(row)
            .copied()
            .flatten()
            .and_then(|c| self.label(c))
    }

    /// A new column holding the cells at `rows` (every row in range). Its
    /// dictionary holds only the labels those cells use, in order of first
    /// appearance — the dictionary interning them cell by cell builds.
    fn gather(&self, rows: &[usize]) -> CatColumn {
        let mut renumber = Renumber::new(self.dict.len());
        let codes = rows
            .iter()
            .map(|&row| {
                let code = self.codes.get(row).copied().flatten()?;
                renumber.code(code)
            })
            .collect();
        let dict: Vec<String> = renumber
            .old_of
            .iter()
            .filter_map(|&code| self.label(code).map(str::to_owned))
            .collect();
        let index = dict.iter().cloned().zip(0..).collect();
        CatColumn { dict, index, codes }
    }

    /// Keeps the cells where `mask` (one flag per cell) is `true`, in
    /// place, and renumbers the dictionary the way [`CatColumn::gather`]
    /// does: unused labels are dropped and the rest move, uncloned, into
    /// first-appearance order.
    fn retain(&mut self, mask: &[bool]) {
        let mut keep = mask.iter().copied();
        self.codes.retain(|_| keep.next().unwrap_or(false));
        let mut renumber = Renumber::new(self.dict.len());
        for code in self.codes.iter_mut().flatten() {
            if let Some(new) = renumber.code(*code) {
                *code = new;
            }
        }
        let mut old: Vec<Option<String>> = std::mem::take(&mut self.dict)
            .into_iter()
            .map(Some)
            .collect();
        self.dict = renumber
            .old_of
            .iter()
            .filter_map(|&code| old.get_mut(code as usize).and_then(Option::take))
            .collect();
        self.index.retain(
            |_, code| match renumber.new_of.get(*code as usize).copied().flatten() {
                Some(new) => {
                    *code = new;
                    true
                }
                None => false,
            },
        );
    }

    /// Appends `other`'s cells, interning each of its labels the first
    /// time one of its codes appears — what pushing its cells one by one
    /// does.
    fn extend_from(&mut self, other: &CatColumn) {
        let mut table: Vec<Option<u32>> = vec![None; other.dict.len()];
        for &code in other.codes.iter().flatten() {
            if let Some(slot) = table.get_mut(code as usize) {
                if slot.is_none() {
                    *slot = other.label(code).map(|label| self.intern(label));
                }
            }
        }
        self.codes.extend(
            other
                .codes
                .iter()
                .map(|code| code.and_then(|c| table.get(c as usize).copied().flatten())),
        );
    }

    /// The column's checkpoint JSON: `{"codes": [..], "dict": [..]}`.
    fn to_json_value(&self) -> serde::Value {
        use serde::Value as J;
        let dict = J::Array(self.dict.iter().cloned().map(J::Str).collect());
        let codes = J::Array(
            self.codes
                .iter()
                .map(|c| match c {
                    Some(code) => J::Num(*code as f64),
                    None => J::Null,
                })
                .collect(),
        );
        J::Object(
            [("codes".to_owned(), codes), ("dict".to_owned(), dict)]
                .into_iter()
                .collect(),
        )
    }
}

/// First-appearance renumbering of dictionary codes: codes are numbered
/// in the order [`Renumber::code`] first sees them, which is the order
/// interning their labels one by one assigns.
struct Renumber {
    /// Old code → new code, `None` until first seen.
    new_of: Vec<Option<u32>>,
    /// New code → old code.
    old_of: Vec<u32>,
}

impl Renumber {
    fn new(cardinality: usize) -> Self {
        Renumber {
            new_of: vec![None; cardinality],
            old_of: Vec::new(),
        }
    }

    /// The new code of `old`, assigning the next one on first sight;
    /// `None` only for a code outside the dictionary.
    fn code(&mut self, old: u32) -> Option<u32> {
        let slot = self.new_of.get_mut(old as usize)?;
        let old_of = &mut self.old_of;
        Some(*slot.get_or_insert_with(|| {
            old_of.push(old);
            old_of.len() as u32 - 1
        }))
    }
}

/// The payload of a column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Quantitative values (missing = `None`).
    Numeric(Vec<Option<f64>>),
    /// Dictionary-encoded categorical values.
    Categorical(CatColumn),
}

/// A single dataset column: payload plus a cached missing-value count.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    missing: usize,
}

impl Column {
    fn new(kind: &AttrKind) -> Self {
        let data = match kind {
            AttrKind::Numeric { .. } => ColumnData::Numeric(Vec::new()),
            AttrKind::Categorical => ColumnData::Categorical(CatColumn::default()),
        };
        Column { data, missing: 0 }
    }

    fn recount_missing(&mut self) {
        self.missing = match &self.data {
            ColumnData::Numeric(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Categorical(c) => c.codes.iter().filter(|x| x.is_none()).count(),
        };
    }

    /// A new column holding the cells at `rows` (every row in range).
    fn gather(&self, rows: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Numeric(v) => {
                ColumnData::Numeric(rows.iter().map(|&r| v.get(r).copied().flatten()).collect())
            }
            ColumnData::Categorical(c) => ColumnData::Categorical(c.gather(rows)),
        };
        let mut column = Column { data, missing: 0 };
        column.recount_missing();
        column
    }

    /// Keeps the cells where `mask` (one flag per cell) is `true`, in place.
    fn retain(&mut self, mask: &[bool]) {
        match &mut self.data {
            ColumnData::Numeric(v) => {
                let mut keep = mask.iter().copied();
                v.retain(|_| keep.next().unwrap_or(false));
            }
            ColumnData::Categorical(c) => c.retain(mask),
        }
        self.recount_missing();
    }

    fn same_kind(&self, other: &Column) -> bool {
        std::mem::discriminant(&self.data) == std::mem::discriminant(&other.data)
    }

    /// Appends `other`'s cells (a column of the same kind; a column of
    /// another kind appends nothing).
    fn extend_from(&mut self, other: &Column) {
        match (&mut self.data, &other.data) {
            (ColumnData::Numeric(v), ColumnData::Numeric(o)) => v.extend_from_slice(o),
            (ColumnData::Categorical(c), ColumnData::Categorical(o)) => c.extend_from(o),
            _ => return,
        }
        self.missing += other.missing;
    }

    /// The column's checkpoint JSON: `{"num": [..]}` with `null` for
    /// missing cells, or `{"cat": {"codes": [..], "dict": [..]}}`.
    fn to_json_value(&self) -> serde::Value {
        use serde::Value as J;
        let (tag, body) = match &self.data {
            ColumnData::Numeric(vals) => (
                "num",
                J::Array(
                    vals.iter()
                        .map(|v| crate::jsonnum::encode_opt_f64(*v))
                        .collect(),
                ),
            ),
            ColumnData::Categorical(cat) => ("cat", cat.to_json_value()),
        };
        J::Object([(tag.to_owned(), body)].into_iter().collect())
    }

    /// The column payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Number of missing values in the column.
    pub fn missing_count(&self) -> usize {
        self.missing
    }

    fn len(&self) -> usize {
        match &self.data {
            ColumnData::Numeric(v) => v.len(),
            ColumnData::Categorical(c) => c.codes.len(),
        }
    }

    /// Appends one cell. A label equal to the label of `*last` (the code
    /// this column received last) reuses that code without a dictionary
    /// lookup; dictionary labels are distinct, so it is the code
    /// [`CatColumn::intern`] would return.
    fn push_cell(
        &mut self,
        cell: Cell<'_>,
        last: &mut Option<u32>,
        attr_name: &str,
    ) -> Result<(), ModelError> {
        match (&mut self.data, cell) {
            (ColumnData::Numeric(v), Cell::Num(x)) => v.push(Some(x)),
            (ColumnData::Numeric(v), Cell::Missing) => {
                v.push(None);
                self.missing += 1;
            }
            (ColumnData::Categorical(c), Cell::Cat(label)) => {
                let code = match *last {
                    Some(code) if c.label(code) == Some(label) => code,
                    _ => c.intern(label),
                };
                *last = Some(code);
                c.codes.push(Some(code));
            }
            (ColumnData::Categorical(c), Cell::Missing) => {
                c.codes.push(None);
                self.missing += 1;
            }
            (_, cell) => {
                return Err(ModelError::KindMismatch {
                    attribute: attr_name.to_owned(),
                    expected: match self.data {
                        ColumnData::Numeric(_) => "numeric",
                        ColumnData::Categorical(_) => "categorical",
                    },
                    got: cell.kind_name(),
                })
            }
        }
        Ok(())
    }

    fn get(&self, row: usize) -> Value {
        match &self.data {
            ColumnData::Numeric(v) => match v.get(row).copied().flatten() {
                Some(x) => Value::Num(x),
                None => Value::Missing,
            },
            ColumnData::Categorical(c) => match c.get(row) {
                Some(s) => Value::Cat(s.to_owned()),
                None => Value::Missing,
            },
        }
    }

    fn set(&mut self, row: usize, value: Value, attr_name: &str) -> Result<(), ModelError> {
        let was_missing = self.get(row).is_missing();
        // Column::set is only reached through Dataset::set_value, which
        // rejects row >= n_rows before delegating; every column stores
        // exactly n_rows entries, so the arm indexing below cannot panic.
        match (&mut self.data, value) {
            (ColumnData::Numeric(v), Value::Num(x)) => v[row] = Some(x), // lint:allow(D7): row < n_rows == v.len(), guarded in set_value — covers both numeric arms
            (ColumnData::Numeric(v), Value::Missing) => v[row] = None,
            (ColumnData::Categorical(c), Value::Cat(s)) => {
                let code = c.intern(&s);
                c.codes[row] = Some(code); // lint:allow(D7): row < n_rows == codes.len(), guarded in set_value
            }
            (ColumnData::Categorical(c), Value::Missing) => c.codes[row] = None, // lint:allow(D7): row < n_rows == codes.len(), guarded in set_value
            (_, v) => {
                return Err(ModelError::KindMismatch {
                    attribute: attr_name.to_owned(),
                    expected: match self.data {
                        ColumnData::Numeric(_) => "numeric",
                        ColumnData::Categorical(_) => "categorical",
                    },
                    got: v.kind_name(),
                })
            }
        }
        let is_missing = self.get(row).is_missing();
        match (was_missing, is_missing) {
            (true, false) => self.missing -= 1,
            (false, true) => self.missing += 1,
            _ => {}
        }
        Ok(())
    }
}

/// One cell to push: what [`Value`] holds, with the label borrowed instead
/// of owned (from a CSV document, or from a [`Record`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Cell<'a> {
    Missing,
    Num(f64),
    Cat(&'a str),
}

impl Cell<'_> {
    fn kind_name(&self) -> &'static str {
        match self {
            Cell::Missing => "missing",
            Cell::Num(_) => "numeric",
            Cell::Cat(_) => "categorical",
        }
    }
}

/// A row under construction, validated against the schema on push.
#[derive(Debug, Clone)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// A record of all-missing values with the given arity.
    pub fn missing(arity: usize) -> Self {
        Record {
            values: vec![Value::Missing; arity],
        }
    }

    /// Builds a record from a full value vector.
    pub fn from_values(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// Sets a field by attribute id.
    pub fn set(&mut self, id: AttrId, value: Value) -> Result<(), ModelError> {
        let slot = self
            .values
            .get_mut(id.index())
            .ok_or(ModelError::InvalidAttrId(id.0))?;
        *slot = value;
        Ok(())
    }

    /// Sets a field by attribute name, resolving through `schema`.
    pub fn set_by_name(
        &mut self,
        schema: &Schema,
        name: &str,
        value: Value,
    ) -> Result<(), ModelError> {
        let id = schema.require(name)?;
        self.set(id, value)
    }

    /// Reads a field by attribute id.
    pub fn get(&self, id: AttrId) -> Option<&Value> {
        self.values.get(id.index())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Consumes the record into its value vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

/// A read-only view over one dataset row.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    dataset: &'a Dataset,
    row: usize,
}

impl<'a> RowView<'a> {
    /// The row index inside the dataset.
    pub fn row_index(&self) -> usize {
        self.row
    }

    /// The value of an attribute by id (owned; categorical labels are cloned).
    pub fn value(&self, id: AttrId) -> Value {
        self.dataset.value(self.row, id)
    }

    /// The numeric value of an attribute, if present and numeric.
    pub fn num(&self, id: AttrId) -> Option<f64> {
        self.dataset.num(self.row, id)
    }

    /// The categorical label of an attribute, if present and categorical.
    pub fn cat(&self, id: AttrId) -> Option<&'a str> {
        self.dataset.cat(self.row, id)
    }

    /// Shorthand: numeric value looked up by attribute name.
    pub fn num_by_name(&self, name: &str) -> Option<f64> {
        self.dataset
            .schema()
            .attr_id(name)
            .and_then(|id| self.num(id))
    }

    /// Shorthand: categorical label looked up by attribute name.
    pub fn cat_by_name(&self, name: &str) -> Option<&'a str> {
        self.dataset
            .schema()
            .attr_id(name)
            .and_then(|id| self.cat(id))
    }
}

/// Columnar dataset of EPC records sharing one [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    /// An empty dataset over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let columns = schema.iter().map(|(_, d)| Column::new(&d.kind)).collect();
        Dataset {
            schema,
            columns,
            n_rows: 0,
        }
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// A clone of the shared schema handle.
    pub fn schema_arc(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (= schema length).
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// `true` when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// A new all-missing record with the right arity for this dataset.
    pub fn empty_record(&self) -> Record {
        Record::missing(self.schema.len())
    }

    /// Appends one record, validating arity and value kinds.
    pub fn push_record(&mut self, record: Record) -> Result<(), ModelError> {
        let cells: Vec<Cell<'_>> = record
            .values
            .iter()
            .map(|value| match value {
                Value::Missing => Cell::Missing,
                Value::Num(x) => Cell::Num(*x),
                Value::Cat(label) => Cell::Cat(label),
            })
            .collect();
        self.push_cells(&cells, &mut vec![None; self.columns.len()])
    }

    /// Appends one row of cells, validating arity and cell kinds first so
    /// that a failed push leaves every column at the same length. `last`
    /// holds one slot per column, the code that column last received
    /// through this call (see [`Column::push_cell`]); the caller starts it
    /// all `None`.
    pub(crate) fn push_cells(
        &mut self,
        cells: &[Cell<'_>],
        last: &mut [Option<u32>],
    ) -> Result<(), ModelError> {
        if cells.len() != self.schema.len() || last.len() != self.schema.len() {
            return Err(ModelError::ArityMismatch {
                expected: self.schema.len(),
                got: cells.len(),
            });
        }
        for (cell, (_, def)) in cells.iter().zip(self.schema.iter()) {
            let ok = matches!(
                (cell, &def.kind),
                (Cell::Missing, _)
                    | (Cell::Num(_), AttrKind::Numeric { .. })
                    | (Cell::Cat(_), AttrKind::Categorical)
            );
            if !ok {
                return Err(ModelError::KindMismatch {
                    attribute: def.name.clone(),
                    expected: def.kind.name(),
                    got: cell.kind_name(),
                });
            }
        }
        for (((col, cell), last), (_, def)) in self
            .columns
            .iter_mut()
            .zip(cells)
            .zip(last.iter_mut())
            .zip(self.schema.iter())
        {
            col.push_cell(*cell, last, &def.name)?;
        }
        self.n_rows += 1;
        debug_assert!(self.columns.iter().all(|c| c.len() == self.n_rows));
        Ok(())
    }

    /// The column for an attribute id.
    pub fn column(&self, id: AttrId) -> Option<&Column> {
        self.columns.get(id.index())
    }

    /// The column for an attribute name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.attr_id(name).and_then(|id| self.column(id))
    }

    /// The value at `(row, attribute)` — `Missing` when absent.
    pub fn value(&self, row: usize, id: AttrId) -> Value {
        self.columns
            .get(id.index())
            .map(|c| c.get(row))
            .unwrap_or(Value::Missing)
    }

    /// The numeric value at `(row, attribute)`, if present.
    pub fn num(&self, row: usize, id: AttrId) -> Option<f64> {
        match self.columns.get(id.index()).map(|c| &c.data) {
            Some(ColumnData::Numeric(v)) => v.get(row).copied().flatten(),
            _ => None,
        }
    }

    /// The categorical label at `(row, attribute)`, if present.
    pub fn cat(&self, row: usize, id: AttrId) -> Option<&str> {
        match self.columns.get(id.index()).map(|c| &c.data) {
            Some(ColumnData::Categorical(c)) => c.get(row),
            _ => None,
        }
    }

    /// Overwrites one cell (used by the cleaning step to repair fields).
    pub fn set_value(&mut self, row: usize, id: AttrId, value: Value) -> Result<(), ModelError> {
        if row >= self.n_rows {
            return Err(ModelError::RowOutOfBounds {
                row,
                n_rows: self.n_rows,
            });
        }
        let name = self
            .schema
            .def(id)
            .ok_or(ModelError::InvalidAttrId(id.0))?
            .name
            .clone();
        // lint:allow(D7): schema.def(id) above proves id indexes a live column
        self.columns[id.index()].set(row, value, &name)
    }

    /// A view over row `row`.
    pub fn row(&self, row: usize) -> Result<RowView<'_>, ModelError> {
        if row >= self.n_rows {
            return Err(ModelError::RowOutOfBounds {
                row,
                n_rows: self.n_rows,
            });
        }
        Ok(RowView { dataset: self, row })
    }

    /// Iterates all rows.
    pub fn rows(&self) -> impl Iterator<Item = RowView<'_>> {
        (0..self.n_rows).map(move |row| RowView { dataset: self, row })
    }

    /// Dense copy of a numeric column (missing values skipped), together
    /// with the row index of each kept value.
    pub fn numeric_with_rows(&self, id: AttrId) -> (Vec<f64>, Vec<usize>) {
        let mut values = Vec::new();
        let mut rows = Vec::new();
        if let Some(ColumnData::Numeric(v)) = self.columns.get(id.index()).map(|c| &c.data) {
            for (row, x) in v.iter().enumerate() {
                if let Some(x) = x {
                    values.push(*x);
                    rows.push(row);
                }
            }
        }
        (values, rows)
    }

    /// Dense copy of a numeric column (missing values skipped).
    pub fn numeric_values(&self, id: AttrId) -> Vec<f64> {
        self.numeric_with_rows(id).0
    }

    /// Numeric column as `Option<f64>` per row (empty for categorical ids).
    pub fn numeric_column(&self, id: AttrId) -> &[Option<f64>] {
        match self.columns.get(id.index()).map(|c| &c.data) {
            Some(ColumnData::Numeric(v)) => v,
            _ => &[],
        }
    }

    /// New dataset containing the rows at `indices`, in that order.
    ///
    /// Works column by column. Each categorical dictionary keeps only the
    /// labels the selected rows use, in order of first appearance — so the
    /// result equals pushing the selected rows one by one into an empty
    /// dataset, dictionaries included.
    pub fn select_rows(&self, indices: &[usize]) -> Result<Dataset, ModelError> {
        if let Some(&row) = indices.iter().find(|&&row| row >= self.n_rows) {
            return Err(ModelError::RowOutOfBounds {
                row,
                n_rows: self.n_rows,
            });
        }
        Ok(Dataset {
            schema: self.schema_arc(),
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            n_rows: indices.len(),
        })
    }

    /// Keeps the rows where `mask[row]` is `true`, in place: the dataset
    /// becomes what [`Dataset::select_rows`] over the kept rows returns.
    ///
    /// `mask` must have exactly `n_rows` entries; otherwise nothing
    /// changes.
    pub fn retain_mask(&mut self, mask: &[bool]) -> Result<(), ModelError> {
        if mask.len() != self.n_rows {
            return Err(ModelError::ArityMismatch {
                expected: self.n_rows,
                got: mask.len(),
            });
        }
        for column in &mut self.columns {
            column.retain(mask);
        }
        self.n_rows = mask.iter().filter(|&&keep| keep).count();
        Ok(())
    }

    /// Appends all rows of `other` (same schema required), column by
    /// column: the result equals pushing `other`'s rows one by one.
    pub fn append(&mut self, other: &Dataset) -> Result<(), ModelError> {
        let same_kinds = self
            .columns
            .iter()
            .zip(&other.columns)
            .all(|(a, b)| a.same_kind(b));
        if *self.schema != *other.schema || !same_kinds {
            return Err(ModelError::SchemaMismatch);
        }
        for (column, theirs) in self.columns.iter_mut().zip(&other.columns) {
            column.extend_from(theirs);
        }
        self.n_rows += other.n_rows;
        Ok(())
    }

    /// Appends the compact JSON text of [`serde::Serialize::to_json_value`]
    /// to `out`, building one column's JSON tree at a time instead of the
    /// whole dataset's.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"columns\":[");
        for (i, column) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&column.to_json_value().to_compact_string());
        }
        out.push_str("],\"n_rows\":");
        out.push_str(&serde::Value::Num(self.n_rows as f64).to_compact_string());
        out.push_str(",\"schema\":");
        out.push_str(&serde::Serialize::to_json_value(&*self.schema).to_compact_string());
        out.push('}');
    }

    /// Total number of missing cells across all columns.
    pub fn total_missing(&self) -> usize {
        self.columns.iter().map(|c| c.missing_count()).sum()
    }
}

// Checkpoint serde. Hand-written because the derived float encoding is lossy
// (`crate::jsonnum` documents the four bad cases) and because the columnar
// invariants — dictionary/index coherence, cached missing counts, uniform
// column lengths — must be revalidated when rehydrating from disk rather
// than trusted. Numeric columns encode as `{"num": [..]}` with `null` for
// missing cells (unambiguous: `encode_f64` never emits `null`), categorical
// columns as `{"cat": {"dict": [..], "codes": [..]}}`.
impl serde::Serialize for Dataset {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value as J;
        let map: serde::Map<String, J> = [
            (
                "columns".to_owned(),
                J::Array(self.columns.iter().map(Column::to_json_value).collect()),
            ),
            ("n_rows".to_owned(), J::Num(self.n_rows as f64)),
            ("schema".to_owned(), self.schema.to_json_value()),
        ]
        .into_iter()
        .collect();
        J::Object(map)
    }
}

impl serde::Deserialize for Dataset {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::{Error, Value as J};
        let schema_v = v
            .get("schema")
            .ok_or_else(|| Error::custom("Dataset missing field \"schema\""))?;
        let mut schema = <Schema as serde::Deserialize>::from_json_value(schema_v)?;
        schema.reindex();
        let n_rows = v
            .get("n_rows")
            .and_then(J::as_u64)
            .ok_or_else(|| Error::custom("Dataset missing integer field \"n_rows\""))?
            as usize;
        let cols_v = v
            .get("columns")
            .and_then(J::as_array)
            .ok_or_else(|| Error::custom("Dataset missing array field \"columns\""))?;
        if cols_v.len() != schema.len() {
            return Err(Error::custom(format!(
                "Dataset checkpoint has {} columns but schema defines {}",
                cols_v.len(),
                schema.len()
            )));
        }
        let mut columns = Vec::with_capacity(cols_v.len());
        for (col_v, (_, def)) in cols_v.iter().zip(schema.iter()) {
            let column = if let Some(vals) = col_v.get("num").and_then(J::as_array) {
                if !matches!(def.kind, AttrKind::Numeric { .. }) {
                    return Err(Error::custom(format!(
                        "column {:?} is numeric in the checkpoint but categorical in the schema",
                        def.name
                    )));
                }
                let mut out = Vec::with_capacity(vals.len());
                let mut missing = 0;
                for cell in vals {
                    let cell = crate::jsonnum::decode_opt_f64(cell)?;
                    missing += usize::from(cell.is_none());
                    out.push(cell);
                }
                Column {
                    data: ColumnData::Numeric(out),
                    missing,
                }
            } else if let Some(body) = col_v.get("cat") {
                if !matches!(def.kind, AttrKind::Categorical) {
                    return Err(Error::custom(format!(
                        "column {:?} is categorical in the checkpoint but numeric in the schema",
                        def.name
                    )));
                }
                let dict_v = body
                    .get("dict")
                    .and_then(J::as_array)
                    .ok_or_else(|| Error::custom("categorical column missing \"dict\""))?;
                let codes_v = body
                    .get("codes")
                    .and_then(J::as_array)
                    .ok_or_else(|| Error::custom("categorical column missing \"codes\""))?;
                let mut cat = CatColumn::default();
                for label in dict_v {
                    let label = label
                        .as_str()
                        .ok_or_else(|| Error::mismatch("dictionary label string", label))?;
                    cat.intern(label);
                }
                if cat.dict.len() != dict_v.len() {
                    return Err(Error::custom(format!(
                        "dictionary of column {:?} contains duplicate labels",
                        def.name
                    )));
                }
                let mut missing = 0;
                for code in codes_v {
                    let code = match code {
                        J::Null => {
                            missing += 1;
                            None
                        }
                        other => {
                            let code = other
                                .as_u64()
                                .ok_or_else(|| Error::mismatch("dictionary code", other))?
                                as u32;
                            if code as usize >= cat.dict.len() {
                                return Err(Error::custom(format!(
                                    "code {code} out of range for dictionary of column {:?}",
                                    def.name
                                )));
                            }
                            Some(code)
                        }
                    };
                    cat.codes.push(code);
                }
                Column {
                    data: ColumnData::Categorical(cat),
                    missing,
                }
            } else {
                return Err(Error::custom(format!(
                    "column {:?} has neither \"num\" nor \"cat\" payload",
                    def.name
                )));
            };
            if column.len() != n_rows {
                return Err(Error::custom(format!(
                    "column {:?} has {} cells but the checkpoint declares {} rows",
                    def.name,
                    column.len(),
                    n_rows
                )));
            }
            columns.push(column);
        }
        Ok(Dataset {
            schema: Arc::new(schema),
            columns,
            n_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::AttributeDef;

    fn small_schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(vec![
                AttributeDef::numeric("x", "", "x value"),
                AttributeDef::categorical("label", "a label"),
                AttributeDef::numeric("y", "m", "y value"),
            ])
            .unwrap(),
        )
    }

    fn push(ds: &mut Dataset, x: Option<f64>, label: Option<&str>, y: Option<f64>) {
        let mut r = ds.empty_record();
        r.set(AttrId(0), Value::from(x)).unwrap();
        r.set(AttrId(1), label.map(Value::cat).unwrap_or(Value::Missing))
            .unwrap();
        r.set(AttrId(2), Value::from(y)).unwrap();
        ds.push_record(r).unwrap();
    }

    #[test]
    fn push_and_read_back() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, Some(1.0), Some("a"), Some(2.0));
        push(&mut ds, Some(3.0), Some("b"), None);
        push(&mut ds, None, Some("a"), Some(4.0));

        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_cols(), 3);
        assert_eq!(ds.num(0, AttrId(0)), Some(1.0));
        assert_eq!(ds.cat(1, AttrId(1)), Some("b"));
        assert_eq!(ds.num(1, AttrId(2)), None);
        assert_eq!(ds.value(2, AttrId(0)), Value::Missing);
        assert_eq!(ds.total_missing(), 2);
    }

    #[test]
    fn categorical_dictionary_is_shared() {
        let mut ds = Dataset::new(small_schema());
        for _ in 0..100 {
            push(&mut ds, Some(0.0), Some("same"), Some(0.0));
        }
        match ds.column(AttrId(1)).unwrap().data() {
            ColumnData::Categorical(c) => {
                assert_eq!(c.cardinality(), 1);
                assert_eq!(c.codes().len(), 100);
            }
            _ => panic!("expected categorical"),
        }
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let mut ds = Dataset::new(small_schema());
        let mut r = ds.empty_record();
        r.set(AttrId(0), Value::cat("oops")).unwrap();
        let err = ds.push_record(r).unwrap_err();
        assert!(matches!(err, ModelError::KindMismatch { .. }));
        // A failed push must not corrupt row count.
        assert_eq!(ds.n_rows(), 0);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut ds = Dataset::new(small_schema());
        let err = ds.push_record(Record::missing(2)).unwrap_err();
        assert_eq!(
            err,
            ModelError::ArityMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn set_value_updates_missing_counts() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, None, None, Some(1.0));
        assert_eq!(ds.column(AttrId(0)).unwrap().missing_count(), 1);
        ds.set_value(0, AttrId(0), Value::num(5.0)).unwrap();
        assert_eq!(ds.column(AttrId(0)).unwrap().missing_count(), 0);
        assert_eq!(ds.num(0, AttrId(0)), Some(5.0));
        ds.set_value(0, AttrId(0), Value::Missing).unwrap();
        assert_eq!(ds.column(AttrId(0)).unwrap().missing_count(), 1);

        ds.set_value(0, AttrId(1), Value::cat("fixed")).unwrap();
        assert_eq!(ds.cat(0, AttrId(1)), Some("fixed"));
        assert_eq!(ds.column(AttrId(1)).unwrap().missing_count(), 0);
    }

    #[test]
    fn set_value_out_of_bounds() {
        let mut ds = Dataset::new(small_schema());
        let err = ds.set_value(0, AttrId(0), Value::num(1.0)).unwrap_err();
        assert!(matches!(err, ModelError::RowOutOfBounds { .. }));
    }

    #[test]
    fn numeric_with_rows_skips_missing() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, Some(1.0), None, None);
        push(&mut ds, None, None, None);
        push(&mut ds, Some(3.0), None, None);
        let (vals, rows) = ds.numeric_with_rows(AttrId(0));
        assert_eq!(vals, vec![1.0, 3.0]);
        assert_eq!(rows, vec![0, 2]);
    }

    #[test]
    fn select_and_filter_rows() {
        let mut ds = Dataset::new(small_schema());
        for i in 0..5 {
            push(
                &mut ds,
                Some(i as f64),
                Some(if i % 2 == 0 { "even" } else { "odd" }),
                None,
            );
        }
        let sel = ds.select_rows(&[4, 0]).unwrap();
        assert_eq!(sel.n_rows(), 2);
        assert_eq!(sel.num(0, AttrId(0)), Some(4.0));
        assert_eq!(sel.num(1, AttrId(0)), Some(0.0));

        let mask: Vec<bool> = (0..5).map(|i| i % 2 == 0).collect();
        let mut filtered = ds.clone();
        filtered.retain_mask(&mask).unwrap();
        assert_eq!(filtered.n_rows(), 3);
        for row in filtered.rows() {
            assert_eq!(row.cat(AttrId(1)), Some("even"));
        }
        assert_eq!(filtered, ds.select_rows(&[0, 2, 4]).unwrap());
    }

    #[test]
    fn retain_mask_requires_full_length() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, Some(1.0), None, None);
        let before = ds.clone();
        assert!(ds.retain_mask(&[]).is_err());
        assert_eq!(ds, before, "a rejected mask changes nothing");
    }

    #[test]
    fn selection_renumbers_dictionaries_in_first_appearance_order() {
        let mut ds = Dataset::new(small_schema());
        for label in ["a", "b", "c", "b"] {
            push(&mut ds, None, Some(label), None);
        }
        // Repair row 0 in place: "a" stays in the dictionary, unused.
        ds.set_value(0, AttrId(1), Value::cat("c")).unwrap();
        let dict = |d: &Dataset| match d.column(AttrId(1)).unwrap().data() {
            ColumnData::Categorical(c) => (0..c.cardinality() as u32)
                .map(|code| c.label(code).unwrap().to_owned())
                .collect::<Vec<_>>(),
            _ => panic!("expected categorical"),
        };
        assert_eq!(dict(&ds), ["a", "b", "c"]);

        let sel = ds.select_rows(&[1, 0, 3]).unwrap();
        assert_eq!(dict(&sel), ["b", "c"], "unused labels drop out");
        let mut kept = ds.clone();
        kept.retain_mask(&[true, true, false, true]).unwrap();
        assert_eq!(dict(&kept), ["c", "b"]);
        assert_eq!(kept, ds.select_rows(&[0, 1, 3]).unwrap());

        let mut appended = sel.clone();
        appended.append(&ds).unwrap();
        assert_eq!(dict(&appended), ["b", "c"], "only used labels are interned");
        assert_eq!(appended.cat(3, AttrId(1)), Some("c"));
    }

    #[test]
    fn row_views_expose_named_lookups() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, Some(1.5), Some("a"), Some(2.5));
        let row = ds.row(0).unwrap();
        assert_eq!(row.num_by_name("x"), Some(1.5));
        assert_eq!(row.cat_by_name("label"), Some("a"));
        assert_eq!(row.num_by_name("label"), None);
        assert_eq!(row.row_index(), 0);
        assert!(ds.row(1).is_err());
    }

    #[test]
    fn append_requires_same_schema() {
        let mut a = Dataset::new(small_schema());
        let mut b = Dataset::new(small_schema());
        push(&mut a, Some(1.0), Some("a"), None);
        push(&mut b, Some(2.0), Some("b"), None);
        a.append(&b).unwrap();
        assert_eq!(a.n_rows(), 2);
        assert_eq!(a.cat(1, AttrId(1)), Some("b"));

        let other = Dataset::new(Arc::new(
            Schema::new(vec![AttributeDef::numeric("z", "", "")]).unwrap(),
        ));
        assert_eq!(a.append(&other).unwrap_err(), ModelError::SchemaMismatch);
    }

    #[test]
    fn checkpoint_serde_round_trips_exactly() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, Some(1.0 / 3.0), Some("a"), Some(2.0));
        push(&mut ds, Some(f64::NAN), Some("b"), None);
        push(&mut ds, None, None, Some(-0.0));
        push(&mut ds, Some(f64::NEG_INFINITY), Some("a"), Some(5e-324));

        let text = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&text).unwrap();

        assert_eq!(back.n_rows(), 4);
        assert_eq!(back.schema(), ds.schema());
        assert_eq!(back.num(0, AttrId(0)), Some(1.0 / 3.0));
        assert!(back.num(1, AttrId(0)).unwrap().is_nan());
        assert_eq!(back.num(3, AttrId(0)), Some(f64::NEG_INFINITY));
        let z = back.num(2, AttrId(2)).unwrap();
        assert!(z == 0.0 && z.is_sign_negative(), "-0.0 must survive");
        assert_eq!(back.num(3, AttrId(2)), Some(5e-324));
        assert_eq!(back.cat(1, AttrId(1)), Some("b"));
        assert_eq!(back.cat(2, AttrId(1)), None);
        // Rebuilt caches: missing counts, dictionary index, schema index.
        assert_eq!(back.total_missing(), ds.total_missing());
        match back.column(AttrId(1)).unwrap().data() {
            ColumnData::Categorical(c) => assert_eq!(c.code("b"), Some(1)),
            _ => panic!("expected categorical"),
        }
        assert_eq!(back.schema().attr_id("y"), Some(AttrId(2)));
        // Serialization is deterministic: same bytes both times.
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn checkpoint_serde_rejects_corruption() {
        let mut ds = Dataset::new(small_schema());
        push(&mut ds, Some(1.0), Some("a"), None);
        let good = serde_json::to_string(&ds).unwrap();

        // Declared row count disagreeing with the cells.
        let bad = good.replace("\"n_rows\":1", "\"n_rows\":2");
        assert!(serde_json::from_str::<Dataset>(&bad).is_err());
        // A dictionary code pointing outside the dictionary.
        let bad = good.replace("\"codes\":[0]", "\"codes\":[7]");
        assert!(serde_json::from_str::<Dataset>(&bad).is_err());
        // Numeric payload under a categorical attribute.
        let bad = good.replace("\"cat\":{\"codes\":[0],\"dict\":[\"a\"]}", "\"num\":[null]");
        assert!(serde_json::from_str::<Dataset>(&bad).is_err());
        // Truncated column payload.
        let bad = good.replace("\"num\":[1]", "\"num\":[]");
        assert!(serde_json::from_str::<Dataset>(&bad).is_err());
    }

    #[test]
    fn record_set_by_name() {
        let schema = small_schema();
        let mut r = Record::missing(schema.len());
        r.set_by_name(&schema, "y", Value::num(9.0)).unwrap();
        assert_eq!(r.get(AttrId(2)), Some(&Value::Num(9.0)));
        assert!(r.set_by_name(&schema, "nope", Value::num(0.0)).is_err());
        assert!(r.set(AttrId(99), Value::num(0.0)).is_err());
    }
}
