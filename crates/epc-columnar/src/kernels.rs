//! Vectorized kernels over columnar data.
//!
//! Filter kernels produce selection [`Bitmap`]s and consult zone maps to
//! skip whole blocks; [`ScanStats`] records how many blocks each scan
//! touched versus skipped so `epc-obs` can surface pushdown
//! effectiveness. Gather kernels densify columns for the distance loops
//! in `epc-mining`.
//!
//! Semantics contract: every kernel matches the row path of
//! `epc-query`/`epc-model` exactly — a missing value satisfies no range
//! or equality predicate, NaN satisfies no range predicate, and bounds
//! are inclusive. The differential harness (`tests/columnar.rs`) gates
//! this equivalence bitwise.

use crate::bitmap::Bitmap;
use crate::column::{CategoricalColumn, NumericColumn};
use crate::store::{ColumnStore, StoreColumn};
use epc_model::AttrId;

/// Blocks touched vs skipped by zone maps across filter scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Blocks whose values were actually decoded and tested.
    pub blocks_scanned: u64,
    /// Blocks skipped because their zone map excluded every match.
    pub blocks_skipped: u64,
}

impl ScanStats {
    /// Accumulates another scan's counters into this one.
    pub fn merge(&mut self, other: ScanStats) {
        self.blocks_scanned += other.blocks_scanned;
        self.blocks_skipped += other.blocks_skipped;
    }
}

/// Rows whose numeric value `v` satisfies `min ≤ v ≤ max` (either bound
/// optional, both inclusive). Missing slots and NaN never match. Blocks
/// whose zone map cannot intersect the query range are skipped.
pub fn num_range(
    col: &NumericColumn,
    min: Option<f64>,
    max: Option<f64>,
    stats: &mut ScanStats,
) -> Bitmap {
    let mut out = Bitmap::empty(col.len());
    let mut base = 0usize;
    for block in col.blocks() {
        let matchable = match block.zone() {
            // No present non-NaN value exists, so nothing can match.
            None => false,
            Some((lo, hi)) => min.is_none_or(|m| hi >= m) && max.is_none_or(|m| lo <= m),
        };
        if !matchable {
            stats.blocks_skipped += 1;
            base += block.len();
            continue;
        }
        stats.blocks_scanned += 1;
        let vals = block.decode_present();
        let mut next = 0usize;
        for i in 0..block.len() {
            if block.present().get(i) {
                let v = vals[next];
                next += 1;
                if min.is_none_or(|m| v >= m) && max.is_none_or(|m| v <= m) {
                    out.set(base + i);
                }
            }
        }
        base += block.len();
    }
    out
}

/// Rows whose label equals `value`. A label absent from the dictionary
/// matches nothing without touching any block.
pub fn cat_eq(col: &CategoricalColumn, value: &str, stats: &mut ScanStats) -> Bitmap {
    match col.dict().id_of(value) {
        Some(code) => cat_in_codes(col, &[code], stats),
        None => {
            stats.blocks_skipped += col.blocks().len() as u64;
            Bitmap::empty(col.len())
        }
    }
}

/// Rows whose label is any of `values` (set membership, mirroring the row
/// path's `any`-over-list semantics).
pub fn cat_in(col: &CategoricalColumn, values: &[String], stats: &mut ScanStats) -> Bitmap {
    let mut codes: Vec<u32> = values.iter().filter_map(|v| col.dict().id_of(v)).collect();
    codes.sort_unstable();
    codes.dedup();
    if codes.is_empty() {
        stats.blocks_skipped += col.blocks().len() as u64;
        return Bitmap::empty(col.len());
    }
    cat_in_codes(col, &codes, stats)
}

/// Rows whose code is in the sorted, deduplicated `codes` list.
fn cat_in_codes(col: &CategoricalColumn, codes: &[u32], stats: &mut ScanStats) -> Bitmap {
    let mut out = Bitmap::empty(col.len());
    let mut base = 0usize;
    for block in col.blocks() {
        let matchable = match block.zone() {
            None => false,
            Some((lo, hi)) => codes.iter().any(|&c| c >= lo && c <= hi),
        };
        if !matchable {
            stats.blocks_skipped += 1;
            base += block.len();
            continue;
        }
        stats.blocks_scanned += 1;
        let block_codes = block.decode_present();
        let mut next = 0usize;
        for i in 0..block.len() {
            if block.present().get(i) {
                let c = block_codes[next];
                next += 1;
                if codes.binary_search(&c).is_ok() {
                    out.set(base + i);
                }
            }
        }
        base += block.len();
    }
    out
}

/// Rows holding a value in the attribute's column. An id with no backing
/// column yields the empty bitmap (every row is missing there).
pub fn is_present(store: &ColumnStore, id: AttrId) -> Bitmap {
    match store.column(id) {
        Some(StoreColumn::Numeric(c)) => c.present(),
        Some(StoreColumn::Categorical(c)) => c.present(),
        None => Bitmap::empty(store.n_rows()),
    }
}

/// Rows missing a value in the attribute's column.
pub fn is_missing(store: &ColumnStore, id: AttrId) -> Bitmap {
    is_present(store, id).not()
}

/// Dense gather of the feature columns' complete rows, in row-major order
/// — the exact shape `epc-mining`'s distance loops consume. Returns the
/// original row index of each gathered row plus the flat data. Mirrors
/// the row path bit-for-bit: a row participates only when *every* feature
/// id resolves to a present numeric value.
pub fn gather_complete_rows(store: &ColumnStore, feature_ids: &[AttrId]) -> (Vec<usize>, Vec<f64>) {
    let slots: Vec<Option<Vec<Option<f64>>>> = feature_ids
        .iter()
        .map(|&id| store.numeric(id).map(NumericColumn::to_slots))
        .collect();
    let mut rows = Vec::new();
    let mut data = Vec::new();
    'rows: for r in 0..store.n_rows() {
        let start = data.len();
        for col in &slots {
            match col.as_ref().and_then(|s| s[r]) {
                Some(v) => data.push(v),
                None => {
                    data.truncate(start);
                    continue 'rows;
                }
            }
        }
        rows.push(r);
    }
    (rows, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num_col(slots: &[Option<f64>]) -> NumericColumn {
        NumericColumn::from_slots(slots)
    }

    #[test]
    fn num_range_matches_naive_filter() {
        let slots: Vec<Option<f64>> = (0..2500)
            .map(|i| match i % 7 {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some((i % 100) as f64),
            })
            .collect();
        let col = num_col(&slots);
        let mut stats = ScanStats::default();
        let got = num_range(&col, Some(10.0), Some(20.0), &mut stats);
        let want: Vec<bool> = slots
            .iter()
            .map(|s| s.is_some_and(|v| (10.0..=20.0).contains(&v)))
            .collect();
        assert_eq!(got.to_bools(), want);
        assert_eq!(
            stats.blocks_scanned + stats.blocks_skipped,
            col.blocks().len() as u64
        );
    }

    #[test]
    fn zone_maps_skip_out_of_range_blocks() {
        // First block all below 1000, second block all above.
        let mut slots: Vec<Option<f64>> = vec![Some(1.0); 1024];
        slots.extend(vec![Some(5000.0); 1024]);
        let col = num_col(&slots);
        let mut stats = ScanStats::default();
        let got = num_range(&col, Some(4000.0), None, &mut stats);
        assert_eq!(stats.blocks_skipped, 1);
        assert_eq!(stats.blocks_scanned, 1);
        assert_eq!(got.count_ones(), 1024);
    }

    #[test]
    fn cat_kernels_match_naive() {
        let labels = ["alpha", "beta", "gamma"];
        let slots: Vec<Option<&str>> = (0..2100)
            .map(|i| {
                if i % 5 == 0 {
                    None
                } else {
                    Some(labels[i % 3])
                }
            })
            .collect();
        let col = CategoricalColumn::from_slots(&slots);
        let mut stats = ScanStats::default();
        let eq = cat_eq(&col, "beta", &mut stats);
        let want: Vec<bool> = slots.iter().map(|s| *s == Some("beta")).collect();
        assert_eq!(eq.to_bools(), want);

        let within = cat_in(
            &col,
            &[
                "gamma".to_string(),
                "absent".to_string(),
                "alpha".to_string(),
            ],
            &mut stats,
        );
        let want: Vec<bool> = slots
            .iter()
            .map(|s| matches!(*s, Some("gamma") | Some("alpha")))
            .collect();
        assert_eq!(within.to_bools(), want);

        // Absent label: all blocks skipped.
        let mut absent_stats = ScanStats::default();
        let none = cat_eq(&col, "missing-label", &mut absent_stats);
        assert_eq!(none.count_ones(), 0);
        assert_eq!(absent_stats.blocks_scanned, 0);
        assert_eq!(absent_stats.blocks_skipped, col.blocks().len() as u64);
    }

    #[test]
    fn gather_skips_incomplete_rows() {
        use crate::store::DatasetColumnarExt;
        use epc_model::schema::standard_epc_schema;
        use epc_model::{Dataset, Value};
        let schema = standard_epc_schema();
        let ids: Vec<AttrId> = schema
            .iter()
            .filter(|(_, d)| d.kind.is_numeric())
            .map(|(id, _)| id)
            .take(3)
            .collect();
        let mut ds = Dataset::new(std::sync::Arc::clone(&schema));
        for i in 0..10 {
            let mut rec = ds.empty_record();
            for (j, &id) in ids.iter().enumerate() {
                if i == 4 && j == 1 {
                    continue; // incomplete row
                }
                rec.set(id, Value::Num(i as f64 + j as f64 * 0.25)).unwrap();
            }
            ds.push_record(rec).unwrap();
        }
        let store = ds.to_columns();
        let (rows, data) = gather_complete_rows(&store, &ids);
        assert_eq!(rows, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
        assert_eq!(data.len(), rows.len() * ids.len());
        assert_eq!(data[0..3], [0.0, 0.25, 0.5]);
    }
}
