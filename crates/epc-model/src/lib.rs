//! # epc-model
//!
//! Data-model substrate for the INDICE reproduction: typed attribute values,
//! the 132-attribute Energy Performance Certificate (EPC) schema, and a
//! columnar in-memory dataset with the operations the rest of the pipeline
//! needs (selection, projection, mutation during cleaning, CSV round-trips).
//!
//! The paper (Cerquitelli et al., EDBT/ICDT Workshops 2019) analyses a
//! collection of ~25 000 EPCs issued for the Piedmont region, each described
//! by 132 features (89 categorical, 43 quantitative). This crate provides the
//! schema of that collection — the thermo-physical attributes the case study
//! names explicitly (aspect ratio S/V, average U-values, heated surface, the
//! ETAH heating-efficiency index, the EPH response variable), the geospatial
//! attributes the cleaning step repairs (address, house number, ZIP code,
//! latitude, longitude), and the remaining certificate fields.
//!
//! ## Quick tour
//!
//! ```
//! use epc_model::{Dataset, Value, schema::standard_epc_schema, wellknown};
//!
//! let schema = standard_epc_schema();
//! assert_eq!(schema.len(), 132);
//!
//! let mut ds = Dataset::new(schema.clone());
//! let mut rec = ds.empty_record();
//! rec.set_by_name(ds.schema(), epc_model::wellknown::ASPECT_RATIO, Value::num(0.55)).unwrap();
//! rec.set_by_name(ds.schema(), wellknown::BUILDING_CATEGORY, Value::cat("E.1.1")).unwrap();
//! ds.push_record(rec).unwrap();
//! assert_eq!(ds.n_rows(), 1);
//! ```

pub mod attribute;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod fault;
pub mod granularity;
pub mod jsonnum;
pub mod render;
pub mod schema;
pub mod value;
pub mod wellknown;

pub use attribute::{AttrId, AttrKind, AttributeDef};
pub use dataset::{Column, ColumnData, Dataset, Record, RowView};
pub use error::ModelError;
pub use fault::{scan_faults, Quarantine, QuarantinedRecord, RecordFault, ValidationPolicy};
pub use granularity::Granularity;
pub use jsonnum::{decode_f64, decode_opt_f64, encode_f64, encode_opt_f64};
pub use schema::Schema;
pub use value::Value;
