//! # epc-query
//!
//! The querying engine of §2.2.1: attribute-level selection and exploration
//! of EPC collections, stakeholder-aware report proposals, and the
//! expert-configuration store behind the "expert-driven univariate
//! analysis" of §2.1.2.
//!
//! * [`predicate`] — a small predicate AST over schema attributes, compiled
//!   ("bound") against a schema for fast per-row evaluation;
//! * [`query`] — filter + projection + limit over a dataset;
//! * [`aggregate`] — group-by aggregation (the per-area averages the maps
//!   colour);
//! * [`stakeholder`] — citizen / public-administration / energy-scientist
//!   profiles, each with the attribute sets and report kinds INDICE
//!   proposes automatically;
//! * [`config_store`] — a concurrent store of expert users' configurations
//!   that suggests defaults to non-expert users.

pub mod aggregate;
pub mod config_store;
pub mod predicate;
pub mod query;
pub mod report;
pub mod stakeholder;

pub use aggregate::{group_by, AggFn, GroupRow};
pub use config_store::ExpertConfigStore;
pub use predicate::{BoundPredicate, Predicate};
pub use query::{Query, QueryError};
pub use report::{describe, describe_text, AttributeSummary};
pub use stakeholder::{ReportKind, ReportSpec, Stakeholder};
