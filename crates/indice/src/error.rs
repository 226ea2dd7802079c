//! Errors of the INDICE pipeline.

use epc_journal::CommitPoint;
use epc_model::ModelError;
use epc_query::QueryError;
use std::fmt;

/// Anything that can go wrong while running the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum IndiceError {
    /// A data-model operation failed.
    Model(ModelError),
    /// A query failed.
    Query(QueryError),
    /// The pipeline was asked to run on an empty (or fully filtered-out)
    /// collection.
    EmptyCollection(&'static str),
    /// Clustering could not run (e.g. fewer complete rows than K).
    Clustering(String),
    /// Configuration is inconsistent.
    Config(String),
    /// A pipeline stage finished without producing the output a later
    /// consumer depends on, or an output artifact could not be rendered.
    Internal(String),
    /// A supervised stage panicked; the supervisor converted the panic
    /// into this error instead of unwinding the whole process.
    StagePanicked {
        /// Name of the stage that panicked.
        stage: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A durable run's journal, checkpoint, or artifact I/O failed.
    Durability(String),
    /// An injected crash point ([`epc_journal::CrashPoint`]) fired; the
    /// run "died" here and is expected to be resumed.
    CrashInjected {
        /// The unit whose commit the crash cut: a stage name,
        /// `ingest batch N` or `city N`.
        unit: String,
        /// Where in that commit it fired.
        point: CommitPoint,
    },
}

impl IndiceError {
    /// The error of an injected crash that fired at `point` of `unit`.
    pub(crate) fn crash(unit: impl fmt::Display, point: CommitPoint) -> Self {
        IndiceError::CrashInjected {
            unit: unit.to_string(),
            point,
        }
    }
}

/// `r` with its I/O error turned into [`IndiceError::Durability`],
/// prefixed by `what`.
pub(crate) fn dur<T>(r: std::io::Result<T>, what: &str) -> Result<T, IndiceError> {
    r.map_err(|e| IndiceError::Durability(format!("{what}: {e}")))
}

impl fmt::Display for IndiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndiceError::Model(e) => write!(f, "model error: {e}"),
            IndiceError::Query(e) => write!(f, "{e}"),
            IndiceError::EmptyCollection(stage) => {
                write!(f, "no records left at stage: {stage}")
            }
            IndiceError::Clustering(msg) => write!(f, "clustering error: {msg}"),
            IndiceError::Config(msg) => write!(f, "configuration error: {msg}"),
            IndiceError::Internal(msg) => write!(f, "internal pipeline error: {msg}"),
            IndiceError::StagePanicked { stage, message } => {
                write!(f, "stage '{stage}' panicked: {message}")
            }
            IndiceError::Durability(msg) => write!(f, "durability error: {msg}"),
            IndiceError::CrashInjected { unit, point } => {
                write!(f, "injected crash fired at stage '{unit}' ({point} commit)")
            }
        }
    }
}

impl std::error::Error for IndiceError {}

impl From<ModelError> for IndiceError {
    fn from(e: ModelError) -> Self {
        IndiceError::Model(e)
    }
}

impl From<QueryError> for IndiceError {
    fn from(e: QueryError) -> Self {
        IndiceError::Query(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = IndiceError::EmptyCollection("clustering");
        assert!(e.to_string().contains("clustering"));
        let e = IndiceError::Config("k_min > k_max".into());
        assert!(e.to_string().contains("k_min"));
        let e: IndiceError = ModelError::UnknownAttribute("x".into()).into();
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn conversions() {
        let q: IndiceError = QueryError::Model(ModelError::SchemaMismatch).into();
        assert!(matches!(q, IndiceError::Query(_)));
    }
}
