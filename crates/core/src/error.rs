//! The workspace-level error surface.
//!
//! Until this module existed, every layer grew its own failure channel:
//! the simulator's `ConfigError`, panics inside cell evaluation,
//! ad-hoc `String` errors in drivers. Long-lived consumers — the
//! `pipedepth-serve` evaluation service foremost — need one typed surface
//! they can match on and map to a wire protocol, so this module defines
//! it:
//!
//! * [`EvalError`] — why a single cell evaluation failed (invalid cell,
//!   missed deadline, backend failure). This is the error type of
//!   [`AnalyticModel::evaluate`](crate::eval::AnalyticModel::evaluate)
//!   and of the experiments crate's simulation backend.
//! * [`Error`] — the crate-level wrapper: an evaluation failure or a
//!   configuration rejection from any layer (e.g. the simulator's
//!   `ConfigError`, carried as a boxed source so this crate stays free of
//!   a simulator dependency).
//!
//! Both enums are `#[non_exhaustive]`: new failure modes can be added
//! without breaking downstream `match`es.

use std::fmt;

/// Why one cell evaluation failed.
///
/// Returned by [`AnalyticModel::evaluate`](crate::eval::AnalyticModel::evaluate)
/// and the simulation backend;
/// long-running services map these onto their wire protocol (the serve
/// crate renders `InvalidCell` as HTTP 400, `DeadlineExceeded` as 504 and
/// `Backend` as 500).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EvalError {
    /// The cell itself is unevaluable: unknown workload id, out-of-range
    /// depth, non-finite profile or calibration fields.
    InvalidCell {
        /// What was wrong with the cell.
        reason: String,
    },
    /// The evaluation could not finish inside its time budget.
    DeadlineExceeded {
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// The backend itself failed to produce an outcome.
    Backend {
        /// The backend's stable name (e.g. `"sim"`).
        backend: String,
        /// What went wrong.
        message: String,
    },
}

impl EvalError {
    /// Convenience constructor for [`EvalError::InvalidCell`].
    pub fn invalid(reason: impl Into<String>) -> Self {
        EvalError::InvalidCell {
            reason: reason.into(),
        }
    }

    /// A short stable code for wire protocols and logs.
    pub fn code(&self) -> &'static str {
        match self {
            EvalError::InvalidCell { .. } => "invalid_cell",
            EvalError::DeadlineExceeded { .. } => "deadline_exceeded",
            EvalError::Backend { .. } => "backend_error",
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidCell { reason } => write!(f, "invalid cell: {reason}"),
            EvalError::DeadlineExceeded { budget_ms } => {
                write!(f, "evaluation exceeded its {budget_ms} ms deadline")
            }
            EvalError::Backend { backend, message } => {
                write!(f, "backend \"{backend}\" failed: {message}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

/// A configuration error carried by [`Error::Config`]: boxed so this crate
/// can wrap rejection types it does not depend on (the simulator's
/// `ConfigError`, a service's flag parser, …).
pub type BoxedConfigError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// The crate-level error: everything a `pipedepth` consumer can fail with.
///
/// # Examples
///
/// ```
/// use pipedepth_core::{Error, EvalError};
///
/// let err = Error::from(EvalError::invalid("depth 0"));
/// assert!(matches!(err, Error::Eval(_)));
/// assert!(err.to_string().contains("depth 0"));
/// ```
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A configuration was rejected before any evaluation ran. Wraps the
    /// rejecting layer's own error type (e.g. `pipedepth_sim::ConfigError`)
    /// as the source.
    Config(BoxedConfigError),
    /// A cell evaluation failed.
    Eval(EvalError),
}

impl Error {
    /// Wraps a configuration rejection from any layer.
    pub fn config(err: impl Into<BoxedConfigError>) -> Self {
        Error::Config(err.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(e) => write!(f, "configuration rejected: {e}"),
            Error::Eval(e) => write!(f, "evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Config(e) => Some(e.as_ref()),
            Error::Eval(e) => Some(e),
        }
    }
}

impl From<EvalError> for Error {
    fn from(err: EvalError) -> Self {
        Error::Eval(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_error_codes_are_stable() {
        assert_eq!(EvalError::invalid("x").code(), "invalid_cell");
        assert_eq!(
            EvalError::DeadlineExceeded { budget_ms: 5 }.code(),
            "deadline_exceeded"
        );
        assert_eq!(
            EvalError::Backend {
                backend: "sim".into(),
                message: "boom".into()
            }
            .code(),
            "backend_error"
        );
    }

    #[test]
    fn error_wraps_arbitrary_config_errors_as_source() {
        use std::error::Error as _;
        let inner = std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad depth");
        let err = Error::config(inner);
        assert!(err.to_string().contains("configuration rejected"));
        assert!(err.source().is_some(), "boxed source must be preserved");
    }

    #[test]
    fn eval_error_converts_into_crate_error() {
        let err: Error = EvalError::DeadlineExceeded { budget_ms: 250 }.into();
        assert!(err.to_string().contains("250 ms"));
    }
}
