//! Error type for the progress analysis.

use std::fmt;

/// Why a worst-case energy bound could not be computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressError {
    /// A region-structure error from `ocelot-core`.
    Core(ocelot_core::CoreError),
    /// A loop with no recoverable static trip count lies on the analyzed
    /// path: any surface `while` loop that carries no `@bound k` and is
    /// not a monotone counter loop (`while g > 0 { g = g - 1; }` over an
    /// NV global is one). Surface `repeat n` loops are always bounded.
    UnboundedLoop {
        /// The function containing the loop.
        func: String,
        /// What the bound-recovery pattern saw.
        detail: String,
    },
    /// The control flow is not reducible to bounded-loop + DAG form.
    Irreducible {
        /// The function with irreducible flow.
        func: String,
    },
    /// A CFG shape outside what the analysis supports (e.g. a loop with
    /// multiple latches, or a region straddling a loop boundary).
    Unsupported {
        /// What was encountered.
        detail: String,
    },
}

impl ProgressError {
    /// Convenience constructor for unsupported-shape errors.
    pub(crate) fn unsupported(detail: impl Into<String>) -> Self {
        ProgressError::Unsupported {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ProgressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgressError::Core(e) => write!(f, "{e}"),
            ProgressError::UnboundedLoop { func, detail } => {
                write!(f, "unbounded loop in `{func}`: {detail}")
            }
            ProgressError::Irreducible { func } => {
                write!(f, "irreducible control flow in `{func}`")
            }
            ProgressError::Unsupported { detail } => {
                write!(f, "unsupported shape: {detail}")
            }
        }
    }
}

impl std::error::Error for ProgressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgressError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ocelot_core::CoreError> for ProgressError {
    fn from(e: ocelot_core::CoreError) -> Self {
        ProgressError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let e = ProgressError::UnboundedLoop {
            func: "main".into(),
            detail: "no counter pattern".into(),
        };
        assert!(e.to_string().contains("unbounded loop in `main`"));
        let e = ProgressError::Irreducible { func: "f".into() };
        assert!(e.to_string().contains("irreducible"));
        let e = ProgressError::unsupported("two latches");
        assert!(e.to_string().contains("two latches"));
    }

    #[test]
    fn core_errors_convert_and_chain() {
        use std::error::Error as _;
        let e = ProgressError::from(ocelot_core::CoreError::region("bad"));
        assert!(e.source().is_some());
    }
}
