//! Error types for the core crate.

use std::fmt;

/// Errors from policy construction, region inference, and checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying IR error (validation, lowering).
    Ir(ocelot_ir::IrError),
    /// Region inference could not place a region.
    Infer {
        /// What went wrong.
        message: String,
    },
    /// A region's structure is malformed (unmatched or escaping).
    Region {
        /// What went wrong.
        message: String,
    },
}

impl CoreError {
    /// Convenience constructor for inference errors.
    pub(crate) fn infer(message: impl Into<String>) -> Self {
        CoreError::Infer {
            message: message.into(),
        }
    }

    /// Convenience constructor for region-structure errors.
    pub fn region(message: impl Into<String>) -> Self {
        CoreError::Region {
            message: message.into(),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Ir(e) => write!(f, "{e}"),
            CoreError::Infer { message } => write!(f, "region inference failed: {message}"),
            CoreError::Region { message } => write!(f, "malformed region: {message}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ocelot_ir::IrError> for CoreError {
    fn from(e: ocelot_ir::IrError) -> Self {
        CoreError::Ir(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = CoreError::infer("no candidate function");
        assert!(e.to_string().contains("no candidate"));
        assert!(e.source().is_none());
        let e = CoreError::from(ocelot_ir::IrError::validate("bad"));
        assert!(e.source().is_some());
    }
}
