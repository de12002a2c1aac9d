//! Error type for planning and optimization.

use std::fmt;

/// Errors raised during program construction, planning or optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A referenced input matrix was not described.
    UnknownInput(String),
    /// Shapes are incompatible at a program node.
    Shape {
        /// Description of the offending node.
        node: String,
        /// Details.
        detail: String,
    },
    /// The program references an expression id outside the arena.
    BadExprId(usize),
    /// A rewrite's precondition was violated (internal invariant).
    Invariant(String),
    /// No deployment satisfies the constraint.
    Infeasible(String),
    /// Cost-model calibration failed (singular system, no samples, ...).
    Calibration(String),
    /// Execution-layer failure.
    Exec(String),
    /// The caller asked for something malformed: an unknown or missing
    /// command-line flag, a run spec no run can honour, or a script input
    /// with no spec.
    Usage(String),
    /// The DSL source does not lex, parse or compile.
    Parse(String),
    /// A file, stdout or socket operation failed; the message names the
    /// path or address and what went wrong.
    Io(String),
    /// Data was lost that no plan job can recompute (a source input or a
    /// truncated-lineage matrix). Iterative drivers catch this to rewind
    /// to their last checkpoint.
    Unrecoverable {
        /// Matrix whose tiles are gone.
        matrix: String,
        /// Details (which tile, what was tried).
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownInput(n) => write!(f, "unknown input matrix: {n}"),
            CoreError::Shape { node, detail } => write!(f, "shape error at {node}: {detail}"),
            CoreError::BadExprId(id) => write!(f, "expression id {id} out of range"),
            CoreError::Invariant(m) => write!(f, "planner invariant violated: {m}"),
            CoreError::Infeasible(m) => write!(f, "no feasible deployment: {m}"),
            CoreError::Calibration(m) => write!(f, "calibration failed: {m}"),
            CoreError::Exec(m) => write!(f, "execution failed: {m}"),
            CoreError::Usage(m) | CoreError::Parse(m) | CoreError::Io(m) => f.write_str(m),
            CoreError::Unrecoverable { matrix, detail } => {
                write!(f, "unrecoverable data loss in '{matrix}': {detail}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<cumulon_cluster::ClusterError> for CoreError {
    fn from(e: cumulon_cluster::ClusterError) -> Self {
        CoreError::Exec(e.to_string())
    }
}

impl From<cumulon_dfs::DfsError> for CoreError {
    fn from(e: cumulon_dfs::DfsError) -> Self {
        CoreError::Exec(e.to_string())
    }
}

/// Result alias for planning operations.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            CoreError::UnknownInput("V".into()).to_string(),
            "unknown input matrix: V"
        );
        // User errors read as what the user got wrong, nothing more.
        assert_eq!(
            CoreError::Usage("nodes must be positive".into()).to_string(),
            "nodes must be positive"
        );
        assert_eq!(
            CoreError::Parse("parse error at line 1: x".into()).to_string(),
            "parse error at line 1: x"
        );
        assert_eq!(
            CoreError::Io("cannot write t.json: denied".into()).to_string(),
            "cannot write t.json: denied"
        );
        assert!(CoreError::Infeasible("deadline 1s".into())
            .to_string()
            .contains("deadline"));
    }

    #[test]
    fn conversions() {
        let e: CoreError = cumulon_cluster::ClusterError::InvalidSpec("x".into()).into();
        assert!(matches!(e, CoreError::Exec(_)));
        let e: CoreError = cumulon_dfs::DfsError::FileNotFound("/x".into()).into();
        assert!(matches!(e, CoreError::Exec(_)));
    }
}
