//! Simulator errors.

use std::error::Error;
use std::fmt;

use crate::op::OpId;

/// Errors raised while building or executing an op schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A dependency references an op that comes later (or does not
    /// exist) — schedules are lists in topological order.
    ForwardDependency {
        /// The op with the bad dependency.
        op: OpId,
        /// The referenced dependency.
        dep: OpId,
    },
    /// A transfer or computation has zero size/duration.
    ZeroLengthOp(OpId),
    /// The schedule holds more ops than the `u32` id space can name —
    /// a degenerate input (e.g. a runaway generator), rejected with a
    /// typed error instead of a panic.
    TooManyOps,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ForwardDependency { op, dep } => {
                write!(f, "op {op} depends on later or missing op {dep}")
            }
            SimError::ZeroLengthOp(op) => write!(f, "op {op} has zero length"),
            SimError::TooManyOps => {
                write!(f, "op schedule exceeds the u32 op-id space")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = SimError::ForwardDependency {
            op: OpId::new(1),
            dep: OpId::new(5),
        };
        assert!(e.to_string().contains("op1"));
        assert!(e.to_string().contains("op5"));
        assert!(SimError::ZeroLengthOp(OpId::new(0))
            .to_string()
            .contains("zero"));
    }
}
