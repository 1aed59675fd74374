//! Solver outcomes.

use crate::expr::VarId;
use std::fmt;

/// The terminal status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The iteration or node limit was hit; for MIP solves the best
    /// incumbent found so far is returned.
    LimitReached,
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStatus::Optimal => write!(f, "optimal"),
            SolveStatus::Infeasible => write!(f, "infeasible"),
            SolveStatus::Unbounded => write!(f, "unbounded"),
            SolveStatus::LimitReached => write!(f, "limit reached"),
        }
    }
}

/// Errors returned by [`Model::solve`](crate::Model::solve) and
/// [`Model::solve_mip`](crate::Model::solve_mip).
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The model itself is malformed (bad bounds, NaN coefficients,
    /// out-of-range variable handles…).
    InvalidModel(String),
    /// No feasible integer point was found within the node limit.
    NodeLimit,
    /// The solver lost numerical control: a singular basis at
    /// reinversion, the iteration limit, or an answer that failed its
    /// optimality certificate.
    Numerical(String),
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "problem is infeasible"),
            LpError::Unbounded => write!(f, "problem is unbounded"),
            LpError::InvalidModel(reason) => write!(f, "invalid model: {reason}"),
            LpError::NodeLimit => {
                write!(f, "node limit reached without a feasible integer point")
            }
            LpError::Numerical(reason) => write!(f, "numerical failure: {reason}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Evidence that an LP answer is optimal, computed from the final basis
/// before [`Model::solve`](crate::Model::solve) returns. A solve whose
/// certificate does not [hold](Certificate::holds) returns
/// [`LpError::Numerical`] instead of a solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// The largest violation of a model row or variable bound by the
    /// returned values, each divided by `max(1, |rhs|)` or
    /// `max(1, |bound|)`; `0` when every row and bound holds exactly.
    pub primal_residual: f64,
    /// The most negative reduced cost over the standard-form columns at
    /// the final basis, negated and divided by `max(1, ‖c‖∞)`; `0` when
    /// none is negative.
    pub dual_infeasibility: f64,
}

impl Certificate {
    /// The largest accepted [`primal_residual`](Certificate::primal_residual).
    pub const PRIMAL_TOL: f64 = 1e-6;
    /// The largest accepted
    /// [`dual_infeasibility`](Certificate::dual_infeasibility).
    pub const DUAL_TOL: f64 = 1e-7;

    /// Whether both measures are within their tolerances.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.primal_residual <= Self::PRIMAL_TOL && self.dual_infeasibility <= Self::DUAL_TOL
    }
}

/// Deterministic work counters of a solve: the same model gives the same
/// counts on every run. Branch-and-bound sums them over every relaxation
/// it solves (and keeps the largest eta file).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SolveStats {
    /// Pivots in phase 1, including those that expel artificials.
    pub phase1_pivots: usize,
    /// Pivots in phase 2.
    pub phase2_pivots: usize,
    /// Times the eta file was rebuilt from the identity.
    pub reinversions: usize,
    /// The most eta-file nonzeros held at once, pivots included.
    pub peak_eta_nonzeros: usize,
}

impl SolveStats {
    /// Adds `other`'s counts to these, keeping the larger peak.
    pub(crate) fn absorb(&mut self, other: &SolveStats) {
        self.phase1_pivots += other.phase1_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.reinversions += other.reinversions;
        self.peak_eta_nonzeros = self.peak_eta_nonzeros.max(other.peak_eta_nonzeros);
    }
}

/// An optimal (or best-incumbent) solution to a model.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    status: SolveStatus,
    objective: f64,
    values: Vec<f64>,
    certificate: Option<Certificate>,
    stats: SolveStats,
}

impl Solution {
    pub(crate) fn new(status: SolveStatus, objective: f64, values: Vec<f64>) -> Self {
        Self {
            status,
            objective,
            values,
            certificate: None,
            stats: SolveStats::default(),
        }
    }

    pub(crate) fn with_proof(mut self, certificate: Certificate, stats: SolveStats) -> Self {
        self.certificate = Some(certificate);
        self.stats = stats;
        self
    }

    pub(crate) fn with_stats(mut self, stats: SolveStats) -> Self {
        self.stats = stats;
        self
    }

    /// The status this solution terminated with.
    #[must_use]
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// The objective value in the model's original sense (i.e. already
    /// negated back for maximization models).
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// The value of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    #[must_use]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// All variable values in declaration order.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The optimality certificate of an LP solve. `None` for a
    /// branch-and-bound incumbent, whose optimality rests on the search
    /// rather than on one basis.
    #[must_use]
    pub fn certificate(&self) -> Option<Certificate> {
        self.certificate
    }

    /// The solve's work counters.
    #[must_use]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(SolveStatus::Optimal.to_string(), "optimal");
        assert_eq!(SolveStatus::Infeasible.to_string(), "infeasible");
        assert_eq!(SolveStatus::Unbounded.to_string(), "unbounded");
        assert_eq!(SolveStatus::LimitReached.to_string(), "limit reached");
    }

    #[test]
    fn error_display_and_source() {
        let e: Box<dyn std::error::Error> = Box::new(LpError::Infeasible);
        assert_eq!(e.to_string(), "problem is infeasible");
        assert_eq!(
            LpError::InvalidModel("nan coefficient".into()).to_string(),
            "invalid model: nan coefficient"
        );
    }

    #[test]
    fn solution_accessors() {
        let s = Solution::new(SolveStatus::Optimal, 5.0, vec![1.0, 2.0]);
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert!((s.objective() - 5.0).abs() < 1e-12);
        assert!((s.value(VarId(1)) - 2.0).abs() < 1e-12);
        assert_eq!(s.values(), &[1.0, 2.0]);
    }
}
