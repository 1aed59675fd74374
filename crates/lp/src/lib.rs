//! A self-contained linear-programming and mixed-integer-programming solver.
//!
//! This crate replaces the CPLEX dependency of the Switchboard paper
//! (Section 4.5: "The linear programming optimization is implemented using a
//! Java wrapper to the CPLEX optimization suite"). It provides:
//!
//! - a [`Model`] builder for linear programs with bounded continuous and
//!   binary variables,
//! - a two-phase **revised simplex** solver with a product-form basis
//!   inverse (an eta file of sparse elementary columns) over sparse
//!   constraint columns ([`Model::solve`]),
//! - a best-first **branch-and-bound** solver for models with binary
//!   variables ([`Model::solve_mip`]).
//!
//! The solver is deliberately conservative: Dantzig pricing with an automatic
//! fallback to Bland's rule when progress stalls (anti-cycling), periodic
//! reinversion of the basis to bound numerical drift, and first-class
//! [`SolveStatus::Infeasible`]/[`SolveStatus::Unbounded`] outcomes instead of
//! panics. Nothing falls back silently: a singular basis or an answer that
//! fails its optimality [`Certificate`] is an [`LpError::Numerical`], and
//! every LP [`Solution`] carries its certificate and deterministic
//! [`SolveStats`].
//!
//! With the `reference` feature, `sb_lp::reference` keeps the earlier
//! dense-inverse simplex as a test oracle.
//!
//! # Examples
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, `x, y ≥ 0`:
//!
//! ```
//! use sb_lp::{Model, Sense};
//!
//! # fn main() -> Result<(), sb_lp::LpError> {
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
//! m.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! m.add_le(&[(x, 1.0), (y, 3.0)], 6.0);
//! let sol = m.solve()?;
//! assert!((sol.objective() - 12.0).abs() < 1e-6); // x=4, y=0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod expr;
mod mip;
mod model;
#[cfg(feature = "reference")]
pub mod reference;
mod simplex;
mod solution;

pub use expr::{LinExpr, VarId};
pub use mip::MipOptions;
pub use model::{ConstraintId, Model, Relation, Sense};
pub use solution::{Certificate, LpError, Solution, SolveStats, SolveStatus};
