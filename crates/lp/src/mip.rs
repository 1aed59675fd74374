//! Best-first branch-and-bound for models with binary variables.
//!
//! This is the machinery behind the paper's VNF capacity-planning MIP
//! (Section 4.3), which decides at which sites each VNF should be deployed
//! via binary placement variables `w_fs`. Nodes carry only the tightened
//! bounds of fixed binaries, so the base model is never cloned; each node
//! solves an LP relaxation through the shared simplex entry point. A
//! rounding heuristic at every node provides early incumbents, which makes
//! the bound-based pruning effective on the placement models this workspace
//! generates.

use crate::expr::VarId;
use crate::model::{Model, Sense};
use crate::simplex;
use crate::solution::{LpError, Solution, SolveStats, SolveStatus};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Options controlling a branch-and-bound solve.
#[derive(Debug, Clone)]
pub struct MipOptions {
    /// Maximum number of branch-and-bound nodes to explore.
    pub max_nodes: usize,
    /// A binary value within this distance of 0/1 counts as integral.
    pub int_tol: f64,
    /// Stop when the best bound is within this relative gap of the
    /// incumbent.
    pub gap_tol: f64,
}

impl Default for MipOptions {
    fn default() -> Self {
        Self {
            max_nodes: 10_000,
            int_tol: 1e-6,
            gap_tol: 1e-6,
        }
    }
}

/// A branch-and-bound node: the binaries fixed so far and the parent's
/// relaxation bound (used as the node's priority).
#[derive(Debug, Clone)]
struct Node {
    fixes: Vec<(VarId, f64)>,
    bound: f64,
}

/// Wrapper ordering nodes so the heap pops the most promising bound first
/// (smallest bound for minimization problems; sense is normalized before
/// nodes are created).
struct ByBound(Node);

impl PartialEq for ByBound {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for ByBound {}
impl PartialOrd for ByBound {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByBound {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest normalized bound on
        // top, so compare reversed.
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Converts an objective to "normalized" minimization space.
fn normalize(sense: Sense, obj: f64) -> f64 {
    match sense {
        Sense::Minimize => obj,
        Sense::Maximize => -obj,
    }
}

pub(crate) fn branch_and_bound(
    model: &Model,
    options: &MipOptions,
) -> Result<Solution, LpError> {
    let binaries = model.binary_vars();
    if binaries.is_empty() {
        return simplex_with_fixes(model, &[]);
    }
    let sense = model.sense();

    let mut heap = BinaryHeap::new();
    heap.push(ByBound(Node {
        fixes: Vec::new(),
        bound: f64::NEG_INFINITY,
    }));

    let mut incumbent: Option<Solution> = None;
    let mut incumbent_norm = f64::INFINITY;
    let mut nodes = 0usize;
    let mut root_infeasible = true;
    let mut stats = SolveStats::default();

    while nodes < options.max_nodes {
        let Some(ByBound(node)) = heap.pop() else {
            break;
        };
        nodes += 1;
        // Bound-based pruning against the incumbent.
        if node.bound > incumbent_norm - options.gap_tol * incumbent_norm.abs().max(1.0) {
            continue;
        }
        let relax = match simplex_with_fixes(model, &node.fixes) {
            Ok(s) => s,
            Err(LpError::Infeasible) => continue,
            Err(LpError::Unbounded) if node.fixes.is_empty() => {
                return Err(LpError::Unbounded)
            }
            Err(LpError::Unbounded) => continue,
            Err(e) => return Err(e),
        };
        root_infeasible = false;
        stats.absorb(&relax.stats());
        let relax_norm = normalize(sense, relax.objective());
        if relax_norm > incumbent_norm - options.gap_tol * incumbent_norm.abs().max(1.0) {
            continue;
        }

        // Most fractional binary.
        let mut branch_var: Option<VarId> = None;
        let mut branch_frac = options.int_tol;
        for &bv in &binaries {
            let v = relax.value(bv);
            let frac = (v - v.round()).abs();
            if frac > branch_frac {
                branch_frac = frac;
                branch_var = Some(bv);
            }
        }

        match branch_var {
            None => {
                // Integral relaxation: new incumbent (values snapped exactly).
                let mut values = relax.values().to_vec();
                for &bv in &binaries {
                    values[bv.index()] = values[bv.index()].round();
                }
                let obj = model.objective_value(&values);
                let norm = normalize(sense, obj);
                if norm < incumbent_norm {
                    incumbent_norm = norm;
                    incumbent = Some(Solution::new(SolveStatus::Optimal, obj, values));
                }
            }
            Some(bv) => {
                // Rounding heuristic for an early incumbent.
                if let Some(heur) = rounded_incumbent(model, &binaries, &relax, &node.fixes)? {
                    stats.absorb(&heur.stats());
                    let norm = normalize(sense, heur.objective());
                    if norm < incumbent_norm {
                        incumbent_norm = norm;
                        incumbent = Some(heur);
                    }
                }
                for fixed in [0.0, 1.0] {
                    let mut fixes = node.fixes.clone();
                    fixes.push((bv, fixed));
                    heap.push(ByBound(Node {
                        fixes,
                        bound: relax_norm,
                    }));
                }
            }
        }
    }

    match incumbent {
        Some(sol) => {
            let status = if !heap.is_empty() && nodes >= options.max_nodes {
                SolveStatus::LimitReached
            } else {
                SolveStatus::Optimal
            };
            Ok(Solution::new(status, sol.objective(), sol.values().to_vec()).with_stats(stats))
        }
        None if nodes >= options.max_nodes && !heap.is_empty() => Err(LpError::NodeLimit),
        None if root_infeasible => Err(LpError::Infeasible),
        None => Err(LpError::Infeasible),
    }
}

/// Re-solves the LP relaxation with the binaries rounded and fixed; returns
/// a feasible integer solution when the resulting LP is feasible, and
/// `None` when it is infeasible or unbounded. Numerical failures are
/// errors, not a missing heuristic.
fn rounded_incumbent(
    model: &Model,
    binaries: &[VarId],
    relax: &Solution,
    existing_fixes: &[(VarId, f64)],
) -> Result<Option<Solution>, LpError> {
    let mut fixes = existing_fixes.to_vec();
    let fixed_set: Vec<usize> = existing_fixes.iter().map(|(v, _)| v.index()).collect();
    for &bv in binaries {
        if !fixed_set.contains(&bv.index()) {
            fixes.push((bv, relax.value(bv).round()));
        }
    }
    match simplex_with_fixes(model, &fixes) {
        Ok(sol) => Ok(Some(sol)),
        Err(LpError::Infeasible | LpError::Unbounded) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Solves the LP relaxation with the listed binaries fixed via bound
/// overrides.
fn simplex_with_fixes(model: &Model, fixes: &[(VarId, f64)]) -> Result<Solution, LpError> {
    let mut bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lb, v.ub)).collect();
    for &(v, value) in fixes {
        bounds[v.index()] = (value, value);
    }
    simplex::solve_with_bounds(model, &bounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Sense};

    #[test]
    fn knapsack_finds_integer_optimum() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6  ->  a + c (val 17, wt 5)
        // LP relaxation would take fractional b.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_var("a", 10.0);
        let b = m.add_binary_var("b", 13.0);
        let c = m.add_binary_var("c", 7.0);
        m.add_le([(a, 3.0), (b, 4.0), (c, 2.0)], 6.0);
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective() - 20.0).abs() < 1e-6, "{}", s.objective());
        assert!((s.value(b) - 1.0).abs() < 1e-9);
        assert!((s.value(c) - 1.0).abs() < 1e-9);
        assert!(s.value(a).abs() < 1e-9);
        // An incumbent carries the summed work of the search, no certificate.
        assert!(s.certificate().is_none());
        assert!(s.stats().phase2_pivots > 0, "{:?}", s.stats());
    }

    #[test]
    fn set_cover_minimal() {
        // Cover {1,2,3} with sets A={1,2} cost 3, B={2,3} cost 3, C={1,2,3} cost 5.
        // Optimal: C alone (5) vs A+B (6) -> C.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary_var("A", 3.0);
        let b = m.add_binary_var("B", 3.0);
        let c = m.add_binary_var("C", 5.0);
        m.add_ge([(a, 1.0), (c, 1.0)], 1.0); // element 1
        m.add_ge([(a, 1.0), (b, 1.0), (c, 1.0)], 1.0); // element 2
        m.add_ge([(b, 1.0), (c, 1.0)], 1.0); // element 3
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective() - 5.0).abs() < 1e-6);
        assert!((s.value(c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x <= 10 continuous, y binary, x + 6y <= 12.
        // Best: y=1, x=6 -> 13 (vs y=0, x=10 -> 20? x<=10 and x+6y<=12:
        // y=0 -> x<=10 -> obj 20; y=1 -> x<=6 -> obj 13). Optimal 20.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 2.0);
        let y = m.add_binary_var("y", 1.0);
        m.add_le([(x, 1.0), (y, 6.0)], 12.0);
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective() - 20.0).abs() < 1e-6);
        assert!(s.value(y).abs() < 1e-9);
    }

    #[test]
    fn infeasible_integer_model() {
        // a + b = 1.5 cannot hold for binaries... but LP relaxation can.
        // Force integral infeasibility: a + b <= 0.5 and a + b >= 0.4 has LP
        // points but no integer point with a+b in [0.4, 0.5].
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary_var("a", 1.0);
        let b = m.add_binary_var("b", 1.0);
        m.add_le([(a, 1.0), (b, 1.0)], 0.5);
        m.add_ge([(a, 1.0), (b, 1.0)], 0.4);
        assert_eq!(
            m.solve_mip(&MipOptions::default()).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 5.0, 1.0);
        let _ = x;
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cardinality_constrained_selection() {
        // Choose exactly 2 of 4 items maximizing value.
        let mut m = Model::new(Sense::Maximize);
        let values = [4.0, 9.0, 1.0, 7.0];
        let vars: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_binary_var(format!("b{i}"), v))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_eq(terms, 2.0);
        let s = m.solve_mip(&MipOptions::default()).unwrap();
        assert!((s.objective() - 16.0).abs() < 1e-6);
        assert!((s.value(vars[1]) - 1.0).abs() < 1e-9);
        assert!((s.value(vars[3]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn node_limit_is_reported() {
        // A model needing branching but allowed zero nodes.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_var("a", 1.0);
        let b = m.add_binary_var("b", 1.0);
        m.add_le([(a, 2.0), (b, 2.0)], 3.0);
        let opts = MipOptions {
            max_nodes: 0,
            ..MipOptions::default()
        };
        assert_eq!(m.solve_mip(&opts).unwrap_err(), LpError::NodeLimit);
    }
}
