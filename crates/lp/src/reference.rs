//! The dense-inverse revised simplex this crate shipped before its
//! product-form basis, kept as a test oracle.
//!
//! [`solve`] runs the same standard form and two-phase method as
//! [`Model::solve`](crate::Model::solve), but keeps `B⁻¹` as a dense
//! row-major `m × m` array: every pivot updates it by elementary row
//! operations, and every 128 pivots a Gauss-Jordan pass rebuilds it. It
//! is only compiled with the `reference` feature, which the crate's own
//! tests and `sb-te`'s tests turn on; the shipped solver has no dense path.
//!
//! Index-style loops are deliberate in the pivot/refactorization kernels:
//! they mirror the textbook linear-algebra formulation and several update
//! rows and columns of the same matrix in place.
#![allow(clippy::needless_range_loop)]

use crate::model::Model;
use crate::simplex::{model_values, standardize, Standard};
use crate::solution::{LpError, Solution, SolveStatus};

/// Smallest magnitude accepted for a pivot element.
const PIVOT_TOL: f64 = 1e-9;
/// Tolerance for declaring phase-1 completion / feasibility.
const FEAS_TOL: f64 = 1e-6;
/// Reduced-cost tolerance for optimality.
const COST_TOL: f64 = 1e-9;
/// Rebuild `B⁻¹` from scratch after this many pivots.
const REFACTOR_EVERY: usize = 128;

/// The revised-simplex working state.
struct Core {
    m: usize,
    /// All columns: real (structural + slack/surplus) then artificials.
    cols: Vec<Vec<(usize, f64)>>,
    /// First artificial column index; columns `>= n_real` may never enter.
    n_real: usize,
    b: Vec<f64>,
    /// Basic column per row.
    basic: Vec<usize>,
    in_basis: Vec<bool>,
    /// Dense row-major `B⁻¹` (`m × m`).
    binv: Vec<f64>,
    /// Current basic-variable values `B⁻¹ b`.
    xb: Vec<f64>,
    pivots_since_refactor: usize,
}

enum IterEnd {
    Optimal,
    Unbounded,
}

impl Core {
    fn new(std_form: &Standard) -> Self {
        let m = std_form.b.len();
        let mut cols = std_form.cols.clone();
        let n_real = cols.len();
        let mut basic = Vec::with_capacity(m);
        // Identity starting basis: Le-rows use their slack, others get an
        // artificial column (unit vector) appended now.
        for r in 0..m {
            if std_form.needs_artificial[r] {
                let col = cols.len();
                cols.push(vec![(r, 1.0)]);
                basic.push(col);
            } else {
                basic.push(std_form.slack_of_row[r].expect("row without artificial has slack"));
            }
        }
        let mut in_basis = vec![false; cols.len()];
        for &c in &basic {
            in_basis[c] = true;
        }
        let mut binv = vec![0.0; m * m];
        for i in 0..m {
            binv[i * m + i] = 1.0;
        }
        let xb = std_form.b.clone();
        Self {
            m,
            cols,
            n_real,
            b: std_form.b.clone(),
            basic,
            in_basis,
            binv,
            xb,
            pivots_since_refactor: 0,
        }
    }

    /// `w = B⁻¹ · column(j)`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let m = self.m;
        let mut w = vec![0.0; m];
        for &(r, v) in &self.cols[j] {
            if v == 0.0 {
                continue;
            }
            for i in 0..m {
                w[i] += self.binv[i * m + r] * v;
            }
        }
        w
    }

    /// `y = c_Bᵀ · B⁻¹` for the given cost vector (indexed by column).
    fn btran(&self, costs: &[f64]) -> Vec<f64> {
        let m = self.m;
        let mut y = vec![0.0; m];
        for (i, &bc) in self.basic.iter().enumerate() {
            let cb = costs.get(bc).copied().unwrap_or(0.0);
            if cb == 0.0 {
                continue;
            }
            let row = &self.binv[i * m..(i + 1) * m];
            for (yj, &bij) in y.iter_mut().zip(row) {
                *yj += cb * bij;
            }
        }
        y
    }

    fn reduced_cost(&self, j: usize, costs: &[f64], y: &[f64]) -> f64 {
        let mut d = costs.get(j).copied().unwrap_or(0.0);
        for &(r, v) in &self.cols[j] {
            d -= y[r] * v;
        }
        d
    }

    fn objective(&self, costs: &[f64]) -> f64 {
        self.basic
            .iter()
            .zip(&self.xb)
            .map(|(&c, &x)| costs.get(c).copied().unwrap_or(0.0) * x)
            .sum()
    }

    /// Performs the basis change `basic[row] := entering` given the pivot
    /// direction `w = B⁻¹ A_entering`.
    fn pivot(&mut self, entering: usize, row: usize, w: &[f64]) {
        let m = self.m;
        let wr = w[row];
        debug_assert!(wr.abs() > PIVOT_TOL / 10.0);
        // Update B⁻¹: scale pivot row, eliminate from others.
        let inv = 1.0 / wr;
        for j in 0..m {
            self.binv[row * m + j] *= inv;
        }
        let theta = self.xb[row] * inv;
        for i in 0..m {
            if i == row {
                continue;
            }
            let wi = w[i];
            if wi == 0.0 {
                continue;
            }
            for j in 0..m {
                let v = self.binv[row * m + j];
                self.binv[i * m + j] -= wi * v;
            }
            self.xb[i] -= wi * theta;
            if self.xb[i] < 0.0 && self.xb[i] > -FEAS_TOL {
                self.xb[i] = 0.0;
            }
        }
        self.xb[row] = theta;
        self.in_basis[self.basic[row]] = false;
        self.in_basis[entering] = true;
        self.basic[row] = entering;
        self.pivots_since_refactor += 1;
        if self.pivots_since_refactor >= REFACTOR_EVERY {
            self.refactorize();
        }
    }

    /// Rebuilds `B⁻¹` by Gauss-Jordan elimination on the current basis
    /// matrix, then recomputes `x_B = B⁻¹ b`. Silently keeps the drifted
    /// inverse when the basis matrix is numerically singular (the iteration
    /// loop will then terminate via its safety limit).
    fn refactorize(&mut self) {
        let m = self.m;
        self.pivots_since_refactor = 0;
        if m == 0 {
            return;
        }
        // Assemble dense B (column i = basis column of row i).
        let mut bmat = vec![0.0; m * m];
        for (i, &c) in self.basic.iter().enumerate() {
            for &(r, v) in &self.cols[c] {
                bmat[r * m + i] = v;
            }
        }
        let mut inv = vec![0.0; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivoting.
            let mut best = col;
            let mut best_abs = bmat[col * m + col].abs();
            for r in (col + 1)..m {
                let a = bmat[r * m + col].abs();
                if a > best_abs {
                    best = r;
                    best_abs = a;
                }
            }
            if best_abs < 1e-12 {
                return; // singular: keep previous inverse
            }
            if best != col {
                for j in 0..m {
                    bmat.swap(col * m + j, best * m + j);
                    inv.swap(col * m + j, best * m + j);
                }
            }
            let p = bmat[col * m + col];
            let pinv = 1.0 / p;
            for j in 0..m {
                bmat[col * m + j] *= pinv;
                inv[col * m + j] *= pinv;
            }
            for r in 0..m {
                if r == col {
                    continue;
                }
                let f = bmat[r * m + col];
                if f == 0.0 {
                    continue;
                }
                for j in 0..m {
                    bmat[r * m + j] -= f * bmat[col * m + j];
                    inv[r * m + j] -= f * inv[col * m + j];
                }
            }
        }
        self.binv = inv;
        // Recompute basic values.
        let mut xb = vec![0.0; m];
        for i in 0..m {
            let row = &self.binv[i * m..(i + 1) * m];
            xb[i] = row.iter().zip(&self.b).map(|(a, b)| a * b).sum();
            if xb[i] < 0.0 && xb[i] > -FEAS_TOL {
                xb[i] = 0.0;
            }
        }
        self.xb = xb;
    }

    /// Runs simplex iterations minimizing `costs` until optimal or
    /// unbounded. `allow_artificials` permits artificial columns to enter
    /// (never used; artificials only ever leave).
    fn iterate(&mut self, costs: &[f64]) -> Result<IterEnd, LpError> {
        let n = self.cols.len();
        let iter_limit = 200 * (self.m + 1) + 20 * n + 10_000;
        let stall_limit = 4 * (self.m + 64);
        let mut bland = false;
        let mut best_obj = f64::INFINITY;
        let mut stalled = 0usize;

        for _iter in 0..iter_limit {
            let y = self.btran(costs);
            // Entering column selection.
            let mut entering: Option<usize> = None;
            let mut best_d = -COST_TOL;
            for j in 0..self.n_real {
                if self.in_basis[j] {
                    continue;
                }
                let d = self.reduced_cost(j, costs, &y);
                if d < best_d {
                    entering = Some(j);
                    if bland {
                        break; // first eligible index
                    }
                    best_d = d;
                }
            }
            let Some(entering) = entering else {
                return Ok(IterEnd::Optimal);
            };

            let w = self.ftran(entering);
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut min_ratio = f64::INFINITY;
            for i in 0..self.m {
                if w[i] > PIVOT_TOL {
                    let xi = self.xb[i].max(0.0);
                    let ratio = xi / w[i];
                    let better = match leave {
                        None => true,
                        Some(cur) => {
                            if ratio < min_ratio - 1e-12 {
                                true
                            } else if ratio <= min_ratio + 1e-12 {
                                if bland {
                                    self.basic[i] < self.basic[cur]
                                } else {
                                    w[i] > w[cur]
                                }
                            } else {
                                false
                            }
                        }
                    };
                    if better {
                        leave = Some(i);
                        min_ratio = ratio.min(min_ratio);
                    }
                }
            }
            let Some(leave) = leave else {
                return Ok(IterEnd::Unbounded);
            };

            self.pivot(entering, leave, &w);

            // Stall detection -> permanent Bland fallback.
            let obj = self.objective(costs);
            if obj < best_obj - 1e-10 {
                best_obj = obj;
                stalled = 0;
            } else {
                stalled += 1;
                if stalled > stall_limit {
                    bland = true;
                }
            }
        }
        Err(LpError::InvalidModel(
            "simplex iteration limit exceeded (numerical trouble)".into(),
        ))
    }

    /// After phase 1: pivot artificial columns out of the basis where
    /// possible; rows whose artificial cannot be displaced are redundant and
    /// stay inert (their tableau row is zero over all real columns).
    fn expel_artificials(&mut self) {
        for r in 0..self.m {
            if self.basic[r] < self.n_real {
                continue;
            }
            // Find a nonbasic real column with a nonzero element in row r of
            // the tableau (= row r of B⁻¹ A_j).
            let m = self.m;
            let binv_row: Vec<f64> = self.binv[r * m..(r + 1) * m].to_vec();
            let mut found = None;
            for j in 0..self.n_real {
                if self.in_basis[j] {
                    continue;
                }
                let alpha: f64 = self.cols[j]
                    .iter()
                    .map(|&(row, v)| binv_row[row] * v)
                    .sum();
                if alpha.abs() > 1e-7 {
                    found = Some(j);
                    break;
                }
            }
            if let Some(j) = found {
                let w = self.ftran(j);
                self.pivot(j, r, &w);
            }
        }
    }
}

/// Solves the continuous relaxation of `model` with the dense-inverse
/// simplex. The returned [`Solution`] carries no certificate and empty
/// [`SolveStats`](crate::SolveStats).
///
/// # Errors
///
/// The same outcomes as [`Model::solve`](crate::Model::solve), except that
/// a singular basis is never reported: refactorization keeps the previous
/// inverse instead.
pub fn solve(model: &Model) -> Result<Solution, LpError> {
    model.validate()?;
    let bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lb, v.ub)).collect();
    let std_form = standardize(model, &bounds)?;
    let mut core = Core::new(&std_form);

    // Phase 1 (only when some row lacks a natural slack basis).
    if core.cols.len() > core.n_real {
        let mut cost1 = vec![0.0; core.cols.len()];
        for c in core.n_real..core.cols.len() {
            cost1[c] = 1.0;
        }
        match core.iterate(&cost1)? {
            IterEnd::Unbounded => {
                return Err(LpError::InvalidModel(
                    "phase-1 objective reported unbounded (numerical trouble)".into(),
                ))
            }
            IterEnd::Optimal => {}
        }
        if core.objective(&cost1) > FEAS_TOL {
            return Err(LpError::Infeasible);
        }
        core.expel_artificials();
    }

    // Phase 2.
    let mut cost2 = std_form.cost.clone();
    cost2.resize(core.cols.len(), 0.0);
    match core.iterate(&cost2)? {
        IterEnd::Unbounded => return Err(LpError::Unbounded),
        IterEnd::Optimal => {}
    }

    let mut col_values = vec![0.0; core.n_real];
    for (i, &c) in core.basic.iter().enumerate() {
        if c < core.n_real {
            col_values[c] = core.xb[i].max(0.0);
        }
    }
    let values = model_values(&std_form, &col_values);
    let objective = model.objective_value(&values);
    Ok(Solution::new(SolveStatus::Optimal, objective, values))
}
