//! Two-phase revised simplex over a product-form basis inverse.
//!
//! The implementation follows the textbook revised simplex method:
//!
//! 1. The model is rewritten in standard equality form `min c·x, Ax = b,
//!    x ≥ 0` (lower bounds shifted out, upper bounds added as rows, free
//!    variables split, rows scaled so `b ≥ 0`, slack/surplus columns added).
//! 2. Phase 1 minimizes the sum of artificial variables starting from the
//!    identity basis of slacks and artificials; a positive optimum means the
//!    model is infeasible.
//! 3. Artificial variables still basic at level zero are pivoted out (or
//!    their rows recognized as redundant and left inert).
//! 4. Phase 2 minimizes the real objective over the real columns.
//!
//! Pricing is Dantzig (most negative reduced cost) with an automatic,
//! permanent fallback to Bland's rule when the objective stalls, which
//! guarantees termination on degenerate models.
//!
//! `B⁻¹` is never formed. It is held as an [`EtaFile`]: a product of
//! elementary matrices, one sparse column each. A pivot appends one eta
//! built from the nonzeros of `w = B⁻¹a_q`; `ftran` and `btran` apply the
//! etas forward and in reverse over a dense work vector. Every
//! [`REINVERT_EVERY`] pivots, and once more before a phase may end, the
//! file is rebuilt from the identity: single-nonzero basis columns
//! (slacks, surpluses, artificials) pivot on their own row, then the other
//! basis columns follow in order of increasing nonzero count, each on its
//! free row of largest magnitude. A basis that leaves no usable pivot is
//! reported as [`LpError::Numerical`].
//!
//! Before a solve returns, [`certify`] checks the answer: the returned
//! values against the model's rows and bounds, and every reduced cost
//! against the final basis. Either one outside its tolerance is an error.

use crate::model::{Model, Relation, Sense};
use crate::solution::{Certificate, LpError, Solution, SolveStats, SolveStatus};

/// Smallest magnitude accepted for a pivot element.
const PIVOT_TOL: f64 = 1e-9;
/// Tolerance for declaring phase-1 completion / feasibility.
const FEAS_TOL: f64 = 1e-6;
/// Reduced-cost tolerance for optimality.
const COST_TOL: f64 = 1e-9;
/// Smallest magnitude accepted for a reinversion pivot; a basis column
/// with no free entry above it makes the basis singular.
const SINGULAR_TOL: f64 = 1e-12;
/// Rebuild the eta file from the identity after this many pivots.
const REINVERT_EVERY: usize = 64;

/// How a model variable maps into standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = shift + x'`, `x' ≥ 0` (finite lower bound).
    Shifted { col: usize, shift: f64 },
    /// `x = shift - x'`, `x' ≥ 0` (no lower bound, finite upper bound).
    Negated { col: usize, shift: f64 },
    /// `x = x⁺ - x⁻` (free variable).
    Split { pos: usize, neg: usize },
    /// `x` is fixed to a constant (`lb == ub`).
    Fixed(f64),
}

/// The standard-form program assembled from a [`Model`].
pub(crate) struct Standard {
    /// Sparse columns, structural + slack/surplus; artificials are appended
    /// later by the solver core.
    pub(crate) cols: Vec<Vec<(usize, f64)>>,
    /// Right-hand sides, all non-negative.
    pub(crate) b: Vec<f64>,
    /// Phase-2 costs per column (minimization).
    pub(crate) cost: Vec<f64>,
    /// Which rows need an artificial variable (`Ge` after scaling, `Eq`).
    pub(crate) needs_artificial: Vec<bool>,
    /// Column that is basic-feasible for each row that has one (`Le` slack).
    pub(crate) slack_of_row: Vec<Option<usize>>,
    /// Per-model-variable mapping back from columns.
    var_map: Vec<VarMap>,
}

/// A constraint row in sparse `(column, coefficient)` form during
/// standardization.
type SparseRow = (Vec<(usize, f64)>, Relation, f64);

/// Builds standard form from the model with per-variable bound overrides
/// (used by branch-and-bound to fix binaries without cloning the model).
pub(crate) fn standardize(model: &Model, bounds: &[(f64, f64)]) -> Result<Standard, LpError> {
    let nvars = model.vars.len();
    assert_eq!(bounds.len(), nvars, "bounds override arity mismatch");

    let mut var_map = Vec::with_capacity(nvars);
    let mut ncols = 0usize;
    // Rows are built as sparse (col, coef) lists first, then transposed.
    let mut rows: Vec<SparseRow> = Vec::new();

    for (i, &(lb, ub)) in bounds.iter().enumerate() {
        if lb > ub {
            return Err(LpError::InvalidModel(format!(
                "variable {i} has lb {lb} > ub {ub}"
            )));
        }
        let map = if lb == ub {
            VarMap::Fixed(lb)
        } else if lb.is_finite() {
            let col = ncols;
            ncols += 1;
            if ub.is_finite() {
                rows.push((vec![(col, 1.0)], Relation::Le, ub - lb));
            }
            VarMap::Shifted { col, shift: lb }
        } else if ub.is_finite() {
            let col = ncols;
            ncols += 1;
            VarMap::Negated { col, shift: ub }
        } else {
            let pos = ncols;
            let neg = ncols + 1;
            ncols += 2;
            VarMap::Split { pos, neg }
        };
        var_map.push(map);
    }

    // Phase-2 costs for structural columns; sign-flip for maximization.
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; ncols];
    for (i, v) in model.vars.iter().enumerate() {
        let c = sign * v.obj;
        match var_map[i] {
            VarMap::Shifted { col, .. } => cost[col] += c,
            VarMap::Negated { col, .. } => cost[col] -= c,
            VarMap::Split { pos, neg } => {
                cost[pos] += c;
                cost[neg] -= c;
            }
            // Fixed variables contribute a constant; the final objective is
            // recomputed from the extracted values, so no offset is kept.
            VarMap::Fixed(_) => {}
        }
    }

    // Model constraints rewritten over standard columns.
    for con in &model.constraints {
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(con.expr.terms().len());
        let mut rhs = con.rhs;
        for &(v, c) in con.expr.terms() {
            match var_map[v.index()] {
                VarMap::Shifted { col, shift } => {
                    terms.push((col, c));
                    rhs -= c * shift;
                }
                VarMap::Negated { col, shift } => {
                    terms.push((col, -c));
                    rhs -= c * shift;
                }
                VarMap::Split { pos, neg } => {
                    terms.push((pos, c));
                    terms.push((neg, -c));
                }
                VarMap::Fixed(value) => rhs -= c * value,
            }
        }
        rows.push((terms, con.relation, rhs));
    }

    // Scale rows so b >= 0, then add slack / surplus columns.
    let m = rows.len();
    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
    let mut b = Vec::with_capacity(m);
    let mut needs_artificial = vec![false; m];
    let mut slack_of_row = vec![None; m];

    for (r, (mut terms, mut relation, mut rhs)) in rows.into_iter().enumerate() {
        if rhs < 0.0 {
            rhs = -rhs;
            for (_, c) in &mut terms {
                *c = -*c;
            }
            relation = match relation {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        b.push(rhs);
        for (col, c) in terms {
            if c != 0.0 {
                cols[col].push((r, c));
            }
        }
        match relation {
            Relation::Le => {
                let col = cols.len();
                cols.push(vec![(r, 1.0)]);
                cost.push(0.0);
                slack_of_row[r] = Some(col);
            }
            Relation::Ge => {
                cols.push(vec![(r, -1.0)]);
                cost.push(0.0);
                needs_artificial[r] = true;
            }
            Relation::Eq => {
                needs_artificial[r] = true;
            }
        }
    }

    Ok(Standard {
        cols,
        b,
        cost,
        needs_artificial,
        slack_of_row,
        var_map,
    })
}

/// The product-form inverse `B⁻¹ = Eₖ ⋯ E₂E₁`.
///
/// Eta `Eᵢ` is the inverse of the identity with column `rows[i]` replaced
/// by a pivot column `w`. It is stored as `w` itself: `w[rows[i]]` in
/// `pivots[i]` and the other nonzeros of `w` as `(idx, val)` pairs in
/// `starts[i]..starts[i + 1]`.
struct EtaFile {
    rows: Vec<usize>,
    pivots: Vec<f64>,
    starts: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

impl EtaFile {
    fn new() -> Self {
        Self {
            rows: Vec::new(),
            pivots: Vec::new(),
            starts: vec![0],
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.pivots.clear();
        self.starts.truncate(1);
        self.idx.clear();
        self.val.clear();
    }

    /// Stored nonzeros, pivots included.
    fn nonzeros(&self) -> usize {
        self.rows.len() + self.idx.len()
    }

    /// Appends the eta that pivots the dense column `w` on `row`.
    fn push(&mut self, row: usize, w: &[f64]) {
        for (i, &wi) in w.iter().enumerate() {
            if wi != 0.0 && i != row {
                self.idx.push(i);
                self.val.push(wi);
            }
        }
        self.rows.push(row);
        self.pivots.push(w[row]);
        self.starts.push(self.idx.len());
    }

    /// `v := B⁻¹ v`.
    fn ftran(&self, v: &mut [f64]) {
        for (k, (&r, &p)) in self.rows.iter().zip(&self.pivots).enumerate() {
            if v[r] == 0.0 {
                continue;
            }
            let t = v[r] / p;
            v[r] = t;
            let span = self.starts[k]..self.starts[k + 1];
            for (&i, &wi) in self.idx[span.clone()].iter().zip(&self.val[span]) {
                v[i] -= wi * t;
            }
        }
    }

    /// `yᵀ := yᵀ B⁻¹`.
    fn btran(&self, y: &mut [f64]) {
        for (k, (&r, &p)) in self.rows.iter().zip(&self.pivots).enumerate().rev() {
            let span = self.starts[k]..self.starts[k + 1];
            let dot: f64 = self.idx[span.clone()]
                .iter()
                .zip(&self.val[span])
                .map(|(&i, &wi)| wi * y[i])
                .sum();
            y[r] = (y[r] - dot) / p;
        }
    }
}

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
    /// `B⁻¹` in product form.
    etas: EtaFile,
    /// Current basic-variable values `B⁻¹ b`.
    xb: Vec<f64>,
    pivots_since_reinvert: usize,
    /// Pivots over the whole solve.
    pivots: usize,
    reinversions: usize,
    peak_eta_nonzeros: usize,
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
        Self {
            m,
            cols,
            n_real,
            b: std_form.b.clone(),
            basic,
            in_basis,
            etas: EtaFile::new(),
            xb: std_form.b.clone(),
            pivots_since_reinvert: 0,
            pivots: 0,
            reinversions: 0,
            peak_eta_nonzeros: 0,
        }
    }

    /// `w = B⁻¹ · column(j)`.
    fn ftran(&self, j: usize) -> Vec<f64> {
        let mut w = vec![0.0; self.m];
        for &(r, v) in &self.cols[j] {
            w[r] = v;
        }
        self.etas.ftran(&mut w);
        w
    }

    /// `y = c_Bᵀ · B⁻¹` for the given cost vector (indexed by column).
    fn btran(&self, costs: &[f64]) -> Vec<f64> {
        let mut y: Vec<f64> = self
            .basic
            .iter()
            .map(|&c| costs.get(c).copied().unwrap_or(0.0))
            .collect();
        self.etas.btran(&mut y);
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
    fn pivot(&mut self, entering: usize, row: usize, w: &[f64]) -> Result<(), LpError> {
        debug_assert!(w[row].abs() > PIVOT_TOL / 10.0);
        self.etas.push(row, w);
        self.peak_eta_nonzeros = self.peak_eta_nonzeros.max(self.etas.nonzeros());
        let theta = self.xb[row] / w[row];
        for (i, (x, &wi)) in self.xb.iter_mut().zip(w).enumerate() {
            if i == row || wi == 0.0 {
                continue;
            }
            *x -= wi * theta;
            if *x < 0.0 && *x > -FEAS_TOL {
                *x = 0.0;
            }
        }
        self.xb[row] = theta;
        self.in_basis[self.basic[row]] = false;
        self.in_basis[entering] = true;
        self.basic[row] = entering;
        self.pivots += 1;
        self.pivots_since_reinvert += 1;
        if self.pivots_since_reinvert >= REINVERT_EVERY {
            self.reinvert()?;
        }
        Ok(())
    }

    /// Rebuilds the eta file from the identity for the current basis, then
    /// recomputes `x_B = B⁻¹ b`. Single-nonzero columns pivot on their own
    /// row first; the rest follow by increasing nonzero count, each on the
    /// free row where its transformed column is largest. Which row a column
    /// is basic in may change; the basis itself does not.
    ///
    /// # Errors
    ///
    /// [`LpError::Numerical`] when a basis column has no free entry above
    /// [`SINGULAR_TOL`], i.e. the basis matrix is singular.
    fn reinvert(&mut self) -> Result<(), LpError> {
        let m = self.m;
        self.reinversions += 1;
        self.pivots_since_reinvert = 0;
        self.etas.clear();
        let mut order = self.basic.clone();
        order.sort_by_key(|&c| (self.cols[c].len(), c));
        let mut basic = vec![usize::MAX; m];
        let mut w = vec![0.0; m];
        for c in order {
            let row = if let [(r, v)] = self.cols[c][..] {
                if basic[r] != usize::MAX || v.abs() <= SINGULAR_TOL {
                    return Err(singular(c));
                }
                if v != 1.0 {
                    w.fill(0.0);
                    w[r] = v;
                    self.etas.push(r, &w);
                }
                r
            } else {
                w.fill(0.0);
                for &(r, v) in &self.cols[c] {
                    w[r] = v;
                }
                self.etas.ftran(&mut w);
                let mut best = None;
                let mut best_abs = SINGULAR_TOL;
                for (i, &wi) in w.iter().enumerate() {
                    if basic[i] == usize::MAX && wi.abs() > best_abs {
                        best = Some(i);
                        best_abs = wi.abs();
                    }
                }
                let Some(r) = best else {
                    return Err(singular(c));
                };
                self.etas.push(r, &w);
                r
            };
            basic[row] = c;
        }
        self.peak_eta_nonzeros = self.peak_eta_nonzeros.max(self.etas.nonzeros());
        self.basic = basic;
        let mut xb = self.b.clone();
        self.etas.ftran(&mut xb);
        for x in &mut xb {
            if *x < 0.0 && *x > -FEAS_TOL {
                *x = 0.0;
            }
        }
        self.xb = xb;
        Ok(())
    }

    /// Runs simplex iterations minimizing `costs` until optimal or
    /// unbounded. Optimality is only declared on a freshly reinverted
    /// basis, so drift in the eta file cannot end a phase early.
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
                if self.pivots_since_reinvert == 0 {
                    return Ok(IterEnd::Optimal);
                }
                self.reinvert()?;
                continue;
            };

            let w = self.ftran(entering);
            // Ratio test.
            let mut leave: Option<usize> = None;
            let mut min_ratio = f64::INFINITY;
            for (i, &wi) in w.iter().enumerate() {
                if wi > PIVOT_TOL {
                    let xi = self.xb[i].max(0.0);
                    let ratio = xi / wi;
                    let better = match leave {
                        None => true,
                        Some(cur) => {
                            if ratio < min_ratio - 1e-12 {
                                true
                            } else if ratio <= min_ratio + 1e-12 {
                                if bland {
                                    self.basic[i] < self.basic[cur]
                                } else {
                                    wi > w[cur]
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

            self.pivot(entering, leave, &w)?;

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
        Err(LpError::Numerical(
            "simplex iteration limit exceeded".into(),
        ))
    }

    /// After phase 1: pivot artificial columns out of the basis where
    /// possible; rows whose artificial cannot be displaced are redundant and
    /// stay inert (their tableau row is zero over all real columns).
    /// Artificials only ever sit in their own row, so reinversions during
    /// this loop move no artificial to a row already visited.
    fn expel_artificials(&mut self) -> Result<(), LpError> {
        for r in 0..self.m {
            if self.basic[r] < self.n_real {
                continue;
            }
            // Find a nonbasic real column with a nonzero element in row r of
            // the tableau (= row r of B⁻¹ A_j), taking row r of B⁻¹ as the
            // btran of the unit vector e_r.
            let mut binv_row = vec![0.0; self.m];
            binv_row[r] = 1.0;
            self.etas.btran(&mut binv_row);
            let found = (0..self.n_real).find(|&j| {
                !self.in_basis[j]
                    && self.cols[j]
                        .iter()
                        .map(|&(row, v)| binv_row[row] * v)
                        .sum::<f64>()
                        .abs()
                        > 1e-7
            });
            if let Some(j) = found {
                let w = self.ftran(j);
                self.pivot(j, r, &w)?;
            }
        }
        Ok(())
    }
}

fn singular(col: usize) -> LpError {
    LpError::Numerical(format!(
        "singular basis during reinversion: basis column {col} has no free pivot \
         above {SINGULAR_TOL:e}"
    ))
}

/// Maps standard-form column values back to model variables.
pub(crate) fn model_values(std_form: &Standard, col_values: &[f64]) -> Vec<f64> {
    std_form
        .var_map
        .iter()
        .map(|vm| match *vm {
            VarMap::Shifted { col, shift } => shift + col_values[col],
            VarMap::Negated { col, shift } => shift - col_values[col],
            VarMap::Split { pos, neg } => col_values[pos] - col_values[neg],
            VarMap::Fixed(v) => v,
        })
        .collect()
}

/// Computes the optimality certificate of a finished solve: the largest
/// violation of a model row or of `bounds` by `values`, each divided by
/// `max(1, |rhs|)` or `max(1, |bound|)`; and the most negative reduced cost
/// of any real column at the final basis, divided by `max(1, ‖c‖∞)`.
fn certify(
    model: &Model,
    bounds: &[(f64, f64)],
    values: &[f64],
    core: &Core,
    costs: &[f64],
) -> Certificate {
    let mut primal = 0.0f64;
    for (&x, &(lb, ub)) in values.iter().zip(bounds) {
        if lb.is_finite() {
            primal = primal.max((lb - x) / lb.abs().max(1.0));
        }
        if ub.is_finite() {
            primal = primal.max((x - ub) / ub.abs().max(1.0));
        }
    }
    for con in &model.constraints {
        let gap = con.expr.eval(values) - con.rhs;
        let violation = match con.relation {
            Relation::Le => gap,
            Relation::Ge => -gap,
            Relation::Eq => gap.abs(),
        };
        primal = primal.max(violation / con.rhs.abs().max(1.0));
    }

    let y = core.btran(costs);
    let scale = costs[..core.n_real]
        .iter()
        .fold(1.0f64, |s, c| s.max(c.abs()));
    let most_negative = (0..core.n_real)
        .map(|j| core.reduced_cost(j, costs, &y))
        .fold(0.0f64, f64::min);
    Certificate {
        primal_residual: primal,
        dual_infeasibility: most_negative.abs() / scale,
    }
}

/// Solves the model with per-variable bound overrides. This is the single
/// entry point used by both [`Model::solve`](crate::Model::solve) and the
/// branch-and-bound MIP driver.
pub(crate) fn solve_with_bounds(
    model: &Model,
    bounds: &[(f64, f64)],
) -> Result<Solution, LpError> {
    let std_form = standardize(model, bounds)?;
    let mut core = Core::new(&std_form);

    // Phase 1 (only when some row lacks a natural slack basis).
    if core.cols.len() > core.n_real {
        let mut cost1 = vec![0.0; core.cols.len()];
        cost1[core.n_real..].fill(1.0);
        match core.iterate(&cost1)? {
            IterEnd::Unbounded => {
                return Err(LpError::Numerical(
                    "phase-1 objective reported unbounded".into(),
                ))
            }
            IterEnd::Optimal => {}
        }
        if core.objective(&cost1) > FEAS_TOL {
            return Err(LpError::Infeasible);
        }
        core.expel_artificials()?;
    }
    let phase1_pivots = core.pivots;

    // Phase 2.
    let mut cost2 = std_form.cost.clone();
    cost2.resize(core.cols.len(), 0.0);
    match core.iterate(&cost2)? {
        IterEnd::Unbounded => return Err(LpError::Unbounded),
        IterEnd::Optimal => {}
    }

    // Extract column values, then map back to model variables.
    let mut col_values = vec![0.0; core.n_real];
    for (i, &c) in core.basic.iter().enumerate() {
        if c < core.n_real {
            col_values[c] = core.xb[i].max(0.0);
        }
    }
    let values = model_values(&std_form, &col_values);

    let certificate = certify(model, bounds, &values, &core, &cost2);
    if !certificate.holds() {
        return Err(LpError::Numerical(format!(
            "optimality certificate failed: primal residual {:e} (tolerance {:e}), \
             dual infeasibility {:e} (tolerance {:e})",
            certificate.primal_residual,
            Certificate::PRIMAL_TOL,
            certificate.dual_infeasibility,
            Certificate::DUAL_TOL,
        )));
    }
    let stats = SolveStats {
        phase1_pivots,
        phase2_pivots: core.pivots - phase1_pivots,
        reinversions: core.reinversions,
        peak_eta_nonzeros: core.peak_eta_nonzeros,
    };
    let objective = model.objective_value(&values);
    Ok(Solution::new(SolveStatus::Optimal, objective, values).with_proof(certificate, stats))
}

#[cfg(test)]
mod tests {
    use super::{standardize, Core};
    use crate::{LpError, Model, Sense};

    fn inf() -> f64 {
        f64::INFINITY
    }

    #[test]
    fn maximization_with_le_rows() {
        // Classic: max 3x + 5y, x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, inf(), 3.0);
        let y = m.add_var("y", 0.0, inf(), 5.0);
        m.add_le([(x, 1.0)], 4.0);
        m.add_le([(y, 2.0)], 12.0);
        m.add_le([(x, 3.0), (y, 2.0)], 18.0);
        let s = m.solve().unwrap();
        assert!((s.objective() - 36.0).abs() < 1e-6, "{}", s.objective());
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn minimization_with_ge_rows_uses_phase_one() {
        // min 2x + 3y, x + y >= 10, x >= 2, y >= 3 -> x=7, y=3, obj 23.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 2.0);
        let y = m.add_var("y", 0.0, inf(), 3.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 10.0);
        m.add_ge([(x, 1.0)], 2.0);
        m.add_ge([(y, 1.0)], 3.0);
        let s = m.solve().unwrap();
        assert!((s.objective() - 23.0).abs() < 1e-6, "{}", s.objective());
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x=2, y=1, obj 3.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 1.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_eq([(x, 1.0), (y, 2.0)], 4.0);
        m.add_eq([(x, 1.0), (y, -1.0)], 1.0);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 1.0);
        m.add_le([(x, 1.0)], 1.0);
        m.add_ge([(x, 1.0)], 2.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, inf(), 1.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_ge([(x, 1.0), (y, -1.0)], 0.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn honors_variable_upper_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 3.0, 1.0);
        let _ = x;
        let s = m.solve().unwrap();
        assert!((s.objective() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn honors_negative_lower_bounds() {
        // min x with -5 <= x <= 5 -> -5.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", -5.0, 5.0, 1.0);
        let _ = x;
        let s = m.solve().unwrap();
        assert!((s.objective() + 5.0).abs() < 1e-9);
    }

    #[test]
    fn handles_free_variables() {
        // min |shape|: min y s.t. y >= x - 2, y >= 2 - x, x free -> 0 at x=2.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", f64::NEG_INFINITY, inf(), 0.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_ge([(y, 1.0), (x, -1.0)], -2.0);
        m.add_ge([(y, 1.0), (x, 1.0)], 2.0);
        let s = m.solve().unwrap();
        assert!(s.objective().abs() < 1e-6);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn handles_upper_bounded_only_variables() {
        // max x with x <= 7 and no lower bound, objective max x -> 7.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", f64::NEG_INFINITY, 7.0, 1.0);
        let _ = x;
        let s = m.solve().unwrap();
        assert!((s.objective() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_variables_are_substituted() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 2.0, 2.0, 3.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 5.0);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-12);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
        assert!((s.objective() - 9.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Beale's classic cycling example (under certain pivot rules).
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_var("x1", 0.0, inf(), -0.75);
        let x2 = m.add_var("x2", 0.0, inf(), 150.0);
        let x3 = m.add_var("x3", 0.0, inf(), -0.02);
        let x4 = m.add_var("x4", 0.0, inf(), 6.0);
        m.add_le([(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        m.add_le([(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        m.add_le([(x3, 1.0)], 1.0);
        let s = m.solve().unwrap();
        assert!((s.objective() + 0.05).abs() < 1e-6, "{}", s.objective());
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Model::new(Sense::Minimize);
        let s = m.solve().unwrap();
        assert_eq!(s.objective(), 0.0);
        assert!(s.values().is_empty());
    }

    #[test]
    fn no_constraint_unbounded_direction_detected() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 0.0, inf(), -1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn redundant_equality_rows_are_tolerated() {
        // Same equation twice: solver must not declare infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 1.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_eq([(x, 1.0), (y, 1.0)], 4.0);
        m.add_eq([(x, 2.0), (y, 2.0)], 8.0);
        let s = m.solve().unwrap();
        assert!((s.value(x) + s.value(y) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows_are_rescaled() {
        // x - y <= -1 with x,y >= 0: y >= x + 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 0.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_le([(x, 1.0), (y, -1.0)], -1.0);
        let s = m.solve().unwrap();
        assert!((s.value(y) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transportation_problem_optimum() {
        // 2 plants (supply 20, 30) x 3 markets (demand 10, 25, 15).
        // costs: p1: [8, 6, 10], p2: [9, 12, 13]. Optimal cost = 465:
        // p1 -> m2 20 @6; p2 -> m1 10 @9, m2 5 @12, m3 15 @13
        // = 120 + 90 + 60 + 195.
        let mut m = Model::new(Sense::Minimize);
        let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
        let supply = [20.0, 30.0];
        let demand = [10.0, 25.0, 15.0];
        let mut x = Vec::new();
        for (i, row) in costs.iter().enumerate() {
            let mut xr = Vec::new();
            for (j, &c) in row.iter().enumerate() {
                xr.push(m.add_var(format!("x{i}{j}"), 0.0, f64::INFINITY, c));
            }
            x.push(xr);
        }
        for (i, &s) in supply.iter().enumerate() {
            let terms: Vec<_> = (0..3).map(|j| (x[i][j], 1.0)).collect();
            m.add_le(terms, s);
        }
        for (j, &d) in demand.iter().enumerate() {
            let terms: Vec<_> = (0..2).map(|i| (x[i][j], 1.0)).collect();
            m.add_ge(terms, d);
        }
        let s = m.solve().unwrap();
        assert!((s.objective() - 465.0).abs() < 1e-5, "{}", s.objective());
    }

    /// Asserts `B⁻¹ B = I` column by column: `ftran` of the column basic in
    /// row `i` is the unit vector `e_i`, and so is `btran` of `e_i`
    /// applied to that column.
    fn assert_inverts_basis(core: &Core) {
        for (i, &c) in core.basic.iter().enumerate() {
            let w = core.ftran(c);
            for (k, &wk) in w.iter().enumerate() {
                let want = if k == i { 1.0 } else { 0.0 };
                assert!((wk - want).abs() < 1e-9, "ftran row {k} of basic {c}: {wk}");
            }
            let mut row = vec![0.0; core.m];
            row[i] = 1.0;
            core.etas.btran(&mut row);
            let dot: f64 = core.cols[c].iter().map(|&(r, v)| row[r] * v).sum();
            assert!(
                (dot - 1.0).abs() < 1e-9,
                "row {i} of B⁻¹ against basic {c}: {dot}"
            );
        }
    }

    #[test]
    fn eta_file_inverts_the_basis_before_and_after_reinversion() {
        // The transportation problem below: Ge rows need phase 1.
        let mut m = Model::new(Sense::Minimize);
        let costs = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
        let x: Vec<Vec<_>> = costs
            .iter()
            .map(|row| row.iter().map(|&c| m.add_var("x", 0.0, inf(), c)).collect())
            .collect();
        for (i, s) in [20.0, 30.0].into_iter().enumerate() {
            m.add_le((0..3).map(|j| (x[i][j], 1.0)).collect::<Vec<_>>(), s);
        }
        for (j, d) in [10.0, 25.0, 15.0].into_iter().enumerate() {
            m.add_ge((0..2).map(|i| (x[i][j], 1.0)).collect::<Vec<_>>(), d);
        }
        let std_form = standardize(&m, &[(0.0, inf()); 6]).unwrap();
        let mut core = Core::new(&std_form);
        let mut cost1 = vec![0.0; core.cols.len()];
        cost1[core.n_real..].fill(1.0);
        // Stop short of optimality so the file holds pivot etas.
        for _ in 0..3 {
            let y = core.btran(&cost1);
            let entering = (0..core.n_real)
                .filter(|&j| !core.in_basis[j])
                .min_by(|&a, &b| {
                    core.reduced_cost(a, &cost1, &y)
                        .total_cmp(&core.reduced_cost(b, &cost1, &y))
                })
                .unwrap();
            let w = core.ftran(entering);
            let leave = (0..core.m)
                .filter(|&i| w[i] > 1e-9)
                .min_by(|&a, &b| (core.xb[a] / w[a]).total_cmp(&(core.xb[b] / w[b])))
                .unwrap();
            core.pivot(entering, leave, &w).unwrap();
        }
        assert_eq!(core.etas.rows.len(), 3);
        assert_inverts_basis(&core);
        let xb_before = core.xb.clone();
        let basic_before = core.basic.clone();
        core.reinvert().unwrap();
        assert_inverts_basis(&core);
        // Reinversion may move columns between rows but keeps the basis and
        // each column's value.
        for (i, &c) in core.basic.iter().enumerate() {
            let was = basic_before.iter().position(|&b| b == c).unwrap();
            assert!((core.xb[i] - xb_before[was]).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_basis_at_reinversion_is_an_error() {
        // Proportional columns cannot both be basic.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 1.0);
        let y = m.add_var("y", 0.0, inf(), 1.0);
        m.add_le([(x, 1.0), (y, 2.0)], 4.0);
        m.add_le([(x, 2.0), (y, 4.0)], 9.0);
        let std_form = standardize(&m, &[(0.0, inf()); 2]).unwrap();
        let mut core = Core::new(&std_form);
        core.basic = vec![x.index(), y.index()];
        assert!(matches!(core.reinvert(), Err(LpError::Numerical(_))));
    }

    #[test]
    fn lp_solutions_carry_certificate_and_stats() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, inf(), 2.0);
        let y = m.add_var("y", 0.0, inf(), 3.0);
        m.add_ge([(x, 1.0), (y, 1.0)], 10.0);
        m.add_ge([(x, 1.0)], 2.0);
        m.add_ge([(y, 1.0)], 3.0);
        let s = m.solve().unwrap();
        let cert = s.certificate().unwrap();
        assert!(cert.holds(), "{cert:?}");
        assert!(cert.primal_residual < 1e-12 && cert.dual_infeasibility < 1e-12);
        let stats = s.stats();
        assert!(stats.phase1_pivots >= 3, "{stats:?}");
        // Each phase ends on a freshly reinverted basis.
        assert!(stats.reinversions >= 1, "{stats:?}");
        assert!(stats.peak_eta_nonzeros > 0, "{stats:?}");
        assert_eq!(m.solve().unwrap().stats(), stats);
    }
}
