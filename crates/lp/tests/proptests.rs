//! Property-based tests for the simplex and branch-and-bound solvers.
//!
//! Two oracles keep the solver honest:
//!
//! - for random two-variable LPs, brute-force vertex enumeration (every pair
//!   of active constraints) recovers the exact optimum;
//! - for random pure-binary models, exhaustive enumeration of all 2ⁿ
//!   assignments recovers the exact MIP optimum.
//!
//! On top of that, every solution returned on any random model must satisfy
//! every constraint (primal feasibility) and carry an optimality
//! certificate that holds, and constructed-feasible models must never be
//! declared infeasible.
//!
//! A third oracle covers larger models: on random sparse feasible LPs the
//! product-form simplex must agree with the dense-inverse simplex kept in
//! `sb_lp::reference`, in status and in objective.

use proptest::prelude::*;
use sb_lp::{LpError, MipOptions, Model, Relation, Sense, Solution};

const TOL: f64 = 1e-5;

/// A random 2-variable LP: `max c·x` over `a·x ≤ b` rows plus a bounding box
/// so the optimum is finite.
#[derive(Debug, Clone)]
struct TwoVarLp {
    c: [f64; 2],
    rows: Vec<([f64; 2], f64)>,
    box_hi: f64,
}

fn arb_two_var_lp() -> impl Strategy<Value = TwoVarLp> {
    let coef = -5.0..5.0f64;
    let rhs = 0.5..10.0f64;
    (
        [coef.clone(), coef.clone()],
        prop::collection::vec(([coef.clone(), coef], rhs), 0..6),
        5.0..20.0f64,
    )
        .prop_map(|(c, rows, box_hi)| TwoVarLp { c, rows, box_hi })
}

/// Brute-force optimum of a [`TwoVarLp`] by enumerating vertices: all
/// intersections of constraint/bound lines that are feasible.
fn brute_force_two_var(lp: &TwoVarLp) -> Option<(f64, [f64; 2])> {
    // All lines: each row (a, b) as a·x = b, plus x0=0, x0=hi, x1=0, x1=hi.
    let mut lines: Vec<([f64; 2], f64)> = lp.rows.clone();
    lines.push(([1.0, 0.0], 0.0));
    lines.push(([1.0, 0.0], lp.box_hi));
    lines.push(([0.0, 1.0], 0.0));
    lines.push(([0.0, 1.0], lp.box_hi));

    let feasible = |x: [f64; 2]| -> bool {
        if x[0] < -TOL || x[1] < -TOL || x[0] > lp.box_hi + TOL || x[1] > lp.box_hi + TOL {
            return false;
        }
        lp.rows
            .iter()
            .all(|(a, b)| a[0] * x[0] + a[1] * x[1] <= b + TOL)
    };

    let mut best: Option<(f64, [f64; 2])> = None;
    for i in 0..lines.len() {
        for j in (i + 1)..lines.len() {
            let (a1, b1) = lines[i];
            let (a2, b2) = lines[j];
            let det = a1[0] * a2[1] - a1[1] * a2[0];
            if det.abs() < 1e-9 {
                continue;
            }
            let x = [
                (b1 * a2[1] - b2 * a1[1]) / det,
                (a1[0] * b2 - a2[0] * b1) / det,
            ];
            if feasible(x) {
                let val = lp.c[0] * x[0] + lp.c[1] * x[1];
                if best.is_none_or(|(bv, _)| val > bv) {
                    best = Some((val, x));
                }
            }
        }
    }
    best
}

/// Whether an LP solution carries a certificate within its tolerances.
fn certified(sol: &Solution) -> bool {
    sol.certificate().is_some_and(|c| c.holds())
}

/// A generated row `(terms, relation selector, slack)`: selector 0 is `Le`
/// with the rhs `slack` above the seed value, 1 is `Ge` with it `slack`
/// below, 2 is `Eq` at the seed value.
type GenRow = (Vec<(usize, f64)>, u8, f64);

/// A random sparse LP, feasible by construction: every row holds at a seed
/// point inside the bounding box `[0, box_hi]ⁿ`, so the optimum is finite.
#[derive(Debug, Clone)]
struct SparseLp {
    maximize: bool,
    box_hi: f64,
    costs: Vec<f64>,
    /// The seed point, as fractions of `box_hi`.
    seed: Vec<f64>,
    rows: Vec<GenRow>,
    /// `(i, j, k)`: the equality `eqᵢ + k·eqⱼ` over the model's equality
    /// rows, redundant by construction.
    redundant: Vec<(usize, usize, f64)>,
}

fn arb_sparse_lp() -> impl Strategy<Value = SparseLp> {
    (6usize..30, 10usize..=60).prop_flat_map(|(n, m)| {
        (
            any::<bool>(),
            5.0..20.0f64,
            prop::collection::vec(-5.0..5.0f64, n),
            prop::collection::vec(0.0..1.0f64, n),
            prop::collection::vec(
                (
                    prop::collection::vec((0..n, -3.0..3.0f64), 1..6),
                    0u8..3,
                    0.0..2.0f64,
                ),
                m,
            ),
            prop::collection::vec((0usize..60, 0usize..60, -2.0..2.0f64), 0..4),
        )
            .prop_map(
                |(maximize, box_hi, costs, seed, rows, redundant)| SparseLp {
                    maximize,
                    box_hi,
                    costs,
                    seed,
                    rows,
                    redundant,
                },
            )
    })
}

fn build_sparse_model(lp: &SparseLp) -> Model {
    let sense = if lp.maximize {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<_> = lp
        .costs
        .iter()
        .enumerate()
        .map(|(i, &c)| m.add_var(format!("x{i}"), 0.0, lp.box_hi, c))
        .collect();
    let at_seed = |terms: &[(usize, f64)]| -> f64 {
        terms.iter().map(|&(i, c)| c * lp.seed[i] * lp.box_hi).sum()
    };
    let mut equalities: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
    for (terms, relation, slack) in &lp.rows {
        let expr: Vec<_> = terms.iter().map(|&(i, c)| (vars[i], c)).collect();
        let value = at_seed(terms);
        match relation {
            0 => {
                m.add_le(expr, value + slack);
            }
            1 => {
                m.add_ge(expr, value - slack);
            }
            _ => {
                m.add_eq(expr, value);
                equalities.push((terms.clone(), value));
            }
        }
    }
    if !equalities.is_empty() {
        for &(i, j, k) in &lp.redundant {
            let (a, ra) = &equalities[i % equalities.len()];
            let (b, rb) = &equalities[j % equalities.len()];
            let expr: Vec<_> = a
                .iter()
                .map(|&(v, c)| (vars[v], c))
                .chain(b.iter().map(|&(v, c)| (vars[v], k * c)))
                .collect();
            m.add_eq(expr, ra + k * rb);
        }
    }
    m
}

fn build_model(lp: &TwoVarLp) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let x0 = m.add_var("x0", 0.0, lp.box_hi, lp.c[0]);
    let x1 = m.add_var("x1", 0.0, lp.box_hi, lp.c[1]);
    for (a, b) in &lp.rows {
        m.add_le([(x0, a[0]), (x1, a[1])], *b);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simplex matches brute-force vertex enumeration on 2-variable LPs.
    #[test]
    fn two_var_lp_matches_vertex_enumeration(lp in arb_two_var_lp()) {
        let m = build_model(&lp);
        let brute = brute_force_two_var(&lp);
        match m.solve() {
            Ok(sol) => {
                let (bv, _) = brute.expect("solver found a solution, oracle must too");
                prop_assert!(
                    (sol.objective() - bv).abs() <= TOL * (1.0 + bv.abs()),
                    "simplex {} vs brute force {}", sol.objective(), bv
                );
                prop_assert!(m.is_feasible(sol.values(), TOL));
                prop_assert!(certified(&sol), "{:?}", sol.certificate());
            }
            Err(LpError::Infeasible) => {
                // Origin is always in the box; infeasibility can only come
                // from a row with b < 0 at the origin... but rhs >= 0.5 > 0,
                // so the origin is always feasible.
                prop_assert!(false, "model with feasible origin declared infeasible");
            }
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }

    /// On larger random models seeded with a known feasible point, the
    /// solver must return a feasible solution at least as good as that point.
    #[test]
    fn seeded_feasible_models_are_solved(
        n in 2usize..6,
        seed_vals in prop::collection::vec(0.0..4.0f64, 6),
        rows in prop::collection::vec(
            (prop::collection::vec(-3.0..3.0f64, 6), 0.0..2.0f64),
            1..8,
        ),
        costs in prop::collection::vec(-2.0..2.0f64, 6),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), 0.0, 10.0, costs[i]))
            .collect();
        let x0 = &seed_vals[..n];
        // Every row is made satisfiable at x0 by choosing the rhs at or
        // above the row value there.
        for (coefs, slack) in &rows {
            let lhs: f64 = (0..n).map(|i| coefs[i] * x0[i]).sum();
            let terms: Vec<_> = (0..n).map(|i| (vars[i], coefs[i])).collect();
            m.add_le(terms, lhs + slack);
        }
        let sol = m.solve();
        prop_assert!(sol.is_ok(), "seeded-feasible model failed: {:?}", sol.err());
        let sol = sol.unwrap();
        prop_assert!(m.is_feasible(sol.values(), TOL));
        prop_assert!(certified(&sol), "{:?}", sol.certificate());
        let seed_obj: f64 = (0..n).map(|i| costs[i] * x0[i]).sum();
        prop_assert!(sol.objective() <= seed_obj + TOL);
    }

    /// Branch-and-bound matches exhaustive enumeration on pure-binary models.
    #[test]
    fn binary_mip_matches_exhaustive_enumeration(
        n in 1usize..5,
        costs in prop::collection::vec(-5.0..5.0f64, 5),
        rows in prop::collection::vec(
            (prop::collection::vec(-3.0..3.0f64, 5), -2.0..6.0f64),
            0..5,
        ),
    ) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_binary_var(format!("b{i}"), costs[i]))
            .collect();
        for (coefs, rhs) in &rows {
            let terms: Vec<_> = (0..n).map(|i| (vars[i], coefs[i])).collect();
            m.add_constraint(terms, Relation::Le, *rhs);
        }
        // Exhaustive oracle.
        let mut best: Option<f64> = None;
        for mask in 0..(1u32 << n) {
            let assign: Vec<f64> = (0..n)
                .map(|i| f64::from((mask >> i) & 1))
                .collect();
            let ok = rows.iter().all(|(coefs, rhs)| {
                let lhs: f64 = (0..n).map(|i| coefs[i] * assign[i]).sum();
                lhs <= rhs + 1e-9
            });
            if ok {
                let val: f64 = (0..n).map(|i| costs[i] * assign[i]).sum();
                if best.is_none_or(|b| val > b) {
                    best = Some(val);
                }
            }
        }
        match (m.solve_mip(&MipOptions::default()), best) {
            (Ok(sol), Some(bv)) => {
                prop_assert!(
                    (sol.objective() - bv).abs() <= TOL * (1.0 + bv.abs()),
                    "mip {} vs exhaustive {}", sol.objective(), bv
                );
                for &v in &vars {
                    let x = sol.value(v);
                    prop_assert!(x.abs() < 1e-6 || (x - 1.0).abs() < 1e-6);
                }
            }
            (Err(LpError::Infeasible), None) => {}
            (got, want) => prop_assert!(
                false,
                "mip {:?} disagrees with oracle {:?}",
                got.map(|s| s.objective()),
                want
            ),
        }
    }

    /// Equality-constrained models: solutions satisfy the equalities tightly.
    #[test]
    fn equality_models_satisfy_rows(
        n in 2usize..5,
        seed_vals in prop::collection::vec(0.1..3.0f64, 5),
        coef_rows in prop::collection::vec(prop::collection::vec(-2.0..2.0f64, 5), 1..3),
        costs in prop::collection::vec(0.0..2.0f64, 5),
    ) {
        let mut m = Model::new(Sense::Minimize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("x{i}"), 0.0, 10.0, costs[i]))
            .collect();
        for coefs in &coef_rows {
            let rhs: f64 = (0..n).map(|i| coefs[i] * seed_vals[i]).sum();
            let terms: Vec<_> = (0..n).map(|i| (vars[i], coefs[i])).collect();
            m.add_eq(terms, rhs);
        }
        let sol = m.solve();
        prop_assert!(sol.is_ok(), "seeded equality model failed: {:?}", sol.err());
        let sol = sol.unwrap();
        prop_assert!(m.is_feasible(sol.values(), 1e-4));
        prop_assert!(certified(&sol), "{:?}", sol.certificate());
    }

    /// The product-form simplex agrees with the dense-inverse reference on
    /// random sparse feasible LPs with mixed row kinds and redundant
    /// equalities: same status, same objective to 1e-6 relative.
    #[test]
    fn eta_simplex_matches_dense_reference(lp in arb_sparse_lp()) {
        let m = build_sparse_model(&lp);
        match (m.solve(), sb_lp::reference::solve(&m)) {
            (Ok(eta), Ok(dense)) => {
                prop_assert!(
                    (eta.objective() - dense.objective()).abs()
                        <= 1e-6 * dense.objective().abs().max(1.0),
                    "eta {} vs dense {}", eta.objective(), dense.objective()
                );
                prop_assert_eq!(eta.status(), dense.status());
                prop_assert!(certified(&eta), "{:?}", eta.certificate());
                prop_assert!(m.is_feasible(eta.values(), TOL));
            }
            (eta, dense) => prop_assert!(
                false,
                "a feasible bounded model did not solve on both sides: eta {:?}, dense {:?}",
                eta.map(|s| s.objective()),
                dense.map(|s| s.objective())
            ),
        }
    }
}
