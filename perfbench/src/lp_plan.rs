//! `lp_plan`: SB-LP planning (§7.3) on fixed tier-1 instances.
//!
//! Each round solves `te::lp::max_throughput` on every instance, then
//! `te::lp::min_latency` at half the load the LP found feasible, and runs
//! `te::dp::route_chains` on the same instance as the comparator. The
//! instances are fixed: simplex time varies about fourfold between tier-1
//! generator seeds of the same size, which would swamp any change in the
//! solver. The seed only permutes the solve order.

use crate::trace::Req;
use crate::util::{median, ratio, Rng, Setups};
use crate::Ctx;
use std::time::{Duration, Instant};
use switchboard::prelude::*;
use switchboard::scenarios::{tier1, Tier1Config};
use switchboard::te::dp::{route_chains, DpConfig};
use switchboard::te::eval::Evaluation;
use switchboard::te::{lp, RoutingSolution};

/// A fixed set of tier-1 planning instances.
#[derive(Debug, Clone, Copy)]
pub struct Instances {
    pub chains: usize,
    pub vnfs: usize,
    pub coverage: f64,
    /// `Tier1Config::seed` of each instance.
    pub seeds: &'static [u64],
    /// Recorded optima per instance: `(max-throughput alpha, aggregate
    /// latency of the min-latency plan)`. Solutions must match them to
    /// 1e-6 relative.
    pub expected: &'static [(f64, f64)],
}

impl Instances {
    pub const FULL: Self = Instances {
        chains: 6,
        vnfs: 6,
        coverage: 0.3,
        seeds: &[2, 5, 7],
        expected: &[
            (9.772136107954144e-1, 4.715039741322064e3),
            (9.701373461132409e-1, 4.524896242309557e3),
            (1.352170191865154e0, 2.822428099374285e3),
        ],
    };
    pub const TINY: Self = Instances {
        chains: 3,
        vnfs: 4,
        coverage: 0.3,
        seeds: &[1],
        expected: &[(7.420337845878267e-1, 6.954271145174565e3)],
    };

    fn build(&self) -> Vec<NetworkModel> {
        self.seeds
            .iter()
            .map(|&seed| {
                tier1(&Tier1Config {
                    num_chains: self.chains,
                    num_vnfs: self.vnfs,
                    coverage: self.coverage,
                    seed,
                    ..Tier1Config::default()
                })
            })
            .collect()
    }
}

/// Whether every chain of `sol` conserves flow and routes all its demand.
fn conserved(sol: &RoutingSolution) -> bool {
    sol.chains
        .iter()
        .all(|c| c.is_conserved(1e-6) && (c.routed - 1.0).abs() <= 1e-6)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1e-12)
}

/// One instance's outcome in one round.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    alpha: f64,
    latency: f64,
    dp_scale: f64,
    checks_ok: bool,
}

fn solve(
    model: &NetworkModel,
    tracer: &mut crate::trace::Tracer,
    lp_s: &mut [f64; 2],
    dp_s: &mut f64,
) -> Result<Outcome, String> {
    let t = Instant::now();
    let (thr, alpha) = tracer
        .span("te.lp.max_throughput", || lp::max_throughput(model))
        .map_err(|e| format!("max_throughput: {e}"))?;
    lp_s[0] += t.elapsed().as_secs_f64();
    let planned = model.with_scaled_traffic(0.5 / alpha);
    let t = Instant::now();
    let lat = tracer
        .span("te.lp.min_latency", || lp::min_latency(&planned))
        .map_err(|e| format!("min_latency: {e}"))?;
    lp_s[1] += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dp = tracer.span("te.dp.route_chains", || {
        route_chains(model, &DpConfig::default())
    });
    *dp_s += t.elapsed().as_secs_f64();

    let thr_eval = Evaluation::of(model, &thr);
    let lat_eval = Evaluation::of(&planned, &lat);
    // The DP's uniform scale: every chain's traffic grows by the same
    // factor, so the least-routed chain bounds it.
    let min_routed = dp.chains.iter().map(|c| c.routed).fold(1.0, f64::min);
    let dp_scale = Evaluation::of(model, &dp).max_uniform_scale(model) * min_routed;
    let checks_ok = alpha.is_finite()
        && alpha > 0.0
        && conserved(&thr)
        && close(thr_eval.max_uniform_scale(model), alpha)
        && conserved(&lat)
        && lat_eval.is_feasible(&planned, 1e-6)
        && alpha >= dp_scale * (1.0 - 1e-9);
    Ok(Outcome {
        alpha,
        latency: lat_eval.aggregate_latency,
        dp_scale,
        checks_ok,
    })
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let inst = ctx.scale.lp;
    let (mut setups, models) = Setups::first(ctx.seconds, || inst.build());
    let seed = ctx.seed;
    let budget = Duration::from_secs_f64(ctx.seconds);
    let crate::Ctx { tracer, report, .. } = ctx;

    // Warm-up round: the first solves in a process pay for first-touch
    // allocations. Its optima are the reference every timed round repeats.
    let mut first = Vec::with_capacity(models.len());
    for m in &models {
        let out = solve(m, tracer, &mut [0.0; 2], &mut 0.0)?;
        report.op(out.checks_ok);
        first.push(out);
    }

    let mut rng = Rng::new(seed, 0x1b);
    let mut round_lp_us = Vec::new();
    let (mut max_thr_s, mut min_lat_s, mut dp_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut mismatched = 0usize;
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut k = 0u64;
    while k == 0 || t0.elapsed() - paused < budget {
        paused += setups.poll();
        tracer.set_active(k % 2 == 1);
        let mut order: Vec<usize> = (0..models.len()).collect();
        rng.shuffle(&mut order);
        let mut lp_s = [0.0; 2];
        let mut dp_s = 0.0;
        let t = Instant::now();
        let root = tracer.begin_root("bench.plan_round", Req::Round(k));
        for &i in &order {
            let out = solve(&models[i], tracer, &mut lp_s, &mut dp_s)?;
            let f = first[i];
            let same = close(out.alpha, f.alpha) && close(out.latency, f.latency);
            report.op(out.checks_ok && same);
            mismatched += usize::from(!same);
        }
        tracer.end(root);
        let round_us = t.elapsed().as_secs_f64() * 1e6;
        if tracer.active() {
            &mut traced
        } else {
            &mut plain
        }
        .push(round_us);
        round_lp_us.push((lp_s[0] + lp_s[1]) * 1e6);
        max_thr_s.push(lp_s[0]);
        min_lat_s.push(lp_s[1]);
        dp_ms.push(dp_s * 1e3);
        k += 1;
    }
    tracer.set_active(false);
    report.set("setup_s", setups.median_s());

    let solves = (2 * models.len()) as f64 * round_lp_us.len() as f64;
    report.set("main_p50_us", median(&round_lp_us));
    report.set("main_p90_us", crate::util::quantile(&round_lp_us, 0.9));
    report.set("main_p99_us", crate::util::quantile(&round_lp_us, 0.99));
    report.set("main_samples", round_lp_us.len() as f64);
    report.set(
        "throughput_per_s",
        solves / (round_lp_us.iter().sum::<f64>() / 1e6),
    );
    report.set("side_p50_us", median(&dp_ms) * 1e3);
    report.set("side_p90_us", crate::util::quantile(&dp_ms, 0.9) * 1e3);
    report.set("side_samples", dp_ms.len() as f64);
    report.set("te.lp.max_throughput.s", median(&max_thr_s));
    report.set("te.lp.min_latency.s", median(&min_lat_s));
    report.set("te.dp.route_chains.ms", median(&dp_ms));
    let outcomes = first;
    report.set(
        "dp_gap",
        outcomes
            .iter()
            .map(|o| 1.0 - ratio(o.dp_scale, o.alpha))
            .sum::<f64>()
            / outcomes.len() as f64,
    );
    report.check(
        "lp: solutions conserve flow, are feasible, bound the DP and repeat every round",
        report.failed == 0,
        format!(
            "{} rounds, {mismatched} outcomes differed from the warm-up round",
            round_lp_us.len()
        ),
    );
    let recorded = outcomes.len() == inst.expected.len()
        && outcomes
            .iter()
            .zip(inst.expected)
            .all(|(o, &(alpha, latency))| close(o.alpha, alpha) && close(o.latency, latency));
    let found: Vec<String> = outcomes
        .iter()
        .map(|o| format!("({:e}, {:e})", o.alpha, o.latency))
        .collect();
    report.check(
        "lp: optima match the recorded values to 1e-6 relative",
        recorded,
        format!("found [{}]", found.join(", ")),
    );
    crate::finish_trace(ctx, &traced, &plain, |_, _| {});
    Ok(())
}
