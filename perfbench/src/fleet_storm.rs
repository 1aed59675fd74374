//! `fleet_storm`: fleet-scale reconciliation.
//!
//! A cold batched deploy (`FleetReconciler::new`) of the fleet scenario,
//! then a closed loop of demand storms: each enqueues seeded demand
//! scales, up and down, on 5% of the chains (a quarter of them twice, so
//! the queue coalesces) and drains. Every few storms a contiguous arc of
//! sites fails, the queue drains, the arc heals and it drains again.

use crate::trace::Req;
use crate::util::{median, quantile, ratio, us_since, Rng, Setups};
use crate::Ctx;
use std::time::{Duration, Instant};
use switchboard::controller::{DrainReport, FleetReconciler};
use switchboard::prelude::*;
use switchboard::scenarios::{fleet, FleetConfig};
use switchboard::te::dp::DpConfig;
use switchboard::te::eval::Evaluation;
use switchboard::telemetry::Telemetry;

/// A failure event follows every this many storms.
const FAILOVER_EVERY: u64 = 4;
/// Share of chains whose demand changes in one storm.
const STORM_SHARE: f64 = 0.05;
/// Share of sites in a failed arc.
const ARC_SHARE: f64 = 0.05;
/// Storms over which the per-storm counters are averaged, so that they do
/// not depend on how many storms fit in the run (every run has more).
const STORM_PREFIX: usize = 2 * FAILOVER_EVERY as usize;

/// One storm's updates: `(chain index, priority, demand scale)`.
fn storm_plan(rng: &mut Rng, chains: usize) -> Vec<(usize, u8, f64)> {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let m = ((chains as f64 * STORM_SHARE).ceil() as usize).clamp(1, chains);
    let mut picked: Vec<usize> = (0..chains).collect();
    // Partial Fisher-Yates: the first `m` entries are a uniform sample.
    for i in 0..m {
        let j = i + rng.below(chains - i);
        picked.swap(i, j);
    }
    let mut plan = Vec::with_capacity(m + m / 4);
    for &ci in &picked[..m] {
        let priority = u8::try_from(rng.below(3)).expect("priority below 3");
        plan.push((ci, priority, 0.5 + rng.unit()));
        if rng.below(4) == 0 {
            plan.push((ci, priority, 0.5 + rng.unit()));
        }
    }
    plan
}

/// The model whose demands the reconciler is serving: base demand scaled
/// by the last target enqueued per chain.
fn scaled_model(model: &NetworkModel, scales: &[f64]) -> NetworkModel {
    let chains = model
        .chains()
        .iter()
        .zip(scales)
        .map(|(c, &s)| {
            let mut c = c.clone();
            c.forward.iter_mut().for_each(|r| *r *= s);
            c.reverse.iter_mut().for_each(|r| *r *= s);
            c
        })
        .collect();
    model.with_chains(chains)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    // The fleet itself comes from the generator's default seed, for the
    // same reason as the tier-1 model (see `traffic::deploy`); the
    // benchmark seed drives the storms and the failed arcs.
    let cfg = FleetConfig {
        num_sites: ctx.scale.fleet_sites,
        num_chains: ctx.scale.fleet_chains,
        ..FleetConfig::default()
    };
    let mut cold_s = Vec::new();
    let (mut setups, (model, mut rec)) = Setups::first(ctx.seconds, || {
        let model = fleet(&cfg);
        let t = Instant::now();
        let rec = FleetReconciler::new(model.clone(), DpConfig::default());
        cold_s.push(t.elapsed().as_secs_f64());
        (model, rec)
    });
    let n = model.chains().len();
    let sites = model.sites();
    let Ctx { tracer, report, .. } = ctx;
    let hub = Telemetry::new();
    rec.attach_telemetry(&hub);
    let cache0 = rec.cache_stats();

    let mut rng = Rng::new(ctx.seed, 0x5707);
    let mut scales = vec![1.0; n];
    let mut storm_us = Vec::new();
    let mut drain_ms = Vec::new();
    let mut enqueue_ns = Vec::new();
    let mut storms: Vec<DrainReport> = Vec::new();
    let mut failover_us = Vec::new();
    let mut failovers: Vec<DrainReport> = Vec::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let arc = ((sites.len() as f64 * ARC_SHARE).ceil() as usize).max(1);
    let budget = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut k = 0u64;
    while k < 2 * FAILOVER_EVERY || t0.elapsed() - paused < budget {
        paused += setups.poll();
        tracer.set_active(k % 2 == 1);
        if k > 0 && k.is_multiple_of(FAILOVER_EVERY) {
            // Fail a contiguous arc of sites, drain; heal, drain. Every
            // other failure event is traced.
            tracer.set_active((k / FAILOVER_EVERY) % 2 == 1);
            let start = rng.below(sites.len());
            let failed: Vec<SiteId> = (0..arc).map(|i| sites[(start + i) % sites.len()]).collect();
            for down in [failed.as_slice(), &[]] {
                let t = Instant::now();
                let root = tracer.begin_root("bench.failover", Req::Storm(k));
                tracer.span("controller.reconcile.set_failed_sites", || {
                    rec.set_failed_sites(down, 0)
                });
                let r = tracer.span("controller.reconcile.drain", || rec.drain());
                tracer.end(root);
                let us = us_since(t);
                report.op(true);
                failover_us.push(us);
                failovers.push(r);
            }
        }
        tracer.set_active(k % 2 == 1);
        let plan = storm_plan(&mut rng, n);
        let t = Instant::now();
        let root = tracer.begin_root("bench.storm", Req::Storm(k));
        let ok = tracer.span("controller.reconcile.enqueue", || {
            plan.iter()
                .all(|&(ci, p, s)| rec.enqueue(model.chains()[ci].id, p, s))
        });
        let enq = t.elapsed().as_secs_f64() * 1e9 / plan.len() as f64;
        let td = Instant::now();
        let r = tracer.span("controller.reconcile.drain", || rec.drain());
        drain_ms.push(td.elapsed().as_secs_f64() * 1e3);
        tracer.end(root);
        let us = us_since(t);
        report.op(ok);
        for &(ci, _, s) in &plan {
            scales[ci] = s;
        }
        enqueue_ns.push(enq);
        storm_us.push(us);
        storms.push(r);
        if tracer.active() {
            &mut traced
        } else {
            &mut plain
        }
        .push(us);
        k += 1;
    }
    tracer.set_active(false);
    report.set("setup_s", setups.median_s());
    report.set("reconcile.cold_deploys_per_s", n as f64 / median(&cold_s));

    let storm_s: f64 = storm_us.iter().sum::<f64>() / 1e6;
    let resolved: usize = storms.iter().map(|r| r.resolved_chains).sum();
    report.set("main_p50_us", median(&storm_us));
    report.set("main_p90_us", quantile(&storm_us, 0.9));
    report.set("main_p99_us", quantile(&storm_us, 0.99));
    report.set("main_samples", storm_us.len() as f64);
    report.set("throughput_per_s", resolved as f64 / storm_s);
    report.set("side_p50_us", median(&failover_us));
    report.set("side_p90_us", quantile(&failover_us, 0.9));
    report.set("side_samples", failover_us.len() as f64);
    report.set("reconcile.enqueue.ns", median(&enqueue_ns));
    report.set("reconcile.drain.ms", median(&drain_ms));
    let first = &storms[..STORM_PREFIX];
    let per_storm =
        |f: fn(&DrainReport) -> f64| first.iter().map(f).sum::<f64>() / first.len() as f64;
    report.set(
        "reconcile.resolved_per_storm",
        per_storm(|r| r.resolved_chains as f64),
    );
    report.set(
        "reconcile.coalesced_per_storm",
        per_storm(|r| r.coalesced as f64),
    );
    report.set(
        "reconcile.delta_ops_per_storm",
        per_storm(|r| r.delta_ops as f64),
    );
    report.set(
        "reconcile.wan_messages_per_storm",
        per_storm(|r| r.wan_messages as f64),
    );
    let first_fail = &failovers[..4.min(failovers.len())];
    report.set(
        "reconcile.failover_resolved",
        first_fail
            .iter()
            .map(|r| r.resolved_chains as f64)
            .sum::<f64>()
            / first_fail.len() as f64,
    );
    let cache = rec.cache_stats();
    let (hits, misses) = (
        (cache.hits - cache0.hits) as f64,
        (cache.misses - cache0.misses) as f64,
    );
    let all_resolved = resolved + failovers.iter().map(|r| r.resolved_chains).sum::<usize>();
    report.set("te.cache_hit_ratio", ratio(hits, hits + misses));
    report.set(
        "te.cache_lookups_per_chain",
        ratio(hits + misses, all_resolved as f64),
    );
    report.set(
        "te.route_compute.us_p50",
        hub.registry
            .histogram("cp.route_compute")
            .snapshot()
            .quantile_opt(0.5)
            .unwrap_or(0) as f64
            / 1e3,
    );

    // Output check: the final solution conserves flow for every chain and
    // is feasible for the demands the storms set (all sites healed).
    let sol = rec.solution();
    let now = scaled_model(&model, &scales);
    let unconserved = sol.chains.iter().filter(|c| !c.is_conserved(1e-6)).count();
    let feasible = Evaluation::of(&now, &sol).is_feasible(&now, 1e-6);
    report.check(
        "fleet: final solution conserves flow and is feasible",
        unconserved == 0 && feasible && rec.failed_sites().is_empty(),
        format!(
            "{unconserved} of {n} chains unconserved, feasible={feasible}, routed share {:.4}",
            sol.routed_share(&now)
        ),
    );
    crate::finish_trace(ctx, &traced, &plain, |_, _| {});
    Ok(())
}
