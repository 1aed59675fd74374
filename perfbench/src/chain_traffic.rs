//! `chain_traffic`: the packet path only.
//!
//! Phase 1 drives checked bidirectional bursts through
//! `Switchboard::send_batch` on a tier-1 deployment, closed loop with one
//! caller, chains picked by Zipf(1) popularity. Phase 2 boots the site with
//! the most FIB rows standalone from its encoded artifact and drives its
//! forwarders with labeled packets from the edge, over a flow population
//! larger than the processor's per-core cache.

use crate::report::Report;
use crate::trace::{Req, Tracer};
use crate::traffic::{deploy, ns_per_pkt, pool_key, BurstTotals, Deployment, BURST, PACKET_BYTES};
use crate::util::{median, quantile, ratio, us_since, Rng, Setups, Zipf};
use crate::Ctx;
use std::time::{Duration, Instant};
use switchboard::dataplane::{artifact, Addr, Forwarder, Packet};
use switchboard::prelude::*;

/// Share of the timed phase spent on the facade; the rest drives the
/// standalone site.
const FACADE_SHARE: f64 = 0.7;

/// One site booted standalone from its artifact: the forwarders that carry
/// rows, with their traffic.
pub struct Standalone {
    pub site: SiteId,
    pub edge: Addr,
    pub forwarders: Vec<Forwarder>,
    /// Per forwarder: the label pairs of its rows.
    pub labels: Vec<Vec<LabelPair>>,
    /// Per forwarder: its flows' packets in a seeded order, drawn by
    /// [`Standalone::open_flows`].
    pub packets: Vec<Vec<Packet>>,
    pub boot_us: f64,
}

/// Total FIB rows of a site's latest artifact.
fn artifact_rows(sb: &Switchboard, site: SiteId) -> usize {
    sb.site_artifact(site)
        .map_or(0, |a| a.forwarders.iter().map(|f| f.rows.len()).sum())
}

/// Boots the site with the most FIB rows from `decode(site_artifact_bytes)`
/// and keeps its forwarders that carry rows.
pub fn boot_busiest_site(dep: &Deployment) -> Result<Standalone, String> {
    let sb = &dep.sb;
    let site = sb
        .artifact_sites()
        .into_iter()
        .max_by_key(|&s| (artifact_rows(sb, s), std::cmp::Reverse(s)))
        .ok_or("no site has an artifact")?;
    let bytes = sb
        .site_artifact_bytes(site)
        .ok_or("artifact bytes missing")?;
    let t = Instant::now();
    let art = artifact::decode(bytes).map_err(|e| format!("decode: {e}"))?;
    let forwarders: Vec<Forwarder> = art
        .forwarders
        .iter()
        .map(|fa| Forwarder::from_artifact(art.site, fa))
        .collect();
    let boot_us = us_since(t);

    let (mut loaded, mut labels) = (Vec::new(), Vec::new());
    for (fwd, fa) in forwarders.into_iter().zip(&art.forwarders) {
        if !fa.rows.is_empty() {
            loaded.push(fwd);
            labels.push(fa.rows.iter().map(|r| r.labels).collect());
        }
    }
    if loaded.is_empty() {
        return Err("busiest site has no rows".into());
    }
    Ok(Standalone {
        site,
        edge: dep.edge_addr[&site],
        forwarders: loaded,
        labels,
        packets: Vec::new(),
        boot_us,
    })
}

impl Standalone {
    /// Gives each forwarder `per_forwarder` flows from the shared client
    /// pool, spread over its label pairs, in an order drawn from `seed`.
    pub fn open_flows(&mut self, seed: u64, per_forwarder: usize) {
        let mut rng = Rng::new(seed, 0x5174);
        self.packets = self
            .labels
            .iter()
            .map(|pairs| {
                let mut flows: Vec<Packet> = (0..per_forwarder)
                    .map(|i| {
                        Packet::labeled(pairs[i % pairs.len()], pool_key(&mut rng), PACKET_BYTES)
                    })
                    .collect();
                rng.shuffle(&mut flows);
                flows
            })
            .collect();
    }

    /// Sends the next [`BURST`] packets of forwarder `f`'s flows; returns
    /// the call's wall time (us).
    fn burst(
        &mut self,
        f: usize,
        cursor: &mut [usize],
        tracer: &mut Tracer,
        report: &mut Report,
    ) -> f64 {
        let flows = &self.packets[f];
        let mut batch: Vec<Packet> = (0..BURST.min(flows.len()))
            .map(|i| flows[(cursor[f] + i) % flows.len()])
            .collect();
        cursor[f] = (cursor[f] + batch.len()) % flows.len();
        let fwd = &mut self.forwarders[f];
        let edge = self.edge;
        let t = Instant::now();
        let res = tracer.span("dataplane.forwarder.process_batch", || {
            fwd.process_batch(&mut batch, edge)
        });
        let us = us_since(t);
        for r in &res {
            report.op(r.is_ok());
        }
        us
    }

    fn flow_counters(&self) -> (u64, u64) {
        self.forwarders.iter().fold((0, 0), |(h, m), f| {
            let s = f.stats();
            (h + s.flow_hits, m + s.flow_misses)
        })
    }
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (seed, size, flows) = (ctx.seed, ctx.scale.tier1, ctx.scale.flows_per_forwarder);
    // Set-up is the program's work only: the model, the deploys and the
    // standalone boot. The traffic is drawn afterwards.
    let mut boot_us = Vec::new();
    let (mut setups, (mut dep, site)) = Setups::first(ctx.seconds, || {
        let dep = deploy(size);
        let site = boot_busiest_site(&dep);
        if let Ok(s) = &site {
            boot_us.push(s.boot_us);
        }
        (dep, site)
    });
    let mut site = site?;
    dep.open_connections(seed, size.conns_per_chain);
    site.open_flows(seed, flows);
    let Ctx { tracer, report, .. } = ctx;
    report.set("cp.deploy_chain.us_p50", median(&dep.deploy_us));
    report.check(
        "deploy: every chain deployed",
        dep.deploy_failures == 0,
        format!(
            "{} of {} failed",
            dep.deploy_failures,
            dep.model.chains().len()
        ),
    );

    // Warm-up: every connection once, so flows are pinned before timing.
    // Its hop count is a pure function of the seed.
    let warm = dep.warm_up(tracer, report);
    report.set(
        "facade.hops_per_pkt",
        ratio(warm.hops as f64, warm.delivered as f64),
    );

    let budget = Duration::from_secs_f64(ctx.seconds * FACADE_SHARE);
    let zipf = Zipf::new(dep.chains.len());
    let mut rng = Rng::new(seed, 0x7a11);
    let rx0 = dep.forwarder_rx();
    let mut totals = BurstTotals::default();
    let mut calls_us = Vec::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut k = 0u64;
    while k == 0 || t0.elapsed() - paused < budget {
        paused += setups.poll();
        tracer.set_active(k % 2 == 1);
        let ci = dep.pick_chain(&zipf, &mut rng);
        let t = Instant::now();
        let root = tracer.begin_root("bench.burst", Req::Burst(k));
        calls_us.extend(dep.burst(ci, tracer, report, &mut totals));
        tracer.end(root);
        if tracer.active() {
            &mut traced
        } else {
            &mut plain
        }
        .push(us_since(t));
        k += 1;
    }
    let facade_s = (t0.elapsed() - paused).as_secs_f64();
    let visits = dep.forwarder_rx() - rx0;
    report.set("main_p50_us", median(&calls_us));
    report.set("main_p90_us", quantile(&calls_us, 0.9));
    report.set("main_p99_us", quantile(&calls_us, 0.99));
    report.set("main_samples", calls_us.len() as f64);
    report.set("throughput_per_s", totals.delivered as f64 / facade_s);
    report.set(
        "forwarder.visits_per_pkt",
        ratio(visits as f64, totals.packets as f64),
    );

    // Standalone site: one untraced warm pass over every flow, then timed
    // bursts.
    tracer.set_active(false);
    let mut cursor = vec![0usize; site.forwarders.len()];
    for f in 0..site.forwarders.len() {
        for _ in 0..site.packets[f].len().div_ceil(BURST) {
            site.burst(f, &mut cursor, tracer, report);
        }
    }
    let (h0, m0) = site.flow_counters();
    let budget = Duration::from_secs_f64(ctx.seconds * (1.0 - FACADE_SHARE));
    let mut site_us = Vec::new();
    let t0 = Instant::now();
    let mut paused = Duration::ZERO;
    let mut k = 0usize;
    while k == 0 || t0.elapsed() - paused < budget {
        paused += setups.poll();
        let nf = site.forwarders.len();
        let f = k % nf;
        // Trace whole rotations over the forwarders.
        tracer.set_active((k / nf) % 2 == 1);
        let t = Instant::now();
        let root = tracer.begin_root("bench.site_burst", Req::Burst(k as u64));
        site_us.push(site.burst(f, &mut cursor, tracer, report));
        tracer.end(root);
        if tracer.active() {
            &mut traced
        } else {
            &mut plain
        }
        .push(us_since(t));
        k += 1;
    }
    tracer.set_active(false);
    report.set("setup_s", setups.median_s());
    report.set("artifact.boot_us", median(&boot_us));
    let (h1, m1) = site.flow_counters();
    report.set("side_p50_us", median(&site_us));
    report.set("side_p90_us", quantile(&site_us, 0.9));
    report.set("side_samples", site_us.len() as f64);
    report.set(
        "flow_table.hit_ratio",
        ratio((h1 - h0) as f64, ((h1 - h0) + (m1 - m0)) as f64),
    );
    let entries: usize = site.forwarders.iter().map(Forwarder::flow_entries).sum();
    report.set("flow_table.entries", entries as f64);
    report.check(
        "standalone: site forwards with zero errors",
        site.forwarders.iter().all(|f| f.stats().drops == 0),
        format!(
            "site {} booted with {} forwarders",
            site.site.value(),
            site.forwarders.len()
        ),
    );
    crate::finish_trace(ctx, &traced, &plain, |spans, report| {
        report.set(
            "facade.send_batch.ns_per_pkt",
            ns_per_pkt(spans, "core.facade.send_batch"),
        );
        report.set(
            "forwarder.process_batch.ns_per_pkt",
            ns_per_pkt(spans, "dataplane.forwarder.process_batch"),
        );
    });
    Ok(())
}
