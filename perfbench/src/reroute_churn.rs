//! `reroute_churn`: the update path, under open-loop route updates.
//!
//! The tier-1 deployment of `chain_traffic` takes route updates at a fixed
//! rate. Updates alternate *perturb* (`update_chain` to a seeded
//! alternative site sequence) and *restore* (`reroute_chain`, which warm
//! re-solves the chain back). `reroute_chain` alone on unchanged load
//! yields an empty delta, hence the perturbation. Background bursts fill
//! the gaps between updates. After each update one new connection's first
//! packet must cross the new route's sites, and every site artifact the
//! update published is decoded and applied, in order, to a standalone
//! replica of that site.

use crate::report::virtual_step_metric;
use crate::trace::{Req, Tracer};
use crate::traffic::{deploy, BurstTotals, Deployment, PACKET_BYTES};
use crate::util::{median, quantile, ratio, us_since, Rng, Setups, Zipf};
use crate::Ctx;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};
use switchboard::dataplane::{artifact, Addr, Forwarder, Packet};
use switchboard::prelude::*;
use switchboard::telemetry::Telemetry;

/// Open-loop route updates per second: about a quarter of what the
/// control plane sustains on the sizing host (2-core Xeon), where one
/// update costs 1.1-1.3 ms of `update_chain`/`reroute_chain`.
const UPDATE_RATE: f64 = 180.0;

/// Standalone replicas of every site, fed only with published artifacts.
struct Replicas {
    sites: BTreeMap<SiteId, Vec<Forwarder>>,
    /// The artifact bytes last applied per site.
    applied: HashMap<SiteId, Vec<u8>>,
    decode_us: Vec<f64>,
    apply_us: Vec<f64>,
}

impl Replicas {
    fn boot(sb: &Switchboard) -> Result<Self, String> {
        let mut sites = BTreeMap::new();
        let mut applied = HashMap::new();
        for site in sb.artifact_sites() {
            let bytes = sb
                .site_artifact_bytes(site)
                .ok_or("artifact bytes missing")?;
            let art = artifact::decode(bytes).map_err(|e| format!("decode: {e}"))?;
            let fwds = art
                .forwarders
                .iter()
                .map(|fa| Forwarder::from_artifact(site, fa))
                .collect();
            sites.insert(site, fwds);
            applied.insert(site, bytes.to_vec());
        }
        Ok(Replicas {
            sites,
            applied,
            decode_us: Vec::new(),
            apply_us: Vec::new(),
        })
    }

    /// Decodes and applies every artifact of `candidates` that changed
    /// since it was last applied. A forwarder the replica has not seen
    /// boots empty and takes the artifact as is.
    fn replay(
        &mut self,
        sb: &Switchboard,
        candidates: &BTreeSet<SiteId>,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        for &site in candidates {
            let Some(bytes) = sb.site_artifact_bytes(site) else {
                continue;
            };
            if self
                .applied
                .get(&site)
                .is_some_and(|b| b.as_slice() == bytes)
            {
                continue;
            }
            let t = Instant::now();
            let art = tracer
                .span("dataplane.artifact.decode", || artifact::decode(bytes))
                .map_err(|e| format!("decode: {e}"))?;
            self.decode_us.push(us_since(t));
            let fwds = self.sites.entry(site).or_default();
            let t = Instant::now();
            tracer.span("dataplane.artifact.apply", || {
                for fa in &art.forwarders {
                    match fwds.iter_mut().find(|f| f.id() == fa.forwarder) {
                        Some(f) => f.apply_artifact(fa, art.kind),
                        None => {
                            let mut f = Forwarder::new(fa.forwarder, site, fa.mode);
                            f.apply_artifact(fa, art.kind);
                            fwds.push(f);
                        }
                    }
                }
            });
            self.apply_us.push(us_since(t));
            self.applied.insert(site, bytes.to_vec());
        }
        Ok(())
    }

    /// Sites whose replica rows differ from the in-process forwarders'
    /// `export_artifact()` rows.
    fn mismatches(&self, sb: &Switchboard) -> Vec<SiteId> {
        let cp = sb.control_plane();
        let mut sites: BTreeSet<SiteId> = self.sites.keys().copied().collect();
        sites.extend(cp.sites());
        sites
            .into_iter()
            .filter(|site| {
                let mut live: BTreeMap<u64, Vec<_>> = BTreeMap::new();
                if let Some(local) = cp.local(*site) {
                    for fid in local.forwarder_ids() {
                        let rows = local
                            .forwarder(fid)
                            .map(|f| f.export_artifact().rows)
                            .unwrap_or_default();
                        if !rows.is_empty() {
                            live.insert(fid.value(), rows);
                        }
                    }
                }
                let mut replica: BTreeMap<u64, Vec<_>> = BTreeMap::new();
                for f in self.sites.get(site).into_iter().flatten() {
                    let rows = f.export_artifact().rows;
                    if !rows.is_empty() {
                        replica.insert(f.id().value(), rows);
                    }
                }
                live != replica
            })
            .collect()
    }
}

/// The sites of a chain's VNF hops, read from the forwarder before each.
fn vnf_sites(sb: &Switchboard, hops: &[Addr]) -> Vec<SiteId> {
    hops.windows(2)
        .filter_map(|w| match (w[0], w[1]) {
            (Addr::Forwarder(f), Addr::Vnf(_)) => sb.control_plane().forwarder_site(f),
            _ => None,
        })
        .collect()
}

/// A seeded site sequence for `chain` drawn from each VNF's sites that
/// differs from `current` in at least one stage, or `None` when every VNF
/// of the chain runs at a single site.
fn perturbation(
    model: &NetworkModel,
    vnfs: &[VnfId],
    current: &[SiteId],
    rng: &mut Rng,
) -> Option<Vec<SiteId>> {
    let options: Vec<Vec<SiteId>> = vnfs
        .iter()
        .map(|&v| model.vnfs()[v.index()].sites())
        .collect();
    let movable: Vec<usize> = (0..vnfs.len()).filter(|&z| options[z].len() > 1).collect();
    if movable.is_empty() {
        return None;
    }
    let mut target: Vec<SiteId> = options.iter().map(|o| o[rng.below(o.len())]).collect();
    if target == current {
        let z = movable[rng.below(movable.len())];
        let others: Vec<SiteId> = options[z]
            .iter()
            .copied()
            .filter(|&s| s != current[z])
            .collect();
        target[z] = others[rng.below(others.len())];
    }
    Some(target)
}

/// One update's measurements.
#[derive(Default)]
struct Updates {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    update_call_us: Vec<f64>,
    reroute_call_us: Vec<f64>,
    first_packet_us: Vec<f64>,
    virtual_ms: Vec<f64>,
    steps_ms: BTreeMap<&'static str, f64>,
    participants: usize,
    failures: usize,
    /// The first few failures, for the check's detail.
    reasons: Vec<String>,
}

impl Updates {
    fn fail(&mut self, reason: String) {
        self.failures += 1;
        if self.reasons.len() < 3 {
            self.reasons.push(reason);
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (seed, size) = (ctx.seed, ctx.scale.tier1);
    let seconds = ctx.seconds;
    let (mut setups, (mut dep, replicas)) = Setups::first(seconds, || {
        let dep = deploy(size);
        let replicas = Replicas::boot(&dep.sb);
        (dep, replicas)
    });
    let mut replicas = replicas?;
    dep.open_connections(seed, size.conns_per_chain);
    let Ctx { tracer, report, .. } = ctx;
    report.set("cp.deploy_chain.us_p50", median(&dep.deploy_us));
    report.set("update_rate_per_s", UPDATE_RATE);
    report.check(
        "deploy: every chain deployed",
        dep.deploy_failures == 0,
        format!(
            "{} of {} failed",
            dep.deploy_failures,
            dep.model.chains().len()
        ),
    );
    let warm = dep.warm_up(tracer, report);
    report.set(
        "facade.hops_per_pkt",
        ratio(warm.hops as f64, warm.delivered as f64),
    );

    // Counters of the timed phase only: a fresh telemetry hub.
    let hub = Telemetry::new();
    dep.sb.control_plane_mut().attach_telemetry(&hub);
    let fib0 = fib_recompilations(&dep.sb);
    let rx0 = dep.forwarder_rx();

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n_updates = ((UPDATE_RATE * seconds).ceil() as usize).max(2);
    let zipf = Zipf::new(dep.chains.len());
    let mut bg_rng = Rng::new(seed, 0xb6);
    let mut up_rng = Rng::new(seed, 0x0bd);
    let mut u = Updates::default();
    let mut bg = BurstTotals::default();
    let mut bg_calls_us = Vec::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    // Chains with at least one VNF hosted at more than one site.
    let movable: Vec<usize> = (0..dep.chains.len())
        .filter(|&ci| {
            dep.chains[ci]
                .vnfs
                .iter()
                .any(|v| dep.model.vnfs()[v.index()].sites().len() > 1)
        })
        .collect();
    if movable.is_empty() {
        return Err("no chain can move".into());
    }
    let mut chain_of_pair = 0usize;
    let t0 = Instant::now();
    // Set-ups made during the run pause the update schedule.
    let mut paused = Duration::ZERO;
    let (mut j, mut k) = (0usize, 0u64);
    while j < n_updates {
        paused += setups.poll();
        let due = t0 + paused + Duration::from_secs_f64(j as f64 / UPDATE_RATE);
        let now = Instant::now();
        if now < due {
            tracer.set_active(k % 2 == 1);
            let ci = dep.pick_chain(&zipf, &mut bg_rng);
            let root = tracer.begin_root("bench.background_burst", Req::Burst(k));
            bg_calls_us.extend(dep.burst(ci, tracer, report, &mut bg));
            tracer.end(root);
            k += 1;
            continue;
        }
        // Trace whole perturb/restore pairs, so traced and untraced
        // updates do the same work.
        tracer.set_active((j / 2) % 2 == 1);
        u.late_us.push((now - due).as_secs_f64() * 1e6);
        if j % 2 == 0 {
            chain_of_pair = movable[up_rng.below(movable.len())];
        }
        let ok = update(
            &mut dep,
            chain_of_pair,
            j,
            &mut replicas,
            &mut up_rng,
            tracer,
            &mut u,
        )?;
        report.op(ok);
        let total_us = (Instant::now() - due).as_secs_f64() * 1e6;
        if ok {
            u.latency_us.push(total_us);
        }
        if tracer.active() {
            &mut traced
        } else {
            &mut plain
        }
        .push(total_us);
        j += 1;
    }
    tracer.set_active(false);
    let elapsed = (t0.elapsed() - paused).as_secs_f64();
    report.set("setup_s", setups.median_s());

    let n = n_updates as f64;
    report.set("main_p50_us", median(&u.latency_us));
    report.set("main_p90_us", quantile(&u.latency_us, 0.9));
    report.set("main_p99_us", quantile(&u.latency_us, 0.99));
    report.set("main_samples", u.latency_us.len() as f64);
    report.set("throughput_per_s", bg.delivered as f64 / elapsed);
    report.set("side_p50_us", median(&bg_calls_us));
    report.set("side_p90_us", quantile(&bg_calls_us, 0.9));
    report.set("side_samples", bg_calls_us.len() as f64);
    report.set("gen.late_us_p99", quantile(&u.late_us, 0.99));
    report.set("cp.update_chain.us_p50", median(&u.update_call_us));
    report.set("cp.reroute_chain.us_p50", median(&u.reroute_call_us));
    report.set("cp.first_packet.us_p50", median(&u.first_packet_us));
    report.set("update_virtual_ms_p50", median(&u.virtual_ms));
    for (name, ms) in &u.steps_ms {
        report.set(name, ms / n);
    }
    report.set("cp.participants_2pc_per_update", u.participants as f64 / n);
    let reg = &hub.registry;
    report.set(
        "bus.wan_messages_per_update",
        reg.counter("bus.wan_messages").get() as f64 / n,
    );
    report.set(
        "bus.delivered_per_update",
        reg.counter("bus.delivered").get() as f64 / n,
    );
    report.set(
        "artifact.bytes_per_update",
        reg.counter("artifact.bytes").get() as f64 / n,
    );
    report.set(
        "artifact.compile_us_p50",
        reg.histogram("artifact.compile_ns")
            .snapshot()
            .quantile_opt(0.5)
            .unwrap_or(0) as f64
            / 1e3,
    );
    report.set("cp.2pc.aborts", reg.counter("cp.2pc.aborts").get() as f64);
    report.set(
        "cp.update.failures",
        reg.counter("cp.update.failures").get() as f64,
    );
    report.set("artifact.decode_us_p50", median(&replicas.decode_us));
    report.set("artifact.apply_us_p50", median(&replicas.apply_us));
    let fib1 = fib_recompilations(&dep.sb);
    report.set("fib.rebuilds_per_update", (fib1.0 - fib0.0) as f64 / n);
    report.set("fib.patches_per_update", (fib1.1 - fib0.1) as f64 / n);
    let visits = dep.forwarder_rx() - rx0;
    report.set(
        "forwarder.visits_per_pkt",
        ratio(
            visits as f64,
            (bg.packets + u.first_packet_us.len() as u64) as f64,
        ),
    );
    report.check(
        "updates: every update committed and its first packet crossed the new route",
        u.failures == 0,
        format!("{} of {n_updates} failed {:?}", u.failures, u.reasons),
    );
    let bad = replicas.mismatches(&dep.sb);
    report.check(
        "replicas: standalone rows equal the in-process forwarders' rows",
        bad.is_empty(),
        format!(
            "{} sites replayed, mismatched: {:?}",
            replicas.sites.len(),
            bad.iter().map(|s| s.value()).collect::<Vec<_>>()
        ),
    );
    crate::finish_trace(ctx, &traced, &plain, |spans, report| {
        report.set(
            "facade.send_batch.ns_per_pkt",
            crate::traffic::ns_per_pkt(spans, "core.facade.send_batch"),
        );
    });
    Ok(())
}

fn fib_recompilations(sb: &Switchboard) -> (u64, u64) {
    let cp = sb.control_plane();
    let mut total = (0, 0);
    for site in cp.sites() {
        if let Some(local) = cp.local(site) {
            for fid in local.forwarder_ids() {
                if let Some(f) = local.forwarder(fid) {
                    let (r, p) = f.fib_recompilations();
                    total.0 += r;
                    total.1 += p;
                }
            }
        }
    }
    total
}

/// Runs update `j` on chain `ci`: perturb on even `j`, restore on odd.
/// Returns whether it committed and its first packet crossed the new route.
fn update(
    dep: &mut Deployment,
    ci: usize,
    j: usize,
    replicas: &mut Replicas,
    rng: &mut Rng,
    tracer: &mut Tracer,
    u: &mut Updates,
) -> Result<bool, String> {
    let chain = dep.chains[ci].clone();
    // Labeled with its request once the update has assigned the epoch; a
    // failed update keeps epoch 0.
    let root = tracer.begin("bench.update");
    let req = |epoch| Req::Update {
        chain: chain.id.value(),
        epoch,
    };
    let before = dep.sb.routes_of(chain.id);
    let mut candidates: BTreeSet<SiteId> = before
        .iter()
        .flat_map(|r| r.sites.iter().copied())
        .collect();
    let sb = &mut dep.sb;
    let t = Instant::now();
    let res = if j.is_multiple_of(2) {
        let current = before.first().map(|r| r.sites.clone()).unwrap_or_default();
        let Some(target) = perturbation(&dep.model, &chain.vnfs, &current, rng) else {
            tracer.set_req(root, req(0));
            tracer.end(root);
            u.fail(format!("{}: no alternative sites", chain.id));
            return Ok(false);
        };
        let r = tracer.span("controller.global.update_chain", || {
            sb.update_chain(chain.id, vec![(target, 1.0)])
        });
        u.update_call_us.push(us_since(t));
        r
    } else {
        let r = tracer.span("controller.global.reroute_chain", || {
            sb.reroute_chain(chain.id)
        });
        u.reroute_call_us.push(us_since(t));
        r
    };
    let handle = match res {
        Ok(h) => h,
        Err(e) => {
            tracer.set_req(root, req(0));
            tracer.end(root);
            u.fail(format!("update {j} of {}: {e}", chain.id));
            return Ok(false);
        }
    };
    let epoch = handle.routes.iter().map(|r| r.epoch).max().unwrap_or(0);
    tracer.set_req(root, req(epoch));
    u.virtual_ms.push(handle.report.total().value());
    for (step, ms) in &handle.report.steps {
        *u.steps_ms.entry(virtual_step_metric(step)).or_default() += ms.value();
    }
    u.participants += handle.report.participants_2pc;
    candidates.extend(handle.routes.iter().flat_map(|r| r.sites.iter().copied()));
    replicas.replay(&dep.sb, &candidates, tracer)?;

    // A new connection's first packet must take the new route.
    let j32 = u32::try_from(j).expect("update count fits u32");
    let key = FlowKey::tcp(
        [
            172,
            16 | ((j32 >> 16) & 0x0f) as u8,
            (j32 >> 8) as u8,
            j32 as u8,
        ],
        40_000,
        [203, 0, 113, 99],
        443,
    );
    let sb = &mut dep.sb;
    let t = Instant::now();
    let sent = tracer.span("core.facade.send", || {
        sb.send(
            chain.id,
            chain.ingress,
            Packet::unlabeled(key, PACKET_BYTES),
        )
    });
    u.first_packet_us.push(us_since(t));
    tracer.end(root);
    let crossed = match sent {
        Ok(t) if t.delivered => {
            let sites = vnf_sites(&dep.sb, &t.hops);
            let crossed = handle.routes.iter().any(|r| r.sites == sites);
            if !crossed {
                let routes: Vec<_> = handle
                    .routes
                    .iter()
                    .map(|r| (&r.sites, r.fraction))
                    .collect();
                u.fail(format!(
                    "update {j} of {}: first packet crossed {sites:?}, routes {routes:?}",
                    chain.id
                ));
            }
            crossed
        }
        other => {
            u.fail(format!(
                "update {j} of {}: first packet not delivered: {other:?}",
                chain.id
            ));
            false
        }
    };
    Ok(crossed)
}
