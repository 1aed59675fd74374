//! The tier-1 deployment shared by `chain_traffic` and `reroute_churn`,
//! and the checked bidirectional bursts both of them send through it.

use crate::report::Report;
use crate::trace::{Spans, Tracer};
use crate::util::{Rng, Zipf};
use std::collections::HashMap;
use std::time::Instant;
use switchboard::dataplane::{Addr, Packet};
use switchboard::prelude::*;
use switchboard::scenarios::{tier1, Tier1Config};

/// Every packet is 64 bytes: the software forwarder's per-packet cost does
/// not depend on size (the size only seeds the header-work loop).
pub const PACKET_BYTES: u16 = 64;

/// Connections per burst; each gets one forward packet and one reply.
pub const BURST: usize = 32;

/// One deployed chain and the connections its tenant opens.
#[derive(Debug, Clone)]
pub struct Chain {
    pub id: ChainId,
    pub ingress: SiteId,
    pub egress: SiteId,
    pub vnfs: Vec<VnfId>,
    pub conns: Vec<FlowKey>,
    next: usize,
}

/// A tier-1 model with every chain deployed through the facade.
pub struct Deployment {
    pub sb: Switchboard,
    pub model: NetworkModel,
    pub chains: Vec<Chain>,
    /// Chain index by popularity rank (rank 0 is the most popular); set by
    /// [`Deployment::warm_up`].
    pub by_rank: Vec<usize>,
    /// Breaks popularity ties; seeded by [`Deployment::open_connections`].
    rng: Rng,
    pub edge_addr: HashMap<SiteId, Addr>,
    /// Wall time (us) of each `deploy_chain` call.
    pub deploy_us: Vec<f64>,
    /// Chains whose deploy failed.
    pub deploy_failures: usize,
}

/// The tier-1 sizing: chain count and connections per chain.
#[derive(Debug, Clone, Copy)]
pub struct Tier1Size {
    pub chains: usize,
    pub conns_per_chain: usize,
}

/// A shared client pool: private tenant clients in 10.0.0.0/8 with
/// ephemeral ports, talking to a few shared public server endpoints, as
/// enterprise tenants do. Keys are not de-duplicated across chains.
pub fn pool_key(rng: &mut Rng) -> FlowKey {
    const SERVERS: [([u8; 4], u16); 8] = [
        ([203, 0, 113, 10], 443),
        ([203, 0, 113, 10], 80),
        ([203, 0, 113, 20], 443),
        ([203, 0, 113, 30], 443),
        ([198, 51, 100, 5], 443),
        ([198, 51, 100, 5], 8443),
        ([198, 51, 100, 7], 53),
        ([192, 0, 2, 44], 443),
    ];
    let c = rng.next_u64();
    let ip = [10, (c >> 16) as u8, (c >> 8) as u8, c as u8];
    let port = 1024 + (((c >> 24) & 0xffff) % (65536 - 1024)) as u16;
    let (sip, sport) = SERVERS[rng.below(SERVERS.len())];
    FlowKey::tcp(ip, port, sip, sport)
}

/// Builds the tier-1 model and deploys every chain through
/// [`Switchboard::deploy_chain`] with passthrough VNFs. The chains open no
/// connections yet: [`Deployment::open_connections`] draws them, outside
/// the timed set-up.
///
/// The model itself (VNF placement, chain endpoints) comes from the
/// generator's default seed: placement decides hop counts and forwarder
/// grouping, and with a seeded model the packet rate of five seeds spread
/// 13% (quartile distance over median), more than a regression worth
/// catching. The benchmark seed drives the traffic instead.
pub fn deploy(size: Tier1Size) -> Deployment {
    let cfg = Tier1Config {
        num_chains: size.chains,
        // Light load: every chain places, and any single chain can move to
        // any of its VNFs' sites without a capacity veto.
        total_traffic: 0.125 * size.chains as f64,
        ..Tier1Config::default()
    };
    let model = tier1(&cfg);
    let mut sb = Switchboard::new(
        model.clone(),
        DelayModel::uniform(Millis::new(0.1), Millis::new(40.0)),
        SwitchboardConfig::default(),
    );
    sb.use_passthrough_behaviors();
    let node_site: HashMap<NodeId, SiteId> = model
        .sites()
        .into_iter()
        .map(|s| (model.site_node(s), s))
        .collect();
    let mut edge_addr = HashMap::new();
    for s in model.sites() {
        sb.register_attachment(format!("site{}", s.value()), s);
        let addr = sb
            .control_plane()
            .edge()
            .instance_at(s)
            .expect("attachment registers an edge instance")
            .addr();
        edge_addr.insert(s, addr);
    }
    let mut chains = Vec::with_capacity(model.chains().len());
    let mut deploy_us = Vec::with_capacity(model.chains().len());
    let mut deploy_failures = 0;
    for spec in model.chains() {
        let ingress = node_site[&spec.ingress];
        let egress = node_site[&spec.egress];
        let forward = spec.forward[0];
        let t = Instant::now();
        let res = sb.deploy_chain(ChainRequest {
            id: spec.id,
            ingress_attachment: format!("site{}", ingress.value()),
            egress_attachment: format!("site{}", egress.value()),
            vnfs: spec.vnfs.clone(),
            forward,
            reverse: forward * 0.25,
        });
        deploy_us.push(crate::util::us_since(t));
        if res.is_err() {
            deploy_failures += 1;
            continue;
        }
        chains.push(Chain {
            id: spec.id,
            ingress,
            egress,
            vnfs: spec.vnfs.clone(),
            conns: Vec::new(),
            next: 0,
        });
    }
    let by_rank = (0..chains.len()).collect();
    Deployment {
        sb,
        model,
        chains,
        by_rank,
        rng: Rng::new(0, 0),
        edge_addr,
        deploy_us,
        deploy_failures,
    }
}

/// Traced time per packet (ns) of the `span` calls, each carrying one
/// burst of [`BURST`] packets.
pub fn ns_per_pkt(spans: &Spans, span: &str) -> f64 {
    let d = spans.durations_ns(span);
    crate::util::ratio(d.iter().sum::<f64>(), (d.len() * BURST) as f64)
}

/// Totals of checked bursts.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurstTotals {
    pub packets: u64,
    pub delivered: u64,
    pub hops: u64,
}

/// The van der Corput sequence in base 2: `k`'s bits mirrored after the
/// binary point.
fn van_der_corput(k: usize) -> f64 {
    (k as u64).reverse_bits() as f64 / 2f64.powi(64)
}

impl Deployment {
    /// Gives every chain `per_chain` connections drawn from the shared
    /// client pool; `seed` draws them and breaks popularity ties.
    pub fn open_connections(&mut self, seed: u64, per_chain: usize) {
        let mut rng = Rng::new(seed, 0xc0_77);
        for chain in &mut self.chains {
            chain.conns = (0..per_chain).map(|_| pool_key(&mut rng)).collect();
        }
        self.rng = rng;
    }

    /// Sends every connection of every chain once, so that flows are
    /// pinned before timing, and assigns popularity ranks. Ranks are a
    /// stratified sample over the chains ordered by hops per packet: rank
    /// `r` takes the chain at quantile `van_der_corput(r + 1)` (the median
    /// chain first, then the quartiles, ...), ties broken by the seed. The
    /// popular chains are then as long as the deployment's chains are in
    /// general, instead of the two or three chains Zipf(1) favours deciding
    /// the packet rate of a seed. Returns the warm-up totals, a pure
    /// function of the seed.
    pub fn warm_up(&mut self, tracer: &mut Tracer, report: &mut Report) -> BurstTotals {
        let mut warm = BurstTotals::default();
        let mut hops = Vec::with_capacity(self.chains.len());
        for ci in 0..self.chains.len() {
            let before = warm;
            for _ in 0..self.chains[ci].conns.len().div_ceil(BURST) {
                self.burst(ci, tracer, report, &mut warm);
            }
            hops.push(crate::util::ratio(
                (warm.hops - before.hops) as f64,
                (warm.delivered - before.delivered) as f64,
            ));
        }
        let mut by_hops: Vec<usize> = (0..self.chains.len()).collect();
        self.rng.shuffle(&mut by_hops);
        by_hops.sort_by(|&a, &b| hops[a].total_cmp(&hops[b]));
        let mut rank_order: Vec<usize> = (0..self.chains.len()).collect();
        rank_order.sort_by(|&a, &b| van_der_corput(a + 1).total_cmp(&van_der_corput(b + 1)));
        for (i, &rank) in rank_order.iter().enumerate() {
            self.by_rank[rank] = by_hops[i];
        }
        warm
    }

    /// The chain the next burst goes to: Zipf(1) popularity over chains.
    pub fn pick_chain(&self, zipf: &Zipf, rng: &mut Rng) -> usize {
        self.by_rank[zipf.sample(rng)]
    }

    /// Sends one burst on chain `ci`: the next [`BURST`] connections'
    /// forward packets at the ingress, then their replies at the egress.
    /// Checks that each forward packet crosses the chain's VNF count and
    /// leaves at the egress edge, and that each reply retraces the forward
    /// VNF instances in reverse and leaves at the ingress edge. Returns the
    /// wall time (us) of the two `send_batch` calls.
    pub fn burst(
        &mut self,
        ci: usize,
        tracer: &mut Tracer,
        report: &mut Report,
        totals: &mut BurstTotals,
    ) -> [f64; 2] {
        let chain = &mut self.chains[ci];
        let n = chain.conns.len();
        let keys: Vec<FlowKey> = (0..BURST.min(n))
            .map(|i| chain.conns[(chain.next + i) % n])
            .collect();
        chain.next = (chain.next + keys.len()) % n;
        let (id, ingress, egress, stages) =
            (chain.id, chain.ingress, chain.egress, chain.vnfs.len());
        let fwd: Vec<Packet> = keys
            .iter()
            .map(|&k| Packet::unlabeled(k, PACKET_BYTES))
            .collect();
        let rev: Vec<Packet> = keys
            .iter()
            .map(|&k| Packet::unlabeled(k.reversed(), PACKET_BYTES))
            .collect();

        let sb = &mut self.sb;
        let t = Instant::now();
        let out = tracer.span("core.facade.send_batch", || {
            sb.send_batch(id, ingress, &fwd)
        });
        let fwd_us = crate::util::us_since(t);
        let t = Instant::now();
        let back = tracer.span("core.facade.send_batch", || sb.send_batch(id, egress, &rev));
        let rev_us = crate::util::us_since(t);

        let egress_edge = self.edge_addr[&egress];
        let ingress_edge = self.edge_addr[&ingress];
        for (f, r) in out.iter().zip(&back) {
            totals.packets += 2;
            let fwd_vnfs = match f {
                Ok(t)
                    if t.delivered
                        && t.hops.last() == Some(&egress_edge)
                        && t.vnf_instances().len() == stages =>
                {
                    totals.delivered += 1;
                    totals.hops += t.hops.len() as u64;
                    report.op(true);
                    Some(t.vnf_instances())
                }
                _ => {
                    report.op(false);
                    None
                }
            };
            let reply_ok = match (r, fwd_vnfs) {
                (Ok(t), Some(mut fv)) if t.delivered && t.hops.last() == Some(&ingress_edge) => {
                    fv.reverse();
                    totals.hops += t.hops.len() as u64;
                    t.vnf_instances() == fv
                }
                _ => false,
            };
            if reply_ok {
                totals.delivered += 1;
            }
            report.op(reply_ok);
        }
        [fwd_us, rev_us]
    }

    /// Sum of `rx` over every in-process forwarder.
    pub fn forwarder_rx(&self) -> u64 {
        let cp = self.sb.control_plane();
        cp.sites()
            .into_iter()
            .filter_map(|s| cp.local(s))
            .flat_map(|l| {
                l.forwarder_ids()
                    .into_iter()
                    .filter_map(|f| l.forwarder(f).map(|fw| fw.stats().rx))
                    .collect::<Vec<_>>()
            })
            .sum()
    }
}
