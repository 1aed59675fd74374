//! The interpreted reference forwarder (feature `reference`).
//!
//! A [`ReferenceForwarder`] keeps its rules in a
//! `HashMap<LabelPair, EpochRules>`, the store the compiled FIB replaced
//! (DESIGN.md §14), and resolves labeled packets against it: per packet by
//! a sequential loop, per batch by an interpreted loop with a one-entry
//! rule cache. It has two jobs only:
//!
//! - **oracle**: the FIB-equivalence property tests replay one script on a
//!   [`Forwarder`] and on a [`ReferenceForwarder`] and require identical
//!   next hops, errors, counters, flow tables, header work and telemetry;
//! - **baseline**: `bench-dataplane`'s mixed-label rows and its
//!   `--check-mixed` gate measure the compiled path against
//!   [`measure_isolated_with_hub`].
//!
//! Shipped crates never enable the feature. A [`ReferenceForwarder`] wraps
//! a [`Forwarder`] for everything the two paths share — flow table,
//! counters, telemetry, header work, label-unaware registrations, bridge
//! mode — and applies every rule mutation to both its own map and the
//! wrapped forwarder, so FIB generations and their telemetry match the
//! compiled forwarder's too. Only labeled-packet rule resolution reads the
//! map.

use crate::artifact::{ArtifactKind, ForwarderArtifact};
use crate::fib::EpochRules;
use crate::flow_table::{FlowContext, FlowTable, FlowTableKey};
use crate::forwarder::{
    affinity_pin, finish_output, no_rule_error, Forwarder, ForwarderMode, ForwarderStats, RuleSet,
    BATCH_CHUNK,
};
use crate::packet::{Addr, Packet};
use crate::runner::{self, Driven, ScaleoutConfig, ScaleoutResult};
use sb_telemetry::Telemetry;
use sb_types::{Error, FlowKey, InstanceId, LabelPair, Result};
use std::collections::HashMap;

impl EpochRules {
    fn active(&self) -> Option<&RuleSet> {
        self.sets.last().map(|(_, r)| r)
    }

    fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// A forwarder whose labeled packets resolve rules through the interpreted
/// `HashMap` rule store (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct ReferenceForwarder {
    fwd: Forwarder,
    rules: HashMap<LabelPair, EpochRules>,
}

impl ReferenceForwarder {
    /// Wraps `fwd`, seeding the rule map from its FIB (every epoch, with
    /// its payload).
    #[must_use]
    pub fn from_forwarder(fwd: Forwarder) -> Self {
        let fib = fwd.fib();
        let rules = fib
            .rows()
            .iter()
            .filter_map(|row| Some((row.labels, fib.epoch_rules(row.labels)?)))
            .collect();
        Self { fwd, rules }
    }

    /// The wrapped forwarder: counters, flow table, FIB generations.
    #[must_use]
    pub fn forwarder(&self) -> &Forwarder {
        &self.fwd
    }

    /// See [`Forwarder::attach_telemetry`].
    pub fn attach_telemetry(&mut self, hub: &Telemetry, sample_every: u64) {
        self.fwd.attach_telemetry(hub, sample_every);
    }

    /// See [`Forwarder::install_rules_epoch`].
    pub fn install_rules_epoch(&mut self, labels: LabelPair, rules: RuleSet, epoch: u64) {
        self.rules
            .entry(labels)
            .or_default()
            .install(epoch, rules.clone());
        self.fwd.install_rules_epoch(labels, rules, epoch);
    }

    /// See [`Forwarder::retire_epoch`].
    pub fn retire_epoch(&mut self, labels: LabelPair, epoch: u64) -> bool {
        self.fwd.retire_epoch(labels, epoch);
        let Some(entry) = self.rules.get_mut(&labels) else {
            return false;
        };
        let retired = entry.retire(epoch);
        if entry.is_empty() {
            self.rules.remove(&labels);
        }
        retired
    }

    /// See [`Forwarder::remove_rules`].
    pub fn remove_rules(&mut self, labels: LabelPair) -> Option<RuleSet> {
        self.fwd.remove_rules(labels);
        self.rules
            .remove(&labels)
            .and_then(|mut e| e.sets.pop().map(|(_, r)| r))
    }

    /// See [`Forwarder::register_label_unaware_vnf`].
    pub fn register_label_unaware_vnf(&mut self, instance: InstanceId, labels: LabelPair) {
        self.fwd.register_label_unaware_vnf(instance, labels);
    }

    /// See [`Forwarder::fail_vnf_instance`].
    pub fn fail_vnf_instance(&mut self, instance: InstanceId) -> usize {
        let dead = Addr::Vnf(instance);
        for epochs in self.rules.values_mut() {
            for (_, rules) in &mut epochs.sets {
                if let Ok(pruned) = rules.to_vnf.without(dead) {
                    rules.to_vnf = pruned;
                }
            }
        }
        self.fwd.fail_vnf_instance(instance)
    }

    /// See [`Forwarder::export_artifact`].
    #[must_use]
    pub fn export_artifact(&self) -> ForwarderArtifact {
        self.fwd.export_artifact()
    }

    /// See [`Forwarder::apply_artifact`].
    pub fn apply_artifact(&mut self, art: &ForwarderArtifact, kind: ArtifactKind) {
        match kind {
            ArtifactKind::Full => {
                self.rules.clear();
                for row in &art.rows {
                    let entry = self.rules.entry(row.labels).or_default();
                    for &ep in &row.epochs {
                        entry.install(ep, row.rules.clone());
                    }
                }
            }
            ArtifactKind::Patch => {
                for labels in &art.removed {
                    self.rules.remove(labels);
                }
                for row in &art.rows {
                    let entry = self.rules.entry(row.labels).or_default();
                    entry.sets.retain(|(ep, _)| row.epochs.contains(ep));
                    for &ep in &row.epochs {
                        entry.install(ep, row.rules.clone());
                    }
                }
            }
        }
        self.fwd.apply_artifact(art, kind);
    }

    /// Processes one packet with the sequential interpreted loop.
    ///
    /// # Errors
    ///
    /// As [`Forwarder::process`].
    pub fn process(&mut self, pkt: Packet, from: Addr) -> Result<(Packet, Addr)> {
        let ordinal = self.fwd.stats.rx;
        self.fwd.stats.rx += 1;
        let result = self.process_inner(pkt, from);
        match result {
            Ok(_) => self.fwd.stats.tx += 1,
            Err(_) => self.fwd.stats.drops += 1,
        }
        let (id, mode) = (self.fwd.id, self.fwd.mode);
        if let Some(t) = &mut self.fwd.telemetry {
            t.sample(id, mode, ordinal, result.as_ref().map(|(_, addr)| *addr));
        }
        self.fwd.sync_telemetry();
        result
    }

    /// Processes a batch with the interpreted batch loop.
    pub fn process_batch(&mut self, pkts: &mut [Packet], from: Addr) -> Vec<Result<Addr>> {
        let mut out = Vec::new();
        self.process_batch_into(pkts, from, &mut out);
        out
    }

    /// [`Self::process_batch`] into a caller-provided buffer (cleared
    /// first).
    pub fn process_batch_into(
        &mut self,
        pkts: &mut [Packet],
        from: Addr,
        out: &mut Vec<Result<Addr>>,
    ) {
        out.clear();
        out.reserve(pkts.len());
        for chunk in pkts.chunks_mut(BATCH_CHUNK) {
            if self.fwd.mode == ForwarderMode::Bridge {
                self.fwd.bridge_chunk::<BATCH_CHUNK>(chunk, out);
            } else {
                self.labeled_chunk_interpreted(chunk, from, out);
            }
        }
        self.fwd.sync_telemetry();
    }

    /// The interpreted batch path: parse + hash every packet once, run
    /// interleaved header work for the labeled ones, then resolve next hops
    /// in arrival order against the rule map, with a one-entry rule cache
    /// that pays off only when a whole batch shares one label pair.
    fn labeled_chunk_interpreted(
        &mut self,
        chunk: &mut [Packet],
        from: Addr,
        out: &mut Vec<Result<Addr>>,
    ) {
        let fwd = &mut self.fwd;
        let rx_before = fwd.stats.rx;
        fwd.stats.rx += chunk.len() as u64;
        let mut hashes = [0u64; BATCH_CHUNK];
        let mut seeds = [0u64; BATCH_CHUNK];
        let mut n_seeds = 0usize;
        for (i, pkt) in chunk.iter_mut().enumerate() {
            if pkt.tunnel.is_some() {
                *pkt = pkt.decapsulated();
            }
            if pkt.labels.is_none() {
                if let Addr::Vnf(inst) = from {
                    if let Some(&l) = fwd.vnf_labels.get(&inst) {
                        *pkt = pkt.with_labels(l);
                    }
                }
            }
            let h = pkt.key.stable_hash();
            hashes[i] = h;
            // Label-less packets are dropped before header work (matching
            // `process`), so they contribute no seed.
            if pkt.labels.is_some() {
                seeds[n_seeds] = h ^ u64::from(pkt.size);
                n_seeds += 1;
            }
        }
        fwd.io_work_batch(&seeds[..n_seeds], Forwarder::work_rounds(fwd.mode));

        let context = match from {
            Addr::Vnf(_) => FlowContext::FromVnf,
            Addr::Forwarder(_) | Addr::Edge(_) => FlowContext::FromWire,
        };
        let id = fwd.id;
        let mode = fwd.mode;
        let overlay = mode == ForwarderMode::Overlay;
        let rules = &self.rules;
        let Forwarder {
            ref mut flow_table,
            ref mut stats,
            ref vnf_labels,
            ref mut telemetry,
            site,
            ..
        } = *fwd;
        // One-entry rule cache: packets of a batch overwhelmingly share one
        // label pair, so the HashMap lookup happens once per batch, not once
        // per packet.
        let mut cached: Option<(LabelPair, &RuleSet)> = None;
        for (i, pkt) in chunk.iter_mut().enumerate() {
            let res: Result<Addr> = match pkt.labels {
                None => {
                    stats.drops += 1;
                    Err(Error::forwarding("packet has no labels"))
                }
                Some(labels) => {
                    let hash = hashes[i];
                    let res = if overlay {
                        stats.flow_misses += 1;
                        let rule = match cached {
                            Some((l, r)) if l == labels => Ok(r),
                            _ => match rules_for_in(rules, labels) {
                                Ok(r) => {
                                    cached = Some((labels, r));
                                    Ok(r)
                                }
                                Err(e) => Err(e),
                            },
                        };
                        rule.map(|r| match context {
                            FlowContext::FromWire => r.to_vnf.select(hash),
                            FlowContext::FromVnf => r.to_next.select(hash),
                        })
                    } else {
                        affinity_next_in(
                            flow_table, stats, rules, pkt.key, hash, labels, context, from,
                        )
                    };
                    match res {
                        Ok(next) => {
                            finish_output(vnf_labels, site, pkt, labels, next);
                            stats.tx += 1;
                            Ok(next)
                        }
                        Err(e) => {
                            stats.drops += 1;
                            Err(e)
                        }
                    }
                }
            };
            if let Some(t) = telemetry.as_mut() {
                t.sample(id, mode, rx_before + i as u64, res.as_ref().copied());
            }
            out.push(res);
        }
    }

    fn process_inner(&mut self, mut pkt: Packet, from: Addr) -> Result<(Packet, Addr)> {
        let fwd = &mut self.fwd;
        // Decapsulate wide-area tunnel, if any (all modes parse headers).
        if pkt.tunnel.is_some() {
            pkt = pkt.decapsulated();
        }

        if fwd.mode == ForwarderMode::Bridge {
            let hash = pkt.key.stable_hash();
            fwd.io_work_batch(&[hash ^ u64::from(pkt.size)], Forwarder::BASE_WORK_ROUNDS);
            let next = fwd
                .bridge_next
                .ok_or_else(|| Error::forwarding("bridge has no next hop configured"))?;
            return Ok((pkt, next));
        }

        // Re-affix labels for packets returning from label-unaware VNFs.
        if pkt.labels.is_none() {
            if let Addr::Vnf(inst) = from {
                if let Some(&labels) = fwd.vnf_labels.get(&inst) {
                    pkt = pkt.with_labels(labels);
                }
            }
        }
        let labels = pkt
            .labels
            .ok_or_else(|| Error::forwarding("packet has no labels"))?;

        // The flow hash is computed exactly once per packet and threaded
        // through header work, flow-table lookup, and weighted selection.
        let hash = pkt.key.stable_hash();

        // Base forwarding plus label + tunnel processing cost; the
        // affinity pipeline adds its learn/resubmit stage on top.
        fwd.io_work_batch(
            &[hash ^ u64::from(pkt.size)],
            Forwarder::work_rounds(fwd.mode),
        );

        let context = match from {
            Addr::Vnf(_) => FlowContext::FromVnf,
            Addr::Forwarder(_) | Addr::Edge(_) => FlowContext::FromWire,
        };

        let next = match fwd.mode {
            ForwarderMode::Bridge => unreachable!("handled above"),
            ForwarderMode::Overlay => {
                // Stateless weighted selection per packet.
                fwd.stats.flow_misses += 1;
                let rules = rules_for_in(&self.rules, labels)?;
                match context {
                    FlowContext::FromWire => rules.to_vnf.select(hash),
                    FlowContext::FromVnf => rules.to_next.select(hash),
                }
            }
            ForwarderMode::Affinity => affinity_next_in(
                &mut fwd.flow_table,
                &mut fwd.stats,
                &self.rules,
                pkt.key,
                hash,
                labels,
                context,
                from,
            )?,
        };

        finish_output(&fwd.vnf_labels, fwd.site, &mut pkt, labels, next);
        Ok((pkt, next))
    }
}

impl Driven for ReferenceForwarder {
    fn process_one(&mut self, pkt: Packet, from: Addr) {
        let _ = self.process(pkt, from);
    }

    fn process_batch_into(&mut self, pkts: &mut [Packet], from: Addr, out: &mut Vec<Result<Addr>>) {
        ReferenceForwarder::process_batch_into(self, pkts, from, out);
    }

    fn attach_telemetry(&mut self, hub: &Telemetry, sample_every: u64) {
        ReferenceForwarder::attach_telemetry(self, hub, sample_every);
    }

    fn flow_entries(&self) -> usize {
        self.fwd.flow_entries()
    }
}

/// [`runner::measure_isolated_with_hub`] with every forwarder replaced by
/// its [`ReferenceForwarder`]: the interpreted baseline of the
/// mixed-label bench rows.
///
/// # Panics
///
/// Panics if `config.instances` is zero.
#[must_use]
pub fn measure_isolated_with_hub(
    config: &ScaleoutConfig,
    hub: Option<&Telemetry>,
) -> ScaleoutResult {
    runner::measure_isolated_as(config, hub, ReferenceForwarder::from_forwarder)
}

/// Rule lookup over the rule map, resolving to the label pair's *active*
/// epoch (see [`lookup_rules_in`]).
fn rules_for_in(rules: &HashMap<LabelPair, EpochRules>, labels: LabelPair) -> Result<&RuleSet> {
    lookup_rules_in(rules, labels).ok_or_else(|| no_rule_error(labels))
}

/// Borrowed-form rule lookup: exact label pair first, then the chain's
/// *canonical* (smallest) label pair — reverse-direction packets carry the
/// opposite egress label but belong to the same chain. Taking the smallest
/// pair (not the rule map's iteration order) makes the fallback
/// deterministic, which the compiled FIB matches bit-for-bit.
fn lookup_rules_in(rules: &HashMap<LabelPair, EpochRules>, labels: LabelPair) -> Option<&RuleSet> {
    if let Some(r) = rules.get(&labels).and_then(EpochRules::active) {
        return Some(r);
    }
    rules
        .iter()
        .filter(|(l, _)| l.chain() == labels.chain())
        .min_by_key(|(l, _)| **l)
        .and_then(|(_, e)| e.active())
}

/// The affinity-mode next hop over the rule map: flow-table hit, or
/// weighted selection plus entry installation on the first packet.
#[allow(clippy::too_many_arguments)]
fn affinity_next_in(
    flow_table: &mut FlowTable,
    stats: &mut ForwarderStats,
    rules: &HashMap<LabelPair, EpochRules>,
    key: FlowKey,
    hash: u64,
    labels: LabelPair,
    context: FlowContext,
    from: Addr,
) -> Result<Addr> {
    let ftk = FlowTableKey {
        chain: labels.chain(),
        key,
        context,
    };
    if let Some(next) = flow_table.get_hashed(&ftk, hash) {
        stats.flow_hits += 1;
        return Ok(next);
    }
    stats.flow_misses += 1;
    let rules = lookup_rules_in(rules, labels).ok_or_else(|| no_rule_error(labels))?;
    affinity_pin(flow_table, rules, ftk, key, hash, context, from)
}
