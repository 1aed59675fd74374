//! Metric definitions and the per-run report.

use std::collections::BTreeMap;

/// One named metric: its unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload has one *main* operation and one *side* operation; README.md
/// maps them to what the user sees.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("main_p90_us", "us", "lower"),
    m("side_p90_us", "us", "lower"),
    m("max_rss_mb", "MiB", "lower"),
];

/// The metric an update step's modeled latency is reported under: the
/// `DeploymentReport` step name reduced to letters, digits, `_`, `.` and
/// `-`, or `cp.virtual_ms.other` for a step not listed in [`PER_LAYER`].
pub fn virtual_step_metric(step: &str) -> &'static str {
    let mut name = String::from("cp.virtual_ms.");
    for word in step.split_whitespace() {
        if !name.ends_with('.') {
            name.push('_');
        }
        name.extend(
            word.chars()
                .filter(|c| c.is_ascii_alphanumeric() || "_.-".contains(*c)),
        );
    }
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .map_or("cp.virtual_ms.other", |d| d.name)
}

/// Per-layer metrics, reported by the traced run. README.md names the
/// end-to-end metric and workload each one should move.
pub const PER_LAYER: &[MetricDef] = &[
    m("facade.send_batch.ns_per_pkt", "ns", "lower"),
    m("facade.hops_per_pkt", "count", "lower"),
    m("forwarder.visits_per_pkt", "count", "lower"),
    m("forwarder.process_batch.ns_per_pkt", "ns", "lower"),
    m("flow_table.hit_ratio", "frac", "higher"),
    m("flow_table.entries", "count", "lower"),
    m("artifact.boot_us", "us", "lower"),
    m("cp.deploy_chain.us_p50", "us", "lower"),
    m("cp.update_chain.us_p50", "us", "lower"),
    m("cp.reroute_chain.us_p50", "us", "lower"),
    m("cp.first_packet.us_p50", "us", "lower"),
    m("cp.participants_2pc_per_update", "count", "lower"),
    m("update_virtual_ms_p50", "ms", "lower"),
    m("cp.virtual_ms.diff_routes_against_target", "ms", "lower"),
    m("cp.virtual_ms.two-phase_commit", "ms", "lower"),
    m(
        "cp.virtual_ms.two-phase_commit_no_load_increases",
        "ms",
        "lower",
    ),
    m("cp.virtual_ms.propagate_route_deltas", "ms", "lower"),
    m(
        "cp.virtual_ms.allocate_instances_and_publish_weights",
        "ms",
        "lower",
    ),
    m("cp.virtual_ms.install_new-epoch_rules", "ms", "lower"),
    m("cp.virtual_ms.shift_load-balancing_weights", "ms", "lower"),
    m("cp.virtual_ms.retire_old_epoch", "ms", "lower"),
    m("cp.virtual_ms.other", "ms", "lower"),
    m("bus.wan_messages_per_update", "count", "lower"),
    m("bus.delivered_per_update", "count", "lower"),
    m("artifact.bytes_per_update", "B", "lower"),
    m("artifact.compile_us_p50", "us", "lower"),
    m("artifact.decode_us_p50", "us", "lower"),
    m("artifact.apply_us_p50", "us", "lower"),
    m("fib.rebuilds_per_update", "count", "lower"),
    m("fib.patches_per_update", "count", "lower"),
    m("cp.2pc.aborts", "count", "lower"),
    m("cp.update.failures", "count", "lower"),
    m("reconcile.enqueue.ns", "ns", "lower"),
    m("reconcile.drain.ms", "ms", "lower"),
    m("reconcile.resolved_per_storm", "count", "lower"),
    m("reconcile.coalesced_per_storm", "count", "higher"),
    m("reconcile.delta_ops_per_storm", "count", "lower"),
    m("reconcile.wan_messages_per_storm", "count", "lower"),
    m("reconcile.failover_resolved", "count", "lower"),
    m("reconcile.cold_deploys_per_s", "1/s", "higher"),
    m("te.cache_hit_ratio", "frac", "higher"),
    m("te.cache_lookups_per_chain", "count", "lower"),
    m("te.route_compute.us_p50", "us", "lower"),
    m("te.lp.max_throughput.s", "s", "lower"),
    m("te.lp.min_latency.s", "s", "lower"),
    m("te.dp.route_chains.ms", "ms", "lower"),
    m("dp_gap", "frac", "lower"),
    m("gen.late_us_p99", "us", "lower"),
    m("self_frac.core.facade", "frac", "lower"),
    m("self_frac.dataplane.forwarder", "frac", "lower"),
    m("self_frac.dataplane.artifact", "frac", "lower"),
    m("self_frac.controller.global", "frac", "lower"),
    m("self_frac.controller.reconcile", "frac", "lower"),
    m("self_frac.te.lp", "frac", "lower"),
    m("self_frac.te.dp", "frac", "lower"),
    m("self_frac.bench", "frac", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
    m("trace.covered_frac", "frac", "higher"),
];

/// Informational values printed by name but in neither result set.
pub const EXTRA: &[MetricDef] = &[
    m("failed_frac", "frac", "lower"),
    m("main_p50_us", "us", "lower"),
    m("throughput_per_s", "1/s", "higher"),
    m("side_p50_us", "us", "lower"),
    m("main_p99_us", "us", "lower"),
    m("main_samples", "count", "higher"),
    m("side_samples", "count", "higher"),
    m("update_rate_per_s", "1/s", "higher"),
    m("trace.spans", "count", "higher"),
];

pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(EXTRA)
        .find(|d| d.name == name)
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl Report {
    /// Records a metric; the name must be one of the defined metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(def_of(name).is_some(), "undefined metric {name}");
        self.values.insert(name, value);
    }

    /// Counts one attempted operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check; a failed check also counts as a failed
    /// operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.op(ok);
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn failed_frac(&self) -> f64 {
        crate::util::ratio(self.failed as f64, self.attempted as f64)
    }
}
