//! The Switchboard benchmark: four workloads driven single-process and
//! single-threaded against the public API.
//!
//! ```text
//! perfbench --workload <chain_traffic|reroute_churn|fleet_storm|lp_plan>
//!           --seed <n> --seconds <s> --trace <0|1> --trace-dir <dir>
//! ```
//!
//! Prints every metric by name and unit, the verdict of each output check,
//! and as its last line one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod chain_traffic;
mod fleet_storm;
mod lp_plan;
mod report;
mod reroute_churn;
mod trace;
mod traffic;
mod util;

use report::{Report, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{Spans, Tracer};
use traffic::Tier1Size;

pub const WORKLOADS: [&str; 4] = ["chain_traffic", "reroute_churn", "fleet_storm", "lp_plan"];

/// Input sizes. `full` is what the benchmark measures; `tiny` runs every
/// code path in well under a second for the benchmark's own tests, which
/// call [`run_workload`] directly.
#[derive(Debug, Clone)]
pub struct Scale {
    pub tier1: Tier1Size,
    /// Flows per standalone forwarder in `chain_traffic`: their flow
    /// table outgrows a core's L2 cache.
    pub flows_per_forwarder: usize,
    pub fleet_chains: usize,
    pub fleet_sites: usize,
    pub lp: lp_plan::Instances,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            tier1: Tier1Size {
                chains: 300,
                conns_per_chain: 128,
            },
            flows_per_forwarder: 1 << 15,
            fleet_chains: 2000,
            fleet_sites: 120,
            lp: lp_plan::Instances::FULL,
        }
    }

    pub fn tiny() -> Self {
        Scale {
            tier1: Tier1Size {
                chains: 12,
                conns_per_chain: 32,
            },
            flows_per_forwarder: 256,
            fleet_chains: 120,
            fleet_sites: 24,
            lp: lp_plan::Instances::TINY,
        }
    }
}

/// Everything a workload needs: its inputs' seed and size, the run length,
/// the span recorder and the report it fills.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub tracer: Tracer,
    pub report: Report,
    pub trace_dir: std::path::PathBuf,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Maps a span name to the layer (crate module) it times.
fn layer_of(span: &str) -> &'static str {
    const LAYERS: [&str; 7] = [
        "core.facade",
        "dataplane.forwarder",
        "dataplane.artifact",
        "controller.global",
        "controller.reconcile",
        "te.lp",
        "te.dp",
    ];
    LAYERS
        .iter()
        .find(|l| span.starts_with(*l))
        .copied()
        .unwrap_or("bench")
}

/// Closes a traced run: per-layer self time, coverage, overhead (mean
/// traced over mean untraced operation time, minus one), the workload's
/// own span metrics (`extra`), and the span file.
pub fn finish_trace(
    ctx: &mut Ctx,
    traced_us: &[f64],
    plain_us: &[f64],
    extra: impl FnOnce(&Spans, &mut Report),
) {
    let Ctx {
        tracer,
        report,
        lines,
        ..
    } = ctx;
    if !tracer.enabled() {
        return;
    }
    tracer.set_active(false);
    let spans = tracer.spans();
    let totals = spans.totals();
    let root_ns: f64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("bench."))
        .map(|(_, t)| t.total_ns)
        .sum();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, t) in &totals {
        *by_layer.entry(layer_of(name)).or_default() += t.self_ns;
        lines.push(format!(
            "self_time {name} layer={} calls={} total_ms={:.3} self_ms={:.3}",
            layer_of(name),
            t.calls,
            t.total_ns / 1e6,
            t.self_ns / 1e6
        ));
    }
    for def in PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("self_frac."))
    {
        let layer = &def.name["self_frac.".len()..];
        report.set(
            def.name,
            util::ratio(by_layer.get(layer).copied().unwrap_or(0.0), root_ns),
        );
    }
    report.set("trace.covered_frac", spans.covered_frac());
    report.set(
        "trace.overhead_frac",
        util::ratio(util::mean(traced_us), util::mean(plain_us)) - 1.0,
    );
    report.set("trace.spans", totals.values().map(|t| t.calls as f64).sum());
    extra(&spans, report);
}

fn provenance(ctx: &Ctx) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cores\":{cores},\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_rev\":\"{}\",\"source_sha256\":\"{}\"}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.tracer.enabled()),
        env("PERFBENCH_CPU").replace('"', "'"),
        env("PERFBENCH_RUSTC").replace('"', "'"),
        env("PERFBENCH_GIT_REV"),
        env("PERFBENCH_SOURCE_SHA256"),
    )
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: std::path::PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_dir) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                });
            }
            "--trace-dir" => trace_dir = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir: trace_dir.ok_or("--trace-dir is required")?,
    })
}

/// Runs one workload and returns the context holding its report.
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    trace_dir: std::path::PathBuf,
) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: workload.to_string(),
        seed,
        seconds,
        scale,
        tracer: Tracer::new(trace),
        report: Report::default(),
        trace_dir,
        lines: Vec::new(),
    };
    match workload {
        "chain_traffic" => chain_traffic::run(&mut ctx)?,
        "reroute_churn" => reroute_churn::run(&mut ctx)?,
        "fleet_storm" => fleet_storm::run(&mut ctx)?,
        "lp_plan" => lp_plan::run(&mut ctx)?,
        other => return Err(format!("unknown workload {other}")),
    }
    ctx.report.set("max_rss_mb", util::max_rss_mb());
    let ff = ctx.report.failed_frac();
    ctx.report.set("failed_frac", ff);
    Ok(ctx)
}

/// Formats a metric value for JSON: every digit, and never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: the end-to-end or per-layer metrics, the check verdict
/// and the operation counts. Missing per-layer metrics are layers the
/// workload does not exercise, reported as 0.
pub fn result_json(report: &Report, trace: bool) -> Result<String, String> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(defs.len());
    for d in defs {
        let v = match report.values.get(d.name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", d.name)),
        };
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            json_number(v),
            d.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = args.trace;
    let ctx = match run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        trace,
        Scale::full(),
        args.trace_dir,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let prov = provenance(&ctx);
    println!("provenance {prov}");
    for line in &ctx.lines {
        println!("{line}");
    }
    for c in &ctx.report.checks {
        println!(
            "check {} {}: {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for (name, v) in &ctx.report.values {
        let (unit, better) = report::def_of(name).map_or(("?", "?"), |d| (d.unit, d.better));
        println!("metric {name} {v} {unit} ({better} is better)");
    }
    println!(
        "verdict {} attempted={} failed={} failed_frac={}",
        if ctx.report.correct() { "PASS" } else { "FAIL" },
        ctx.report.attempted,
        ctx.report.failed,
        ctx.report.failed_frac()
    );
    if trace {
        let path = ctx.trace_dir.join(format!("{}.json", ctx.workload));
        let written = std::fs::create_dir_all(&ctx.trace_dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_json(&prov)));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    match result_json(&ctx.report, trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, seed: u64, trace: bool) -> Ctx {
        let dir = std::env::temp_dir().join("perfbench-test-traces");
        run_workload(workload, seed, 0.3, trace, Scale::tiny(), dir)
            .unwrap_or_else(|e| panic!("{workload}: {e}"))
    }

    #[test]
    fn tiny_runs_emit_every_metric_and_pass_every_check() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let ctx = tiny(workload, 7, trace);
                let r = &ctx.report;
                for c in &r.checks {
                    assert!(c.ok, "{workload}: check failed: {} ({})", c.name, c.detail);
                }
                assert!(
                    r.correct(),
                    "{workload}: {} of {} operations failed",
                    r.failed,
                    r.attempted
                );
                let line = result_json(r, trace).expect("every end-to-end metric measured");
                let defs = if trace { PER_LAYER } else { END_TO_END };
                for d in defs {
                    let field = format!("\"{}\": {{\"value\": ", d.name);
                    assert!(line.contains(&field), "{workload}: {} missing", d.name);
                    assert!(line.contains(&format!("\"unit\": \"{}\"", d.unit)));
                }
                if !trace {
                    for d in END_TO_END {
                        let v = r.values[d.name];
                        assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", d.name);
                    }
                }
            }
        }
    }

    #[test]
    fn same_seed_repeats_the_deterministic_counters() {
        let counters: [(&str, &[&str]); 4] = [
            ("chain_traffic", &["facade.hops_per_pkt"]),
            (
                "reroute_churn",
                &[
                    "facade.hops_per_pkt",
                    "cp.participants_2pc_per_update",
                    "bus.wan_messages_per_update",
                    "artifact.bytes_per_update",
                    "update_virtual_ms_p50",
                ],
            ),
            (
                "fleet_storm",
                &[
                    "reconcile.resolved_per_storm",
                    "reconcile.delta_ops_per_storm",
                ],
            ),
            ("lp_plan", &["dp_gap"]),
        ];
        for (workload, names) in counters {
            let a = tiny(workload, 11, false);
            let b = tiny(workload, 11, false);
            for &name in names {
                let (x, y) = (a.report.values[name], b.report.values[name]);
                // LP optima carry roundoff in their last bits between runs.
                let tol = if name == "dp_gap" {
                    1e-9 * x.abs().max(1.0)
                } else {
                    0.0
                };
                assert!((x - y).abs() <= tol, "{workload}: {name} {x} != {y}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                d.name, d.unit, d.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\":\"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
        let names = text.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn quantile_interpolates_and_zipf_favours_low_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((util::quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(util::quantile(&v, 1.0), 4.0);
        let z = util::Zipf::new(100);
        let mut rng = util::Rng::new(1, 2);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        // P(rank 0) = 1 / H(100) ≈ 0.193.
        assert!((1700..2200).contains(&hits), "{hits}");
    }
}
