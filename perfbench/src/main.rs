//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <scale-bus|flow-fattree|serve-mixed> --seed N --seconds S --trace 0|1
//!           [--tiny] [--corrupt-oracle]
//! ```
//!
//! One run measures one workload for `--seconds`, checks every output
//! against an oracle, and prints two lines on stdout: the full result
//! document (`ovlp.perfbench.v1`: environment, every metric with its
//! unit, span self times), then the summary line whose `metrics` hold
//! exactly the `end_to_end` (`--trace 0`) or `per_layer` (`--trace 1`)
//! names of `BENCHMARK.json`. `--tiny` shrinks every input for smoke
//! tests; `--corrupt-oracle` flips the oracle reference so the checks
//! must fail. See README.md for the metric definitions.

mod replay;
mod serve;
mod span;
mod stats;

use ovlp_serve::json::{Obj, Value};
use span::Tracer;
use std::path::Path;

/// The `end_to_end` metrics of `BENCHMARK.json`, reported by every
/// workload.
pub const END_TO_END: &[&str] = &["setup_s", "throughput_per_s", "op_ms", "rss_peak_mib"];

/// The `per_layer` metrics of `BENCHMARK.json`: the layers every
/// workload's traced run measures on its own inputs. Workload-specific
/// layers appear in the result document only.
pub const PER_LAYER: &[&str] = &[
    "trace.source.drain_s",
    "trace.source.records",
    "machine.collective.expand_s",
    "machine.replay.span_s",
    "machine.replay.events",
    "machine.replay.ns_per_event",
    "machine.replay.queue_peak",
    "machine.replay.full_span_s",
    "machine.net.reshares",
    "machine.net.stale_events",
    "machine.probe.windowed_span_s",
    "machine.critpath.span_s",
    "bench.trace.spans",
    "bench.trace.overhead_pct",
];

#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    pub corrupt_oracle: bool,
}

/// How long set-up is repeated; `setup_s` is the fastest repetition,
/// for the reason the replay workloads report their fastest replay
/// (see `replay.rs`).
pub const SETUP_SECONDS: f64 = 1.0;

/// Scratch directory for stores and span files, inside the working
/// directory.
pub const WORK_DIR: &str = ".perfbench";

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// One timed operation: a replay, or a job from POST to done line.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub ms: f64,
    /// Recorded with spans (traced runs alternate traced and untraced
    /// operations to measure the tracing overhead).
    pub traced: bool,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub setup_s: f64,
    pub throughput_per_s: f64,
    /// Wall time of one operation: the fastest replay, or the mean of
    /// each app's fastest job.
    pub op_ms: f64,
    pub rss_peak_mib: f64,
    pub ops: Vec<Op>,
    /// Workload-specific end-to-end metrics (`events_per_s`,
    /// `job_p90_ms`, …).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    pub ranks: usize,
    pub jobs: usize,
}

/// Alternate traced and untraced operations in a traced run.
pub fn op_traced(tracer: &Tracer, index: usize) -> bool {
    tracer.is_on() && index.is_multiple_of(2)
}

struct Args {
    workload: String,
    trace: bool,
    config: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut tiny, mut corrupt_oracle) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            "--corrupt-oracle" => corrupt_oracle = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace: trace.unwrap_or(false),
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            corrupt_oracle,
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = &args.config;
    if let Err(e) = std::fs::create_dir_all(WORK_DIR) {
        eprintln!("perfbench: cannot create {WORK_DIR}: {e}");
        std::process::exit(1);
    }
    let tracer = Tracer::new(args.trace);
    let report = match args.workload.as_str() {
        "scale-bus" => replay::scale_bus(cfg, &tracer),
        "flow-fattree" => replay::flow_fattree(cfg, &tracer),
        "serve-mixed" => serve::serve_mixed(cfg, &tracer),
        other => Err(format!(
            "unknown workload {other:?} (scale-bus, flow-fattree, serve-mixed)"
        )),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if tracer.is_on() {
        let path = Path::new(WORK_DIR).join(format!("spans-{}-{}.json", args.workload, cfg.seed));
        if let Err(e) = std::fs::write(&path, tracer.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let (document, summary) = render(&args, &report, &tracer);
    println!("{document}");
    println!("{summary}");
}

fn metrics_obj<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Value {
    let mut o = Obj::new();
    for m in metrics {
        let mut v = Obj::new();
        v.set("value", Value::Num(m.value));
        v.set("unit", Value::str(m.unit));
        o.set(m.name, Value::Obj(v));
    }
    Value::Obj(o)
}

/// The result document and the summary line.
fn render(args: &Args, report: &Report, tracer: &Tracer) -> (String, String) {
    let cfg = &args.config;
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    let mut end_to_end = vec![
        metric("setup_s", "s", report.setup_s),
        metric("throughput_per_s", "1/s", report.throughput_per_s),
        metric("op_ms", "ms", report.op_ms),
        metric("rss_peak_mib", "MiB", report.rss_peak_mib),
        metric("error_rate", "ratio", error_rate),
    ];
    end_to_end.extend(report.named.iter().cloned());

    let mut layers = report.layers.clone();
    if tracer.is_on() {
        let pick = |traced: bool| -> Vec<f64> {
            report
                .ops
                .iter()
                .filter(|o| o.traced == traced)
                .map(|o| o.ms)
                .collect()
        };
        let (on, off) = (stats::median(&pick(true)), stats::median(&pick(false)));
        let overhead = if off > 0.0 {
            (on - off) / off * 100.0
        } else {
            0.0
        };
        layers.push(metric("bench.trace.spans", "count", tracer.len() as f64));
        layers.push(metric("bench.trace.overhead_pct", "%", overhead));
    }

    let mut env = Obj::new();
    env.set(
        "hardware_threads",
        Value::Num(stats::hardware_threads() as f64),
    );
    env.set("seed", Value::Num(cfg.seed as f64));
    env.set(
        "commit",
        Value::str(stats::command_line("git", &["rev-parse", "HEAD"])),
    );
    env.set(
        "rustc",
        Value::str(stats::command_line("rustc", &["--version"])),
    );
    env.set("ranks", Value::Num(report.ranks as f64));
    env.set("jobs", Value::Num(report.jobs as f64));
    env.set("ops", Value::Num(report.ops.len() as f64));
    env.set("seconds", Value::Num(cfg.seconds));
    env.set("tiny", Value::Bool(cfg.tiny));

    let correct = report.failed == 0;
    let mut doc = Obj::new();
    doc.set("schema", Value::str("ovlp.perfbench.v1"));
    doc.set("workload", Value::str(&args.workload));
    doc.set("trace", Value::Bool(tracer.is_on()));
    doc.set("correct", Value::Bool(correct));
    doc.set("attempted", Value::Num(report.attempted as f64));
    doc.set("failed", Value::Num(report.failed as f64));
    doc.set("env", Value::Obj(env));
    doc.set("end_to_end", metrics_obj(&end_to_end));
    if tracer.is_on() {
        doc.set("per_layer", metrics_obj(&layers));
        let mut spans = Obj::new();
        for (name, t) in tracer.totals() {
            let mut s = Obj::new();
            s.set("count", Value::Num(t.count as f64));
            s.set("total_s", Value::Num(t.total_s));
            s.set("self_s", Value::Num(t.self_s));
            spans.set(name, Value::Obj(s));
        }
        doc.set("spans", Value::Obj(spans));
    }

    let (source, names) = if tracer.is_on() {
        (&layers, PER_LAYER)
    } else {
        (&end_to_end, END_TO_END)
    };
    let listed: Vec<&Metric> = names
        .iter()
        .map(|n| {
            source
                .iter()
                .find(|m| m.name == *n)
                .unwrap_or_else(|| panic!("workload {} did not report {n}", args.workload))
        })
        .collect();
    let mut summary = Obj::new();
    summary.set("correct", Value::Bool(correct));
    summary.set("attempted", Value::Num(report.attempted as f64));
    summary.set("failed", Value::Num(report.failed as f64));
    summary.set("metrics", metrics_obj(listed));
    (Value::Obj(doc).to_string(), Value::Obj(summary).to_string())
}
