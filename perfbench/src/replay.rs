//! The replay workloads: `scale-bus` (summary-mode weak-scaling replay
//! on the bus model) and `flow-fattree` (full-fidelity streamed replay
//! on an oversubscribed fat-tree, where max-min resharing runs).
//!
//! Both report the fastest replay of the run. On a shared host, other
//! tenants' bursts only ever add time to a replay, and they come and go
//! within about a second: a replay of a few tens of milliseconds often
//! runs through a quiet spell, so the fastest of a run's hundreds is the
//! program's own cost and repeats across runs, where the median moves
//! with the share of the run the host was busy. The inputs are sized
//! for replays that short, and two threads replay side by side; see
//! README.md.

use crate::span::{SpanId, Tracer};
use crate::{metric, op_traced, stats, Config, Metric, Op, Report, SETUP_SECONDS};
use ovlp_core::presets::{marenostrum_for, platform_for};
use ovlp_machine::{
    expand_collectives, render_exact, replay_scale, simulate_source_probed_with,
    simulate_source_with, simulate_with, CritPathRecorder, Platform, ReplayEngine, SimError,
    SimResult, Time, WindowedRecorder,
};
use ovlp_trace::{MlAllreduce, MlConfig, TraceSource};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Set-up is well under a microsecond: time it in batches.
const SETUP_BATCH: usize = 2_000;
/// Replays per run even when `--seconds` is shorter than three of them.
const MIN_OPS: usize = 3;
/// Replay threads; the benchmark's load never exceeds two threads.
const MAX_WORKERS: usize = 2;
/// Rank counts: one replay takes ~30 ms (quiet host) to ~85 ms (busy
/// host) on the development container.
const SCALE_BUS_RANKS: usize = 1_000;
const FLOW_FATTREE_RANKS: usize = 128;
const SEQ: ReplayEngine = ReplayEngine::Sequential;

/// What one timed operation returned, beside its wall time.
struct Timed<T> {
    index: u64,
    op: Op,
    out: T,
}

fn source(ranks: usize, seed: u64) -> Result<MlAllreduce, String> {
    Ok(MlAllreduce::new(MlConfig::new(ranks, seed)?))
}

/// Per-call set-up time of `make` (the fastest batch of
/// [`SETUP_BATCH`] calls over [`SETUP_SECONDS`]), and the last thing it
/// made.
fn setup<T>(mut make: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    stats::fastest(SETUP_SECONDS, || {
        let t0 = Instant::now();
        for _ in 1..SETUP_BATCH {
            black_box(make()?);
        }
        let made = make()?;
        Ok((t0.elapsed().as_secs_f64() / SETUP_BATCH as f64, made))
    })
}

/// Run `op` on one thread per hardware thread, at most
/// [`MAX_WORKERS`], until `--seconds` have passed (at least
/// [`MIN_OPS`] times in all), and return the operations in index
/// order. Each worker meets the host's quiet spells on its own
/// processor, so two of them find the fastest replay twice as often.
/// Traced runs record even-numbered operations under an `op` span and
/// run odd ones with tracing off.
fn timed_loop<T: Send>(
    cfg: &Config,
    tracer: &Tracer,
    parent: SpanId,
    op: impl Fn(&Tracer, SpanId, u64) -> T + Sync,
) -> Vec<Timed<T>> {
    let off = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let next = AtomicU64::new(0);
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= MIN_OPS as u64 && Instant::now() >= deadline {
                return mine;
            }
            let traced = op_traced(tracer, index as usize);
            let t = if traced { tracer } else { &off };
            let id = t.enter("op", parent, index);
            let t0 = Instant::now();
            let result = black_box(op(t, id, index));
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            t.exit(id);
            mine.push(Timed {
                index,
                op: Op { ms, traced },
                out: result,
            });
        }
    };
    let workers = stats::hardware_threads().min(MAX_WORKERS);
    let mut out: Vec<Timed<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay worker panicked"))
            .collect()
    });
    out.sort_by_key(|t| t.index);
    out
}

/// Pull every record of every rank through `rank_records`.
pub fn drain(source: &dyn TraceSource) -> u64 {
    (0..source.nranks())
        .map(|r| source.rank_records(r).map(black_box).count() as u64)
        .sum()
}

pub fn sim_err(e: SimError) -> String {
    format!("replay failed: {e}")
}

/// FNV-1a of a string: a digest of `render_exact` output.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One replay input of the layer probes.
pub struct Subject<'a> {
    pub source: &'a dyn TraceSource,
    pub platform: &'a Platform,
    /// Simulated runtime, which sizes the probe window.
    pub runtime_s: f64,
}

/// The layer probes every workload runs when traced, over each of its
/// replay inputs: record supply, collective expansion, and the probe
/// and critpath hooks. Times are summed over the subjects.
pub fn common_layers(
    tracer: &Tracer,
    parent: SpanId,
    subjects: &[Subject],
) -> Result<Vec<Metric>, String> {
    let mut records = 0;
    for s in subjects {
        records += tracer.span("trace.source.drain", parent, 0, |_| drain(s.source));
        let trace = tracer.span("trace.source.materialize", parent, 0, |_| {
            s.source.materialize()
        });
        tracer.span("machine.collective.expand", parent, 0, |_| {
            black_box(expand_collectives(&trace, s.platform.collective))
        });
    }
    for s in subjects {
        tracer.span("machine.probe.windowed", parent, 0, |_| {
            let mut rec = WindowedRecorder::new(Time::secs((s.runtime_s / 256.0).max(1e-9)));
            simulate_source_probed_with(s.source, s.platform, &mut rec, SEQ).map_err(sim_err)?;
            black_box(rec.into_metrics());
            Ok::<_, String>(())
        })?;
        tracer.span("machine.critpath", parent, 0, |_| {
            let mut rec = CritPathRecorder::new();
            simulate_source_probed_with(s.source, s.platform, &mut rec, SEQ).map_err(sim_err)?;
            black_box(rec.into_critpath());
            Ok::<_, String>(())
        })?;
    }
    let secs = |name| tracer.durations(name).iter().sum::<f64>();
    Ok(vec![
        metric("trace.source.drain_s", "s", secs("trace.source.drain")),
        metric("trace.source.records", "count", records as f64),
        metric(
            "machine.collective.expand_s",
            "s",
            secs("machine.collective.expand"),
        ),
        metric(
            "machine.probe.windowed_span_s",
            "s",
            secs("machine.probe.windowed"),
        ),
        metric("machine.critpath.span_s", "s", secs("machine.critpath")),
    ])
}

/// `machine.replay.*` span metrics from the traced operations.
fn replay_layers(tracer: &Tracer, events: u64, queue_peak: usize) -> Vec<Metric> {
    let span_s = stats::median(&tracer.durations("machine.replay"));
    vec![
        metric("machine.replay.span_s", "s", span_s),
        metric("machine.replay.events", "count", events as f64),
        metric(
            "machine.replay.ns_per_event",
            "ns",
            span_s * 1e9 / events.max(1) as f64,
        ),
        metric("machine.replay.queue_peak", "count", queue_peak as f64),
    ]
}

/// Simulated events per host second of the fastest replay.
fn events_per_s<T>(ops: &[Timed<T>], events: impl Fn(&T) -> Option<u64>) -> f64 {
    ops.iter()
        .filter_map(|t| Some(events(&t.out)? as f64 * 1e3 / t.op.ms))
        .fold(0.0, f64::max)
}

/// The fastest replay's wall time, and the workload-specific metrics of
/// a replay run.
fn replay_times(events_per_s: f64, ops: &[Op]) -> (f64, Vec<Metric>) {
    let ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let best = ms.iter().copied().fold(f64::INFINITY, f64::min);
    let named = vec![
        metric("events_per_s", "1/s", events_per_s),
        metric("replay_best_ms", "ms", best),
        metric("replay_p50_ms", "ms", stats::median(&ms)),
    ];
    (best, named)
}

/// Seeded `ml-allreduce` at [`SCALE_BUS_RANKS`] through `replay_scale`
/// on the bus model.
pub fn scale_bus(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let ranks = if cfg.tiny { 64 } else { SCALE_BUS_RANKS };
    let run = tracer.enter("run", None, 0);
    let (setup_s, (src, platform)) = tracer.span("setup", run, 0, |_| {
        setup(|| Ok((source(ranks, cfg.seed)?, marenostrum_for("ml-allreduce"))))
    })?;
    let ops = tracer.span("ops", run, 0, |parent| {
        timed_loop(cfg, tracer, parent, |t, op, index| {
            t.span("machine.replay", op, index, |_| {
                replay_scale(&src, &platform)
            })
        })
    });
    let rss_peak_mib = stats::rss_peak_mib();

    // Oracle (untimed unless traced, where it doubles as the
    // full-fidelity layer probe): the streamed full replay of the same
    // source must agree on runtime bits, events and transfers.
    let full = tracer
        .span("machine.replay.full", run, 0, |_| {
            simulate_source_with(&src, &platform, SEQ)
        })
        .map_err(sim_err)?;
    let mut want = (
        full.runtime.as_secs().to_bits(),
        full.events_processed,
        full.network.transfers as u64,
    );
    if cfg.corrupt_oracle {
        want.0 ^= 1;
    }
    let failed = ops
        .iter()
        .filter(|t| match &t.out {
            Ok(r) => {
                (
                    r.runtime.as_secs().to_bits(),
                    r.events_processed,
                    r.transfers,
                ) != want
            }
            Err(_) => true,
        })
        .count() as u64;

    let mut report = Report {
        attempted: ops.len() as u64,
        failed,
        setup_s,
        throughput_per_s: events_per_s(&ops, |r| r.as_ref().ok().map(|r| r.events_processed)),
        rss_peak_mib,
        ops: ops.iter().map(|t| t.op).collect(),
        ranks,
        jobs: 0,
        ..Report::default()
    };
    (report.op_ms, report.named) = replay_times(report.throughput_per_s, &report.ops);

    if tracer.is_on() {
        let first = ops[0].out.as_ref().map_err(|e| sim_err(e.clone()))?;
        let layers = tracer.enter("layers", run, 0);
        let mut m = common_layers(
            tracer,
            layers,
            &[Subject {
                source: &src,
                platform: &platform,
                runtime_s: first.runtime.as_secs(),
            }],
        )?;
        tracer.exit(layers);
        m.extend(replay_layers(
            tracer,
            first.events_processed,
            first.queue_peak,
        ));
        m.extend([
            metric(
                "machine.replay.full_span_s",
                "s",
                tracer.durations("machine.replay.full")[0],
            ),
            metric(
                "machine.replay.records_peak",
                "count",
                first.records_peak as f64,
            ),
            metric("machine.replay.msg_slots", "count", first.msg_slots as f64),
            metric(
                "machine.net.reshares",
                "count",
                full.network.reshares as f64,
            ),
            metric(
                "machine.net.stale_events",
                "count",
                full.stale_events as f64,
            ),
        ]);
        report.layers = m;
    }
    tracer.exit(run);
    Ok(report)
}

/// Seeded `ml-allreduce` at [`FLOW_FATTREE_RANKS`], streamed
/// full-fidelity replay on the 4:1 oversubscribed `fat-tree:16:4`.
pub fn flow_fattree(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let ranks = if cfg.tiny { 64 } else { FLOW_FATTREE_RANKS };
    let run = tracer.enter("run", None, 0);
    let (setup_s, (src, platform)) = tracer.span("setup", run, 0, |_| {
        setup(|| {
            Ok((
                source(ranks, cfg.seed)?,
                platform_for("ml-allreduce", "fat-tree:16:4")?,
            ))
        })
    })?;
    // Keep one result whole for the oracle; the others only as the
    // fields the oracle compares, so memory stays one result deep.
    let first: OnceLock<Result<SimResult, SimError>> = OnceLock::new();
    let ops = tracer.span("ops", run, 0, |parent| {
        timed_loop(cfg, tracer, parent, |t, op, index| {
            let r = t.span("machine.replay", op, index, |_| {
                simulate_source_with(&src, &platform, SEQ)
            });
            let key = r.as_ref().ok().map(|r| {
                (
                    r.runtime.as_secs().to_bits(),
                    r.events_processed,
                    r.network.reshares,
                )
            });
            let _ = first.set(r);
            key
        })
    });
    let rss_peak_mib = stats::rss_peak_mib();

    // Oracle: the kept replay renders exactly like `simulate_with` on
    // the materialized trace; every replay matches the first.
    let first = first.into_inner().expect("timed_loop runs at least once");
    let got = digest(&render_exact(&first));
    let trace = src.materialize();
    let mut want = digest(&render_exact(&simulate_with(&trace, &platform, SEQ)));
    drop(trace);
    if cfg.corrupt_oracle {
        want ^= 1;
    }
    let first_key = ops[0].out;
    let failed = ops
        .iter()
        .enumerate()
        .filter(|(i, t)| t.out.is_none() || t.out != first_key || (*i == 0 && got != want))
        .count() as u64;

    let mut report = Report {
        attempted: ops.len() as u64,
        failed,
        setup_s,
        throughput_per_s: events_per_s(&ops, |k| k.map(|k| k.1)),
        rss_peak_mib,
        ops: ops.iter().map(|t| t.op).collect(),
        ranks,
        jobs: 0,
        ..Report::default()
    };
    (report.op_ms, report.named) = replay_times(report.throughput_per_s, &report.ops);

    if tracer.is_on() {
        let first = first.map_err(sim_err)?;
        let layers = tracer.enter("layers", run, 0);
        let mut m = common_layers(
            tracer,
            layers,
            &[Subject {
                source: &src,
                platform: &platform,
                runtime_s: first.runtime.as_secs(),
            }],
        )?;
        let uniform = platform_for("ml-allreduce", "fat-tree:16")?;
        tracer
            .span("machine.net.uniform", layers, 0, |_| {
                simulate_source_with(&src, &uniform, SEQ)
            })
            .map_err(sim_err)?;
        tracer.exit(layers);
        m.extend(replay_layers(
            tracer,
            first.events_processed,
            first.queue_peak,
        ));
        let span_s = stats::median(&tracer.durations("machine.replay"));
        m.extend([
            // the operation itself is the full-fidelity streamed replay
            metric("machine.replay.full_span_s", "s", span_s),
            metric(
                "machine.net.reshares",
                "count",
                first.network.reshares as f64,
            ),
            metric(
                "machine.net.stale_events",
                "count",
                first.stale_events as f64,
            ),
            metric(
                "machine.net.uniform_span_s",
                "s",
                tracer.durations("machine.net.uniform")[0],
            ),
        ]);
        report.layers = m;
    }
    tracer.exit(run);
    Ok(report)
}
