//! The `serve-mixed` workload: an in-process `ovlp serve` daemon on
//! loopback, driven by closed-loop HTTP clients submitting seeded
//! 16-point sweep jobs over a pre-seeded result store.

use crate::replay::{common_layers, sim_err, Subject};
use crate::span::{SpanId, Tracer};
use crate::{metric, op_traced, stats, Config, Metric, Op, Report, SETUP_SECONDS, WORK_DIR};
use ovlp_core::presets::marenostrum_for;
use ovlp_core::sweep::store::{DiskStore, StoredPoint};
use ovlp_core::sweep::{sweep, PointKey, SweepCache, SweepConfig};
use ovlp_core::{build_variants, ChunkPolicy};
use ovlp_machine::{simulate_source_with, simulate_with, ReplayEngine};
use ovlp_serve::json::{self, Value};
use ovlp_serve::{ServeConfig, Server, SweepSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

const APPS: [&str; 3] = ["nas-cg", "sweep3d", "pop"];
const CHUNKS: [u32; 4] = [1, 2, 4, 8];
/// Jobs draw two of these bandwidths (MB/s).
const BANDWIDTHS: [f64; 8] = [25.0, 50.0, 100.0, 150.0, 200.0, 250.0, 400.0, 1000.0];
const BUSES: [u32; 2] = [2, 8];
/// Closed-loop clients; no more than the two hardware threads the
/// benchmark is sized for.
const CLIENTS: usize = 2;
/// `DiskStore::open` repetitions for its median in the traced run.
const OPEN_REPS: usize = 9;
/// Passes over the replay probes in the traced run.
const PROBE_PASSES: usize = 3;
const SEQ: ReplayEngine = ReplayEngine::Sequential;

/// SplitMix64: the seeded generator behind every choice the clients
/// and the store pre-seeding make.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

fn spec(app: &str, ranks: usize, bandwidths: Vec<f64>, jobs: usize) -> SweepSpec {
    let mut s = SweepSpec::new(app, ranks);
    s.chunks = CHUNKS.to_vec();
    s.bandwidths = bandwidths;
    s.buses = BUSES.to_vec();
    s.jobs = jobs;
    s
}

/// One reference point: its result hash and stored value.
type Reference = BTreeMap<u64, (u64, StoredPoint)>;

/// Every point any job can ask for, computed by an in-process sweep.
fn reference(ranks: usize) -> Result<Reference, String> {
    let mut out = Reference::new();
    for app in APPS {
        let (grid, _) = spec(app, ranks, BANDWIDTHS.to_vec(), 1)
            .build()
            .map_err(|e| e.to_string())?;
        let report = sweep(&grid, &SweepConfig::with_jobs(CLIENTS), &SweepCache::new());
        for outcome in report.outcomes {
            let r = outcome.map_err(|e| format!("reference point failed: {}", e.message))?;
            let stored = StoredPoint {
                t_original: r.t_original,
                t_overlapped: r.t_overlapped,
                t_ideal: r.t_ideal,
            };
            out.insert(r.key.0, (r.result_hash(), stored));
        }
    }
    Ok(out)
}

/// Write a seeded half of the reference points to the store, so jobs
/// mix disk-tier reads, memory-tier hits and misses.
fn preseed(dir: &Path, reference: &Reference, seed: u64) -> Result<(), String> {
    let store = DiskStore::open(dir).map_err(|e| format!("store: {e}"))?;
    let mut keys: Vec<u64> = reference.keys().copied().collect();
    Rng(seed ^ 0x5eed).shuffle(&mut keys);
    for key in &keys[..keys.len() / 2] {
        store
            .put(PointKey(*key), &reference[key].1)
            .map_err(|e| format!("store: {e}"))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// HTTP client (the daemon closes every connection after one response)
// ---------------------------------------------------------------------

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    Ok(stream)
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Status code of a response whose head has been read off `reader`.
fn read_head(reader: &mut impl BufRead) -> io::Result<u16> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let code = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            return Ok(code);
        }
    }
}

/// A complete (Content-Length) response: status and body.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut reader = BufReader::new(send(addr, method, path, body)?);
    let code = read_head(&mut reader)?;
    let mut body = String::new();
    reader.read_to_string(&mut body)?;
    Ok((code, body))
}

/// A chunked NDJSON response: calls `on_line` for each line as its
/// chunk arrives. Returns the status code.
fn stream_lines(
    addr: SocketAddr,
    path: &str,
    mut on_line: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<u16> {
    let mut reader = BufReader::new(send(addr, "GET", path, "")?);
    let code = read_head(&mut reader)?;
    if code != 200 {
        return Ok(code);
    }
    let mut pending = String::new();
    let mut size_line = String::new();
    loop {
        size_line.clear();
        reader.read_line(&mut size_line)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0; size + 2];
        reader.read_exact(&mut chunk)?;
        pending.push_str(std::str::from_utf8(&chunk[..size]).map_err(|e| bad(e.to_string()))?);
        while let Some(end) = pending.find('\n') {
            on_line(&pending[..end])?;
            pending.drain(..=end);
        }
    }
    Ok(code)
}

// ---------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------

/// The fastest successful job of each app: their mean time, ms, and
/// the grid points per second they completed. As with the replay
/// workloads, the host's interference only adds time, so the fastest
/// job repeats across runs where the median moves with how busy the
/// host was; each app has its own, since the apps differ in cost.
fn fastest_jobs(jobs: &[JobOutcome]) -> (f64, f64) {
    let best: Vec<&JobOutcome> = APPS
        .iter()
        .filter_map(|app| {
            jobs.iter()
                .filter(|j| j.app == *app && j.error.is_none())
                .min_by(|a, b| a.ms.total_cmp(&b.ms))
        })
        .collect();
    let ms: f64 = best.iter().map(|j| j.ms).sum();
    let points: usize = best.iter().map(|j| j.ok_points).sum();
    (
        ms / best.len().max(1) as f64,
        points as f64 * 1e3 / ms.max(f64::MIN_POSITIVE),
    )
}

/// What one job returned to its client.
#[derive(Debug, Default)]
struct JobOutcome {
    app: &'static str,
    ms: f64,
    traced: bool,
    ok_points: usize,
    /// `(key, hash)` of every point line, checked after the run.
    lines: Vec<(u64, u64)>,
    error: Option<String>,
    rejected: bool,
    submit_ms: f64,
    first_line_ms: f64,
    stream_ms: f64,
    queue_wait_ms: Option<f64>,
}

fn hex_field(v: &Value, key: &str) -> Option<u64> {
    u64::from_str_radix(v.as_obj()?.get(key)?.as_str()?, 16).ok()
}

/// Submit `body`, stream the job to its done line, and (traced) read
/// the job summary for the queue wait.
fn run_job(addr: SocketAddr, body: &str, tracer: &Tracer, parent: SpanId, op: u64) -> JobOutcome {
    let mut out = JobOutcome {
        traced: tracer.is_on(),
        ..JobOutcome::default()
    };
    let t0 = Instant::now();
    let result = tracer.span("serve.job", parent, op, |job| {
        submit_and_stream(addr, body, tracer, job, op, &mut out)
    });
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    let result = result.and_then(|(id, wait_ms)| {
        if !tracer.is_on() {
            return Ok(());
        }
        // Off the clock: the summary's elapsed_ms is the sweep's own run
        // time, so the rest of done-minus-accepted is waiting.
        let (_, summary) = request(addr, "GET", &format!("/v1/sweeps/{id}/summary?wait=1"), "")
            .map_err(|e| format!("summary: {e}"))?;
        let elapsed = json::parse(&summary)
            .ok()
            .and_then(|v| v.as_obj()?.get("elapsed_ms")?.as_f64())
            .ok_or("summary without elapsed_ms")?;
        out.queue_wait_ms = Some(wait_ms - elapsed);
        Ok(())
    });
    out.error = result.err();
    out
}

/// POST the job and read its stream up to the done line. Returns the
/// job id and the milliseconds from the 202 to the done line.
fn submit_and_stream(
    addr: SocketAddr,
    body: &str,
    tracer: &Tracer,
    job: SpanId,
    op: u64,
    out: &mut JobOutcome,
) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let (code, accepted) = tracer
        .span("serve.submit", job, op, |_| {
            request(addr, "POST", "/v1/sweeps", body)
        })
        .map_err(|e| format!("submit: {e}"))?;
    let t_accepted = Instant::now();
    out.submit_ms = (t_accepted - t0).as_secs_f64() * 1e3;
    if code != 202 {
        out.rejected = true;
        return Err(format!("submit answered {code}: {accepted}"));
    }
    let accepted = json::parse(&accepted).map_err(|e| format!("accepted: {e}"))?;
    let id = accepted
        .as_obj()
        .and_then(|o| o.get("job"))
        .and_then(Value::as_str)
        .ok_or("accepted document has no job id")?
        .to_string();

    let mut t_first = None;
    let mut done = None;
    let code = tracer
        .span("serve.stream", job, op, |stream| {
            let mut first_line = tracer.enter("serve.first_line", stream, op);
            stream_lines(addr, &format!("/v1/sweeps/{id}"), |line| {
                if t_first.is_none() {
                    t_first = Some(Instant::now());
                    tracer.exit(first_line.take());
                }
                let v = json::parse(line).map_err(|e| bad(format!("stream line: {e}")))?;
                let o = v
                    .as_obj()
                    .ok_or_else(|| bad("stream line is not an object"))?;
                match o.get("schema").and_then(Value::as_str) {
                    Some("ovlp.sweep-done.v1") => done = Some(v.clone()),
                    _ if o.get("error").is_some() => {
                        return Err(bad(format!("point failed: {line}")));
                    }
                    _ => match (hex_field(&v, "key"), hex_field(&v, "hash")) {
                        (Some(key), Some(hash)) => out.lines.push((key, hash)),
                        _ => return Err(bad(format!("point line without key/hash: {line}"))),
                    },
                }
                Ok(())
            })
        })
        .map_err(|e| format!("stream: {e}"))?;
    let t_done = Instant::now();
    if code != 200 {
        out.rejected = true;
        return Err(format!("stream answered {code}"));
    }
    let t_first = t_first.unwrap_or(t_done);
    out.first_line_ms = (t_first - t_accepted).as_secs_f64() * 1e3;
    out.stream_ms = (t_done - t_first).as_secs_f64() * 1e3;
    let done = done.ok_or("stream ended without a done line")?;
    let count = |k| done.as_obj().and_then(|o| o.get(k)).and_then(Value::as_u64);
    if count("failed") != Some(0) || count("ok") != Some(out.lines.len() as u64) {
        return Err(format!("done line reports failures: {done}"));
    }
    out.ok_points = out.lines.len();
    Ok((id, (t_done - t_accepted).as_secs_f64() * 1e3))
}

/// Closed loop: submit, read to the done line, submit again, until the
/// deadline (at least one job).
fn client(
    addr: SocketAddr,
    index: usize,
    cfg: &Config,
    ranks: usize,
    deadline: Instant,
    tracer: &Tracer,
    parent: SpanId,
) -> Vec<JobOutcome> {
    let mut rng = Rng(cfg.seed.wrapping_mul(CLIENTS as u64 + 1) ^ index as u64);
    // Each client cycles through a seeded order of the apps, so every
    // run submits each app equally often.
    let mut apps = APPS;
    rng.shuffle(&mut apps);
    let off = Tracer::new(false);
    let mut jobs = Vec::new();
    while jobs.is_empty() || Instant::now() < deadline {
        let n = jobs.len();
        let first = rng.below(BANDWIDTHS.len());
        let second = (first + 1 + rng.below(BANDWIDTHS.len() - 1)) % BANDWIDTHS.len();
        let app = apps[n % apps.len()];
        let body = spec(app, ranks, vec![BANDWIDTHS[first], BANDWIDTHS[second]], 1).to_json();
        let op = (index * 1_000_000 + n) as u64;
        let t = if op_traced(tracer, n) { tracer } else { &off };
        jobs.push(JobOutcome {
            app,
            ..run_job(addr, &body, t, parent, op)
        });
    }
    jobs
}

/// Per-layer probes of the daemon's inner layers, called from outside
/// through their public entry points on this workload's inputs.
fn probe_layers(
    tracer: &Tracer,
    parent: SpanId,
    ranks: usize,
    store_dir: &Path,
    reference: &Reference,
    probe_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let mut runs = Vec::new();
    for app in APPS {
        let entry = ovlp_apps::registry::by_name(app).ok_or("unknown app")?;
        let mut run = None;
        for _ in 0..PROBE_PASSES {
            run = Some(tracer.span("instr.trace_run", parent, 0, |_| entry.trace_run(ranks))?);
        }
        runs.push((app, run.expect("PROBE_PASSES > 0")));
    }
    for (_, run) in &runs {
        for c in CHUNKS {
            tracer.span("core.transform.build_variants", parent, 0, |_| {
                black_box(build_variants(run, &ChunkPolicy::with_chunks(c)))
            });
        }
    }

    // The machine layer on each app's traced run: the slice path the
    // daemon's points take, then the streamed path.
    let platforms: Vec<_> = runs
        .iter()
        .map(|(app, _)| marenostrum_for(app).with_bandwidth(250.0).with_buses(8))
        .collect();
    let (mut pass_s, mut events, mut queue_peak, mut reshares, mut stale) =
        (Vec::new(), 0, 0, 0, 0);
    let mut runtimes = Vec::new();
    for pass in 0..PROBE_PASSES {
        let t0 = Instant::now();
        for ((_, run), platform) in runs.iter().zip(&platforms) {
            let r = tracer
                .span("machine.replay", parent, pass as u64, |_| {
                    simulate_with(&run.trace, platform, SEQ)
                })
                .map_err(sim_err)?;
            if pass == 0 {
                events += r.events_processed;
                queue_peak = queue_peak.max(r.queue_peak);
                reshares += r.network.reshares;
                stale += r.stale_events;
                runtimes.push(r.runtime.as_secs());
            }
        }
        pass_s.push(t0.elapsed().as_secs_f64());
    }
    for ((_, run), platform) in runs.iter().zip(&platforms) {
        tracer
            .span("machine.replay.full", parent, 0, |_| {
                simulate_source_with(&run.trace, platform, SEQ)
            })
            .map_err(sim_err)?;
    }
    let subjects: Vec<Subject> = runs
        .iter()
        .zip(&platforms)
        .zip(&runtimes)
        .map(|(((_, run), platform), &runtime_s)| Subject {
            source: &run.trace,
            platform,
            runtime_s,
        })
        .collect();
    let mut m = common_layers(tracer, parent, &subjects)?;

    // One 16-point sweep per app on an empty in-memory cache.
    let mut points = 0;
    for app in APPS {
        let (grid, config) = spec(app, ranks, vec![100.0, 250.0], 1)
            .build()
            .map_err(|e| e.to_string())?;
        points += grid.len();
        tracer.span("core.sweep", parent, 0, |_| {
            black_box(sweep(&grid, &config, &SweepCache::new()))
        });
    }

    for _ in 0..OPEN_REPS {
        tracer
            .span("core.sweep.store.open", parent, 0, |_| {
                DiskStore::open(store_dir)
            })
            .map_err(|e| format!("store: {e}"))?;
    }
    let probe = DiskStore::open(probe_dir).map_err(|e| format!("store: {e}"))?;
    for (&key, (_, stored)) in reference {
        tracer
            .span("core.sweep.store.put", parent, 0, |_| {
                probe.put(PointKey(key), stored)
            })
            .map_err(|e| format!("store: {e}"))?;
    }
    for &key in reference.keys() {
        tracer
            .span("core.sweep.store.get", parent, 0, |_| {
                probe.get(PointKey(key))
            })
            .ok_or("probe store lost an entry")?;
    }

    let med = |name| stats::median(&tracer.durations(name));
    let sum = |name| tracer.durations(name).iter().sum::<f64>();
    let span_s = stats::median(&pass_s);
    m.extend([
        metric("instr.trace_run_s", "s", med("instr.trace_run")),
        metric(
            "core.transform.build_variants_s",
            "s",
            med("core.transform.build_variants"),
        ),
        metric("machine.replay.span_s", "s", span_s),
        metric("machine.replay.events", "count", events as f64),
        metric(
            "machine.replay.ns_per_event",
            "ns",
            span_s * 1e9 / events.max(1) as f64,
        ),
        metric("machine.replay.queue_peak", "count", queue_peak as f64),
        metric(
            "machine.replay.full_span_s",
            "s",
            sum("machine.replay.full"),
        ),
        metric("machine.net.reshares", "count", reshares as f64),
        metric("machine.net.stale_events", "count", stale as f64),
        metric(
            "core.sweep.point_s",
            "s",
            sum("core.sweep") / points.max(1) as f64,
        ),
        metric("core.sweep.store.open_s", "s", med("core.sweep.store.open")),
        metric("core.sweep.store.get_s", "s", med("core.sweep.store.get")),
        metric("core.sweep.store.put_s", "s", med("core.sweep.store.put")),
    ]);
    Ok(m)
}

/// A fresh scratch directory for this run.
fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn serve_mixed(cfg: &Config, tracer: &Tracer) -> Result<Report, String> {
    let ranks = if cfg.tiny { 8 } else { 32 };
    let dir = Path::new(WORK_DIR).join(format!("serve-{}", std::process::id()));
    fresh_dir(&dir)?;
    let result = serve_in(cfg, tracer, ranks, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_in(cfg: &Config, tracer: &Tracer, ranks: usize, dir: &Path) -> Result<Report, String> {
    let store_dir = dir.join("store");
    // Scaffolding, excluded from every metric: the oracle reference
    // and the pre-seeded store.
    let mut reference = reference(ranks)?;
    preseed(&store_dir, &reference, cfg.seed)?;
    if cfg.corrupt_oracle {
        for (hash, _) in reference.values_mut() {
            *hash ^= 1;
        }
    }

    let run = tracer.enter("run", None, 0);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: Some(store_dir.clone()),
        ..ServeConfig::default()
    };
    let (setup_s, server) = tracer.span("setup", run, 0, |setup| {
        stats::fastest(SETUP_SECONDS, || {
            let t0 = Instant::now();
            let bound = tracer.span("serve.bind", setup, 0, |_| Server::bind(config.clone()));
            let secs = t0.elapsed().as_secs_f64();
            Ok::<_, String>((secs, bound.map_err(|e| format!("bind: {e}"))?))
        })
    })?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let handle = server.handle().map_err(|e| e.to_string())?;
    let daemon = std::thread::spawn(move || server.run());

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(cfg.seconds);
    let ops_span = tracer.enter("ops", run, 0);
    let jobs: Vec<JobOutcome> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| s.spawn(move || client(addr, i, cfg, ranks, deadline, tracer, ops_span)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    tracer.exit(ops_span);
    let wall = started.elapsed().as_secs_f64();
    let rss_peak_mib = stats::rss_peak_mib();

    let cache = handle.registry().cache();
    let (hits, misses) = cache.stats();
    let coalesced = cache.coalesced();
    let disk = cache.disk().map(|d| d.stats()).unwrap_or_default();
    handle.shutdown();
    daemon
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| format!("daemon: {e}"))?;

    // Oracle: every point line's hash equals the in-process sweep's.
    let mut failed = 0;
    for job in &jobs {
        let mismatch = job
            .lines
            .iter()
            .any(|(key, hash)| reference.get(key).map(|r| r.0) != Some(*hash));
        if let Some(e) = &job.error {
            eprintln!("perfbench: serve-mixed job failed: {e}");
        }
        if job.error.is_some() || mismatch {
            failed += 1;
        }
    }

    let ok_points: usize = jobs.iter().map(|j| j.ok_points).sum();
    let ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
    let points_per_s = ok_points as f64 / wall;
    let (best_ms, best_points_per_s) = fastest_jobs(&jobs);
    let mut report = Report {
        attempted: jobs.len() as u64,
        failed,
        setup_s,
        throughput_per_s: best_points_per_s,
        op_ms: best_ms,
        rss_peak_mib,
        ops: jobs
            .iter()
            .map(|j| Op {
                ms: j.ms,
                traced: j.traced,
            })
            .collect(),
        ranks,
        jobs: jobs.len(),
        ..Report::default()
    };
    report.named = vec![
        metric("best_points_per_s", "1/s", best_points_per_s),
        metric("job_best_ms", "ms", best_ms),
        metric("points_per_s", "1/s", points_per_s),
        metric("job_p50_ms", "ms", stats::median(&ms)),
        metric("job_p90_ms", "ms", stats::quantile(&ms, 0.9)),
    ];

    if tracer.is_on() {
        let layers = tracer.enter("layers", run, 0);
        let mut m = probe_layers(
            tracer,
            layers,
            ranks,
            &store_dir,
            &reference,
            &dir.join("probe"),
        )?;
        tracer.exit(layers);
        let traced: Vec<&JobOutcome> = jobs.iter().filter(|j| j.traced).collect();
        let med = |f: &dyn Fn(&JobOutcome) -> f64| {
            stats::median(&traced.iter().map(|j| f(j)).collect::<Vec<_>>())
        };
        m.extend([
            metric("serve.submit_ms", "ms", med(&|j| j.submit_ms)),
            metric("serve.first_line_ms", "ms", med(&|j| j.first_line_ms)),
            metric("serve.stream_ms", "ms", med(&|j| j.stream_ms)),
            metric(
                "serve.queue_wait_ms",
                "ms",
                med(&|j| j.queue_wait_ms.unwrap_or(0.0)),
            ),
            metric(
                "serve.rejected",
                "count",
                jobs.iter().filter(|j| j.rejected).count() as f64,
            ),
            metric("core.sweep.hits", "count", hits as f64),
            metric("core.sweep.misses", "count", misses as f64),
            metric("core.sweep.coalesced", "count", coalesced as f64),
            metric("core.sweep.store.disk_hits", "count", disk.hits as f64),
            metric("core.sweep.store.bytes_read", "B", disk.bytes_read as f64),
            metric(
                "core.sweep.store.bytes_written",
                "B",
                disk.bytes_written as f64,
            ),
            metric("core.sweep.store.corrupt", "count", disk.corrupt as f64),
        ]);
        report.layers = m;
    }
    tracer.exit(run);
    Ok(report)
}
