//! Job registry and execution for the sweep daemon.
//!
//! A job is one submitted [`SweepSpec`]: its grid is evaluated once on
//! a dedicated runner thread (admission-gated, so at most
//! `max_running` sweeps execute concurrently; later submissions queue)
//! and every per-point outcome is recorded as it completes, waking any
//! streaming readers. Readers emit points in **canonical grid order**
//! — a point is streamed once all earlier points are done — so the
//! NDJSON stream for a given job is byte-deterministic even though
//! workers finish out of order.
//!
//! Cross-job dedup happens one layer down, in the shared
//! [`SweepCache`]: completed points are served from the store forever,
//! and identical points of *concurrently running* jobs coalesce onto a
//! single in-flight computation. The traced runs the grids replay come
//! from the registry's [`TraceCache`], so an app is traced once per
//! rank count, not once per job.
//!
//! The registry keeps every unfinished job and the newest
//! [`RETAINED_JOBS`] finished ones. Older finished jobs are *retired*:
//! forgotten (their ids answer `410 Gone`) and their sealed journals
//! deleted, oldest first, so the newest journal always survives to
//! carry the id high-water mark across a restart.

use crate::journal::{JobEnd, Journal};
use crate::json::{Obj, Value};
use crate::spec::{SpecError, SweepSpec};
use crate::traces::TraceCache;
use ovlp_core::sweep::guard::PointGuard;
use ovlp_core::sweep::{sweep_observed, PointOutcome, SweepCache, SweepGrid};
use ovlp_machine::Blame;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wire schema of one streamed point line.
pub const POINT_SCHEMA: &str = "ovlp.sweep-point.v1";
/// Wire schema of the stream-terminating line.
pub const DONE_SCHEMA: &str = "ovlp.sweep-done.v1";
/// Wire schema of the job summary document.
pub const SUMMARY_SCHEMA: &str = "ovlp.sweep-summary.v1";

/// Finished jobs the registry keeps for lookup; older finished jobs
/// are retired.
pub const RETAINED_JOBS: usize = 1024;

/// Counting gate bounding concurrent sweep executions.
#[derive(Debug)]
struct Gate {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate {
            slots: Mutex::new(slots.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut slots = lock_ok(&self.slots);
        while *slots == 0 {
            slots = self.freed.wait(slots).unwrap_or_else(|e| e.into_inner());
        }
        *slots -= 1;
    }

    fn release(&self) {
        *lock_ok(&self.slots) += 1;
        self.freed.notify_one();
    }
}

#[derive(Debug, Default)]
struct JobState {
    /// One slot per grid point, filled as workers finish.
    outcomes: Vec<Option<PointOutcome>>,
    completed: usize,
    /// The full textual report, present once the sweep finished —
    /// byte-identical to what `ovlp sweep` prints.
    report: Option<String>,
    /// `(store_hits, store_misses, coalesced)` deltas over this job's
    /// execution. Exact when no other job ran concurrently; otherwise
    /// attribution between overlapping jobs is approximate (the global
    /// `/v1/store/stats` counters are always exact).
    cache_delta: Option<(u64, u64, u64)>,
    elapsed: Option<Duration>,
}

/// One submitted sweep job.
#[derive(Debug)]
pub struct Job {
    pub id: String,
    pub spec: SweepSpec,
    points: usize,
    state: Mutex<JobState>,
    progress: Condvar,
    /// Shared with the sweep via [`SweepConfig::cancel`]: once set,
    /// uncomputed points short-circuit to `FailKind::Cancelled` and the
    /// job drains its slot quickly.
    cancel: Arc<AtomicBool>,
    /// Streaming readers currently attached to this job.
    readers: AtomicUsize,
}

impl Job {
    pub fn points(&self) -> usize {
        self.points
    }

    /// Ask the running sweep to stop computing points it has not
    /// started. Already-computed points stay recorded (and stored).
    pub fn request_cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }

    pub fn reader_attached(&self) {
        self.readers.fetch_add(1, Ordering::SeqCst);
    }

    /// Detach one streaming reader; returns how many remain.
    pub fn reader_detached(&self) -> usize {
        self.readers.fetch_sub(1, Ordering::SeqCst) - 1
    }

    fn record(&self, index: usize, outcome: &PointOutcome) {
        let mut state = lock_ok(&self.state);
        if state.outcomes[index].is_none() {
            state.outcomes[index] = Some(outcome.clone());
            state.completed += 1;
        }
        self.progress.notify_all();
    }

    /// Block until point `index` has an outcome, then return it.
    pub fn wait_point(&self, index: usize) -> PointOutcome {
        let mut state = lock_ok(&self.state);
        loop {
            if let Some(outcome) = &state.outcomes[index] {
                return outcome.clone();
            }
            state = self.progress.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Block until the sweep finished, then return the full report.
    pub fn wait_report(&self) -> String {
        let mut state = lock_ok(&self.state);
        loop {
            if let Some(report) = &state.report {
                return report.clone();
            }
            state = self.progress.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn is_done(&self) -> bool {
        lock_ok(&self.state).report.is_some()
    }

    /// Counts of (ok, failed) among completed points so far.
    fn counts(&self) -> (usize, usize) {
        let state = lock_ok(&self.state);
        let ok = state
            .outcomes
            .iter()
            .flatten()
            .filter(|o| o.is_ok())
            .count();
        (ok, state.completed - ok)
    }

    /// The `ovlp.sweep-summary.v1` document for this job.
    pub fn summary(&self) -> String {
        let (ok, failed) = self.counts();
        let state = lock_ok(&self.state);
        let mut o = Obj::new();
        o.set("schema", Value::str(SUMMARY_SCHEMA));
        o.set("job", Value::str(&self.id));
        o.set("points", Value::Num(self.points as f64));
        o.set("completed", Value::Num(state.completed as f64));
        o.set("ok", Value::Num(ok as f64));
        o.set("failed", Value::Num(failed as f64));
        o.set("done", Value::Bool(state.report.is_some()));
        o.set("cancelled", Value::Bool(self.cancelled()));
        if let Some((hits, misses, coalesced)) = state.cache_delta {
            o.set("store_hits", Value::Num(hits as f64));
            o.set("store_misses", Value::Num(misses as f64));
            o.set("coalesced", Value::Num(coalesced as f64));
        }
        if let Some(elapsed) = state.elapsed {
            o.set("elapsed_ms", Value::Num(elapsed.as_secs_f64() * 1e3));
        }
        Value::Obj(o).to_string()
    }
}

/// NDJSON line for one completed point, in wire schema
/// `ovlp.sweep-point.v1`. Deterministic: exact bit patterns of the
/// runtimes are carried alongside the decimal rendering.
pub fn point_line(index: usize, outcome: &PointOutcome) -> String {
    let mut o = Obj::new();
    o.set("schema", Value::str(POINT_SCHEMA));
    o.set("index", Value::Num(index as f64));
    match outcome {
        Ok(r) => {
            o.set("app", Value::str(&r.app));
            o.set("platform", Value::Num(r.point.platform as f64));
            o.set("policy", Value::Num(r.point.policy as f64));
            o.set("key", Value::str(format!("{:016x}", r.key.0)));
            o.set("t_original", Value::Num(r.t_original));
            o.set("t_overlapped", Value::Num(r.t_overlapped));
            o.set("t_ideal", Value::Num(r.t_ideal));
            o.set(
                "bits",
                Value::str(format!(
                    "{:016x}:{:016x}:{:016x}",
                    r.t_original.to_bits(),
                    r.t_overlapped.to_bits(),
                    r.t_ideal.to_bits()
                )),
            );
            o.set("hash", Value::str(format!("{:016x}", r.result_hash())));
            if let Some(cp) = &r.critpaths {
                // Compact per-variant blame attribution, present only
                // when the job's spec asked for `critpath`. Totals come
                // from exact expansion sums, so the values (and the
                // line bytes) are engine- and jobs-invariant.
                let mut c = Obj::new();
                for (label, path) in cp.labelled() {
                    let mut v = Obj::new();
                    v.set("runtime_s", Value::Num(path.runtime.as_secs()));
                    v.set("exact", Value::Bool(path.exact));
                    for b in Blame::ALL {
                        let t = path.total(b);
                        if t != 0.0 {
                            v.set(b.name(), Value::Num(t));
                        }
                    }
                    c.set(label, Value::Obj(v));
                }
                o.set("critpath", Value::Obj(c));
            }
        }
        Err(e) => {
            o.set("platform", Value::Num(e.point.platform as f64));
            o.set("policy", Value::Num(e.point.policy as f64));
            o.set("kind", Value::str(e.kind.name()));
            o.set("error", Value::str(&e.message));
        }
    }
    Value::Obj(o).to_string()
}

/// Stream-terminating NDJSON line (`ovlp.sweep-done.v1`). Carries only
/// deterministic counts, so two streams of the same job are
/// byte-identical end to end, whether their points were computed,
/// store-served, or coalesced.
pub fn done_line(points: usize, ok: usize, failed: usize) -> String {
    let mut o = Obj::new();
    o.set("schema", Value::str(DONE_SCHEMA));
    o.set("points", Value::Num(points as f64));
    o.set("ok", Value::Num(ok as f64));
    o.set("failed", Value::Num(failed as f64));
    Value::Obj(o).to_string()
}

/// Daemon-lifetime counters behind `GET /metrics`. All monotonic
/// except `jobs_running`, which is the live gauge of sweeps currently
/// holding an execution slot.
#[derive(Debug, Default)]
pub struct DaemonMetrics {
    pub jobs_submitted: AtomicU64,
    pub jobs_running: AtomicU64,
    pub jobs_completed: AtomicU64,
    pub points_completed: AtomicU64,
    pub connections_admitted: AtomicU64,
    pub connections_rejected: AtomicU64,
    /// Live gauge of connections currently holding a handler thread.
    pub connections_active: AtomicU64,
    pub jobs_cancelled: AtomicU64,
    pub jobs_resumed: AtomicU64,
    pub journal_points_replayed: AtomicU64,
    pub client_disconnects: AtomicU64,
    pub jobs_rejected_draining: AtomicU64,
    /// Variant bundles transformed by job sweeps (none for a job whose
    /// points all hit the cache).
    pub bundles_built: AtomicU64,
    pub jobs_retired: AtomicU64,
}

/// Retained jobs. Finished jobs beyond the newest `keep` are retired.
#[derive(Debug)]
struct Table {
    jobs: HashMap<String, Arc<Job>>,
    /// Retained ids by registration sequence.
    order: BTreeMap<u64, String>,
    /// Registration sequences of the retained finished jobs.
    finished: BTreeSet<u64>,
    next_seq: u64,
    keep: usize,
}

impl Table {
    /// Retain `job`; returns its registration sequence.
    fn insert(&mut self, job: Arc<Job>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.order.insert(seq, job.id.clone());
        self.jobs.insert(job.id.clone(), job);
        seq
    }

    /// Mark job `seq` finished and retire the oldest finished jobs
    /// beyond `keep`; returns the retired ids.
    fn finish(&mut self, seq: u64) -> Vec<String> {
        self.finished.insert(seq);
        let mut retired = Vec::new();
        while self.finished.len() > self.keep {
            let Some(oldest) = self.finished.pop_first() else {
                break;
            };
            if let Some(id) = self.order.remove(&oldest) {
                self.jobs.remove(&id);
                retired.push(id);
            }
        }
        retired
    }
}

/// What a job id names, for the lookup routes.
pub(crate) enum Lookup {
    Live(Arc<Job>),
    /// Issued by this daemon (or a previous one on the same journal)
    /// but no longer retained: `410 Gone`.
    Retired,
    /// Never issued: `404 Not Found`.
    Unknown,
}

/// The daemon's job table: submission, lookup, bounded execution.
pub struct Registry {
    cache: Arc<SweepCache>,
    traces: TraceCache,
    table: Arc<Mutex<Table>>,
    next_id: AtomicU64,
    gate: Arc<Gate>,
    metrics: Arc<DaemonMetrics>,
    guard: Arc<PointGuard>,
    journal: Option<Arc<Journal>>,
    draining: AtomicBool,
}

impl Registry {
    /// `max_running` bounds concurrently *executing* sweeps; further
    /// submissions are accepted and queue for a slot.
    pub fn new(cache: Arc<SweepCache>, max_running: usize) -> Registry {
        Registry {
            cache,
            traces: TraceCache::new(),
            table: Arc::new(Mutex::new(Table {
                jobs: HashMap::new(),
                order: BTreeMap::new(),
                finished: BTreeSet::new(),
                next_seq: 0,
                keep: RETAINED_JOBS,
            })),
            next_id: AtomicU64::new(1),
            gate: Arc::new(Gate::new(max_running)),
            metrics: Arc::new(DaemonMetrics::default()),
            guard: Arc::new(PointGuard::default()),
            journal: None,
            draining: AtomicBool::new(false),
        }
    }

    /// Replace the default point guard (retry/deadline/quarantine
    /// policy, optionally chaos-armed).
    pub fn with_guard(mut self, guard: Arc<PointGuard>) -> Registry {
        self.guard = guard;
        self
    }

    /// Attach a write-ahead journal; submissions and per-point progress
    /// are recorded, enabling [`Registry::recover`] after a restart.
    pub fn with_journal(mut self, journal: Journal) -> Registry {
        self.journal = Some(Arc::new(journal));
        self
    }

    /// Keep `keep` finished jobs instead of [`RETAINED_JOBS`].
    #[cfg(test)]
    fn with_retention(self, keep: usize) -> Registry {
        lock_ok(&self.table).keep = keep;
        self
    }

    pub fn cache(&self) -> &Arc<SweepCache> {
        &self.cache
    }

    pub fn traces(&self) -> &TraceCache {
        &self.traces
    }

    pub fn metrics(&self) -> &Arc<DaemonMetrics> {
        &self.metrics
    }

    pub fn guard(&self) -> &Arc<PointGuard> {
        &self.guard
    }

    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Stop admitting jobs; existing jobs keep running to completion.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Jobs that have not finished their grid yet.
    pub fn unfinished(&self) -> usize {
        lock_ok(&self.table)
            .jobs
            .values()
            .filter(|j| !j.is_done())
            .count()
    }

    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        lock_ok(&self.table).jobs.get(id).cloned()
    }

    /// Resolve `id`: a retained job, an issued id that is no longer
    /// retained, or an id never issued. Issued ids are `j1` up to the
    /// last one handed out, in canonical decimal.
    pub(crate) fn lookup(&self, id: &str) -> Lookup {
        if let Some(job) = self.get(id) {
            return Lookup::Live(job);
        }
        let issued = id
            .strip_prefix('j')
            .and_then(|n| n.parse::<u64>().ok())
            .is_some_and(|n| {
                n >= 1 && format!("j{n}") == id && n < self.next_id.load(Ordering::Relaxed)
            });
        if issued {
            Lookup::Retired
        } else {
            Lookup::Unknown
        }
    }

    /// Retained job ids in submission order (for the index endpoint).
    pub fn ids(&self) -> Vec<String> {
        lock_ok(&self.table).order.values().cloned().collect()
    }

    /// Validate, register, and start (or queue) a job. Returns the job
    /// immediately — results stream as they complete.
    pub fn submit(&self, spec: SweepSpec) -> Result<Arc<Job>, SpecError> {
        self.register(spec, None)
    }

    /// Re-register journaled jobs that never ended. Completed points
    /// replay from the store (byte-identical by the determinism
    /// contract), so a resumed job only computes what the crashed run
    /// missed. Ended jobs are left at rest: their results remain
    /// store-served, but the job objects are not re-materialized, and
    /// their sealed journals are deleted except the newest one, which
    /// keeps the id high-water mark. Returns
    /// `(jobs resumed, journaled points replayed)`.
    pub fn recover(&self) -> (u64, u64) {
        let Some(journal) = &self.journal else {
            return (0, 0);
        };
        let journaled = journal.scan().unwrap_or_default();
        // Never reissue an id that a journaled job already owns.
        let max_id = journaled
            .iter()
            .filter_map(|j| j.id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()))
            .max()
            .unwrap_or(0);
        self.next_id.fetch_max(max_id + 1, Ordering::Relaxed);
        let newest = format!("j{max_id}");
        let (mut resumed, mut replayed) = (0u64, 0u64);
        for job in journaled {
            if job.end.is_some() {
                if job.id != newest {
                    let _ = journal.remove(&job.id);
                }
                continue;
            }
            replayed += job.done.len() as u64;
            if self.register(job.spec, Some(job.id)).is_ok() {
                resumed += 1;
            }
        }
        self.metrics
            .jobs_resumed
            .fetch_add(resumed, Ordering::Relaxed);
        self.metrics
            .journal_points_replayed
            .fetch_add(replayed, Ordering::Relaxed);
        (resumed, replayed)
    }

    fn register(&self, spec: SweepSpec, resume_id: Option<String>) -> Result<Arc<Job>, SpecError> {
        // Build eagerly so malformed jobs are rejected at submission
        // (HTTP 400) instead of surfacing asynchronously.
        let (grid, mut config) = spec.build_cached(&self.traces)?;
        let cancel = Arc::new(AtomicBool::new(false));
        config.guard = Some(Arc::clone(&self.guard));
        config.cancel = Some(Arc::clone(&cancel));
        let id = resume_id
            .unwrap_or_else(|| format!("j{}", self.next_id.fetch_add(1, Ordering::Relaxed)));
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            points: grid.len(),
            state: Mutex::new(JobState {
                outcomes: vec![None; grid.len()],
                ..JobState::default()
            }),
            progress: Condvar::new(),
            cancel,
            readers: AtomicUsize::new(0),
        });
        if let Some(journal) = &self.journal {
            // Best-effort: a journal write failure degrades crash
            // recovery, never the job itself.
            let _ = journal.record_submit(&id, &job.spec, job.points);
        }
        let seq = lock_ok(&self.table).insert(Arc::clone(&job));
        self.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);

        let cache = Arc::clone(&self.cache);
        let gate = Arc::clone(&self.gate);
        let metrics = Arc::clone(&self.metrics);
        let journal = self.journal.clone();
        let table = Arc::clone(&self.table);
        let runner = Arc::clone(&job);
        std::thread::spawn(move || {
            run_job(
                runner,
                grid,
                config,
                cache,
                gate,
                Arc::clone(&metrics),
                journal.clone(),
            );
            retire(&table, seq, journal.as_deref(), &metrics);
        });
        Ok(job)
    }
}

fn run_job(
    job: Arc<Job>,
    grid: SweepGrid,
    config: ovlp_core::sweep::SweepConfig,
    cache: Arc<SweepCache>,
    gate: Arc<Gate>,
    metrics: Arc<DaemonMetrics>,
    journal: Option<Arc<Journal>>,
) {
    gate.acquire();
    metrics.jobs_running.fetch_add(1, Ordering::Relaxed);
    let (hits0, misses0) = cache.stats();
    let coalesced0 = cache.coalesced();
    let report = sweep_observed(&grid, &config, &cache, &|i, outcome| {
        job.record(i, outcome);
        metrics.points_completed.fetch_add(1, Ordering::Relaxed);
        if outcome.is_ok() {
            // Journal *after* the store write (inside the sweep), so a
            // journaled point is always durable.
            if let Some(journal) = &journal {
                let _ = journal.record_point(&job.id, i);
            }
        }
    });
    let (hits1, misses1) = cache.stats();
    let coalesced1 = cache.coalesced();
    metrics
        .bundles_built
        .fetch_add(report.bundles_built, Ordering::Relaxed);
    let rendered = report.render_full(&grid);
    // Seal the journal and counters *before* publishing the report:
    // anyone woken by `done` (summaries, drains, tests) then sees the
    // final state, and a crash after this line resumes as a no-op.
    let end = if job.cancelled() {
        metrics.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        JobEnd::Cancelled
    } else {
        JobEnd::Complete
    };
    if let Some(journal) = &journal {
        let _ = journal.record_end(&job.id, end);
    }
    {
        let mut state = lock_ok(&job.state);
        state.cache_delta = Some((hits1 - hits0, misses1 - misses0, coalesced1 - coalesced0));
        state.elapsed = Some(report.elapsed);
        state.report = Some(rendered);
    }
    job.progress.notify_all();
    metrics.jobs_running.fetch_sub(1, Ordering::Relaxed);
    metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
    gate.release();
}

/// Mark the job registered as `seq` finished, retire the finished jobs
/// beyond the retention, and delete their journals (outside the table
/// lock: that is file I/O).
fn retire(table: &Mutex<Table>, seq: u64, journal: Option<&Journal>, metrics: &DaemonMetrics) {
    let retired = lock_ok(table).finish(seq);
    for id in retired {
        if let Some(journal) = journal {
            let _ = journal.remove(&id);
        }
        metrics.jobs_retired.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("nas-cg", 4);
        spec.chunks = vec![1, 4];
        spec.jobs = 2;
        spec
    }

    #[test]
    fn submitted_jobs_run_and_stream_in_order() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let job = registry.submit(quick_spec()).unwrap();
        assert_eq!(job.points(), 2);
        // points arrive in canonical order via wait_point
        for i in 0..job.points() {
            let outcome = job.wait_point(i);
            assert!(outcome.is_ok(), "{outcome:?}");
        }
        let report = job.wait_report();
        assert!(report.contains("2 points (2 ok, 0 failed)"), "{report}");
        assert!(job.is_done());
        let summary = job.summary();
        assert!(summary.contains("\"done\":true"), "{summary}");
        assert!(summary.contains("\"store_misses\":2"), "{summary}");
        assert_eq!(registry.ids(), vec![job.id.clone()]);
        assert!(registry.get(&job.id).is_some());
        assert!(registry.get("j999").is_none());
    }

    #[test]
    fn resubmission_is_all_store_hits() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let first = registry.submit(quick_spec()).unwrap();
        let report1 = first.wait_report();
        let second = registry.submit(quick_spec()).unwrap();
        let report2 = second.wait_report();
        assert_eq!(report1, report2, "byte-identical reports");
        assert!(
            second.summary().contains("\"store_hits\":2"),
            "{}",
            second.summary()
        );
        assert!(
            second.summary().contains("\"store_misses\":0"),
            "{}",
            second.summary()
        );
        // identical NDJSON streams, line by line
        for i in 0..first.points() {
            assert_eq!(
                point_line(i, &first.wait_point(i)),
                point_line(i, &second.wait_point(i))
            );
        }
    }

    fn one_point_spec() -> SweepSpec {
        let mut spec = SweepSpec::new("nas-cg", 4);
        spec.chunks = vec![1];
        spec
    }

    #[test]
    fn retention_never_retires_an_unfinished_job() {
        let mut table = Table {
            jobs: HashMap::new(),
            order: BTreeMap::new(),
            finished: BTreeSet::new(),
            next_seq: 0,
            keep: 2,
        };
        let seqs: Vec<u64> = (1..=5)
            .map(|n| {
                table.insert(Arc::new(Job {
                    id: format!("j{n}"),
                    spec: one_point_spec(),
                    points: 1,
                    state: Mutex::default(),
                    progress: Condvar::new(),
                    cancel: Arc::default(),
                    readers: AtomicUsize::new(0),
                }))
            })
            .collect();
        // j1 stays unfinished throughout; the others finish in order.
        assert!(table.finish(seqs[1]).is_empty());
        assert!(table.finish(seqs[2]).is_empty());
        assert_eq!(table.finish(seqs[3]), ["j2"], "oldest finished first");
        assert_eq!(table.finish(seqs[4]), ["j3"]);
        let ids: Vec<&String> = table.order.values().collect();
        assert_eq!(ids, ["j1", "j4", "j5"], "unfinished j1 is kept");
        assert_eq!(
            table.finish(seqs[0]),
            ["j1"],
            "once finished, it is the oldest"
        );
        assert_eq!(table.jobs.len(), 2);
    }

    #[test]
    fn retiring_deletes_journals_and_a_restart_issues_fresh_ids() {
        let dir = std::env::temp_dir().join(format!("ovlp-retention-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journaled = || {
            Registry::new(Arc::new(SweepCache::new()), 2)
                .with_journal(Journal::open(&dir).unwrap())
                .with_retention(2)
        };
        let registry = journaled();
        for _ in 0..4 {
            registry.submit(one_point_spec()).unwrap().wait_report();
        }
        // Retirement follows the report; wait for the second one.
        while registry.metrics().jobs_retired.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        assert_eq!(registry.ids(), ["j3", "j4"]);
        assert!(matches!(registry.lookup("j1"), Lookup::Retired));
        assert!(matches!(registry.lookup("j4"), Lookup::Live(_)));
        for never in ["j5", "j0", "j01", "x1", ""] {
            assert!(matches!(registry.lookup(never), Lookup::Unknown), "{never}");
        }
        let journal = |id: &str| dir.join(format!("{id}.journal")).exists();
        assert!(
            !journal("j1") && !journal("j2"),
            "retiring deletes journals"
        );
        assert!(journal("j3") && journal("j4"));
        drop(registry);

        // The newest journal survives compaction and keeps the id
        // high-water mark: the next job is j5, and j2 is still gone.
        let restarted = journaled();
        assert_eq!(restarted.recover(), (0, 0));
        assert!(!journal("j3") && journal("j4"));
        assert!(matches!(restarted.lookup("j2"), Lookup::Retired));
        let fresh = restarted.submit(one_point_spec()).unwrap();
        assert_eq!(fresh.id, "j5");
        fresh.wait_report();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_jobs_are_rejected_at_submission() {
        let registry = Registry::new(Arc::new(SweepCache::new()), 2);
        let err = registry
            .submit(SweepSpec::new("no-such-app", 4))
            .unwrap_err();
        assert!(matches!(err, SpecError::Usage(_)));
        assert!(registry.ids().is_empty());
    }
}
