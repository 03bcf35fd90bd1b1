//! The daemon's trace cache: each `(app, rank count)` is traced once
//! and its [`SweepApp`] reused by every later job that sweeps it.
//!
//! The paper traces an application once and replays that trace on many
//! platforms; tracing is by far the dearest step of a submission (tens
//! of milliseconds for a 32-rank app, against microseconds for a store
//! hit). Tracing is deterministic, so a cached run is exactly the run a
//! fresh trace would produce: the trace fingerprint, and with it every
//! point key and output byte, is unchanged.
//!
//! * **Key:** canonical app name and rank count. Callers validate the
//!   spec before they look anything up.
//! * **Misses:** concurrent misses on one key trace once; the other
//!   claimants wait and then hit. A failed trace is not cached (a
//!   waiter retries it).
//! * **Bound:** least-recently-used eviction keeps the resident runs'
//!   estimated heap bytes (`footprint`) within [`TRACE_CACHE_BYTES`].
//!   A run larger than the whole budget is returned but not kept.
//!   Recency is a logical clock, so eviction order depends only on the
//!   sequence of lookups.

use ovlp_core::sweep::SweepApp;
use ovlp_instr::TraceRun;
use ovlp_trace::access::{AccessEvent, ConsumptionLog, ProductionLog};
use ovlp_trace::{Instructions, Record, TransferId};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Byte budget of the trace cache: the sum of the resident runs'
/// `footprint`s never exceeds it. The access logs dominate a run's
/// size: at 32 ranks nas-cg is ~81 MB, pop ~50 MB and sweep3d ~263 MB,
/// so this holds those three at once (a cyclic mix of apps that does
/// not fit would miss on every lookup under LRU).
pub const TRACE_CACHE_BYTES: usize = 512 << 20;

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Estimated heap bytes of one traced run: record vectors, metadata,
/// and the access logs with their per-element vectors and hash-map
/// slots. An estimate of what the run pins, not an allocator count.
fn footprint(run: &TraceRun) -> usize {
    let records: usize = run
        .trace
        .ranks
        .iter()
        .map(|r| r.records.capacity() * size_of::<Record>())
        .sum();
    let meta: usize = run.trace.meta.iter().map(|(k, v)| k.len() + v.len()).sum();
    let elem = size_of::<Option<Instructions>>();
    let event = size_of::<AccessEvent>();
    let access: usize = run
        .access
        .ranks
        .iter()
        .map(|rank| {
            let prods: usize = rank
                .productions
                .values()
                .map(|p| p.last_store.capacity() * elem + p.events.capacity() * event)
                .sum();
            let cons: usize = rank
                .consumptions
                .values()
                .map(|c| c.first_load.capacity() * elem + c.events.capacity() * event)
                .sum();
            // one control byte per hash-map slot
            prods
                + cons
                + rank.productions.capacity() * (size_of::<(TransferId, ProductionLog)>() + 1)
                + rank.consumptions.capacity() * (size_of::<(TransferId, ConsumptionLog)>() + 1)
        })
        .sum();
    records + meta + access
}

/// Counters and gauges of a [`TraceCache`], for `GET /metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Runs resident now.
    pub entries: u64,
    /// Sum of the resident runs' footprints now.
    pub bytes: u64,
}

type Key = (String, usize);

#[derive(Debug)]
enum Slot {
    /// One claimant is tracing this key; others wait for it.
    Tracing,
    Ready {
        app: SweepApp,
        bytes: usize,
        used: u64,
    },
}

#[derive(Debug, Default)]
struct State {
    slots: HashMap<Key, Slot>,
    /// Sum of the `Ready` slots' bytes.
    bytes: usize,
    /// Logical clock stamping each hit and insert.
    clock: u64,
}

/// Bounded, coalescing cache of traced runs (see the module docs).
#[derive(Debug)]
pub struct TraceCache {
    budget: usize,
    state: Mutex<State>,
    settled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for TraceCache {
    fn default() -> TraceCache {
        TraceCache::with_budget(TRACE_CACHE_BYTES)
    }
}

/// Ownership of a key being traced. Dropped unpublished (the trace
/// failed or panicked), it frees the key and wakes the waiters, one of
/// which then traces it.
struct Claim<'a> {
    cache: &'a TraceCache,
    key: Option<Key>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            lock_ok(&self.cache.state).slots.remove(&key);
            self.cache.settled.notify_all();
        }
    }
}

impl TraceCache {
    pub fn new() -> TraceCache {
        TraceCache::default()
    }

    pub(crate) fn with_budget(budget: usize) -> TraceCache {
        TraceCache {
            budget,
            state: Mutex::new(State::default()),
            settled: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cached run of `app` at `ranks`, or — on a miss — the run
    /// `trace` produces, fingerprinted and cached. `app` must be the
    /// canonical name: it is part of the key and names the result.
    pub fn get_or_trace(
        &self,
        app: &str,
        ranks: usize,
        trace: impl FnOnce() -> Result<TraceRun, String>,
    ) -> Result<SweepApp, String> {
        let key = (app.to_string(), ranks);
        let mut state = lock_ok(&self.state);
        loop {
            let tick = state.clock + 1;
            match state.slots.get_mut(&key) {
                Some(Slot::Ready { app, used, .. }) => {
                    *used = tick;
                    let app = app.clone();
                    state.clock = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(app);
                }
                Some(Slot::Tracing) => {
                    state = self.settled.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                None => break,
            }
        }
        state.slots.insert(key.clone(), Slot::Tracing);
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(state);

        let mut claim = Claim {
            cache: self,
            key: Some(key),
        };
        let traced = SweepApp::new(app, trace()?);
        let key = claim.key.take().expect("claim is published once");
        self.publish(key, &traced);
        Ok(traced)
    }

    /// Replace the `Tracing` slot of `key` with the traced run, evicting
    /// least-recently-used runs until the budget holds again.
    fn publish(&self, key: Key, app: &SweepApp) {
        let bytes = footprint(&app.run);
        let mut state = lock_ok(&self.state);
        if bytes > self.budget {
            state.slots.remove(&key);
        } else {
            state.clock += 1;
            let used = state.clock;
            state.slots.insert(
                key,
                Slot::Ready {
                    app: app.clone(),
                    bytes,
                    used,
                },
            );
            state.bytes += bytes;
            // The new run is the most recent, and fits on its own, so
            // the loop stops before reaching it.
            while state.bytes > self.budget {
                let lru = state
                    .slots
                    .iter()
                    .filter_map(|(k, s)| match s {
                        Slot::Ready { used, .. } => Some((*used, k)),
                        Slot::Tracing => None,
                    })
                    .min()
                    .map(|(_, k)| k.clone())
                    .expect("over budget with no resident run");
                if let Some(Slot::Ready { bytes, .. }) = state.slots.remove(&lru) {
                    state.bytes -= bytes;
                }
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(state);
        self.settled.notify_all();
    }

    pub fn stats(&self) -> TraceCacheStats {
        let state = lock_ok(&self.state);
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: state
                .slots
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count() as u64,
            bytes: state.bytes as u64,
        }
    }

    /// Resident keys, least recently used first.
    #[cfg(test)]
    fn resident(&self) -> Vec<Key> {
        let state = lock_ok(&self.state);
        let mut ready: Vec<(u64, Key)> = state
            .slots
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { used, .. } => Some((*used, k.clone())),
                Slot::Tracing => None,
            })
            .collect();
        ready.sort();
        ready.into_iter().map(|(_, k)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovlp_apps::synthetic::{Consumption, PatternApp, Production};
    use std::sync::atomic::AtomicUsize;

    fn run(ranks: usize) -> TraceRun {
        let app = PatternApp {
            elems: 64,
            iters: 2,
            phase_instr: 10_000,
            production: Production::Linear,
            consumption: Consumption::Linear,
        };
        ovlp_instr::trace_app(&app, ranks).unwrap()
    }

    /// Look `ranks` up, tracing on a miss; returns whether it traced.
    fn touch(cache: &TraceCache, ranks: usize) -> bool {
        let traced = std::cell::Cell::new(false);
        cache
            .get_or_trace("pattern", ranks, || {
                traced.set(true);
                Ok(run(ranks))
            })
            .unwrap();
        traced.get()
    }

    fn keys(ranks: &[usize]) -> Vec<Key> {
        ranks.iter().map(|&r| ("pattern".to_string(), r)).collect()
    }

    #[test]
    fn lru_eviction_keeps_the_budget_and_a_deterministic_order() {
        let (f2, f4, f8) = (footprint(&run(2)), footprint(&run(4)), footprint(&run(8)));
        assert!(f2 < f4 && f4 < f8, "{f2} {f4} {f8}");
        // Any two runs fit, all three do not.
        let budget = f4 + f8;
        let replay = || {
            let cache = TraceCache::with_budget(budget);
            let mut trail = Vec::new();
            for ranks in [2, 4, 2, 8, 4, 8, 2] {
                let traced = touch(&cache, ranks);
                let stats = cache.stats();
                assert!(stats.bytes <= budget as u64, "{stats:?}");
                trail.push((ranks, traced, cache.resident()));
            }
            (trail, cache.stats())
        };
        let (trail, stats) = replay();
        assert_eq!(
            trail[2],
            (2, false, keys(&[4, 2])),
            "a hit refreshes recency"
        );
        assert_eq!(trail[3], (8, true, keys(&[2, 8])), "4 was least recent");
        assert_eq!(trail[4], (4, true, keys(&[8, 4])));
        assert_eq!(trail[5], (8, false, keys(&[4, 8])));
        assert_eq!(trail[6], (2, true, keys(&[8, 2])));
        assert_eq!(
            stats,
            TraceCacheStats {
                hits: 2,
                misses: 5,
                evictions: 3,
                entries: 2,
                bytes: (f8 + f2) as u64,
            }
        );
        assert_eq!(replay(), (trail, stats), "same lookups, same evictions");
    }

    #[test]
    fn oversize_runs_are_returned_but_not_cached() {
        let cache = TraceCache::with_budget(footprint(&run(4)) - 1);
        assert!(touch(&cache, 2), "a small run is cached");
        assert!(touch(&cache, 4));
        assert!(touch(&cache, 4), "the oversize run traces again");
        assert!(!touch(&cache, 2), "and evicted nothing");
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (1, 0), "{stats:?}");
        assert_eq!(stats.bytes, footprint(&run(2)) as u64);
    }

    #[test]
    fn failed_and_panicked_traces_are_not_cached() {
        let cache = TraceCache::new();
        let err = cache
            .get_or_trace("pattern", 4, || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_trace("pattern", 4, || panic!("trace panicked"))
        }));
        assert!(panicked.is_err());
        assert!(touch(&cache, 4), "the key is free again and traces");
        assert!(!touch(&cache, 4));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 1));
    }

    #[test]
    fn concurrent_misses_on_one_key_trace_once() {
        let cache = TraceCache::new();
        let traces = AtomicUsize::new(0);
        let (started, tracing) = std::sync::mpsc::channel();
        let (go, release) = std::sync::mpsc::channel::<()>();
        let release = std::sync::Mutex::new(release);
        let lookup = || {
            cache
                .get_or_trace("pattern", 4, || {
                    traces.fetch_add(1, Ordering::SeqCst);
                    started.send(()).unwrap();
                    release.lock().unwrap().recv().unwrap();
                    Ok(run(4))
                })
                .unwrap()
                .fingerprint()
        };
        let fingerprints: Vec<u64> = std::thread::scope(|s| {
            let first = s.spawn(lookup);
            // The key is being traced before the other three look it
            // up: each of them waits for that trace or hits its result.
            tracing.recv().unwrap();
            let rest: Vec<_> = (0..3).map(|_| s.spawn(lookup)).collect();
            go.send(()).unwrap();
            std::iter::once(first)
                .chain(rest)
                .map(|w| w.join().unwrap())
                .collect()
        });
        assert_eq!(traces.load(Ordering::SeqCst), 1);
        assert!(fingerprints.windows(2).all(|w| w[0] == w[1]));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (3, 1));
    }
}
