//! Sample statistics and process/environment facts.

use std::process::Command;
use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A Linux `cpu_set_t`: one bit per processor, 1024 processors.
type CpuSet = [u64; 16];

fn affinity() -> Option<CpuSet> {
    let mut set = [0; 16];
    // SAFETY: `set` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    (rc == 0).then_some(set)
}

fn set_affinity(set: &CpuSet) {
    // SAFETY: `set` is a readable buffer of the size passed; pid 0 is
    // the calling thread. A refused mask leaves the affinity as it was,
    // which only makes the sampling less thorough.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) };
}

/// Restores the calling thread's processor affinity when dropped.
struct Unpin(Option<CpuSet>);

impl Drop for Unpin {
    fn drop(&mut self) {
        if let Some(set) = &self.0 {
            set_affinity(set);
        }
    }
}

/// Repeat `sample`, which returns its own time in seconds and an
/// output, for `seconds` in all (at least once on each processor),
/// pinned to each processor this thread may use in turn: on a shared
/// host one processor can be slowed for seconds while the other is
/// not. Returns the fastest time and the last output.
pub fn fastest<T, E>(
    seconds: f64,
    mut sample: impl FnMut() -> Result<(f64, T), E>,
) -> Result<(f64, T), E> {
    let unpin = Unpin(affinity());
    let cpus: Vec<Option<usize>> = match &unpin.0 {
        Some(set) => (0..64 * set.len())
            .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
            .map(Some)
            .collect(),
        None => vec![None],
    };
    let share = Duration::from_secs_f64(seconds / cpus.len().max(1) as f64);
    let (mut best, mut out) = (f64::INFINITY, None);
    for cpu in cpus {
        if let Some(c) = cpu {
            let mut one: CpuSet = [0; 16];
            one[c / 64] = 1 << (c % 64);
            set_affinity(&one);
        }
        let deadline = Instant::now() + share;
        loop {
            let (secs, next) = sample()?;
            best = best.min(secs);
            out = Some(next);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    drop(unpin);
    Ok((best, out.expect("sampled at least once")))
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of `program args…`'s standard output, or `"unknown"`
/// when the program is missing or fails (the benchmark may run from a
/// plain file tree, not a git checkout).
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(rss_peak_mib() > 0.0);
    }
}
