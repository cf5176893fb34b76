//! Per-process CPU, memory and thread counts from `/proc`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux ABI this benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// utime + stime of `pid` in seconds, if the process is still readable.
pub fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; `rest`
    // starts at field 3.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// One `kB` or count field of `/proc/<pid>/status`.
fn status_field(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    status_field(&pid.to_string(), "VmHWM:").map(|kb| kb / 1024.0)
}

/// Peak resident set size of this process in MB.
pub fn self_peak_rss_mb() -> f64 {
    status_field("self", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Live thread count of `pid`.
pub fn threads(pid: u32) -> Option<f64> {
    status_field(&pid.to_string(), "Threads:")
}

/// utime + stime of this process in seconds.
pub fn self_cpu_s() -> f64 {
    cpu_s(std::process::id()).unwrap_or(0.0)
}

/// Samples the summed CPU time of a fixed set of processes on a
/// background thread until finished.
pub struct CpuSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<(f64, f64)>>>,
}

impl CpuSampler {
    /// Samples `pids` every `every`, timing samples from `t0`.
    pub fn start(pids: Vec<u32>, t0: Instant, every: Duration) -> CpuSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                let cpu: f64 = pids.iter().filter_map(|&p| cpu_s(p)).sum();
                samples.push((t0.elapsed().as_secs_f64(), cpu));
                std::thread::sleep(every);
            }
            samples
        });
        CpuSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops sampling; returns `(seconds since t0, CPU seconds)` pairs.
    pub fn finish(mut self) -> Vec<(f64, f64)> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

/// CPU at time `t`, linearly interpolated between the samples around it.
pub fn cpu_at(samples: &[(f64, f64)], t: f64) -> Option<f64> {
    let i = samples.iter().position(|&(ts, _)| ts >= t)?;
    if i == 0 {
        return (samples[0].0 == t).then_some(samples[0].1);
    }
    let ((t0, c0), (t1, c1)) = (samples[i - 1], samples[i]);
    Some(c0 + (c1 - c0) * (t - t0) / (t1 - t0).max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_is_interpolated_between_samples() {
        let s = [(0.0, 1.0), (1.0, 2.0), (3.0, 3.0)];
        assert_eq!(cpu_at(&s, 0.5), Some(1.5));
        assert_eq!(cpu_at(&s, 2.0), Some(2.5));
        assert_eq!(cpu_at(&s, 0.0), Some(1.0));
        assert_eq!(cpu_at(&s, 4.0), None);
        assert_eq!(cpu_at(&s[1..], 0.5), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_s(pid).is_some());
        assert!(peak_rss_mb(pid).is_some_and(|mb| mb > 0.0));
        assert!(threads(pid).is_some_and(|t| t >= 1.0));
    }
}
