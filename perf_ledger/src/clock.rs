//! Time and process accounting: a monotonic nanosecond clock the load
//! generator can be tested against, process CPU time from the scheduler
//! statistics under `/proc/self/task` (or `/proc/self/stat`), and peak
//! resident memory from `/proc/self/status`.

use std::time::Instant;

/// Wall time and this process's CPU time, both in nanoseconds from an
/// arbitrary origin. The load generator is generic over it so the
/// open-loop scheduler can be tested against a fake.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// CPU time the whole process (all threads) has used.
    fn cpu_ns(&self) -> u64;
}

/// The wall clock, counted from its own creation.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn cpu_ns(&self) -> u64 {
        process_cpu_ns()
    }
}

/// Kernel clock ticks per second for `utime`/`stime`; `USER_HZ` is 100 on
/// every Linux ABI this runs on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads) from the
/// text of `/proc/<pid>/stat`. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// `VmHWM` (peak resident set) in MiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds a thread has run, from the text of its
/// `/proc/<pid>/task/<tid>/schedstat` (the first field).
pub fn parse_schedstat_run_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// Run time of every live thread, summed — exact to the nanosecond,
/// where `/proc/self/stat` counts 10 ms ticks sampled at the timer
/// interrupt, too coarse for a 100 ms slice. `None` on a kernel that
/// keeps no scheduler statistics.
fn schedstat_cpu_ns() -> Option<u64> {
    let mut total = None;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let text = std::fs::read_to_string(task.path().join("schedstat")).ok();
        if let Some(ns) = text.as_deref().and_then(parse_schedstat_run_ns) {
            total = Some(total.unwrap_or(0) + ns);
        }
    }
    total
}

/// CPU time this process (all threads) has used so far, ns: from the
/// scheduler statistics where the kernel keeps them, else from
/// `/proc/self/stat`; `0` where `/proc` is missing (the metric then reads
/// zero instead of failing the run).
pub fn process_cpu_ns() -> u64 {
    schedstat_cpu_ns().unwrap_or_else(|| {
        let seconds = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat_cpu_seconds(&s))
            .unwrap_or(0.0);
        (seconds * 1e9) as u64
    })
}

/// Peak resident memory of this process in MiB; `0.0` without `/proc`.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_peak_rss_mib(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_command() {
        let stat = "4242 (perf) ledger (x)) R 1 4242 4242 0 -1 4194304 250 0 0 0 \
                    1234 66 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("no paren here"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn schedstat_parsing_reads_the_run_time() {
        assert_eq!(parse_schedstat_run_ns("723093 74390 2\n"), Some(723_093));
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn status_parsing_reads_vmhwm() {
        let status = "Name:\tperf_ledger\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_status_peak_rss_mib(status), Some(20.0));
        assert_eq!(parse_status_peak_rss_mib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(peak_rss_mib() >= 0.0);
        let clock = WallClock::start();
        let (wall, cpu) = (clock.now_ns(), clock.cpu_ns());
        assert!(clock.now_ns() >= wall);
        assert!(clock.cpu_ns() >= cpu);
    }
}
