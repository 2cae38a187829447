//! `/proc/self` readers: CPU time per thread, context switches, peak RSS.
//! The parsers take the file text so tests can feed them fixtures.

use std::fs;

/// On-CPU nanoseconds from a `schedstat` line (`run_ns wait_ns slices`).
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The numeric value of a `Key:\t value [kB]` line of a `status` file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `(utime, stime)` in clock ticks from a `stat` line. The command name
/// may contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat_ticks(text: &str) -> Option<(u64, u64)> {
    let after = &text[text.rfind(')')? + 1..];
    let mut fields = after.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// Process-wide usage, summed over every live thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcUsage {
    /// On-CPU nanoseconds of all threads (`task/*/schedstat`).
    pub cpu_ns: u64,
    /// On-CPU nanoseconds of the calling thread alone.
    pub self_cpu_ns: u64,
    /// Voluntary context switches of all threads.
    pub voluntary: u64,
    /// Involuntary context switches of all threads.
    pub involuntary: u64,
    /// User-mode clock ticks of the process.
    pub utime_ticks: u64,
    /// Kernel-mode clock ticks of the process.
    pub stime_ticks: u64,
}

impl ProcUsage {
    /// Reads the current totals. A thread that exits between the directory
    /// listing and the read is skipped; the threads the benchmark measures
    /// live for the whole workload.
    pub fn read() -> ProcUsage {
        let mut usage = ProcUsage::default();
        if let Ok(tasks) = fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let dir = task.path();
                if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                    usage.cpu_ns += parse_schedstat_run_ns(&text).unwrap_or(0);
                }
                if let Ok(text) = fs::read_to_string(dir.join("status")) {
                    usage.voluntary +=
                        parse_status_field(&text, "voluntary_ctxt_switches").unwrap_or(0);
                    usage.involuntary +=
                        parse_status_field(&text, "nonvoluntary_ctxt_switches").unwrap_or(0);
                }
            }
        }
        if let Ok(text) = fs::read_to_string("/proc/thread-self/schedstat") {
            usage.self_cpu_ns = parse_schedstat_run_ns(&text).unwrap_or(0);
        }
        if let Ok(text) = fs::read_to_string("/proc/self/stat") {
            if let Some((u, s)) = parse_stat_ticks(&text) {
                usage.utime_ticks = u;
                usage.stime_ticks = s;
            }
        }
        usage
    }

    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &ProcUsage) -> ProcUsage {
        ProcUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            self_cpu_ns: self.self_cpu_ns.saturating_sub(earlier.self_cpu_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_status_field(&text, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_takes_the_first_field() {
        assert_eq!(
            parse_schedstat_run_ns("509676755 8397541 34\n"),
            Some(509_676_755)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
        assert_eq!(parse_schedstat_run_ns("x 1 2"), None);
    }

    #[test]
    fn status_fields_by_exact_key() {
        let status = "Name:\tbh-benchmark\nVmPeak:\t  999 kB\nVmHWM:\t    1772 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(1772));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(12)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn stat_ticks_survive_a_hostile_command_name() {
        let stat = "5411 (a b) c) R 5405 5411 5405 0 -1 4194304 82 0 0 0 50 7 0 0 20 0 1 0 4817078";
        assert_eq!(parse_stat_ticks(stat), Some((50, 7)));
        assert_eq!(parse_stat_ticks("no paren"), None);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = ProcUsage {
            cpu_ns: 10,
            self_cpu_ns: 4,
            voluntary: 3,
            involuntary: 1,
            utime_ticks: 5,
            stime_ticks: 2,
        };
        let b = ProcUsage {
            cpu_ns: 25,
            self_cpu_ns: 9,
            voluntary: 10,
            involuntary: 1,
            utime_ticks: 9,
            stime_ticks: 8,
        };
        let d = b.since(&a);
        assert_eq!(
            (
                d.cpu_ns,
                d.self_cpu_ns,
                d.voluntary,
                d.involuntary,
                d.utime_ticks,
                d.stime_ticks
            ),
            (15, 5, 7, 0, 4, 6)
        );
    }
}
