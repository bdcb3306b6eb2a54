//! Readers for the Linux `/proc` counters the benchmark accounts with:
//! process CPU time, per-thread CPU time, host steal, and resident
//! memory. The parsers take text so they can be tested on fixed strings.

use std::fs;

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    /// Guest time is left out: the kernel already counts it in user.
    pub total: u64,
    /// Time the hypervisor ran something else while this machine's
    /// virtual CPUs wanted to run.
    pub steal: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_machine_cpu(text: &str) -> Option<MachineCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<u64>().ok())
        .collect::<Option<Vec<u64>>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(MachineCpu {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

/// Share of all CPU time between two samples that was stolen by the host.
pub fn steal_share(before: MachineCpu, after: MachineCpu) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Parses the on-CPU nanoseconds (first field) of a `schedstat` file.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Parses a `kB` line such as `VmHWM:     13640 kB` of `/proc/self/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.split(':').next() == Some(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// CPU time of the calling thread in ns, at scheduler precision.
pub fn thread_cpu_ns() -> u64 {
    parse_schedstat_ns(&read("/proc/thread-self/schedstat")).expect("parse schedstat")
}

/// CPU time of every live thread of the process in ns, at scheduler
/// precision. Threads that exited are not counted, so compare two
/// samples only across a stretch in which no thread exits.
pub fn threads_cpu_ns() -> u64 {
    fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| {
            let path = task.ok()?.path().join("schedstat");
            parse_schedstat_ns(&fs::read_to_string(path).ok()?)
        })
        .sum()
}

/// The machine-wide CPU counters.
pub fn machine_cpu() -> MachineCpu {
    parse_machine_cpu(&read("/proc/stat")).expect("parse /proc/stat")
}

fn status_kb(key: &str) -> u64 {
    parse_status_kb(&read("/proc/self/status"), key)
        .unwrap_or_else(|| panic!("no {key} in /proc/self/status"))
}

/// Resident set size now, in kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS")
}

/// Peak resident set size since start or the last
/// [`reset_peak_rss`], in kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM")
}

/// Resets the peak-RSS mark to the current RSS. Returns the RSS at the
/// reset in kB, the base the peak is reported against.
pub fn reset_peak_rss() -> u64 {
    fs::write("/proc/self/clear_refs", "5").expect("reset the peak-RSS mark");
    rss_kb()
}

/// The `model name` of the first processor in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_cpu_sums_eight_fields_and_reads_steal() {
        let text = "cpu  66695 0 6304 701228 373 0 1070 21186 7 0\n\
                    cpu0 33000 0 3000 350000 100 0 500 10000 0 0\nintr 1 2\n";
        let cpu = parse_machine_cpu(text).unwrap();
        assert_eq!(cpu.steal, 21186);
        assert_eq!(
            cpu.total,
            66695 + 6304 + 701228 + 373 + 1070 + 21186,
            "guest time is excluded"
        );
        assert_eq!(parse_machine_cpu("cpu0 1 2 3\n"), None);
        assert_eq!(parse_machine_cpu("cpu  1 2 3 4\n"), None);
    }

    #[test]
    fn steal_share_is_the_steal_delta_over_the_total_delta() {
        let a = MachineCpu {
            total: 1000,
            steal: 10,
        };
        let b = MachineCpu {
            total: 1400,
            steal: 110,
        };
        assert_eq!(steal_share(a, b), 0.25);
        assert_eq!(steal_share(a, a), 0.0);
    }

    #[test]
    fn schedstat_first_field_is_nanoseconds_on_cpu() {
        assert_eq!(
            parse_schedstat_ns("472795033 13535578 53\n"),
            Some(472_795_033)
        );
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn status_lines_parse_by_exact_key() {
        let text = "Name:\tx\nVmHWM:\t   13640 kB\nVmRSS:\t   12000 kB\nRssAnon:\t 5 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(13640));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(12000));
        assert_eq!(parse_status_kb(text, "Rss"), None);
    }
}
