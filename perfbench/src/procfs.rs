//! Readers for the Linux `/proc` counters the benchmark reports: process
//! CPU time, peak resident memory, bytes written, and host CPU steal.
//!
//! Each reader is split into a pure parser (unit-tested on captured text)
//! and a thin wrapper that reads the file.

use std::fs;

/// `/proc` reports CPU times in `USER_HZ` ticks, which Linux fixes at 100
/// per second on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// User and system CPU time of the whole process, in seconds.
///
/// The kernel folds the times of exited threads into the process totals,
/// so threads spawned and joined per call are counted in full.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub system_s: f64,
}

impl CpuTimes {
    pub fn total_s(self) -> f64 {
        self.user_s + self.system_s
    }

    /// `self - earlier`, field by field.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            user_s: self.user_s - earlier.user_s,
            system_s: self.system_s - earlier.system_s,
        }
    }

    pub fn add(self, other: Self) -> Self {
        Self {
            user_s: self.user_s + other.user_s,
            system_s: self.system_s + other.system_s,
        }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) from `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself
/// contain spaces or parentheses, so fields are counted from the last `)`.
pub fn parse_process_stat(text: &str) -> Option<CpuTimes> {
    let after_comm = &text[text.rfind(')')? + 1..];
    // After the command name the next field is the state (field 3), so
    // utime (field 14) is the 12th whitespace-separated token from here.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / TICKS_PER_SECOND,
        system_s: stime as f64 / TICKS_PER_SECOND,
    })
}

/// Parses the `VmHWM` line (peak resident set size) of
/// `/proc/<pid>/status`, in MB (10^6 bytes).
pub fn parse_peak_rss_mb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value as f64 * 1024.0 / 1e6),
        _ => None,
    }
}

/// Parses `wchar` — bytes the process passed to write-like system calls —
/// from `/proc/<pid>/io`.
pub fn parse_write_chars(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("wchar:"))?;
    line["wchar:".len()..].trim().parse().ok()
}

/// Tick counters of one virtual CPU, from its `cpuN` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VcpuTicks {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Ticks the hypervisor ran something else while this vCPU wanted to
    /// run.
    pub steal: u64,
}

/// Every virtual CPU's counters at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostTicks(pub Vec<VcpuTicks>);

impl HostTicks {
    /// Share of all vCPU time the host stole between `earlier` and `self`.
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let (mut total, mut steal) = (0, 0);
        for (now, then) in self.0.iter().zip(&earlier.0) {
            total += now.total.saturating_sub(then.total);
            steal += now.steal.saturating_sub(then.steal);
        }
        if total == 0 {
            return 0.0;
        }
        steal as f64 / total as f64
    }

    /// Seconds the host stole from the most-stolen vCPU between `earlier`
    /// and `self`.
    pub fn max_stolen_s_since(&self, earlier: &Self) -> f64 {
        let ticks = self
            .0
            .iter()
            .zip(&earlier.0)
            .map(|(now, then)| now.steal.saturating_sub(then.steal))
            .max()
            .unwrap_or(0);
        ticks as f64 / TICKS_PER_SECOND
    }
}

/// Parses the per-vCPU `cpuN` lines of `/proc/stat` (not the aggregate
/// `cpu` line). Guest time is already included in user time, so the two
/// guest columns are left out of the total; kernels too old to report
/// steal count it as zero.
pub fn parse_host_stat(text: &str) -> Option<HostTicks> {
    let mut vcpus = Vec::new();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let Some(name) = fields.next() else { continue };
        if !(name.starts_with("cpu") && name.len() > 3) {
            continue;
        }
        let values: Vec<u64> = fields
            .take(8)
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        if values.len() < 4 {
            return None;
        }
        vcpus.push(VcpuTicks {
            total: values.iter().sum(),
            steal: values.get(7).copied().unwrap_or(0),
        });
    }
    (!vcpus.is_empty()).then_some(HostTicks(vcpus))
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

pub fn process_cpu() -> CpuTimes {
    parse_process_stat(&read("/proc/self/stat")).expect("/proc/self/stat has utime and stime")
}

pub fn peak_rss_mb() -> f64 {
    parse_peak_rss_mb(&read("/proc/self/status")).expect("/proc/self/status has VmHWM in kB")
}

pub fn write_chars() -> u64 {
    parse_write_chars(&read("/proc/self/io")).expect("/proc/self/io has wchar")
}

pub fn host_ticks() -> HostTicks {
    parse_host_stat(&read("/proc/stat")).expect("/proc/stat has per-vCPU cpuN lines")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_stat_counts_fields_after_the_last_parenthesis() {
        // A command name with spaces and a parenthesis must not shift the
        // fields: utime = 1234, stime = 56.
        let text = "4242 (my (odd) cmd) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 56 0 0 20 0 3 0 777 123456 789 18446744073709551615\n";
        let cpu = parse_process_stat(text).unwrap();
        assert!((cpu.user_s - 12.34).abs() < 1e-9);
        assert!((cpu.system_s - 0.56).abs() < 1e-9);
        assert!((cpu.total_s() - 12.90).abs() < 1e-9);
    }

    #[test]
    fn process_stat_rejects_truncated_text() {
        assert_eq!(parse_process_stat("4242 (cmd) R 1 2 3"), None);
        assert_eq!(parse_process_stat("no parenthesis at all"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_kilobytes() {
        let text = "Name:\tbench\nVmPeak:\t  500000 kB\nVmHWM:\t  102400 kB\nVmRSS:\t 90000 kB\n";
        let mb = parse_peak_rss_mb(text).unwrap();
        assert!((mb - 104.8576).abs() < 1e-9);
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 1 MB\n"), None);
    }

    #[test]
    fn write_chars_reads_wchar() {
        let text = "rchar: 3980\nwchar: 388123456\nsyscr: 9\nsyscw: 12\n";
        assert_eq!(parse_write_chars(text), Some(388_123_456));
        assert_eq!(parse_write_chars("rchar: 1\n"), None);
    }

    fn vcpu(total: u64, steal: u64) -> VcpuTicks {
        VcpuTicks { total, steal }
    }

    #[test]
    fn host_stat_reads_each_vcpu_and_skips_the_aggregate_line() {
        let text = "cpu  100 5 50 800 10 1 2 32 7 0\n\
                    cpu0 50 2 25 400 5 0 1 16 3 0\n\
                    cpu1 50 3 25 400 5 1 1 16 4 0\n\
                    intr 12345 0 0\nctxt 999\n";
        // Guest columns are excluded from each total.
        let ticks = parse_host_stat(text).unwrap();
        assert_eq!(ticks, HostTicks(vec![vcpu(499, 16), vcpu(501, 16)]));
    }

    #[test]
    fn steal_share_and_max_stolen_seconds() {
        let before = HostTicks(vec![vcpu(1000, 10), vcpu(1000, 20)]);
        let after = HostTicks(vec![vcpu(1100, 40), vcpu(1100, 25)]);
        // 35 of 200 ticks stolen in all; vCPU 0 lost the most, 30 ticks.
        assert!((after.steal_share_since(&before) - 0.175).abs() < 1e-12);
        assert!((after.max_stolen_s_since(&before) - 0.30).abs() < 1e-12);
        assert_eq!(before.steal_share_since(&before), 0.0);
        assert_eq!(before.max_stolen_s_since(&before), 0.0);
    }

    #[test]
    fn host_stat_without_steal_column_reads_zero_steal() {
        let ticks = parse_host_stat("cpu 1 2 3 4\ncpu0 1 2 3 4\n").unwrap();
        assert_eq!(ticks, HostTicks(vec![vcpu(10, 0)]));
        assert_eq!(parse_host_stat("cpu 1 2 3 4\nintr 1 2 3\n"), None);
        assert_eq!(parse_host_stat("cpu0 1 x 3 4\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        assert!(process_cpu().total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let _ = write_chars();
        assert!(host_ticks().0.iter().all(|v| v.total > 0));
    }
}
