//! The few `/proc` readings the benchmark takes: CPU time and peak memory
//! of a process, and host-noise diagnostics.

use std::path::Path;

/// Linux reports `utime`/`stime` in USER_HZ ticks, which the kernel ABI
/// fixes at 100 per second on every mainstream architecture.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// User and system CPU time of a process, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Field 14 of `/proc/<pid>/stat`.
    pub utime: u64,
    /// Field 15 of `/proc/<pid>/stat`.
    pub stime: u64,
}

impl CpuTicks {
    /// `utime + stime` in seconds.
    pub fn seconds(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_SECOND
    }
}

/// Parses `utime` and `stime` out of a `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesised and may itself contain spaces
/// and `)`, so fields are counted from after the *last* `)`: the first
/// token there is field 3 (state), which puts utime and stime at offsets
/// 11 and 12.
pub fn parse_stat(text: &str) -> Option<CpuTicks> {
    let (_, rest) = text.rsplit_once(')')?;
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some(CpuTicks { utime, stime })
}

/// CPU time of a live process (all of its threads, including exited ones).
pub fn cpu_ticks(pid: u32) -> Option<CpuTicks> {
    parse_stat(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// CPU time of this process.
pub fn self_cpu_ticks() -> Option<CpuTicks> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Parses a `kB` field such as `VmHWM:    1234 kB` out of a
/// `/proc/<pid>/status` body.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(status_path: &Path) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    parse_status_kb(&text, "VmHWM").map(|kb| kb as f64 * 1024.0 / 1e6)
}

/// The 1-minute load average.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host-wide steal ticks (the 8th value of the aggregate `cpu` line of
/// `/proc/stat`): time the hypervisor ran something else.
pub fn steal_ticks() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Counts sockets in TCP state TIME_WAIT (`06`) in `/proc/net/tcp`-format
/// tables.
pub fn count_time_wait(table: &str) -> usize {
    table
        .lines()
        .skip(1)
        .filter(|l| l.split_whitespace().nth(3) == Some("06"))
        .count()
}

/// TIME_WAIT sockets over IPv4 and IPv6. One connection per request
/// leaves one behind for a minute, so a run that starts with many of them
/// is short of ephemeral ports.
pub fn time_wait_sockets() -> usize {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .map(|t| count_time_wait(&t))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_last_paren() {
        let line = "4242 (adec) S 1 4242 4242 0 -1 4194560 1200 0 0 0 731 96 0 0 20 0 5 0 99 0 0";
        assert_eq!(
            parse_stat(line),
            Some(CpuTicks {
                utime: 731,
                stime: 96
            })
        );
        // A command name with spaces and parentheses must not shift fields.
        let tricky = "77 (my (evil) cmd) R 1 77 77 0 -1 0 0 0 0 0 12 34 0 0 20 0 1 0 5 0 0";
        assert_eq!(
            parse_stat(tricky),
            Some(CpuTicks {
                utime: 12,
                stime: 34
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn ticks_convert_to_seconds() {
        assert!(
            (CpuTicks {
                utime: 150,
                stime: 50
            }
            .seconds()
                - 2.0)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn live_process_readings() {
        let own = self_cpu_ticks().expect("own /proc/self/stat parses");
        let by_pid = cpu_ticks(std::process::id()).expect("own /proc/<pid>/stat parses");
        assert!(by_pid.utime + by_pid.stime >= own.utime + own.stime);
        assert!(peak_rss_mb(Path::new("/proc/self/status")).is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn status_kb_field() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
    }

    #[test]
    fn time_wait_rows_are_counted() {
        let table = "  sl  local_address rem_address   st tx_queue rx_queue\n\
                     0: 0100007F:1F90 00000000:0000 0A 00000000:00000000\n\
                     1: 0100007F:A1B2 0100007F:1F90 06 00000000:00000000\n\
                     2: 0100007F:A1B3 0100007F:1F90 06 00000000:00000000\n\
                     3: 0100007F:A1B4 0100007F:1F90 01 00000000:00000000\n";
        assert_eq!(count_time_wait(table), 2);
        assert_eq!(count_time_wait(""), 0);
    }
}
