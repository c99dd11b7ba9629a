//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second `/proc/self/stat` counts in. `USER_HZ` is 100 on
/// every Linux architecture the repo builds on; `std` has no `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The value in kB of `key` (e.g. `VmHWM`) from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds this process (all threads, exited ones
/// included) has consumed; 0 when `/proc` is unreadable.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB; 0 when `/proc` is unreadable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_kb(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "8450 (a b) c) R 8443 8450 8443 0 -1 4194304 100 0 0 0 17 5 0 0 20 0 1 0 \
                    250088 2703360 287 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(22));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_parser_reads_kb_fields() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1796 kB\nThreads:\t1\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(1796));
        assert_eq!(parse_status_kb(text, "VmPeak"), Some(9000));
        assert_eq!(parse_status_kb(text, "VmRSS"), None);
        assert_eq!(parse_status_kb(text, "Threads"), None);
    }

    #[test]
    fn live_readings_are_positive_on_linux() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
