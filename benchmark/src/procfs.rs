//! CPU time and peak memory of this process, read from `/proc`.

/// Kernel clock ticks per second for the `/proc/<pid>/stat` time fields.
/// Linux has reported `USER_HZ = 100` to user space on every architecture
/// since 2.6, whatever the kernel's internal HZ.
const USER_HZ: f64 = 100.0;

/// CPU seconds consumed so far, from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// User time of this process (all threads, dead ones included).
    pub user: f64,
    /// System time of this process.
    pub sys: f64,
    /// User + system time of children that have been waited for.
    pub children: f64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Own user + system seconds, plus reaped children.
    pub fn total(&self) -> f64 {
        self.user + self.sys + self.children
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
            children: self.children - earlier.children,
        }
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`: utime, stime, cutime and cstime are
/// fields 14–17.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is fields[k - 3].
    let tick = |k: usize| fields.get(k - 3)?.parse::<f64>().ok().map(|t| t / USER_HZ);
    Some(CpuTimes {
        user: tick(14)?,
        sys: tick(15)?,
        children: tick(16)? + tick(17)?,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 if `/proc`
/// is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Extracts `VmHWM` (kB) from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let line = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 75 1200 300 20 0 3 0 12345 1000000 500 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.user, 2.5);
        assert_eq!(t.sys, 0.75);
        assert_eq!(t.children, 15.0);
        assert_eq!(t.total(), 18.25);
        assert!(parse_stat("1 (short) R 1 2").is_none());
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t  100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_reads_are_sane() {
        let before = CpuTimes::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let used = CpuTimes::now().since(&before);
        assert!(used.total() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
