//! Host-process peak memory, read from `/proc/self/status`.
//!
//! The scale benchmark (`scale_bench`) proves that streaming observability
//! holds peak memory bounded as simulated PE counts grow into the
//! 128 K–1 M range; this is how it measures that. `VmHWM` is the
//! kernel's high-water mark for resident set size — monotonic over the
//! process lifetime, which is why `scale_bench` runs each measurement
//! point in a fresh subprocess.
//!
//! On platforms without procfs it returns `None`; callers
//! should degrade to reporting the metric as unavailable rather than fail.

/// Peak (high-water-mark) resident set size of this process in bytes
/// (`VmHWM`), or `None` when procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Parse one `kB` field out of `/proc/self/status`.
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, field)
}

fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tcargo\nVmHWM:\t  123456 kB\nVmRSS:\t   7890 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM:"), Some(123_456));
        assert_eq!(parse_status_kib(status, "VmRSS:"), Some(7_890));
        assert_eq!(parse_status_kib(status, "VmPeak:"), None);
    }

    #[test]
    fn live_counters_are_sane_on_linux() {
        // On Linux procfs the counter exists and a running process has
        // touched memory.
        if let Some(peak) = peak_rss_bytes() {
            assert!(peak > 0);
        }
    }
}
