//! Host-process peak memory, read from `/proc/self/status`.
//!
//! `VmHWM` is the kernel's high-water mark for resident set size —
//! monotonic over the process lifetime, so one measurement needs one
//! process: the figure pool reports each worker's peak. Memory per
//! simulated PE is measured elsewhere: the benchmark's `observe` workload
//! runs a 16 384-PE stencil into file sinks in a child process of its own,
//! and `tests/pe_memory.rs` counts peak live heap per PE at 4 096 PEs and,
//! `#[ignore]`d, at 1 M PEs.
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
