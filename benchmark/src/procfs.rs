//! Process accounting from `/proc/self` and the memory hygiene the timers
//! depend on: pre-faulting and the peak-RSS reset.

use std::fs;
use std::time::Instant;

const PAGE: usize = 4096;
/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`, fixed at
/// 100 on every Linux ABI this can run on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may itself hold spaces and parentheses, so
/// fields are counted from the last `)`: `utime` and `stime` are fields 14
/// and 15 of the line, 12 and 13 after the name.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_name.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// One `kB` field (`VmHWM`, `VmRSS`) of `/proc/<pid>/status`, in MiB.
pub fn parse_status_mib(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    let kib: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib as f64 / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_seconds(&stat).expect("/proc/self/stat has utime and stime")
}

fn status_mib(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_mib(&status, key).unwrap_or_else(|| panic!("/proc/self/status has {key}"))
}

/// Touch and free `mib` MiB so the guest kernel already owns backed pages
/// before any timer starts.  Returns the seconds this took.  Follow with
/// [`PeakRss::reset`], or the peak records the pre-fault.
pub fn prefault(mib: usize) -> f64 {
    let started = Instant::now();
    let mut block = vec![0u8; mib << 20];
    for offset in (0..block.len()).step_by(PAGE) {
        block[offset] = 1;
    }
    std::hint::black_box(&block);
    drop(block);
    started.elapsed().as_secs_f64()
}

/// Tracks the process's peak resident set from after the pre-fault on.
pub enum PeakRss {
    /// `VmHWM` was reset through `/proc/self/clear_refs`; the kernel keeps
    /// the mark.
    Kernel,
    /// `clear_refs` is not writable: the largest `VmRSS` seen at the block
    /// boundaries stands in (it misses peaks inside a block).
    Sampled(f64),
}

impl PeakRss {
    /// Reset the kernel's mark, or fall back to sampling.
    pub fn reset() -> Self {
        match fs::write("/proc/self/clear_refs", "5") {
            Ok(()) => PeakRss::Kernel,
            Err(_) => PeakRss::Sampled(status_mib("VmRSS")),
        }
    }

    /// Take a sample (a no-op when the kernel keeps the mark).
    pub fn sample(&mut self) {
        if let PeakRss::Sampled(peak) = self {
            *peak = peak.max(status_mib("VmRSS"));
        }
    }

    /// The peak so far, in MiB.
    pub fn mib(&self) -> f64 {
        match self {
            PeakRss::Kernel => status_mib("VmHWM"),
            PeakRss::Sampled(peak) => *peak,
        }
    }

    /// Where the figure comes from, for the run's printed header.
    pub fn source(&self) -> &'static str {
        match self {
            PeakRss::Kernel => "VmHWM after clear_refs reset",
            PeakRss::Sampled(_) => "VmRSS sampled at block boundaries (clear_refs not writable)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a closing parenthesis.
        let stat = "4242 (alias ) bench) S 1 4242 4242 0 -1 4194304 \
                    2048 0 0 0 731 269 0 0 20 0 2 0 123456 1000000 500 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(10.0));
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_are_matched_by_whole_key() {
        let status =
            "Name:\tbench\nVmPeak:\t 2097152 kB\nVmHWM:\t  786432 kB\nVmRSS:\t  524288 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(768.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(512.0));
        assert_eq!(parse_status_mib(status, "Vm"), None);
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
    }

    #[test]
    fn the_live_process_parses() {
        assert!(cpu_seconds() >= 0.0);
        let mut peak = PeakRss::reset();
        peak.sample();
        assert!(peak.mib() > 0.0);
    }
}
