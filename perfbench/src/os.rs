//! Process counters from the operating system: CPU time, page faults and
//! context switches from `getrusage`, and the resident-memory high-water
//! mark from `/proc/self/status`, which `/proc/self/clear_refs` resets.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Whole-process counters at one instant (all threads).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Reads the counters now.
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` (the `repr(C)`
        // layout above), and RUSAGE_SELF is a valid `who`; getrusage writes
        // only within the struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            minor_faults: ru.minflt as u64,
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Resets the process's resident-memory high-water mark to its current
/// resident size.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset the peak RSS through /proc/self/clear_refs");
}

/// The resident-memory high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_forward() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = Usage::now().since(&a);
        assert!(d.cpu_s >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn peak_rss_resets_to_current() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mib();
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mib() < before);
    }
}
