//! The timed phase: only the intervals between [`Phase::start`] and
//! [`Phase::stop`] count, so answer checking between them is excluded from
//! both its clock and its OS counters.

use crate::os::Usage;
use crate::stats::{self, Latencies};
use std::time::{Duration, Instant};

/// Accumulated timed intervals of one run.
#[derive(Debug)]
pub struct Phase {
    seconds: f64,
    timed: Duration,
    ops: u64,
    usage: Usage,
    open: Option<(Instant, Usage)>,
}

impl Phase {
    /// A phase that runs until `seconds` of timed intervals accumulate.
    pub fn new(seconds: f64) -> Self {
        Phase {
            seconds,
            timed: Duration::ZERO,
            ops: 0,
            usage: Usage::default(),
            open: None,
        }
    }

    /// Whether the phase still needs time.
    pub fn running(&self) -> bool {
        self.timed.as_secs_f64() < self.seconds
    }

    /// Opens a timed interval.
    pub fn start(&mut self) {
        assert!(self.open.is_none(), "interval already open");
        self.open = Some((Instant::now(), Usage::now()));
    }

    /// Closes the open interval, crediting `ops` completed operations.
    pub fn stop(&mut self, ops: u64) {
        let (t0, u0) = self.open.take().expect("no open interval");
        self.timed += t0.elapsed();
        let d = Usage::now().since(&u0);
        self.usage.cpu_s += d.cpu_s;
        self.usage.minor_faults += d.minor_faults;
        self.usage.ctx_switches += d.ctx_switches;
        self.ops += ops;
    }

    /// Operations completed inside timed intervals.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Operations per second of timed interval.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.timed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// OS counters per completed operation: CPU ms, minor faults, context
    /// switches.
    pub fn per_op(&self) -> (f64, f64, f64) {
        let ops = self.ops.max(1) as f64;
        (
            self.usage.cpu_s * 1e3 / ops,
            self.usage.minor_faults as f64 / ops,
            self.usage.ctx_switches as f64 / ops,
        )
    }
}

/// Slices the untraced timed phase is cut into.
pub const SLICES: usize = 10;

/// A timed phase measured as [`SLICES`] consecutive slices of equal timed
/// length. Latency percentiles and throughput are those of the best slice
/// (lowest percentile, highest throughput): other tenants of a shared host
/// slow CPU-bound code by up to about 1.75x for stretches of seconds to
/// minutes, and the best slice is the figure that repeats as long as the
/// contention leaves one slice of the run clear.
#[derive(Debug)]
pub struct Sliced {
    slices: Vec<(Latencies, Phase)>,
}

impl Sliced {
    /// Runs `slice(seconds / SLICES)` [`SLICES`] times; each call measures
    /// one slice and returns its latencies and timed phase.
    pub fn measure(seconds: f64, mut slice: impl FnMut(f64) -> (Latencies, Phase)) -> Self {
        Sliced {
            slices: (0..SLICES)
                .map(|_| slice(seconds / SLICES as f64))
                .collect(),
        }
    }

    fn median_of(&self, f: impl Fn(&(Latencies, Phase)) -> f64) -> f64 {
        stats::median(&self.slices.iter().map(f).collect::<Vec<f64>>())
    }

    /// The best slice for percentile `q`: the one where it is lowest.
    fn best(&self, q: f64) -> &Latencies {
        let mut latencies = self.slices.iter().map(|(l, _)| l);
        let first = latencies.next().expect("at least one slice");
        latencies.fold(
            first,
            |a, b| if b.nearest(q) < a.nearest(q) { b } else { a },
        )
    }

    /// Percentile `q` of the best slice.
    pub fn percentile(&self, q: f64) -> f64 {
        self.best(q).nearest(q)
    }

    /// Whether the best slice has the samples percentile `q` needs.
    pub fn reportable(&self, q: f64) -> bool {
        let best = self.best(q);
        stats::reportable(best.len(), q)
    }

    /// Throughput of the best slice: the highest per-slice value.
    pub fn throughput(&self) -> f64 {
        let per_slice = self.slices.iter().map(|(_, p)| p.throughput());
        per_slice.fold(0.0, f64::max)
    }

    /// Median over slices of each slice's OS counters per operation.
    pub fn per_op(&self) -> (f64, f64, f64) {
        (
            self.median_of(|(_, p)| p.per_op().0),
            self.median_of(|(_, p)| p.per_op().1),
            self.median_of(|(_, p)| p.per_op().2),
        )
    }

    /// Latency samples over all slices.
    pub fn samples(&self) -> usize {
        self.slices.iter().map(|(l, _)| l.len()).sum()
    }

    /// Operations completed over all slices.
    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|(_, p)| p.ops()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A slice whose operations took `ms` each.
    fn slice(ms: f64, ops: usize) -> (Latencies, Phase) {
        let mut phase = Phase::new(0.0);
        phase.start();
        phase.stop(ops as u64);
        (Latencies::new(vec![ms; ops]), phase)
    }

    #[test]
    fn slow_slices_do_not_move_the_figures_while_one_is_clear() {
        let mut n = 0;
        let calm = Sliced::measure(1.0, |s| {
            assert_eq!(s, 1.0 / SLICES as f64);
            n += 1;
            slice(10.0, 200)
        });
        assert_eq!(n, SLICES);
        let mut k = 0;
        let contended = Sliced::measure(1.0, |_| {
            k += 1;
            slice(if k < SLICES { 15.0 } else { 10.0 }, 200)
        });
        for q in [0.5, 0.9] {
            assert_eq!(calm.percentile(q), 10.0);
            assert_eq!(contended.percentile(q), 10.0);
        }
        assert!(calm.reportable(0.9));
        assert!(!Sliced::measure(1.0, |_| slice(1.0, 99)).reportable(0.9));
        // The rule applies to the slice reported: here the fast, full one.
        let mut k = 0;
        let thin_slow = Sliced::measure(1.0, |_| {
            k += 1;
            if k == 1 {
                slice(1.0, 200)
            } else {
                slice(2.0, 50)
            }
        });
        assert_eq!(thin_slow.percentile(0.9), 1.0);
        assert!(thin_slow.reportable(0.9));
        assert_eq!(calm.samples(), 200 * SLICES);
        assert_eq!(calm.ops(), 200 * SLICES as u64);
    }
}
