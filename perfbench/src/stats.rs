//! Measurement helpers: a log-bucketed latency histogram, medians, the
//! counting global allocator and the process facts read from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations (including reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`] and counts calls, so a probe can report
/// allocations per packet.
struct CountingAlloc;

// SAFETY: every method forwards its arguments to `System` unchanged; the
// only addition is a relaxed counter bump, which publishes no memory and
// cannot violate the allocator contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One numeric field of `/proc/self/status` (e.g. `VmHWM`, `Threads`).
fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live OS threads of this process.
pub fn threads() -> u64 {
    proc_status("Threads:").unwrap_or(0)
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean of a sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank quantile of an exact sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Buckets per factor e of the latency histogram: 200 gives 0.5% wide
/// buckets, far below the run-to-run spread being measured.
const BUCKETS_PER_E: f64 = 200.0;
/// Histogram range: 1 ns to e^30 ns (about 10^13 ns), more than any run.
const BUCKETS: usize = 30 * BUCKETS_PER_E as usize;

/// Latency histogram with logarithmic buckets: constant memory however
/// many packets a run completes.
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Hist {
    /// Records one sample, in nanoseconds.
    pub fn record(&mut self, ns: f64) {
        let b = if ns <= 1.0 {
            0
        } else {
            ((ns.ln() * BUCKETS_PER_E) as usize).min(BUCKETS - 1)
        };
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Quantile `q` in nanoseconds (bucket midpoint).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((b as f64 + 0.5) / BUCKETS_PER_E).exp();
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_track_exact_ones() {
        let mut h = Hist::default();
        let sample: Vec<f64> = (1..=10_000).map(|i| f64::from(i) * 10.0).collect();
        for &s in &sample {
            h.record(s);
        }
        for q in [0.5, 0.99] {
            let exact = quantile(&sample, q);
            let approx = h.quantile_ns(q);
            assert!(
                (approx / exact - 1.0).abs() < 0.01,
                "q{q}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
