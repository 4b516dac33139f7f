//! Reference-speed clock for wall-clock metrics.
//!
//! On a shared host the speed of a core drifts by tens of percent within
//! seconds, and the same fixed computation shows the drift whether it is
//! timed in wall-clock or thread CPU time. Every measured phase therefore
//! runs in short windows, and a fixed calibration kernel runs between
//! windows. A window's wall time is multiplied by the host's speed
//! relative to the reference (the kernel's rate divided by
//! [`REF_KERNEL_RATE`]), giving "reference seconds": what the window
//! would have taken on a host running the kernel at the reference rate.
//! Latency samples are scaled the same way. The kernel uses only the
//! standard library, so no change to the program under test moves it.

use crate::stats::Hist;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Kernel iterations per second on the reference host (a 2-vCPU Xeon VM
/// at its median speed). Only the scale of reported numbers depends on it.
const REF_KERNEL_RATE: f64 = 1_400_000.0;
/// Wall time one calibration takes.
const CALIBRATION: Duration = Duration::from_millis(4);
/// Measured work between calibrations.
pub const WINDOW: Duration = Duration::from_millis(50);

/// One kernel iteration: a small allocation, byte shuffling and ordered
/// map lookups, the mix of work the simulator itself does per packet.
fn kernel_iteration(map: &BTreeMap<u32, u32>, state: &mut u64) -> u32 {
    let mut buf = Vec::with_capacity(64);
    for _ in 0..16 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        buf.extend_from_slice(&(*state as u32).to_le_bytes());
    }
    let mut acc = 0u32;
    for chunk in buf.chunks_exact(8) {
        let key = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) % 8192;
        acc = acc.wrapping_add(map.range(key..).next().map_or(0, |(_, v)| *v));
    }
    acc
}

/// Host speed relative to the reference: > 1 when the host runs the
/// kernel faster than the reference host does.
pub fn speed() -> f64 {
    thread_local! {
        static MAP: BTreeMap<u32, u32> = (0..4096u32).map(|i| (i * 2, i)).collect();
    }
    MAP.with(|map| {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut iters = 0u64;
        let mut sink = 0u32;
        let start = Instant::now();
        while start.elapsed() < CALIBRATION {
            for _ in 0..64 {
                sink = sink.wrapping_add(kernel_iteration(map, &mut state));
            }
            iters += 64;
        }
        std::hint::black_box(sink);
        iters as f64 / start.elapsed().as_secs_f64() / REF_KERNEL_RATE
    })
}

/// Measures one phase in calibrated windows.
pub struct Meter {
    /// Latency samples in reference nanoseconds.
    pub lat: Hist,
    /// Latency samples in wall-clock nanoseconds, unscaled.
    pub raw_lat: Hist,
    /// Measured time in reference seconds.
    pub ref_s: f64,
    /// Measured time in wall-clock seconds (calibrations excluded).
    pub wall_s: f64,
    /// Host speed of every window.
    pub speeds: Vec<f64>,
    pending: Vec<f64>,
    before: f64,
    window_start: Instant,
    started: Instant,
}

impl Default for Meter {
    fn default() -> Self {
        let before = speed();
        let now = Instant::now();
        Meter {
            lat: Hist::default(),
            raw_lat: Hist::default(),
            ref_s: 0.0,
            wall_s: 0.0,
            speeds: Vec::new(),
            pending: Vec::with_capacity(1 << 16),
            before,
            window_start: now,
            started: now,
        }
    }
}

impl Meter {
    /// Records one latency sample, in wall-clock nanoseconds.
    pub fn sample(&mut self, ns: f64) {
        self.pending.push(ns);
    }

    /// Wall time since the phase began, calibrations included.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Whether the current window has run its length.
    pub fn window_due(&self) -> bool {
        self.window_start.elapsed() >= WINDOW
    }

    /// Closes the current window: calibrates, scales the window's time and
    /// samples by the mean of the speeds before and after it, and opens
    /// the next window. Call only with no work in flight.
    pub fn close_window(&mut self) {
        let wall = self.window_start.elapsed().as_secs_f64();
        let after = speed();
        let s = (self.before + after) / 2.0;
        self.speeds.push(s);
        self.wall_s += wall;
        self.ref_s += wall * s;
        for ns in self.pending.drain(..) {
            self.lat.record(ns * s);
            self.raw_lat.record(ns);
        }
        self.before = after;
        self.window_start = Instant::now();
    }

    /// Runs `f` as one window of its own and returns its reference seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.ref_s;
        self.window_start = Instant::now();
        let out = f();
        self.close_window();
        (out, self.ref_s - before)
    }
}
