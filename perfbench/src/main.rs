//! The repository benchmark: three closed-loop workloads over the public
//! APIs, end-to-end metrics in the plain run and per-layer metrics in the
//! traced run. See `perfbench/README.md` for the metric map.
//!
//! ```text
//! dejavu-perfbench --workload <edge_sfc|cluster_spill|nat_churn> --seed <n>
//!                  --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod clock;
mod edge;
mod nat;
mod spill;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// Run settings shared by every workload.
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Wall-clock seconds the measured phases take together.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Measured rounds per run. Each round has an idle and a loaded phase, so
/// both sample the host throughout the run; timings are medians over
/// rounds, which keeps a burst of host noise to one round. In the traced
/// run the odd rounds are traced.
pub const ROUNDS: usize = 5;

/// Share of a round spent in its idle phase.
pub const IDLE_SHARE: f64 = 0.3;

/// One round's timings.
pub struct RoundFigures {
    /// Packets completed in the loaded phase.
    pub packets: u64,
    pub loaded: clock::Meter,
    pub idle: clock::Meter,
}

impl RoundFigures {
    /// Packets per reference second in the loaded phase.
    pub fn pps(&self) -> f64 {
        self.packets as f64 / self.loaded.ref_s
    }
}

/// Pushes the wall-clock end-to-end metrics: medians over rounds, so a
/// burst of host noise or a cluster whose threads settled badly moves one
/// round, not the result.
pub fn timing_metrics(rep: &mut Report, setup_s: f64, rounds: &[RoundFigures]) {
    let med =
        |f: &dyn Fn(&RoundFigures) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    rep.e2e.push(metric("setup_s", setup_s, "s"));
    rep.e2e.push(metric("pps", med(&|r| r.pps()), "packets/s"));
    // Tail percentiles are printed, not gated: on a 2-vCPU host their
    // run-to-run spread (10-35%) comes from thread wake-ups, not the code.
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let lat = med(&|r| r.loaded.lat.quantile_ns(q)) / 1e3;
        let idle = med(&|r| r.idle.lat.quantile_ns(q)) / 1e3;
        let out = if name == "p50" {
            &mut rep.e2e
        } else {
            &mut rep.extra
        };
        out.push(metric(format!("lat_{name}_us"), lat, "us"));
        out.push(metric(format!("idle_lat_{name}_us"), idle, "us"));
        let raw = med(&|r| r.loaded.raw_lat.quantile_ns(q)) / 1e3;
        rep.extra
            .push(metric(format!("wall_lat_{name}_us"), raw, "us"));
    }
    let wall_pps = med(&|r| r.packets as f64 / r.loaded.wall_s);
    rep.extra.push(metric("wall_pps", wall_pps, "packets/s"));
    let speed = med(&|r| stats::median(&r.loaded.speeds));
    rep.extra.push(metric("host_speed_p50", speed, "ratio"));
    let samples = |f: &dyn Fn(&RoundFigures) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    rep.extra.push(metric(
        "lat_samples",
        samples(&|r| r.loaded.lat.count()),
        "count",
    ));
    rep.extra.push(metric(
        "idle_lat_samples",
        samples(&|r| r.idle.lat.count()),
        "count",
    ));
}

/// Pipeline passes of a cluster flight: one per switch visited plus every
/// recirculation and resubmission on it.
pub fn pipeline_passes(w: &dejavu_core::transport::WireTraversal) -> u64 {
    w.hops
        .iter()
        .map(|h| u64::from(1 + h.recirculations + h.resubmissions))
        .sum()
}

/// Pushes the traced run's own figures: tracing overhead (traced over
/// untraced loaded pps) and the share of traced wall time the layers'
/// self times cover, after printing the self-time table.
pub fn trace_metrics(rep: &mut Report, workload: &str, rounds: &[RoundFigures]) {
    let (traced, plain): (Vec<_>, Vec<_>) =
        rounds.iter().enumerate().partition(|(i, _)| i % 2 == 1);
    let wall: f64 = traced.iter().map(|(_, r)| r.loaded.wall_s).sum();
    let share = self_time_table(workload, wall);
    let mean_pps =
        |v: &[(usize, &RoundFigures)]| v.iter().map(|(_, r)| r.pps()).sum::<f64>() / v.len() as f64;
    rep.layers.push(metric(
        "trace.overhead_ratio",
        mean_pps(&traced) / mean_pps(&plain),
        "ratio",
    ));
    rep.layers.push(metric("trace.layer_share", share, "ratio"));
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (packets, learns, migrations, checks).
    pub attempted: u64,
    /// Attempted operations that failed or produced wrong output.
    pub failed: u64,
    /// End-to-end metrics common to every workload.
    pub e2e: Vec<Metric>,
    /// End-to-end metrics only this workload has (printed, not gated).
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
    /// Run metadata: `key=value` facts needed to read the numbers.
    pub meta: Vec<(String, String)>,
    /// First few failure descriptions, for diagnosis.
    pub failures: Vec<String>,
}

impl Report {
    /// Counts one checked operation; `ok == false` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Records run metadata.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }
}

/// End-to-end metrics every workload reports in its plain run, in the
/// order `BENCHMARK.json` lists them.
pub const E2E: [&str; 7] = [
    "setup_s",
    "pps",
    "lat_p50_us",
    "idle_lat_p50_us",
    "sim_lat_mean_ns",
    "passes_per_pkt",
    "peak_rss_mb",
];

/// Layer self times from one traced phase, printed beside the phase's
/// wall time with the uncovered remainder as a named residual. Returns the
/// share of the wall time that non-benchmark layers account for.
pub fn self_time_table(workload: &str, wall_s: f64) -> f64 {
    let times = trace::take_self_times();
    let wall_ns = wall_s * 1e9;
    let mut layers = 0.0;
    let mut bench = 0.0;
    println!("# self time per layer, traced {workload} phase ({wall_s:.3} s wall)");
    for (name, ns, n) in &times {
        let ns = *ns as f64;
        if name.starts_with("bench.") {
            bench += ns;
        } else {
            layers += ns;
        }
        println!(
            "#   {name:<28} {:>10.3} ms {:>6.2}%  {n} spans",
            ns / 1e6,
            100.0 * ns / wall_ns
        );
    }
    let untraced = (wall_ns - layers - bench).max(0.0);
    println!(
        "#   {:<28} {:>10.3} ms {:>6.2}%  (benchmark loop: copies, checks, histogram)",
        "residual.bench_loop",
        bench / 1e6,
        100.0 * bench / wall_ns
    );
    println!(
        "#   {:<28} {:>10.3} ms {:>6.2}%  (between spans)",
        "residual.untraced",
        untraced / 1e6,
        100.0 * untraced / wall_ns
    );
    layers / wall_ns
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out_dir) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dejavu-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let started = Instant::now();
    let threads_at_start = stats::threads();
    let mut report = match args.workload.as_str() {
        "edge_sfc" => edge::run(&ctx),
        "cluster_spill" => spill::run(&ctx),
        "nat_churn" => nat::run(&ctx),
        other => {
            eprintln!("dejavu-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if ctx.trace {
        // The layer probes are the same in every traced run, so each
        // per-layer metric is measured on every workload.
        trace::set_enabled(true);
        let mut layers = edge::probes(&ctx, &mut report);
        layers.extend(spill::probes(&ctx, &mut report));
        layers.extend(nat::probes(&ctx, &mut report));
        report.layers.extend(layers);
        if let Some(dir) = &args.out_dir {
            let path = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
            match trace::write_spans(&path) {
                Ok(()) => report.meta("spans_file", path.display()),
                Err(e) => report.check(false, || format!("writing spans: {e}")),
            }
        }
    } else {
        report
            .e2e
            .push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
        // The traced run's rtc probe records these; a plain run boots an
        // empty session just to learn the mode this host gets.
        let empty = dejavu_asic::Switch::new(dejavu_asic::TofinoProfile::wedge_100b_32x());
        drop(edge::rtc_session(&empty, &mut report));
    }
    // Cluster workers and socket threads exit asynchronously after
    // shutdown; give them a moment before calling any of them leaked.
    let deadline = Instant::now() + std::time::Duration::from_secs(1);
    while stats::threads() > threads_at_start && Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    // Threads the library left running after every handle was shut down
    // (each TCP cluster leaves two reader threads behind at present).
    // Reported, not counted as a failure: no packet or learn was lost.
    let leaked = stats::threads().saturating_sub(threads_at_start);
    report.meta("threads_left_at_exit", leaked);

    report.meta("workload", &args.workload);
    report.meta("seed", args.seed);
    report.meta("seconds", args.seconds);
    report.meta("traced", ctx.trace);
    report.meta("host_cores", edge::host_cores());
    report.meta(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.meta(
        "rustc",
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
    );
    report.meta(
        "commit",
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    report.meta(
        "run_wall_s",
        format!("{:.3}", started.elapsed().as_secs_f64()),
    );

    let metrics = if ctx.trace {
        &report.layers
    } else {
        for name in E2E {
            assert!(
                report.e2e.iter().any(|m| m.name == name),
                "{} did not report {name}",
                args.workload
            );
        }
        &report.e2e
    };
    println!(
        "# {} seed {} ({})",
        args.workload,
        args.seed,
        if ctx.trace { "traced" } else { "plain" }
    );
    for m in metrics.iter().chain(&report.extra) {
        println!("#   {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "#   {:<30} {:>16.6} failed/attempted ({} of {})",
        "fail_ratio", fail_ratio, report.failed, report.attempted
    );
    for f in &report.failures {
        println!("# FAILURE: {f}");
    }
    let meta: Vec<String> = report
        .meta
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"meta\":{{{}}}}}", meta.join(","));
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(",")
    );
}
