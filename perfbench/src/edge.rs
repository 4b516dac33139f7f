//! `edge_sfc`: the paper's §5 prototype on one switch.
//!
//! The `fig9_testbed` placement serves the Fig. 2 chains mixed 50/30/20 by
//! path. Flow popularity is Zipf(1.1) within each path; packets are
//! minimum-size TCP. The firewall holds a few thousand `acl_ruleset`-shaped
//! deny rules that a known share of path-1 flows match. Every first packet
//! of a flow punts to the load balancer's control plane, which installs the
//! session and reinjects; idle sessions age out through `advance_time`, so
//! new flows keep arriving. One packet at a time goes through
//! `Switch::inject_buf` with telemetry off.
//!
//! Nearly all time is spent in the compiled engine, the classifier index
//! and the punt/learn path; no transport is involved.

use crate::clock::Meter;
use crate::stats::{self, median};
use crate::{metric, trace, Ctx, Metric, Report, RoundFigures, IDLE_SHARE, ROUNDS, SETUP_REPS};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, RtcConfig, RtcSession, Switch, TofinoProfile};
use dejavu_compiler::StageAllocator;
use dejavu_core::control_plane::{rewind_and_clear, ControlPlane, PuntResponse};
use dejavu_core::deploy::{deploy, DeployOptions, Deployment};
use dejavu_core::merge::merge_programs;
use dejavu_core::routing::RoutingConfig;
use dejavu_core::{compose_pipelet, ChainSet, NfModule, PipeletPlan, PlacementProblem};
use dejavu_integration::{fig9_placement, EXIT_PORT, IN_PORT, LOOPBACK_PORT_P0, LOOPBACK_PORT_P1};
use dejavu_nf::load_balancer::{five_tuple_of, FiveTuple, SESSION_TABLE};
use dejavu_nf::{classifier, firewall, load_balancer, router, vgw};
use dejavu_p4ir::table::TableEntry;
use dejavu_p4ir::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The load balancer's virtual IP (198.51.100.80).
const VIP: u32 = 0xc633_6450;
/// The VGW's tenant prefix: 198.51.100.0/24 is VNI 700 and translates to
/// the internal address below.
const TENANT_PREFIX: (u32, u16) = (0xc633_6400, 24);
const VNI: u16 = 700;
const INTERNAL: u32 = 0x0ac8_0050;
/// Path-3 destinations: 203.0.113.0/24, untouched by every NF.
const DIRECT_NET: u32 = 0xcb00_7100;
/// Router rewrites.
const ROUTER_DMAC: u64 = 0x0200_0000_0099;
const ROUTER_SMAC: u64 = 0x0200_0000_0001;
/// Backends the control plane spreads sessions over.
const BACKENDS: u32 = 16;
const BACKEND_BASE: u32 = 0x0a63_0001;

/// Flows per path. Path 1 holds the deny flows.
const FLOWS: [usize; 3] = [4000, 2000, 1500];
const ZIPF_S: f64 = 1.1;
/// Deny rules in the firewall ACL.
const ACL_RULES: usize = 1000;
/// Path-1 flows of rank `r` with `r % DENY_EVERY == DENY_PHASE` match a
/// deny rule: a tenth of the flows, the fourth most popular among them,
/// so denied packets are a known share (about 6%) of the trace on every
/// seed. With that share the loaded median falls well inside path 2's
/// latencies rather than on the edge between two paths.
const DENY_EVERY: usize = 10;
const DENY_PHASE: usize = 3;
/// Most popular flows of each path; the idle phase replays path 1's.
const HEAD: usize = 50;
/// Packets in the generated trace; the first pass is the warm-up that
/// yields the simulated metrics, later passes repeat it.
const TRACE_LEN: usize = 1 << 17;
/// Path of each slot in a 10-packet cycle: 50/30/20.
const PATH_CYCLE: [usize; 10] = [0, 1, 0, 2, 0, 1, 0, 1, 0, 2];
/// The logical clock ticks once per this many packets.
const AGE_EVERY: usize = 1024;
/// LB sessions idle for this many ticks are evicted.
const SESSION_IDLE_TICKS: u64 = 24;

/// Cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn backend_for(t: &FiveTuple) -> u32 {
    BACKEND_BASE + t.session_hash() % BACKENDS
}

fn prefix_mask(len: u32) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

/// One deny rule: a source prefix inside path 1's 10.1.0.0/16 and a
/// destination prefix, both derived from one `acl_ruleset` rule's masks,
/// for TCP to port 22.
struct DenyRule {
    src: (u32, u32),
    dst: (u32, u32),
    priority: i32,
}

fn deny_rules(seed: u64) -> Vec<DenyRule> {
    dejavu_traffic::acl_ruleset(ACL_RULES, seed ^ 0xac1)
        .iter()
        .map(|r| {
            let src_len = 16 + r.src_mask.leading_ones() / 2;
            let dst_len = r.dst_mask.leading_ones();
            DenyRule {
                src: (
                    (0x0a01_0000 | (r.src_val & 0xffff)) & prefix_mask(src_len),
                    src_len,
                ),
                dst: (r.dst_val & prefix_mask(dst_len), dst_len),
                priority: r.priority,
            }
        })
        .collect()
}

fn deny_entry(r: &DenyRule) -> TableEntry {
    firewall::deny_entry(
        (r.src.0, r.src.1 as u16),
        (r.dst.0, r.dst.1 as u16),
        Some(6),
        (22, 22),
        r.priority,
    )
}

/// One generated flow: its minimum-size packet and what must come out.
pub struct Flow {
    pub bytes: Vec<u8>,
    pub path: usize,
    pub deny: bool,
    /// Destination address the emitted packet must carry.
    pub expect_dst: u32,
}

fn tcp(src: u32, dst: u32, sport: u16, dport: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(src)
        .dst_ip(dst)
        .src_port(sport)
        .dst_port(dport)
        .build()
}

/// The seeded inputs: flows, the packet trace over them, and the ACL.
pub struct Inputs {
    pub flows: Vec<Flow>,
    pub trace: Vec<u32>,
    rules: Vec<DenyRule>,
    /// First flow index of each path.
    offsets: [usize; 3],
}

fn zipf_cdf(n: usize) -> Vec<f64> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x / total;
            acc
        })
        .collect()
}

pub fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let rules = deny_rules(seed);
    let mut flows = Vec::new();
    let mut offsets = [0; 3];
    for (path, &n) in FLOWS.iter().enumerate() {
        offsets[path] = flows.len();
        for rank in 0..n {
            let sport = rng.gen_range(1024u16..65535);
            let host = rng.gen::<u32>() & 0xffff;
            let src = 0x0a00_0000 | ((path as u32 + 1) << 16) | host;
            let flow = match path {
                0 if rank % DENY_EVERY == DENY_PHASE => {
                    let r = &rules[rng.gen_range(0..rules.len())];
                    let s = r.src.0 | (rng.gen::<u32>() & !prefix_mask(r.src.1));
                    let d = r.dst.0 | (rng.gen::<u32>() & !prefix_mask(r.dst.1));
                    Flow {
                        bytes: tcp(s, d, sport, 22),
                        path,
                        deny: true,
                        expect_dst: 0,
                    }
                }
                0 => Flow {
                    bytes: tcp(src, VIP, sport, 80),
                    path,
                    deny: false,
                    expect_dst: backend_for(&FiveTuple {
                        src_addr: src,
                        dst_addr: INTERNAL,
                        protocol: 6,
                        src_port: sport,
                        dst_port: 80,
                    }),
                },
                1 => Flow {
                    bytes: tcp(src, TENANT_PREFIX.0 | rng.gen_range(1u32..255), sport, 80),
                    path,
                    deny: false,
                    expect_dst: INTERNAL,
                },
                _ => {
                    let dst = DIRECT_NET | rng.gen_range(1u32..255);
                    Flow {
                        bytes: tcp(src, dst, sport, 80),
                        path,
                        deny: false,
                        expect_dst: dst,
                    }
                }
            };
            flows.push(flow);
        }
    }
    let cdfs: Vec<Vec<f64>> = FLOWS.iter().map(|&n| zipf_cdf(n)).collect();
    let trace = (0..TRACE_LEN)
        .map(|i| {
            let path = PATH_CYCLE[i % PATH_CYCLE.len()];
            let x: f64 = rng.gen();
            let rank = cdfs[path].partition_point(|&c| c < x).min(FLOWS[path] - 1);
            (offsets[path] + rank) as u32
        })
        .collect();
    Inputs {
        flows,
        trace,
        rules,
        offsets,
    }
}

/// The five Fig. 2 NFs.
fn nfs() -> Vec<NfModule> {
    vec![
        classifier::classifier(),
        firewall::firewall(),
        vgw::vgw(),
        load_balancer::load_balancer(),
        router::router(),
    ]
}

fn routing(chains: &ChainSet) -> RoutingConfig {
    RoutingConfig {
        loopback_port: [(0usize, LOOPBACK_PORT_P0), (1usize, LOOPBACK_PORT_P1)]
            .into_iter()
            .collect(),
        exit_ports: chains
            .chains
            .iter()
            .map(|c| (c.path_id, EXIT_PORT))
            .collect(),
        honor_out_port: false,
    }
}

fn deploy_options() -> DeployOptions {
    DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    }
}

/// Policy rules: a classifier prefix per path, the VGW tenant mapping, a
/// default route, and the deny ACL.
fn policy_rules(rules: &[DenyRule]) -> Vec<(&'static str, &'static str, TableEntry)> {
    let mut out = Vec::new();
    for path in 1u16..=3 {
        let prefix = (0x0a00_0000 | (u32::from(path) << 16), 16);
        out.push((
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry(prefix, (0, 0), path, 100 + path),
        ));
    }
    out.push((
        "vgw",
        vgw::VNI_TABLE,
        vgw::vni_translate_entry(TENANT_PREFIX, VNI, INTERNAL),
    ));
    out.push((
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, ROUTER_DMAC, ROUTER_SMAC),
    ));
    for r in rules {
        out.push(("firewall", firewall::ACL_TABLE, deny_entry(r)));
    }
    out
}

/// The LB's control plane: learn the session from the punted packet, pin
/// it to a backend, rewind so the LB re-executes, reinject.
fn control_plane() -> ControlPlane {
    let mut cp = ControlPlane::new();
    cp.register_handler(
        "lb",
        Box::new(|bytes| match five_tuple_of(bytes) {
            Some(t) => PuntResponse {
                install: vec![(
                    "lb".into(),
                    SESSION_TABLE.into(),
                    load_balancer::session_entry_for(&t, backend_for(&t)),
                )],
                reinject: true,
                reinject_bytes: rewind_and_clear(bytes),
            },
            None => PuntResponse::default(),
        }),
    );
    cp
}

/// A deployed, armed edge switch ready to serve.
pub struct Edge {
    pub switch: Switch,
    pub dep: Deployment,
    pub cp: ControlPlane,
}

/// Deploys the §5 prototype and arms it: rules, ACL, session aging and the
/// punt handler.
pub fn setup(inp: &Inputs) -> Edge {
    let nfs = nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::edge_cloud_example();
    let (mut switch, dep) = {
        let _s = trace::span("setup.deploy", 0);
        deploy(
            &refs,
            &chains,
            &fig9_placement(),
            &TofinoProfile::wedge_100b_32x(),
            &routing(&chains),
            &deploy_options(),
        )
        .expect("the fig9 placement deploys")
    };
    {
        let _s = trace::span("setup.install", 0);
        for (nf, table, entry) in policy_rules(&inp.rules) {
            dep.install(&mut switch, nf, table, entry)
                .expect("policy rule installs");
        }
        dep.set_idle_timeout(&mut switch, "lb", SESSION_TABLE, Some(SESSION_IDLE_TICKS))
            .expect("the session table ages");
    }
    Edge {
        switch,
        dep,
        cp: control_plane(),
    }
}

/// Deploys `SETUP_REPS` times; returns the last instance and the median
/// set-up time in reference seconds.
fn timed_setup(inp: &Inputs) -> (Edge, f64) {
    let mut meter = Meter::default();
    let mut times = Vec::new();
    let mut edge = None;
    for _ in 0..SETUP_REPS {
        drop(edge.take());
        let (e, secs) = meter.time(|| setup(inp));
        edge = Some(e);
        times.push(secs);
    }
    (edge.expect("at least one set-up"), median(&times))
}

fn emitted_ok(bytes: &[u8], expect_dst: u32) -> bool {
    bytes.len() >= 34
        && bytes[12..14] == [0x08, 0x00]
        && bytes[30..34] == expect_dst.to_be_bytes()
        && bytes[..6] == ROUTER_DMAC.to_be_bytes()[2..]
        && bytes[6..12] == ROUTER_SMAC.to_be_bytes()[2..]
}

/// Per-phase tallies.
#[derive(Default)]
struct Phase {
    packets: u64,
    learned: u64,
    meter: Meter,
    sim_lat: Vec<f64>,
    passes: u64,
    emitted: u64,
}

struct Runner<'a> {
    edge: Edge,
    inp: &'a Inputs,
    buf: Vec<u8>,
    /// Packets handed in so far (drives the logical clock).
    sent: usize,
    evictions: u64,
}

impl Runner<'_> {
    /// Hands in one packet of `flow`, runs the punt/learn loop when it
    /// misses a session, and checks the result. Returns simulated latency
    /// and pipeline passes of an emitted packet.
    fn packet(
        &mut self,
        flow: usize,
        ph: &mut Phase,
        rep: &mut Report,
        age: bool,
    ) -> Option<(f64, u64)> {
        let id = self.sent as u64;
        let f = &self.inp.flows[flow];
        self.buf.clear();
        self.buf.extend_from_slice(&f.bytes);
        let out = {
            let _s = trace::span("engine.inject_buf", id);
            self.edge.switch.inject_buf(&mut self.buf, IN_PORT)
        };
        self.sent += 1;
        ph.packets += 1;
        if age && self.sent.is_multiple_of(AGE_EVERY) {
            let _s = trace::span("cp.advance_time", id);
            self.evictions += self.edge.switch.advance_time(1).len() as u64;
        }
        let o = match out {
            Ok(o) => o,
            Err(e) => {
                rep.check(false, || format!("flow {flow}: inject_buf failed: {e}"));
                return None;
            }
        };
        match o.disposition {
            Disposition::Dropped => {
                rep.check(f.deny, || {
                    format!("flow {flow} dropped but matches no deny rule")
                });
                None
            }
            Disposition::Emitted { port } => {
                let ok = !f.deny && port == EXIT_PORT && emitted_ok(&self.buf, f.expect_dst);
                rep.check(ok, || {
                    format!(
                        "flow {flow} (path {}) emitted wrong output on port {port}",
                        f.path + 1
                    )
                });
                Some((
                    o.latency_ns,
                    1 + (o.recirculations + o.resubmissions) as u64,
                ))
            }
            Disposition::ToCpu => {
                let Edge { switch, dep, cp } = &mut self.edge;
                cp.enqueue_punt(self.buf.clone(), IN_PORT);
                let reinjected = {
                    let _s = trace::span("cp.process_punts", id);
                    cp.process_punts(switch, dep)
                };
                let t = match reinjected {
                    Ok(mut ts) if ts.len() == 1 && cp.pending_punts() == 0 => ts.remove(0),
                    other => {
                        let pending = cp.pending_punts();
                        rep.check(false, || format!("flow {flow}: punt did not converge after one reinject: {other:?}, {pending} pending"));
                        return None;
                    }
                };
                let ok = !f.deny
                    && t.disposition == (Disposition::Emitted { port: EXIT_PORT })
                    && emitted_ok(&t.final_bytes, f.expect_dst);
                rep.check(ok, || {
                    format!(
                        "flow {flow}: reinjected packet {:?} has wrong output",
                        t.disposition
                    )
                });
                ph.learned += 1;
                Some((
                    o.latency_ns + t.latency_ns,
                    2 + (o.recirculations + o.resubmissions + t.recirculations + t.resubmissions)
                        as u64,
                ))
            }
        }
    }

    /// Hands in packets of `next()` flows for `seconds`, timing each one.
    fn timed(
        &mut self,
        seconds: f64,
        rep: &mut Report,
        traced: bool,
        age: bool,
        mut next: impl FnMut() -> usize,
    ) -> Phase {
        let mut ph = Phase::default();
        while ph.meter.elapsed_s() < seconds {
            for _ in 0..256 {
                let flow = next();
                let t0 = Instant::now();
                let _s = traced.then(|| trace::span("bench.packet", self.sent as u64));
                self.packet(flow, &mut ph, rep, age);
                ph.meter.sample(t0.elapsed().as_nanos() as f64);
            }
            if ph.meter.window_due() {
                ph.meter.close_window();
            }
        }
        ph.meter.close_window();
        ph
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let inp = inputs(ctx.seed);
    let (edge, setup_s) = timed_setup(&inp);
    let mut r = Runner {
        edge,
        inp: &inp,
        buf: Vec::with_capacity(2048),
        sent: 0,
        evictions: 0,
    };

    // Warm-up: the first pass over the trace, untimed. Its emitted
    // packets give the simulated metrics, which depend only on the seed.
    let mut warm = Phase::default();
    for i in 0..TRACE_LEN {
        let flow = inp.trace[i] as usize;
        if let Some((sim, passes)) = r.packet(flow, &mut warm, &mut rep, true) {
            warm.sim_lat.push(sim);
            warm.passes += passes;
            warm.emitted += 1;
        }
    }
    let mut pos = TRACE_LEN;

    // Idle: one established packet at a time from path 1's Zipf head (the
    // full five-NF chain), no clock ticks, no new flows. Loaded: the trace,
    // with aging.
    let head: Vec<usize> = (inp.offsets[0]..inp.offsets[0] + HEAD)
        .filter(|&f| !inp.flows[f].deny)
        .collect();
    let round_s = ctx.seconds / ROUNDS as f64;
    let (mut k, mut learned, mut packets, mut learn_s) = (0usize, 0u64, 0u64, 0.0);
    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        let idle = r.timed(round_s * IDLE_SHARE, &mut rep, false, false, || {
            k += 1;
            head[(k - 1) % head.len()]
        });
        let traced = ctx.trace && round % 2 == 1;
        trace::set_enabled(traced);
        let loaded = r.timed(round_s * (1.0 - IDLE_SHARE), &mut rep, traced, true, || {
            pos += 1;
            inp.trace[(pos - 1) % TRACE_LEN] as usize
        });
        trace::set_enabled(false);
        learned += loaded.learned;
        packets += loaded.packets;
        learn_s += loaded.meter.ref_s;
        rounds.push(RoundFigures {
            packets: loaded.packets,
            loaded: loaded.meter,
            idle: idle.meter,
        });
    }
    if ctx.trace {
        crate::trace_metrics(&mut rep, "edge_sfc", &rounds);
    } else {
        crate::timing_metrics(&mut rep, setup_s, &rounds);
        rep.e2e.push(metric(
            "sim_lat_mean_ns",
            stats::mean(&warm.sim_lat),
            "sim_ns",
        ));
        rep.e2e.push(metric(
            "passes_per_pkt",
            warm.passes as f64 / warm.emitted as f64,
            "count",
        ));
        rep.extra.push(metric(
            "sim_lat_p50_ns",
            stats::quantile(&warm.sim_lat, 0.5),
            "sim_ns",
        ));
        rep.extra.push(metric(
            "sim_lat_p99_ns",
            stats::quantile(&warm.sim_lat, 0.99),
            "sim_ns",
        ));
        rep.extra
            .push(metric("learn_per_s", learned as f64 / learn_s, "flows/s"));
        rep.extra.push(metric(
            "punt_share",
            learned as f64 / packets as f64,
            "ratio",
        ));
    }
    rep.meta("telemetry", "off");
    rep.meta("transport", "none");
    rep.meta("evictions", r.evictions);
    rep
}

// ---------------------------------------------------------------------
// Layer probes: fixed amounts of work per layer, each inside its spans.
// ---------------------------------------------------------------------

/// Median seconds of `reps` calls of `f`, each inside a span.
fn timed_median(name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(reps);
    for i in 0..reps {
        let _s = trace::span(name, i as u64);
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64());
    }
    median(&v)
}

/// Set-up broken into the steps `deploy()` takes, plus placement search
/// and rule installs.
fn setup_probe(inp: &Inputs, out: &mut Vec<Metric>) {
    const REPS: usize = 3;
    let nfs = nfs();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let chains = ChainSet::edge_cloud_example();
    let profile = TofinoProfile::wedge_100b_32x();
    let placement = fig9_placement();
    let merge_s = timed_median("setup.merge", REPS, || {
        merge_programs("dejavu", &refs).expect("Fig. 2 NFs merge");
    });
    let merged = merge_programs("dejavu", &refs).expect("Fig. 2 NFs merge");
    let plans: Vec<PipeletPlan> = (0..profile.pipelines)
        .flat_map(|p| [PipeletId::ingress(p), PipeletId::egress(p)])
        .map(|pipelet| PipeletPlan {
            pipelet,
            nfs: placement
                .pipelets
                .get(&pipelet)
                .cloned()
                .unwrap_or_default()
                .into_iter()
                .map(|n| {
                    if n == "classifier" {
                        dejavu_core::compose::PlannedNf::entry(n)
                    } else {
                        dejavu_core::compose::PlannedNf::indexed(n)
                    }
                })
                .collect(),
            mode: placement.mode(pipelet),
        })
        .collect();
    let compose_s = timed_median("setup.compose", REPS, || {
        for plan in &plans {
            compose_pipelet(&merged, plan).expect("pipelet composes");
        }
    });
    let programs: Vec<Program> = plans
        .iter()
        .map(|plan| compose_pipelet(&merged, plan).expect("pipelet composes"))
        .collect();
    let compile_s = timed_median("setup.compile", REPS, || {
        for (program, plan) in programs.iter().zip(&plans) {
            StageAllocator::new(profile.clone())
                .with_lint_config(dejavu_core::lint::pipelet_lint_config(program, plan))
                .compile(program)
                .expect("pipelet compiles");
        }
    });
    let load_s = timed_median("setup.load_program", REPS, || {
        let mut sw = Switch::new(profile.clone());
        for (program, plan) in programs.iter().zip(&plans) {
            sw.load_program(plan.pipelet, program.clone())
                .expect("program loads");
        }
    });
    let stages = [
        ("classifier", 2),
        ("firewall", 2),
        ("vgw", 2),
        ("lb", 3),
        ("router", 2),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s))
    .collect();
    let problem = PlacementProblem::new(chains.clone(), stages);
    let place_s = timed_median("setup.place", REPS, || {
        problem
            .exhaustive(1 << 24)
            .expect("Fig. 2 placement exists");
    });
    let deploy_s = timed_median("setup.deploy", REPS, || {
        deploy(
            &refs,
            &chains,
            &placement,
            &profile,
            &routing(&chains),
            &deploy_options(),
        )
        .expect("the fig9 placement deploys");
    });
    let rules = policy_rules(&inp.rules);
    let mut installs = Vec::new();
    for i in 0..REPS {
        let (mut sw, dep) = deploy(
            &refs,
            &chains,
            &placement,
            &profile,
            &routing(&chains),
            &deploy_options(),
        )
        .expect("the fig9 placement deploys");
        let _s = trace::span("setup.install", i as u64);
        let t = Instant::now();
        for (nf, table, entry) in rules.clone() {
            dep.install(&mut sw, nf, table, entry)
                .expect("policy rule installs");
        }
        installs.push(t.elapsed().as_secs_f64());
    }
    let install_s = median(&installs);
    out.push(metric("setup.merge_s", merge_s, "s"));
    out.push(metric("setup.compose_s", compose_s, "s"));
    out.push(metric("setup.compile_s", compile_s, "s"));
    out.push(metric("setup.place_s", place_s, "s"));
    out.push(metric("setup.load_s", load_s, "s"));
    out.push(metric("setup.install_s", install_s, "s"));
    out.push(metric("setup.deploy_s", deploy_s, "s"));
    out.push(metric(
        "setup.deploy_residual_s",
        deploy_s - (merge_s + compose_s + compile_s + load_s),
        "s",
    ));
    out.push(metric(
        "index.install_us",
        install_s / rules.len() as f64 * 1e6,
        "us",
    ));
}

/// Packets of established flows per class: path 1 (session installed),
/// path 2, path 3, and denied.
fn class_packets(inp: &Inputs) -> [Vec<Vec<u8>>; 4] {
    let mut out: [Vec<Vec<u8>>; 4] = Default::default();
    for f in &inp.flows {
        let class = if f.deny { 3 } else { f.path };
        if out[class].len() < 256 {
            out[class].push(f.bytes.clone());
        }
    }
    out
}

/// ns per packet of `inject_buf` over `pkts`, cycled `rounds` times.
fn buf_ns(sw: &mut Switch, pkts: &[Vec<u8>], rounds: usize, name: &'static str) -> (f64, u64) {
    let mut buf = Vec::with_capacity(2048);
    let mut passes = 0u64;
    let _s = trace::span(name, 0);
    let t = Instant::now();
    for _ in 0..rounds {
        for p in pkts {
            buf.clear();
            buf.extend_from_slice(p);
            let o = sw
                .inject_buf(&mut buf, IN_PORT)
                .expect("established packet runs");
            passes += 1 + (o.recirculations + o.resubmissions) as u64;
        }
    }
    (
        t.elapsed().as_nanos() as f64 / (rounds * pkts.len()) as f64,
        passes,
    )
}

/// A switch whose LB holds a session for every path-1 flow in `pkts`.
fn warmed(inp: &Inputs, pkts: &[Vec<u8>]) -> Switch {
    let mut e = setup(inp);
    for p in pkts {
        let t =
            e.cp.inject_tracking_punts(&mut e.switch, p.clone(), IN_PORT)
                .expect("path-1 packet runs");
        if t.disposition == Disposition::ToCpu {
            e.cp.process_punts(&mut e.switch, &e.dep)
                .expect("punt converges");
        }
    }
    e.switch
}

fn engine_probe(
    classes: &[Vec<Vec<u8>>; 4],
    mut sw: Switch,
    rep: &mut Report,
    out: &mut Vec<Metric>,
) {
    const ROUNDS: usize = 40;
    let names = [
        ("engine.ns_per_pkt.path1", "engine.inject_buf.path1"),
        ("engine.ns_per_pkt.path2", "engine.inject_buf.path2"),
        ("engine.ns_per_pkt.path3", "engine.inject_buf.path3"),
        ("engine.ns_per_pkt.deny", "engine.inject_buf.deny"),
    ];
    let (mut total_ns, mut total_passes) = (0.0, 0u64);
    for (class, (metric_name, span)) in names.into_iter().enumerate() {
        buf_ns(&mut sw, &classes[class], 2, span);
        let (ns, passes) = buf_ns(&mut sw, &classes[class], ROUNDS, span);
        out.push(metric(metric_name, ns, "ns"));
        total_ns += ns * (ROUNDS * classes[class].len()) as f64;
        total_passes += passes;
    }
    out.push(metric(
        "engine.ns_per_pass",
        total_ns / total_passes as f64,
        "ns",
    ));

    // Allocations on established path-1 flows, once the scratch buffers
    // have grown to size.
    let before = stats::allocs();
    let (_, _) = buf_ns(&mut sw, &classes[0], 4, "engine.inject_buf.allocs");
    let allocs = stats::allocs() - before;
    out.push(metric(
        "engine.allocs_per_pkt",
        allocs as f64 / (4 * classes[0].len()) as f64,
        "count",
    ));

    // The traced engine: `Switch::inject` with full traversal records.
    let pkts: Vec<InjectedPacket> = classes[0]
        .iter()
        .map(|p| InjectedPacket::new(p.clone(), IN_PORT))
        .collect();
    let mut v = Vec::new();
    for round in 0..5 {
        let _s = trace::span("engine.inject", round);
        let t = Instant::now();
        for p in &pkts {
            let tr = sw.inject(p.clone()).expect("established packet runs");
            rep.check(
                tr.disposition == (Disposition::Emitted { port: EXIT_PORT }),
                || format!("traced engine probe: {:?}", tr.disposition),
            );
        }
        v.push(t.elapsed().as_nanos() as f64 / pkts.len() as f64);
    }
    out.push(metric("engine.traced_ns_per_pkt", median(&v), "ns"));

    // Telemetry on vs off over the same mixed established packets,
    // interleaved so drift hits both equally.
    let mix: Vec<Vec<u8>> = classes.iter().take(3).flatten().cloned().collect();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        sw.set_telemetry(false);
        off.push(buf_ns(&mut sw, &mix, 4, "telemetry.off").0);
        sw.set_telemetry(true);
        on.push(buf_ns(&mut sw, &mix, 4, "telemetry.on").0);
    }
    sw.set_telemetry(false);
    out.push(metric(
        "telemetry.on_off_ratio",
        median(&off) / median(&on),
        "ratio",
    ));
}

/// ACL lookup cost: one pipelet holding only the firewall's ACL table with
/// the run's ruleset, minus the same program with an empty table.
fn index_probe(inp: &Inputs, rep: &mut Report, out: &mut Vec<Metric>) {
    let fw = firewall::firewall();
    let program = fw.program().clone();
    let pid = PipeletId::ingress(0);
    let mut empty = Switch::new(TofinoProfile::wedge_100b_32x());
    empty
        .load_program(pid, program.clone())
        .expect("ACL program loads");
    let mut full = empty.clone();
    for r in &inp.rules {
        full.install_entry(pid, firewall::ACL_TABLE, deny_entry(r))
            .expect("ACL rule installs");
    }
    let kind = full
        .table_index_kind(pid, firewall::ACL_TABLE)
        .map_or_else(|| "none".to_string(), |k| k.name().to_string());
    rep.meta("acl_index_kind", kind);
    // Permitted packets (port 80) walk the whole index and miss.
    let pkts: Vec<Vec<u8>> = inp
        .flows
        .iter()
        .filter(|f| !f.deny)
        .take(512)
        .map(|f| f.bytes.clone())
        .collect();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        with.push(buf_ns(&mut full, &pkts, 8, "index.acl_full").0);
        without.push(buf_ns(&mut empty, &pkts, 8, "index.acl_empty").0);
    }
    out.push(metric(
        "index.acl_lookup_ns",
        median(&with) - median(&without),
        "ns",
    ));
}

/// Boots an `RtcSession` with one worker per core and records the
/// scheduling mode it chose, read from the threads it started.
pub fn rtc_session(sw: &Switch, rep: &mut Report) -> RtcSession {
    let threads_before = stats::threads();
    let sess = RtcSession::new(
        sw,
        RtcConfig {
            workers: host_cores(),
            ..RtcConfig::default()
        },
    );
    let spawned = stats::threads().saturating_sub(threads_before);
    rep.meta("rtc_workers", sess.workers());
    let mode = if spawned as usize >= sess.workers() {
        "threaded"
    } else {
        "inline"
    };
    rep.meta("rtc_mode", mode);
    sess
}

fn rtc_probe(classes: &[Vec<Vec<u8>>; 4], sw: &Switch, rep: &mut Report, out: &mut Vec<Metric>) {
    let workload: Vec<InjectedPacket> = classes
        .iter()
        .flatten()
        .cycle()
        .take(8192)
        .map(|p| InjectedPacket::new(p.clone(), IN_PORT))
        .collect();
    let mut sess = rtc_session(sw, rep);
    let (mut pps, mut exhausted, mut peak, mut skew) = (Vec::new(), 0u64, 0usize, Vec::new());
    for i in 0..7 {
        let _s = trace::span("rtc.run", i);
        let r = sess.run(&workload);
        rep.check(
            r.errors == 0 && r.to_cpu == 0 && r.pool_dropped == 0,
            || {
                format!(
                    "rtc probe: {} errors, {} punts, {} pool drops",
                    r.errors, r.to_cpu, r.pool_dropped
                )
            },
        );
        pps.push(r.packets_per_sec);
        exhausted += r.pool_exhausted;
        peak = peak.max(r.pool_in_use_peak);
        let max = r.worker_packets.iter().copied().max().unwrap_or(0) as f64;
        let mean =
            r.worker_packets.iter().sum::<u64>() as f64 / r.worker_packets.len().max(1) as f64;
        skew.push(max / mean.max(1.0));
    }
    drop(sess);
    out.push(metric("rtc.pps", median(&pps), "packets/s"));
    out.push(metric("rtc.pool_exhausted", exhausted as f64, "count"));
    out.push(metric("rtc.pool_in_use_peak", peak as f64, "count"));
    out.push(metric("rtc.worker_skew", median(&skew), "ratio"));
}

/// The punt → install → reinject loop over new flows, then aging them out.
fn cp_probe(inp: &Inputs, rep: &mut Report, out: &mut Vec<Metric>) {
    let mut e = setup(inp);
    let path1: Vec<&Flow> = inp.flows[..FLOWS[0]]
        .iter()
        .filter(|f| !f.deny)
        .take(2000)
        .collect();
    let mut punt_ns = Vec::new();
    for (i, f) in path1.iter().enumerate() {
        let t =
            e.cp.inject_tracking_punts(&mut e.switch, f.bytes.clone(), IN_PORT)
                .expect("path-1 packet runs");
        rep.check(t.disposition == Disposition::ToCpu, || {
            "cp probe: new flow did not punt".into()
        });
        let _s = trace::span("cp.process_punts", i as u64);
        let start = Instant::now();
        let ts =
            e.cp.process_punts(&mut e.switch, &e.dep)
                .expect("punt converges");
        punt_ns.push(start.elapsed().as_nanos() as f64);
        rep.check(
            ts.len() == 1 && emitted_ok(&ts[0].final_bytes, f.expect_dst),
            || "cp probe: reinjected packet wrong".into(),
        );
    }
    out.push(metric("cp.punts", e.cp.stats.punts as f64, "count"));
    out.push(metric("cp.installs", e.cp.stats.installs as f64, "count"));
    out.push(metric("cp.punt_us", median(&punt_ns) / 1e3, "us"));
    let (mut evicted, mut age_ns, mut calls) = (0usize, 0.0, 0u32);
    while calls < 4 * SESSION_IDLE_TICKS as u32 {
        let _s = trace::span("cp.advance_time", u64::from(calls));
        let start = Instant::now();
        evicted += e.switch.advance_time(1).len();
        age_ns += start.elapsed().as_nanos() as f64;
        calls += 1;
    }
    rep.check(evicted == path1.len(), || {
        format!("cp probe: {evicted} of {} sessions aged out", path1.len())
    });
    out.push(metric("cp.evictions", evicted as f64, "count"));
    out.push(metric("cp.age_us", age_ns / f64::from(calls) / 1e3, "us"));
}

/// Per-layer probes of the single-switch layers.
pub fn probes(ctx: &Ctx, rep: &mut Report) -> Vec<Metric> {
    let inp = inputs(ctx.seed);
    let mut out = Vec::new();
    setup_probe(&inp, &mut out);
    let classes = class_packets(&inp);
    let sw = warmed(&inp, &classes[0]);
    rtc_probe(&classes, &sw, rep, &mut out);
    engine_probe(&classes, sw, rep, &mut out);
    index_probe(&inp, rep, &mut out);
    cp_probe(&inp, rep, &mut out);
    out
}
