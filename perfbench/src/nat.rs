//! `nat_churn`: a learned-NAT fleet on three `ChannelTransport` members,
//! live-migrated back and forth while it learns.
//!
//! The chains are classifier→nat→router and classifier→mark_a, and the
//! NAT cannot share the classifier's pipelet. NAT flows are learned
//! through digests in bursts, interleaved with a windowed stream of
//! established-flow packets; the oldest flows are removed as new ones are
//! learned, so the live set stays the same size. After every two learn
//! rounds the fleet migrates between the `ExhaustiveSearch` optima for the
//! original and the inverted chain weights, with packets in flight, and
//! every live flow is then checked inbound.
//!
//! The time goes to state snapshot/restore, member rebuilds, the learn
//! path and the orchestrator; per-packet engine cost is a small share.

use crate::clock::Meter;
use crate::stats::{self, median};
use crate::{metric, trace, Ctx, Metric, Report, RoundFigures, IDLE_SHARE, ROUNDS, SETUP_REPS};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PortId, StateSnapshot, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{ClusterPlacement, ClusterProblem, ClusterWiring};
use dejavu_core::orchestrator::{
    migrate, AnnealingSearch, ExhaustiveSearch, FleetProblem, FleetSpec, PlacementSearch,
    SwarmSearch,
};
use dejavu_core::placement::PlacementProblem;
use dejavu_core::transport::{
    spawn_cluster, ChannelTransport, ClusterError, ClusterHandle, ClusterOptions, WireTraversal,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{marker_nf, EXIT_PORT, IN_PORT};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, nat_return_entry, NAT_FLOW_STREAM, NAT_IN_TABLE,
    NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, router};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

const SERVER: u32 = 0x0808_0808;
const PUBLIC_IP: u32 = 0xc633_6401;
/// Private clients live in 10.1.0.0/16; mark-path sources in 11.0.0.0/8.
const CLIENT_NET: u32 = 0x0a01_0000;
const MARK_NET: u32 = 0x0b00_0000;
/// Learned flows kept live: each round learns `BURST` and removes the
/// `BURST` oldest.
const LIVE: usize = 512;
const BURST: usize = 128;
/// Established-stream packets per round (one in four on the mark path).
const STREAM: usize = 1024;
/// Packets kept in flight.
const WINDOW: usize = 8;
/// Learn rounds per migration: a cycle is this many rounds, then one
/// migration.
const MIGRATE_EVERY: usize = 2;
/// Established packets replayed synchronously in the warm-up.
const WARM_STREAM: usize = 512;
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// The placement-sensitive fleet: the NAT cannot share a pipelet with the
/// classifier, so inverting the chain weights moves it across switches.
fn fleet_problem() -> FleetProblem {
    let chains = ChainSet::new(vec![
        ChainPolicy::new(1, "nat_path", vec!["classifier", "nat", "router"], 1.0),
        ChainPolicy::new(2, "mark_path", vec!["classifier", "mark_a"], 6.0),
    ])
    .expect("the NAT fleet's chains are valid");
    let stages: BTreeMap<String, u32> =
        [("classifier", 2), ("nat", 6), ("router", 2), ("mark_a", 2)]
            .into_iter()
            .map(|(n, s)| (n.to_string(), s))
            .collect();
    let mut template = PlacementProblem::new(chains, stages);
    template.pipelines = 1;
    FleetProblem::new(ClusterProblem::new(template, 3))
}

/// Inverted weights: the NAT chain dominates.
const SHIFTED_WEIGHTS: [f64; 2] = [8.0, 1.0];

fn nfs() -> Vec<NfModule> {
    vec![
        classifier::classifier(),
        dynamic_nat(),
        router::router(),
        marker_nf("mark_a", 0),
    ]
}

fn exit_ports() -> BTreeMap<u16, PortId> {
    [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect()
}

fn deploy_options() -> DeployOptions {
    DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    }
}

/// Spawns the fleet on `placement` and arms it: learn policy, classifier
/// prefixes, the NAT's outbound rule and a default route.
fn spawn(nfs: &[NfModule], problem: &FleetProblem, placement: &ClusterPlacement) -> ClusterHandle {
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let mut h = spawn_cluster(
        &refs,
        problem.chains(),
        placement,
        &TofinoProfile::wedge_100b_32x(),
        exit_ports(),
        &ClusterWiring::default(),
        &deploy_options(),
        &mut ChannelTransport::new(),
        &ClusterOptions::default(),
    )
    .expect("the NAT fleet spawns");
    h.register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .expect("learn policy registers");
    for (prefix, path) in [
        ((CLIENT_NET, 16u16), 1u16),
        ((0x0800_0000, 8), 1),
        ((MARK_NET, 8), 2),
    ] {
        h.install(
            "classifier",
            classifier::CLASSIFY_TABLE,
            classifier::classify_entry(prefix, (0, 0), path, 100),
        )
        .expect("classifier rule installs");
    }
    h.install(
        "nat",
        NAT_OUT_TABLE,
        nat_out_entry((CLIENT_NET, 16), PUBLIC_IP),
    )
    .expect("NAT rule installs");
    h.install(
        "router",
        router::ROUTES_TABLE,
        router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
    )
    .expect("route installs");
    h
}

fn tcp(src: u32, dst: u32, sport: u16, dport: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(src)
        .dst_ip(dst)
        .src_port(sport)
        .dst_port(dport)
        .build()
}

fn ip_at(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_be_bytes(
        bytes.get(off..off + 4)?.try_into().ok()?,
    ))
}

/// A NAT flow: private source and the port its return mapping is keyed by.
#[derive(Clone, Copy)]
struct NatFlow {
    private: u32,
    port: u16,
}

impl NatFlow {
    fn outbound(&self) -> Vec<u8> {
        tcp(self.private, SERVER, self.port, 80)
    }
    fn inbound(&self) -> Vec<u8> {
        tcp(SERVER, PUBLIC_IP, 80, self.port)
    }
}

/// What a packet handed in must come out as.
#[derive(Clone, Copy)]
enum Expect {
    /// Outbound NAT: source rewritten to the public address.
    Translated,
    /// Mark path: source with the marker bit flipped.
    Marked(u32),
    /// Inbound: destination restored to the private client.
    Restored(u32),
}

fn result_ok(expect: Expect, disposition: Disposition, bytes: &[u8]) -> bool {
    disposition == (Disposition::Emitted { port: EXIT_PORT })
        && match expect {
            Expect::Translated => ip_at(bytes, 26) == Some(PUBLIC_IP),
            Expect::Marked(src) => ip_at(bytes, 26) == Some(src ^ 1),
            Expect::Restored(private) => ip_at(bytes, 30) == Some(private),
        }
}

/// Seeded flow generator: unique ports across every flow a run can have
/// live at once, random private hosts.
struct Flows {
    rng: StdRng,
    next_port: u32,
}

impl Flows {
    fn new(seed: u64) -> Self {
        Flows {
            rng: StdRng::seed_from_u64(seed ^ 0x4a7),
            next_port: 0,
        }
    }
    fn next(&mut self) -> NatFlow {
        // 60000 ports cycle; at most LIVE + BURST are live at once.
        let port = 1024 + (self.next_port % 60_000) as u16;
        self.next_port += 1;
        NatFlow {
            private: CLIENT_NET | (self.rng.gen::<u32>() & 0xffff),
            port,
        }
    }
}

/// The running fleet plus everything needed to migrate and check it.
struct Fleet<'a> {
    h: ClusterHandle,
    nfs: &'a [NfModule],
    problem: &'a FleetProblem,
    placements: [ClusterPlacement; 2],
    current: usize,
    live: VecDeque<NatFlow>,
    flows: Flows,
    rng: StdRng,
    in_flight: HashMap<u64, (Instant, Expect)>,
    meter: Meter,
    packets: u64,
    migrations: u64,
}

impl Fleet<'_> {
    /// A stream packet: an established NAT flow that is not about to be
    /// removed, or a mark-path packet.
    fn stream_packet(&mut self) -> (Vec<u8>, Expect) {
        if self.rng.gen_range(0..4) == 0 {
            let src = MARK_NET | (self.rng.gen::<u32>() & 0x00ff_fffe);
            return (tcp(src, SERVER, 5000, 80), Expect::Marked(src));
        }
        let keep = self.live.len() - BURST.min(self.live.len() / 2);
        let f = self.live[self.live.len() - 1 - self.rng.gen_range(0..keep)];
        (f.outbound(), Expect::Translated)
    }

    fn send(&mut self, bytes: Vec<u8>, expect: Expect, rep: &mut Report, traced: bool) {
        let t0 = Instant::now();
        let r = {
            let _s = traced.then(|| trace::span("cluster.inject_async", self.packets));
            self.h.inject_async(InjectedPacket::new(bytes, IN_PORT))
        };
        match r {
            Ok(id) => {
                self.in_flight.insert(id, (t0, expect));
            }
            Err(e) => rep.check(false, || format!("inject_async failed: {e}")),
        }
    }

    /// Receives deliveries until at most `keep` packets are in flight.
    fn drain_to(&mut self, keep: usize, rep: &mut Report, traced: bool) {
        while self.in_flight.len() > keep {
            let d = {
                let _s = traced.then(|| trace::span("cluster.recv_delivered", self.packets));
                self.h.recv_delivered(DELIVERY_TIMEOUT)
            };
            let d = match d {
                Ok(Some(d)) => d,
                other => {
                    let lost = self.in_flight.len();
                    rep.check(false, || {
                        format!("{lost} packets never delivered: {other:?}")
                    });
                    self.in_flight.clear();
                    return;
                }
            };
            let _s = traced.then(|| trace::span("bench.delivery", d.trace));
            let Some((t0, expect)) = self.in_flight.remove(&d.trace) else {
                rep.check(false, || format!("delivery for unknown trace {}", d.trace));
                continue;
            };
            self.meter.sample(t0.elapsed().as_nanos() as f64);
            self.packets += 1;
            match d.result {
                Ok(w) => rep.check(result_ok(expect, w.disposition, &w.final_bytes), || {
                    format!("streamed packet: {:?}, wrong translation", w.disposition)
                }),
                Err(e) => rep.check(false, || format!("streamed packet failed: {e}")),
            }
        }
    }

    /// Synchronously checks that every live flow translates inbound.
    fn verify_live(&mut self, rep: &mut Report, traced: bool) {
        for i in 0..self.live.len() {
            let f = self.live[i];
            let r = {
                let _s = traced.then(|| trace::span("cluster.inject", i as u64));
                self.h.inject(InjectedPacket::new(f.inbound(), IN_PORT))
            };
            match r {
                Ok(w) => rep.check(
                    result_ok(Expect::Restored(f.private), w.disposition, &w.final_bytes),
                    || {
                        format!(
                            "learned flow {} lost after migration {}",
                            f.port, self.migrations
                        )
                    },
                ),
                Err(e) => rep.check(false, || format!("inbound check failed: {e}")),
            }
        }
    }

    /// Migrates to the other placement with `WINDOW` packets in flight.
    /// Returns (migrate wall time, PAUSE→RESUME window) in seconds.
    fn migrate(&mut self, rep: &mut Report, traced: bool) -> Option<(f64, f64)> {
        for _ in 0..WINDOW {
            let (b, e) = self.stream_packet();
            self.send(b, e, rep, traced);
        }
        let refs: Vec<&NfModule> = self.nfs.iter().collect();
        let wiring = ClusterWiring::default();
        let deploy = deploy_options();
        let spec = FleetSpec {
            nfs: &refs,
            chains: self.problem.chains(),
            profile: &TofinoProfile::wedge_100b_32x(),
            exit_ports: exit_ports(),
            wiring: &wiring,
            deploy: &deploy,
        };
        let (from, to) = (self.current, 1 - self.current);
        let t = Instant::now();
        let r = {
            let _s = traced.then(|| trace::span("migrate.migrate", self.migrations));
            migrate(
                &mut self.h,
                &spec,
                &self.placements[from],
                &self.placements[to],
            )
        };
        let wall = t.elapsed().as_secs_f64();
        self.migrations += 1;
        self.drain_to(0, rep, traced);
        match r {
            Ok(o) => {
                self.current = to;
                rep.check(o.flows_migrated > 0, || "migration moved no flows".into());
                self.verify_live(rep, traced);
                Some((wall, o.duration_ns as f64 / 1e9))
            }
            Err(e) => {
                rep.check(false, || format!("migration failed: {e}"));
                None
            }
        }
    }

    /// One round: a learn burst interleaved with the established stream,
    /// the learn barrier, and removal of the oldest flows.
    fn round(&mut self, rep: &mut Report, traced: bool) {
        let fresh: Vec<NatFlow> = (0..BURST).map(|_| self.flows.next()).collect();
        for i in 0..STREAM {
            if i % (STREAM / BURST) == 0 {
                let f = fresh[i / (STREAM / BURST)];
                self.send(f.outbound(), Expect::Translated, rep, traced);
            }
            let (b, e) = self.stream_packet();
            self.send(b, e, rep, traced);
            self.drain_to(WINDOW - 1, rep, traced);
        }
        self.drain_to(0, rep, traced);
        let report = {
            let _s = traced.then(|| trace::span("learn.process_digests", self.packets));
            self.h.process_digests()
        };
        match report {
            Ok(r) => rep.check(r.entries_installed == BURST, || {
                format!("learned {} of {BURST} new flows", r.entries_installed)
            }),
            Err(e) => rep.check(false, || format!("process_digests failed: {e}")),
        }
        self.live.extend(fresh);
        for _ in 0..BURST {
            let Some(old) = self.live.pop_front() else {
                break;
            };
            let r = {
                let _s = traced.then(|| trace::span("cluster.remove", u64::from(old.port)));
                self.h.remove(
                    "nat",
                    NAT_IN_TABLE,
                    nat_return_entry(PUBLIC_IP, old.port, old.private),
                )
            };
            rep.check(matches!(r, Ok(true)), || {
                format!("removing flow {}: {r:?}", old.port)
            });
        }
    }
}

/// The two placements the fleet alternates between.
fn placements(problem: &FleetProblem) -> [ClusterPlacement; 2] {
    let pre = ExhaustiveSearch::default()
        .search(problem)
        .expect("the fleet has an optimum");
    let post = ExhaustiveSearch::default()
        .search(&problem.with_weights(&SHIFTED_WEIGHTS))
        .expect("the shifted fleet has an optimum");
    assert_ne!(
        pre.placement, post.placement,
        "weight inversion must move the placement"
    );
    [pre.placement, post.placement]
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let nfs = nfs();
    let problem = fleet_problem();
    let placements = placements(&problem);
    let mut meter = Meter::default();
    let mut times = Vec::new();
    let mut handle = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut h) = handle.take() {
            ClusterHandle::shutdown(&mut h).expect("fleet shuts down");
        }
        let (h, secs) = meter.time(|| spawn(&nfs, &problem, &placements[0]));
        handle = Some(h);
        times.push(secs);
    }
    let mut fleet = Fleet {
        h: handle.expect("at least one set-up"),
        nfs: &nfs,
        problem: &problem,
        placements,
        current: 0,
        live: VecDeque::with_capacity(LIVE + BURST),
        flows: Flows::new(ctx.seed),
        rng: StdRng::seed_from_u64(ctx.seed ^ 0x57e),
        in_flight: HashMap::new(),
        meter: Meter::default(),
        packets: 0,
        migrations: 0,
    };
    rep.meta("transport", fleet.h.transport_kind());

    // Warm-up: learn the first live set one packet at a time, then replay
    // established packets; the simulated metrics come from these packets.
    let (mut sim, mut passes) = (Vec::new(), 0u64);
    let mut record = |rep: &mut Report, w: Result<WireTraversal, ClusterError>, expect| match w {
        Ok(w) => {
            rep.check(result_ok(expect, w.disposition, &w.final_bytes), || {
                "warm-up packet: wrong output".into()
            });
            sim.push(w.latency_ns);
            passes += crate::pipeline_passes(&w);
        }
        Err(e) => rep.check(false, || format!("warm-up packet failed: {e}")),
    };
    for _ in 0..LIVE {
        let f = fleet.flows.next();
        let w = fleet.h.inject(InjectedPacket::new(f.outbound(), IN_PORT));
        record(&mut rep, w, Expect::Translated);
        fleet.live.push_back(f);
    }
    match fleet.h.process_digests() {
        Ok(r) => rep.check(r.entries_installed == LIVE, || {
            format!("warm-up learned {} of {LIVE}", r.entries_installed)
        }),
        Err(e) => rep.check(false, || format!("process_digests failed: {e}")),
    }
    // The replay runs on both placements, so the simulated metrics cover
    // both chain layouts the loaded phase alternates between.
    for placement in 0..2 {
        if placement == 1 {
            fleet.migrate(&mut rep, false);
        }
        for _ in 0..WARM_STREAM {
            let (b, e) = fleet.stream_packet();
            let w = fleet.h.inject(InjectedPacket::new(b, IN_PORT));
            record(&mut rep, w, e);
        }
    }
    let sim_p50 = stats::quantile(&sim, 0.5);
    let sim_p99 = stats::quantile(&sim, 0.99);
    let sim_mean = stats::mean(&sim);
    let passes_per_pkt = passes as f64 / sim.len() as f64;

    let round_s = ctx.seconds / ROUNDS as f64;
    let (mut reconfig, mut downtime) = (Vec::new(), Vec::new());
    let (mut learned, mut learn_s) = (0u32, 0.0);
    let mut rounds = Vec::new();
    for round in 0..ROUNDS {
        // Idle: one established packet at a time.
        let mut idle = Meter::default();
        while idle.elapsed_s() < round_s * IDLE_SHARE {
            for _ in 0..16 {
                let (b, e) = fleet.stream_packet();
                let t0 = Instant::now();
                let w = fleet.h.inject(InjectedPacket::new(b, IN_PORT));
                idle.sample(t0.elapsed().as_nanos() as f64);
                match w {
                    Ok(w) => rep.check(result_ok(e, w.disposition, &w.final_bytes), || {
                        "idle packet: wrong output".into()
                    }),
                    Err(err) => rep.check(false, || format!("idle packet failed: {err}")),
                }
            }
            if idle.window_due() {
                idle.close_window();
            }
        }
        idle.close_window();

        // Loaded: learn rounds until the time is up, migrating every
        // other one. Each learn round and each migration is one
        // calibrated window.
        let traced = ctx.trace && round % 2 == 1;
        trace::set_enabled(traced);
        let (p0, learned0) = (fleet.packets, fleet.flows.next_port);
        fleet.meter = Meter::default();
        let mut cycle = 0u64;
        while fleet.meter.elapsed_s() < round_s * (1.0 - IDLE_SHARE) {
            // Whole cycles only, so every round holds the same mix of
            // learning and migration.
            let _s = traced.then(|| trace::span("bench.cycle", cycle));
            cycle += 1;
            for _ in 0..MIGRATE_EVERY {
                fleet.round(&mut rep, traced);
                fleet.meter.close_window();
            }
            let m = fleet.migrate(&mut rep, traced);
            fleet.meter.close_window();
            let speed = *fleet.meter.speeds.last().expect("a window just closed");
            if let Some((wall, window)) = m {
                reconfig.push(wall * speed);
                downtime.push(window * speed);
            }
        }
        trace::set_enabled(false);
        let loaded = std::mem::take(&mut fleet.meter);
        learned += fleet.flows.next_port - learned0;
        learn_s += loaded.ref_s;
        rounds.push(RoundFigures {
            packets: fleet.packets - p0,
            loaded,
            idle,
        });
    }
    if ctx.trace {
        crate::trace_metrics(&mut rep, "nat_churn", &rounds);
    } else {
        crate::timing_metrics(&mut rep, median(&times), &rounds);
        rep.e2e.push(metric("sim_lat_mean_ns", sim_mean, "sim_ns"));
        rep.e2e
            .push(metric("passes_per_pkt", passes_per_pkt, "count"));
        rep.extra.push(metric("sim_lat_p50_ns", sim_p50, "sim_ns"));
        rep.extra.push(metric("sim_lat_p99_ns", sim_p99, "sim_ns"));
        rep.extra.push(metric(
            "learn_per_s",
            f64::from(learned) / learn_s,
            "flows/s",
        ));
        if !reconfig.is_empty() {
            rep.extra
                .push(metric("downtime_p50_ms", median(&downtime) * 1e3, "ms"));
            rep.extra
                .push(metric("reconfig_p50_ms", median(&reconfig) * 1e3, "ms"));
        }
        rep.extra
            .push(metric("migrations", reconfig.len() as f64, "count"));
    }
    rep.meta("live_flows", LIVE);
    fleet.h.shutdown().expect("fleet shuts down");
    rep
}

// ---------------------------------------------------------------------
// Layer probes: search, state, migration, learn path.
// ---------------------------------------------------------------------

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn search_probe(problem: &FleetProblem, out: &mut Vec<Metric>) {
    let shifted = problem.with_weights(&SHIFTED_WEIGHTS);
    let mut ex = Vec::new();
    let mut score = 0.0;
    let (mut an, mut sw) = (Vec::new(), Vec::new());
    for i in 0..5 {
        let t = Instant::now();
        let o = {
            let _s = trace::span("search.exhaustive", i);
            ExhaustiveSearch::default()
                .search(&shifted)
                .expect("optimum exists")
        };
        ex.push(ms_since(t));
        score = o.score.weighted;
        let t = Instant::now();
        {
            let _s = trace::span("search.anneal", i);
            AnnealingSearch::new(11, 2000)
                .search(&shifted)
                .expect("annealing finds a placement");
        }
        an.push(ms_since(t));
        let t = Instant::now();
        {
            let _s = trace::span("search.swarm", i);
            SwarmSearch::new(11, 16, 100)
                .search(&shifted)
                .expect("swarm finds a placement");
        }
        sw.push(ms_since(t));
    }
    out.push(metric("search.exhaustive_ms", median(&ex), "ms"));
    out.push(metric("search.anneal_ms", median(&an), "ms"));
    out.push(metric("search.swarm_ms", median(&sw), "ms"));
    out.push(metric("search.score", score, "score"));
}

/// Per-layer probes of the state, search, migration and learn layers, on
/// a fleet that learns `LIVE` flows.
pub fn probes(ctx: &Ctx, rep: &mut Report) -> Vec<Metric> {
    let mut out = Vec::new();
    let nfs = nfs();
    let problem = fleet_problem();
    search_probe(&problem, &mut out);
    let placements = placements(&problem);
    let mut fleet = Fleet {
        h: spawn(&nfs, &problem, &placements[0]),
        nfs: &nfs,
        problem: &problem,
        placements,
        current: 0,
        live: VecDeque::new(),
        flows: Flows::new(ctx.seed),
        rng: StdRng::seed_from_u64(ctx.seed ^ 0x57e),
        in_flight: HashMap::new(),
        meter: Meter::default(),
        packets: 0,
        migrations: 0,
    };

    // Learn path: a burst of new flows in flight, then the barrier.
    for _ in 0..LIVE {
        let f = fleet.flows.next();
        fleet.send(f.outbound(), Expect::Translated, rep, false);
        fleet.live.push_back(f);
        fleet.drain_to(WINDOW - 1, rep, false);
    }
    fleet.drain_to(0, rep, false);
    let t = Instant::now();
    let r = {
        let _s = trace::span("learn.process_digests", 0);
        fleet.h.process_digests().expect("learn barrier answers")
    };
    out.push(metric("learn.process_digests_ms", ms_since(t), "ms"));
    out.push(metric("learn.digests_seen", r.digests_seen as f64, "count"));
    out.push(metric(
        "learn.installed",
        r.entries_installed as f64,
        "count",
    ));
    rep.check(r.entries_installed == LIVE, || {
        format!("learn probe installed {} of {LIVE}", r.entries_installed)
    });

    // State: snapshot, JSON round trip, restore onto the same pipelet.
    let (mut snap_ms, mut to_ms, mut from_ms, mut restore_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut entries, mut bytes) = (0usize, 0usize);
    for i in 0..5 {
        let t = Instant::now();
        let snaps = {
            let _s = trace::span("state.snapshot", i);
            fleet.h.snapshot_state().expect("snapshot answers")
        };
        snap_ms.push(ms_since(t));
        entries = snaps.iter().map(|(_, _, s)| s.total_entries()).sum();
        let t = Instant::now();
        let jsons: Vec<String> = {
            let _s = trace::span("state.to_json", i);
            snaps.iter().map(|(_, _, s)| s.to_json()).collect()
        };
        to_ms.push(ms_since(t));
        bytes = jsons.iter().map(String::len).sum();
        let t = Instant::now();
        let back: Vec<StateSnapshot> = {
            let _s = trace::span("state.from_json", i);
            jsons
                .iter()
                .map(|j| StateSnapshot::from_json(j).expect("snapshot JSON parses"))
                .collect()
        };
        from_ms.push(ms_since(t));
        rep.check(back.iter().zip(&snaps).all(|(b, (_, _, s))| b == s), || {
            "snapshot JSON round trip differs".into()
        });
        let (sw, pipelet, biggest) = snaps
            .iter()
            .max_by_key(|(_, _, s)| s.total_entries())
            .expect("the fleet has pipelets");
        let t = Instant::now();
        let restored = {
            let _s = trace::span("state.restore", i);
            fleet.h.restore_state(*sw, *pipelet, biggest)
        };
        restore_ms.push(ms_since(t));
        rep.check(
            matches!(restored, Ok(n) if n == biggest.total_entries()),
            || format!("restore returned {restored:?}"),
        );
    }
    out.push(metric("state.snapshot_ms", median(&snap_ms), "ms"));
    out.push(metric("state.restore_ms", median(&restore_ms), "ms"));
    out.push(metric("state.entries", entries as f64, "count"));
    out.push(metric("state.json_bytes", bytes as f64, "bytes"));
    out.push(metric("state.to_json_ms", median(&to_ms), "ms"));
    out.push(metric("state.from_json_ms", median(&from_ms), "ms"));

    // Migration: four moves back and forth with packets in flight.
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let wiring = ClusterWiring::default();
    let deploy = deploy_options();
    let (mut build, mut down, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut migrated, mut restored, mut parked, mut quiesced) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..4u64 {
        for _ in 0..WINDOW {
            let (b, e) = fleet.stream_packet();
            fleet.send(b, e, rep, false);
        }
        let spec = FleetSpec {
            nfs: &refs,
            chains: problem.chains(),
            profile: &TofinoProfile::wedge_100b_32x(),
            exit_ports: exit_ports(),
            wiring: &wiring,
            deploy: &deploy,
        };
        let (from, to) = (fleet.current, 1 - fleet.current);
        let t = Instant::now();
        let o = {
            let _s = trace::span("migrate.migrate", i);
            migrate(
                &mut fleet.h,
                &spec,
                &fleet.placements[from],
                &fleet.placements[to],
            )
            .expect("migration succeeds")
        };
        let secs = t.elapsed().as_secs_f64();
        fleet.current = to;
        fleet.drain_to(0, rep, false);
        fleet.verify_live(rep, false);
        wall.push(secs * 1e3);
        down.push(o.duration_ns as f64 / 1e6);
        build.push(secs * 1e3 - o.duration_ns as f64 / 1e6);
        migrated += o.flows_migrated;
        restored += o.restored_entries;
        parked += o.parked_packets;
        quiesced += o.quiesced_packets;
    }
    out.push(metric("migrate.build_ms", median(&build), "ms"));
    out.push(metric("migrate.downtime_ms", median(&down), "ms"));
    out.push(metric("migrate.reconfig_ms", median(&wall), "ms"));
    out.push(metric(
        "migrate.flows_migrated",
        migrated as f64 / 4.0,
        "count",
    ));
    out.push(metric(
        "migrate.restored_entries",
        restored as f64 / 4.0,
        "count",
    ));
    out.push(metric("migrate.parked", parked as f64, "count"));
    out.push(metric("migrate.quiesced", quiesced as f64, "count"));
    fleet.h.shutdown().expect("fleet shuts down");
    out
}
