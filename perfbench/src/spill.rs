//! `cluster_spill`: a 9-NF marker chain spilled over three switches.
//!
//! The three members run as workers over `TcpTransport` on the loopback
//! interface (not a real link). Flights enter at service index 0, 3 or 6,
//! so the NFs of 3, 2 or 1 members run (every flight still crosses all
//! three switches); packets are padded to 1500 bytes so frame bytes
//! matter. A window-1 phase through the synchronous
//! `ClusterHandle::inject` gives the idle round trip; `inject_async` and
//! `recv_delivered` then keep a fixed window of packets in flight.
//!
//! Marker NFs cost almost nothing, so the time goes to the wire codec,
//! the sockets, the worker loops and the controller.

use crate::clock::Meter;
use crate::stats::{self, median};
use crate::{metric, trace, Ctx, Metric, Report, RoundFigures, IDLE_SHARE, ROUNDS, SETUP_REPS};
use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, PipeletId, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{deploy_cluster, ClusterPlacement, ClusterWiring};
use dejavu_core::placement::Placement;
use dejavu_core::transport::{
    spawn_cluster, wire, ChannelTransport, ClusterHandle, ClusterOptions, ControlMsg, DataMsg,
    HopSummary, Message, TcpTransport, Transport,
};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_integration::{marker_nf, EXIT_PORT, IN_PORT};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Bytes on the wire per packet, SFC header included.
const PACKET_BYTES: usize = 1500;
/// Entry service indexes, drawn uniformly per flight.
const ENTRIES: [u8; 3] = [0, 3, 6];
/// Distinct flows (source addresses) in the trace.
const FLOWS: usize = 1024;
/// Flights in the generated trace; the loaded phase cycles it.
const TRACE_LEN: usize = 1 << 14;
/// Synchronous flights in the warm-up, which yields the simulated metrics.
const WARM_FLIGHTS: usize = 1500;
/// Packets kept in flight in the loaded phase.
const WINDOW: usize = 8;
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(30);

/// The `nine_nf_setup` shape: marker NFs n0..n8, three per member (two
/// on ingress 0, one on egress 0).
fn nine_nf_setup() -> (Vec<NfModule>, ChainSet, ClusterPlacement) {
    let names: Vec<String> = (0..9).map(|i| format!("n{i}")).collect();
    let nfs = names
        .iter()
        .enumerate()
        .map(|(i, n)| marker_nf(n, i as u32))
        .collect();
    let chains = ChainSet::new(vec![ChainPolicy {
        path_id: 1,
        name: "spilled".into(),
        nfs: names,
        weight: 1.0,
    }])
    .expect("the spilled chain is valid");
    let placement = ClusterPlacement {
        switches: (0..3)
            .map(|s| {
                let base = s * 3;
                let mut p = Placement::default();
                p.pipelets.insert(
                    PipeletId::ingress(0),
                    vec![format!("n{base}"), format!("n{}", base + 1)],
                );
                p.pipelets
                    .insert(PipeletId::egress(0), vec![format!("n{}", base + 2)]);
                p
            })
            .collect(),
    };
    (nfs, chains, placement)
}

fn spawn(transport: &mut dyn Transport) -> ClusterHandle {
    let (nfs, chains, placement) = nine_nf_setup();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    spawn_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
        transport,
        &ClusterOptions::default(),
    )
    .expect("the spilled chain spawns")
}

/// One flight: the padded SFC packet and the source address the marker
/// bits of every NF it runs must leave behind.
struct Flight {
    bytes: Vec<u8>,
    expect_src: u32,
}

fn flight(src: u32, dport: u16, index: u8) -> Flight {
    let payload = vec![0u8; PACKET_BYTES - 54 - 20];
    let raw = dejavu_traffic::PacketBuilder::tcp()
        .src_ip(src)
        .dst_ip(0x0a00_0002)
        .src_port(40000)
        .dst_port(dport)
        .payload(&payload)
        .build();
    let mut sfc = dejavu_core::SfcHeader::for_path(1);
    sfc.service_index = index;
    let mut bytes = Vec::with_capacity(PACKET_BYTES);
    bytes.extend_from_slice(&raw[..12]);
    bytes.extend_from_slice(&dejavu_core::sfc::SFC_ETHERTYPE.to_be_bytes());
    bytes.extend_from_slice(&sfc.to_bytes());
    bytes.extend_from_slice(&raw[14..]);
    let marks: u32 = (u32::from(index)..9).map(|i| 1 << i).sum();
    Flight {
        bytes,
        expect_src: src ^ marks,
    }
}

struct Inputs {
    flights: Vec<Flight>,
    trace: Vec<u32>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5b111);
    let mut flights = Vec::new();
    for _ in 0..FLOWS {
        let src = 0x0a00_0000 | (rng.gen::<u32>() & 0x00ff_fc00);
        let dport = rng.gen_range(1u16..65535);
        for &index in &ENTRIES {
            flights.push(flight(src, dport, index));
        }
    }
    let trace = (0..TRACE_LEN)
        .map(|_| (rng.gen_range(0..FLOWS) * ENTRIES.len() + rng.gen_range(0..ENTRIES.len())) as u32)
        .collect();
    Inputs { flights, trace }
}

/// Every flight enters at switch 0 and leaves at switch 2; members before
/// the entry index only forward it.
const SWITCHES: usize = 3;

/// Source address of an emitted packet (SFC header stripped at exit, or
/// still present).
fn src_of(bytes: &[u8]) -> Option<u32> {
    let off = match bytes.get(12..14)? {
        [0x08, 0x00] => 26,
        _ => 46,
    };
    Some(u32::from_be_bytes(
        bytes.get(off..off + 4)?.try_into().ok()?,
    ))
}

fn flight_ok(f: &Flight, disposition: Disposition, bytes: &[u8], hops: usize) -> bool {
    disposition == (Disposition::Emitted { port: EXIT_PORT })
        && src_of(bytes) == Some(f.expect_src)
        && hops == SWITCHES
}

/// Idle phase: one flight at a time through the synchronous facade.
fn idle_phase(
    h: &mut ClusterHandle,
    inp: &Inputs,
    pos: &mut usize,
    seconds: f64,
    rep: &mut Report,
) -> Meter {
    let mut idle = Meter::default();
    while idle.elapsed_s() < seconds {
        for _ in 0..16 {
            let f = &inp.flights[inp.trace[*pos % TRACE_LEN] as usize];
            *pos += 1;
            let t0 = Instant::now();
            let r = h.inject(InjectedPacket::new(f.bytes.clone(), IN_PORT));
            idle.sample(t0.elapsed().as_nanos() as f64);
            match r {
                Ok(w) => rep.check(
                    flight_ok(f, w.disposition, &w.final_bytes, w.hops.len()),
                    || "idle flight: wrong output".into(),
                ),
                Err(e) => rep.check(false, || format!("idle flight failed: {e}")),
            }
        }
        if idle.window_due() {
            idle.close_window();
        }
    }
    idle.close_window();
    idle
}

/// Warm-up: synchronous flights whose simulated latency and pipeline
/// passes depend only on the seed. Returns (latencies, passes).
fn warm_up(h: &mut ClusterHandle, inp: &Inputs, rep: &mut Report) -> (Vec<f64>, u64) {
    let (mut sim, mut passes) = (Vec::new(), 0u64);
    for &idx in &inp.trace[..WARM_FLIGHTS] {
        let f = &inp.flights[idx as usize];
        match h.inject(InjectedPacket::new(f.bytes.clone(), IN_PORT)) {
            Ok(w) => {
                let ok = flight_ok(f, w.disposition, &w.final_bytes, w.hops.len());
                rep.check(ok, || {
                    format!("warm-up flight: {:?}, {} hops", w.disposition, w.hops.len())
                });
                sim.push(w.latency_ns);
                passes += crate::pipeline_passes(&w);
            }
            Err(e) => rep.check(false, || format!("warm-up flight failed: {e}")),
        }
    }
    (sim, passes)
}

/// Each set-up spawns a fresh cluster that then serves one measured
/// round. Which cores the cluster's threads settle on shifts its round
/// trips for as long as it lives, so every round runs on its own cluster
/// and the run reports medians over them.
pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let inp = inputs(ctx.seed);
    let mut setup = Meter::default();
    let mut times = Vec::new();
    let mut rounds = Vec::new();
    let mut sim = (Vec::new(), 0u64);
    let mut pos = WARM_FLIGHTS;
    let round_s = ctx.seconds / ROUNDS as f64;
    for round in 0..ROUNDS.max(SETUP_REPS) {
        let (mut h, secs) = setup.time(|| spawn(&mut TcpTransport::new()));
        times.push(secs);
        if round == 0 {
            rep.meta("transport", h.transport_kind());
            sim = warm_up(&mut h, &inp, &mut rep);
        }
        if round < ROUNDS {
            let idle = idle_phase(&mut h, &inp, &mut pos, round_s * IDLE_SHARE, &mut rep);
            let traced = ctx.trace && round % 2 == 1;
            trace::set_enabled(traced);
            let loaded = windowed(
                &mut h,
                &inp,
                &mut pos,
                round_s * (1.0 - IDLE_SHARE),
                &mut rep,
                traced,
            );
            trace::set_enabled(false);
            rounds.push(RoundFigures {
                packets: loaded.lat.count(),
                loaded,
                idle,
            });
        }
        h.shutdown().expect("cluster shuts down");
    }
    if ctx.trace {
        crate::trace_metrics(&mut rep, "cluster_spill", &rounds);
    } else {
        let (sim, passes) = &sim;
        crate::timing_metrics(&mut rep, median(&times), &rounds);
        rep.e2e
            .push(metric("sim_lat_mean_ns", stats::mean(sim), "sim_ns"));
        rep.e2e.push(metric(
            "passes_per_pkt",
            *passes as f64 / sim.len() as f64,
            "count",
        ));
        rep.extra.push(metric(
            "sim_lat_p50_ns",
            stats::quantile(sim, 0.5),
            "sim_ns",
        ));
        rep.extra.push(metric(
            "sim_lat_p99_ns",
            stats::quantile(sim, 0.99),
            "sim_ns",
        ));
    }
    rep.meta("link", "loopback");
    rep.meta("window", WINDOW);
    rep
}

/// Keeps `WINDOW` flights in the air for `seconds`, timing each flight's
/// round trip. The window drains before every calibration.
fn windowed(
    h: &mut ClusterHandle,
    inp: &Inputs,
    pos: &mut usize,
    seconds: f64,
    rep: &mut Report,
    traced: bool,
) -> Meter {
    let mut m = Meter::default();
    let mut in_flight: HashMap<u64, (Instant, usize)> = HashMap::with_capacity(WINDOW * 2);
    let mut broken = false;
    loop {
        let over = broken || m.elapsed_s() >= seconds;
        let refill = !over && !m.window_due();
        while refill && !broken && in_flight.len() < WINDOW {
            let idx = inp.trace[*pos % TRACE_LEN] as usize;
            *pos += 1;
            let bytes = inp.flights[idx].bytes.clone();
            let t0 = Instant::now();
            let id = {
                let _s = traced.then(|| trace::span("cluster.inject_async", *pos as u64));
                h.inject_async(InjectedPacket::new(bytes, IN_PORT))
            };
            match id {
                Ok(id) => {
                    in_flight.insert(id, (t0, idx));
                }
                Err(e) => {
                    rep.check(false, || format!("inject_async failed: {e}"));
                    broken = true;
                }
            }
        }
        if in_flight.is_empty() {
            m.close_window();
            if over {
                return m;
            }
            continue;
        }
        let d = {
            let _s = traced.then(|| trace::span("cluster.recv_delivered", *pos as u64));
            h.recv_delivered(DELIVERY_TIMEOUT)
        };
        let d = match d {
            Ok(Some(d)) => d,
            other => {
                let lost = in_flight.len();
                rep.check(false, || {
                    format!("{lost} flights never delivered: {other:?}")
                });
                in_flight.clear();
                broken = true;
                continue;
            }
        };
        let _s = traced.then(|| trace::span("bench.delivery", d.trace));
        let Some((t0, idx)) = in_flight.remove(&d.trace) else {
            rep.check(false, || format!("delivery for unknown trace {}", d.trace));
            continue;
        };
        m.sample(t0.elapsed().as_nanos() as f64);
        let f = &inp.flights[idx];
        match d.result {
            Ok(w) => rep.check(
                flight_ok(f, w.disposition, &w.final_bytes, w.hops.len()),
                || {
                    format!(
                        "flight {idx}: {:?}, {} hops, wrong marks",
                        w.disposition,
                        w.hops.len()
                    )
                },
            ),
            Err(e) => rep.check(false, || format!("flight {idx} failed: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// Layer probes: wire codec, links, cluster runtime.
// ---------------------------------------------------------------------

/// A data frame as it looks after `hops` members, with real hop records.
fn data_msg(hops: &[HopSummary], n: usize, bytes: &[u8]) -> DataMsg {
    DataMsg {
        trace: 7,
        port: IN_PORT,
        latency_ns: 1234.0,
        inter_switch_hops: n.saturating_sub(1) as u32,
        hops: hops[..n].to_vec(),
        bytes: bytes.to_vec(),
    }
}

fn wire_probe(hops: &[HopSummary], bytes: &[u8], out: &mut Vec<Metric>) -> Vec<(f64, f64)> {
    const N: usize = 20_000;
    let mut per_hop = Vec::new();
    for n in 1..=3 {
        let msg = Message::Data(data_msg(hops, n, bytes));
        let frame = wire::encode(&msg);
        let enc = {
            let _s = trace::span("wire.encode", n as u64);
            let t = Instant::now();
            for _ in 0..N {
                std::hint::black_box(wire::encode(std::hint::black_box(&msg)));
            }
            t.elapsed().as_nanos() as f64 / N as f64
        };
        let dec = {
            let _s = trace::span("wire.decode", n as u64);
            let t = Instant::now();
            for _ in 0..N {
                std::hint::black_box(
                    wire::decode(std::hint::black_box(&frame)).expect("frame decodes"),
                );
            }
            t.elapsed().as_nanos() as f64 / N as f64
        };
        out.push(metric(format!("wire.encode_ns.hops{n}"), enc, "ns"));
        out.push(metric(format!("wire.decode_ns.hops{n}"), dec, "ns"));
        out.push(metric(
            format!("wire.frame_bytes.hops{n}"),
            frame.len() as f64,
            "bytes",
        ));
        per_hop.push((enc, dec));
    }
    per_hop
}

/// Echo round trip over one transport: a peer thread sends every frame
/// back. Returns (median RTT in µs, echoed frames per second pipelined).
fn link_probe(transport: &mut dyn Transport, msg: &Message, rep: &mut Report) -> (f64, f64) {
    const PINGS: usize = 2000;
    const BURST: usize = 2000;
    let a = transport.bind("probe-a").expect("bind a");
    let b = transport.bind("probe-b").expect("bind b");
    let mut to_b = transport.connect(b.addr()).expect("connect to b");
    let mut to_a = transport.connect(a.addr()).expect("connect to a");
    let echo = std::thread::spawn(move || {
        while let Ok(m) = b.recv() {
            if matches!(m, Message::Control(ControlMsg::Shutdown { .. })) {
                break;
            }
            if to_a.send(&m).is_err() {
                break;
            }
        }
    });
    let name = if transport.kind() == "tcp" {
        "link.tcp_echo"
    } else {
        "link.channel_echo"
    };
    let mut rtt = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        let _s = trace::span(name, i as u64);
        let t = Instant::now();
        to_b.send(msg).expect("frame sends");
        let ok = a.recv().is_ok_and(|m| &m == msg);
        rtt.push(t.elapsed().as_nanos() as f64);
        rep.check(ok, || "link probe: echo differs".into());
    }
    let t = Instant::now();
    {
        let _s = trace::span(name, PINGS as u64);
        for _ in 0..BURST {
            to_b.send(msg).expect("frame sends");
        }
        for _ in 0..BURST {
            let ok = a.recv().is_ok();
            rep.check(ok, || "link probe: burst echo lost".into());
        }
    }
    let fps = BURST as f64 / t.elapsed().as_secs_f64();
    to_b.send(&Message::Control(ControlMsg::Shutdown { seq: 0 }))
        .expect("shutdown frame sends");
    echo.join().expect("echo thread exits cleanly");
    (median(&rtt) / 1e3, fps)
}

/// Per-layer probes of the transport and cluster layers.
pub fn probes(ctx: &Ctx, rep: &mut Report) -> Vec<Metric> {
    const FLIGHTS: usize = 3000;
    let inp = inputs(ctx.seed);
    let flights: Vec<usize> = inp.trace[..FLIGHTS].iter().map(|&i| i as usize).collect();
    let mut out = Vec::new();

    // Lockstep: the same flights through `ClusterNet::inject`, the
    // compute floor without any transport.
    let (nfs, chains, placement) = nine_nf_setup();
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let mut net = deploy_cluster(
        &refs,
        &chains,
        &placement,
        &TofinoProfile::wedge_100b_32x(),
        [(1u16, EXIT_PORT)].into_iter().collect(),
        &ClusterWiring::default(),
        &DeployOptions::default(),
    )
    .expect("the spilled chain deploys");
    let mut hops_total = 0usize;
    let t = Instant::now();
    for &i in &flights {
        let _s = trace::span("cluster.lockstep_inject", i as u64);
        let f = &inp.flights[i];
        let tr = net
            .inject(InjectedPacket::new(f.bytes.clone(), IN_PORT))
            .expect("lockstep flight runs");
        hops_total += tr.hops.len();
        rep.check(
            flight_ok(f, tr.disposition, &tr.final_bytes, tr.hops.len()),
            || "lockstep flight: wrong output".into(),
        );
    }
    let lockstep_ns = t.elapsed().as_nanos() as f64 / FLIGHTS as f64;
    out.push(metric("cluster.lockstep_ns_per_flight", lockstep_ns, "ns"));
    out.push(metric(
        "cluster.hops_per_flight",
        hops_total as f64 / FLIGHTS as f64,
        "count",
    ));

    // Channel: the same flights pipelined over in-memory links.
    let mut ch = spawn(&mut ChannelTransport::new());
    let full = ch
        .inject(InjectedPacket::new(inp.flights[0].bytes.clone(), IN_PORT))
        .expect("full-chain flight runs");
    let mut pos = 0usize;
    let sub = Inputs {
        flights: inp.flights,
        trace: flights
            .iter()
            .map(|&i| i as u32)
            .cycle()
            .take(TRACE_LEN)
            .collect(),
    };
    let m = windowed(&mut ch, &sub, &mut pos, 0.5, rep, true);
    out.push(metric(
        "cluster.channel_pps",
        m.lat.count() as f64 / m.wall_s,
        "packets/s",
    ));
    ch.shutdown().expect("channel cluster shuts down");

    let codec = wire_probe(&full.hops, &sub.flights[0].bytes, &mut out);
    let msg = Message::Data(data_msg(&full.hops, 1, &sub.flights[0].bytes));
    let (channel_rtt, _) = link_probe(&mut ChannelTransport::new(), &msg, rep);
    let (tcp_rtt, tcp_fps) = link_probe(&mut TcpTransport::new(), &msg, rep);
    out.push(metric("link.channel_rtt_us", channel_rtt, "us"));
    out.push(metric("link.tcp_rtt_us", tcp_rtt, "us"));
    out.push(metric("link.tcp_frames_per_s", tcp_fps, "frames/s"));

    // Idle TCP round trip over the same flights, and what is left of it
    // once compute, codec and link time are taken out.
    let mut tcp = spawn(&mut TcpTransport::new());
    let mut rtt = Vec::with_capacity(FLIGHTS);
    // Controller → first member, member → member, last → controller:
    // the frame after member k carries k hop records.
    let codec_ns: f64 = (0..=SWITCHES)
        .map(|k| {
            let (e, d) = codec[k.clamp(1, 3) - 1];
            e + d
        })
        .sum();
    for &i in &flights {
        let f = &sub.flights[i];
        let _s = trace::span("cluster.inject", i as u64);
        let t = Instant::now();
        let r = tcp.inject(InjectedPacket::new(f.bytes.clone(), IN_PORT));
        rtt.push(t.elapsed().as_nanos() as f64);
        rep.check(r.is_ok(), || "idle TCP flight failed".into());
    }
    let frames = (SWITCHES + 1) as f64;
    let overhead_ns = median(&rtt) - lockstep_ns - codec_ns - frames * tcp_rtt * 1e3 / 2.0;
    out.push(metric("cluster.overhead_us", overhead_ns / 1e3, "us"));
    let mut scrape = Vec::new();
    for i in 0..20 {
        let _s = trace::span("telemetry.scrape", i);
        let t = Instant::now();
        tcp.metrics_snapshot().expect("scrape answers");
        scrape.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.push(metric("cluster.scrape_ms", median(&scrape), "ms"));
    tcp.shutdown().expect("TCP cluster shuts down");
    out
}
