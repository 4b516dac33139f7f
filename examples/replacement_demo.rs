//! Closed-loop re-placement demo: a 3-switch cluster serving a learned
//! NAT chain and a marker chain watches its own telemetry, notices the
//! traffic matrix invert, searches for a better placement, and migrates
//! the NAT across switches live — zero learned flows lost.
//!
//! ```text
//! cargo run -p dejavu-examples --bin replacement_demo
//! ```
//!
//! Bounded-time and deterministic (channel transport, exhaustive search);
//! exits non-zero if any step misbehaves, so CI can gate on it.

use dejavu_asic::switch::Disposition;
use dejavu_asic::{InjectedPacket, TofinoProfile};
use dejavu_core::deploy::DeployOptions;
use dejavu_core::multiswitch::{ClusterPlacement, ClusterProblem, ClusterWiring};
use dejavu_core::orchestrator::{
    DetectorConfig, ExhaustiveSearch, FleetProblem, FleetSpec, Orchestrator, OrchestratorConfig,
    PlacementSearch, StepOutcome,
};
use dejavu_core::placement::PlacementProblem;
use dejavu_core::transport::{spawn_cluster, ChannelTransport, ClusterHandle, ClusterOptions};
use dejavu_core::{ChainPolicy, ChainSet, NfModule};
use dejavu_nf::nat::{
    dynamic_nat, nat_learn_policy, nat_out_entry, NAT_FLOW_STREAM, NAT_OUT_TABLE,
};
use dejavu_nf::{classifier, router};
use std::collections::BTreeMap;

const IN_PORT: u16 = 0;
const EXIT_PORT: u16 = 2;
const SERVER: u32 = 0x0808_0808;
const PUBLIC_IP: u32 = 0xc633_6401;
const CLIENT: u32 = 0x0a01_0101;
const MARK_CLIENT: u32 = 0x0b01_0101;
const FLOWS: u16 = 12;
const BASE_PORT: u16 = 47000;

/// Marker NF (same shape as the integration fixtures').
fn marker(name: &str, bit: u32) -> NfModule {
    use dejavu_p4ir::builder::*;
    use dejavu_p4ir::{fref, Expr};
    let p = ProgramBuilder::new(name)
        .header(dejavu_p4ir::well_known::ethernet())
        .header(dejavu_p4ir::well_known::ipv4())
        .header(dejavu_core::sfc::sfc_header_type())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                .accept("ip")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("mark")
                .set(
                    fref("ipv4", "src_addr"),
                    Expr::Xor(
                        Box::new(Expr::field("ipv4", "src_addr")),
                        Box::new(Expr::val(1u128 << bit, 32)),
                    ),
                )
                .build(),
        )
        .action(ActionBuilder::new("pass").build())
        .table(
            TableBuilder::new("work")
                .key_exact(fref("ipv4", "protocol"))
                .default_action("mark")
                .action("pass")
                .size(16)
                .build(),
        )
        .control(ControlBuilder::new("ctrl").apply("work").build())
        .entry("ctrl")
        .build()
        .unwrap();
    NfModule::new(p).unwrap()
}

fn outbound(src_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(CLIENT)
        .dst_ip(SERVER)
        .src_port(src_port)
        .dst_port(80)
        .build()
}

fn inbound(dst_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(SERVER)
        .dst_ip(PUBLIC_IP)
        .src_port(80)
        .dst_port(dst_port)
        .build()
}

fn mark_packet(src_port: u16) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::tcp()
        .src_ip(MARK_CLIENT)
        .dst_ip(SERVER)
        .src_port(src_port)
        .dst_port(80)
        .build()
}

fn ip_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_be_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// Chain weights are the assumed matrix: marker-heavy before the shift.
fn fleet_problem() -> FleetProblem {
    let chains = ChainSet::new(vec![
        ChainPolicy::new(1, "nat_path", vec!["classifier", "nat", "router"], 1.0),
        ChainPolicy::new(2, "mark_path", vec!["classifier", "mark_a"], 6.0),
    ])
    .unwrap();
    let stages: BTreeMap<String, u32> = [
        ("classifier".to_string(), 2),
        ("nat".to_string(), 6),
        ("router".to_string(), 2),
        ("mark_a".to_string(), 2),
    ]
    .into_iter()
    .collect();
    let mut template = PlacementProblem::new(chains, stages);
    template.pipelines = 1;
    FleetProblem::new(ClusterProblem::new(template, 3))
}

fn arm(handle: &mut ClusterHandle) {
    handle
        .register_learn_policy("nat", NAT_FLOW_STREAM, nat_learn_policy())
        .unwrap();
    for (prefix, path) in [
        ((0x0a01_0000u32, 16u16), 1u16),
        ((0x0800_0000, 8), 1),
        ((0x0b00_0000, 8), 2),
    ] {
        handle
            .install(
                "classifier",
                classifier::CLASSIFY_TABLE,
                classifier::classify_entry(prefix, (0, 0), path, 100),
            )
            .unwrap();
    }
    handle
        .install(
            "nat",
            NAT_OUT_TABLE,
            nat_out_entry((0x0a01_0000, 16), PUBLIC_IP),
        )
        .unwrap();
    handle
        .install(
            "router",
            router::ROUTES_TABLE,
            router::route_entry((0, 0), EXIT_PORT, 0x0200_0000_0099, 0x0200_0000_0001),
        )
        .unwrap();
}

fn layout(p: &ClusterPlacement) -> String {
    p.switches
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.pipelets.is_empty())
        .map(|(sw, p)| {
            let nfs: Vec<String> = p
                .pipelets
                .iter()
                .map(|(id, nfs)| format!("{id}:[{}]", nfs.join(", ")))
                .collect();
            format!("sw{sw} {}", nfs.join(" "))
        })
        .collect::<Vec<_>>()
        .join("  |  ")
}

fn main() {
    let nfs = [
        classifier::classifier(),
        dynamic_nat(),
        router::router(),
        marker("mark_a", 0),
    ];
    let refs: Vec<&NfModule> = nfs.iter().collect();
    let problem = fleet_problem();
    let wiring = ClusterWiring::default();
    let deploy = DeployOptions {
        entry_nf: Some("classifier".into()),
        ..Default::default()
    };
    let exit_ports: BTreeMap<u16, dejavu_asic::PortId> =
        [(1u16, EXIT_PORT), (2u16, EXIT_PORT)].into_iter().collect();

    let pre = ExhaustiveSearch::default()
        .search(&problem)
        .expect("pre-shift optimum");
    println!(
        "pre-shift optimum (marker-heavy matrix):\n  {}",
        layout(&pre.placement)
    );

    let mut transport = ChannelTransport::new();
    let mut handle = spawn_cluster(
        &refs,
        problem.chains(),
        &pre.placement,
        &TofinoProfile::wedge_100b_32x(),
        exit_ports.clone(),
        &wiring,
        &deploy,
        &mut transport,
        &ClusterOptions {
            telemetry: true,
            ..Default::default()
        },
    )
    .expect("cluster spawns");
    arm(&mut handle);

    let spec = FleetSpec {
        nfs: &refs,
        chains: problem.chains(),
        profile: &TofinoProfile::wedge_100b_32x(),
        exit_ports,
        wiring: &wiring,
        deploy: &deploy,
    };
    let mut orch = Orchestrator::new(
        problem.clone(),
        pre.placement.clone(),
        Box::new(ExhaustiveSearch::default()),
        OrchestratorConfig {
            detector: DetectorConfig {
                drift_threshold: 0.25,
                hysteresis: 2,
                min_packets: 8,
                cooldown: 1,
            },
            min_gain: 0.5,
        },
    )
    .expect("orchestrator baselines");

    let mut ok = true;

    // Learn the NAT flows while the assumed matrix still holds.
    for f in 0..FLOWS {
        let t = handle
            .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
            .expect("learn flight");
        ok &= t.disposition == Disposition::Emitted { port: EXIT_PORT };
        ok &= ip_at(&t.final_bytes, 26) == PUBLIC_IP;
    }
    handle.process_digests().expect("digest drain");
    println!("learned {FLOWS} NAT flows through the pre-shift placement");

    // Closed loop: scrape → detect → (maybe) search + migrate, window by
    // window. The traffic turns NAT-heavy; window 1 baselines, window 2
    // trips hysteresis, window 3 migrates.
    let mut migrated = false;
    for window in 1..=3u32 {
        if window > 1 {
            for f in 0..FLOWS {
                let t = handle
                    .inject(InjectedPacket::new(outbound(BASE_PORT + f), IN_PORT))
                    .expect("nat flight");
                ok &= t.disposition == Disposition::Emitted { port: EXIT_PORT };
            }
            for f in 0..2 {
                let t = handle
                    .inject(InjectedPacket::new(mark_packet(5000 + f), IN_PORT))
                    .expect("mark flight");
                ok &= t.disposition == Disposition::Emitted { port: EXIT_PORT };
            }
        }
        let scrape = handle.metrics_snapshot().expect("telemetry scrape");
        let out = orch
            .step(&mut handle, &spec, &scrape.per_switch)
            .expect("orchestrator step");
        match out {
            StepOutcome::Warming => println!("window {window}: warming (no history yet)"),
            StepOutcome::Quiet { drift } => {
                println!("window {window}: quiet (drift {drift:.2})")
            }
            StepOutcome::Suppressed { drift } => {
                println!("window {window}: drift {drift:.2} — suppressed by hysteresis")
            }
            StepOutcome::NotWorthIt { drift, gain } => {
                println!("window {window}: drift {drift:.2}, gain {gain:.2} — not worth moving");
                ok = false;
            }
            StepOutcome::Migrated {
                drift,
                gain,
                outcome,
            } => {
                println!("window {window}: drift {drift:.2}, gain {gain:.2} — migrated live:");
                for m in &outcome.moves {
                    println!("    {}  sw{} → sw{}", m.nf, m.from, m.to);
                }
                println!(
                    "    {} flows moved, {} entries restored, {} packets parked, {:.2} ms window",
                    outcome.flows_migrated,
                    outcome.restored_entries,
                    outcome.parked_packets,
                    outcome.duration_ns as f64 / 1e6,
                );
                let phases: Vec<String> = outcome
                    .phases_ns
                    .iter()
                    .map(|(phase, ns)| format!("{} {:.2}", phase.name(), *ns as f64 / 1e6))
                    .collect();
                println!("    phases (ms): {}", phases.join(", "));
                migrated = true;
            }
        }
    }
    ok &= migrated;
    println!(
        "post-shift placement:\n  {}",
        layout(orch.current_placement())
    );

    // Zero flow loss: every mapping learned before the migration still
    // translates inbound traffic on the re-placed cluster.
    let mut surviving = 0;
    for f in 0..FLOWS {
        let t = handle
            .inject(InjectedPacket::new(inbound(BASE_PORT + f), IN_PORT))
            .expect("post-migration flight");
        if t.disposition == (Disposition::Emitted { port: EXIT_PORT })
            && ip_at(&t.final_bytes, 30) == CLIENT
        {
            surviving += 1;
        }
    }
    println!("zero flow loss: {surviving}/{FLOWS} learned flows survived the migration");
    ok &= surviving == FLOWS;

    let metrics = orch.metrics();
    println!(
        "orchestrator telemetry: {} replan(s) triggered, {} suppressed, {} flows migrated",
        metrics.counter("orchestrator_replans_triggered"),
        metrics.counter("orchestrator_replans_skipped_hysteresis"),
        metrics.counter("orchestrator_flows_migrated"),
    );

    handle.shutdown().expect("clean shutdown");
    if !ok {
        eprintln!("replacement_demo: unexpected behavior");
        std::process::exit(1);
    }
    println!("replacement_demo OK");
}
