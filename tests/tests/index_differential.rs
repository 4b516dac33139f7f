//! Differential property test for the classification-index subsystem.
//!
//! The pluggable table indexes (`Scan`, `TupleSpace`, `DecisionTree`) are
//! pure lookup accelerators: forcing any of them on the same table, or
//! letting the auto policy migrate between them, must be observationally
//! invisible. For random mixed rulesets — ternary masks (prefix and
//! scattered), LPM prefixes, ranges (including degenerate point ranges),
//! overlapping priorities with deliberate duplicate-rank ties — driven
//! through a random interleaving of installs, deletes, idle-timeout aging
//! sweeps, and packet injections, eight switches must agree on everything:
//! three forced index policies plus `Auto` × both execution engines
//! (reference interpreter and compiled fast path). Half the cases start
//! from a bulk install of 100–300 rules, so `Auto` crosses
//! tuple-space → decision tree → tuple-space mid-churn and tree-local lists
//! grow long between the tree's geometric rebuilds.
//!
//! Checked surface: every traversal (events, disposition, bytes), the
//! surviving entry list after churn, hit/miss counters, eviction counts,
//! and — within each same-policy engine pair — the full metrics snapshot
//! including the `table_index_*` telemetry series.

use proptest::prelude::*;

use dejavu_asic::{
    ExecMode, IndexKind, IndexPolicy, InjectedPacket, PipeletId, Switch, TofinoProfile,
};
use dejavu_p4ir::builder::*;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{fref, well_known, Expr, FieldRef, Program, Value};

/// Ternary masks a generated rule may use on the source address: wildcard,
/// prefixes (tuple-friendly), and scattered bit patterns (tuple-hostile —
/// the regime that pushes the auto heuristic toward the decision tree).
const SRC_MASKS: [u32; 6] = [
    0x0000_0000,
    0xff00_0000,
    0xffff_0000,
    0xffff_ff00,
    0x0000_00ff,
    0x00ff_00f0,
];

/// LPM prefix lengths for the destination key (0 = wildcard).
const DST_LENS: [u16; 5] = [0, 8, 16, 24, 32];

/// One generated rule, described by small seeds the builder expands into
/// `KeyMatch`es. Values are drawn from tiny domains so rules overlap and
/// packets hit; priorities from `0..3` so duplicate ranks are common and
/// install-order tie-breaking is exercised.
#[derive(Debug, Clone, Copy)]
struct GenRule {
    src_seed: u8,
    src_mask: u8,
    dst_seed: u8,
    dst_len: u8,
    ttl_lo: u8,
    ttl_span: u8,
    action: u8,
    priority: u8,
}

fn rule_entry(r: GenRule) -> TableEntry {
    let src_mask = SRC_MASKS[usize::from(r.src_mask) % SRC_MASKS.len()];
    let src_val = (0x0a00_0000 | u32::from(r.src_seed % 16)) & src_mask;
    let dst_len = DST_LENS[usize::from(r.dst_len) % DST_LENS.len()];
    let dst_val = 0x0a00_0100 | (u32::from(r.dst_seed % 4) << 16) | u32::from(r.dst_seed % 8);
    let dst_masked = if dst_len == 0 {
        0
    } else {
        dst_val & (u32::MAX << (32 - dst_len))
    };
    let lo = r.ttl_lo % 6;
    // span % 3 == 0 gives a degenerate point range (lo == hi), the shape
    // the tuple-space index can hash; wider spans always spill.
    let hi = lo + r.ttl_span % 3;
    let (action, args) = match r.action % 3 {
        0 => ("fwd", vec![Value::new(u128::from(r.action % 8), 16)]),
        1 => ("deny", vec![]),
        _ => ("pass", vec![]),
    };
    TableEntry {
        matches: vec![
            KeyMatch::Ternary(
                Value::new(u128::from(src_val), 32),
                Value::new(u128::from(src_mask), 32),
            ),
            KeyMatch::Lpm(Value::new(u128::from(dst_masked), 32), dst_len),
            KeyMatch::Range(Value::new(u128::from(lo), 8), Value::new(u128::from(hi), 8)),
        ],
        action: action.to_string(),
        action_args: args,
        priority: i32::from(r.priority % 3) - 1,
    }
}

fn arb_rule() -> impl Strategy<Value = GenRule> {
    (
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(
            |(src_seed, src_mask, dst_seed, dst_len, ttl_lo, ttl_span, action, priority)| GenRule {
                src_seed,
                src_mask,
                dst_seed,
                dst_len,
                ttl_lo,
                ttl_span,
                action,
                priority,
            },
        )
}

/// One ingress pipelet with a single mixed-key classifier table:
/// ternary source × LPM destination × TTL range.
fn cls_program() -> Program {
    ProgramBuilder::new("clsdiff")
        .header(well_known::ethernet())
        .header(well_known::ipv4())
        .parser(
            ParserBuilder::new()
                .node("eth", "ethernet", 0)
                .node("ip", "ipv4", 14)
                .select("eth", "ether_type", 16, vec![(0x0800, "ip")])
                .accept("ip")
                .start("eth"),
        )
        .action(
            ActionBuilder::new("fwd")
                .param("port", 16)
                .set(FieldRef::meta("egress_spec"), Expr::Param("port".into()))
                .build(),
        )
        .action(ActionBuilder::new("deny").drop_packet().build())
        .action(
            ActionBuilder::new("pass")
                .set(FieldRef::meta("egress_spec"), Expr::val(1, 16))
                .build(),
        )
        .table(
            TableBuilder::new("cls")
                .key_ternary(fref("ipv4", "src_addr"))
                .key_lpm(fref("ipv4", "dst_addr"))
                .key_range(fref("ipv4", "ttl"))
                .action("fwd")
                .action("deny")
                .action("pass")
                .default_action("pass")
                .size(1024)
                .build(),
        )
        .control(ControlBuilder::new("ingress").apply("cls").build())
        .entry("ingress")
        .build()
        .expect("classifier program validates")
}

fn cls_packet(src: u8, dst: u8, ttl: u8) -> Vec<u8> {
    dejavu_traffic::PacketBuilder::udp()
        .src_ip(0x0a00_0000 | u32::from(src % 16))
        .dst_ip(0x0a00_0100 | (u32::from(dst % 4) << 16) | u32::from(dst % 8))
        .src_port(1000)
        .dst_port(53)
        .ttl(ttl % 8)
        .build()
}

/// The eight switches under test: every forced index policy and the auto
/// policy, on both engines.
const POLICIES: [IndexPolicy; 4] = [
    IndexPolicy::Force(IndexKind::Scan),
    IndexPolicy::Force(IndexKind::TupleSpace),
    IndexPolicy::Force(IndexKind::DecisionTree),
    IndexPolicy::Auto,
];

fn cls_testbed(program: &Program, policy: IndexPolicy, mode: ExecMode) -> Switch {
    let pid = PipeletId::ingress(0);
    let mut sw = Switch::new(TofinoProfile::wedge_100b_32x());
    sw.set_exec_mode(mode);
    sw.set_telemetry(true);
    sw.load_program(pid, program.clone()).unwrap();
    sw.set_idle_timeout(pid, "cls", Some(2)).unwrap();
    sw.set_table_index(pid, "cls", policy).unwrap();
    sw
}

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Install(GenRule),
    /// Remove the n-th previously installed rule (mod live count).
    Remove(u8),
    /// Advance the aging clock by 1–3 ticks.
    Age(u8),
    /// Inject a packet described by (src, dst, ttl) seeds.
    Inject(u8, u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted mix via a selector: mostly injects and installs, with
    // enough deletes and aging sweeps to churn every index shape.
    (0u8..9, arb_rule(), any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(sel, rule, a, b, c)| {
        match sel {
            0..=2 => Op::Install(rule),
            3 => Op::Remove(a),
            4 => Op::Age(a),
            _ => Op::Inject(a, b, c),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// `lookup_scan`, tuple-space, decision-tree and the auto policy must
    /// be observationally identical on both engines under churn.
    #[test]
    fn forced_indexes_agree_under_churn(
        initial in prop_oneof![
            proptest::collection::vec(arb_rule(), 0..24),
            proptest::collection::vec(arb_rule(), 100..300),
        ],
        ops in proptest::collection::vec(arb_op(), 1..32),
    ) {
        let program = cls_program();
        let pid = PipeletId::ingress(0);
        let mut switches: Vec<(IndexPolicy, ExecMode, Switch)> = Vec::new();
        for policy in POLICIES {
            for mode in [ExecMode::Reference, ExecMode::Compiled] {
                switches.push((policy, mode, cls_testbed(&program, policy, mode)));
            }
        }

        // Deterministic target list for deletes: entries in install order.
        // Aged-out or already-removed targets are fine — `remove_entry`
        // then returns Ok(false) identically everywhere.
        let mut installed: Vec<TableEntry> = Vec::new();
        for &r in &initial {
            let e = rule_entry(r);
            for (_, _, sw) in &mut switches {
                sw.install_entry(pid, "cls", e.clone()).unwrap();
            }
            installed.push(e);
        }

        for (k, op) in ops.iter().enumerate() {
            match op {
                Op::Install(r) => {
                    let e = rule_entry(*r);
                    for (_, _, sw) in &mut switches {
                        sw.install_entry(pid, "cls", e.clone()).unwrap();
                    }
                    installed.push(e);
                }
                Op::Remove(sel) => {
                    if installed.is_empty() {
                        continue;
                    }
                    let victim = installed.remove(usize::from(*sel) % installed.len());
                    let removed: Vec<bool> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.remove_entry(pid, "cls", &victim).unwrap())
                        .collect();
                    prop_assert!(
                        removed.iter().all(|&b| b == removed[0]),
                        "step {}: remove_entry outcomes diverged: {:?}", k, removed
                    );
                }
                Op::Age(t) => {
                    let ticks = u64::from(t % 3) + 1;
                    let sweeps: Vec<_> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.advance_time(ticks))
                        .collect();
                    for (i, s) in sweeps.iter().enumerate().skip(1) {
                        prop_assert_eq!(
                            &sweeps[0], s,
                            "step {}: eviction sweep diverged on {:?}/{:?}",
                            k, switches[i].0, switches[i].1
                        );
                    }
                }
                Op::Inject(s, d, t) => {
                    let pkt = cls_packet(*s, *d, *t);
                    let outs: Vec<_> = switches
                        .iter_mut()
                        .map(|(_, _, sw)| sw.inject(InjectedPacket::new(pkt.clone(), 0)))
                        .collect();
                    for (i, o) in outs.iter().enumerate().skip(1) {
                        match (&outs[0], o) {
                            (Ok(a), Ok(b)) => prop_assert_eq!(
                                a, b,
                                "step {}: traversal diverged on {:?}/{:?}",
                                k, switches[i].0, switches[i].1
                            ),
                            (Err(_), Err(_)) => {}
                            (a, b) => prop_assert!(
                                false,
                                "step {}: {:?}/{:?} returned {:?} vs baseline {:?}",
                                k, switches[i].0, switches[i].1, b, a
                            ),
                        }
                    }
                }
            }
        }

        // Forced policies must have stuck — a migration behind the user's
        // back would make the comparison vacuous.
        for (policy, mode, sw) in &switches {
            if let IndexPolicy::Force(kind) = policy {
                prop_assert_eq!(
                    sw.table_index_kind(pid, "cls"), Some(*kind),
                    "forced {:?} policy drifted on {:?}", kind, mode
                );
            }
        }

        // Post-churn table state must agree across all eight switches.
        let baseline = &switches[0].2;
        let entries0 = baseline.tables(pid).unwrap().entries("cls");
        let counters0 = baseline.tables(pid).unwrap().counters("cls");
        let evictions0 = baseline.tables(pid).unwrap().evictions("cls");
        for (policy, mode, sw) in switches.iter().skip(1) {
            let ts = sw.tables(pid).unwrap();
            prop_assert_eq!(
                &entries0, &ts.entries("cls"),
                "surviving entries diverged on {:?}/{:?}", policy, mode
            );
            prop_assert_eq!(
                counters0, ts.counters("cls"),
                "hit/miss counters diverged on {:?}/{:?}", policy, mode
            );
            prop_assert_eq!(
                evictions0, ts.evictions("cls"),
                "eviction counts diverged on {:?}/{:?}", policy, mode
            );
        }

        // Within each policy, both engines must expose identical
        // telemetry — including the table_index_kind / table_index_probes
        // / table_index_rebuilds / probe- and tree-depth series, because
        // the reference interpreter routes lookups through the very same
        // index as the compiled fast path.
        for pair in switches.chunks(2) {
            prop_assert_eq!(
                pair[0].2.metrics_snapshot(),
                pair[1].2.metrics_snapshot(),
                "metrics snapshots diverged between engines under {:?}", pair[0].0
            );
        }
    }
}

/// Deterministic witness for the scenario the bulk branch above targets:
/// under `Auto`, a bulk install migrates tuple-space → decision tree, the
/// tree's root list outgrows 64 entries between geometric rebuilds, and an
/// aging sweep shrinks the table back to tuple-space — all while every
/// lookup agrees with the forced scan.
#[test]
fn auto_migrates_both_ways_under_bulk_churn() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1dc5);
    let mut rule = || GenRule {
        src_seed: rng.gen(),
        src_mask: rng.gen(),
        dst_seed: rng.gen(),
        dst_len: rng.gen(),
        ttl_lo: rng.gen(),
        ttl_span: rng.gen(),
        action: rng.gen(),
        priority: rng.gen(),
    };
    let program = cls_program();
    let pid = PipeletId::ingress(0);
    let mut auto = cls_testbed(&program, IndexPolicy::Auto, ExecMode::Compiled);
    let mut scan = cls_testbed(
        &program,
        IndexPolicy::Force(IndexKind::Scan),
        ExecMode::Compiled,
    );
    let mut kinds = vec![auto.table_index_kind(pid, "cls").unwrap()];
    let mut longest_root_list = 0;
    let check = |auto: &mut Switch, scan: &mut Switch, k: u8| {
        let pkt = cls_packet(k, k / 16, k / 3);
        assert_eq!(
            auto.inject(InjectedPacket::new(pkt.clone(), 0)).unwrap(),
            scan.inject(InjectedPacket::new(pkt, 0)).unwrap(),
            "auto diverged from scan on packet seed {k}"
        );
    };
    for i in 0..300u16 {
        let e = rule_entry(rule());
        auto.install_entry(pid, "cls", e.clone()).unwrap();
        scan.install_entry(pid, "cls", e).unwrap();
        let kind = auto.table_index_kind(pid, "cls").unwrap();
        if kind == IndexKind::DecisionTree {
            let stats = auto.tables(pid).unwrap().index_stats("cls").unwrap();
            longest_root_list = longest_root_list.max(stats.spill);
        }
        kinds.push(kind);
        check(&mut auto, &mut scan, i as u8);
    }
    // Keep a few flows warm across the sweep so the table does not empty.
    for _ in 0..2 {
        auto.advance_time(1);
        scan.advance_time(1);
        for k in 0..4 {
            check(&mut auto, &mut scan, k);
        }
    }
    kinds.push(auto.table_index_kind(pid, "cls").unwrap());
    kinds.dedup();
    assert_eq!(
        kinds,
        [
            IndexKind::TupleSpace,
            IndexKind::DecisionTree,
            IndexKind::TupleSpace
        ],
        "auto kind sequence"
    );
    assert!(
        longest_root_list > 64,
        "root list peaked at {longest_root_list} entries"
    );
    assert!(!auto.tables(pid).unwrap().entries("cls").is_empty());
    for k in 0..=255 {
        check(&mut auto, &mut scan, k);
    }
}
