//! Install-scaling and selection guards for the classifier indexes.
//!
//! Rules installed one at a time must cost amortized time: a table rebuilds
//! its index only on geometric growth (or a kind change), so `n` sequential
//! installs trigger O(log n) rebuilds. Every rebuild re-chooses the index
//! kind from the entries, so after sequential installs a table is served by
//! the same kind a from-scratch re-evaluation picks.
//!
//! Two rulesets, both derived from `acl_ruleset`:
//! * **raw** — the generator's ternary source × destination pairs, with
//!   ~30% scattered masks (tuple-hostile: the decision tree's regime);
//! * **edge** — the firewall ACL of the §5 edge prototype: a source prefix
//!   inside 10.1.0.0/16, a destination prefix, protocol 6 and a point range
//!   on port 22 (few tuples: tuple-space's regime).

use std::time::{Duration, Instant};

use dejavu_asic::{IndexKind, IndexPolicy, TableState};
use dejavu_nf::firewall;
use dejavu_p4ir::builder::TableBuilder;
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::{fref, TableDef, Value};
use dejavu_traffic::{acl_ruleset, matching_flow, AclRule};

const RAW_TABLE: &str = "acl_pairs";

fn prefix_mask(len: u32) -> u32 {
    u32::MAX.checked_shl(32 - len).unwrap_or(0)
}

/// Which table a generated `AclRule` is installed into, and how.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Two ternary keys holding the rule's masks as generated.
    Raw,
    /// The firewall NF's ACL table, with the edge prototype's deny rule.
    Edge,
}

impl Shape {
    fn table(self) -> TableDef {
        match self {
            Shape::Raw => TableBuilder::new(RAW_TABLE)
                .key_ternary(fref("ipv4", "src_addr"))
                .key_ternary(fref("ipv4", "dst_addr"))
                .action("deny")
                .default_action("permit")
                .size(16_384)
                .build(),
            Shape::Edge => firewall::firewall()
                .program()
                .tables
                .get(firewall::ACL_TABLE)
                .expect("firewall has an ACL table")
                .clone(),
        }
    }

    fn entry(self, r: &AclRule) -> TableEntry {
        match self {
            Shape::Raw => {
                let t = |v: u32, m: u32| {
                    KeyMatch::Ternary(Value::new(v.into(), 32), Value::new(m.into(), 32))
                };
                TableEntry {
                    matches: vec![t(r.src_val, r.src_mask), t(r.dst_val, r.dst_mask)],
                    action: "deny".into(),
                    action_args: vec![],
                    priority: r.priority,
                }
            }
            // The source prefix narrowed into 10.1.0.0/16, the destination
            // prefix as generated, TCP to port 22.
            Shape::Edge => {
                let src_len = 16 + r.src_mask.leading_ones() / 2;
                let dst_len = r.dst_mask.leading_ones();
                let src = (0x0a01_0000 | (r.src_val & 0xffff)) & prefix_mask(src_len);
                let dst = r.dst_val & prefix_mask(dst_len);
                firewall::deny_entry(
                    (src, src_len as u16),
                    (dst, dst_len as u16),
                    Some(6),
                    (22, 22),
                    r.priority,
                )
            }
        }
    }

    fn keys(self, src: u32, dst: u32) -> Vec<Value> {
        let mut keys = vec![Value::new(src.into(), 32), Value::new(dst.into(), 32)];
        if let Shape::Edge = self {
            keys.extend([Value::new(6, 8), Value::new(22, 16)]);
        }
        keys
    }

    /// A fresh auto-indexed table with `rules` installed one by one.
    fn install_all(self, def: &TableDef, rules: &[AclRule]) -> TableState {
        let mut ts = TableState::new();
        for r in rules {
            ts.install(def, self.entry(r)).expect("rule installs");
        }
        ts
    }

    /// Indexed lookups agree with the scan oracle on keys drawn from ~200
    /// of the rules (each hits its rule or one shadowing it).
    fn assert_lookups_agree(self, ts: &TableState, def: &TableDef, rules: &[AclRule]) {
        for (i, r) in rules.iter().enumerate().step_by(rules.len().div_ceil(200)) {
            let (src, dst) = matching_flow(r, i as u64);
            let keys = self.keys(src, dst);
            assert_eq!(
                ts.lookup_readonly(def, &keys),
                ts.lookup_scan(def, &keys),
                "{self:?}: indexed lookup diverged from scan on rule {i}"
            );
        }
    }
}

fn rebuilds(ts: &TableState, table: &str) -> u64 {
    ts.index_telemetry()
        .into_iter()
        .find(|(name, _)| name == table)
        .map(|(_, t)| t.rebuilds)
        .expect("table has telemetry")
}

#[test]
fn sequential_installs_rebuild_logarithmically() {
    const N: usize = 3000;
    let rules = acl_ruleset(N, 17);
    for shape in [Shape::Raw, Shape::Edge] {
        let def = shape.table();
        let ts = shape.install_all(&def, &rules);
        let bound = 2 * u64::from(N.next_power_of_two().trailing_zeros());
        let got = rebuilds(&ts, &def.name);
        assert!(
            got <= bound,
            "{shape:?}: {N} sequential installs rebuilt the index {got} times (bound {bound})"
        );
        shape.assert_lookups_agree(&ts, &def, &rules);
    }
}

#[test]
fn raw_acl_install_stays_fast() {
    let rules = acl_ruleset(3000, 3);
    let def = Shape::Raw.table();
    let start = Instant::now();
    let ts = Shape::Raw.install_all(&def, &rules);
    let took = start.elapsed();
    assert_eq!(ts.len(RAW_TABLE), rules.len());
    // Generous: amortized maintenance installs this in well under a second
    // even unoptimized; per-insert tree rebuilds take seconds optimized.
    assert!(
        took < Duration::from_secs(10),
        "3000 sequential raw ACL installs took {took:?}"
    );
}

#[test]
fn sequential_installs_select_what_a_rebuild_picks() {
    let cases = [
        (Shape::Edge, 1000, IndexKind::TupleSpace),
        (Shape::Raw, 10_000, IndexKind::DecisionTree),
    ];
    for (shape, n, expected) in cases {
        let rules = acl_ruleset(n, 29);
        let def = shape.table();
        let mut ts = shape.install_all(&def, &rules);
        let installed = ts.index_kind(&def.name);
        assert_eq!(installed, Some(expected), "{shape:?}: {n} rules");
        // Re-applying the auto policy re-chooses the kind from the entries.
        ts.set_index_policy(&def.name, IndexPolicy::Auto).unwrap();
        assert_eq!(ts.index_kind(&def.name), installed, "{shape:?}");
        shape.assert_lookups_agree(&ts, &def, &rules);
    }
}
