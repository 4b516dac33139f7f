//! Property tests for the flow-state snapshot JSON codec: arbitrary
//! snapshots survive `to_json` → `from_json` losslessly (also when every
//! non-ASCII character is written as a `\u` escape), every truncation of a
//! valid document is an `Err`, random byte mutations and out-of-range
//! numbers never panic, and parsing time stays linear in the document's
//! size.

use std::time::{Duration, Instant};

use dejavu_asic::state::{RegisterSnapshot, StateSnapshot, TableSnapshot};
use dejavu_p4ir::table::{KeyMatch, TableEntry};
use dejavu_p4ir::Value;
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------

/// Raw values biased toward the extremes of the `u128` range.
fn raw_strat() -> BoxedStrategy<u128> {
    prop_oneof![
        Just(0u128),
        Just(u128::MAX),
        Just(u128::from(u64::MAX) + 1),
        any::<u128>(),
    ]
    .boxed()
}

fn value_strat() -> BoxedStrategy<Value> {
    (raw_strat(), 1u16..=128)
        .prop_map(|(raw, bits)| Value::new(raw, bits))
        .boxed()
}

/// Names that stress the string codec: quotes, backslashes, control
/// characters, multi-byte and non-BMP characters, and plain identifiers.
fn name_strat() -> BoxedStrategy<String> {
    const ODD: [char; 12] = [
        '"',
        '\\',
        '\n',
        '\t',
        '\r',
        '\u{0}',
        '\u{1f}',
        '\u{7f}',
        'λ',
        '→',
        '😀',
        '\u{10ffff}',
    ];
    vec(any::<u8>(), 0..16)
        .prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| match b % 40 {
                    0..=25 => (b'a' + b % 26) as char,
                    26 => '_',
                    27 => '/',
                    n => ODD[usize::from(n - 28)],
                })
                .collect()
        })
        .boxed()
}

fn key_match_strat() -> BoxedStrategy<KeyMatch> {
    prop_oneof![
        value_strat().prop_map(KeyMatch::Exact),
        (value_strat(), value_strat()).prop_map(|(v, m)| KeyMatch::Ternary(v, m)),
        (value_strat(), any::<u16>()).prop_map(|(v, l)| KeyMatch::Lpm(v, l)),
        (value_strat(), value_strat()).prop_map(|(lo, hi)| KeyMatch::Range(lo, hi)),
        Just(KeyMatch::Any),
    ]
    .boxed()
}

fn entry_strat() -> BoxedStrategy<TableEntry> {
    (
        vec(key_match_strat(), 0..4),
        name_strat(),
        vec(value_strat(), 0..3),
        prop_oneof![Just(i32::MIN), Just(i32::MAX), any::<i32>()],
    )
        .prop_map(|(matches, action, action_args, priority)| TableEntry {
            matches,
            action,
            action_args,
            priority,
        })
        .boxed()
}

fn table_strat() -> BoxedStrategy<TableSnapshot> {
    (
        name_strat(),
        prop_oneof![
            Just(None),
            Just(Some(u64::MAX)),
            any::<u64>().prop_map(Some)
        ],
        vec(entry_strat(), 0..4),
    )
        .prop_map(|(name, idle_timeout, entries)| TableSnapshot {
            name,
            idle_timeout,
            entries,
        })
        .boxed()
}

fn register_strat() -> BoxedStrategy<RegisterSnapshot> {
    (name_strat(), vec(raw_strat(), 0..6))
        .prop_map(|(name, cells)| RegisterSnapshot { name, cells })
        .boxed()
}

fn snapshot_strat() -> BoxedStrategy<StateSnapshot> {
    (
        name_strat(),
        prop_oneof![Just(u64::MAX), any::<u64>()],
        vec(table_strat(), 0..4),
        vec(register_strat(), 0..3),
    )
        .prop_map(|(program, clock, tables, registers)| {
            let mut snap = StateSnapshot::empty(program);
            snap.clock = clock;
            snap.tables = tables;
            snap.registers = registers;
            snap
        })
        .boxed()
}

/// One edit of a document's bytes, biased toward JSON punctuation so the
/// mutant usually stays close enough to JSON to reach deep parser paths.
#[derive(Debug, Clone)]
enum Mutation {
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

/// Numbers at and past the edges of every numeric field's range.
const BOUNDARY_NUMBERS: [&str; 9] = [
    "0",
    "129",
    "65536",
    "4294967296",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
    "-1",
    "1.5",
    "1e400",
];

fn mutation_byte_strat() -> BoxedStrategy<u8> {
    const PALETTE: &[u8] = b"{}[]\",:\\u0123456789abcdefe-+. ntrl\xce\xbb\xf0\x9f\x98\x80\x00\xff";
    prop_oneof![(0..PALETTE.len()).prop_map(|i| PALETTE[i]), any::<u8>()].boxed()
}

fn mutation_strat() -> BoxedStrategy<Mutation> {
    prop_oneof![
        (any::<usize>(), mutation_byte_strat()).prop_map(|(at, b)| Mutation::Replace(at, b)),
        (any::<usize>(), mutation_byte_strat()).prop_map(|(at, b)| Mutation::Insert(at, b)),
        any::<usize>().prop_map(Mutation::Delete),
    ]
    .boxed()
}

fn apply(doc: &mut Vec<u8>, m: &Mutation) {
    let len = doc.len().max(1);
    match *m {
        Mutation::Replace(at, b) if !doc.is_empty() => doc[at % len] = b,
        Mutation::Insert(at, b) => doc.insert(at % (doc.len() + 1), b),
        Mutation::Delete(at) if !doc.is_empty() => {
            doc.remove(at % len);
        }
        _ => {}
    }
}

/// Replaces the `n`-th (modulo their count) numeric field value — a run
/// of digits right after a `:` — with `to`, keeping the document
/// well-formed so the range checks behind the parser are what gets hit.
fn replace_number(doc: &mut Vec<u8>, n: usize, to: &str) {
    let mut runs = Vec::new();
    for (i, w) in doc.windows(2).enumerate() {
        if w[0] == b':' && w[1].is_ascii_digit() {
            let end = doc[i + 1..]
                .iter()
                .position(|c| !c.is_ascii_digit())
                .map_or(doc.len(), |k| i + 1 + k);
            runs.push(i + 1..end);
        }
    }
    if !runs.is_empty() {
        let run = runs[n % runs.len()].clone();
        doc.splice(run, to.bytes());
    }
}

/// Rewrites every non-ASCII character as `\u` escapes — a surrogate pair
/// for characters outside the BMP. Non-ASCII only occurs inside strings
/// in a snapshot document, so the result is an equivalent document.
fn escape_non_ascii(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    for c in doc.chars() {
        if c.is_ascii() {
            out.push(c);
        } else {
            let mut units = [0u16; 2];
            for unit in c.encode_utf16(&mut units) {
                out.push_str(&format!("\\u{unit:04X}"));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_snapshot_round_trips(snap in snapshot_strat()) {
        let doc = snap.to_json();
        prop_assert_eq!(StateSnapshot::from_json(&doc), Ok(snap.clone()));
        let escaped = escape_non_ascii(&doc);
        prop_assert!(escaped.is_ascii());
        prop_assert_eq!(StateSnapshot::from_json(&escaped), Ok(snap));
    }

    #[test]
    fn random_mutations_never_panic(
        snap in snapshot_strat(),
        edits in vec(mutation_strat(), 1..6),
    ) {
        let mut bytes = snap.to_json().into_bytes();
        for m in &edits {
            apply(&mut bytes, m);
        }
        let doc = String::from_utf8_lossy(&bytes);
        // Whatever a mutant parses to must itself round-trip.
        if let Ok(parsed) = StateSnapshot::from_json(&doc) {
            prop_assert_eq!(StateSnapshot::from_json(&parsed.to_json()), Ok(parsed));
        }
    }

    #[test]
    fn boundary_numbers_never_panic(
        snap in snapshot_strat(),
        edits in vec((any::<usize>(), 0..BOUNDARY_NUMBERS.len()), 1..4),
    ) {
        let mut bytes = snap.to_json().into_bytes();
        for &(n, i) in &edits {
            replace_number(&mut bytes, n, BOUNDARY_NUMBERS[i]);
        }
        let doc = String::from_utf8(bytes).expect("digit swaps keep UTF-8");
        if let Ok(parsed) = StateSnapshot::from_json(&doc) {
            prop_assert_eq!(StateSnapshot::from_json(&parsed.to_json()), Ok(parsed));
        }
    }
}

proptest! {
    // Each case parses every prefix of its document: quadratic in the
    // document, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_truncation_is_an_error(snap in snapshot_strat()) {
        let doc = snap.to_json();
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            let r = StateSnapshot::from_json(&doc[..cut]);
            prop_assert!(r.is_err(), "prefix of {cut} bytes parsed: {r:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Scaling guard
// ---------------------------------------------------------------------

/// Bounds on one parse in a debug build. A linear parse of either input
/// takes well under 100 ms on a 2-core x86-64 host; the old per-character
/// rescan of the rest of the document took ~3.7 s on the 2,048-entry
/// snapshot and over four minutes on the 1 MiB string there.
const STRING_BOUND: Duration = Duration::from_secs(10);
const SNAPSHOT_BOUND: Duration = Duration::from_millis(1500);

fn timed_parse(doc: &str) -> (StateSnapshot, Duration) {
    let started = Instant::now();
    let snap = StateSnapshot::from_json(doc).expect("the document parses");
    (snap, started.elapsed())
}

#[test]
fn a_one_mebibyte_string_parses_in_linear_time() {
    let mut program = String::new();
    while program.len() < 1 << 20 {
        program.push_str("nat__nat_in \"v2\" λ→😀\\\n");
    }
    let snap = StateSnapshot::empty(program);
    let doc = snap.to_json();
    assert!(doc.len() >= 1 << 20);
    let (back, took) = timed_parse(&doc);
    assert_eq!(back, snap);
    assert!(
        took < STRING_BOUND,
        "{} KiB document took {took:?}",
        doc.len() >> 10
    );
}

#[test]
fn a_2048_entry_snapshot_parses_in_linear_time() {
    let entries = (0..2048u128)
        .map(|i| TableEntry {
            matches: vec![
                KeyMatch::Exact(Value::new(0x0808_0808, 32)),
                KeyMatch::Exact(Value::new(40_000 + i, 16)),
            ],
            action: "nat__restore_dst".to_string(),
            action_args: vec![Value::new(0x0a01_0000 + i, 32), Value::new(i, 16)],
            priority: 0,
        })
        .collect();
    let mut snap = StateSnapshot::empty("pipelet_ingress1");
    snap.clock = 4096;
    snap.tables.push(TableSnapshot {
        name: "nat__nat_in".to_string(),
        idle_timeout: Some(64),
        entries,
    });
    let doc = snap.to_json();
    let (back, took) = timed_parse(&doc);
    assert_eq!(back.total_entries(), 2048);
    assert_eq!(back, snap);
    assert!(
        took < SNAPSHOT_BOUND,
        "2048-entry ({} KiB) snapshot took {took:?}",
        doc.len() >> 10
    );
}
