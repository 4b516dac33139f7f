//! In-memory span tracer for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions; nothing inside the library is instrumented. A span
//! records its name, start, end, parent span and a shared id (the packet
//! trace id or the migration index). Self time — a span's duration minus
//! the part its child spans cover — is accumulated per span name as spans
//! close, so the per-layer table needs no post-processing. The first
//! spans of every name are kept whole and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw spans kept per span name, so every layer appears in the output
/// however many packets the workload sends; later spans still count
/// towards self times.
const SPANS_PER_NAME: u32 = 5_000;
const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    id: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    idx: u32,
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    epoch: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<Open>,
    self_ns: BTreeMap<&'static str, (u64, u64)>,
    kept: BTreeMap<&'static str, u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = on;
        t.epoch.get_or_insert_with(Instant::now);
    });
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard drops"]
pub struct Guard(bool);

/// Opens a span named `layer.call` with the shared id `id`. A no-op while
/// tracing is off.
pub fn span(name: &'static str, id: u64) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return Guard(false);
        }
        let start = Instant::now();
        let parent = t.open.last().map_or(NO_PARENT, |o| o.idx);
        let kept = t.kept.entry(name).or_insert(0);
        let keep = *kept < SPANS_PER_NAME;
        *kept += u32::from(keep);
        let idx = if keep {
            let epoch = *t.epoch.get_or_insert(start);
            let start_ns = start.duration_since(epoch).as_nanos() as u64;
            t.spans.push(Span {
                name,
                id,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            (t.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        t.open.push(Open {
            name,
            start,
            child_ns: 0,
            idx,
        });
        Guard(true)
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            let Some(open) = t.open.pop() else {
                return;
            };
            let end = Instant::now();
            let dur = end.duration_since(open.start).as_nanos() as u64;
            if let Some(parent) = t.open.last_mut() {
                parent.child_ns += dur;
            }
            let e = t.self_ns.entry(open.name).or_insert((0, 0));
            e.0 += dur.saturating_sub(open.child_ns);
            e.1 += 1;
            if open.idx != NO_PARENT {
                let epoch = t.epoch.expect("epoch set when the span opened");
                let end_ns = end.duration_since(epoch).as_nanos() as u64;
                t.spans[open.idx as usize].end_ns = end_ns;
            }
        });
    }
}

/// Self time per span name since the last call, as `(name, ns, spans)`,
/// and resets the accumulators.
pub fn take_self_times() -> Vec<(&'static str, u64, u64)> {
    TRACER.with(|t| {
        std::mem::take(&mut t.borrow_mut().self_ns)
            .into_iter()
            .map(|(k, (ns, n))| (k, ns, n))
            .collect()
    })
}

/// Writes every recorded span as one JSON object per line.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    TRACER.with(|t| -> std::io::Result<()> {
        for (i, s) in t.borrow().spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        {
            let _outer = span("a.outer", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("b.inner", 1);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_enabled(false);
        let times: BTreeMap<_, _> = take_self_times()
            .into_iter()
            .map(|(k, ns, n)| (k, (ns, n)))
            .collect();
        let (outer, _) = times["a.outer"];
        let (inner, n) = times["b.inner"];
        assert_eq!(n, 1);
        assert!(inner >= 4_000_000);
        assert!(
            (2_000_000..4_000_000).contains(&outer),
            "outer self {outer}"
        );
        assert!(TRACER.with(|t| t.borrow().spans.len()) >= 2);
    }
}
