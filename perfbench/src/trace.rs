//! In-memory span recorder for the traced run.
//!
//! A span has a name, start and end (ns since the recorder's epoch), the
//! span that was open on the same thread when it began (its parent), and
//! the id of the benchmark op it belongs to. Spans are buffered per
//! thread and gathered by [`take_all`] when the run ends. With tracing
//! off every entry point costs one relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Enclosing span on the same thread, or 0.
    pub parent: u64,
    /// Benchmark op this span served, or 0 (background work).
    pub op: u64,
    /// Layer-qualified name, e.g. `store.load`.
    pub name: &'static str,
    /// Start, ns since the recorder epoch.
    pub start_ns: u64,
    /// End, ns since the recorder epoch.
    pub end_ns: u64,
    /// Bytes moved by the call, where the layer has such a notion.
    pub bytes: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Default)]
struct Local {
    buf: Vec<Span>,
    stack: Vec<u64>,
    op: u64,
}

impl Drop for Local {
    fn drop(&mut self) {
        flush_into_sink(&mut self.buf);
    }
}

fn flush_into_sink(buf: &mut Vec<Span>) {
    if buf.is_empty() {
        return;
    }
    // A poisoned sink only means another thread panicked mid-push; the
    // spans already in it are whole, so keep collecting.
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    sink.append(buf);
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the recorder epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Sets the op id that spans opened on this thread are charged to.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    /// Bytes to record with the span.
    pub bytes: u64,
}

/// Begins a span on this thread; `None` when tracing is off.
pub fn open(name: &'static str) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, op) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (parent, l.op)
    });
    Some(Open {
        id,
        parent,
        op,
        name,
        start_ns: now_ns(),
        bytes: 0,
    })
}

/// Ends `span` now and buffers it. Closing the outermost open span
/// moves the thread's buffer to the shared sink, so spans of
/// long-lived threads (the server's accept pool, the store's compactor)
/// are gathered without those threads exiting.
pub fn close(span: Open) {
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if let Some(pos) = l.stack.iter().rposition(|&id| id == span.id) {
            l.stack.truncate(pos);
        }
        l.buf.push(Span {
            id: span.id,
            parent: span.parent,
            op: span.op,
            name: span.name,
            start_ns: span.start_ns,
            end_ns,
            bytes: span.bytes,
        });
        if l.stack.is_empty() {
            flush_into_sink(&mut l.buf);
        }
    });
}

/// Runs `f` inside a span named `name`; `bytes` sizes the span from
/// the result.
pub fn scoped<T>(name: &'static str, bytes: impl FnOnce(&T) -> u64, f: impl FnOnce() -> T) -> T {
    match open(name) {
        None => f(),
        Some(mut span) => {
            let out = f();
            span.bytes = bytes(&out);
            close(span);
            out
        }
    }
}

/// Moves this thread's buffered spans to the shared sink. Threads that
/// exit flush on their own.
pub fn flush() {
    LOCAL.with(|l| flush_into_sink(&mut l.borrow_mut().buf));
}

/// Flushes this thread and drains every gathered span.
pub fn take_all() -> Vec<Span> {
    flush();
    let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *sink)
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|c| covered_ns(c, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Share of the root spans' time (names in `roots`) that no other span
/// of the same op covers.
pub fn unattributed_share(spans: &[Span], roots: &[&str]) -> f64 {
    let mut by_op: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.op != 0 && !roots.contains(&s.name))
    {
        by_op.entry(s.op).or_default().push((s.start_ns, s.end_ns));
    }
    let (mut total, mut uncovered) = (0u64, 0u64);
    for root in spans.iter().filter(|s| roots.contains(&s.name)) {
        let covered = by_op
            .get_mut(&root.op)
            .map(|v| covered_ns(v, root.start_ns, root.end_ns))
            .unwrap_or(0);
        total += root.dur_ns();
        uncovered += root.dur_ns().saturating_sub(covered);
    }
    crate::stats::ratio(uncovered as f64, total as f64)
}

/// The loopback hand-offs of each op as `wire.handoff` spans: from the
/// end of a client's `wire.send` to the start of the first
/// `serve.process` of the same op after it (the server thread waking
/// with the request), and from the end of a `serve.process` to the
/// start of the first `wire.recv` after it (the client waking with the
/// reply). That time is spent in the kernel and the scheduler, not in
/// any layer's code, and it grows with CPU contention; naming it keeps
/// contention out of `trace.unattributed_share`. A hand-off needs spans
/// on both sides, so an unwrapped layer still leaves its time uncovered.
pub fn handoffs(spans: &[Span]) -> Vec<Span> {
    let mut by_op: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.op != 0 && matches!(s.name, "wire.send" | "serve.process" | "wire.recv"))
    {
        by_op.entry(s.op).or_default().push(s);
    }
    let mut out = Vec::new();
    for (op, mut v) in by_op {
        v.sort_unstable_by_key(|s| s.start_ns);
        for (k, from) in v.iter().enumerate() {
            let to_name = match from.name {
                "wire.send" => "serve.process",
                "serve.process" => "wire.recv",
                _ => continue,
            };
            // The next such span; when it began before `from` ended, the
            // two overlap and nothing is left to hand off.
            let Some(to) = v[k + 1..]
                .iter()
                .find(|s| s.name == to_name)
                .filter(|s| s.start_ns >= from.end_ns)
            else {
                continue;
            };
            out.push(Span {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent: 0,
                op,
                name: "wire.handoff",
                start_ns: from.end_ns,
                end_ns: to.start_ns,
                bytes: 0,
            });
        }
    }
    out
}

/// Writes spans as tab-separated lines: id, parent, op, name, start,
/// end, bytes.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns\tbytes")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.bytes
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, op: u64, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: s,
            end_ns: e,
            bytes: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let mut v = vec![(0, 10), (5, 20), (30, 40), (35, 36)];
        assert_eq!(covered_ns(&mut v, 0, 100), 30);
        assert_eq!(covered_ns(&mut v, 8, 32), 14);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, 7, "op", 0, 100),
            span(2, 1, 7, "store.load", 10, 40),
            span(3, 2, 7, "vfs.read", 20, 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 70);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn unattributed_counts_gaps_across_threads() {
        // The op root on one thread; the layer span of the same op on
        // another thread (no parent link) still covers it.
        let spans = vec![
            span(1, 0, 7, "op", 0, 100),
            span(2, 0, 7, "serve.process", 20, 80),
            span(3, 0, 8, "op", 0, 50),
        ];
        let share = unattributed_share(&spans, &["op"]);
        assert!((share - 90.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn handoffs_fill_the_gaps_between_client_and_server() {
        // Two exchanges in one op; the second reply's first bytes reach
        // the client before the server's write returns (no gap).
        let spans = vec![
            span(1, 0, 7, "op", 0, 200),
            span(2, 1, 7, "wire.send", 0, 10),
            span(3, 0, 7, "serve.process", 15, 50),
            span(4, 1, 7, "wire.recv", 60, 70),
            span(5, 1, 7, "wire.send", 80, 90),
            span(6, 0, 7, "serve.process", 100, 150),
            span(7, 1, 7, "wire.recv", 140, 160),
        ];
        let got: Vec<(u64, u64)> = handoffs(&spans)
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert_eq!(got, vec![(10, 15), (50, 60), (90, 100)]);
        let mut all = spans.clone();
        all.extend(handoffs(&spans));
        // Left uncovered: 70..80 and 160..200.
        let share = unattributed_share(&all, &["op"]);
        assert!((share - 50.0 / 200.0).abs() < 1e-9);
        // Without the server's spans nothing is handed off.
        let client_only: Vec<Span> = spans
            .into_iter()
            .filter(|s| s.name != "serve.process")
            .collect();
        assert!(handoffs(&client_only).is_empty());
    }
}
