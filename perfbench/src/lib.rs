//! Measured benchmark of AIDE, end to end and by layer.
//!
//! Three workloads, each a closed loop of at most two client threads:
//!
//! - [`browse`]: keep-alive HTTP over loopback to `aide-serve` on a
//!   `DiskRepository` over `RealVfs` (the read path).
//! - [`archive`]: in-process Remember + HtmlDiff on `AideEngine` with
//!   real fsyncs and the background compactor (the write path).
//! - [`sweep`]: per-user w3newer runs plus the Figure 1 report over a
//!   simulated web (the tracker, on the CPU only).
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]): the
//! CPU cost of an op and of the set-up, which hold still on a host whose
//! hypervisor steals CPU in bursts, and peak memory. It prints the
//! wall-clock throughput and latency beside them. A traced run times
//! calls into each layer through the delegating wrappers in [`wrap`]
//! and reports [`PER_LAYER`].

pub mod archive;
pub mod browse;
pub mod check;
pub mod corpus;
pub mod host;
pub mod http;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod wrap;

use aide_rcs::archive::Archive;
use aide_rcs::repo::Repository;
use aide_store::DiskRepository;
use stats::{quantile, ratio, sorted, Metrics};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::Span;

/// End-to-end metrics every untraced run prints, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run prints, with units. A layer the
/// workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.process_us.p50", "us"),
    ("serve.process_us.p99", "us"),
    ("serve.write_us.p50", "us"),
    ("serve.socket_share", "ratio"),
    ("serve.not_modified_ratio", "ratio"),
    ("serve.render_hit_ratio", "ratio"),
    ("serve.render_evictions_per_kreq", "count"),
    ("serve.bytes_out_per_req", "B"),
    ("aide.diff_us.p50", "us"),
    ("aide.diff_us.p99", "us"),
    ("aide.remember_us.p50", "us"),
    ("aide.remember_us.p99", "us"),
    ("snapshot.diffcache_hit_ratio", "ratio"),
    ("snapshot.htmldiff_per_op", "count"),
    ("snapshot.lock_contended_ratio", "ratio"),
    ("snapshot.piggyback_ratio", "ratio"),
    ("htmldiff.self_us.p50", "us"),
    ("htmldiff.self_us.p99", "us"),
    ("diffcore.fallback.dense_per_diff", "count"),
    ("diffcore.fallback.banded_per_diff", "count"),
    ("diffcore.fallback.hirschberg_per_diff", "count"),
    ("store.load_us.p50", "us"),
    ("store.load_us.p99", "us"),
    ("store.loads_per_op", "count"),
    ("store.store_us.p50", "us"),
    ("store.store_us.p99", "us"),
    ("store.stores_per_op", "count"),
    ("store.recovery_s", "s"),
    ("store.segments_end", "count"),
    ("store.disk_bytes_per_user_byte", "ratio"),
    ("store.chain_depth_start", "count"),
    ("store.chain_depth_end", "count"),
    ("vfs.sync_us.p50", "us"),
    ("vfs.sync_us.p99", "us"),
    ("vfs.syncs_per_op", "count"),
    ("vfs.stores_per_sync", "count"),
    ("vfs.wal_bytes_per_user_byte", "ratio"),
    ("vfs.segment_bytes_per_user_byte", "ratio"),
    ("vfs.read_bytes_per_op", "B"),
    ("vfs.read_us.p50", "us"),
    ("w3newer.run_us.p50", "us"),
    ("w3newer.run_us.p99", "us"),
    ("w3newer.report_us.p50", "us"),
    ("w3newer.checked_ratio.threshold", "ratio"),
    ("w3newer.checked_ratio.adaptive", "ratio"),
    ("w3newer.changed_per_request", "ratio"),
    ("simweb.requests_per_run", "count"),
    ("simweb.proxy_hit_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Largest `trace.unattributed_share` the traced run accepts. The
/// loopback hand-offs of `browse` count as `wire.handoff` spans, so what
/// is left is the benchmark's own client code between layer calls.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read path over loopback HTTP.
    Browse,
    /// Write path: Remember + HtmlDiff with real fsyncs.
    Archive,
    /// Tracker sweep.
    Sweep,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "browse" => Some(Workload::Browse),
            "archive" => Some(Workload::Archive),
            "sweep" => Some(Workload::Sweep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Archive => "archive",
            Workload::Sweep => "sweep",
        }
    }
}

/// Input sizes: `Full` for measurement, `Small` for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are designed around.
    Full,
    /// A few-second smoke size.
    Small,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (per phase).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Working directory for stores and span dumps.
    pub work_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted (including correctness checks that ran on them).
    pub attempted: u64,
    /// Ops that failed or failed a check.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one failure.
    pub fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(err);
        }
    }

    /// Folds in a measured phase's counts.
    pub fn absorb(&mut self, phase: &Phase) {
        self.attempted += phase.attempted;
        for e in &phase.errors {
            self.fail(e.clone());
        }
    }
}

/// Ops measured in one phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted.
    pub attempted: u64,
    /// Failure descriptions (one per failed op).
    pub errors: Vec<String>,
    /// Ops that completed without error.
    pub completed: u64,
    /// Latency (ns) of each timed op that completed.
    pub latencies: Vec<u64>,
    /// Wall-clock length, s.
    pub seconds: f64,
    /// CPU time the whole process used, s ([`host::process_cpu_s`]).
    pub cpu_s: f64,
    /// [`host::cpu_ticks`] of the machine over the phase: `(busy,
    /// stolen)`.
    pub ticks: (u64, u64),
}

/// What the client threads of [`run_ops`] did.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    errors: Vec<String>,
    /// `(latency ns, succeeded)` per op.
    done: Vec<(Option<u64>, bool)>,
}

/// The process and machine counters read at the start of a phase.
pub(crate) struct PhaseClock {
    start: Instant,
    cpu_s: f64,
    ticks: (u64, u64),
}

impl PhaseClock {
    /// Reads the counters.
    pub(crate) fn start() -> PhaseClock {
        PhaseClock {
            ticks: host::cpu_ticks(),
            cpu_s: host::process_cpu_s(),
            start: Instant::now(),
        }
    }

    /// Reads the counters again and makes the phase of `ops`.
    pub(crate) fn finish(self, ops: Ops) -> Phase {
        let seconds = self.start.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_s() - self.cpu_s;
        let ticks = host::cpu_ticks();
        Phase {
            attempted: ops.attempted,
            errors: ops.errors,
            completed: ops.done.iter().filter(|d| d.1).count() as u64,
            latencies: ops.done.iter().filter_map(|d| d.0).collect(),
            seconds,
            cpu_s,
            ticks: (
                ticks.0.saturating_sub(self.ticks.0),
                ticks.1.saturating_sub(self.ticks.1),
            ),
        }
    }
}

impl Phase {
    /// Appends a later phase measured with the same settings.
    pub fn then(mut self, later: Phase) -> Phase {
        self.attempted += later.attempted;
        self.errors.extend(later.errors);
        self.completed += later.completed;
        self.latencies.extend(later.latencies);
        self.seconds += later.seconds;
        self.cpu_s += later.cpu_s;
        self.ticks = (self.ticks.0 + later.ticks.0, self.ticks.1 + later.ticks.1);
        self
    }

    /// Process CPU time per completed op, ms. CPU time leaves out what
    /// the hypervisor stole and the time threads wait to be woken, both
    /// of which swing several-fold on a shared host, so this is the
    /// phase's cost that holds still from run to run.
    pub fn cpu_ms_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e3, self.completed as f64)
    }

    /// Completed ops per wall-clock second.
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.completed as f64, self.seconds)
    }

    /// Records the end-to-end cost metric.
    pub fn report(&self, m: &mut Metrics) {
        m.set("cpu_ms_per_op", self.cpu_ms_per_op(), "ms");
    }

    /// A one-line summary, with the wall-clock figures a user would see
    /// and the share of the CPU time wanted that was stolen.
    pub fn describe(&self, label: &str) -> String {
        let ms = sorted(self.latencies.iter().map(|&ns| ns as f64 / 1e6).collect());
        format!(
            "{label}: {} ops, {} failed in {:.2} s; {:.4} ms CPU per op; wall clock \
             {:.1} ops/s, latency p50 {:.4} ms, p99 {:.4} ms ({} samples); steal {:.3}",
            self.attempted,
            self.errors.len(),
            self.seconds,
            self.cpu_ms_per_op(),
            self.ops_per_s(),
            quantile(&ms, 0.5),
            quantile(&ms, 0.99),
            ms.len(),
            host::steal_share((0, 0), self.ticks)
        )
    }
}

/// The timed part of one op. An op prepares its input untimed, then
/// brackets the system calls it measures with [`OpTimer::start`] and
/// [`OpTimer::stop`]; the bracket is the op's latency and its root
/// span `op`.
#[derive(Debug)]
pub struct OpTimer {
    /// The op's id, unique within the process.
    pub id: u64,
    root: Option<trace::Open>,
    started: Option<Instant>,
    ns: Option<u64>,
}

impl OpTimer {
    /// A timer for op `id`.
    pub fn new(id: u64) -> OpTimer {
        OpTimer {
            id,
            root: None,
            started: None,
            ns: None,
        }
    }

    /// Starts the clock (and the root span when tracing).
    pub fn start(&mut self) {
        trace::set_op(self.id);
        self.root = trace::open("op");
        self.started = Some(Instant::now());
    }

    /// Stops the clock.
    pub fn stop(&mut self) {
        if let Some(t0) = self.started.take() {
            self.ns = Some(t0.elapsed().as_nanos() as u64);
        }
        if let Some(root) = self.root.take() {
            trace::close(root);
        }
        trace::set_op(0);
    }
}

/// Runs ops on `threads` threads for as long as `next` hands out op
/// ids; `op(thread, timer)` returns `Err` for a failed op.
pub fn run_ops<N, F>(threads: usize, next: N, op: F) -> Ops
where
    N: Fn() -> Option<u64> + Sync,
    F: Fn(usize, &mut OpTimer) -> Result<(), String> + Sync,
{
    let parts: Vec<Ops> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (next, op) = (&next, &op);
                s.spawn(move || {
                    let mut part = Ops::default();
                    while let Some(id) = next() {
                        let mut timer = OpTimer::new(id);
                        let out = op(t, &mut timer);
                        timer.stop();
                        part.attempted += 1;
                        part.done.push((timer.ns, out.is_ok()));
                        if let Err(e) = out {
                            part.errors.push(e);
                        }
                    }
                    trace::flush();
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client thread panicked"))
            .collect()
    });
    let mut all = Ops::default();
    for p in parts {
        all.attempted += p.attempted;
        all.errors.extend(p.errors);
        all.done.extend(p.done);
    }
    all
}

/// Runs `op` on `threads` threads until `seconds` elapse, starting op
/// ids at `first_id`.
pub fn closed_loop<F>(threads: usize, seconds: f64, first_id: u64, op: F) -> Phase
where
    F: Fn(usize, &mut OpTimer) -> Result<(), String> + Sync,
{
    use std::sync::atomic::{AtomicU64, Ordering};
    let next = AtomicU64::new(first_id);
    let clock = PhaseClock::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let ops = run_ops(
        threads,
        || (Instant::now() < deadline).then(|| next.fetch_add(1, Ordering::Relaxed)),
        op,
    );
    clock.finish(ops)
}

/// A workload as [`drive`] runs it.
pub trait Bench {
    /// Layer counters read before and after the traced phase.
    type Counters;

    /// Runs one measured phase of `seconds`, numbering ops from
    /// `first_id`.
    fn measure(&mut self, seconds: f64, first_id: u64) -> Phase;

    /// Reads the layer counters.
    fn counters(&self) -> Self::Counters;

    /// Sets the per-layer metrics that come from the counters' change
    /// over a traced phase of `ops` ops that recorded `spans`.
    fn layer_metrics(
        &self,
        before: &Self::Counters,
        after: &Self::Counters,
        ops: u64,
        spans: &[Span],
        m: &mut Metrics,
    );

    /// Called as tracing turns on (before the traced phase's first
    /// counters are read) and off (after its last).
    fn tracing(&mut self, _on: bool) {}
}

/// Runs a workload's measured phases into `out`. Untraced, one phase
/// gives the end-to-end metrics. Traced, an untraced half comes before
/// the traced phase and another after it, so drift over the run cancels
/// out of `trace.overhead`; the per-layer metrics come from the spans
/// and counters of the traced phase.
pub fn drive<B: Bench>(s: &Settings, b: &mut B, setup_s: f64, out: &mut Outcome) {
    if !s.trace {
        let base = b.measure(s.seconds, 1);
        base.report(&mut out.metrics);
        out.metrics.set("setup_s", setup_s, "s");
        out.notes.push(base.describe("untraced"));
        out.absorb(&base);
        return;
    }
    let early = b.measure(s.seconds / 2.0, 1);
    b.tracing(true);
    let before = b.counters();
    trace::set_enabled(true);
    let traced = b.measure(s.seconds, 1 << 40);
    trace::set_enabled(false);
    let mut spans = trace::take_all();
    let after = b.counters();
    let handoffs = trace::handoffs(&spans);
    spans.extend(handoffs);
    b.tracing(false);
    let mut m = span_metrics(&spans, traced.attempted);
    b.layer_metrics(&before, &after, traced.attempted, &spans, &mut m);
    let base = early.then(b.measure(s.seconds / 2.0, 2 << 40));
    m.set(
        "trace.overhead",
        ratio(traced.cpu_ms_per_op(), base.cpu_ms_per_op()) - 1.0,
        "ratio",
    );
    out.metrics = m;
    out.notes.push(traced.describe("traced"));
    out.notes.push(base.describe("untraced"));
    out.notes.push(write_spans(s, &spans));
    out.absorb(&traced);
    out.absorb(&base);
}

/// Removes a directory when dropped. Declared as the last field of a
/// workload's state, it goes after everything holding files open in it.
#[derive(Debug)]
pub struct DirGuard(pub PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Sets up `n` times and keeps the last; returns it with the median
/// set-up time: the CPU seconds the process spent in it, which steal on
/// a shared host does not stretch as it does the wall clock. `setup(k)`
/// builds fresh state for attempt `k`; earlier attempts are dropped
/// before the next starts.
pub fn repeated_setup<T>(
    n: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut kept = None;
    for k in 0..n.max(1) {
        drop(kept.take());
        let cpu0 = host::process_cpu_s();
        let state = setup(k)?;
        times.push(host::process_cpu_s() - cpu0);
        kept = Some(state);
    }
    let state = kept.expect("at least one setup ran");
    Ok((state, stats::median(&times)))
}

/// Durations (µs, sorted) of the spans `pred` selects.
fn durations_us(spans: &[Span], pred: impl Fn(&Span) -> bool) -> Vec<f64> {
    sorted(
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect(),
    )
}

/// Total bytes recorded on the spans named `name`.
pub fn span_bytes(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.bytes)
        .sum::<u64>() as f64
}

/// The per-layer metrics that come from spans alone. `ops` is the
/// number of traced ops.
pub fn span_metrics(spans: &[Span], ops: u64) -> Metrics {
    let mut m = Metrics::default();
    let ops_f = ops as f64;
    let named = |n: &'static str| move |s: &Span| s.name == n;
    let put_pcts = |m: &mut Metrics, prefix: &str, v: &[f64], p99: bool| {
        m.set(&format!("{prefix}.p50"), quantile(v, 0.5), "us");
        if p99 {
            m.set(&format!("{prefix}.p99"), quantile(v, 0.99), "us");
        }
    };
    let count = |n: &str| spans.iter().filter(|s| s.name == n).count() as f64;

    put_pcts(
        &mut m,
        "serve.process_us",
        &durations_us(spans, named("serve.process")),
        true,
    );
    put_pcts(
        &mut m,
        "serve.write_us",
        &durations_us(spans, named("serve.write")),
        false,
    );
    let serve_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "serve.process")
        .map(Span::dur_ns)
        .sum();
    let op_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(Span::dur_ns)
        .sum();
    let socket = if serve_ns == 0 {
        0.0
    } else {
        1.0 - ratio(serve_ns as f64, op_ns as f64)
    };
    m.set("serve.socket_share", socket, "ratio");

    put_pcts(
        &mut m,
        "aide.diff_us",
        &durations_us(spans, named("aide.diff")),
        true,
    );
    put_pcts(
        &mut m,
        "aide.remember_us",
        &durations_us(spans, named("aide.remember")),
        true,
    );
    let selfs = trace::self_times(spans);
    let diff_self: Vec<f64> = sorted(
        spans
            .iter()
            .filter(|s| s.name == "aide.diff")
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect(),
    );
    put_pcts(&mut m, "htmldiff.self_us", &diff_self, true);

    put_pcts(
        &mut m,
        "store.load_us",
        &durations_us(spans, named("store.load")),
        true,
    );
    put_pcts(
        &mut m,
        "store.store_us",
        &durations_us(spans, named("store.store")),
        true,
    );
    m.set(
        "store.loads_per_op",
        ratio(count("store.load"), ops_f),
        "count",
    );
    m.set(
        "store.stores_per_op",
        ratio(count("store.store"), ops_f),
        "count",
    );

    let is_sync = |s: &Span| s.name.starts_with("vfs.sync");
    put_pcts(&mut m, "vfs.sync_us", &durations_us(spans, is_sync), true);
    let syncs = spans.iter().filter(|s| is_sync(s)).count() as f64;
    m.set("vfs.syncs_per_op", ratio(syncs, ops_f), "count");
    m.set(
        "vfs.stores_per_sync",
        ratio(count("store.store"), count("vfs.sync.wal")),
        "count",
    );
    m.set(
        "vfs.read_bytes_per_op",
        ratio(span_bytes(spans, "vfs.read"), ops_f),
        "B",
    );
    let reads = durations_us(spans, named("vfs.read"));
    m.set("vfs.read_us.p50", quantile(&reads, 0.5), "us");

    put_pcts(
        &mut m,
        "w3newer.run_us",
        &durations_us(spans, named("w3newer.run")),
        true,
    );
    put_pcts(
        &mut m,
        "w3newer.report_us",
        &durations_us(spans, named("w3newer.report")),
        false,
    );

    m.set(
        "trace.unattributed_share",
        trace::unattributed_share(spans, &["op"]),
        "ratio",
    );
    m
}

/// Fills every [`PER_LAYER`] metric the workload did not set with 0.
pub fn complete_layers(m: &mut Metrics) {
    for (name, unit) in PER_LAYER {
        if m.get(name).is_none() {
            m.set(name, 0.0, unit);
        }
    }
}

/// Snapshot-layer lock ratios over an interval.
pub fn lock_metrics(
    m: &mut Metrics,
    before: &aide_snapshot::locks::LockStats,
    after: &aide_snapshot::locks::LockStats,
) {
    let acq = (after.acquisitions - before.acquisitions) as f64;
    let contended = (after.contended - before.contended) as f64;
    let flights = (after.flights - before.flights) as f64;
    let piggy = (after.piggybacked - before.piggybacked) as f64;
    m.set(
        "snapshot.lock_contended_ratio",
        ratio(contended, acq),
        "ratio",
    );
    m.set(
        "snapshot.piggyback_ratio",
        ratio(piggy, flights + piggy),
        "ratio",
    );
}

/// The registry's `diff.fallback.{dense,banded,hirschberg}` counters
/// (0 without a registry).
pub fn fallback_counts() -> [u64; 3] {
    let counters = aide_obs::current().map(|r| r.snapshot().counters);
    ["dense", "banded", "hirschberg"].map(|kind| {
        counters
            .as_ref()
            .and_then(|c| c.get(&format!("diff.fallback.{kind}")).copied())
            .unwrap_or(0)
    })
}

/// Diffcore fallbacks per HtmlDiff run between two [`fallback_counts`]
/// readings.
pub fn fallback_metrics(m: &mut Metrics, before: [u64; 3], after: [u64; 3], diffs: f64) {
    for (k, kind) in ["dense", "banded", "hirschberg"].iter().enumerate() {
        m.set(
            &format!("diffcore.fallback.{kind}_per_diff"),
            ratio((after[k] - before[k]) as f64, diffs),
            "count",
        );
    }
}

/// Checks `n` archives into `repo` from two threads, one fsynced store
/// per archive, under the keys `corpus::url(i)`. `build(i)` makes
/// archive `i` and what the caller keeps of it; the kept values come
/// back in index order.
pub fn populate<T: Send>(
    repo: &DiskRepository,
    n: usize,
    build: impl Fn(usize) -> Result<(Archive, T), String> + Sync,
) -> Result<Vec<T>, String> {
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..2 {
            let (slots, errors, build) = (&slots, &errors, &build);
            scope.spawn(move || {
                for i in (t..n).step_by(2) {
                    let url = corpus::url(i);
                    let kept = build(i).and_then(|(archive, kept)| {
                        repo.store(&url, &archive)
                            .map(|()| kept)
                            .map_err(|e| format!("store {url}: {e}"))
                    });
                    match kept {
                        Ok(k) => *slots[i].lock().expect("populate slot") = Some(k),
                        Err(e) => errors.lock().expect("populate errors").push(e),
                    }
                }
            });
        }
    });
    if let Some(e) = errors.into_inner().expect("populate errors").first() {
        return Err(format!("populating the store: {e}"));
    }
    Ok(slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("populate slot")
                .expect("every archive built")
        })
        .collect())
}

/// Mean revisions per archive.
pub fn chain_depth(repo: &DiskRepository) -> f64 {
    repo.stats()
        .map(|st| ratio(st.revisions as f64, st.archives as f64))
        .unwrap_or(0.0)
}

/// A store-backed workload's store at the end of a run.
pub struct StoreEnd<'a> {
    /// The store.
    pub repo: &'a DiskRepository,
    /// Its directory.
    pub dir: &'a Path,
    /// Page bytes checked in, set-up included.
    pub user_bytes: u64,
    /// Seconds the reopen after populating took.
    pub recovery_s: f64,
    /// [`chain_depth`] when the measured phases began.
    pub depth_start: f64,
}

impl StoreEnd<'_> {
    /// Notes the store's size and shape, and on a traced run sets the
    /// `store.*` metrics that describe it.
    pub fn report(&self, traced: bool, out: &mut Outcome) {
        let depth_end = chain_depth(self.repo);
        let disk = host::dir_bytes(self.dir) as f64;
        let per_user_byte = ratio(disk, self.user_bytes as f64);
        out.notes.push(format!(
            "store: chain depth {:.2} -> {depth_end:.2} revisions/archive, {disk:.0} bytes \
             on disk, disk_bytes_per_user_byte {per_user_byte:.4}",
            self.depth_start
        ));
        if traced {
            let m = &mut out.metrics;
            m.set("store.recovery_s", self.recovery_s, "s");
            m.set(
                "store.segments_end",
                self.repo.segment_count() as f64,
                "count",
            );
            m.set("store.disk_bytes_per_user_byte", per_user_byte, "ratio");
            m.set("store.chain_depth_start", self.depth_start, "count");
            m.set("store.chain_depth_end", depth_end, "count");
        }
    }
}

/// Runs one invocation.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    std::fs::create_dir_all(&s.work_dir).map_err(|e| format!("work dir: {e}"))?;
    let record = host::RunRecord::gather(&s.work_dir);
    if s.workload != Workload::Sweep && host::is_memory_fs(&record.store_fs) {
        return Err(format!(
            "refusing to run `{}` with its store on {}: fsync costs nothing there",
            s.workload.name(),
            record.store_fs
        ));
    }
    let mut out = match s.workload {
        Workload::Browse => browse::run(s)?,
        Workload::Archive => archive::run(s)?,
        Workload::Sweep => sweep::run(s)?,
    };
    out.notes
        .insert(0, format!("run record: {}", record.to_json()));
    if s.trace {
        complete_layers(&mut out.metrics);
    } else {
        out.metrics.set("peak_rss_mb", host::peak_rss_mb(), "MiB");
    }
    Ok(out)
}

/// Writes the traced run's spans under the work directory.
pub fn write_spans(s: &Settings, spans: &[Span]) -> String {
    let path = s
        .work_dir
        .join(format!("trace-{}-seed{}.tsv", s.workload.name(), s.seed));
    match trace::write_tsv(&path, spans) {
        Ok(()) => format!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => format!("spans: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(completed: u64, cpu_s: f64, seconds: f64) -> Phase {
        Phase {
            attempted: completed + 1,
            errors: vec!["one failed".into()],
            completed,
            latencies: vec![1_000_000; completed as usize],
            seconds,
            cpu_s,
            ticks: (100, 0),
        }
    }

    #[test]
    fn cost_is_cpu_time_per_completed_op() {
        let p = phase(400, 0.8, 1.0).then(phase(100, 0.2, 4.0));
        assert_eq!((p.attempted, p.completed, p.errors.len()), (502, 500, 2));
        assert!((p.cpu_ms_per_op() - 2.0).abs() < 1e-12);
        assert!((p.ops_per_s() - 100.0).abs() < 1e-12);
        let mut m = Metrics::default();
        p.report(&mut m);
        assert_eq!(m.names(), vec!["cpu_ms_per_op"]);
    }

    #[test]
    fn a_phase_reads_the_process_clock() {
        let clock = PhaseClock::start();
        let (t0, cpu0) = (Instant::now(), host::process_cpu_s());
        let mut x = 0u64;
        while host::process_cpu_s() == cpu0 && t0.elapsed() < Duration::from_secs(5) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let p = clock.finish(Ops::default());
        assert!(p.seconds > 0.0);
        assert!(p.cpu_s > 0.0, "a busy loop used no CPU time");
    }
}
