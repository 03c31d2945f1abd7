//! `archive`: the write path behind Remember and Diff (§6).
//!
//! Two writer threads call [`AideEngine`] in process over a
//! `DiskRepository` on the real filesystem, with the background
//! compactor running. One op handles one change: the generator edits a
//! page on the simulated web (untimed), then the op times
//! `engine.remember` (RCS check-in, WAL group commit with a real fsync)
//! followed by `engine.diff_versions` from the previous revision to the
//! new one (a cold HtmlDiff, since the content is new).
//!
//! `engine.diff(user, url)` is not used for the op: it checks the page
//! in itself before diffing, which would leave the Remember after it
//! with nothing to store.

use crate::check::{self, Fingerprint};
use crate::corpus::{self, Doc};
use crate::stats::{self, Metrics};
use crate::trace::{self, Span};
use crate::wrap::{self, TracedRepo};
use crate::{repeated_setup, Bench, DirGuard, OpTimer, Outcome, Phase, Scale, Settings, StoreEnd};
use aide::engine::AideEngine;
use aide_htmldiff::Options as DiffOptions;
use aide_rcs::archive::{Archive, RevId};
use aide_rcs::repo::Repository;
use aide_simweb::net::Web;
use aide_snapshot::diffcache::DiffCacheStats;
use aide_snapshot::locks::LockStats;
use aide_snapshot::service::ServiceStats;
use aide_store::{spawn_compactor, CompactorHandle, DiskRepository};
use aide_util::time::{Clock, Duration};
use aide_workloads::Rng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const USER: &str = "writer@bench";
const WRITERS: usize = 2;

struct Sizes {
    urls: usize,
    depth: usize,
    min_bytes: usize,
    max_bytes: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // 1152 archives: more than the store's archive cache holds (16
        // shards × 64), so a share of check-ins load from disk. Pages
        // are kept small so the store, which compaction rewrites over
        // and over, stays small; the depth is large enough that a run
        // adds only a small share of it.
        Scale::Full => Sizes {
            urls: 1152,
            depth: 24,
            min_bytes: 2048,
            max_bytes: 6144,
        },
        Scale::Small => Sizes {
            urls: 48,
            depth: 3,
            min_bytes: 2048,
            max_bytes: 4096,
        },
    }
}

struct DocState {
    doc: Doc,
    rev: RevId,
}

struct State {
    breakdown: String,
    compactor: Option<CompactorHandle>,
    engine: Arc<AideEngine<TracedRepo>>,
    repo: Arc<DiskRepository>,
    docs: Vec<Mutex<DocState>>,
    /// Page bytes checked in so far.
    user_bytes: AtomicU64,
    recovery_s: f64,
    dir: DirGuard,
}

fn setup(s: &Settings, sz: &Sizes, dir: &Path) -> Result<State, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let guard = DirGuard(dir.to_path_buf());
    let started = Instant::now();
    let repo = wrap::open_store(dir).map_err(|e| format!("open store: {e}"))?;
    // Generate every history and check it in.
    let built = crate::populate(&repo, sz.urls, |i| {
        let mut doc = Doc::new(s.seed, i, sz.min_bytes, sz.max_bytes);
        let mut bytes = doc.html.len() as u64;
        let mut archive = Archive::create(
            &corpus::url(i),
            &doc.html,
            "gen",
            "rev 1",
            corpus::rev_date(i, 1),
        );
        for r in 2..=sz.depth {
            let text = doc.edit();
            bytes += text.len() as u64;
            archive
                .checkin(text, "gen", "edit", corpus::rev_date(i, r))
                .map_err(|e| format!("{}: {e}", corpus::url(i)))?;
        }
        let rev = archive.head();
        Ok((archive, (DocState { doc, rev }, bytes)))
    })?;
    drop(repo);
    let populate_s = started.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let repo = wrap::open_store(dir).map_err(|e| format!("reopen store: {e}"))?;
    let recovery_s = t0.elapsed().as_secs_f64();

    let web = Web::new(Clock::starting_at(
        corpus::t0() + Duration::days(sz.depth as u64 + 10),
    ));
    let user_bytes = AtomicU64::new(built.iter().map(|(_, b)| b).sum());
    let docs: Vec<Mutex<DocState>> = built.into_iter().map(|(d, _)| Mutex::new(d)).collect();
    for (i, d) in docs.iter().enumerate() {
        let d = d.lock().expect("doc");
        web.set_page(&corpus::url(i), &d.doc.html, corpus::rev_date(i, sz.depth))
            .map_err(|e| format!("publish: {e}"))?;
    }
    let engine = Arc::new(AideEngine::with_repository(web, TracedRepo(repo.clone())));
    let compactor = Some(spawn_compactor(&repo));
    // Cache warm-up: touch every archive once, leaving the store's
    // cache holding its most recent share.
    for i in 0..sz.urls {
        engine
            .snapshot()
            .head(&corpus::url(i))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let breakdown = format!(
        "setup: generate + populate {populate_s:.3}s, recovery {recovery_s:.3}s, \
         warm-up {:.3}s",
        started.elapsed().as_secs_f64() - populate_s - recovery_s
    );
    Ok(State {
        breakdown,
        compactor,
        engine,
        repo,
        docs,
        user_bytes,
        recovery_s,
        dir: guard,
    })
}

type Acks = Vec<Mutex<Vec<(usize, RevId, Fingerprint)>>>;

/// The workload's state between phases.
struct Archiving {
    st: State,
    seed: u64,
    /// Every acknowledged check-in, per writer.
    acks: Acks,
}

/// Counters read around the traced phase.
struct Counters {
    service: ServiceStats,
    cache: DiffCacheStats,
    locks: LockStats,
    user_bytes: u64,
    fallbacks: [u64; 3],
}

impl Bench for Archiving {
    type Counters = Counters;

    fn measure(&mut self, seconds: f64, first_id: u64) -> Phase {
        let (st, acks) = (&self.st, &self.acks);
        let urls = st.docs.len();
        let rngs: Vec<Mutex<Rng>> = (0..WRITERS)
            .map(|t| Mutex::new(Rng::new(self.seed ^ 0xA4C1_17E5).fork(first_id + t as u64)))
            .collect();
        let opts = DiffOptions::default();
        crate::closed_loop(WRITERS, seconds, first_id, |t, timer: &mut OpTimer| {
            // Each writer owns the documents of its parity, so the two
            // never edit one page at once.
            let pick = rngs[t].lock().expect("rng").index(urls.div_ceil(WRITERS));
            let i = (pick * WRITERS + t).min(urls - 1);
            let url = corpus::url(i);
            let mut d = st.docs[i].lock().expect("doc");
            let body = d.doc.edit().to_string();
            let web = st.engine.web();
            web.touch_page(&url, &body, web.clock().now())
                .map_err(|e| format!("publish {url}: {e}"))?;
            let prev = d.rev;

            timer.start();
            let rem = trace::scoped("aide.remember", |_| 0, || st.engine.remember(USER, &url))
                .map_err(|e| format!("remember {url}: {e}"))?;
            let diff = trace::scoped(
                "aide.diff",
                |_| 0,
                || st.engine.diff_versions(&url, prev, rem.rev, &opts),
            );
            timer.stop();

            if !rem.stored_new_revision {
                return Err(format!("{url}: edited page was not stored"));
            }
            check::check_next_revision(&url, prev, rem.rev)?;
            d.rev = rem.rev;
            st.user_bytes
                .fetch_add(body.len() as u64, Ordering::Relaxed);
            acks[t]
                .lock()
                .expect("acks")
                .push((i, rem.rev, Fingerprint::of(&body)));
            let diff = diff.map_err(|e| format!("diff {url}: {e}"))?;
            if diff.from_cache || diff.html.is_empty() {
                return Err(format!("{url}: diff of new content was not computed"));
            }
            Ok(())
        })
    }

    fn counters(&self) -> Counters {
        let svc = self.st.engine.snapshot();
        Counters {
            service: svc.snapshot_stats(),
            cache: svc.diff_cache_stats(),
            locks: svc.locks().stats(),
            user_bytes: self.st.user_bytes.load(Ordering::Relaxed),
            fallbacks: crate::fallback_counts(),
        }
    }

    fn layer_metrics(
        &self,
        c0: &Counters,
        c1: &Counters,
        ops: u64,
        spans: &[Span],
        m: &mut Metrics,
    ) {
        let diffs = (c1.service.htmldiff_invocations - c0.service.htmldiff_invocations) as f64;
        let (hits, misses) = (
            c1.cache.hits - c0.cache.hits,
            c1.cache.misses - c0.cache.misses,
        );
        m.set(
            "snapshot.diffcache_hit_ratio",
            stats::ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        );
        m.set(
            "snapshot.htmldiff_per_op",
            stats::ratio(diffs, ops as f64),
            "count",
        );
        crate::lock_metrics(m, &c0.locks, &c1.locks);
        crate::fallback_metrics(m, c0.fallbacks, c1.fallbacks, diffs);
        let user_bytes = (c1.user_bytes - c0.user_bytes) as f64;
        m.set(
            "vfs.wal_bytes_per_user_byte",
            stats::ratio(crate::span_bytes(spans, "vfs.append.wal"), user_bytes),
            "ratio",
        );
        m.set(
            "vfs.segment_bytes_per_user_byte",
            stats::ratio(crate::span_bytes(spans, "vfs.append.seg"), user_bytes),
            "ratio",
        );
    }

    /// The traced phase counts diffcore fallbacks in an observability
    /// registry installed for it alone.
    fn tracing(&mut self, on: bool) {
        if on {
            aide_obs::install(Arc::new(aide_obs::MetricsRegistry::new()));
        } else {
            aide_obs::uninstall();
        }
    }
}

/// Closes the store, reopens it, and checks every acknowledged revision
/// out against what the generator wrote.
fn verify(st: State, acks: Acks, out: &mut Outcome) -> Result<(), String> {
    let State {
        compactor,
        engine,
        repo,
        dir,
        ..
    } = st;
    drop(compactor);
    drop(engine);
    drop(repo);
    let reopened = DiskRepository::open(
        Arc::new(aide_store::RealVfs::new(&dir.0)),
        "",
        aide_store::StoreOptions::default(),
    )
    .map_err(|e| format!("reopen for verification: {e}"))?;
    for (i, rev, want) in acks.into_iter().flat_map(|a| a.into_inner().expect("acks")) {
        let url = corpus::url(i);
        let text = reopened
            .load(&url)
            .map_err(|e| e.to_string())
            .and_then(|a| a.ok_or_else(|| "archive missing".to_string()))
            .and_then(|a| a.checkout(rev).map_err(|e| e.to_string()));
        match text {
            Ok(text) => {
                if let Err(e) = check::check_checkout(&url, rev, &want, &text) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(format!("{url} {rev} after reopen: {e}")),
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let sz = sizes(s.scale);
    let mut out = Outcome::default();
    let setups = if s.trace { 1 } else { 3 };
    let (st, setup_s) = repeated_setup(setups, |k| {
        setup(s, &sz, &s.work_dir.join(format!("archive-{k}")))
    })?;
    out.notes.push(st.breakdown.clone());
    let depth_start = crate::chain_depth(&st.repo);
    let mut bench = Archiving {
        st,
        seed: s.seed,
        acks: (0..WRITERS).map(|_| Mutex::new(Vec::new())).collect(),
    };
    crate::drive(s, &mut bench, setup_s, &mut out);
    if s.trace {
        model_lines(&out.metrics, &mut out.notes);
    }
    let Archiving { st, acks, .. } = bench;
    StoreEnd {
        repo: &st.repo,
        dir: &st.dir.0,
        user_bytes: st.user_bytes.load(Ordering::Relaxed),
        recovery_s: st.recovery_s,
        depth_start,
    }
    .report(s.trace, &mut out);
    verify(st, acks, &mut out)?;
    Ok(out)
}

/// The measured counterparts of the capacity model's write-path
/// constants.
fn model_lines(m: &stats::Metrics, notes: &mut Vec<String>) {
    let g = |n: &str| m.get(n).unwrap_or(0.0);
    notes.push(format!(
        "model vs measured: fsync 400us vs vfs.sync p50 {:.0}us / p99 {:.0}us",
        g("vfs.sync_us.p50"),
        g("vfs.sync_us.p99")
    ));
    notes.push(format!(
        "model vs measured: cold diff 600us vs htmldiff.self p50 {:.0}us / p99 {:.0}us",
        g("htmldiff.self_us.p50"),
        g("htmldiff.self_us.p99")
    ));
}
