//! `browse`: the read path a user clicks through.
//!
//! `aide-serve` runs on a loopback listener with a two-thread accept
//! pool (the `serve_tcp` shape) over a `DiskRepository` on `RealVfs`.
//! Two client threads act as browser sessions in a closed loop: each
//! keeps one keep-alive connection per session, waits for every reply
//! and remembers ETags; as in `exp_capacity --serve`, every fifth click
//! comes from a first-time visitor whose browser sends no validator.
//! Targets follow `ServeMix` over a Zipf choice of URLs: the report,
//! history pages (some turned into view or memento clicks), diff pages,
//! and TimeGate negotiation followed by the redirect.

use crate::check::{self, Expect};
use crate::corpus;
use crate::http::{self, Response};
use crate::stats::{self, Metrics};
use crate::trace::{self, Span};
use crate::wrap::{self, OpSlots, TracedConn, TracedRepo};
use crate::{repeated_setup, Bench, DirGuard, OpTimer, Outcome, Phase, Scale, Settings, StoreEnd};
use aide::engine::AideEngine;
use aide_rcs::archive::Archive;
use aide_serve::{AideServer, ServeConfig};
use aide_simweb::net::Web;
use aide_simweb::wire::RequestParser;
use aide_snapshot::locks::LockStats;
use aide_store::DiskRepository;
use aide_util::checksum::fnv1a64;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::config::ThresholdConfig;
use aide_workloads::openloop::{
    serve_schedule, OpenLoopConfig, RequestMix, ServeArrival, ServeKind, ServeMix,
};
use aide_workloads::Rng;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

const CLIENTS: usize = 2;
const SERVER_THREADS: usize = 2;

struct Sizes {
    urls: usize,
    revisions: usize,
    users: usize,
    hotlist: usize,
    min_bytes: usize,
    max_bytes: usize,
    /// Clicks each browser makes in process during set-up.
    warmup_clicks: usize,
    samples: usize,
    /// Requests per browser session (one connection each); below the
    /// server's keep-alive bound.
    session_requests: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        // 256 archives fit the store's archive cache; the distinct
        // history/view/memento/diff pages are several times the render
        // cache (512) and the diff cache (256).
        Scale::Full => Sizes {
            urls: 256,
            revisions: 8,
            users: 8,
            hotlist: 24,
            min_bytes: 4096,
            max_bytes: 16384,
            warmup_clicks: 3000,
            samples: 200,
            session_requests: 60,
        },
        Scale::Small => Sizes {
            urls: 16,
            revisions: 4,
            users: 2,
            hotlist: 4,
            min_bytes: 2048,
            max_bytes: 4096,
            warmup_clicks: 100,
            samples: 20,
            session_requests: 10,
        },
    }
}

fn user(u: usize) -> String {
    format!("reader{u}@bench")
}

/// The running server and its accept pool.
struct Server {
    server: Arc<AideServer<TracedRepo>>,
    addr: SocketAddr,
    slots: Arc<OpSlots>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    fn start(server: Arc<AideServer<TracedRepo>>) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let slots: Arc<OpSlots> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for _ in 0..SERVER_THREADS {
            let listener = listener.try_clone().map_err(|e| format!("listener: {e}"))?;
            let (server, slots, stop) = (server.clone(), slots.clone(), stop.clone());
            threads.push(std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let _ = stream.set_nodelay(true);
                    server.handle_connection(&mut TracedConn::new(stream, slots.clone()));
                }
            }));
        }
        Ok(Server {
            server,
            addr,
            slots,
            stop,
            threads,
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // One connection per accept thread wakes it to see the flag.
        for _ in 0..self.threads.len() {
            let _ = TcpStream::connect(self.addr);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

struct State {
    server: Server,
    /// The ETag of every page a browser can click to: the browsers
    /// have visited each before.
    etags: HashMap<String, String>,
    engine: Arc<AideEngine<TracedRepo>>,
    repo: Arc<DiskRepository>,
    user_bytes: u64,
    recovery_s: f64,
    dir: DirGuard,
}

fn setup(s: &Settings, sz: &Sizes, dir: &Path) -> Result<State, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let guard = DirGuard(dir.to_path_buf());
    let repo = wrap::open_store(dir).map_err(|e| format!("open store: {e}"))?;
    // Each document's history as one archive; keep its head and size.
    let heads = crate::populate(&repo, sz.urls, |i| {
        let h = corpus::history(s.seed, i, sz.revisions, sz.min_bytes, sz.max_bytes);
        let url = corpus::url(i);
        let date = |r: usize| corpus::rev_date(i, r);
        let mut a = Archive::create(&url, &h[0], "gen", "rev 1", date(1));
        for (r, text) in h.iter().enumerate().skip(1) {
            a.checkin(text, "gen", "edit", date(r + 1))
                .map_err(|e| format!("{url}: {e}"))?;
        }
        let bytes: u64 = h.iter().map(|t| t.len() as u64).sum();
        let head = h.into_iter().last().expect("non-empty history");
        Ok((a, (head, bytes)))
    })?;
    let user_bytes = heads.iter().map(|(_, b)| b).sum();
    drop(repo);
    let t0 = Instant::now();
    let repo = wrap::open_store(dir).map_err(|e| format!("reopen store: {e}"))?;
    let recovery_s = t0.elapsed().as_secs_f64();

    let last = (0..sz.urls)
        .map(|i| corpus::rev_date(i, sz.revisions))
        .max()
        .unwrap_or(corpus::t0());
    let web = Web::new(Clock::starting_at(last + Duration::days(1)));
    for (i, (head, _)) in heads.iter().enumerate() {
        web.set_page(&corpus::url(i), head, corpus::rev_date(i, sz.revisions))
            .map_err(|e| format!("publish: {e}"))?;
    }
    let engine = Arc::new(AideEngine::with_repository(web, TracedRepo(repo.clone())));
    let mut rng = Rng::new(s.seed ^ 0x0B05_E000);
    for u in 0..sz.users {
        let browser = engine.register_user(&user(u), ThresholdConfig::table1());
        // A fixed number of distinct bookmarks, drawn Zipf-style.
        let mut marked = std::collections::BTreeSet::new();
        while marked.len() < sz.hotlist.min(sz.urls) {
            let i = rng.zipf(sz.urls);
            if marked.insert(i) {
                browser.add_bookmark(&format!("doc {i}"), &corpus::url(i));
            }
        }
    }
    let server = Arc::new(AideServer::with_config(
        engine.clone(),
        ServeConfig::default(),
    ));
    let etags = learn_etags(&server, sz)?;
    let st = State {
        server: Server::start(server)?,
        etags,
        engine,
        repo,
        user_bytes,
        recovery_s,
        dir: guard,
    };
    warm_up(&st, sz, s.seed ^ 0x3A7E)?;
    Ok(st)
}

/// Answers `request` in process with `AideServer::respond`, as the
/// bytes a connection would carry.
fn respond(server: &AideServer<TracedRepo>, request: &[u8]) -> Result<Response, String> {
    let mut parser = RequestParser::new();
    parser.push(request);
    let req = match parser.take_request() {
        Ok(Some(req)) => req,
        other => return Err(format!("request does not parse: {other:?}")),
    };
    let mut bytes = server.respond(&req).serialize(false);
    http::parse_response(&mut bytes)
        .map_err(|e| format!("response does not parse: {e}"))?
        .ok_or_else(|| "truncated response".to_string())
}

/// The ETag of every page target [`Targets`] can produce, learned in
/// process with `If-None-Match: *`, which the server answers with 304
/// and the tag before rendering anything. Browsers that start with these
/// tags are in the steady state that `exp_capacity`'s remembering client
/// approaches: every page was visited before, so repeat visitors get 304
/// and only first-time visitors make the server render.
fn learn_etags(
    server: &AideServer<TracedRepo>,
    sz: &Sizes,
) -> Result<HashMap<String, String>, String> {
    let mut etags = HashMap::new();
    for i in 0..sz.urls {
        let url = corpus::url(i);
        let mut paths: Vec<String> = (0..sz.users)
            .map(|u| format!("/history?url={url}&user={}", user(u)))
            .collect();
        for rev in 1..=sz.revisions {
            paths.push(format!("/view?url={url}&rev=1.{rev}"));
            paths.push(format!(
                "/memento/{}/{url}",
                corpus::rev_date(i, rev).to_rcs_date()
            ));
            for span in [1, 2].into_iter().filter(|&d| d < rev) {
                paths.push(format!("/diff?url={url}&from=1.{}&to=1.{rev}", rev - span));
            }
        }
        for path in paths {
            let resp = respond(server, &http::get(&path, &[("If-None-Match", "*")]))?;
            match resp.header("etag").filter(|_| resp.status == 304) {
                Some(tag) => etags.insert(path, tag.trim_matches('"').to_string()),
                None => return Err(format!("{path}: no 304 with an ETag for If-None-Match: *")),
            };
        }
    }
    Ok(etags)
}

/// Cache warm-up: every user's report once (the tracker's own cache),
/// then each browser's stretch of the request mix, which fills the
/// render and diff caches. It runs in process, answered by
/// `AideServer::respond`, so set-up time does not depend on loopback
/// hand-offs.
fn warm_up(st: &State, sz: &Sizes, seed: u64) -> Result<(), String> {
    for k in 0..CLIENTS {
        let mut c = Client::new(st, sz, seed ^ (k as u64 + 1), 0, Mode::InProcess);
        if k == 0 {
            for u in 0..sz.users {
                let target = Target {
                    path: format!("/report?user={}", user(u)),
                    kind: Kind::Report,
                    accept: None,
                };
                c.run(&target, true)?;
            }
        }
        for _ in 0..sz.warmup_clicks {
            let (target, fresh) = c.next_click();
            c.run(&target, fresh).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Report,
    Page,
    TimeGate,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Target {
    path: String,
    kind: Kind,
    /// `Accept-Datetime` for a TimeGate negotiation.
    accept: Option<String>,
}

/// One browser's request stream: `ServeMix` arrivals over a Zipf choice
/// of documents, turned into targets. A pure function of the seed.
struct Targets {
    rng: Rng,
    schedule: Vec<ServeArrival>,
    pos: usize,
    revisions: usize,
}

impl Targets {
    fn new(sz: &Sizes, seed: u64) -> Targets {
        let cfg = OpenLoopConfig {
            seed,
            requests: 50_000,
            rate_per_sec: 1_000,
            urls: sz.urls,
            users: sz.users,
            mix: RequestMix::default(),
        };
        Targets {
            rng: Rng::new(seed).fork(0xC1),
            schedule: serve_schedule(&cfg, ServeMix::default()),
            pos: 0,
            revisions: sz.revisions,
        }
    }

    fn next(&mut self) -> Target {
        let a = self.schedule[self.pos % self.schedule.len()];
        self.pos += 1;
        let url = corpus::url(a.url);
        let revs = self.revisions;
        let (path, kind) = match a.kind {
            ServeKind::Report => (format!("/report?user={}", user(a.user)), Kind::Report),
            ServeKind::History => {
                // Half the history clicks land on the history page, the
                // rest on one of the revisions it links to.
                let rev = 1 + self.rng.index(revs);
                let path = match self.rng.below(4) {
                    0 | 1 => format!("/history?url={url}&user={}", user(a.user)),
                    2 => format!("/view?url={url}&rev=1.{rev}"),
                    _ => format!(
                        "/memento/{}/{url}",
                        corpus::rev_date(a.url, rev).to_rcs_date()
                    ),
                };
                (path, Kind::Page)
            }
            ServeKind::DiffPage => {
                // `exp_capacity`'s rule: two diff clicks in three compare
                // adjacent revisions, the third spans two.
                let span = if (a.url + a.user) % 3 == 2 { 2 } else { 1 };
                let to = 1 + span + self.rng.index(revs - span);
                (
                    format!("/diff?url={url}&from=1.{}&to=1.{to}", to - span),
                    Kind::Page,
                )
            }
            ServeKind::TimeGate => (format!("/timegate/{url}"), Kind::TimeGate),
        };
        // A negotiation date inside the document's archived lifetime.
        let accept = (kind == Kind::TimeGate).then(|| {
            let lo = corpus::rev_date(a.url, 1).0;
            let hi = corpus::rev_date(a.url, revs).0 + 86_400;
            Timestamp(lo + self.rng.below(hi - lo)).to_http_date()
        });
        Target { path, kind, accept }
    }
}

/// The first `n` targets (as `path` plus any `Accept-Datetime`) of the
/// full-size request stream for `seed`.
pub fn request_stream(seed: u64, n: usize) -> Vec<String> {
    let mut t = Targets::new(&sizes(Scale::Full), seed);
    (0..n)
        .map(|_| {
            let x = t.next();
            format!("{} {}", x.path, x.accept.unwrap_or_default())
        })
        .collect()
}

/// A request and the body that came back for it over TCP.
struct Sample {
    request: Vec<u8>,
    target: String,
    status: u16,
    body: Vec<u8>,
}

/// One browser: a session connection, its ETag cache, and its request
/// stream.
struct Client<'a> {
    st: &'a State,
    sz: &'a Sizes,
    mode: Mode,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    slot: Arc<AtomicU64>,
    left: usize,
    etags: HashMap<String, String>,
    targets: Targets,
    seed: u64,
    ops: u64,
    samples: Vec<Sample>,
    sample_quota: usize,
}

/// How a browser reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Keep-alive sessions over loopback TCP.
    Tcp,
    /// `AideServer::respond`, in process.
    InProcess,
}

impl<'a> Client<'a> {
    fn new(st: &'a State, sz: &'a Sizes, seed: u64, sample_quota: usize, mode: Mode) -> Client<'a> {
        Client {
            st,
            sz,
            mode,
            stream: None,
            buf: Vec::new(),
            slot: Arc::new(AtomicU64::new(0)),
            left: 0,
            etags: st.etags.clone(),
            targets: Targets::new(sz, seed),
            seed,
            ops: 0,
            samples: Vec::new(),
            sample_quota,
        }
    }

    /// Starts a new session (connection) when the current one cannot
    /// take a whole op (at most two requests).
    fn ensure_session(&mut self) -> Result<(), String> {
        if self.mode == Mode::InProcess || (self.stream.is_some() && self.left >= 2) {
            return Ok(());
        }
        if let Some(old) = self.stream.take() {
            if let Ok(a) = old.local_addr() {
                self.slots().lock().expect("slots").remove(&a.port());
            }
        }
        let stream =
            TcpStream::connect(self.st.server.addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        let port = stream
            .local_addr()
            .map_err(|e| format!("addr: {e}"))?
            .port();
        self.slots()
            .lock()
            .expect("slots")
            .insert(port, self.slot.clone());
        self.stream = Some(stream);
        self.buf.clear();
        self.left = self.sz.session_requests;
        Ok(())
    }

    fn slots(&self) -> &OpSlots {
        &self.st.server.slots
    }

    /// The next click: its target, and whether it comes from a
    /// first-time visitor (every fifth click, as in `exp_capacity`).
    fn next_click(&mut self) -> (Target, bool) {
        let fresh = self.ops.is_multiple_of(5);
        self.ops += 1;
        (self.targets.next(), fresh)
    }

    /// One request on the session connection.
    fn request(&mut self, bytes: &[u8]) -> Result<Response, String> {
        if self.mode == Mode::InProcess {
            return respond(&self.st.server.server, bytes);
        }
        let stream = self.stream.as_mut().ok_or("no session")?;
        let send = trace::open("wire.send");
        std::io::Write::write_all(stream, bytes).map_err(|e| format!("send: {e}"))?;
        if let Some(span) = send {
            trace::close(span);
        }
        let mut recv = None;
        let resp = http::read_response(stream, &mut self.buf, &mut || {
            recv = trace::open("wire.recv");
        })
        .map_err(|e| format!("receive: {e}"));
        if let Some(span) = recv {
            trace::close(span);
        }
        self.left = self.left.saturating_sub(1);
        let resp = resp?;
        if resp.closes() {
            self.stream = None;
            self.left = 0;
        }
        Ok(resp)
    }

    /// A GET of a cacheable page, checked; conditional on the
    /// remembered ETag unless the visitor is `fresh`.
    fn get_page(&mut self, path: &str, fresh: bool) -> Result<(Vec<u8>, Response), String> {
        let sent = if fresh {
            None
        } else {
            self.etags.get(path).cloned()
        };
        let inm = sent.as_ref().map(|t| format!("\"{t}\""));
        let extra: Vec<(&str, &str)> = inm.iter().map(|v| ("If-None-Match", v.as_str())).collect();
        let req = http::get(path, &extra);
        let resp = self.request(&req)?;
        let expect = match sent {
            Some(tag) => Expect::NotModified(tag),
            None => Expect::Page,
        };
        check::check_response(&expect, &resp).map_err(|e| format!("{path}: {e}"))?;
        if let Some(tag) = resp.header("etag") {
            self.etags
                .insert(path.to_string(), tag.trim_matches('"').to_string());
        }
        Ok((req, resp))
    }

    /// Runs one target to completion (a TimeGate op follows its
    /// redirect); returns the last request and its response.
    fn run(&mut self, t: &Target, fresh: bool) -> Result<(Vec<u8>, Response), String> {
        match t.kind {
            Kind::Report => {
                let req = http::get(&t.path, &[]);
                let resp = self.request(&req)?;
                check::check_response(&Expect::Uncached, &resp)
                    .map_err(|e| format!("{}: {e}", t.path))?;
                Ok((req, resp))
            }
            Kind::Page => self.get_page(&t.path, fresh),
            Kind::TimeGate => {
                let when = t.accept.as_deref().unwrap_or_default();
                let req = http::get(&t.path, &[("Accept-Datetime", when)]);
                let resp = self.request(&req)?;
                check::check_response(&Expect::Redirect, &resp)
                    .map_err(|e| format!("{}: {e}", t.path))?;
                let location = resp.header("location").unwrap_or_default().to_string();
                if self.mode == Mode::Tcp && self.stream.is_none() {
                    return Err(format!("{}: connection closed mid-op", t.path));
                }
                self.get_page(&location, fresh)
            }
        }
    }

    /// One measured op.
    fn op(&mut self, timer: &mut OpTimer) -> Result<(), String> {
        self.ensure_session()?;
        let (target, fresh) = self.next_click();
        self.slot.store(timer.id, Ordering::Release);
        let sample = self.samples.len() < self.sample_quota
            && fnv1a64(format!("{}:{}", self.seed, self.ops).as_bytes()).is_multiple_of(8);
        timer.start();
        let out = self.run(&target, fresh);
        timer.stop();
        let (request, resp) = out?;
        if sample {
            self.samples.push(Sample {
                request,
                target: target.path,
                status: resp.status,
                body: resp.body,
            });
        }
        Ok(())
    }
}

/// Counters read around a phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    requests: u64,
    not_modified: u64,
    bytes_out: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    htmldiff: u64,
    dc_hits: u64,
    dc_misses: u64,
    locks: LockStats,
}

fn counters(st: &State) -> Counters {
    let srv = &st.server.server;
    let cache = srv.cache_stats();
    let svc = st.engine.snapshot();
    let dc = svc.diff_cache_stats();
    Counters {
        requests: srv.stats().requests(),
        not_modified: srv.stats().not_modified(),
        bytes_out: srv.stats().bytes_out(),
        hits: cache.hits(),
        misses: cache.misses(),
        evictions: cache.evictions(),
        htmldiff: svc.snapshot_stats().htmldiff_invocations,
        dc_hits: dc.hits,
        dc_misses: dc.misses,
        locks: svc.locks().stats(),
    }
}

/// The workload's state between phases.
struct Browsing {
    st: State,
    sz: Sizes,
    seed: u64,
    /// Bodies sampled over TCP, for the check against `respond`.
    samples: Vec<Sample>,
}

impl Bench for Browsing {
    type Counters = Counters;

    /// One phase of both browsers, each on fresh sessions.
    fn measure(&mut self, seconds: f64, first_id: u64) -> Phase {
        let (st, sz) = (&self.st, &self.sz);
        let clients: Vec<Mutex<Client>> = (0..CLIENTS)
            .map(|t| {
                Mutex::new(Client::new(
                    st,
                    sz,
                    self.seed ^ first_id.wrapping_mul(31) ^ (t as u64 + 1),
                    sz.samples / CLIENTS,
                    Mode::Tcp,
                ))
            })
            .collect();
        let phase = crate::closed_loop(CLIENTS, seconds, first_id, |t, timer| {
            clients[t].lock().expect("client").op(timer)
        });
        for c in clients {
            self.samples.extend(c.into_inner().expect("client").samples);
        }
        phase
    }

    fn counters(&self) -> Counters {
        counters(&self.st)
    }

    fn layer_metrics(&self, c0: &Counters, c1: &Counters, ops: u64, _: &[Span], m: &mut Metrics) {
        let req = (c1.requests - c0.requests) as f64;
        m.set(
            "serve.not_modified_ratio",
            stats::ratio((c1.not_modified - c0.not_modified) as f64, req),
            "ratio",
        );
        let (hits, misses) = (c1.hits - c0.hits, c1.misses - c0.misses);
        m.set(
            "serve.render_hit_ratio",
            stats::ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        );
        m.set(
            "serve.render_evictions_per_kreq",
            stats::ratio((c1.evictions - c0.evictions) as f64 * 1000.0, req),
            "count",
        );
        m.set(
            "serve.bytes_out_per_req",
            stats::ratio((c1.bytes_out - c0.bytes_out) as f64, req),
            "B",
        );
        let (dh, dm) = (c1.dc_hits - c0.dc_hits, c1.dc_misses - c0.dc_misses);
        m.set(
            "snapshot.diffcache_hit_ratio",
            stats::ratio(dh as f64, (dh + dm) as f64),
            "ratio",
        );
        m.set(
            "snapshot.htmldiff_per_op",
            stats::ratio((c1.htmldiff - c0.htmldiff) as f64, ops as f64),
            "count",
        );
        crate::lock_metrics(m, &c0.locks, &c1.locks);
    }
}

/// Replays each sampled request through `AideServer::respond` in
/// process and compares bodies with what came over TCP.
fn check_samples(st: &State, samples: &[Sample], out: &mut Outcome) {
    for smp in samples {
        match respond(&st.server.server, &smp.request) {
            Err(e) => out.fail(format!("{}: sampled {e}", smp.target)),
            Ok(direct) if direct.status != smp.status => out.fail(format!(
                "{}: status {} over TCP, {} from respond()",
                smp.target, smp.status, direct.status
            )),
            Ok(direct) => {
                if let Err(e) = check::check_same_body(&smp.target, &smp.body, &direct.body) {
                    out.fail(e);
                }
            }
        }
    }
}

/// Runs the workload. Traced, it installs no observability registry:
/// with one installed the report page appends its dump, which would
/// change the bodies served. The diffcore fallback counts come from
/// `archive`.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let sz = sizes(s.scale);
    let mut out = Outcome::default();
    let setups = if s.trace { 1 } else { 3 };
    let (st, setup_s) = repeated_setup(setups, |k| {
        setup(s, &sz, &s.work_dir.join(format!("browse-{k}")))
    })?;
    let depth_start = crate::chain_depth(&st.repo);
    let mut bench = Browsing {
        st,
        sz,
        seed: s.seed,
        samples: Vec::new(),
    };
    crate::drive(s, &mut bench, setup_s, &mut out);
    let Browsing {
        st, sz, samples, ..
    } = bench;
    if s.trace {
        calibrate(&st, &sz, s, &mut out)?;
    }
    check_samples(&st, &samples, &mut out);
    out.notes.push(format!(
        "checked {} TCP bodies against respond()",
        samples.len()
    ));
    StoreEnd {
        repo: &st.repo,
        dir: &st.dir.0,
        user_bytes: st.user_bytes,
        recovery_s: st.recovery_s,
        depth_start,
    }
    .report(s.trace, &mut out);
    Ok(out)
}

/// Model side-by-side: one client issues requests one at a time, so
/// counter deltas classify each request exactly (304, render-cache hit,
/// render miss without HtmlDiff, render miss with HtmlDiff); the spans
/// give the server time of each and the client time outside it.
fn calibrate(st: &State, sz: &Sizes, s: &Settings, out: &mut Outcome) -> Result<(), String> {
    let mut client = Client::new(st, sz, s.seed ^ 0xCA11, 0, Mode::Tcp);
    let mut classes: HashMap<u64, &'static str> = HashMap::new();
    let first = 1u64 << 41;
    let ops = match s.scale {
        Scale::Full => 3000,
        Scale::Small => 100,
    };
    trace::set_enabled(true);
    for k in 0..ops {
        client.ensure_session()?;
        let (target, fresh) = client.next_click();
        if target.kind == Kind::TimeGate {
            continue;
        }
        let mut timer = OpTimer::new(first + k);
        client.slot.store(timer.id, Ordering::Release);
        let c0 = counters(st);
        timer.start();
        let res = client.run(&target, fresh);
        timer.stop();
        if let Err(e) = res {
            out.fail(e);
            continue;
        }
        let c1 = counters(st);
        let class = if c1.not_modified > c0.not_modified {
            "304"
        } else if c1.hits > c0.hits {
            "render hit"
        } else if c1.misses > c0.misses && c1.htmldiff > c0.htmldiff {
            "render miss + htmldiff"
        } else if c1.misses > c0.misses {
            "render miss"
        } else {
            "uncached"
        };
        classes.insert(timer.id, class);
    }
    trace::set_enabled(false);
    let spans = trace::take_all();
    let mut process: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut outside = Vec::new();
    let mut serve_by_op: HashMap<u64, u64> = HashMap::new();
    for sp in spans.iter().filter(|x| x.name == "serve.process") {
        *serve_by_op.entry(sp.op).or_default() += sp.dur_ns();
    }
    for root in spans.iter().filter(|x| x.name == "op") {
        let (Some(class), Some(&srv)) = (classes.get(&root.op), serve_by_op.get(&root.op)) else {
            continue;
        };
        process.entry(class).or_default().push(srv as f64 / 1e3);
        outside.push(root.dur_ns().saturating_sub(srv) as f64 / 1e3);
    }
    let p50 = |v: Option<&Vec<f64>>| v.map_or(0.0, |v| stats::median(v));
    let n = |v: Option<&Vec<f64>>| v.map_or(0, Vec::len);
    let hit = process.get("render hit");
    let miss = process.get("render miss");
    let cold = process.get("render miss + htmldiff");
    out.notes.push(format!(
        "model vs measured: render hit 25us vs serve.process p50 {:.0}us (n={})",
        p50(hit),
        n(hit)
    ));
    out.notes.push(format!(
        "model vs measured: render miss 150us vs serve.process p50 {:.0}us (n={})",
        p50(miss),
        n(miss)
    ));
    out.notes.push(format!(
        "model vs measured: cold diff 600us vs (miss with HtmlDiff − miss) p50 {:.0}us (n={})",
        p50(cold) - p50(miss),
        n(cold)
    ));
    out.notes.push(format!(
        "model vs measured: exchange 40us vs client time outside the server p50 {:.0}us (n={})",
        stats::median(&outside),
        outside.len()
    ));
    let nm = process.get("304");
    out.notes.push(format!(
        "measured: 304 serve.process p50 {:.0}us (n={})",
        p50(nm),
        n(nm)
    ));
    Ok(())
}
