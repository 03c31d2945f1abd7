//! `sweep`: the nightly w3newer sweep (§3), on the CPU only.
//!
//! Per-user `W3Newer` trackers run over a `workloads::sites::population`
//! web behind one shared `ProxyCache` — the shape of
//! `AideEngine::poll_all_users`, driven directly because the engine has
//! no hook to choose a schedule policy. Half the users keep the Table 1
//! thresholds; the other half use `SchedulePolicy::Adaptive` with one
//! shared `AdaptiveScheduler`. Hotlists overlap Zipf-style.
//!
//! One op is one user's tracker run plus `render_report` (the Figure 1
//! HTML). A round runs every user once on two threads; between rounds
//! (untimed, outside the measured phase) users visit the pages
//! reported changed, through the proxy, then the virtual clock advances
//! a day and the pages evolve.

use crate::check;
use crate::stats::{self, Metrics};
use crate::trace::{self, Span};
use crate::{repeated_setup, Bench, OpTimer, Outcome, Phase, Scale, Settings};
use aide_sched::{AdaptiveScheduler, PriorRules, SchedulerConfig};
use aide_simweb::browser::Bookmark;
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_w3newer::checker::{CheckSource, RunReport, UrlStatus};
use aide_w3newer::report::{render_report, ReportOptions};
use aide_w3newer::{SchedulePolicy, ThresholdConfig, W3Newer};
use aide_workloads::evolve::EvolvingPage;
use aide_workloads::sites::{population, PopulationConfig};
use aide_workloads::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const THREADS: usize = 2;

struct Sizes {
    pop: PopulationConfig,
    users: usize,
    /// Hotlist length of every user.
    hotlist: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            pop: PopulationConfig {
                urls: 2000,
                hosts: 100,
                ..PopulationConfig::default()
            },
            users: 256,
            hotlist: 50,
        },
        Scale::Small => Sizes {
            pop: PopulationConfig {
                urls: 60,
                hosts: 6,
                typical_bytes: 2000,
                churners: 1,
                churner_bytes: 8000,
            },
            users: 4,
            hotlist: 12,
        },
    }
}

struct User {
    name: String,
    adaptive: bool,
    tracker: W3Newer,
    hotlist: Vec<Bookmark>,
    /// When the user last saw each hotlist URL, and in which round.
    seen: HashMap<String, (Timestamp, u32)>,
    /// The last run's report, kept for the visit step.
    last: Option<RunReport>,
}

struct State {
    web: Web,
    proxy: ProxyCache,
    pages: Vec<EvolvingPage>,
    index: HashMap<String, usize>,
    /// Round in which the generator last changed each page.
    last_touch: Vec<u32>,
    users: Vec<Mutex<User>>,
    round: u32,
    /// Verdicts of every run so far.
    verdicts: Verdicts,
    /// Network requests the trackers have issued so far.
    requests: u64,
}

/// Verdict counts gathered from the reports of a phase.
#[derive(Debug, Default, Clone, Copy)]
struct Verdicts {
    entries: [u64; 2],
    network_checked: [u64; 2],
    fresh_changes: u64,
}

fn setup(s: &Settings, sz: &Sizes) -> Result<State, String> {
    let web = Web::new(Clock::starting_at(Timestamp::from_ymd_hms(
        1995, 9, 1, 0, 0, 0,
    )));
    let pages = population(&web, s.seed, &sz.pop);
    let index: HashMap<String, usize> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| (p.url.clone(), i))
        .collect();
    let proxy = ProxyCache::new(web.clone(), Duration::days(1));
    let sched = Arc::new(AdaptiveScheduler::new(
        SchedulerConfig::default(),
        PriorRules::default(),
    ));
    let mut rng = Rng::new(s.seed ^ 0x5EE9);
    let now = web.clock().now();
    let users = (0..sz.users)
        .map(|u| {
            let adaptive = u % 2 == 1;
            let mut tracker = W3Newer::new(ThresholdConfig::table1());
            if adaptive {
                tracker.schedule = SchedulePolicy::Adaptive(sched.clone());
            }
            let mut hotlist: Vec<Bookmark> = Vec::new();
            let mut seen = HashMap::new();
            let want = sz.hotlist.min(pages.len());
            while hotlist.len() < want {
                let p = &pages[rng.zipf(pages.len())];
                if seen.insert(p.url.clone(), (now, 0)).is_none() {
                    hotlist.push(Bookmark {
                        title: p.page.title.clone(),
                        url: p.url.clone(),
                    });
                }
            }
            Mutex::new(User {
                name: format!("user{u}@bench"),
                adaptive,
                tracker,
                hotlist,
                seen,
                last: None,
            })
        })
        .collect();
    let mut st = State {
        last_touch: vec![0; pages.len()],
        web,
        proxy,
        pages,
        index,
        users,
        round: 0,
        verdicts: Verdicts::default(),
        requests: 0,
    };
    // Warm-up: one untimed round fills the trackers' caches, the proxy
    // and the scheduler's estimates.
    if let Some(e) = round(&mut st, 0).errors.first() {
        return Err(format!("warm-up round: {e}"));
    }
    Ok(st)
}

/// One user's op: the tracker run and the report, then the checks.
fn user_op(st: &State, u: usize, timer: &mut OpTimer, v: &Mutex<Verdicts>) -> Result<(), String> {
    let mut guard = st.users[u].lock().expect("user");
    let User {
        name,
        adaptive,
        tracker,
        hotlist,
        seen,
        last,
    } = &mut *guard;
    let visited = |url: &str| seen.get(url).map(|(t, _)| *t);
    timer.start();
    let report = trace::scoped(
        "w3newer.run",
        |_| 0,
        || tracker.run_pooled(hotlist, &visited, &st.web, Some(&st.proxy), 1),
    );
    let html = trace::scoped(
        "w3newer.report",
        |h: &String| h.len() as u64,
        || render_report(&report, &ReportOptions::default()),
    );
    timer.stop();

    if report.entries.len() != hotlist.len() || report.aborted || !html.contains("What's New") {
        return Err(format!("{name}: incomplete report"));
    }
    let mut counts = Verdicts::default();
    let a = usize::from(*adaptive);
    for e in &report.entries {
        counts.entries[a] += 1;
        match &e.status {
            UrlStatus::Changed { source, .. } => {
                let i = st.index[&e.url];
                let seen_round = seen.get(&e.url).map_or(0, |(_, r)| *r);
                check::check_changed(name, &e.url, st.last_touch[i], seen_round)?;
                if *source != CheckSource::Cache {
                    counts.network_checked[a] += 1;
                    counts.fresh_changes += 1;
                }
            }
            UrlStatus::Unchanged { source } if *source != CheckSource::Cache => {
                counts.network_checked[a] += 1;
            }
            UrlStatus::Error { message } | UrlStatus::Degraded { message, .. } => {
                return Err(format!("{name}: {}: {message}", e.url));
            }
            _ => {}
        }
    }
    *last = Some(report);
    let mut v = v.lock().expect("verdicts");
    for k in 0..2 {
        v.entries[k] += counts.entries[k];
        v.network_checked[k] += counts.network_checked[k];
    }
    v.fresh_changes += counts.fresh_changes;
    Ok(())
}

/// Runs one round: the timed ops on two threads, then the
/// untimed visits, clock advance and page evolution.
fn round(st: &mut State, first_id: u64) -> Phase {
    let users = st.users.len() as u64;
    let next = AtomicU64::new(first_id);
    let requests0 = st.web.stats().requests;
    let v = Mutex::new(st.verdicts);
    let clock = crate::PhaseClock::start();
    let shared: &State = st;
    let ops = crate::run_ops(
        THREADS,
        || {
            let id = next.fetch_add(1, Ordering::Relaxed);
            (id < first_id + users).then_some(id)
        },
        |_, timer| user_op(shared, (timer.id - first_id) as usize, timer, &v),
    );
    let phase = clock.finish(ops);
    st.verdicts = v.into_inner().expect("verdicts");
    st.requests += st.web.stats().requests - requests0;

    // The users read their reports: every page reported changed is
    // visited through the proxy and counts as seen this round.
    let now = st.web.clock().now();
    for user in &st.users {
        let mut user = user.lock().expect("user");
        let changed: Vec<String> = user
            .last
            .take()
            .map(|r| {
                r.entries
                    .into_iter()
                    .filter(|e| e.status.is_changed())
                    .map(|e| e.url)
                    .collect()
            })
            .unwrap_or_default();
        for url in changed {
            let _ = st.proxy.get(&url);
            user.seen.insert(url, (now, st.round));
        }
    }
    // Night passes; the generator evolves the pages.
    st.round += 1;
    st.web.clock().advance(Duration::days(1));
    for (i, p) in st.pages.iter_mut().enumerate() {
        if p.tick(&st.web) > 0 {
            st.last_touch[i] = st.round;
        }
    }
    phase
}

/// The workload's state between phases.
struct Sweeping(State);

/// Counters read around the traced phase.
struct Counters {
    verdicts: Verdicts,
    requests: u64,
    proxy_hits: u64,
    proxy_misses: u64,
}

impl Bench for Sweeping {
    type Counters = Counters;

    /// Runs rounds until `seconds` elapse; the phase is their timed
    /// parts.
    fn measure(&mut self, seconds: f64, first_id: u64) -> Phase {
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let mut phase = Phase::default();
        let mut id = first_id;
        while Instant::now() < deadline {
            phase = phase.then(round(&mut self.0, id));
            id += self.0.users.len() as u64;
        }
        phase
    }

    fn counters(&self) -> Counters {
        let proxy = self.0.proxy.stats();
        Counters {
            verdicts: self.0.verdicts,
            requests: self.0.requests,
            proxy_hits: proxy.hits,
            proxy_misses: proxy.misses,
        }
    }

    fn layer_metrics(&self, c0: &Counters, c1: &Counters, ops: u64, _: &[Span], m: &mut Metrics) {
        let f = |x: u64| x as f64;
        let (v0, v1) = (&c0.verdicts, &c1.verdicts);
        let checked = |k: usize| {
            stats::ratio(
                f(v1.network_checked[k] - v0.network_checked[k]),
                f(v1.entries[k] - v0.entries[k]),
            )
        };
        m.set("w3newer.checked_ratio.threshold", checked(0), "ratio");
        m.set("w3newer.checked_ratio.adaptive", checked(1), "ratio");
        let requests = f(c1.requests - c0.requests);
        m.set(
            "w3newer.changed_per_request",
            stats::ratio(f(v1.fresh_changes - v0.fresh_changes), requests),
            "ratio",
        );
        m.set(
            "simweb.requests_per_run",
            stats::ratio(requests, f(ops)),
            "count",
        );
        let (hits, misses) = (
            c1.proxy_hits - c0.proxy_hits,
            c1.proxy_misses - c0.proxy_misses,
        );
        m.set(
            "simweb.proxy_hit_ratio",
            stats::ratio(f(hits), f(hits + misses)),
            "ratio",
        );
    }
}

/// Runs the workload.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let sz = sizes(s.scale);
    let mut out = Outcome::default();
    let setups = if s.trace { 1 } else { 3 };
    let (st, setup_s) = repeated_setup(setups, |_| setup(s, &sz))?;
    crate::drive(s, &mut Sweeping(st), setup_s, &mut out);
    Ok(out)
}
