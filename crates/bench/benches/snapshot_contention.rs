//! Criterion bench: snapshot-service lock contention (§4.2).
//!
//! The same fixed workload — remembers of distinct URLs, then cached
//! diff renderings of distinct URLs — executed by 1, 4 and 8 worker
//! threads against one shared service, in two configurations:
//!
//! - `serial`: every operation first takes one global mutex, emulating
//!   the pre-refactor repository-wide `Mutex<R>` choke point;
//! - `sharded`: the service as it stands — per-URL locks over sharded
//!   repository / cache / control maps, so distinct-URL operations share
//!   no exclusive lock.
//!
//! On a multi-core host the sharded rows scale with the worker count
//! while the serial rows flatline. On a single-core host neither can
//! speed up in wall-clock terms; the comparison then shows the sharded
//! path costing no more than the coarse lock it replaced.
//!
//! The worker threads start once per benchmark, before timing, and a
//! barrier releases them for each iteration (see [`iter_on_workers`]),
//! so the multi-thread rows time the work rather than thread start-up.

use aide_htmldiff::Options as DiffOptions;
use aide_rcs::archive::RevId;
use aide_rcs::repo::MemRepository;
use aide_snapshot::service::{SnapshotService, UserId};
use aide_util::sync::{Mutex, RwLock};
use aide_util::time::{Clock, Duration, Timestamp};
use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const URLS: usize = 48;
const REVS: usize = 5;

fn fresh_service() -> SnapshotService<MemRepository> {
    SnapshotService::new(
        MemRepository::new(),
        Clock::starting_at(Timestamp(1_000_000)),
        1024,
        Duration::hours(8),
    )
}

fn url(u: usize) -> String {
    format!("http://bench/doc{u}.html")
}

fn body(u: usize, r: usize) -> String {
    format!(
        "<HTML><HEAD><TITLE>doc {u}</TITLE></HEAD><BODY><H1>Document {u}</H1>\
         <P>revision {r} paragraph one with some sentence text to diff against.\
         <P>revision {r} paragraph two, more filler prose for the check-in delta.\
         </BODY></HTML>"
    )
}

/// Times `work` on `threads` worker threads. The workers start once,
/// before timing; each iteration builds its input with `prepare` on the
/// timing thread, releases every worker through a barrier to run
/// `work(&input, t)`, and waits at a second barrier for all of them to
/// finish; `finish` then consumes the input.
fn iter_on_workers<S: Send + Sync>(
    b: &mut Bencher,
    threads: usize,
    mut prepare: impl FnMut() -> S,
    work: impl Fn(&S, usize) + Sync,
    finish: impl Fn(S) -> usize,
) {
    let input: RwLock<Option<S>> = RwLock::new(None);
    let start = Barrier::new(threads + 1);
    let done = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (input, start, done, stop, work) = (&input, &start, &done, &stop, &work);
            scope.spawn(move || loop {
                start.wait();
                if stop.load(Ordering::Acquire) {
                    break;
                }
                // Shared guards: the workers never serialize on the
                // input, and the timing thread writes it only while they
                // wait at a barrier.
                if let Some(shared) = input.read().as_ref() {
                    work(shared, t);
                }
                done.wait();
            });
        }
        b.iter(|| {
            *input.write() = Some(prepare());
            start.wait();
            done.wait();
            let taken = input.write().take();
            taken.map(&finish)
        });
        stop.store(true, Ordering::Release);
        start.wait();
    });
}

/// One worker's share of `URLS * REVS` remembers against `service`:
/// the URLs `t, t + threads, ...`. With `global: Some(..)` every
/// operation first funnels through that one mutex — the pre-refactor
/// serial design; with `None`, only the service's own per-URL locks
/// apply.
fn remember_share(
    service: &SnapshotService<MemRepository>,
    t: usize,
    threads: usize,
    global: Option<&Mutex<()>>,
) {
    let user = UserId::new(&format!("bench{t}@x"));
    let mut u = t;
    while u < URLS {
        for r in 0..REVS {
            let _serial = global.map(|m| m.lock());
            service.remember(&user, &url(u), &body(u, r)).unwrap();
        }
        u += threads;
    }
}

fn bench_remember_scaling(c: &mut Criterion) {
    let choke = Mutex::new(());
    for (label, global) in [("serial", Some(&choke)), ("sharded", None)] {
        let mut group = c.benchmark_group(format!("snapshot_remember_{label}"));
        group.throughput(Throughput::Elements((URLS * REVS) as u64));
        for threads in [1usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::from_parameter(threads),
                &threads,
                |b, &threads| {
                    iter_on_workers(
                        b,
                        threads,
                        fresh_service,
                        |service, t| remember_share(service, t, threads, global),
                        |service| service.snapshot_stats().remembers as usize,
                    );
                },
            );
        }
        group.finish();
    }
}

fn bench_diff_cache_scaling(c: &mut Criterion) {
    // Seed two revisions of every URL; the first measured pass renders
    // each diff once, every later pass exercises the sharded cache's
    // concurrent read path.
    let service = fresh_service();
    let seeder = UserId::new("seed@x");
    for u in 0..URLS {
        for r in 0..2 {
            service.remember(&seeder, &url(u), &body(u, r)).unwrap();
        }
    }
    let mut group = c.benchmark_group("snapshot_diff_cached_distinct_urls");
    group.throughput(Throughput::Elements(URLS as u64));
    for threads in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                iter_on_workers(
                    b,
                    threads,
                    || &service,
                    |service, t| {
                        let mut u = t;
                        while u < URLS {
                            black_box(
                                service
                                    .diff_versions(
                                        &url(u),
                                        RevId(1),
                                        RevId(2),
                                        &DiffOptions::default(),
                                    )
                                    .unwrap()
                                    .html
                                    .len(),
                            );
                            u += threads;
                        }
                    },
                    |_| 0,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_remember_scaling, bench_diff_cache_scaling);
criterion_main!(benches);
