//! §3.1 junk-mail experiment: the semantic noisy-change filter.
//!
//! "Pages that report the number of times they have been accessed, or
//! embed the current time, will look different every time they are
//! retrieved", so checksum-based tracking "can lead to the generation of
//! 'junk mail'". The paper leaves the fix as future work ("heuristics to
//! examine the differences at a semantic level"); this repository
//! implements it (`aide::junk`) and this experiment measures it: 30
//! days of daily polling over a mixed population of honest pages and
//! noisy CGI pages, counting change notifications with and without the
//! filter, plus the filter's false-positive/negative rates against
//! ground truth.

use aide::junk::classify;
use aide_simweb::http::Request;
use aide_simweb::net::Web;
use aide_simweb::resource::Resource;
use aide_util::time::{Clock, Duration, Timestamp};
use aide_workloads::edits::EditModel;
use aide_workloads::evolve::EvolvingPage;
use aide_workloads::page::Page;
use aide_workloads::rng::Rng;

fn main() {
    let clock = Clock::starting_at(Timestamp::from_ymd_hms(1995, 10, 1, 6, 0, 0));
    let web = Web::new(clock.clone());
    let mut rng = Rng::new(31);

    // 20 honest pages that change every few days with real edits.
    let mut honest: Vec<EvolvingPage> = (0..20)
        .map(|i| {
            EvolvingPage::publish(
                &format!("http://honest{i}.org/page.html"),
                Page::generate(&mut rng.fork(i), 4_000),
                EditModel::InPlaceEdit { sentences: 2 },
                Duration::days(3 + i % 4),
                0.3,
                rng.fork(100 + i),
                &web,
            )
        })
        .collect();

    // 10 noisy pages: hit counters and clock pages.
    for i in 0..10 {
        let template = if i % 2 == 0 {
            format!("<HTML><H1>Stats {i}</H1><P>You are visitor number {{HITS}} since June 1995.</HTML>")
        } else {
            format!("<HTML><H1>Status {i}</H1><P>Page generated {{TIME}} by httpd.</HTML>")
        };
        web.set_resource(
            &format!("http://noisy{i}.org/cgi-bin/page"),
            Resource::Cgi { template, hits: 0 },
        )
        .unwrap();
    }

    let all_urls: Vec<String> = (0..20)
        .map(|i| format!("http://honest{i}.org/page.html"))
        .chain((0..10).map(|i| format!("http://noisy{i}.org/cgi-bin/page")))
        .collect();

    // Daily polling with full-body comparison (the checksum regime).
    let mut last_body: std::collections::HashMap<String, std::sync::Arc<str>> = Default::default();
    let mut raw_notifications = 0u64;
    let mut filtered_notifications = 0u64;
    let mut false_suppressions = 0u64; // honest change judged junk
    let mut missed_noise = 0u64; // noisy change not judged junk

    for _day in 0..30u64 {
        clock.advance(Duration::days(1));
        aide_workloads::evolve::tick_all(&mut honest, &web);
        for url in &all_urls {
            let body = web.request(&Request::get(url)).unwrap().body;
            let Some(prev) = last_body.insert(url.clone(), body.clone()) else {
                continue; // first observation: baseline
            };
            if prev == body {
                continue;
            }
            raw_notifications += 1;
            let verdict = classify(&prev, &body);
            let is_noisy_page = url.contains("noisy");
            if verdict.junk {
                if !is_noisy_page {
                    false_suppressions += 1;
                }
            } else {
                filtered_notifications += 1;
                if is_noisy_page {
                    missed_noise += 1;
                }
            }
        }
    }

    println!("=== §3.1 junk-mail experiment (30 days, 20 honest + 10 noisy pages) ===\n");
    println!(
        "{:<46} {:>8}",
        "change notifications without filter", raw_notifications
    );
    println!(
        "{:<46} {:>8}",
        "change notifications with semantic filter", filtered_notifications
    );
    println!(
        "{:<46} {:>7.0}%",
        "junk mail eliminated",
        100.0 * (raw_notifications - filtered_notifications) as f64 / raw_notifications as f64
    );
    println!(
        "{:<46} {:>8}",
        "honest changes wrongly suppressed", false_suppressions
    );
    println!(
        "{:<46} {:>8}",
        "noisy changes that slipped through", missed_noise
    );
    println!("\n(noisy pages fire every single day without the filter — the");
    println!(" paper's 'junk mail'. The filter classifies a change as junk only");
    println!(" when every changed word is a number, date, or clock time.)");
}
