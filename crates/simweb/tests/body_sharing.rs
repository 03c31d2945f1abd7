//! Page bodies are shared, not copied: the origin's page, every GET of
//! it and the proxy's cached entry hold one allocation. HEAD and the
//! truncation fault must still behave as before.

use aide_simweb::fault::{FaultEpisode, FaultKind, FaultPlan};
use aide_simweb::http::{Request, Status};
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_util::time::{Clock, Duration, Timestamp};
use std::sync::Arc;

const URL: &str = "http://h/p.html";
const BODY: &str = "<HTML>caf\u{e9} \u{65e5}\u{672c} page</HTML>";

fn web() -> Web {
    let web = Web::new(Clock::starting_at(Timestamp(100_000)));
    web.set_page(URL, BODY, Timestamp(50_000)).unwrap();
    web
}

#[test]
fn gets_of_an_unchanged_page_share_one_body() {
    let web = web();
    let a = web.request(&Request::get(URL)).unwrap();
    let b = web.request(&Request::get(URL)).unwrap();
    assert_eq!(&*a.body, BODY);
    assert!(Arc::ptr_eq(&a.body, &b.body));

    // A new version is a new allocation.
    web.touch_page(URL, "<HTML>v2</HTML>", Timestamp(60_000))
        .unwrap();
    let c = web.request(&Request::get(URL)).unwrap();
    assert!(!Arc::ptr_eq(&a.body, &c.body));
}

#[test]
fn proxy_hit_shares_the_origin_body() {
    let web = web();
    let proxy = ProxyCache::new(web.clone(), Duration::hours(1));
    let miss = proxy.get(URL).unwrap();
    let hit = proxy.get(URL).unwrap();
    assert_eq!(proxy.stats().hits, 1);
    let origin = web.request(&Request::get(URL)).unwrap();
    assert!(Arc::ptr_eq(&hit.body, &origin.body));
    assert!(Arc::ptr_eq(&miss.body, &origin.body));
}

#[test]
fn head_through_the_proxy_has_a_length_but_no_body() {
    let web = web();
    let proxy = ProxyCache::new(web.clone(), Duration::hours(1));
    // Cold: the proxy fetches with a GET and still answers the HEAD bare.
    let cold = proxy.head(URL).unwrap();
    assert_eq!(cold.status, Status::Ok);
    assert!(cold.body.is_empty());
    assert_eq!(cold.content_length, BODY.len());
    // Warm: answered from the cache.
    let warm = proxy.head(URL).unwrap();
    assert_eq!(proxy.stats().hits, 1);
    assert!(warm.body.is_empty());
    assert_eq!(warm.content_length, BODY.len());
    // The cached entry kept the body for later GETs.
    assert_eq!(&*proxy.get(URL).unwrap().body, BODY);
}

#[test]
fn truncation_cuts_on_a_char_boundary() {
    let web = web();
    // Byte 10 falls inside the two-byte 'é' (bytes 9..11).
    assert!(!BODY.is_char_boundary(10));
    web.install_fault_plan(FaultPlan::new(7).everywhere(FaultEpisode::rate(
        1.0,
        FaultKind::Truncate { keep_bytes: 10 },
    )));
    let resp = web.request(&Request::get(URL)).unwrap();
    assert_eq!(&*resp.body, &BODY[..9]);
    assert_eq!(resp.content_length, BODY.len());
    // The origin's page is untouched.
    web.clear_fault_plan();
    assert_eq!(&*web.request(&Request::get(URL)).unwrap().body, BODY);
}
