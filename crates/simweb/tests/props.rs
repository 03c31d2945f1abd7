//! Property-based tests for the simulated Web.
//!
//! Invariants:
//! - HEAD and GET agree on status, date and length for any resource;
//! - a proxy in front of the Web never serves a body the origin never
//!   had, and serves the *current* body once its TTL has expired;
//! - request accounting equals requests issued;
//! - conditional GET answers 304 exactly when nothing changed since the
//!   supplied date.

use aide_simweb::http::{Request, Status};
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_util::time::{Clock, Duration, Timestamp};
use proptest::prelude::*;

fn body_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 <>/]{0,60}".prop_map(|s| format!("<HTML>{s}</HTML>"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn head_and_get_agree(body in body_strategy(), mod_time in 0u64..1_000_000) {
        let web = Web::new(Clock::starting_at(Timestamp(2_000_000)));
        web.set_page("http://h/p", &body, Timestamp(mod_time)).unwrap();
        let head = web.request(&Request::head("http://h/p")).unwrap();
        let get = web.request(&Request::get("http://h/p")).unwrap();
        prop_assert_eq!(head.status, get.status);
        prop_assert_eq!(head.last_modified, get.last_modified);
        prop_assert_eq!(head.content_length, get.content_length);
        prop_assert_eq!(get.body.len(), get.content_length);
        prop_assert!(head.body.is_empty());
    }

    #[test]
    fn proxy_serves_only_real_bodies(
        bodies in proptest::collection::vec(body_strategy(), 1..6),
        ttl_hours in 0u64..48,
        fetch_offsets in proptest::collection::vec(0u64..72, 1..10),
    ) {
        let clock = Clock::starting_at(Timestamp(10_000_000));
        let web = Web::new(clock.clone());
        web.set_page("http://h/p", &bodies[0], clock.now()).unwrap();
        let proxy = ProxyCache::new(web.clone(), Duration::hours(ttl_hours));
        let mut published = vec![bodies[0].clone()];
        let mut version = 0usize;
        for off in fetch_offsets {
            clock.advance(Duration::hours(off));
            // Sometimes the page advances to its next version.
            if version + 1 < bodies.len() && off % 3 == 0 {
                version += 1;
                web.touch_page("http://h/p", &bodies[version], clock.now()).unwrap();
                published.push(bodies[version].clone());
            }
            let resp = proxy.get("http://h/p").unwrap();
            prop_assert!(
                published.iter().any(|p| **p == *resp.body),
                "proxy invented a body: {:?}",
                resp.body
            );
        }
    }

    #[test]
    fn proxy_is_fresh_after_ttl(old in body_strategy(), new in body_strategy()) {
        prop_assume!(old != new);
        let clock = Clock::starting_at(Timestamp(10_000_000));
        let web = Web::new(clock.clone());
        web.set_page("http://h/p", &old, clock.now()).unwrap();
        let proxy = ProxyCache::new(web.clone(), Duration::hours(2));
        proxy.get("http://h/p").unwrap();
        clock.advance(Duration::hours(1));
        web.touch_page("http://h/p", &new, clock.now()).unwrap();
        // Past the TTL, the proxy must serve the new body.
        clock.advance(Duration::hours(2));
        let resp = proxy.get("http://h/p").unwrap();
        prop_assert_eq!(&*resp.body, new.as_str());
    }

    #[test]
    fn accounting_matches_requests(heads in 0usize..10, gets in 0usize..10) {
        let web = Web::new(Clock::new());
        web.set_page("http://h/p", "x", Timestamp(1)).unwrap();
        for _ in 0..heads {
            web.request(&Request::head("http://h/p")).unwrap();
        }
        for _ in 0..gets {
            web.request(&Request::get("http://h/p")).unwrap();
        }
        let s = web.stats();
        prop_assert_eq!(s.heads as usize, heads);
        prop_assert_eq!(s.gets as usize, gets);
        prop_assert_eq!(s.requests as usize, heads + gets);
    }

    #[test]
    fn conditional_get_is_consistent(mod_time in 0u64..1000, since in 0u64..1000) {
        let web = Web::new(Clock::starting_at(Timestamp(5000)));
        web.set_page("http://h/p", "body", Timestamp(mod_time)).unwrap();
        let resp = web
            .request(&Request::get("http://h/p").if_modified_since(Timestamp(since)))
            .unwrap();
        if mod_time <= since {
            prop_assert_eq!(resp.status, Status::NotModified);
            prop_assert!(resp.body.is_empty());
        } else {
            prop_assert_eq!(resp.status, Status::Ok);
            prop_assert_eq!(&*resp.body, "body");
        }
    }
}
