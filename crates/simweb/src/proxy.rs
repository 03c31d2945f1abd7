//! A caching proxy server.
//!
//! w3newer consults "a modification date stored in a proxy-caching
//! server's cache" before ever touching the network (§3), and §8.3 notes
//! AT&T ran "a related daemon on the same machine as an AT&T-wide
//! proxy-caching server, which returns information about pages that are
//! currently cached". The proxy here implements the classic TTL model
//! §3.1 describes: cached entries are served until their time-to-live
//! expires; a forced reload revalidates with a conditional GET.

use crate::http::{Method, NetError, Request, Response, Status};
use crate::net::Web;
use aide_util::sync::Mutex;
use aide_util::time::{Duration, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

/// A cached entry. Its body shares the origin response's allocation.
#[derive(Debug)]
struct Entry {
    body: Arc<str>,
    last_modified: Option<Timestamp>,
    fetched_at: Timestamp,
}

/// Proxy counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProxyStats {
    /// Requests served entirely from cache.
    pub hits: u64,
    /// Requests that went to the origin.
    pub misses: u64,
    /// Revalidations answered 304 by the origin.
    pub revalidated: u64,
}

impl ProxyStats {
    /// Cache hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct ProxyState {
    entries: HashMap<String, Entry>,
    stats: ProxyStats,
}

/// Handle to a caching proxy in front of a [`Web`].
///
/// # Examples
///
/// ```
/// use aide_simweb::net::Web;
/// use aide_simweb::proxy::ProxyCache;
/// use aide_util::time::{Clock, Duration, Timestamp};
///
/// let clock = Clock::new();
/// let web = Web::new(clock.clone());
/// web.set_page("http://h/p", "body", Timestamp(0)).unwrap();
/// let proxy = ProxyCache::new(web, Duration::hours(1));
/// proxy.get("http://h/p").unwrap();
/// proxy.get("http://h/p").unwrap();
/// assert_eq!(proxy.stats().hits, 1);
/// ```
#[derive(Clone)]
pub struct ProxyCache {
    web: Web,
    ttl: Duration,
    state: Arc<Mutex<ProxyState>>,
}

impl ProxyCache {
    /// Creates a proxy over `web` with entry time-to-live `ttl`.
    pub fn new(web: Web, ttl: Duration) -> ProxyCache {
        ProxyCache {
            web,
            ttl,
            state: Arc::new(Mutex::new(ProxyState::default())),
        }
    }

    /// The underlying Web (for direct, non-caching access).
    pub fn web(&self) -> &Web {
        &self.web
    }

    /// GET through the cache.
    pub fn get(&self, url: &str) -> Result<Response, NetError> {
        self.fetch(url, Method::Get, false)
    }

    /// GET, bypassing freshness (a user-forced reload): revalidates with
    /// the origin via a conditional GET.
    pub fn reload(&self, url: &str) -> Result<Response, NetError> {
        self.fetch(url, Method::Get, true)
    }

    /// HEAD through the cache: answered locally while the entry is fresh.
    pub fn head(&self, url: &str) -> Result<Response, NetError> {
        self.fetch(url, Method::Head, false)
    }

    fn fetch(&self, url: &str, method: Method, force: bool) -> Result<Response, NetError> {
        let now = self.web.clock().now();
        // HEAD answers carry the length but not the body.
        let body_for = |body: &Arc<str>| {
            if method == Method::Head {
                Arc::default()
            } else {
                body.clone()
            }
        };
        let prior = {
            let mut st = self.state.lock();
            if let Some(e) = st.entries.get(url) {
                if !force && now - e.fetched_at < self.ttl {
                    let resp = Response {
                        status: Status::Ok,
                        last_modified: e.last_modified,
                        location: None,
                        content_length: e.body.len(),
                        body: body_for(&e.body),
                        date: e.fetched_at,
                        retry_after: None,
                    };
                    st.stats.hits += 1;
                    return Ok(resp);
                }
            }
            st.stats.misses += 1;
            st.entries
                .get(url)
                .map(|e| (e.last_modified, e.body.clone()))
        };
        // Stale or absent: fetch (conditionally when we hold a copy).
        let mut req = Request::get(url);
        if let Some((Some(lm), _)) = prior {
            req = req.if_modified_since(lm);
        }
        let resp = self.web.request(&req)?;
        match resp.status {
            Status::NotModified => {
                let mut st = self.state.lock();
                st.stats.revalidated += 1;
                // A 304 implies we sent If-Modified-Since, which implies
                // a prior entry; stay total if it vanished anyway.
                let e = st.entries.entry(url.to_string()).or_insert_with(|| {
                    let (last_modified, body) = prior.unwrap_or_default();
                    Entry {
                        body,
                        last_modified,
                        fetched_at: now,
                    }
                });
                e.fetched_at = now;
                Ok(Response {
                    status: Status::Ok,
                    last_modified: e.last_modified,
                    location: None,
                    content_length: e.body.len(),
                    body: body_for(&e.body),
                    date: now,
                    retry_after: None,
                })
            }
            Status::Ok => {
                self.state.lock().entries.insert(
                    url.to_string(),
                    Entry {
                        body: resp.body.clone(),
                        last_modified: resp.last_modified,
                        fetched_at: now,
                    },
                );
                Ok(Response {
                    body: body_for(&resp.body),
                    ..resp
                })
            }
            _ => {
                // Errors are not cached (negative caching came later).
                Ok(resp)
            }
        }
    }

    /// The daemon interface §8.3 describes: modification information for
    /// a *currently cached* page, without any network traffic. Returns
    /// `(last_modified, fetched_at)` if cached.
    pub fn cached_mod_info(&self, url: &str) -> Option<(Option<Timestamp>, Timestamp)> {
        self.state
            .lock()
            .entries
            .get(url)
            .map(|e| (e.last_modified, e.fetched_at))
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        self.state.lock().entries.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters.
    pub fn stats(&self) -> ProxyStats {
        self.state.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::time::Clock;

    fn setup() -> (Clock, Web, ProxyCache) {
        let clock = Clock::starting_at(Timestamp(100_000));
        let web = Web::new(clock.clone());
        web.set_page("http://h/p.html", "<HTML>v1</HTML>", Timestamp(50_000))
            .unwrap();
        let proxy = ProxyCache::new(web.clone(), Duration::hours(1));
        (clock, web, proxy)
    }

    #[test]
    fn second_get_is_a_hit() {
        let (_, web, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        let origin_before = web.server_stats("h").unwrap().total();
        let r = proxy.get("http://h/p.html").unwrap();
        assert_eq!(&*r.body, "<HTML>v1</HTML>");
        assert_eq!(
            web.server_stats("h").unwrap().total(),
            origin_before,
            "served from cache"
        );
        assert_eq!(proxy.stats().hits, 1);
    }

    #[test]
    fn ttl_expiry_revalidates() {
        let (clock, web, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        clock.advance(Duration::hours(2));
        let r = proxy.get("http://h/p.html").unwrap();
        assert_eq!(&*r.body, "<HTML>v1</HTML>");
        assert_eq!(proxy.stats().revalidated, 1);
        // Origin saw a conditional GET answered 304.
        assert_eq!(web.server_stats("h").unwrap().not_modified, 1);
    }

    #[test]
    fn changed_page_refetched_after_ttl() {
        let (clock, web, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        clock.advance(Duration::hours(2));
        web.touch_page("http://h/p.html", "<HTML>v2</HTML>", clock.now())
            .unwrap();
        let r = proxy.get("http://h/p.html").unwrap();
        assert_eq!(&*r.body, "<HTML>v2</HTML>");
        assert_eq!(proxy.stats().revalidated, 0);
    }

    #[test]
    fn stale_body_served_within_ttl() {
        // The §3.1 consistency caveat: within the TTL the proxy can serve
        // stale data.
        let (clock, web, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        web.touch_page("http://h/p.html", "<HTML>v2</HTML>", clock.now())
            .unwrap();
        let r = proxy.get("http://h/p.html").unwrap();
        assert_eq!(&*r.body, "<HTML>v1</HTML>", "stale but within TTL");
    }

    #[test]
    fn reload_forces_revalidation() {
        let (clock, web, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        web.touch_page("http://h/p.html", "<HTML>v2</HTML>", clock.now())
            .unwrap();
        let r = proxy.reload("http://h/p.html").unwrap();
        assert_eq!(&*r.body, "<HTML>v2</HTML>");
    }

    #[test]
    fn head_is_served_from_cache() {
        let (_, web, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        let before = web.stats().requests;
        let h = proxy.head("http://h/p.html").unwrap();
        assert_eq!(h.last_modified, Some(Timestamp(50_000)));
        assert!(h.body.is_empty());
        assert_eq!(web.stats().requests, before);
    }

    #[test]
    fn cached_mod_info_reports_without_traffic() {
        let (clock, web, proxy) = setup();
        assert_eq!(proxy.cached_mod_info("http://h/p.html"), None);
        proxy.get("http://h/p.html").unwrap();
        let before = web.stats().requests;
        let (lm, fetched) = proxy.cached_mod_info("http://h/p.html").unwrap();
        assert_eq!(lm, Some(Timestamp(50_000)));
        assert_eq!(fetched, clock.now());
        assert_eq!(web.stats().requests, before);
    }

    #[test]
    fn errors_pass_through_uncached() {
        let (_, _, proxy) = setup();
        let r = proxy.get("http://h/missing.html").unwrap();
        assert_eq!(r.status, Status::NotFound);
        assert!(proxy.cached_mod_info("http://h/missing.html").is_none());
    }

    #[test]
    fn net_errors_propagate() {
        let (_, web, proxy) = setup();
        web.set_network_up(false);
        assert!(proxy.get("http://h/p.html").is_err());
    }

    #[test]
    fn clear_and_len() {
        let (_, _, proxy) = setup();
        assert!(proxy.is_empty());
        proxy.get("http://h/p.html").unwrap();
        assert_eq!(proxy.len(), 1);
        proxy.clear();
        assert!(proxy.is_empty());
    }

    #[test]
    fn hit_ratio() {
        let (_, _, proxy) = setup();
        proxy.get("http://h/p.html").unwrap();
        proxy.get("http://h/p.html").unwrap();
        proxy.get("http://h/p.html").unwrap();
        let s = proxy.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
    }
}
