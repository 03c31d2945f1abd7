//! Page retrieval for the snapshot facility.
//!
//! The snapshot CGI "might have to retrieve a page over the Internet and
//! then do a time-consuming comparison" (§4.2). This module is that
//! retrieval: GET the page (through the proxy when one is configured),
//! follow forwarding pointers, and classify failures so the caller can
//! report them usefully.

use aide_simweb::http::{NetError, Request, Status};
use aide_simweb::net::Web;
use aide_simweb::proxy::ProxyCache;
use aide_util::time::Timestamp;
use std::fmt;

/// A successfully fetched page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedPage {
    /// The URL the content actually came from (after redirects).
    pub final_url: String,
    /// The body.
    pub body: String,
    /// Its `Last-Modified`, if the server provided one.
    pub last_modified: Option<Timestamp>,
}

/// Fetch failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// Network-level failure.
    Net(NetError),
    /// HTTP-level failure.
    Http {
        /// The status code received.
        status: Status,
        /// The URL that produced it.
        url: String,
    },
    /// Redirects did not converge.
    TooManyRedirects(String),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Net(e) => write!(f, "{e}"),
            FetchError::Http { status, url } => write!(f, "HTTP {status} fetching {url}"),
            FetchError::TooManyRedirects(u) => write!(f, "too many redirects from {u}"),
        }
    }
}

impl std::error::Error for FetchError {}

impl From<NetError> for FetchError {
    fn from(e: NetError) -> Self {
        FetchError::Net(e)
    }
}

/// Maximum redirect chain length.
pub const MAX_REDIRECTS: usize = 5;

/// Fetches `url`, through `proxy` when given, following up to
/// [`MAX_REDIRECTS`] permanent redirects.
pub fn fetch_page(
    web: &Web,
    proxy: Option<&ProxyCache>,
    url: &str,
) -> Result<FetchedPage, FetchError> {
    let mut current = url.to_string();
    for _ in 0..=MAX_REDIRECTS {
        let resp = match proxy {
            Some(p) => p.get(&current)?,
            None => web.request(&Request::get(&current))?,
        };
        match resp.status {
            Status::Ok => {
                return Ok(FetchedPage {
                    final_url: current,
                    body: resp.body.to_string(),
                    last_modified: resp.last_modified,
                });
            }
            Status::MovedPermanently => match resp.location {
                Some(loc) => current = loc,
                None => {
                    return Err(FetchError::Http {
                        status: resp.status,
                        url: current,
                    })
                }
            },
            status => {
                return Err(FetchError::Http {
                    status,
                    url: current,
                })
            }
        }
    }
    Err(FetchError::TooManyRedirects(url.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_simweb::resource::Resource;
    use aide_util::time::{Clock, Duration};

    fn web() -> Web {
        let w = Web::new(Clock::starting_at(Timestamp(1_000_000)));
        w.set_page("http://h/p", "<HTML>content</HTML>", Timestamp(500))
            .unwrap();
        w
    }

    #[test]
    fn plain_fetch() {
        let w = web();
        let p = fetch_page(&w, None, "http://h/p").unwrap();
        assert_eq!(p.body, "<HTML>content</HTML>");
        assert_eq!(p.last_modified, Some(Timestamp(500)));
        assert_eq!(p.final_url, "http://h/p");
    }

    #[test]
    fn follows_moved() {
        let w = web();
        w.set_resource(
            "http://h/old",
            Resource::Moved {
                location: "http://h/p".into(),
            },
        )
        .unwrap();
        let p = fetch_page(&w, None, "http://h/old").unwrap();
        assert_eq!(p.final_url, "http://h/p");
    }

    #[test]
    fn redirect_loop_detected() {
        let w = web();
        w.set_resource(
            "http://h/a",
            Resource::Moved {
                location: "http://h/b".into(),
            },
        )
        .unwrap();
        w.set_resource(
            "http://h/b",
            Resource::Moved {
                location: "http://h/a".into(),
            },
        )
        .unwrap();
        assert!(matches!(
            fetch_page(&w, None, "http://h/a"),
            Err(FetchError::TooManyRedirects(_))
        ));
    }

    #[test]
    fn http_errors_classified() {
        let w = web();
        assert!(matches!(
            fetch_page(&w, None, "http://h/missing"),
            Err(FetchError::Http {
                status: Status::NotFound,
                ..
            })
        ));
        w.set_resource("http://h/gone", Resource::Gone).unwrap();
        assert!(matches!(
            fetch_page(&w, None, "http://h/gone"),
            Err(FetchError::Http {
                status: Status::Gone,
                ..
            })
        ));
    }

    #[test]
    fn net_errors_classified() {
        let w = web();
        assert!(matches!(
            fetch_page(&w, None, "http://unknown-host/"),
            Err(FetchError::Net(NetError::UnknownHost(_)))
        ));
    }

    #[test]
    fn fetches_through_proxy() {
        let w = web();
        let proxy = ProxyCache::new(w.clone(), Duration::hours(1));
        fetch_page(&w, Some(&proxy), "http://h/p").unwrap();
        let origin_before = w.server_stats("h").unwrap().total();
        fetch_page(&w, Some(&proxy), "http://h/p").unwrap();
        assert_eq!(
            w.server_stats("h").unwrap().total(),
            origin_before,
            "cache hit"
        );
        assert_eq!(proxy.stats().hits, 1);
    }
}
