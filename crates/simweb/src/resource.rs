//! What a URL serves.
//!
//! Three behaviours matter to AIDE and all appear in the paper:
//!
//! - ordinary **pages** carry a `Last-Modified` date, so a HEAD suffices
//!   to detect change;
//! - **CGI pages** do not ("pages that do not provide a Last-Modified
//!   date, such as output from Common Gateway Interface (CGI) scripts",
//!   §2.1), and the *noisy* ones — hit counters, embedded clocks, the
//!   daily Dilbert strip — "will look different every time they are
//!   retrieved" (§3.1), generating junk change notifications;
//! - **error behaviours**: moved with a forwarding pointer, moved
//!   without, deliberately gone (§3.1).

use aide_util::time::Timestamp;
use std::sync::Arc;

/// A resource served at some path of an origin server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resource {
    /// A static page with a modification date.
    Page {
        /// Full body, shared with every response that carries it.
        body: Arc<str>,
        /// `Last-Modified` value.
        last_modified: Timestamp,
    },
    /// A CGI page: no `Last-Modified`; the body may embed volatile data.
    Cgi {
        /// Template; `{HITS}` and `{TIME}` are substituted per request.
        template: String,
        /// Number of times this resource has been fetched with GET.
        hits: u64,
    },
    /// Moved: 301 with a forwarding pointer.
    Moved {
        /// The new absolute URL.
        location: String,
    },
    /// Removed: 410.
    Gone,
}

impl Resource {
    /// Convenience constructor for a static page.
    pub fn page(body: &str, last_modified: Timestamp) -> Resource {
        Resource::Page {
            body: Arc::from(body),
            last_modified,
        }
    }

    /// A hit-counter CGI page — the canonical noisy modification source.
    pub fn hit_counter(template: &str) -> Resource {
        Resource::Cgi {
            template: template.to_string(),
            hits: 0,
        }
    }

    /// True if a HEAD of this resource yields a `Last-Modified` header.
    pub fn provides_last_modified(&self) -> bool {
        matches!(self, Resource::Page { .. })
    }

    /// Materializes the body for one GET at time `now`, updating volatile
    /// state (the hit counter).
    pub fn materialize(&mut self, now: Timestamp) -> String {
        self.materialize_with_input(now, "")
    }

    /// Materializes with a request body (POST input): `{INPUT}` in a CGI
    /// template is replaced with it, so form services produce
    /// input-dependent output (§8.4's case).
    pub fn materialize_with_input(&mut self, now: Timestamp, input: &str) -> String {
        match self {
            Resource::Page { body, .. } => body.to_string(),
            Resource::Cgi { template, hits } => {
                *hits += 1;
                template
                    .replace("{HITS}", &hits.to_string())
                    .replace("{TIME}", &now.to_http_date())
                    .replace("{INPUT}", input)
            }
            Resource::Moved { .. } | Resource::Gone => String::new(),
        }
    }

    /// Body length as it would be materialized *without* bumping state —
    /// used for HEAD's `Content-Length`.
    pub fn peek_len(&self, now: Timestamp) -> usize {
        match self {
            Resource::Page { body, .. } => body.len(),
            Resource::Cgi { template, hits } => template
                .replace("{HITS}", &(hits + 1).to_string())
                .replace("{TIME}", &now.to_http_date())
                .len(),
            Resource::Moved { .. } | Resource::Gone => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_page_is_stable() {
        let mut r = Resource::page("<HTML>x</HTML>", Timestamp(100));
        assert!(r.provides_last_modified());
        assert_eq!(r.materialize(Timestamp(1)), r.materialize(Timestamp(2)));
    }

    #[test]
    fn hit_counter_changes_every_fetch() {
        let mut r = Resource::hit_counter("<HTML>You are visitor {HITS}</HTML>");
        assert!(!r.provides_last_modified());
        let a = r.materialize(Timestamp(1));
        let b = r.materialize(Timestamp(1));
        assert_ne!(a, b);
        assert!(a.contains("visitor 1"));
        assert!(b.contains("visitor 2"));
    }

    #[test]
    fn clock_page_tracks_time() {
        let mut r = Resource::Cgi {
            template: "<HTML>It is {TIME}</HTML>".to_string(),
            hits: 0,
        };
        let a = r.materialize(Timestamp::from_ymd_hms(1995, 6, 1, 0, 0, 0));
        let b = r.materialize(Timestamp::from_ymd_hms(1995, 6, 2, 0, 0, 0));
        assert_ne!(a, b);
    }

    #[test]
    fn stable_cgi_output_is_possible() {
        // CGI without volatile substitutions: same body, still no date.
        let mut r = Resource::Cgi {
            template: "<HTML>query result</HTML>".to_string(),
            hits: 0,
        };
        assert_eq!(r.materialize(Timestamp(1)), r.materialize(Timestamp(9)));
        assert!(!r.provides_last_modified());
    }

    #[test]
    fn moved_and_gone_serve_nothing() {
        assert_eq!(Resource::Gone.materialize(Timestamp(1)), "");
        let mut m = Resource::Moved {
            location: "http://new/".into(),
        };
        assert_eq!(m.materialize(Timestamp(1)), "");
        assert!(!m.provides_last_modified());
    }

    #[test]
    fn peek_len_matches_next_materialize() {
        let mut r = Resource::hit_counter("n={HITS}");
        let peek = r.peek_len(Timestamp(5));
        let body = r.materialize(Timestamp(5));
        assert_eq!(peek, body.len());
    }
}
