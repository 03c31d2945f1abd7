//! The correctness checks. Each returns `Err` with a description when
//! the program's output is wrong; every failure counts against the run.

use crate::http::Response;
use aide_rcs::archive::RevId;
use aide_util::checksum::fnv1a64;

/// What the client expects back for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A fresh page: 200 carrying an ETag.
    Page,
    /// The client sent `If-None-Match` with this (unquoted) tag, which
    /// is still current: 304 echoing it.
    NotModified(String),
    /// A page that is never cached (the report): 200.
    Uncached,
    /// A TimeGate redirect to a memento.
    Redirect,
}

/// Checks one response's status and validators against `expect`.
pub fn check_response(expect: &Expect, resp: &Response) -> Result<(), String> {
    match expect {
        Expect::Page => {
            if resp.status != 200 {
                return Err(format!("expected 200, got {}", resp.status));
            }
            if resp.header("etag").is_none() {
                return Err("200 without an ETag".into());
            }
        }
        Expect::NotModified(tag) => {
            if resp.status != 304 {
                return Err(format!(
                    "sent a current ETag {tag:?}, expected 304, got {}",
                    resp.status
                ));
            }
            let echoed = resp.header("etag").map(|t| t.trim_matches('"'));
            if echoed != Some(tag.as_str()) {
                return Err(format!("304 for {tag:?} echoed {echoed:?}"));
            }
        }
        Expect::Uncached => {
            if resp.status != 200 {
                return Err(format!("expected 200, got {}", resp.status));
            }
        }
        Expect::Redirect => {
            if resp.status != 302 {
                return Err(format!("expected 302, got {}", resp.status));
            }
            if !resp
                .header("location")
                .is_some_and(|l| l.starts_with("/memento/"))
            {
                return Err("302 without a /memento/ Location".into());
            }
        }
    }
    if resp.status == 304 && !matches!(expect, Expect::NotModified(_)) {
        return Err("304 although no If-None-Match was sent".into());
    }
    Ok(())
}

/// Checks that a body fetched over TCP equals the in-process answer
/// for the same request.
pub fn check_same_body(url: &str, over_tcp: &[u8], direct: &[u8]) -> Result<(), String> {
    if over_tcp == direct {
        return Ok(());
    }
    let at = over_tcp
        .iter()
        .zip(direct)
        .position(|(a, b)| a != b)
        .unwrap_or(over_tcp.len().min(direct.len()));
    Err(format!(
        "{url}: TCP body ({} bytes) differs from respond() ({} bytes) at byte {at}",
        over_tcp.len(),
        direct.len()
    ))
}

/// Checks that an acknowledged check-in advanced the revision by one.
pub fn check_next_revision(url: &str, prev: RevId, got: RevId) -> Result<(), String> {
    if got.0 == prev.0 + 1 {
        Ok(())
    } else {
        Err(format!("{url}: check-in after {prev} acknowledged {got}"))
    }
}

/// A compact stand-in for a revision's bytes: length and two
/// independent 64-bit hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    len: usize,
    fnv: u64,
    sip: u64,
}

impl Fingerprint {
    /// Fingerprints `text`.
    pub fn of(text: &str) -> Fingerprint {
        use std::hash::{Hash, Hasher};
        // `DefaultHasher::new` uses fixed keys: stable within a build.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        text.hash(&mut h);
        Fingerprint {
            len: text.len(),
            fnv: fnv1a64(text.as_bytes()),
            sip: h.finish(),
        }
    }
}

/// Checks that a checked-out revision is what the generator wrote.
pub fn check_checkout(url: &str, rev: RevId, want: &Fingerprint, text: &str) -> Result<(), String> {
    if Fingerprint::of(text) == *want {
        Ok(())
    } else {
        Err(format!(
            "{url} {rev}: checkout ({} bytes) differs from the acknowledged text ({} bytes)",
            text.len(),
            want.len
        ))
    }
}

/// Checks a `Changed` verdict: the generator must have touched the URL
/// in a round after the user last saw it.
pub fn check_changed(
    user: &str,
    url: &str,
    last_touch_round: u32,
    seen_round: u32,
) -> Result<(), String> {
    if last_touch_round > seen_round {
        Ok(())
    } else {
        Err(format!(
            "{user}: {url} reported Changed, but last touched in round {last_touch_round} \
             and seen in round {seen_round}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(status: u16, headers: &[(&str, &str)], body: &[u8]) -> Response {
        Response {
            status,
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: body.to_vec(),
        }
    }

    #[test]
    fn not_modified_only_for_a_sent_tag() {
        let r304 = resp(304, &[("ETag", "\"h-1\"")], b"");
        assert!(check_response(&Expect::NotModified("h-1".into()), &r304).is_ok());
        assert!(check_response(&Expect::NotModified("h-2".into()), &r304).is_err());
        assert!(check_response(&Expect::Page, &r304).is_err());
        assert!(check_response(&Expect::Uncached, &r304).is_err());
    }

    #[test]
    fn fingerprints_tell_texts_apart() {
        let a = Fingerprint::of("<P>one");
        assert!(check_checkout("u", RevId(2), &a, "<P>one").is_ok());
        assert!(check_checkout("u", RevId(2), &a, "<P>onE").is_err());
    }
}
