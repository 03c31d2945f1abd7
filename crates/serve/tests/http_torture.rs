//! HTTP/1.1 torture tests.
//!
//! Every adversarial framing a real network can produce — malformed
//! request lines, oversized headers, truncated bodies, byte-at-a-time
//! delivery, pipelining, mid-exchange hangups — must end in a clean
//! 4xx/5xx or a closed connection. Never a panic, never a wedged
//! worker: the batch test at the bottom proves a pool fed garbage keeps
//! serving the well-formed connections around it.

mod common;

use aide_serve::{Connection, ScriptedConn, ServeConfig};
use aide_simweb::wire::Limits;
use common::{header, server, server_with, status_line, URL, USER};

fn raw(server: &aide_serve::AideServer, bytes: &[u8]) -> (String, aide_serve::ConnOutcome) {
    let mut conn = ScriptedConn::new(bytes.to_vec());
    let outcome = server.handle_connection(&mut conn);
    (conn.output_text(), outcome)
}

#[test]
fn malformed_request_lines_get_400_and_close() {
    let s = server();
    for bad in [
        &b"\r\n\r\n"[..],
        b"GET\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / HTTP/1.1 extra\r\n\r\n",
        b"G@T / HTTP/1.1\r\n\r\n",
        b"GET / SPDY/3\r\n\r\n",
        b"\xff\xfe / HTTP/1.1\r\n\r\n",
    ] {
        let (resp, outcome) = raw(&s, bad);
        assert!(
            resp.starts_with("HTTP/1.1 400 ") || resp.starts_with("HTTP/1.1 501 "),
            "{bad:?} => {resp}"
        );
        assert!(outcome.protocol_error);
        assert_eq!(outcome.requests, 0);
        assert!(resp.contains("Connection: close\r\n"));
    }
}

#[test]
fn oversized_inputs_get_specific_4xx() {
    let s = server_with(ServeConfig {
        limits: Limits {
            max_request_line: 64,
            max_header_bytes: 256,
            max_headers: 4,
            max_body: 128,
        },
        ..ServeConfig::default()
    });
    // Request line past the limit — even with no CRLF ever arriving.
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(200));
    let (resp, _) = raw(&s, long.as_bytes());
    assert_eq!(status_line(&resp), "HTTP/1.1 414 URI Too Long");
    let (resp, _) = raw(&s, &vec![b'a'; 500]);
    assert_eq!(status_line(&resp), "HTTP/1.1 414 URI Too Long");
    // Header section past the byte limit.
    let big_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "y".repeat(400));
    let (resp, _) = raw(&s, big_header.as_bytes());
    assert_eq!(
        status_line(&resp),
        "HTTP/1.1 431 Request Header Fields Too Large"
    );
    // Too many header fields.
    let many = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        (0..6).map(|i| format!("H{i}: v\r\n")).collect::<String>()
    );
    let (resp, _) = raw(&s, many.as_bytes());
    assert_eq!(
        status_line(&resp),
        "HTTP/1.1 431 Request Header Fields Too Large"
    );
    // Declared body past the limit.
    let (resp, _) = raw(&s, b"POST / HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
    assert_eq!(status_line(&resp), "HTTP/1.1 413 Payload Too Large");
}

#[test]
fn truncated_body_gets_400_on_eof() {
    let s = server();
    let (resp, outcome) = raw(
        &s,
        b"POST / HTTP/1.1\r\nContent-Length: 50\r\n\r\nonly a little",
    );
    assert_eq!(status_line(&resp), "HTTP/1.1 400 Bad Request");
    assert!(resp.contains("truncated request"));
    assert!(outcome.protocol_error);
    // Truncated header section, same story.
    let (resp, _) = raw(&s, b"GET / HTTP/1.1\r\nHost: half");
    assert_eq!(status_line(&resp), "HTTP/1.1 400 Bad Request");
}

#[test]
fn byte_at_a_time_request_still_serves() {
    let s = server();
    let req = format!("GET /view?url={URL}&rev=1.1 HTTP/1.1\r\nHost: aide\r\n\r\n");
    let mut conn = ScriptedConn::byte_at_a_time(req.as_bytes());
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 1);
    let resp = conn.output_text();
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
    assert!(resp.contains("version one body text."));
}

#[test]
fn keep_alive_serves_many_then_connection_close_ends() {
    let s = server();
    let req1 = format!("GET /view?url={URL}&rev=1.1 HTTP/1.1\r\n\r\n");
    let req2 = format!("GET /view?url={URL}&rev=1.2 HTTP/1.1\r\n\r\n");
    let req3 = format!("GET /view?url={URL}&rev=1.3 HTTP/1.1\r\nConnection: close\r\n\r\n");
    let never = "GET /never HTTP/1.1\r\n\r\n".to_string();
    let mut conn = ScriptedConn::chunked(vec![
        req1.into_bytes(),
        req2.into_bytes(),
        req3.into_bytes(),
        never.into_bytes(),
    ]);
    let outcome = s.handle_connection(&mut conn);
    // The fourth request sits after Connection: close — never served.
    assert_eq!(outcome.requests, 3);
    let resp = conn.output_text();
    assert_eq!(resp.matches("HTTP/1.1 200 OK").count(), 3);
    assert!(resp.contains("version three body text"));
}

#[test]
fn pipelined_requests_all_answered_in_order() {
    let s = server();
    let burst = format!(
        "GET /view?url={URL}&rev=1.1 HTTP/1.1\r\n\r\n\
         GET /view?url={URL}&rev=1.2 HTTP/1.1\r\n\r\n\
         GET /nowhere HTTP/1.1\r\nConnection: close\r\n\r\n"
    );
    let mut conn = ScriptedConn::new(burst.into_bytes());
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 3);
    let resp = conn.output_text();
    let one = resp.find("version one body text.").expect("rev 1.1 served");
    let two = resp.find("version two body text.").expect("rev 1.2 served");
    let nf = resp.find("404 Not Found").expect("404 last");
    assert!(one < two && two < nf, "responses in request order");
}

#[test]
fn non_ascii_after_percent_escape_gets_4xx() {
    // `%` followed by a multi-byte character: the query decoder must
    // treat it as a literal `%`, not slice the target mid-character.
    let s = server();
    for target in ["/view?url=%a\u{e9}&rev=1.1", "/view?url=%\u{e9}&rev=1.1"] {
        let req = format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let (resp, outcome) = raw(&s, req.as_bytes());
        assert!(resp.starts_with("HTTP/1.1 4"), "{target} => {resp}");
        assert_eq!(outcome.requests, 1);
    }
}

#[test]
fn premature_close_never_panics_or_wedges() {
    let s = server();
    // Reset before any bytes.
    let mut conn = ScriptedConn::chunked(vec![]).then_reset();
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 0);
    // Reset mid-request.
    let mut conn = ScriptedConn::new(b"GET /view?url=".to_vec()).then_reset();
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 0);
    // Reset after a complete request: the response write fails silently.
    let req = format!("GET /view?url={URL}&rev=1.1 HTTP/1.1\r\n\r\n");
    let mut conn = ScriptedConn::new(req.into_bytes()).then_reset();
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 1);
}

#[test]
fn method_discipline() {
    let s = server();
    let (resp, _) = raw(&s, b"POST /report HTTP/1.1\r\nContent-Length: 3\r\n\r\na=b");
    assert_eq!(status_line(&resp), "HTTP/1.1 501 Not Implemented");
    assert!(resp.contains("POST"), "explains the \u{a7}8.4 refusal");
    let (resp, _) = raw(&s, b"DELETE / HTTP/1.1\r\n\r\n");
    assert_eq!(status_line(&resp), "HTTP/1.1 405 Method Not Allowed");
    assert_eq!(header(&resp, "Allow"), Some("GET, HEAD"));
    let (resp, _) = raw(&s, b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    assert_eq!(status_line(&resp), "HTTP/1.1 501 Not Implemented");
    // Absolute-form targets belong to proxies, not this origin server.
    let (resp, _) = raw(&s, b"GET http://elsewhere/ HTTP/1.1\r\n\r\n");
    assert_eq!(status_line(&resp), "HTTP/1.1 400 Bad Request");
}

#[test]
fn head_returns_headers_without_body() {
    let s = server();
    let req = format!("HEAD /view?url={URL}&rev=1.1 HTTP/1.1\r\nConnection: close\r\n\r\n");
    let mut conn = ScriptedConn::new(req.into_bytes());
    s.handle_connection(&mut conn);
    let resp = conn.output_text();
    assert_eq!(status_line(&resp), "HTTP/1.1 200 OK");
    let length: usize = header(&resp, "Content-Length").unwrap().parse().unwrap();
    assert!(length > 0, "HEAD keeps the would-be Content-Length");
    assert!(resp.ends_with("\r\n\r\n"), "but carries no body");
}

#[test]
fn http10_closes_by_default() {
    let s = server();
    let burst = format!(
        "GET /view?url={URL}&rev=1.1 HTTP/1.0\r\n\r\n\
         GET /view?url={URL}&rev=1.2 HTTP/1.0\r\n\r\n"
    );
    let mut conn = ScriptedConn::new(burst.into_bytes());
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 1, "1.0 without keep-alive closes");
    assert!(conn.output_text().contains("Connection: close\r\n"));
}

#[test]
fn keepalive_bound_closes_eventually() {
    let s = server_with(ServeConfig {
        max_keepalive: 3,
        ..ServeConfig::default()
    });
    let req = format!("GET /view?url={URL}&rev=1.1 HTTP/1.1\r\n\r\n");
    let mut conn = ScriptedConn::new(req.repeat(10).into_bytes());
    let outcome = s.handle_connection(&mut conn);
    assert_eq!(outcome.requests, 3, "bounded keep-alive");
}

#[test]
fn garbage_batch_does_not_wedge_the_pool() {
    let s = server();
    let good = format!("GET /history?url={URL}&user={USER} HTTP/1.1\r\nConnection: close\r\n\r\n");
    let mut conns = Vec::new();
    for i in 0..32 {
        conns.push(match i % 4 {
            0 => ScriptedConn::new(good.clone().into_bytes()),
            1 => ScriptedConn::new(b"NONSENSE!!\r\n\r\n".to_vec()),
            2 => ScriptedConn::new(b"GET /trunc".to_vec()).then_reset(),
            _ => ScriptedConn::byte_at_a_time(good.as_bytes()),
        });
    }
    let served = s.serve_batch(conns, 4);
    assert_eq!(served.len(), 32);
    for (i, conn) in served.iter().enumerate() {
        match i % 4 {
            0 | 3 => assert!(
                conn.output_text().starts_with("HTTP/1.1 200 OK"),
                "conn {i}: {}",
                conn.output_text()
            ),
            1 => assert!(conn.output_text().starts_with("HTTP/1.1 400 ")),
            _ => {} // reset mid-request: nothing owed
        }
    }
    assert_eq!(s.stats().connections(), 32);
}

#[test]
fn write_through_trait_object() {
    // The Connection seam stays object-safe (the TCP adapter relies on
    // generic dispatch, but a dyn check keeps the trait honest).
    let s = server();
    let conn: &mut dyn Connection =
        &mut ScriptedConn::new(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec());
    let mut probe = [0u8; 4];
    assert!(conn.read(&mut probe).is_ok());
    let _ = s;
}
