//! A minimal keep-alive HTTP/1.1 client for the `browse` workload.

use std::io::{self, Read};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header fields in order.
    pub headers: Vec<(String, String)>,
    /// Body bytes (empty for 304).
    pub body: Vec<u8>,
}

impl Response {
    /// First header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server will close the connection after this reply.
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A GET request for `target`, with optional extra header lines.
pub fn get(target: &str, extra: &[(&str, &str)]) -> Vec<u8> {
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n");
    for (n, v) in extra {
        req.push_str(&format!("{n}: {v}\r\n"));
    }
    req.push_str("\r\n");
    req.into_bytes()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Parses a complete response from the front of `buf`. `Ok(None)`
/// means more bytes are needed; on success the response's bytes are
/// consumed from `buf`.
pub fn parse_response(buf: &mut Vec<u8>) -> io::Result<Option<Response>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (n, v) = line.split_once(':').ok_or_else(|| bad("bad header line"))?;
        headers.push((n.trim().to_string(), v.trim().to_string()));
    }
    let len = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse::<usize>().map_err(|_| bad("bad Content-Length")))
        .transpose()?
        .unwrap_or(0);
    let body_start = head_end + 4;
    if buf.len() < body_start + len {
        return Ok(None);
    }
    let body = buf[body_start..body_start + len].to_vec();
    buf.drain(..body_start + len);
    Ok(Some(Response {
        status,
        headers,
        body,
    }))
}

/// Reads one response from `stream`, keeping any surplus in `buf`.
/// `on_first_bytes` runs once, when the first bytes of the reply
/// arrive.
pub fn read_response(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    on_first_bytes: &mut dyn FnMut(),
) -> io::Result<Response> {
    let mut chunk = [0u8; 16 * 1024];
    let mut first = buf.is_empty();
    if !first {
        on_first_bytes();
    }
    loop {
        if let Some(resp) = parse_response(buf)? {
            return Ok(resp);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        if first {
            first = false;
            on_first_bytes();
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_back_to_back_responses() {
        let mut buf = b"HTTP/1.1 200 OK\r\nETag: \"x\"\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 304 Not Modified\r\nETag: \"x\"\r\n\r\n".to_vec();
        let a = parse_response(&mut buf).unwrap().unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"abc"[..]));
        assert_eq!(a.header("etag"), Some("\"x\""));
        let b = parse_response(&mut buf).unwrap().unwrap();
        assert_eq!(b.status, 304);
        assert!(b.body.is_empty() && buf.is_empty());
    }

    #[test]
    fn waits_for_the_whole_body() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab".to_vec();
        assert_eq!(parse_response(&mut buf).unwrap(), None);
    }
}
