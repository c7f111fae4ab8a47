//! A minimal HTTP/1.1 shim over `std::net`, consistent with the
//! workspace's no-external-deps rule.
//!
//! Implements exactly the slice of the protocol the sweep server and
//! its clients use: one request per connection (`Connection: close`
//! semantics), `Content-Length`-framed bodies, and JSON payloads. No
//! chunked encoding, no keep-alive, no TLS — a sweep submission is a
//! single short exchange, so the simplest correct framing wins.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on an accepted request body, in bytes. A sweep template
/// is a few KiB; anything near this limit is a client bug or abuse,
/// and bounding it keeps a misbehaving client from ballooning server
/// memory before admission control even sees the job.
pub const MAX_BODY: usize = 1 << 20;

/// Upper bound on the request line and on each header line, in bytes
/// (line terminator included).
pub const MAX_LINE: usize = 8 << 10;

/// Upper bound on the whole request head — request line plus header
/// lines — in bytes.
pub const MAX_HEAD: usize = 64 << 10;

/// Upper bound on the number of header lines.
pub const MAX_HEADERS: usize = 100;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without the query string (`/jobs/7`).
    pub path: String,
    /// Decoded query pairs, in order of appearance.
    pub query: Vec<(String, String)>,
    /// The request body (empty when none was sent).
    pub body: String,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why [`read_request`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// The request line, a header line, the whole head or the header
    /// count broke its limit ([`MAX_LINE`], [`MAX_HEAD`],
    /// [`MAX_HEADERS`]); nothing past the limit was read.
    HeadTooLarge(String),
    /// Malformed framing, an over-limit body, or an I/O failure.
    Malformed(String),
}

impl RequestError {
    /// The HTTP status that answers this error: 431 (Request Header
    /// Fields Too Large) or 400.
    pub fn status(&self) -> u16 {
        match self {
            RequestError::HeadTooLarge(_) => 431,
            RequestError::Malformed(_) => 400,
        }
    }

    /// Stable machine-readable error kind for the response body.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestError::HeadTooLarge(_) => "head-too-large",
            RequestError::Malformed(_) => "bad-request",
        }
    }

    /// The human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            RequestError::HeadTooLarge(d) | RequestError::Malformed(d) => d,
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.detail())
    }
}

impl std::error::Error for RequestError {}

/// Reads one request-head line of at most [`MAX_LINE`] bytes, counting
/// it against the head's [`MAX_HEAD`] budget in `head`. Returns the
/// line without its terminator; an empty string at end of stream.
fn read_head_line(
    reader: &mut impl BufRead,
    head: &mut usize,
    what: &str,
) -> Result<String, RequestError> {
    let mut buf = Vec::new();
    let n = reader
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', &mut buf)
        .map_err(|e| RequestError::Malformed(format!("read {what}: {e}")))?;
    if n > MAX_LINE {
        return Err(RequestError::HeadTooLarge(format!(
            "{what} exceeds the {MAX_LINE}-byte line limit"
        )));
    }
    *head += n;
    if *head > MAX_HEAD {
        return Err(RequestError::HeadTooLarge(format!(
            "request head exceeds the {MAX_HEAD}-byte limit"
        )));
    }
    let line = String::from_utf8(buf)
        .map_err(|_| RequestError::Malformed(format!("{what} is not UTF-8")))?;
    Ok(line.trim_end().to_string())
}

/// Reads and parses one request from `stream`, reading no more of the
/// head than its limits allow.
///
/// # Errors
///
/// [`RequestError::HeadTooLarge`] when the request line, a header line,
/// the whole head or the header count is over its limit;
/// [`RequestError::Malformed`] for malformed request lines, missing or
/// unparsable `Content-Length`, over-limit bodies, and I/O failures.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut head = 0;
    let line = read_head_line(&mut reader, &mut head, "request line")?;
    let bad = |m: &str| RequestError::Malformed(m.to_string());
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| bad("request line missing a target"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    let mut content_length = 0usize;
    let mut headers = 0;
    loop {
        let header = read_head_line(&mut reader, &mut head, "header")?;
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::HeadTooLarge(format!(
                "more than {MAX_HEADERS} header lines"
            )));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().map_err(|_| {
                    RequestError::Malformed(format!("bad content-length '{}'", value.trim()))
                })?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(RequestError::Malformed(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| RequestError::Malformed(format!("read body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// Writes one `Connection: close` response with a JSON body.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    write_response_typed(stream, status, "application/json", body)
}

/// Writes one `Connection: close` response with an explicit content
/// type — the Prometheus `/metrics` endpoint serves
/// `text/plain; version=0.0.4` instead of JSON.
pub fn write_response_typed(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A blocking one-shot HTTP client: sends `method path` with an
/// optional JSON body and returns `(status, body)`.
///
/// # Errors
///
/// A human-readable message for connect/read/write failures or a
/// malformed status line.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send request: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line '{}'", status_line.trim()))?;
    let mut content_length = None;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        let header = header.trim_end();
        if n == 0 || header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = String::new();
    match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("read body: {e}"))?;
            body = String::from_utf8(buf).map_err(|_| "response is not UTF-8".to_string())?;
        }
        None => {
            reader
                .read_to_string(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_round_trips_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.query_value("client"), Some("alice"));
            assert_eq!(req.body, "{\"x\":1}");
            write_response(&mut stream, 202, "{\"ok\":true}").unwrap();
        });
        let (status, body) =
            request(&addr, "POST", "/jobs?client=alice", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    /// Sends `head` on a fresh connection (ignoring write errors: the
    /// reader may stop early) and returns what `read_request` made of it.
    fn read_sent(head: Vec<u8>) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let _ = stream.write_all(&head);
            // Hold the connection open until the server side is done.
            let _ = stream.read(&mut [0u8; 1]);
        });
        let (mut stream, _) = listener.accept().unwrap();
        let got = read_request(&mut stream);
        drop(stream);
        client.join().unwrap();
        got
    }

    #[test]
    fn a_newline_free_mebibyte_line_is_refused_with_431() {
        let err = read_sent(vec![b'G'; 1 << 20]).unwrap_err();
        assert_eq!(err.status(), 431, "{err}");
        assert!(err.to_string().contains("request line"), "{err}");
        let mut head = b"GET / HTTP/1.1\r\nx-long: ".to_vec();
        head.extend(vec![b'a'; 1 << 20]);
        let err = read_sent(head).unwrap_err();
        assert_eq!(err.status(), 431, "{err}");
        assert!(err.to_string().contains("header"), "{err}");
    }

    #[test]
    fn ten_thousand_headers_are_refused_with_431() {
        let mut head = b"GET /stats HTTP/1.1\r\n".to_vec();
        for i in 0..10_000 {
            head.extend(format!("x-h{i}: v\r\n").as_bytes());
        }
        head.extend(b"\r\n");
        let err = read_sent(head).unwrap_err();
        assert_eq!(err.status(), 431, "{err}");
        assert_eq!(err.kind(), "head-too-large");
        assert!(err.to_string().contains("header lines"), "{err}");
    }

    #[test]
    fn many_long_headers_break_the_head_budget() {
        // Every line is under the line limit and the count is under the
        // header limit, but together they pass the head limit.
        let mut head = b"GET /stats HTTP/1.1\r\n".to_vec();
        let value = "v".repeat(MAX_LINE - 16);
        for i in 0..MAX_HEADERS {
            head.extend(format!("x-h{i:03}: {value}\r\n").as_bytes());
        }
        head.extend(b"\r\n");
        let err = read_sent(head).unwrap_err();
        assert_eq!(err.status(), 431, "{err}");
        assert!(err.to_string().contains("request head"), "{err}");
    }

    #[test]
    fn heads_at_the_limits_are_accepted() {
        let mut head = b"GET /stats HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADERS - 1 {
            head.extend(format!("x-h{i}: v\r\n").as_bytes());
        }
        // The last header line is exactly MAX_LINE bytes long.
        let prefix = b"x-last: ";
        head.extend(prefix);
        head.extend(vec![b'a'; MAX_LINE - prefix.len() - 2]);
        head.extend(b"\r\n\r\n");
        let req = read_sent(head).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let err = read_request(&mut stream).unwrap_err();
            assert!(err.to_string().contains("limit"));
            assert_eq!(err.status(), 400);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!("POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", 1 << 30).as_bytes(),
            )
            .unwrap();
        server.join().unwrap();
    }
}
