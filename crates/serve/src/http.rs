//! Minimal HTTP/1.1 over `std::net`: just enough of the protocol for a
//! localhost JSON API — request parsing with size limits, response
//! writing, and a tiny blocking client for tests and smoke drivers.
//!
//! Deliberately out of scope: keep-alive (every response is
//! `Connection: close`), chunked transfer encoding, TLS, compression.
//! The daemon serves trusted lab networks, not the open internet.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request head (request line + headers) we accept.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request: method, percent-decoded-free path, query
/// string, and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path component before `?`, e.g. `/v1/jobs/3`.
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// Request body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// Looks up a query parameter by key (`?from=3&wait_ms=500`).
    /// No percent-decoding: the API's values are all integers/tokens.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Parses a query parameter as `u64`, falling back to `default` when
    /// absent; `Err` carries the offending key for a 400 reply.
    pub fn query_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.query_param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("query parameter `{key}` must be an integer, got `{raw}`")),
        }
    }
}

/// How request parsing failed — mapped to a status code by the server.
#[derive(Debug)]
pub enum HttpError {
    /// Socket closed before a full request arrived.
    ConnectionClosed,
    /// Malformed request line or headers (→ 400).
    Malformed(String),
    /// Body or head exceeded the configured limit (→ 413).
    TooLarge(String),
    /// Underlying I/O failure (timeout, reset).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::ConnectionClosed => write!(f, "connection closed mid-request"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Reads and parses one HTTP/1.1 request from `stream`.
///
/// The head (request line and headers) is read under a budget of
/// `MAX_HEAD_BYTES`, so an endless line costs at most that much memory.
/// `max_body` bounds `Content-Length`; bigger bodies are rejected before
/// any body byte is read so a hostile client can't make us buffer
/// gigabytes.
pub fn read_request<R: Read>(stream: R, max_body: usize) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD_BYTES;
    let mut request_line = String::new();
    read_head_line(&mut reader, &mut request_line, &mut budget)?;

    let mut head = String::new();
    let mut content_length = 0usize;
    loop {
        read_head_line(&mut reader, &mut head, &mut budget)?;
        let line = head.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!(
                "header without colon: `{line}`"
            )));
        };
        if name.eq_ignore_ascii_case("content-length") {
            // 1*DIGIT only: `usize::from_str` would also accept a sign.
            content_length = Some(value.trim())
                .filter(|v| v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| HttpError::Malformed(format!("bad Content-Length `{value}`")))?;
        }
    }

    let line = request_line.trim_end_matches(['\r', '\n']);
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("bad request line `{line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version `{version}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    if content_length > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds limit of {max_body}"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;

    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        body,
    })
}

/// Reads one head line, newline included, into `line`, reading no more
/// than the `budget` head bytes left and charging what it read. A line cut
/// off by the budget is `TooLarge`; one cut off by the end of the stream
/// is `ConnectionClosed`.
fn read_head_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    budget: &mut usize,
) -> Result<(), HttpError> {
    line.clear();
    let n = reader
        .take(*budget as u64)
        .read_line(line)
        .map_err(HttpError::Io)?;
    *budget -= n;
    if line.ends_with('\n') {
        Ok(())
    } else if *budget == 0 {
        Err(HttpError::TooLarge(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )))
    } else {
        Err(HttpError::ConnectionClosed)
    }
}

/// Standard reason phrase for the handful of codes the API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete `Connection: close` JSON response.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Status + body as returned by [`http_call`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (the API always sends JSON).
    pub body: String,
}

/// Blocking one-shot HTTP client: opens a fresh connection per call
/// (matching the server's `Connection: close` policy), sends `body` if
/// non-empty, and reads the reply to EOF.
///
/// Used by the integration tests, the smoke driver, and the bench row —
/// anything in-tree that needs to speak to the daemon without pulling in
/// an HTTP dependency.
pub fn http_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if !body.is_empty() {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line `{}`", status_line.trim_end()),
            )
        })?;
    let mut content_length: Option<usize> = None;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed inside response headers",
            ));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    let body = String::from_utf8(body).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response body is not UTF-8",
        )
    })?;
    Ok(ClientResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gecko_isa::rng::SplitMix64;
    use std::net::TcpListener;

    /// One request/response exchange through real sockets exercises both
    /// the parser and the client against each other.
    #[test]
    fn request_round_trips_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, 1024).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/jobs/7/events");
            assert_eq!(req.query_param("from"), Some("3"));
            assert_eq!(req.query_u64("wait_ms", 0).unwrap(), 500);
            assert_eq!(req.body, br#"{"x":1}"#);
            write_response(&mut stream, 201, r#"{"ok":true}"#).unwrap();
        });
        let resp = http_call(
            &addr,
            "POST",
            "/v1/jobs/7/events?from=3&wait_ms=500",
            r#"{"x":1}"#,
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.body, r#"{"ok":true}"#);
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            match read_request(&mut stream, 8) {
                Err(HttpError::TooLarge(_)) => {}
                other => panic!("expected TooLarge, got {other:?}"),
            }
        });
        // Body is 16 bytes against an 8-byte limit.
        let _ = http_call(&addr, "POST", "/v1/campaigns", "0123456789abcdef");
        server.join().unwrap();
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Drip<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const REQUEST: &[u8] =
        b"POST /v1/jobs/7/events?from=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"x\":1}";

    #[test]
    fn endless_request_line_is_too_large_after_the_head_budget() {
        let line = vec![b'A'; 4 * MAX_HEAD_BYTES];
        match read_request(&line[..], 1024) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_header_line_is_too_large() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'p', MAX_HEAD_BYTES));
        raw.extend_from_slice(b"\r\n\r\n");
        match read_request(&raw[..], 1024) {
            Err(HttpError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_head_is_connection_closed() {
        let head_end = REQUEST.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        for cut in [0, 5, 20, head_end, head_end + 3] {
            match read_request(&REQUEST[..cut], 1024) {
                Err(HttpError::ConnectionClosed) => {}
                other => panic!("cut at {cut}: expected ConnectionClosed, got {other:?}"),
            }
        }
    }

    #[test]
    fn byte_at_a_time_reader_parses_the_same_request() {
        let whole = read_request(REQUEST, 1024).unwrap();
        let dripped = read_request(
            Drip {
                data: REQUEST,
                step: 1,
            },
            1024,
        )
        .unwrap();
        for req in [&whole, &dripped] {
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/jobs/7/events");
            assert_eq!(req.query, "from=3");
            assert_eq!(req.body, br#"{"x":1}"#);
        }
    }

    #[test]
    fn bad_query_integer_names_the_key() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/jobs/1".into(),
            query: "wait_ms=soon".into(),
            body: Vec::new(),
        };
        let err = req.query_u64("wait_ms", 0).unwrap_err();
        assert!(err.contains("wait_ms"), "{err}");
        assert!(err.contains("soon"), "{err}");
    }

    /// A seeded valid request: its bytes and the request they parse to.
    fn random_request(rng: &mut SplitMix64) -> (Vec<u8>, Request) {
        let method = ["GET", "POST", "DELETE", "put"][rng.range_u64(0, 4) as usize];
        let path = format!("/v1/jobs/{}", rng.range_u64(0, 1000));
        let query = match rng.range_u64(0, 3) {
            0 => String::new(),
            _ => format!("from={}&wait_ms={}", rng.next_u64() % 100, rng.next_u64()),
        };
        let body: Vec<u8> = (0..rng.range_u64(0, 48))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let target = if query.is_empty() {
            path.clone()
        } else {
            format!("{path}?{query}")
        };
        let mut raw = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
        for i in 0..rng.range_u64(0, 4) {
            let pad: String = (0..rng.range_u64(0, 40))
                .map(|_| char::from(b'a' + rng.range_u64(0, 26) as u8))
                .collect();
            raw.extend(format!("X-Pad-{i}: {pad}\r\n").bytes());
        }
        if !body.is_empty() || rng.range_u64(0, 2) == 0 {
            let name = ["Content-Length", "content-length", "CONTENT-LENGTH"]
                [rng.range_u64(0, 3) as usize];
            raw.extend(format!("{name}: {}\r\n", body.len()).bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(&body);
        let request = Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            body,
        };
        (raw, request)
    }

    /// `raw` with its `Content-Length` value replaced by `value` (one is
    /// added first when the request has none).
    fn with_content_length(raw: &[u8], value: &str) -> Vec<u8> {
        let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 2;
        let mut head: Vec<String> = String::from_utf8_lossy(&raw[..head_end])
            .split("\r\n")
            .filter(|line| !line.is_empty())
            .filter(|line| !line.to_ascii_lowercase().starts_with("content-length:"))
            .map(str::to_string)
            .collect();
        head.push(format!("Content-Length: {value}"));
        let mut out = (head.join("\r\n") + "\r\n\r\n").into_bytes();
        out.extend_from_slice(&raw[head_end + 2..]);
        out
    }

    /// Hostile inputs — torn requests, oversized heads and bodies, lying
    /// and non-numeric `Content-Length`s — read whole and drip-fed 1–7
    /// bytes per `read`: each either parses to exactly what an unbroken
    /// read of the same bytes gives, or is an `HttpError`; nothing
    /// panics.
    #[test]
    fn hostile_requests_parse_exactly_or_fail_cleanly() {
        const MAX_BODY: usize = 64;
        let mut rng = SplitMix64::new(0x5EED_0010);
        for case in 0..600 {
            let (raw, request) = random_request(&mut rng);
            let (bytes, expect): (Vec<u8>, Result<Request, &str>) = match case % 6 {
                0 => (raw, Ok(request)),
                1 => {
                    let cut = rng.range_u64(0, raw.len() as u64) as usize;
                    (raw[..cut].to_vec(), Err("torn"))
                }
                2 => {
                    let pad = "h".repeat(MAX_HEAD_BYTES + rng.range_u64(0, 64) as usize);
                    let at = raw.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
                    let mut bytes = raw[..at].to_vec();
                    bytes.extend(format!("X-Big: {pad}\r\n").bytes());
                    bytes.extend_from_slice(&raw[at..]);
                    (bytes, Err("too large"))
                }
                3 => {
                    let len = MAX_BODY + 1 + rng.range_u64(0, 1 << 40) as usize;
                    (
                        with_content_length(&raw, &len.to_string()),
                        Err("too large"),
                    )
                }
                4 => {
                    let len = request.body.len();
                    let claim = rng.range_u64(0, len as u64 + 8) as usize;
                    let bytes = with_content_length(&raw, &claim.to_string());
                    if claim <= len {
                        let mut short = request.clone();
                        short.body.truncate(claim);
                        (bytes, Ok(short))
                    } else {
                        (bytes, Err("short body"))
                    }
                }
                _ => {
                    let junk = [
                        "",
                        "abc",
                        "-1",
                        "+7",
                        "1.5",
                        "0x10",
                        "7 7",
                        "١٢",
                        "18446744073709551616",
                    ][rng.range_u64(0, 9) as usize];
                    (with_content_length(&raw, junk), Err("bad length"))
                }
            };
            let whole = read_request(&bytes[..], MAX_BODY);
            let step = rng.range_u64(1, 8) as usize;
            let dripped = read_request(Drip { data: &bytes, step }, MAX_BODY);
            let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(200)]).into_owned();
            match (&whole, &dripped) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}, step {step}: {shown:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!("case {case}, step {step}: whole {whole:?} vs dripped {dripped:?}"),
            }
            match (expect, whole) {
                (Ok(want), Ok(got)) => assert_eq!(got, want, "case {case}: {shown:?}"),
                (Err(kind), Err(e)) => {
                    let fits = match kind {
                        "too large" => matches!(e, HttpError::TooLarge(_)),
                        "bad length" => matches!(e, HttpError::Malformed(_)),
                        _ => true,
                    };
                    assert!(fits, "case {case}: {kind} input gave {e:?}: {shown:?}");
                }
                (want, got) => panic!("case {case}: expected {want:?}, got {got:?}: {shown:?}"),
            }
        }
    }
}
