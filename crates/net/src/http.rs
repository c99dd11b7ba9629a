//! A minimal, dependency-free HTTP/1.1 implementation on `std::io`.
//!
//! This is deliberately not a general web server: it implements exactly the
//! subset the gateway speaks — request framing with hard size limits,
//! keep-alive connection reuse, fixed-length and chunked responses — and
//! nothing else. Every limit sheds with a typed [`HttpError`] that the
//! server maps to a 4xx status, never by closing the socket silently, so a
//! misbehaving client learns *why* it was refused.
//!
//! The reader distinguishes three ways a read can end without a request:
//!
//! - [`HttpError::Closed`] — the peer shut down cleanly between requests
//!   (the normal end of a keep-alive session);
//! - [`HttpError::Idle`] — the socket's read timeout expired before the
//!   *first* byte of a new request (the connection is fine; the handler
//!   uses this to poll its shutdown flag);
//! - [`HttpError::Io`] — the connection died mid-request.

use std::io::{self, BufRead, IoSlice, Write};

/// Hard limits on request framing. Exceeding any of them is a typed
/// refusal, not a hang or an unbounded allocation.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub max_request_line: usize,
    /// Most header lines per request.
    pub max_headers: usize,
    /// Longest accepted single header line.
    pub max_header_line: usize,
    /// Largest accepted body.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_request_line: 8 * 1024,
            max_headers: 64,
            max_header_line: 8 * 1024,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// A parsed request: the framing the gateway routes on.
#[derive(Debug)]
pub struct HttpRequest {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path and query, unparsed).
    pub path: String,
    /// `true` for HTTP/1.1, `false` for HTTP/1.0.
    pub http11: bool,
    /// Header name/value pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should be reused after this request:
    /// HTTP/1.1 defaults to keep-alive, 1.0 to close, and an explicit
    /// `Connection` header overrides either way.
    pub(crate) fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Clean close between requests — the normal keep-alive ending.
    Closed,
    /// Read timeout with zero bytes of a new request consumed; the caller
    /// decides whether to keep waiting.
    Idle,
    /// A framing limit was exceeded; the payload names which.
    TooLarge(&'static str),
    /// Syntactically invalid framing.
    Malformed(String),
    /// The connection failed mid-request.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Idle => write!(f, "idle timeout"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds limit"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one CRLF- (or LF-) terminated line, capped at `max` bytes. Returns
/// the line without its terminator. `consumed_any` reports whether any byte
/// of this request was already read (turns a timeout from `Idle` into
/// `Io`).
fn read_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    what: &'static str,
    consumed_any: &mut bool,
) -> Result<String, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if is_timeout(&e) && !*consumed_any && line.is_empty() => {
                return Err(HttpError::Idle)
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if buf.is_empty() {
            // EOF. At the very start of a request this is a clean close.
            if !*consumed_any && line.is_empty() {
                return Err(HttpError::Closed);
            }
            return Err(HttpError::Malformed(format!("{what}: unexpected EOF")));
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                *consumed_any = true;
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if line.len() > max {
                    return Err(HttpError::TooLarge(what));
                }
                return String::from_utf8(line)
                    .map_err(|_| HttpError::Malformed(format!("{what}: not UTF-8")));
            }
            None => {
                let n = buf.len();
                line.extend_from_slice(buf);
                reader.consume(n);
                *consumed_any = true;
                if line.len() > max {
                    return Err(HttpError::TooLarge(what));
                }
            }
        }
    }
}

/// Read and frame one request from `reader`, enforcing `limits`.
///
/// # Errors
///
/// See [`HttpError`]; notably [`HttpError::Idle`] when the socket's read
/// timeout fires before a request starts, and [`HttpError::Closed`] on a
/// clean peer close between requests.
pub fn read_request<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<HttpRequest, HttpError> {
    let mut consumed = false;
    let request_line = read_line(
        reader,
        limits.max_request_line,
        "request line",
        &mut consumed,
    )?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "request line `{request_line}`"
            )))
        }
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::Malformed(format!("version `{other}`"))),
    };
    let mut headers = Vec::new();
    loop {
        if headers.len() > limits.max_headers {
            return Err(HttpError::TooLarge("header count"));
        }
        let line = read_line(reader, limits.max_header_line, "header line", &mut consumed)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("content-length `{v}`")))?,
        None => 0,
    };
    if content_length > limits.max_body {
        return Err(HttpError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(HttpError::Io)?;
    }
    Ok(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        http11,
        headers,
        body,
    })
}

/// Canonical reason phrase for the statuses the gateway emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

/// Write a fixed-length response as one gather-write of `[head, body]`:
/// the body is not copied, and head and body leave in the same segment. A
/// head written on its own is a small packet the peer may hold its ACK for
/// (≈ 40 ms) while Nagle's algorithm holds the body back waiting for it.
///
/// # Errors
///
/// Propagates write failures on the connection.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let (mut head, mut body) = (head.as_bytes(), body);
    // `write_vectored` may stop short anywhere in either slice.
    while !head.is_empty() || !body.is_empty() {
        let n = match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let of_head = n.min(head.len());
        head = &head[of_head..];
        body = &body[n - of_head..];
    }
    w.flush()
}

/// Stream `text` as a chunked response, cutting chunks at line boundaries
/// (each chunk holds whole lines totalling at least `chunk_hint` bytes).
/// Line-aligned chunks keep a line-oriented payload — Prometheus
/// exposition, NDJSON — greppable even in the raw on-wire form.
///
/// # Errors
///
/// Propagates write failures on the connection.
pub(crate) fn write_chunked<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    text: &str,
    chunk_hint: usize,
    keep_alive: bool,
) -> io::Result<()> {
    // Assembled whole and written once, for the reason on `write_response`.
    let mut out = Vec::with_capacity(256 + text.len() + 16 * (text.len() / chunk_hint.max(1)));
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    let mut start = 0;
    while start < text.len() {
        // Grow the chunk line by line until it reaches the hint (or the
        // remainder runs out).
        let mut end = start;
        while end < text.len() && end - start < chunk_hint {
            end = match text[end..].find('\n') {
                Some(pos) => end + pos + 1,
                None => text.len(),
            };
        }
        let chunk = &text[start..end];
        write!(out, "{:x}\r\n", chunk.len())?;
        out.extend_from_slice(chunk.as_bytes());
        out.extend_from_slice(b"\r\n");
        start = end;
    }
    out.extend_from_slice(b"0\r\n\r\n");
    w.write_all(&out)?;
    w.flush()
}

/// A parsed response (used by tests, the CI smoke client, and any embedded
/// caller that wants to talk to the gateway without an HTTP library).
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The decoded body (de-chunked when the response was chunked).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics on invalid UTF-8 — client-side helper).
    #[allow(clippy::expect_used)] // tests and load generators read their own replies
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }
}

/// Read one response, decoding `Content-Length` or chunked framing.
///
/// # Errors
///
/// [`HttpError::Malformed`] on framing violations, [`HttpError::Io`] on
/// connection failures.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<HttpResponse, HttpError> {
    let mut consumed = false;
    let limits = Limits::default();
    let status_line = read_line(
        reader,
        limits.max_request_line,
        "status line",
        &mut consumed,
    )?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| HttpError::Malformed(format!("status line `{status_line}`")))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, limits.max_header_line, "header line", &mut consumed)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line(reader, 32, "chunk size", &mut consumed)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| HttpError::Malformed(format!("chunk size `{size_line}`")))?;
            if size == 0 {
                // Trailer-free: expect the final blank line.
                let _ = read_line(reader, limits.max_header_line, "trailer", &mut consumed)?;
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            reader.read_exact(&mut body[at..]).map_err(HttpError::Io)?;
            let blank = read_line(reader, 8, "chunk terminator", &mut consumed)?;
            if !blank.is_empty() {
                return Err(HttpError::Malformed("chunk not CRLF-terminated".into()));
            }
        }
    } else {
        let len = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        body.resize(len, 0);
        reader.read_exact(&mut body).map_err(HttpError::Io)?;
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<HttpRequest, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), &Limits::default())
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let req = parse(
            "POST /v1/infer HTTP/1.1\r\nHost: x\r\nTimeout-Ms: 250\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer");
        assert!(req.http11);
        assert_eq!(req.header("timeout-ms"), Some("250"));
        assert_eq!(req.header("TIMEOUT-MS"), Some("250"));
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive(), "1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_overrides_version_default() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive(), "1.0 defaults to close");
    }

    #[test]
    fn malformed_framing_is_typed() {
        assert!(matches!(
            parse("HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: soon\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn limits_shed_with_typed_errors() {
        let limits = Limits {
            max_request_line: 16,
            max_headers: 2,
            max_header_line: 32,
            max_body: 8,
        };
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        assert!(matches!(
            read_request(&mut BufReader::new(long_line.as_bytes()), &limits),
            Err(HttpError::TooLarge("request line"))
        ));
        let many = "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\nd: 4\r\n\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(many.as_bytes()), &limits),
            Err(HttpError::TooLarge("header count"))
        ));
        let big = "POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(big.as_bytes()), &limits),
            Err(HttpError::TooLarge("body"))
        ));
    }

    #[test]
    fn clean_close_and_truncation_differ() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(parse("GET / HT"), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn fixed_response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "application/json", b"{\"ok\":true}", true).unwrap();
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.text(), "{\"ok\":true}");
    }

    #[test]
    fn chunked_response_round_trips_and_cuts_at_line_boundaries() {
        let payload: String = (0..100).map(|i| format!("metric_{i} {i}\n")).collect();
        let mut wire = Vec::new();
        write_chunked(&mut wire, 200, "text/plain", &payload, 256, false).unwrap();
        // Every chunk the writer produced ends on a line boundary, so the
        // raw wire form never splits a metric line across chunks.
        let raw = String::from_utf8(wire.clone()).unwrap();
        let body_at = raw.find("\r\n\r\n").unwrap() + 4;
        let mut rest = &raw[body_at..];
        while !rest.starts_with("0\r\n") {
            let (size_str, after) = rest.split_once("\r\n").unwrap();
            let size = usize::from_str_radix(size_str, 16).unwrap();
            assert!(after.as_bytes()[size - 1] == b'\n', "chunk ends mid-line");
            rest = &after[size + 2..];
        }
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), payload);
    }

    #[test]
    fn empty_chunked_body_is_valid() {
        let mut wire = Vec::new();
        write_chunked(&mut wire, 200, "text/plain", "", 256, true).unwrap();
        let resp = read_response(&mut BufReader::new(wire.as_slice())).unwrap();
        assert_eq!(resp.body, b"");
    }
}
