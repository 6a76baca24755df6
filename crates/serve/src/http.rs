//! Hand-rolled HTTP/1.1 message layer.
//!
//! The build environment has no crates.io access, so this module implements
//! the small slice of HTTP/1.1 the service needs on top of `std` only:
//!
//! * an **incremental** request parser ([`RequestParser`]): bytes are fed in
//!   whatever chunks the socket delivers, and a [`Request`] materializes
//!   once the head and body are complete — no assumption that a read
//!   boundary aligns with a message boundary,
//! * `Content-Length` and `Transfer-Encoding: chunked` request bodies,
//! * keep-alive with pipelining (left-over bytes after one message seed the
//!   next),
//! * hard limits on head and body size so a hostile peer cannot balloon
//!   memory — violations surface as parse errors mapped to 400/413/431.
//!
//! Parsing is deliberately strict where it is cheap to be (malformed
//! request lines, non-numeric `Content-Length`, bad chunk sizes are errors,
//! never hangs) and lenient where real clients vary (header whitespace,
//! case-insensitive names, bare-LF line endings).

use qca_trace::json::Json;
use std::fmt;

/// Default cap on the request head (request line + headers), bytes.
pub const DEFAULT_MAX_HEAD: usize = 16 * 1024;
/// Default cap on the request body, bytes.
pub const DEFAULT_MAX_BODY: usize = 4 * 1024 * 1024;
/// Cap on the number of headers in one request.
const MAX_HEADERS: usize = 128;

/// One fully received HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Raw request target (path plus optional `?query`).
    pub target: String,
    /// Protocol version (`HTTP/1.1` or `HTTP/1.0`).
    pub version: String,
    /// Header name/value pairs in arrival order; names as sent.
    pub headers: Vec<(String, String)>,
    /// Decoded request body (chunked bodies arrive de-chunked).
    pub body: Vec<u8>,
}

impl Request {
    /// The path component of the target (before any `?`).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => &self.target,
        }
    }

    /// The raw query string (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// The first header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The value of query parameter `name` (`k=v`, separated by `&`).
    /// Parameters without `=` yield `""`. No percent-decoding — the API
    /// only uses token values.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query()?.split('&').find_map(|pair| {
            let (k, v) = match pair.split_once('=') {
                Some((k, v)) => (k, v),
                None => (pair, ""),
            };
            (k == name).then_some(v)
        })
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 defaults to close unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("");
        if self.version == "HTTP/1.0" {
            conn.eq_ignore_ascii_case("keep-alive")
        } else {
            !conn.eq_ignore_ascii_case("close")
        }
    }
}

/// Why a request could not be parsed. Maps onto an HTTP status via
/// [`ParseError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed syntax (bad request line, header, chunk size, ...) → 400.
    Bad(&'static str),
    /// The head exceeded the configured limit → 431.
    HeadTooLarge,
    /// The declared or accumulated body exceeded the limit → 413.
    BodyTooLarge,
}

impl ParseError {
    /// The HTTP status code this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::Bad(_) => 400,
            ParseError::HeadTooLarge => 431,
            ParseError::BodyTooLarge => 413,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Bad(msg) => write!(f, "malformed request: {msg}"),
            ParseError::HeadTooLarge => f.write_str("request head too large"),
            ParseError::BodyTooLarge => f.write_str("request body too large"),
        }
    }
}

impl std::error::Error for ParseError {}

/// How the body of the message being parsed is delimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BodyMode {
    /// Exactly this many bytes follow the head.
    Length(usize),
    /// `Transfer-Encoding: chunked`.
    Chunked,
}

#[derive(Debug)]
enum State {
    /// Collecting the request line and headers.
    Head,
    /// Head parsed; collecting the body.
    Body {
        head: Request,
        mode: BodyMode,
        body: Vec<u8>,
        /// Chunked sub-state: bytes still owed by the current chunk
        /// (`None` while expecting a chunk-size line; `Some(0)` while
        /// expecting the CRLF after a chunk; for `Length` bodies unused).
        chunk_remaining: Option<usize>,
        /// Chunked: the final `0` chunk was seen; skipping trailers.
        in_trailers: bool,
    },
}

/// Incremental HTTP/1.1 request parser. Feed it raw socket bytes with
/// [`RequestParser::feed`]; it returns a [`Request`] whenever one completes
/// and retains any pipelined left-over bytes for the next message.
///
/// The parser never panics on any byte sequence, and every malformed input
/// is rejected with a [`ParseError`] after a bounded amount of buffered
/// data — properties pinned by the `http_proptest` suite.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    state: State,
    max_head: usize,
    max_body: usize,
}

impl Default for RequestParser {
    fn default() -> Self {
        RequestParser::new()
    }
}

impl RequestParser {
    /// A parser with the default head/body limits.
    pub fn new() -> RequestParser {
        RequestParser::with_limits(DEFAULT_MAX_HEAD, DEFAULT_MAX_BODY)
    }

    /// A parser with explicit head and body size limits (bytes).
    pub fn with_limits(max_head: usize, max_body: usize) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            state: State::Head,
            max_head,
            max_body,
        }
    }

    /// Whether no bytes of a next message have been received — i.e. the
    /// connection is between requests and may be closed without data loss.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Head) && self.buf.is_empty()
    }

    /// Feeds `bytes` into the parser. Returns `Ok(Some(request))` when a
    /// full message is available, `Ok(None)` when more bytes are needed.
    /// After an `Err` the parser state is undefined; close the connection.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, ParseError> {
        self.buf.extend_from_slice(bytes);
        loop {
            match &mut self.state {
                State::Head => {
                    let Some(head_len) = find_head_end(&self.buf) else {
                        if self.buf.len() > self.max_head {
                            return Err(ParseError::HeadTooLarge);
                        }
                        return Ok(None);
                    };
                    if head_len > self.max_head {
                        return Err(ParseError::HeadTooLarge);
                    }
                    let head_bytes = self.buf.drain(..head_len).collect::<Vec<u8>>();
                    let head = parse_head(&head_bytes)?;
                    let mode = body_mode(&head, self.max_body)?;
                    match mode {
                        None => return Ok(Some(head)),
                        Some(mode) => {
                            self.state = State::Body {
                                head,
                                mode,
                                body: Vec::new(),
                                chunk_remaining: None,
                                in_trailers: false,
                            };
                        }
                    }
                }
                State::Body {
                    head,
                    mode,
                    body,
                    chunk_remaining,
                    in_trailers,
                } => {
                    match mode {
                        BodyMode::Length(len) => {
                            let need = *len - body.len();
                            let take = need.min(self.buf.len());
                            body.extend(self.buf.drain(..take));
                            if body.len() < *len {
                                return Ok(None);
                            }
                        }
                        BodyMode::Chunked => {
                            if !drain_chunked(
                                &mut self.buf,
                                body,
                                chunk_remaining,
                                in_trailers,
                                self.max_body,
                            )? {
                                return Ok(None);
                            }
                        }
                    }
                    let mut request = std::mem::replace(
                        head,
                        Request {
                            method: String::new(),
                            target: String::new(),
                            version: String::new(),
                            headers: Vec::new(),
                            body: Vec::new(),
                        },
                    );
                    request.body = std::mem::take(body);
                    self.state = State::Head;
                    return Ok(Some(request));
                }
            }
        }
    }
}

/// Byte length of the head including the blank line, if complete.
/// Accepts both CRLF and bare-LF line endings.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    // Scan for "\n\r\n" or "\n\n" — the first blank line.
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if buf.get(i + 1) == Some(&b'\n') {
                return Some(i + 2);
            }
            if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

fn parse_head(bytes: &[u8]) -> Result<Request, ParseError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ParseError::Bad("head is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().ok_or(ParseError::Bad("empty head"))?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::Bad("missing method"))?;
    let target = parts.next().ok_or(ParseError::Bad("missing target"))?;
    let version = parts.next().ok_or(ParseError::Bad("missing version"))?;
    if parts.next().is_some() {
        return Err(ParseError::Bad("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(ParseError::Bad("bad method"));
    }
    if !target.starts_with('/') && target != "*" {
        return Err(ParseError::Bad("bad target"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Bad("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator line
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::Bad("header line without colon"))?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::Bad("bad header name"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::Bad("too many headers"));
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    })
}

fn body_mode(head: &Request, max_body: usize) -> Result<Option<BodyMode>, ParseError> {
    if let Some(te) = head.header("transfer-encoding") {
        if !te.eq_ignore_ascii_case("chunked") {
            return Err(ParseError::Bad("unsupported transfer-encoding"));
        }
        return Ok(Some(BodyMode::Chunked));
    }
    match head.header("content-length") {
        None => Ok(None),
        Some(v) => {
            let len: usize = v
                .trim()
                .parse()
                .map_err(|_| ParseError::Bad("bad content-length"))?;
            if len > max_body {
                return Err(ParseError::BodyTooLarge);
            }
            Ok((len > 0).then_some(BodyMode::Length(len)))
        }
    }
}

/// Advances chunked decoding with whatever is buffered. Returns `true` when
/// the final chunk and trailers have been consumed.
fn drain_chunked(
    buf: &mut Vec<u8>,
    body: &mut Vec<u8>,
    chunk_remaining: &mut Option<usize>,
    in_trailers: &mut bool,
    max_body: usize,
) -> Result<bool, ParseError> {
    loop {
        if *in_trailers {
            // Trailers end at the first empty line; we discard them.
            let Some(line_end) = find_line(buf) else {
                if buf.len() > 1024 {
                    return Err(ParseError::Bad("oversized chunk trailers"));
                }
                return Ok(false);
            };
            let line: Vec<u8> = buf.drain(..line_end.1).collect();
            if line[..line_end.0].is_empty() {
                return Ok(true);
            }
            continue;
        }
        match *chunk_remaining {
            None => {
                // Expect a chunk-size line: hex digits, optional extension.
                let Some((content_len, total_len)) = find_line(buf) else {
                    if buf.len() > 128 {
                        return Err(ParseError::Bad("oversized chunk-size line"));
                    }
                    return Ok(false);
                };
                let line: Vec<u8> = buf.drain(..total_len).collect();
                let text = std::str::from_utf8(&line[..content_len])
                    .map_err(|_| ParseError::Bad("chunk size is not UTF-8"))?;
                let size_str = text.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(size_str, 16)
                    .map_err(|_| ParseError::Bad("bad chunk size"))?;
                if body.len().saturating_add(size) > max_body {
                    return Err(ParseError::BodyTooLarge);
                }
                if size == 0 {
                    *in_trailers = true;
                } else {
                    *chunk_remaining = Some(size);
                }
            }
            Some(0) => {
                // The CRLF (or LF) that terminates a chunk's data.
                if buf.is_empty() {
                    return Ok(false);
                }
                if buf[0] == b'\n' {
                    buf.drain(..1);
                } else if buf[0] == b'\r' {
                    if buf.len() < 2 {
                        return Ok(false);
                    }
                    if buf[1] != b'\n' {
                        return Err(ParseError::Bad("chunk data not CRLF-terminated"));
                    }
                    buf.drain(..2);
                } else {
                    return Err(ParseError::Bad("chunk data not CRLF-terminated"));
                }
                *chunk_remaining = None;
            }
            Some(ref mut remaining) => {
                if buf.is_empty() {
                    return Ok(false);
                }
                let take = (*remaining).min(buf.len());
                body.extend(buf.drain(..take));
                *remaining -= take;
                if *remaining > 0 {
                    return Ok(false);
                }
                *chunk_remaining = Some(0);
            }
        }
    }
}

/// `(content_len, total_len)` of the first line in `buf`, where content
/// excludes the terminator and total includes it. Accepts CRLF and LF.
fn find_line(buf: &[u8]) -> Option<(usize, usize)> {
    let nl = buf.iter().position(|&b| b == b'\n')?;
    let content = if nl > 0 && buf[nl - 1] == b'\r' {
        nl - 1
    } else {
        nl
    };
    Some((content, nl + 1))
}

/// Reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added when
    /// serialized).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    pub fn new(status: u16) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// A JSON response: `body` in compact form plus a newline (sets
    /// `Content-Type: application/json`).
    pub fn json(status: u16, body: Json) -> Response {
        let mut text = body.to_string_compact();
        text.push('\n');
        Response::new(status)
            .with_header("Content-Type", "application/json")
            .with_body(text.into_bytes())
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response::new(status)
            .with_header("Content-Type", "text/plain; charset=utf-8")
            .with_body(body.as_bytes().to_vec())
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Sets the body.
    pub fn with_body(mut self, body: Vec<u8>) -> Response {
        self.body = body;
        self
    }

    /// Serializes the response head and body into one buffer.
    pub fn serialize(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\n",
                self.status,
                status_reason(self.status)
            )
            .as_bytes(),
        );
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        let conn = if keep_alive { "keep-alive" } else { "close" };
        out.extend_from_slice(format!("Connection: {conn}\r\n\r\n").as_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(input: &[u8]) -> Result<Option<Request>, ParseError> {
        RequestParser::new().feed(input)
    }

    #[test]
    fn parses_simple_get() {
        let req = parse_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn parses_content_length_body_across_splits() {
        let raw = b"POST /v1/adapt?objective=idle HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // Every split point must yield the same request.
        for cut in 0..raw.len() {
            let mut p = RequestParser::new();
            assert_eq!(p.feed(&raw[..cut]).unwrap(), None, "cut={cut}");
            let req = p.feed(&raw[cut..]).unwrap().expect("complete");
            assert_eq!(req.body, b"hello");
            assert_eq!(req.query_param("objective"), Some("idle"));
        }
    }

    #[test]
    fn parses_chunked_body() {
        let raw = b"POST /v1/adapt HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                    4\r\nqreg\r\n3\r\n q;\r\n0\r\n\r\n";
        for cut in 0..raw.len() {
            let mut p = RequestParser::new();
            let first = p.feed(&raw[..cut]).unwrap();
            let req = match first {
                Some(r) => r,
                None => p.feed(&raw[cut..]).unwrap().expect("complete"),
            };
            assert_eq!(req.body, b"qreg q;", "cut={cut}");
        }
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let mut p = RequestParser::new();
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let first = p.feed(raw).unwrap().unwrap();
        assert_eq!(first.path(), "/a");
        let second = p.feed(b"").unwrap().unwrap();
        assert_eq!(second.path(), "/b");
        assert!(p.is_idle());
    }

    #[test]
    fn malformed_inputs_are_errors_not_hangs() {
        for bad in [
            b"FOO BAR\r\n\r\n".as_slice(),
            b"GET /x HTTP/2.0\r\n\r\n",
            b"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n",
            b"G\x00T /x HTTP/1.1\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
            b"relative HTTP/1.1\r\n\r\n",
        ] {
            assert!(
                parse_all(bad).is_err(),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn oversized_head_and_body_are_limited() {
        let mut p = RequestParser::with_limits(64, 64);
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(200));
        assert_eq!(p.feed(long.as_bytes()), Err(ParseError::HeadTooLarge));
        let mut p = RequestParser::with_limits(1024, 8);
        let big = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert_eq!(p.feed(big), Err(ParseError::BodyTooLarge));
        assert_eq!(ParseError::BodyTooLarge.status(), 413);
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let resp = Response::json(200, Json::obj([("ok", true.into())]));
        let bytes = resp.serialize(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}\n"));
        let text = String::from_utf8(Response::new(429).serialize(false)).unwrap();
        assert!(text.contains("Connection: close"));
        assert!(text.contains("429 Too Many Requests"));
    }
}
