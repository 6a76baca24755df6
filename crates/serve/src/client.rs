//! Minimal blocking HTTP/1.1 client on `std::net`.
//!
//! Powers the `qca-load` load generator and the integration tests. One
//! [`Connection`] holds one keep-alive TCP connection; requests are issued
//! sequentially on it.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, or write).
    Io(io::Error),
    /// The peer's bytes did not form a valid HTTP/1.1 response.
    Malformed(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Malformed(msg) => write!(f, "malformed response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (200, 429, ...).
    pub status: u16,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The first header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Connection {
    /// Connects with the given timeout (also installed as the read/write
    /// timeout for subsequent requests).
    pub fn connect(addr: SocketAddr, timeout: Duration) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Connection {
            stream,
            buf: Vec::new(),
        })
    }

    /// Overrides the read timeout (e.g. for long-running adaptations).
    pub fn set_read_timeout(&self, timeout: Duration) -> Result<(), ClientError> {
        self.stream.set_read_timeout(Some(timeout))?;
        Ok(())
    }

    /// Issues one request and reads the response. `target` is the raw
    /// path-plus-query; `body` may be empty (e.g. for `GET`).
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<HttpResponse, ClientError> {
        self.request_with_headers(method, target, &[], body)
    }

    /// Like [`Connection::request`], with extra headers (e.g. the
    /// `X-QCA-Forwarded` hop marker used by shard forwarding).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<HttpResponse, ClientError> {
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: qca-serve\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<HttpResponse, ClientError> {
        // Accumulate until the blank line ending the head is in the buffer.
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(ClientError::Malformed("response head too large"));
            }
            if !self.fill()? {
                return Err(ClientError::Malformed("connection closed mid-response"));
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.lines();
        let status_line = lines.next().ok_or(ClientError::Malformed("empty head"))?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(ClientError::Malformed("bad status line"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(ClientError::Malformed("bad status code"))?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or(ClientError::Malformed("bad header"))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let content_length: Option<usize> = match headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        {
            Some((_, v)) => Some(
                v.parse()
                    .map_err(|_| ClientError::Malformed("bad content-length"))?,
            ),
            None => None,
        };
        self.buf.drain(..head_end);
        // RFC 9112 §6.3: 1xx, 204, and 304 responses never carry a body,
        // regardless of headers. Otherwise Content-Length delimits the body;
        // without it the body runs until the server closes the connection.
        let body: Vec<u8> = if status / 100 == 1 || status == 204 || status == 304 {
            Vec::new()
        } else if let Some(len) = content_length {
            while self.buf.len() < len {
                if !self.fill()? {
                    return Err(ClientError::Malformed("connection closed mid-response"));
                }
            }
            self.buf.drain(..len).collect()
        } else {
            while self.fill()? {}
            self.buf.drain(..).collect()
        };
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads one chunk into the buffer. Returns `Ok(false)` on clean EOF.
    fn fill(&mut self) -> Result<bool, ClientError> {
        let mut chunk = [0u8; 8192];
        match self.stream.read(&mut chunk)? {
            0 => Ok(false),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
        }
    }
}

/// Index just past the head-terminating blank line (`\r\n\r\n` or `\n\n`).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// Best-effort raise of the soft `RLIMIT_NOFILE` to `want` (raw libc FFI), so
/// one process can hold thousands of sockets; if it fails, `connect` says so.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn raise_nofile_limit(want: u64) {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    // SAFETY: `RLimit` has the layout of `struct rlimit` on 64-bit Linux
    // (two 64-bit `rlim_t`), and each call gets a pointer to a live one.
    unsafe {
        let mut limit = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut limit) == 0 && limit.cur < want && limit.max >= want {
            limit.cur = want;
            let _ = setrlimit(RLIMIT_NOFILE, &limit);
        }
    }
}

/// Best-effort `RLIMIT_NOFILE` raise: a no-op off 64-bit Linux.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn raise_nofile_limit(_want: u64) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_head_end_handles_both_conventions() {
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\n\nbody"), Some(17));
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\n"), None);
    }

    /// Serves one connection with the canned bytes, then closes it.
    fn canned_server(response: &'static [u8]) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            let _ = stream.read(&mut sink);
            stream.write_all(response).unwrap();
        });
        addr
    }

    fn connect(addr: SocketAddr) -> Connection {
        Connection::connect(addr, Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn accepts_204_without_content_length() {
        let addr = canned_server(b"HTTP/1.1 204 No Content\r\nServer: canned\r\n\r\n");
        let resp = connect(addr).request("GET", "/healthz", b"").unwrap();
        assert_eq!(resp.status, 204);
        assert!(resp.body.is_empty());
        assert_eq!(resp.header("server"), Some("canned"));
    }

    #[test]
    fn accepts_304_without_content_length() {
        let addr = canned_server(b"HTTP/1.1 304 Not Modified\r\n\r\n");
        let resp = connect(addr).request("GET", "/jobs/1", b"").unwrap();
        assert_eq!(resp.status, 304);
        assert!(resp.body.is_empty());
    }

    #[test]
    fn reads_close_delimited_body_to_eof() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"ok\":true}");
        let resp = connect(addr).request("GET", "/metrics", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), "{\"ok\":true}");
    }

    #[test]
    fn content_length_still_delimits_keep_alive_bodies() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nbodytrailing");
        let resp = connect(addr).request("GET", "/", b"").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_text(), "body");
    }

    #[test]
    fn rejects_unparsable_content_length() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nContent-Length: nope\r\n\r\n");
        let err = connect(addr).request("GET", "/", b"").unwrap_err();
        assert!(matches!(err, ClientError::Malformed("bad content-length")));
    }

    #[test]
    fn rejects_eof_mid_head() {
        let addr = canned_server(b"HTTP/1.1 200 OK\r\nCont");
        let err = connect(addr).request("GET", "/", b"").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Malformed("connection closed mid-response")
        ));
    }
}
