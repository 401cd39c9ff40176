//! A minimal HTTP/1.1 layer over raw byte streams: request parsing with
//! hard limits, and response serialisation.
//!
//! This is not a general web server — it implements exactly the subset the
//! advisor service needs, defensively:
//!
//! - request head bounded by [`MAX_HEAD_BYTES`]; bodies bounded by the
//!   configured limit (oversize → `413`, *before* reading the body)
//! - `Content-Length` bodies only (`Transfer-Encoding` → `501`)
//! - keep-alive by default, honouring `Connection: close`
//! - read timeouts surface as [`RecvError::Timeout`] so slow-loris
//!   connections are dropped with a best-effort `408`
//!
//! Parsing is split into pure functions over byte slices (unit-testable
//! without sockets) plus [`Conn`], the buffered connection driver.

use std::io::{Read, Write};
use std::time::Duration;

/// Hard cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Per-connection policy: body cap and socket timeouts.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted `Content-Length` in bytes.
    pub max_body: usize,
    /// Socket read timeout (slow-loris guard).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_body: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method, e.g. `GET`.
    pub method: String,
    /// The request target as sent (path plus optional query).
    pub target: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// True when the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false)
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the connection before any request byte (normal end
    /// of a keep-alive session).
    Closed,
    /// The read timed out mid-request (slow-loris or stalled client).
    Timeout,
    /// The declared `Content-Length` exceeds the body limit → `413`.
    BodyTooLarge,
    /// The request used `Transfer-Encoding`, which this server does not
    /// implement → `501`.
    UnsupportedEncoding,
    /// The bytes were not a valid HTTP/1.1 request → `400`.
    Malformed(&'static str),
    /// Any other socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => f.write_str("connection closed"),
            RecvError::Timeout => f.write_str("read timed out"),
            RecvError::BodyTooLarge => f.write_str("request body exceeds the limit"),
            RecvError::UnsupportedEncoding => f.write_str("transfer-encoding not supported"),
            RecvError::Malformed(why) => write!(f, "malformed request: {why}"),
            RecvError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Splits `head` (bytes up to, excluding, the blank line) into a request
/// line and headers. Pure, so the edge cases are unit-testable.
pub fn parse_head(head: &[u8]) -> Result<Request, RecvError> {
    let text = std::str::from_utf8(head).map_err(|_| RecvError::Malformed("head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(RecvError::Malformed("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let target = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if parts.next().is_some() {
        return Err(RecvError::Malformed("request line has extra fields"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RecvError::Malformed("bad method token"));
    }
    if !target.starts_with('/') {
        return Err(RecvError::Malformed("target must be origin-form"));
    }
    if !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(RecvError::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RecvError::Malformed("header line without a colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(RecvError::Malformed("bad header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    })
}

/// A buffered connection that can read successive requests (keep-alive)
/// and retains pipelined bytes between them.
pub struct Conn<S: Read + Write> {
    stream: S,
    buf: Vec<u8>,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a stream (timeouts are configured on the stream itself by the
    /// server before wrapping).
    pub fn new(stream: S) -> Self {
        Self {
            stream,
            buf: Vec::new(),
        }
    }

    fn classify_io(e: std::io::Error) -> RecvError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RecvError::Timeout,
            std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::UnexpectedEof => {
                RecvError::Closed
            }
            _ => RecvError::Io(e),
        }
    }

    fn fill(&mut self) -> Result<usize, RecvError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(0),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e) => Err(Self::classify_io(e)),
        }
    }

    /// Reads and parses the next request, enforcing `limits`.
    pub fn read_request(&mut self, limits: &Limits) -> Result<Request, RecvError> {
        // accumulate the head
        let head_end = loop {
            if let Some(at) = find_subslice(&self.buf, b"\r\n\r\n") {
                break at;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(RecvError::Malformed("request head too large"));
            }
            if self.fill()? == 0 {
                if self.buf.is_empty() {
                    return Err(RecvError::Closed);
                }
                return Err(RecvError::Malformed("connection closed mid-head"));
            }
        };
        let mut request = parse_head(&self.buf[..head_end])?;
        let mut consumed = head_end + 4;
        if request.header("transfer-encoding").is_some() {
            self.buf.drain(..consumed);
            return Err(RecvError::UnsupportedEncoding);
        }
        let body_len = match request.header("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| RecvError::Malformed("bad content-length"))?,
        };
        if body_len > limits.max_body {
            // Do not read the body; the caller answers 413 and closes.
            self.buf.drain(..consumed);
            return Err(RecvError::BodyTooLarge);
        }
        while self.buf.len() < consumed + body_len {
            if self.fill()? == 0 {
                return Err(RecvError::Malformed("connection closed mid-body"));
            }
        }
        request.body = self.buf[consumed..consumed + body_len].to_vec();
        consumed += body_len;
        self.buf.drain(..consumed);
        Ok(request)
    }

    /// Serialises and sends a response.
    pub fn write_response(&mut self, response: &Response) -> std::io::Result<()> {
        let head = response.head();
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&response.body)?;
        self.stream.flush()
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// An HTTP response about to be serialised.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers emitted after `content-type` (e.g. `X-Blob-Trace`,
    /// `X-Blob-Shard`). Names are emitted as given; keep them lower-case.
    pub headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Close the connection after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// Marks the connection for closing after this response.
    pub fn with_close(mut self) -> Self {
        self.close = true;
        self
    }

    /// Appends an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// The first value of an extra header, by exact name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialises the status line and headers (with a trailing blank line).
    pub fn head(&self) -> String {
        let mut extra = String::new();
        for (name, value) in &self.headers {
            extra.push_str(name);
            extra.push_str(": ");
            extra.push_str(value);
            extra.push_str("\r\n");
        }
        format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{extra}content-length: {}\r\nconnection: {}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head_of(text: &str) -> Result<Request, RecvError> {
        parse_head(text.as_bytes())
    }

    #[test]
    fn parses_a_minimal_request_line() {
        let r = head_of("GET /healthz HTTP/1.1\r\nhost: x").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.target, "/healthz");
        assert_eq!(r.header("host"), Some("x"));
        assert!(!r.wants_close());
    }

    #[test]
    fn path_strips_query_and_headers_lowercase() {
        let r = head_of("POST /advise?x=1 HTTP/1.1\r\nContent-Type:  application/json").unwrap();
        assert_eq!(r.path(), "/advise");
        assert_eq!(r.header("content-type"), Some("application/json"));
    }

    #[test]
    fn connection_close_detected() {
        let r = head_of("GET / HTTP/1.1\r\nConnection: Close").unwrap();
        assert!(r.wants_close());
    }

    #[test]
    fn malformed_heads_rejected() {
        for bad in [
            "",
            "GET\r\n",
            "get / HTTP/1.1",
            "GET nope HTTP/1.1",
            "GET / HTTP/2.0",
            "GET / HTTP/1.1 extra",
            "GET / HTTP/1.1\r\nbad header line",
            "GET / HTTP/1.1\r\nbad name: x",
        ] {
            assert!(head_of(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn response_head_has_length_and_connection() {
        let r = Response::json(200, "{}".to_string());
        let head = r.head();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("content-length: 2\r\n"));
        assert!(head.contains("connection: keep-alive\r\n"));
        let closed = Response::text(400, "no").with_close();
        assert!(closed.head().contains("connection: close"));
    }

    #[test]
    fn extra_headers_are_emitted_and_readable() {
        let r = Response::json(200, "{}".to_string())
            .with_header("x-blob-trace", "00000000deadbeef")
            .with_header("deprecation", "true");
        assert_eq!(r.header("x-blob-trace"), Some("00000000deadbeef"));
        let head = r.head();
        assert!(
            head.contains("x-blob-trace: 00000000deadbeef\r\n"),
            "{head}"
        );
        assert!(head.contains("deprecation: true\r\n"), "{head}");
        // extra headers precede content-length so the blank line stays last
        assert!(head.ends_with("\r\n\r\n"));
    }

    // An in-memory duplex stream for exercising Conn without sockets.
    struct Chunks {
        input: Vec<Vec<u8>>,
        out: Vec<u8>,
    }
    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.input.is_empty() {
                return Ok(0);
            }
            let chunk = self.input.remove(0);
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }
    impl Write for Chunks {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn conn_of(chunks: &[&[u8]]) -> Conn<Chunks> {
        Conn::new(Chunks {
            input: chunks.iter().map(|c| c.to_vec()).collect(),
            out: Vec::new(),
        })
    }

    #[test]
    fn reads_request_split_across_chunks() {
        let mut c = conn_of(&[
            b"POST /advise HTTP/1.1\r\ncontent-len",
            b"gth: 4\r\n\r\nab",
            b"cd",
        ]);
        let r = c.read_request(&Limits::default()).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn keeps_pipelined_bytes_for_the_next_request() {
        let mut c = conn_of(&[b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"]);
        let limits = Limits::default();
        assert_eq!(c.read_request(&limits).unwrap().target, "/a");
        assert_eq!(c.read_request(&limits).unwrap().target, "/b");
        assert!(matches!(c.read_request(&limits), Err(RecvError::Closed)));
    }

    #[test]
    fn oversized_body_is_rejected_without_reading_it() {
        let mut c = conn_of(&[b"POST /advise HTTP/1.1\r\ncontent-length: 999999999\r\n\r\n"]);
        let limits = Limits {
            max_body: 1024,
            ..Limits::default()
        };
        assert!(matches!(
            c.read_request(&limits),
            Err(RecvError::BodyTooLarge)
        ));
    }

    #[test]
    fn transfer_encoding_is_unsupported() {
        let mut c = conn_of(&[b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"]);
        assert!(matches!(
            c.read_request(&Limits::default()),
            Err(RecvError::UnsupportedEncoding)
        ));
    }

    #[test]
    fn eof_mid_head_is_malformed() {
        let mut c = conn_of(&[b"GET / HTT"]);
        assert!(matches!(
            c.read_request(&Limits::default()),
            Err(RecvError::Malformed(_))
        ));
    }
}
