//! The router's upstream HTTP/1.1 client: blocking sockets polled in
//! timeout slices, plus a bounded keep-alive connection pool.
//!
//! The workspace is `std`-only, so there is no async reactor to wait on
//! two sockets at once. Hedging still needs exactly that, and
//! [`Upstream::poll_response`] provides it the portable way: each call
//! sets a short read timeout (the *slice*), reads whatever arrives, and
//! returns `Ok(None)` on a timeout with the partial bytes retained — so
//! the router can interleave slices across the primary and the hedge
//! until one of them completes.
//!
//! Pooled connections are keep-alive: a completed exchange leaves the
//! stream clean (the parser drains exactly the response's bytes), so the
//! connection goes back to the shard's [`Pool`] for the next request.
//! The pool is **bounded** ([`Pool::new`] takes the cap); `blob-check`'s
//! `no-unbounded-queue` rule polices that every queue in the serve crate
//! stays that way.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Hard cap on an upstream response head, mirroring the server's
/// [`crate::http::MAX_HEAD_BYTES`].
const MAX_RESPONSE_HEAD: usize = 16 * 1024;

/// Hard cap on an upstream response body the router will relay (16 MiB —
/// far above anything the API emits, small enough to bound memory under
/// a misbehaving upstream).
const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;

/// One parsed upstream response.
#[derive(Debug)]
pub struct UpstreamResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (exactly `content-length` of them).
    pub body: Vec<u8>,
    /// The upstream asked to close the connection after this response.
    pub close: bool,
}

impl UpstreamResponse {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A connection to one backend replica, with a partial-read buffer that
/// survives timeout slices.
pub struct Upstream {
    stream: TcpStream,
    buf: Vec<u8>,
    /// This connection came out of a [`Pool`] (a keep-alive reuse).
    reused: bool,
    /// Bytes have arrived since the last [`Upstream::send`].
    got_bytes: bool,
}

impl Upstream {
    /// Connects to `addr` within `timeout`.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Upstream> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Upstream {
            stream,
            buf: Vec::new(),
            reused: false,
            got_bytes: false,
        })
    }

    /// True when a failure on this connection is more plausibly a stale
    /// keep-alive (the backend closed it while it idled in the pool) than
    /// a dead replica: the connection was reused and nothing has arrived
    /// since the request went out. The router retries such failures once
    /// on a fresh dial before marking the replica down.
    pub fn stale_risk(&self) -> bool {
        self.reused && !self.got_bytes
    }

    /// Serialises and sends one request.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        write_timeout: Duration,
    ) -> io::Result<()> {
        self.got_bytes = false;
        self.stream.set_write_timeout(Some(write_timeout))?;
        let head = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Reads for up to one `slice` and tries to complete a response.
    ///
    /// - `Ok(Some(r))` — a full response arrived (its bytes are drained
    ///   from the buffer; the connection is reusable).
    /// - `Ok(None)` — the slice elapsed with the response still partial;
    ///   call again (possibly after polling another upstream).
    /// - `Err(_)` — the connection is broken (EOF mid-response, protocol
    ///   violation, or a socket error); discard it.
    pub fn poll_response(&mut self, slice: Duration) -> io::Result<Option<UpstreamResponse>> {
        // A zero timeout means "block forever" to the OS; clamp up.
        self.stream
            .set_read_timeout(Some(slice.max(Duration::from_millis(1))))?;
        loop {
            if let Some(r) = self.try_parse()? {
                return Ok(Some(r));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "upstream closed mid-response",
                    ))
                }
                Ok(n) => {
                    self.got_bytes = true;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// True when no partial response bytes are buffered — the connection
    /// may go back into the pool.
    pub fn reusable(&self) -> bool {
        self.buf.is_empty()
    }

    /// True when an idle pooled connection is still clean: no EOF and no
    /// unsolicited bytes waiting (a backend that idle-times-out a
    /// keep-alive connection writes a best-effort `408` before closing —
    /// relaying that as the answer to the *next* request would be worse
    /// than any failure). A tiny race remains between this check and the
    /// send; the `stale_risk` retry covers its EOF flavour.
    fn idle_clean(&self) -> bool {
        let mut probe = [0u8; 1];
        if self.stream.set_nonblocking(true).is_err() {
            return false;
        }
        let clean = match self.stream.peek(&mut probe) {
            // readable now means EOF (0) or a stale unsolicited response
            Ok(_) => false,
            Err(e) => matches!(e.kind(), io::ErrorKind::WouldBlock),
        };
        clean && self.stream.set_nonblocking(false).is_ok()
    }

    /// Attempts to parse one complete response from the buffer, draining
    /// exactly its bytes on success.
    fn try_parse(&mut self) -> io::Result<Option<UpstreamResponse>> {
        let Some(head_end) = find_subslice(&self.buf, b"\r\n\r\n") else {
            if self.buf.len() > MAX_RESPONSE_HEAD {
                return Err(protocol_error("response head too large"));
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| protocol_error("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        // "HTTP/1.1 200 OK" — the middle token is the status.
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| protocol_error("bad status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| protocol_error("header line without a colon"))?;
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let find = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let body_len = match find("content-length") {
            None => 0,
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| protocol_error("bad content-length"))?,
        };
        if body_len > MAX_RESPONSE_BODY {
            return Err(protocol_error("response body exceeds the relay limit"));
        }
        let close = find("connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        let total = head_end + 4 + body_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(UpstreamResponse {
            status,
            headers,
            body,
            close,
        }))
    }
}

fn protocol_error(why: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A bounded keep-alive connection pool for one shard. Take a connection
/// before a request, put it back after a clean exchange; connections
/// beyond the cap (or with partial bytes buffered) are simply dropped —
/// the pool is an optimisation, never a queue that can grow.
pub struct Pool {
    slots: Mutex<Vec<Upstream>>,
    cap: usize,
}

impl Pool {
    /// An empty pool holding at most `cap` idle connections.
    pub fn new(cap: usize) -> Pool {
        Pool {
            slots: Mutex::new(Vec::with_capacity(cap)),
            cap,
        }
    }

    /// Takes an idle connection, if any (marked as reused, so failures on
    /// it are treated as stale keep-alives, not replica deaths).
    /// Connections that went stale while idle — closed by the backend, or
    /// holding an unsolicited timeout response — are discarded here, not
    /// handed out.
    pub fn take(&self) -> Option<Upstream> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        while let Some(mut up) = slots.pop() {
            if up.idle_clean() {
                up.reused = true;
                return Some(up);
            }
        }
        None
    }

    /// Returns a connection to the pool; drops it when the pool is full
    /// or the connection has partial response bytes buffered.
    pub fn put(&self, upstream: Upstream) {
        if !upstream.reusable() {
            return;
        }
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() < self.cap {
            slots.push(upstream);
        }
    }

    /// Drops every idle connection (the shard's process was replaced; the
    /// old sockets point at a dead peer).
    pub fn clear(&self) {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Idle connections currently held.
    pub fn idle(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-shot stub server: accepts one connection, optionally delays,
    /// then writes `response` verbatim (possibly in two chunks).
    fn stub(response: &'static [u8], delay: Duration, split_at: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                // drain the request head before answering
                let mut buf = [0u8; 4096];
                let _ = s.read(&mut buf);
                std::thread::sleep(delay);
                let (a, b) = response.split_at(split_at.min(response.len()));
                let _ = s.write_all(a);
                if !b.is_empty() {
                    s.flush().ok();
                    std::thread::sleep(Duration::from_millis(20));
                    let _ = s.write_all(b);
                }
            }
        });
        addr
    }

    const OK: &[u8] =
        b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 11\r\nconnection: keep-alive\r\n\r\n{\"ok\":true}";

    #[test]
    fn completes_a_simple_exchange() {
        let addr = stub(OK, Duration::ZERO, usize::MAX);
        let mut up = Upstream::connect(addr, Duration::from_secs(1)).unwrap();
        up.send("GET", "/v1/healthz", b"", Duration::from_secs(1))
            .unwrap();
        let r = loop {
            if let Some(r) = up.poll_response(Duration::from_millis(50)).unwrap() {
                break r;
            }
        };
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"{\"ok\":true}");
        assert_eq!(r.header("content-type"), Some("application/json"));
        assert!(!r.close);
        assert!(up.reusable());
    }

    #[test]
    fn slow_response_yields_none_then_completes() {
        let addr = stub(OK, Duration::from_millis(80), usize::MAX);
        let mut up = Upstream::connect(addr, Duration::from_secs(1)).unwrap();
        up.send("GET", "/v1/healthz", b"", Duration::from_secs(1))
            .unwrap();
        // the first short slice must elapse with nothing parsed
        assert!(up
            .poll_response(Duration::from_millis(10))
            .unwrap()
            .is_none());
        let r = loop {
            if let Some(r) = up.poll_response(Duration::from_millis(50)).unwrap() {
                break r;
            }
        };
        assert_eq!(r.status, 200);
    }

    #[test]
    fn partial_bytes_survive_across_slices() {
        // head arrives first; body follows 20 ms later
        let addr = stub(OK, Duration::ZERO, OK.len() - 5);
        let mut up = Upstream::connect(addr, Duration::from_secs(1)).unwrap();
        up.send("GET", "/v1/healthz", b"", Duration::from_secs(1))
            .unwrap();
        let mut polls = 0;
        let r = loop {
            polls += 1;
            if let Some(r) = up.poll_response(Duration::from_millis(5)).unwrap() {
                break r;
            }
            assert!(polls < 100, "response never completed");
        };
        assert!(polls > 1, "split response should need several slices");
        assert_eq!(r.body, b"{\"ok\":true}");
    }

    #[test]
    fn eof_mid_response_is_an_error() {
        // server sends half the head and closes
        let addr = stub(&OK[..20], Duration::ZERO, usize::MAX);
        let mut up = Upstream::connect(addr, Duration::from_secs(1)).unwrap();
        up.send("GET", "/v1/healthz", b"", Duration::from_secs(1))
            .unwrap();
        let err = loop {
            match up.poll_response(Duration::from_millis(50)) {
                Ok(Some(_)) => panic!("half a head must not parse"),
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn pool_caps_idle_connections_and_clears() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // hold the accepted sockets open (the never-finished Vec owns them):
        // a dropped peer reads as EOF and `take` would discard the connection
        std::thread::spawn(move || drop(listener.incoming().collect::<Vec<_>>()));
        let pool = Pool::new(2);
        assert!(pool.take().is_none());
        for _ in 0..3 {
            let up = Upstream::connect(addr, Duration::from_secs(1)).unwrap();
            pool.put(up);
        }
        assert_eq!(pool.idle(), 2, "the cap bounds the pool");
        assert!(pool.take().is_some());
        assert_eq!(pool.idle(), 1);
        pool.clear();
        assert_eq!(pool.idle(), 0);
    }
}
