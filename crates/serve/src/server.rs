//! The TCP front end: a blocking accept loop feeding a supervised worker
//! pool, with graceful shutdown, load shedding, and panic containment.
//!
//! Threading model: one acceptor thread owns the listener and pushes
//! connections into a bounded channel; `threads` workers pull from it and
//! drive each connection through [`Conn`] (keep-alive, so one worker serves
//! a whole session). Shutdown — from [`Server::shutdown`] or a permitted
//! `POST /shutdown` — raises a stop flag and then *connects to the
//! listener itself*, which is the portable, `unsafe`-free way to unblock a
//! blocking `accept(2)` without OS signal machinery.
//!
//! Self-healing (see `DESIGN.md` §12):
//!
//! - a full accept queue sheds the connection with a canned `503` instead
//!   of blocking the acceptor (`shed` counter)
//! - a panic that escapes one connection is contained; the worker moves to
//!   the next connection (`worker_panics` counter)
//! - a worker that dies anyway (the `serve.worker` fault point, or a
//!   panic outside containment) is joined and respawned by a supervisor
//!   thread (`workers_replaced` counter)

use crate::api::App;
use crate::envelope::{self, codes};
use crate::http::{Conn, Limits, RecvError, Request, Response};
use crate::metrics::Metrics;
use blob_core::fault;
use blob_core::trace;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the supervisor sweeps for dead workers. Worst-case serving
/// gap after every worker dies at once is one period plus respawn time.
const SUPERVISE_PERIOD: Duration = Duration::from_millis(25);

/// Server configuration, fed by `gpu-blob serve` flags.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address, e.g. `127.0.0.1:8787` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker-pool size (floored at 1).
    pub threads: usize,
    /// Total threshold-cache capacity in entries.
    pub cache_entries: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Per-connection body cap and socket timeouts.
    pub limits: Limits,
    /// Whether `POST /shutdown` is honoured (CI and benches use it).
    pub allow_shutdown: bool,
    /// Per-request deadline budget for the compute endpoints
    /// (see [`crate::api::DEFAULT_DEADLINE`]).
    pub deadline: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8787".to_string(),
            threads: 4,
            cache_entries: 256,
            cache_shards: 8,
            limits: Limits::default(),
            allow_shutdown: false,
            deadline: crate::api::DEFAULT_DEADLINE,
        }
    }
}

/// What the TCP front end needs from the thing it serves. [`App`] is the
/// canonical implementation; the fabric router implements it too, so one
/// accept-loop/worker-pool/supervisor stack fronts both a backend
/// replica and the shard router ([`crate::fabric`]).
pub trait Handler: Send + Sync + 'static {
    /// Routes one request; returns the response and the metrics label.
    fn handle(&self, req: &Request) -> (Response, &'static str);
    /// The metrics registry (in-flight gauge, per-endpoint stats,
    /// robustness counters) the transport records into.
    fn metrics(&self) -> &Metrics;
    /// True once the handler wants the server to stop (e.g. a permitted
    /// `POST /shutdown` was served).
    fn shutdown_requested(&self) -> bool;
}

impl Handler for App {
    fn handle(&self, req: &Request) -> (Response, &'static str) {
        App::handle(self, req)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn shutdown_requested(&self) -> bool {
        App::shutdown_requested(self)
    }
}

/// Raises the stop flag and pokes the listener awake. Clone-cheap; one
/// copy lives in every worker so `/shutdown` can stop the accept loop.
#[derive(Clone)]
struct StopSignal {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl StopSignal {
    fn trigger(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // A throwaway connection unblocks the acceptor's blocking accept().
        // Errors are fine: the listener may already be gone.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// A running server. Dropping it does **not** stop it; call
/// [`Server::shutdown`] then [`Server::join`] (or let `/shutdown` do it).
pub struct Server {
    local_addr: SocketAddr,
    handler: Arc<dyn Handler>,
    app: Option<Arc<App>>,
    signal: StopSignal,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Spawns one connection worker (initial start-up and supervisor
/// respawns go through the same path).
fn spawn_worker(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    handler: &Arc<dyn Handler>,
    signal: &StopSignal,
    limits: Limits,
) -> JoinHandle<()> {
    let rx = Arc::clone(rx);
    let handler = Arc::clone(handler);
    let signal = signal.clone();
    std::thread::spawn(move || worker_loop(&rx, &*handler, &signal, &limits))
}

impl Server {
    /// Binds `cfg.addr` and starts the acceptor, worker, and supervisor
    /// threads around a fresh [`App`] (the single-replica service).
    pub fn start(cfg: Config) -> io::Result<Server> {
        let app = Arc::new(
            App::new(cfg.cache_entries, cfg.cache_shards, cfg.allow_shutdown)
                .with_deadline(cfg.deadline),
        );
        let mut server = Self::start_with(cfg, Arc::clone(&app) as Arc<dyn Handler>)?;
        server.app = Some(app);
        Ok(server)
    }

    /// Binds `cfg.addr` and starts the same transport stack around any
    /// [`Handler`] — the fabric router rides this. The cache fields of
    /// `cfg` are ignored (the handler owns its own state).
    pub fn start_with(cfg: Config, handler: Arc<dyn Handler>) -> io::Result<Server> {
        // Arm the trace plane so every request records a `serve.request`
        // span, browsable live at `GET /v1/trace`.
        trace::enable();
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let signal = StopSignal {
            stop: Arc::new(AtomicBool::new(false)),
            addr: local_addr,
        };
        let threads = cfg.threads.max(1);
        // Bounded: when every worker is busy and the queue is full, the
        // acceptor sheds new connections with a canned 503 instead of
        // letting them pile up unanswered.
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(threads * 2);
        let rx = Arc::new(Mutex::new(rx));

        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(
            (0..threads)
                .map(|_| spawn_worker(&rx, &handler, &signal, cfg.limits))
                .collect(),
        ));

        let acceptor = {
            let signal = signal.clone();
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || accept_loop(&listener, &tx, &signal, &*handler))
        };

        // The supervisor replaces workers that died (injected faults or
        // real bugs), so a burst of worker deaths degrades throughput for
        // one SUPERVISE_PERIOD instead of permanently shrinking the pool.
        let supervisor = {
            let workers = Arc::clone(&workers);
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            let signal = signal.clone();
            let limits = cfg.limits;
            std::thread::spawn(move || loop {
                std::thread::sleep(SUPERVISE_PERIOD);
                if signal.stop.load(Ordering::SeqCst) {
                    return;
                }
                let mut guard = workers.lock().unwrap_or_else(PoisonError::into_inner);
                for slot in guard.iter_mut() {
                    if slot.is_finished() && !signal.stop.load(Ordering::SeqCst) {
                        let dead =
                            std::mem::replace(slot, spawn_worker(&rx, &handler, &signal, limits));
                        let _ = dead.join();
                        let robustness = &handler.metrics().robustness;
                        robustness.bump(&robustness.workers_replaced);
                    }
                }
            })
        };

        Ok(Server {
            local_addr,
            handler,
            app: None,
            signal,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared application state (cache, metrics) — used by the bench
    /// harness and tests to read counters without going through HTTP.
    /// `None` for servers started via [`Server::start_with`] around a
    /// non-[`App`] handler.
    pub fn app(&self) -> Option<&App> {
        self.app.as_deref()
    }

    /// The handler behind this server.
    pub fn handler(&self) -> &dyn Handler {
        &*self.handler
    }

    /// Requests shutdown: no further connections are accepted; in-flight
    /// sessions finish their current request.
    pub fn shutdown(&self) {
        self.signal.trigger();
    }

    /// Waits for the acceptor, supervisor, and every worker to exit. Call
    /// after [`Server::shutdown`], or rely on `/shutdown` having
    /// triggered it.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for worker in handles {
            let _ = worker.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    signal: &StopSignal,
    handler: &dyn Handler,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if signal.stop.load(Ordering::SeqCst) {
                    // `stream` is (usually) the wake-up connection; drop it.
                    break;
                }
                // The `serve.accept` fault point models a connection lost
                // right after accept(2): the stream is dropped unanswered.
                if fault::point(fault::sites::SERVE_ACCEPT).is_err() {
                    continue;
                }
                match tx.try_send(stream) {
                    Ok(()) => {}
                    // Queue saturated: shed with a canned 503 rather than
                    // blocking the acceptor (which would stall *every*
                    // pending connection behind one overload burst).
                    Err(TrySendError::Full(stream)) => shed(stream, handler),
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) => {
                if signal.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept error (e.g. EMFILE); keep listening.
            }
        }
    }
    // Dropping `tx` here lets the workers drain the queue and exit.
}

/// Answers a shed connection with a canned 503 (best effort, bounded by
/// a short write timeout so a slow peer cannot stall the acceptor).
fn shed(stream: TcpStream, handler: &dyn Handler) {
    let metrics = handler.metrics();
    metrics.robustness.bump(&metrics.robustness.shed);
    metrics.endpoint("other").record(503, 0);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let response = envelope::error_response(
        503,
        codes::SHED,
        "server overloaded; request shed",
        &trace::mint_trace_id(),
    )
    .with_close();
    let mut conn = Conn::new(stream);
    let _ = conn.write_response(&response);
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    handler: &dyn Handler,
    signal: &StopSignal,
    limits: &Limits,
) {
    loop {
        // The `serve.worker` fault point models the worker thread dying
        // between connections: an `error` rule kills it cleanly, a
        // `panic` rule unwinds it. Either way the supervisor respawns a
        // replacement, and because the point sits *before* the dequeue,
        // no accepted connection is ever lost with it.
        if fault::point(fault::sites::SERVE_WORKER).is_err() {
            return;
        }
        // Hold the lock only for the recv itself, so workers queue fairly.
        let next = {
            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match next {
            Ok(stream) => {
                // Contain a panic that escapes the connection (handler
                // panics are already caught in `App::handle`; this guards
                // the HTTP layer itself): the connection dies, the worker
                // serves the next one.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    serve_connection(stream, handler, signal, limits)
                }));
                if outcome.is_err() {
                    let robustness = &handler.metrics().robustness;
                    robustness.bump(&robustness.worker_panics);
                }
            }
            Err(_) => break, // acceptor gone and queue drained
        }
    }
}

/// Drives one connection until it closes, errors, or asks to close.
fn serve_connection(
    stream: TcpStream,
    handler: &dyn Handler,
    signal: &StopSignal,
    limits: &Limits,
) {
    let _ = stream.set_read_timeout(Some(limits.read_timeout));
    let _ = stream.set_write_timeout(Some(limits.write_timeout));
    let _ = stream.set_nodelay(true);
    let metrics = handler.metrics();
    let mut conn = Conn::new(stream);
    loop {
        match conn.read_request(limits) {
            Ok(request) => {
                let in_flight = metrics.enter();
                let started = Instant::now();
                let (mut response, label) = handler.handle(&request);
                if request.wants_close() {
                    response = response.with_close();
                }
                metrics
                    .endpoint(label)
                    .record(response.status, started.elapsed().as_micros() as u64);
                drop(in_flight);
                let close = response.close;
                if conn.write_response(&response).is_err() {
                    return;
                }
                if handler.shutdown_requested() {
                    signal.trigger();
                    return;
                }
                if close {
                    return;
                }
            }
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => return,
            Err(e) => {
                // Protocol-level failure: answer once (best effort), close.
                let (status, code) = match e {
                    RecvError::Timeout => (408, codes::TIMEOUT),
                    RecvError::BodyTooLarge => (413, codes::PAYLOAD_TOO_LARGE),
                    RecvError::UnsupportedEncoding => (501, codes::UNSUPPORTED_ENCODING),
                    _ => (400, codes::MALFORMED_REQUEST),
                };
                let response =
                    envelope::error_response(status, code, &e.to_string(), &trace::mint_trace_id())
                        .with_close();
                metrics.endpoint("other").record(status, 0);
                let _ = conn.write_response(&response);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn test_config() -> Config {
        Config {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            cache_entries: 8,
            cache_shards: 2,
            limits: Limits {
                max_body: 4096,
                read_timeout: Duration::from_millis(500),
                write_timeout: Duration::from_millis(500),
            },
            allow_shutdown: true,
            deadline: crate::api::DEFAULT_DEADLINE,
        }
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_and_shuts_down() {
        let server = Server::start(test_config()).unwrap();
        let addr = server.local_addr();
        let reply = roundtrip(
            addr,
            "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains(r#""ok":true"#), "{reply}");
        server.shutdown();
        server.join();
        // The listener is gone: a fresh connection must fail (possibly
        // after the OS drains its backlog, so allow a couple of retries).
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200))
                .map(|mut s| {
                    // Even if the backlog accepted us, nobody will answer.
                    let _ = s.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n");
                    let _ = s.set_read_timeout(Some(Duration::from_millis(200)));
                    let mut buf = [0u8; 1];
                    !matches!(s.read(&mut buf), Ok(n) if n > 0)
                })
                .unwrap_or(true)
        );
    }

    #[test]
    fn post_shutdown_stops_the_server() {
        let server = Server::start(test_config()).unwrap();
        let addr = server.local_addr();
        let reply = roundtrip(
            addr,
            "POST /v1/shutdown HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert!(reply.contains("shutting_down"), "{reply}");
        server.join(); // returns because /shutdown triggered the signal
    }

    /// Reads exactly one HTTP response (head + content-length body).
    fn read_one_response(s: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 512];
        let head_end = loop {
            if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "eof before response head");
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
        let body_len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        while buf.len() < head_end + body_len {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "eof before response body");
            buf.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8_lossy(&buf[..head_end + body_len]).to_string()
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = Server::start(test_config()).unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for _ in 0..3 {
            s.write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
            let text = read_one_response(&mut s);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
            assert!(text.contains("connection: keep-alive"), "{text}");
        }
        server.shutdown();
        server.join();
    }
}
