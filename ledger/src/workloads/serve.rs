//! The two serve workloads: a real `Server` on loopback driven over a real
//! socket by one closed-loop keep-alive client (a caller that waits for
//! each reply), `Config.threads = max(1, T/2)`.
//!
//! `serve_advise` posts single-call `/v1/advise` bodies — transport-,
//! parse- and encode-bound, no cache. `serve_threshold` posts
//! `/v1/threshold` over 1024 distinct keys with log-uniform popularity
//! against the 256-entry cache — cache reads, inserts and evictions, the
//! sweep-pool fan-out and a miss path a thousand times heavier than a hit.
//!
//! Steady state: `Server::start_with` enables `blob_core::trace`, and once
//! the span sink holds `trace::SINK_CAP` spans every request pays a
//! front-drain. A long-lived service lives past that cap, so set-up fills
//! the sink to the cap (with spans of the benchmark's own, through the
//! public trace API — 65 537 spans in milliseconds instead of 80 000
//! requests in ten seconds) before the timed period opens, and the run
//! prints the pre-cap and post-cap median side by side.

use super::{Ctx, Outcome};
use crate::gen::{advise_requests, post, threshold_body, KeyStream, THRESHOLD_KEYS};
use crate::platform::threads_total;
use crate::seams::TimedHandler;
use crate::spans;
use crate::stats::{median, window_summary, Timed, TAIL_WINDOWS};
use blob_core::trace;
use blob_core::wire::Json;
use blob_serve::cache::CacheStats;
use blob_serve::{App, Config, Handler, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests sent before the span sink is filled (their median is the
/// pre-cap figure; for `serve_threshold` they also fill the cache).
const PRE_CAP_REQUESTS: usize = 1_000;

/// Requests sent after the sink is full and before the timed period.
const POST_CAP_WARMUP: usize = 200;

/// One response is fully parsed as JSON in this many.
const PARSE_EVERY: u64 = 64;

/// A keep-alive HTTP/1.1 client: one request in flight at a time.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    head_end: usize,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(20))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
            head_end: 0,
        })
    }

    /// Sends `request` and reads the whole response; returns the status.
    fn roundtrip(&mut self, request: &[u8]) -> Result<u16, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let mut fill = |buf: &mut Vec<u8>| -> Result<(), String> {
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 {
                return Err("server closed the connection mid-response".to_string());
            }
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        };
        self.head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            fill(&mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..self.head_end])
            .map_err(|_| "response head is not UTF-8".to_string())?;
        let status: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| "malformed status line".to_string())?;
        let body_len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| "response without content-length".to_string())?;
        let total = self.head_end + body_len;
        while self.buf.len() < total {
            fill(&mut self.buf)?;
        }
        Ok(status)
    }

    fn head(&self) -> &[u8] {
        &self.buf[..self.head_end]
    }

    fn body(&self) -> &[u8] {
        &self.buf[self.head_end..]
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Counters of a service that has no cache to report.
const NO_CACHE: CacheStats = CacheStats {
    hits: 0,
    misses: 0,
    evictions: 0,
    entries: 0,
    capacity: 0,
};

/// A running service plus its client.
struct Service {
    server: Server,
    /// Set when the server was started around the `Handler` seam.
    wrapped: Option<Arc<App>>,
    client: Client,
}

impl Service {
    fn start(traced: bool) -> Result<Service, String> {
        let cfg = Config {
            addr: "127.0.0.1:0".to_string(),
            threads: (threads_total() / 2).max(1),
            ..Config::default()
        };
        let (server, wrapped) = if traced {
            let app = Arc::new(
                App::new(cfg.cache_entries, cfg.cache_shards, false).with_deadline(cfg.deadline),
            );
            let handler: Arc<dyn Handler> = Arc::new(TimedHandler {
                app: Arc::clone(&app),
            });
            (Server::start_with(cfg, handler), Some(app))
        } else {
            (Server::start(cfg), None)
        };
        let server = server.map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(server.local_addr())?;
        Ok(Service {
            server,
            wrapped,
            client,
        })
    }

    fn cache_stats(&self) -> CacheStats {
        match (&self.wrapped, self.server.app()) {
            (Some(app), _) => app.cache.stats(),
            (None, Some(app)) => app.cache.stats(),
            (None, None) => NO_CACHE,
        }
    }

    /// Closes the client connection, then stops the server and waits for
    /// every one of its threads.
    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        self.server.join();
    }
}

/// Fills `blob_core::trace`'s span sink past its cap, so the timed period
/// sees the steady state of a long-lived service. True when the sink
/// overflowed (it is at the cap).
fn fill_span_sink() -> bool {
    let before = trace::dropped();
    let root = trace::span("ledger.fill", "ledger");
    for _ in 0..=trace::SINK_CAP {
        drop(trace::span("ledger.fill", "ledger"));
    }
    drop(root);
    trace::dropped() > before
}

/// The request stream and response checks of one serve workload.
trait Traffic {
    /// The next request, framed.
    fn next_request(&mut self) -> &[u8];
    /// Checks the response just read (beyond status and trace header).
    fn check(&mut self, body: &[u8], parse: bool) -> bool;
    /// Responses so far that said `"cached":true` and `"cached":false`.
    fn cached_flags(&self) -> (u64, u64) {
        (0, 0)
    }
}

struct AdviseTraffic {
    requests: Vec<Vec<u8>>,
    at: usize,
}

impl Traffic for AdviseTraffic {
    fn next_request(&mut self) -> &[u8] {
        self.at = (self.at + 1) % self.requests.len();
        &self.requests[self.at]
    }

    fn check(&mut self, body: &[u8], parse: bool) -> bool {
        if !parse {
            return contains(body, b"\"verdict\":\"");
        }
        Json::parse_bytes(body).is_ok_and(|doc| {
            doc.get("verdict").and_then(Json::as_str).is_some()
                && doc.get("cpu_seconds").and_then(Json::as_f64) > Some(0.0)
        })
    }
}

struct ThresholdTraffic {
    requests: Vec<Vec<u8>>,
    keys: KeyStream,
    /// Responses that said `"cached":true` / `"cached":false`.
    said_hit: u64,
    said_miss: u64,
}

impl Traffic for ThresholdTraffic {
    fn next_request(&mut self) -> &[u8] {
        &self.requests[self.keys.next_key()]
    }

    fn check(&mut self, body: &[u8], parse: bool) -> bool {
        let hit = contains(body, b"\"cached\":true");
        let miss = contains(body, b"\"cached\":false");
        self.said_hit += u64::from(hit);
        self.said_miss += u64::from(miss);
        if !parse {
            return hit != miss;
        }
        hit != miss
            && Json::parse_bytes(body).is_ok_and(|doc| {
                doc.get("thresholds").is_some()
                    && doc.get("sweep_points").and_then(Json::as_u64) > Some(0)
            })
    }

    fn cached_flags(&self) -> (u64, u64) {
        (self.said_hit, self.said_miss)
    }
}

/// One request/response; returns the latency sample, counting the checks.
fn exchange(
    service: &mut Service,
    traffic: &mut dyn Traffic,
    out: &mut Outcome,
    origin: Instant,
    traced: bool,
) -> Timed {
    let request = traffic.next_request();
    let begin = origin.elapsed().as_secs_f64();
    let status = {
        let _span = traced.then(|| spans::open_request("serve.request"));
        service.client.roundtrip(request)
    };
    let end = origin.elapsed().as_secs_f64();
    let parse = out.attempted % PARSE_EVERY == 0;
    let ok = match &status {
        Ok(200) => {
            contains(service.client.head(), b"\r\nx-blob-trace: ")
                && traffic.check(service.client.body(), parse)
        }
        _ => false,
    };
    out.check(ok, || match &status {
        Ok(code) => format!("status {code}, or a failed response check"),
        Err(e) => e.clone(),
    });
    Timed {
        at: end as f32,
        latency: (end - begin) as f32,
        ops: f32::from(u8::from(ok)),
    }
}

/// What the timed period of a serve run produced.
struct Driven {
    out: Outcome,
    /// Cache counter movement over the timed period.
    cache: CacheStats,
    /// `cached` flags the responses of the timed period carried.
    said_hit: u64,
    said_miss: u64,
}

/// The shared run: start, pre-cap requests, fill the sink, post-cap
/// warm-up, timed closed loop, stop, summarise. `None` when the run stops
/// after set-up.
fn drive(ctx: &mut Ctx, traffic: &mut dyn Traffic) -> Result<Option<Driven>, String> {
    let mut out = Outcome::default();
    let mut service = Service::start(ctx.traced)?;
    let origin = Instant::now();
    let mut setup_checks = Outcome::default();
    let pre: Vec<f64> = (0..PRE_CAP_REQUESTS)
        .map(|_| exchange(&mut service, traffic, &mut setup_checks, origin, false).latency)
        .map(f64::from)
        .collect();
    let sink_full = fill_span_sink();
    let post: Vec<f64> = (0..POST_CAP_WARMUP)
        .map(|_| exchange(&mut service, traffic, &mut setup_checks, origin, false).latency)
        .map(f64::from)
        .collect();
    if ctx.ready() {
        service.stop();
        return Ok(None);
    }
    out.failed += setup_checks.failed;
    out.attempted += setup_checks.attempted;
    out.failures.append(&mut setup_checks.failures);
    out.check(sink_full, || {
        "the span sink did not reach trace::SINK_CAP before the timed period".to_string()
    });
    out.detail("pre_cap_p50_us", median(&pre) * 1e6, "us");
    out.detail("post_cap_p50_us", median(&post) * 1e6, "us");
    out.detail("spans_before_timed", trace::SINK_CAP as f64 + 1.0, "count");

    let before = service.cache_stats();
    let flags_before = traffic.cached_flags();
    if ctx.traced {
        drop(spans::take()); // set-up's handler spans are not part of the timed period
    }
    let root = ctx.traced.then(|| spans::open("ledger.workload"));
    let started = Instant::now();
    let mut samples = Vec::new();
    while started.elapsed().as_secs_f64() < ctx.seconds {
        samples.push(exchange(
            &mut service,
            traffic,
            &mut out,
            started,
            ctx.traced,
        ));
    }
    drop(root);
    let after = service.cache_stats();
    let flags_after = traffic.cached_flags();
    service.stop();

    let w = window_summary(&samples, ctx.seconds, TAIL_WINDOWS);
    out.ops_per_s = w.ops_per_s;
    out.p50_us = w.p50 * 1e6;
    out.tail_us = w.tail * 1e6;
    out.samples = samples.len();
    out.detail("requests", samples.len() as f64, "count");
    let delta = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        ..after
    };
    out.attach_trace(ctx);
    if let Some(attribution) = &out.attribution {
        let (_, handle_s) = attribution.per_call("serve.handle");
        let (requests, _) = attribution.per_call("serve.request");
        let transport_self: f64 = attribution
            .names
            .iter()
            .find(|(n, ..)| *n == "serve.request")
            .map_or(0.0, |&(_, _, _, own)| own);
        let transport_us = transport_self / requests.max(1) as f64 * 1e6;
        out.layer.push(("serve.server.handle_us", handle_s * 1e6));
        out.layer.push(("serve.server.transport_us", transport_us));
    }
    Ok(Some(Driven {
        out,
        cache: delta,
        said_hit: flags_after.0 - flags_before.0,
        said_miss: flags_after.1 - flags_before.1,
    }))
}

/// `serve_advise`.
pub fn advise(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut traffic = AdviseTraffic {
        requests: advise_requests(ctx.seed),
        at: 0,
    };
    let Some(Driven { mut out, cache, .. }) = drive(ctx, &mut traffic)? else {
        return Ok(Outcome::default());
    };
    // The bypass prediction: `/v1/advise` never touches the cache.
    out.check(cache.hits + cache.misses + cache.evictions == 0, || {
        format!("serve_advise touched the cache: {cache:?}")
    });
    out.layer.push(("serve.cache.hit_ratio", 0.0));
    out.layer.push(("serve.cache.evictions", 0.0));
    Ok(out)
}

/// `serve_threshold`.
pub fn threshold(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut traffic = ThresholdTraffic {
        requests: (0..THRESHOLD_KEYS)
            .map(|i| post("/v1/threshold", &threshold_body(i)))
            .collect(),
        keys: KeyStream::new(ctx.seed),
        said_hit: 0,
        said_miss: 0,
    };
    let Some(driven) = drive(ctx, &mut traffic)? else {
        return Ok(Outcome::default());
    };
    let Driven { mut out, cache, .. } = driven;
    // One client, so the `cached` flag of every response of the timed
    // period must agree with the cache's own counters exactly.
    let lookups = cache.hits + cache.misses;
    out.check(
        driven.said_hit == cache.hits && driven.said_miss == cache.misses,
        || {
            format!(
                "responses said {} hits / {} misses, the cache counted {} / {}",
                driven.said_hit, driven.said_miss, cache.hits, cache.misses
            )
        },
    );
    let hit_ratio = cache.hits as f64 / lookups.max(1) as f64;
    out.detail("cache_hit_ratio", hit_ratio, "ratio");
    out.detail("cache_evictions", cache.evictions as f64, "count");
    out.layer.push(("serve.cache.hit_ratio", hit_ratio));
    out.layer
        .push(("serve.cache.evictions", cache.evictions as f64));
    Ok(out)
}
