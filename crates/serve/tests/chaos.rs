//! Chaos tests: the service must stay available — every request answered,
//! within the client's deadline — while the `blob_core::fault` plane
//! injects worker deaths, handler panics, cache failures, and transient
//! sweep-backend errors at double-digit probabilities.
//!
//! Every test takes `fault::CHAOS_LOCK` (plans are process-global) and
//! clears any plan on entry, so a panicking test cannot poison its
//! successors.

use blob_core::fault::{self, Plan};
use blob_core::wire::Json;
use blob_serve::http::{Limits, Request};
use blob_serve::{App, Config, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;
use std::time::{Duration, Instant};

/// Locks the chaos plane and starts from a clean (no-plan) state.
fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = fault::CHAOS_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    fault::clear();
    guard
}

fn install(spec: &str) {
    fault::install(&Plan::parse(spec).expect("valid plan spec"));
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".to_string(),
        target: path.to_string(),
        headers: vec![],
        body: vec![],
    }
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        target: path.to_string(),
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

fn body_json(r: &blob_serve::http::Response) -> Json {
    Json::parse_bytes(&r.body).expect("response body is JSON")
}

const TINY_SWEEP: &str =
    r#"{"system":"lumi","problem":"gemm_square","precision":"f32","iterations":1,"max_dim":16}"#;

#[test]
fn injected_handler_panic_is_contained_as_500() {
    let _g = chaos_guard();
    install("serve.handle:panic@1x1");
    let app = App::new(4, 1, false);
    let (r, label) = app.handle(&get("/v1/healthz"));
    assert_eq!((r.status, label), (500, "other"));
    assert_eq!(
        app.metrics
            .robustness
            .handler_panics
            .load(Ordering::Relaxed),
        1
    );
    // the app keeps serving: the next request (budget spent) is normal,
    // and healthz reports the degradation without going un-ok
    let (r, _) = app.handle(&get("/v1/healthz"));
    assert_eq!(r.status, 200);
    let j = body_json(&r);
    assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(j.get("degraded").and_then(Json::as_bool), Some(true));
    fault::clear();
}

#[test]
fn sweep_retries_recover_from_transient_faults() {
    let _g = chaos_guard();
    install("serve.sweep:error@1x2"); // first two attempts fail, third works
    let app = App::new(4, 1, false);
    let (r, _) = app.handle(&post("/v1/threshold", TINY_SWEEP));
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let j = body_json(&r);
    assert_eq!(j.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(app.metrics.robustness.retries.load(Ordering::Relaxed), 2);
    assert_eq!(
        app.metrics
            .robustness
            .retries_exhausted
            .load(Ordering::Relaxed),
        0
    );
    fault::clear();
}

#[test]
fn sweep_retry_exhaustion_is_a_503() {
    let _g = chaos_guard();
    install("serve.sweep:error@1"); // every attempt fails
    let app = App::new(4, 1, false);
    let (r, _) = app.handle(&post("/v1/threshold", TINY_SWEEP));
    assert_eq!(r.status, 503);
    let err = body_json(&r).get("error").cloned().unwrap();
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("retries_exhausted")
    );
    let msg = err
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    assert!(msg.contains("attempts"), "{msg}");
    assert_eq!(
        app.metrics
            .robustness
            .retries_exhausted
            .load(Ordering::Relaxed),
        1
    );
    fault::clear();
}

#[test]
fn cache_read_fault_degrades_to_a_recompute() {
    let _g = chaos_guard();
    let app = App::new(16, 4, false);
    let (r1, _) = app.handle(&post("/v1/threshold", TINY_SWEEP));
    assert_eq!(
        body_json(&r1).get("cached").and_then(Json::as_bool),
        Some(false)
    );
    let (r2, _) = app.handle(&post("/v1/threshold", TINY_SWEEP));
    assert_eq!(
        body_json(&r2).get("cached").and_then(Json::as_bool),
        Some(true)
    );

    install("serve.cache:error@1");
    let (r3, _) = app.handle(&post("/v1/threshold", TINY_SWEEP));
    assert_eq!(r3.status, 200);
    let j3 = body_json(&r3);
    // the broken cache was treated as a miss — recomputed, same numbers
    assert_eq!(j3.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(j3.get("thresholds"), body_json(&r1).get("thresholds"));
    fault::clear();
}

fn chaos_config(threads: usize, read_timeout: Duration) -> Config {
    Config {
        addr: "127.0.0.1:0".to_string(),
        threads,
        cache_entries: 32,
        cache_shards: 4,
        limits: Limits {
            max_body: 64 * 1024,
            read_timeout,
            write_timeout: read_timeout,
        },
        allow_shutdown: false,
        ..Config::default()
    }
}

/// Sends one request on a fresh connection and returns the status line's
/// code, failing the test if no complete response arrives in `deadline`.
fn roundtrip_status(addr: std::net::SocketAddr, request: &str, deadline: Duration) -> u16 {
    let started = Instant::now();
    let mut s = TcpStream::connect_timeout(&addr, deadline).expect("connect");
    s.set_read_timeout(Some(deadline)).unwrap();
    s.write_all(request.as_bytes()).expect("send request");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("response within deadline");
    assert!(
        started.elapsed() < deadline,
        "request took {:?}, over the {:?} deadline",
        started.elapsed(),
        deadline
    );
    let text = String::from_utf8_lossy(&out);
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    status
}

#[test]
fn server_stays_available_under_a_mixed_fault_plan() {
    let _g = chaos_guard();
    // Double-digit failure probability at four independent layers.
    install(
        "seed=7;serve.handle:panic@0.12;serve.sweep:error@0.25;\
         serve.cache:error@0.3;serve.worker:error@0.1",
    );
    let server = Server::start(chaos_config(2, Duration::from_secs(2))).unwrap();
    let addr = server.local_addr();
    let deadline = Duration::from_secs(5);

    let threshold_body = r#"{"system":"dawn","problem":"gemm_square","precision":"f32","iterations":1,"max_dim":24}"#;
    let mut ok = 0;
    let mut served = 0;
    for i in 0..40 {
        let request = match i % 3 {
            0 => "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n".to_string(),
            1 => {
                let body = r#"{"system":"lumi","op":"gemm","m":256,"n":256,"k":256,"precision":"f32"}"#;
                format!(
                    "POST /v1/advise HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
                    body.len()
                )
            }
            _ => format!(
                "POST /v1/threshold HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{threshold_body}",
                threshold_body.len()
            ),
        };
        let status = roundtrip_status(addr, &request, deadline);
        assert!(
            status == 200 || status == 500 || status == 503,
            "request {i} got unexpected status {status}"
        );
        served += 1;
        if status == 200 {
            ok += 1;
        }
    }
    assert_eq!(served, 40, "every request must be answered");
    assert!(ok > 0, "some requests must still succeed under chaos");
    assert!(fault::injected_total() > 0, "the plan must actually fire");

    // With the plan cleared the service is fully healthy again (the
    // degraded flag stays sticky as a record of what it survived).
    fault::clear();
    let status = roundtrip_status(
        addr,
        "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        deadline,
    );
    assert_eq!(status, 200);
    server.shutdown();
    server.join();
}

#[test]
fn dead_http_workers_are_replaced() {
    let _g = chaos_guard();
    // Both initial workers die the moment they start; the budget is then
    // spent, so their replacements live.
    install("serve.worker:error@1x2");
    let server = Server::start(chaos_config(2, Duration::from_secs(2))).unwrap();
    let addr = server.local_addr();
    let deadline = Duration::from_secs(5);
    for _ in 0..3 {
        let status = roundtrip_status(
            addr,
            "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
            deadline,
        );
        assert_eq!(status, 200);
    }
    assert_eq!(
        server
            .app()
            .expect("app-backed server")
            .metrics
            .robustness
            .workers_replaced
            .load(Ordering::Relaxed),
        2
    );
    fault::clear();
    server.shutdown();
    server.join();
}

#[test]
fn accept_queue_saturation_sheds_with_503() {
    let _g = chaos_guard();
    // One worker, queue capacity 2: occupy the worker with a silent
    // connection, fill the queue, and watch the overflow get shed.
    let server = Server::start(chaos_config(1, Duration::from_millis(500))).unwrap();
    let addr = server.local_addr();

    let busy = TcpStream::connect(addr).unwrap(); // worker blocks reading this
    std::thread::sleep(Duration::from_millis(100));
    let _queued_a = TcpStream::connect(addr).unwrap();
    let _queued_b = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The queue is full now; the next connections must be shed.
    let mut shed_seen = 0;
    for _ in 0..2 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let text = String::from_utf8_lossy(&out);
        if text.starts_with("HTTP/1.1 503 ") {
            assert!(text.contains("shed"), "{text}");
            shed_seen += 1;
        }
    }
    assert!(shed_seen >= 1, "at least one connection must be shed");
    assert!(
        server
            .app()
            .expect("app-backed server")
            .metrics
            .robustness
            .shed
            .load(Ordering::Relaxed)
            >= 1
    );
    drop(busy);
    server.shutdown();
    server.join();
}
