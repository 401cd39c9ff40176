//! Integration tests for the sharded serve fabric: routing through real
//! backend servers, zero-loss failover when a shard dies mid-run, and
//! hedged requests racing a slow replica.
//!
//! The backends here are in-process [`Server`]s (each a full `App` on its
//! own ephemeral port) — the same wire surface as the `gpu-blob serve`
//! child processes the CLI spawns, without the child-process management.
//! The real multi-process path is exercised by the `serve_load` bench
//! (`--shards N --kill-one`), which CI runs as the chaos gate.

use blob_core::wire::Json;
use blob_serve::http::{Request, Response};
use blob_serve::server::Handler;
use blob_serve::{Config, Fabric, Router, RouterConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn backend() -> Server {
    Server::start(Config {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_entries: 32,
        allow_shutdown: false,
        // Short idle timeout so shutdown/join doesn't wait out workers
        // blocked reading the router's pooled keep-alive connections.
        limits: blob_serve::http::Limits {
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_secs(5),
            ..blob_serve::http::Limits::default()
        },
        ..Config::default()
    })
    .expect("start backend")
}

fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        target: path.to_string(),
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".to_string(),
        target: path.to_string(),
        headers: vec![],
        body: vec![],
    }
}

fn body_json(r: &Response) -> Json {
    Json::parse_bytes(&r.body).unwrap_or_else(|e| {
        panic!(
            "response body is JSON ({e:?}): {}",
            String::from_utf8_lossy(&r.body)
        )
    })
}

fn advise_body(system: &str, m: usize) -> String {
    format!(
        r#"{{"system":"{system}","op":"gemm","m":{m},"n":{m},"k":{m},"precision":"f32","iterations":4}}"#
    )
}

#[test]
fn router_proxies_to_backends_and_stamps_the_shard() {
    let backends: Vec<Server> = (0..3).map(|_| backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let router = Router::new(RouterConfig::default(), addrs);

    let (r, label) = router.handle(&post("/v1/advise", &advise_body("lumi", 256)));
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    assert_eq!(label, "advise");
    let j = body_json(&r);
    assert_eq!(j.get("system").and_then(Json::as_str), Some("LUMI"));
    let shard = r.header("x-blob-shard").expect("shard header").to_string();
    assert!(r.header("x-blob-trace").is_some(), "trace id propagated");

    // the same key always routes to the same shard (cache locality)
    for _ in 0..5 {
        let (r2, _) = router.handle(&post("/v1/advise", &advise_body("lumi", 256)));
        assert_eq!(r2.header("x-blob-shard"), Some(shard.as_str()));
    }
    assert!(router.counters.routed.load(Ordering::Relaxed) >= 6);
    for b in backends {
        b.shutdown();
        b.join();
    }
}

#[test]
fn batched_advise_routes_as_one_unit() {
    let backends: Vec<Server> = (0..2).map(|_| backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let router = Router::new(RouterConfig::default(), addrs);

    let body = r#"{"system":"dawn","iterations":2,"calls":[
        {"op":"gemm","m":128,"n":128,"k":128,"precision":"f32"},
        {"op":"gemv","m":512,"n":512,"precision":"f64"},
        {"op":"gemm","m":64,"n":64,"k":64,"precision":"f64"}]}"#;
    let (r, _) = router.handle(&post("/v1/advise", body));
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let j = body_json(&r);
    assert_eq!(j.get("count").and_then(Json::as_u64), Some(3));
    assert_eq!(
        j.get("results").and_then(Json::as_arr).map(<[Json]>::len),
        Some(3)
    );
    for b in backends {
        b.shutdown();
        b.join();
    }
}

#[test]
fn fabric_front_serves_own_endpoints_and_proxies_the_rest() {
    let backends: Vec<Server> = (0..2).map(|_| backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let fabric = Fabric::start(
        Config {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..Config::default()
        },
        RouterConfig::default(),
        addrs,
    )
    .expect("start fabric");

    let healthz = http_get(fabric.local_addr(), "/v1/healthz");
    assert!(healthz.contains("\"service\":\"blob-fabric\""), "{healthz}");
    assert!(healthz.contains("\"shards\":2"), "{healthz}");

    let fab = http_get(fabric.local_addr(), "/v1/fabric");
    assert!(fab.contains("\"counters\""), "{fab}");
    assert!(fab.contains("\"replicas\""), "{fab}");

    let metrics = http_get(fabric.local_addr(), "/v1/metrics");
    assert!(metrics.contains("\"fabric\""), "{metrics}");

    // no bare aliases: the router answers them itself, traced, with the
    // envelope any unknown path gets
    let bare = http_get(fabric.local_addr(), "/healthz");
    assert!(bare.starts_with("HTTP/1.1 404 "), "{bare}");
    assert!(bare.contains("x-blob-trace: "), "{bare}");
    assert!(bare.contains("\"code\":\"not_found\""), "{bare}");
    assert!(!bare.contains("x-blob-shard"), "{bare}");

    fabric.shutdown();
    fabric.join();
    for b in backends {
        b.shutdown();
        b.join();
    }
}

/// One `GET` over a fresh connection; returns the whole response text.
fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s.write_all(format!("GET {path} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read");
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn killing_a_shard_mid_run_loses_zero_requests() {
    let backends: Vec<Server> = (0..3).map(|_| backend()).collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.local_addr()).collect();
    let router = Arc::new(Router::new(RouterConfig::default(), addrs));

    // Spread keys over systems and shapes so every shard takes traffic.
    let systems = ["dawn", "lumi", "isambard-ai"];
    let mut backends = backends;
    let mut victim = Some(backends.remove(1));
    let mut ok = 0usize;
    for i in 0..120 {
        if i == 40 {
            // a real kill: the OS closes the listener and every live
            // connection; in-flight upstream sends fail over
            if let Some(v) = victim.take() {
                v.shutdown();
                v.join();
            }
        }
        let m = 32 << (i % 6);
        let body = advise_body(systems[i % 3], m);
        let (r, _) = router.handle(&post("/v1/advise", &body));
        assert_eq!(
            r.status,
            200,
            "request {i} failed after the kill: {}",
            String::from_utf8_lossy(&r.body)
        );
        ok += 1;
    }
    assert_eq!(ok, 120, "every request must succeed");
    assert!(victim.is_none(), "the kill must have happened");
    assert!(
        router.counters.reroutes.load(Ordering::Relaxed) > 0,
        "the dead shard's keys must have rerouted"
    );
    // the dead replica's breaker opened and its failures were counted
    let (healthz, _) = router.handle(&get("/v1/healthz"));
    let doc = body_json(&healthz);
    let states: Vec<String> = doc
        .get("replicas")
        .and_then(Json::as_arr)
        .expect("replicas")
        .iter()
        .filter_map(|r| r.get("state").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert!(
        states.iter().any(|s| s != "healthy"),
        "some replica must be suspect/ejected after the kill: {states:?}"
    );
    for b in backends {
        b.shutdown();
        b.join();
    }
}

/// A stub replica that answers every request with a valid advise-shaped
/// 200 — after `delay`. Runs until the listener is dropped.
fn slow_replica(delay: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    let handle = std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { break };
            let delay = delay;
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                // serve each keep-alive request on this connection
                loop {
                    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        match s.read(&mut chunk) {
                            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                            _ => return,
                        }
                    }
                    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 4;
                    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
                    let body_len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length: "))
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0);
                    while buf.len() < head_end + body_len {
                        match s.read(&mut chunk) {
                            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                            _ => return,
                        }
                    }
                    buf.drain(..head_end + body_len);
                    std::thread::sleep(delay);
                    let body = r#"{"verdict":"slow-stub"}"#;
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
                         content-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    if s.write_all(resp.as_bytes()).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, handle)
}

#[test]
fn hedge_fires_against_a_slow_replica_and_the_fast_one_wins() {
    let (slow_addr, _slow) = slow_replica(Duration::from_millis(400));
    let fast = backend();
    let cfg = RouterConfig {
        hedge_after: Duration::from_millis(10),
        // keep the floor authoritative: no adaptive delay in this test
        hedge_min_samples: u64::MAX,
        ..RouterConfig::default()
    };
    // Try both orderings: whichever shard a key prefers, some requests
    // will have the slow replica as primary.
    let router = Router::new(cfg, vec![slow_addr, fast.local_addr()]);

    let mut slow_primary_seen = false;
    for i in 0..24 {
        let m = 16 << (i % 8);
        let body = advise_body(["dawn", "lumi", "isambard-ai"][i % 3], m);
        let started = Instant::now();
        let (r, _) = router.handle(&post("/v1/advise", &body));
        // exactly one response per request, always a success
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
        let j = body_json(&r);
        if j.get("verdict").and_then(Json::as_str) == Some("slow-stub") {
            slow_primary_seen = true;
        } else {
            // the fast replica's answer is a real verdict
            assert!(j.get("system").is_some(), "{j:?}");
        }
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "request {i} waited out the slow replica instead of hedging: {:?}",
            started.elapsed()
        );
    }
    let fired = router.counters.hedge_fired.load(Ordering::Relaxed);
    let won = router.counters.hedge_won.load(Ordering::Relaxed);
    let discarded = router.counters.hedge_discarded.load(Ordering::Relaxed);
    assert!(fired >= 1, "no hedge fired against a 400 ms replica");
    assert!(
        won >= 1,
        "the fast replica never won a hedge (fired {fired})"
    );
    assert!(
        discarded >= won,
        "every hedge won must discard the loser (won {won}, discarded {discarded})"
    );
    assert!(
        !slow_primary_seen || fired >= 1,
        "slow primary answered requests without any hedge"
    );
    fast.shutdown();
    fast.join();
}

#[test]
fn all_replicas_dead_is_a_clean_503_envelope() {
    // bind-then-drop: addresses that are guaranteed closed
    let dead: Vec<SocketAddr> = (0..2)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .expect("bind")
                .local_addr()
                .expect("addr")
        })
        .collect();
    let router = Router::new(RouterConfig::default(), dead);
    let (r, _) = router.handle(&post("/v1/advise", &advise_body("lumi", 128)));
    assert_eq!(r.status, 503);
    let err = body_json(&r).get("error").cloned().expect("envelope");
    assert_eq!(
        err.get("code").and_then(Json::as_str),
        Some("upstream_unavailable")
    );
    assert!(err.get("trace_id").is_some());
}
