//! Robustness tests against a real server over real sockets: every way a
//! client can misbehave must produce a clean HTTP error (never a worker
//! panic), and the server must keep serving afterwards.

use blob_core::wire::Json;
use blob_serve::http::Limits;
use blob_serve::{Config, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(read_timeout_ms: u64) -> Server {
    Server::start(Config {
        addr: "127.0.0.1:0".to_string(),
        threads: 4,
        cache_entries: 16,
        cache_shards: 4,
        limits: Limits {
            max_body: 8 * 1024,
            read_timeout: Duration::from_millis(read_timeout_ms),
            write_timeout: Duration::from_millis(read_timeout_ms),
        },
        allow_shutdown: false,
        ..Config::default()
    })
    .expect("bind ephemeral port")
}

/// Sends raw bytes, reads until EOF, returns the whole reply.
fn raw_roundtrip(server: &Server, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(bytes).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn oversized_body_gets_413_not_a_panic() {
    let server = start(2_000);
    // Declare far more than the 8 KiB limit — the server must answer from
    // the Content-Length header alone, without us sending a single body byte.
    let reply = raw_roundtrip(
        &server,
        b"POST /v1/advise HTTP/1.1\r\ncontent-length: 10000000\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert!(reply.contains("connection: close"), "{reply}");
    // the server is still alive
    let reply = raw_roundtrip(
        &server,
        b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    server.shutdown();
    server.join();
}

#[test]
fn malformed_json_gets_400_not_a_panic() {
    let server = start(2_000);
    for body in ["{\"system\": ", "not json at all", "[1,2,3]", "{}"] {
        let reply = raw_roundtrip(&server, &post("/v1/advise", body));
        assert!(reply.starts_with("HTTP/1.1 400 "), "body {body:?}: {reply}");
        assert!(reply.contains("\"error\""), "{reply}");
    }
    let reply = raw_roundtrip(
        &server,
        b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    server.shutdown();
    server.join();
}

#[test]
fn malformed_http_gets_400() {
    let server = start(2_000);
    let reply = raw_roundtrip(&server, b"NOT-EVEN HTTP\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    server.shutdown();
    server.join();
}

#[test]
fn unknown_route_404_wrong_method_405_chunked_501() {
    let server = start(2_000);
    let reply = raw_roundtrip(&server, &post("/frobnicate", "{}"));
    assert!(reply.starts_with("HTTP/1.1 404 "), "{reply}");
    let reply = raw_roundtrip(
        &server,
        b"DELETE /v1/advise HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 405 "), "{reply}");
    let reply = raw_roundtrip(
        &server,
        b"POST /v1/advise HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 501 "), "{reply}");
    server.shutdown();
    server.join();
}

/// Splits a raw HTTP reply into (head, parsed JSON body).
fn split_reply(reply: &str) -> (&str, Json) {
    let (head, body) = reply.split_once("\r\n\r\n").expect("complete response");
    (head, Json::parse(body).expect("JSON body"))
}

/// Asserts the uniform error envelope and that its `trace_id` matches the
/// `X-Blob-Trace` response header; returns the envelope's `code`.
fn assert_envelope(reply: &str) -> String {
    let (head, doc) = split_reply(reply);
    let header_id = head
        .lines()
        .find_map(|l| l.strip_prefix("x-blob-trace: "))
        .expect("x-blob-trace header")
        .trim()
        .to_string();
    let err = doc.get("error").expect("error envelope");
    assert_eq!(
        err.get("trace_id").and_then(Json::as_str),
        Some(header_id.as_str()),
        "{reply}"
    );
    assert!(
        err.get("message").and_then(Json::as_str).is_some(),
        "{reply}"
    );
    err.get("code").and_then(Json::as_str).unwrap().to_string()
}

#[test]
fn error_envelopes_are_uniform_across_every_layer() {
    let server = start(2_000);
    // 413: answered by the connection layer before the handler runs
    let reply = raw_roundtrip(
        &server,
        b"POST /v1/advise HTTP/1.1\r\ncontent-length: 10000000\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 413 "), "{reply}");
    assert_eq!(assert_envelope(&reply), "payload_too_large");
    // 400: handler-level validation
    let reply = raw_roundtrip(&server, &post("/v1/advise", "not json"));
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    assert_eq!(assert_envelope(&reply), "invalid_json");
    // 404: routing miss
    let reply = raw_roundtrip(&server, &post("/v1/frobnicate", "{}"));
    assert!(reply.starts_with("HTTP/1.1 404 "), "{reply}");
    assert_eq!(assert_envelope(&reply), "not_found");
    // 501: unsupported transfer-encoding, also from the connection layer
    let reply = raw_roundtrip(
        &server,
        b"POST /v1/advise HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 501 "), "{reply}");
    assert_eq!(assert_envelope(&reply), "unsupported_encoding");
    server.shutdown();
    server.join();
}

#[test]
fn deadline_exhaustion_envelope_is_a_503_over_a_real_socket() {
    let server = Server::start(Config {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cache_entries: 4,
        cache_shards: 2,
        allow_shutdown: false,
        deadline: Duration::ZERO,
        ..Config::default()
    })
    .expect("bind ephemeral port");
    let reply = raw_roundtrip(
        &server,
        &post(
            "/v1/threshold",
            r#"{"system":"lumi","problem":"gemm_square","max_dim":16,"iterations":1}"#,
        ),
    );
    assert!(reply.starts_with("HTTP/1.1 503 "), "{reply}");
    assert_eq!(assert_envelope(&reply), "deadline_exceeded");
    server.shutdown();
    server.join();
}

#[test]
fn v1_routes_serve_over_the_socket_and_bare_paths_are_not_found() {
    let server = start(2_000);
    let reply = raw_roundtrip(
        &server,
        b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    assert!(reply.contains("x-blob-trace: "), "{reply}");
    let reply = raw_roundtrip(
        &server,
        b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 404 "), "{reply}");
    assert_eq!(assert_envelope(&reply), "not_found");
    // the trace endpoint answers with a chrome://tracing document
    let reply = raw_roundtrip(
        &server,
        b"GET /v1/trace?last=32 HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    let (_, doc) = split_reply(&reply);
    assert!(
        doc.get("traceEvents").and_then(Json::as_arr).is_some(),
        "{reply}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn slow_loris_is_cut_off_by_the_read_timeout() {
    let server = start(300); // short timeout so the test is fast
    let started = Instant::now();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    // drip one header fragment, then stall forever
    s.write_all(b"POST /v1/advise HTTP/1.1\r\ncontent-le")
        .unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out); // returns once the server gives up on us
    let reply = String::from_utf8_lossy(&out);
    // best-effort 408, and the connection was closed well before 10 s
    assert!(
        reply.is_empty() || reply.starts_with("HTTP/1.1 408 "),
        "{reply}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "server held a stalled connection for {:?}",
        started.elapsed()
    );
    // and it still serves the next client
    let reply = raw_roundtrip(
        &server,
        b"GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
    );
    assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
    server.shutdown();
    server.join();
}

#[test]
fn concurrent_clients_all_complete() {
    let server = start(5_000);
    let addr = server.local_addr();
    let clients = 8;
    let per_client = 5;
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut done = 0;
                for i in 0..per_client {
                    let body = format!(
                        r#"{{"system":"lumi","op":"gemm","m":{m},"n":{m},"k":{m},"precision":"f32","iterations":8}}"#,
                        m = 16 + c * per_client + i
                    );
                    let req = format!(
                        "POST /v1/advise HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    s.write_all(req.as_bytes()).unwrap();
                    // read one keep-alive response (head + body)
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 1024];
                    let head_end = loop {
                        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            break at + 4;
                        }
                        let n = s.read(&mut chunk).unwrap();
                        assert!(n > 0, "eof mid-response");
                        buf.extend_from_slice(&chunk[..n]);
                    };
                    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
                    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
                    let body_len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length: "))
                        .unwrap()
                        .trim()
                        .parse()
                        .unwrap();
                    while buf.len() < head_end + body_len {
                        let n = s.read(&mut chunk).unwrap();
                        assert!(n > 0, "eof mid-body");
                        buf.extend_from_slice(&chunk[..n]);
                    }
                    let body_text = String::from_utf8_lossy(&buf[head_end..head_end + body_len]);
                    assert!(body_text.contains("\"verdict\""), "{body_text}");
                    done += 1;
                }
                done
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, clients * per_client);
    server.shutdown();
    server.join();
}
