//! End-to-end smoke test of `gpu-blob serve`: spawn the real binary on an
//! ephemeral port, drive every endpoint over a TCP socket, verify the
//! threshold cache actually hits, and shut the server down cleanly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct ServerUnderTest {
    child: Child,
    addr: String,
    // Keeps the child's stdout pipe open so its later prints (e.g.
    // "server stopped") don't hit a broken pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServerUnderTest {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gpu-blob"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--cache-entries",
                "32",
                "--allow-remote-shutdown",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn gpu-blob serve");
        // the first stdout line is `listening on <addr>` (line-buffered)
        let stdout = child.stdout.take().expect("child stdout");
        let mut reader = BufReader::new(stdout);
        let mut first = String::new();
        reader.read_line(&mut first).expect("read stdout");
        let addr = first
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {first}"))
            .to_string();
        Self {
            child,
            addr,
            _stdout: reader,
        }
    }

    /// One request over a fresh connection; returns (status, body).
    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut s = TcpStream::connect(&self.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let req = format!(
            "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        );
        s.write_all(req.as_bytes()).unwrap();
        let mut reply = Vec::new();
        s.read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply).into_owned();
        let status: u16 = text
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split(' ').next())
            .and_then(|c| c.parse().ok())
            .unwrap_or_else(|| panic!("no status line in {text:?}"));
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }
}

impl Drop for ServerUnderTest {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pulls `"key":<number>` out of a JSON text (good enough for flat reads
/// against our own deterministic encoder).
fn num_after(json: &str, context: &str, key: &str) -> f64 {
    let section = if context.is_empty() {
        json
    } else {
        json.split(context).nth(1).unwrap_or(json)
    };
    let tag = format!("\"{key}\":");
    let at = section
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {json}"))
        + tag.len();
    section[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e')
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad number for {key}"))
}

#[test]
fn full_service_lifecycle_with_cache_hit() {
    let server = ServerUnderTest::spawn();

    // healthz
    let (status, body) = server.request("GET", "/v1/healthz", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""ok":true"#), "{body}");

    // systems lists the paper's machines
    let (status, body) = server.request("GET", "/v1/systems", "");
    assert_eq!(status, 200);
    for name in ["dawn", "lumi", "isambard-ai", "mi300a"] {
        assert!(body.contains(name), "missing {name} in {body}");
    }

    // advise: a big GEMM on Isambard-AI must say offload
    let (status, body) = server.request(
        "POST",
        "/v1/advise",
        r#"{"system":"isambard-ai","op":"gemm","m":2048,"n":2048,"k":2048,"precision":"f32","iterations":32}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""verdict":"offload""#), "{body}");

    // threshold twice: the second must be a cache hit and much faster
    let req = r#"{"system":"lumi","problem":"gemm_square","precision":"f32","iterations":8,"max_dim":2048}"#;
    let (status, first) = server.request("POST", "/v1/threshold", req);
    assert_eq!(status, 200, "{first}");
    assert!(first.contains(r#""cached":false"#), "{first}");
    let miss_us = num_after(&first, "", "compute_us");

    let (status, second) = server.request("POST", "/v1/threshold", req);
    assert_eq!(status, 200);
    assert!(second.contains(r#""cached":true"#), "{second}");
    let hit_us = num_after(&second, "", "compute_us");
    // identical threshold table either way
    let table = |b: &str| {
        b.split("\"thresholds\":")
            .nth(1)
            .and_then(|t| t.split(",\"cached\"").next())
            .map(str::to_string)
    };
    assert_eq!(table(&first), table(&second));
    // a miss runs a 2048-point sweep; a hit is a map lookup. Demand a
    // clear gap, not a knife-edge ratio, so the test is timing-robust.
    assert!(
        hit_us * 2.0 <= miss_us,
        "cache hit ({hit_us} us) not faster than miss ({miss_us} us)"
    );

    // metrics agree: exactly one hit, one miss, and our request counts
    let (status, metrics) = server.request("GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(num_after(&metrics, "\"cache\":", "hits"), 1.0, "{metrics}");
    assert_eq!(num_after(&metrics, "\"cache\":", "misses"), 1.0);
    assert_eq!(num_after(&metrics, "\"threshold\":", "requests"), 2.0);
    assert_eq!(num_after(&metrics, "\"advise\":", "requests"), 1.0);
    assert!(num_after(&metrics, "\"threshold\":", "p99_us") > 0.0);

    // clean shutdown via the endpoint; the process must exit on its own
    let (status, body) = server.request("POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "{body}");
    let mut server = server;
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match server.child.try_wait().expect("try_wait") {
            Some(code) => {
                assert!(code.success(), "server exited with {code}");
                break;
            }
            None if std::time::Instant::now() > deadline => {
                panic!("server did not exit after /shutdown")
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}
