//! Load generator for `blob-serve`: starts the service in-process, hammers
//! `POST /v1/advise` from keep-alive client threads, and prints throughput
//! and tail latency. `--min-rps` turns the run into a pass/fail gate, which
//! is how `ci.sh` asserts the loopback throughput floor.
//!
//! With `--shards N` the run targets the sharded fabric instead: N real
//! `gpu-blob serve` worker processes behind the in-process shard router.
//! `--kill-one` then kills one worker a quarter of the way through — the
//! run must still finish with **zero** failed requests (the router
//! reroutes around the corpse), which is the CI chaos gate. `--batch B`
//! packs B calls into each `POST /v1/advise` request, so the aggregate
//! figure is calls/s rather than requests/s.
//!
//! ```text
//! cargo run --release -p blob-bench --bin serve_load -- \
//!     --clients 4 --requests 2000 --min-rps 1000
//! cargo run --release -p blob-bench --bin serve_load -- \
//!     --shards 3 --kill-one --batch 16 --clients 4 --requests 500
//! ```
//!
//! The run prints its row and writes nothing: recorded serve performance is
//! the ledger's `serve_advise`/`serve_threshold` workloads. What stays here
//! is the two pass/fail gates, the fabric being the one plane the ledger
//! does not run.

use blob_serve::fabric::BackendProc;
use blob_serve::http::Limits;
use blob_serve::metrics::Histogram;
use blob_serve::{Config, Fabric, RouterConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct LoadArgs {
    clients: usize,
    requests: usize,
    server_threads: usize,
    min_rps: f64,
    shards: usize,
    kill_one: bool,
    batch: usize,
}

impl Default for LoadArgs {
    fn default() -> Self {
        Self {
            clients: 4,
            requests: 2000,
            server_threads: 4,
            min_rps: 0.0,
            shards: 0,
            kill_one: false,
            batch: 1,
        }
    }
}

fn parse_args() -> LoadArgs {
    let mut args = LoadArgs::default();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
                .as_str()
        };
        match flag.as_str() {
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--requests" => args.requests = value("--requests").parse().expect("--requests"),
            "--server-threads" => {
                args.server_threads = value("--server-threads").parse().expect("--server-threads")
            }
            "--min-rps" => args.min_rps = value("--min-rps").parse().expect("--min-rps"),
            "--shards" => args.shards = value("--shards").parse().expect("--shards"),
            "--kill-one" => args.kill_one = true,
            "--batch" => args.batch = value("--batch").parse().expect("--batch"),
            other => panic!("unknown flag {other} (see source header for usage)"),
        }
    }
    assert!(
        (1..=256).contains(&args.batch),
        "--batch must be 1..=256 (the server's advise-batch cap)"
    );
    assert!(
        !args.kill_one || args.shards >= 2,
        "--kill-one needs --shards 2+ (killing the only replica loses requests by definition)"
    );
    args
}

/// Reads one HTTP response off a keep-alive stream; returns the status.
fn read_response(s: &mut TcpStream, buf: &mut Vec<u8>) -> u16 {
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        let n = s.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let body_len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length")
        .trim()
        .parse()
        .expect("content-length value");
    while buf.len() < head_end + body_len {
        let n = s.read(&mut chunk).expect("read body");
        assert!(n > 0, "server closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    buf.drain(..head_end + body_len);
    status
}

/// The systems the load mix rotates through. Together with the rotated
/// shape buckets this yields enough distinct route keys that the fabric
/// spreads the load over every shard instead of pinning one.
const SYSTEMS: [&str; 3] = ["isambard-ai", "lumi", "dawn"];

/// The advise body for request `i` of client `c`: a single call when
/// `batch == 1`, else a `calls` array of `batch` rotated shapes. The
/// system and the shape bucket (`m` spans 64..=2048 by powers of two)
/// both rotate per request.
fn advise_body(c: usize, i: usize, requests: usize, batch: usize) -> String {
    let seq = c * requests + i;
    let system = SYSTEMS[seq % SYSTEMS.len()];
    let m = |extra: usize| (64usize << ((seq + extra) % 6)) + (seq + extra) % 64;
    if batch == 1 {
        let m = m(0);
        return format!(
            r#"{{"system":"{system}","op":"gemm","m":{m},"n":{m},"k":{m},"precision":"f32","iterations":8}}"#
        );
    }
    let mut calls = String::new();
    for b in 0..batch {
        if b > 0 {
            calls.push(',');
        }
        let m = m(b);
        calls.push_str(&format!(
            r#"{{"op":"gemm","m":{m},"n":{m},"k":{m},"precision":"f32"}}"#
        ));
    }
    format!(r#"{{"system":"{system}","iterations":8,"calls":[{calls}]}}"#)
}

/// Finds the `gpu-blob` binary next to this bench binary (the whole
/// workspace shares one `target/<profile>/` directory).
fn gpu_blob_bin() -> std::path::PathBuf {
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir");
    let bin = dir.join(if cfg!(windows) {
        "gpu-blob.exe"
    } else {
        "gpu-blob"
    });
    assert!(
        bin.exists(),
        "{} not found — build it first (cargo build --release -p blob-cli)",
        bin.display()
    );
    bin
}

/// Either serving mode behind one address.
enum Target {
    Single(Server),
    Fabric {
        fabric: Fabric,
        backends: Vec<BackendProc>,
    },
}

fn main() {
    let args = parse_args();
    // Honour GPU_BLOB_FAULTS so CI can chaos the router's own fault
    // points (fabric.route / fabric.backend) during the load run. The
    // spawned backend processes inherit the variable and install their
    // plans themselves.
    match blob_core::fault::install_from_env() {
        Ok(true) => eprintln!("serve_load: fault plan installed (chaos mode)"),
        Ok(false) => {}
        Err(e) => panic!("bad GPU_BLOB_FAULTS plan: {e}"),
    }
    let front_cfg = Config {
        addr: "127.0.0.1:0".to_string(),
        threads: args.server_threads,
        cache_entries: 256,
        cache_shards: 8,
        limits: Limits {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            ..Limits::default()
        },
        allow_shutdown: false,
        ..Config::default()
    };
    let mut target = if args.shards == 0 {
        Target::Single(Server::start(front_cfg).expect("start server"))
    } else {
        let bin = gpu_blob_bin();
        let backends: Vec<BackendProc> = (0..args.shards)
            .map(|_| {
                BackendProc::spawn(&bin, &["--threads", "4", "--cache-entries", "256"])
                    .expect("spawn shard")
            })
            .collect();
        let addrs: Vec<SocketAddr> = backends.iter().map(|b| b.addr).collect();
        let fabric =
            Fabric::start(front_cfg, RouterConfig::default(), addrs).expect("start fabric");
        Target::Fabric { fabric, backends }
    };
    let addr = match &target {
        Target::Single(s) => s.local_addr(),
        Target::Fabric { fabric, .. } => fabric.local_addr(),
    };
    println!(
        "serve_load: {} clients x {} requests (batch {}) against {} ({} front threads, {} shards)",
        args.clients, args.requests, args.batch, addr, args.server_threads, args.shards
    );

    // --kill-one: a watcher kills one worker process once a quarter of
    // the total requests have completed. The run must still end with
    // zero errors — the router's failover absorbs the loss.
    let progress = Arc::new(AtomicUsize::new(0));
    let total = args.clients * args.requests;
    let killer = if args.kill_one {
        let Target::Fabric { backends, .. } = &mut target else {
            unreachable!("--kill-one requires --shards (validated above)");
        };
        let victim_id = backends.len() / 2;
        let mut victim = backends.remove(victim_id);
        let progress = Arc::clone(&progress);
        Some(std::thread::spawn(move || {
            while progress.load(Ordering::Relaxed) < total / 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            victim.kill();
            println!("killed shard {victim_id} ({}) mid-run", victim.addr);
            victim_id
        }))
    } else {
        None
    };

    let latency = Arc::new(Histogram::new());
    let started = Instant::now();
    let handles: Vec<_> = (0..args.clients)
        .map(|c| {
            let latency = Arc::clone(&latency);
            let progress = Arc::clone(&progress);
            let requests = args.requests;
            let batch = args.batch;
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).ok();
                let mut buf = Vec::new();
                let mut errors = 0usize;
                for i in 0..requests {
                    // rotate dimensions so responses vary but stay cheap
                    let body = advise_body(c, i, requests, batch);
                    let req = format!(
                        "POST /v1/advise HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                        body.len()
                    );
                    let t0 = Instant::now();
                    s.write_all(req.as_bytes()).expect("write request");
                    let status = read_response(&mut s, &mut buf);
                    latency.record_us(t0.elapsed().as_micros() as u64);
                    progress.fetch_add(1, Ordering::Relaxed);
                    if status != 200 {
                        errors += 1;
                    }
                }
                errors
            })
        })
        .collect();
    let errors: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
    let elapsed = started.elapsed().as_secs_f64();
    let killed = killer.map(|k| k.join().expect("killer"));

    let rps = total as f64 / elapsed;
    let calls_per_s = (total * args.batch) as f64 / elapsed;
    let (p50, p90, p99) = (
        latency.quantile_us(0.50),
        latency.quantile_us(0.90),
        latency.quantile_us(0.99),
    );
    let (reroutes, hedges) = match &target {
        Target::Single(_) => (0, 0),
        Target::Fabric { fabric, .. } => {
            let c = &fabric.router().counters;
            (
                c.reroutes.load(Ordering::Relaxed),
                c.hedge_fired.load(Ordering::Relaxed),
            )
        }
    };
    println!(
        "{total} requests ({} calls) in {elapsed:.3} s -> {rps:.0} req/s, {calls_per_s:.0} calls/s | \
         mean {:.0} us, p50 {p50} us, p90 {p90} us, p99 {p99} us | \
         {errors} errors, {reroutes} reroutes, {hedges} hedges{}",
        total * args.batch,
        latency.mean_us(),
        match killed {
            Some(id) => format!(" | shard {id} killed, zero loss"),
            None => String::new(),
        }
    );

    match target {
        Target::Single(server) => {
            server.shutdown();
            server.join();
        }
        Target::Fabric { fabric, backends } => {
            fabric.shutdown();
            fabric.join();
            drop(backends); // kills the children
        }
    }

    assert_eq!(errors, 0, "load run saw non-200 responses");
    if killed.is_some() {
        assert!(
            reroutes > 0,
            "a shard died but nothing rerouted — the kill landed too late to matter"
        );
    }
    if args.min_rps > 0.0 && calls_per_s < args.min_rps {
        eprintln!(
            "FAIL: {calls_per_s:.0} calls/s is below the --min-rps {} floor",
            args.min_rps
        );
        std::process::exit(1);
    }
}
