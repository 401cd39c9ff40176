//! The sharded serve fabric: a shard router fronting N backend worker
//! processes, with replica health, hedged requests, and zero-loss
//! failover (`DESIGN.md` §16).
//!
//! Layout:
//!
//! - [`ring`] — consistent-hash placement of `(system, op, shape-bucket)`
//!   keys over the shard set, with deterministic preference lists
//! - [`health`] — the per-replica circuit breaker (Healthy → Suspect →
//!   Ejected → Probation) with exponential-backoff reinstatement
//! - [`client`] — the upstream HTTP client: timeout-sliced polling (the
//!   `std`-only way to race two sockets) and bounded keep-alive pools
//! - [`router`] — the [`Router`]: a [`crate::server::Handler`] that
//!   places, hedges, fails over, and serves the fabric's own
//!   `/v1/healthz`, `/v1/metrics`, `/v1/fabric`, `/v1/shutdown`
//!
//! [`Fabric`] ties a router to the TCP front end from
//! [`crate::server::Server`] and runs the health prober. Process
//! lifecycle (spawning `gpu-blob serve` children, respawning dead ones)
//! stays with the callers — `gpu-blob serve --shards N` and the
//! `serve_load` bench — via [`BackendProc`].

pub mod client;
pub mod health;
pub mod ring;
pub mod router;

pub use router::{FabricCounters, Router, RouterConfig};

use crate::server::{Config, Handler, Server};
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running fabric: the router behind a [`Server`], plus the prober
/// thread feeding replica health.
pub struct Fabric {
    server: Server,
    router: Arc<Router>,
    stop: Arc<AtomicBool>,
    prober: Option<JoinHandle<()>>,
}

impl Fabric {
    /// Binds the front end per `server_cfg` and starts routing to
    /// `backends`.
    pub fn start(
        server_cfg: Config,
        router_cfg: RouterConfig,
        backends: Vec<SocketAddr>,
    ) -> io::Result<Fabric> {
        let router = Arc::new(Router::new(router_cfg, backends));
        let server = Server::start_with(server_cfg, Arc::clone(&router) as Arc<dyn Handler>)?;
        let stop = Arc::new(AtomicBool::new(false));
        let prober = {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let interval = router.config().probe_interval;
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    router.probe_all();
                    std::thread::sleep(interval);
                }
            })
        };
        Ok(Fabric {
            server,
            router,
            stop,
            prober: Some(prober),
        })
    }

    /// The front end's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The router (health, counters, `replace_shard`).
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Requests shutdown of the front end and the prober.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.server.shutdown();
    }

    /// Waits for the front end and the prober to exit. A `/v1/shutdown`
    /// served by the router also unblocks this.
    pub fn join(mut self) {
        self.server.join();
        self.stop.store(true, Ordering::Relaxed);
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

/// A supervised backend worker process: a `gpu-blob serve` child bound to
/// an ephemeral port, with its announced address parsed from stdout.
pub struct BackendProc {
    /// The child process handle.
    pub child: Child,
    /// The address the child announced with `listening on <addr>`.
    pub addr: SocketAddr,
    /// Drains the child's remaining stdout so it can never block on a
    /// full pipe.
    drain: Option<JoinHandle<()>>,
}

impl BackendProc {
    /// Spawns `bin serve --addr 127.0.0.1:0 <extra_args>` and waits for
    /// its `listening on <addr>` line.
    pub fn spawn(bin: &Path, extra_args: &[&str]) -> io::Result<BackendProc> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().ok_or_else(|| {
            io::Error::new(io::ErrorKind::BrokenPipe, "child stdout was not captured")
        })?;
        let mut reader = BufReader::new(stdout);
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "backend exited before announcing its address",
                ));
            }
            if let Some(rest) = line.trim().strip_prefix("listening on ") {
                match rest.trim().parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(_) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "backend announced an unparsable address",
                        ));
                    }
                }
            }
        };
        let drain = std::thread::spawn(move || {
            let mut sink = [0u8; 4096];
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        });
        Ok(BackendProc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// True when the process has exited (dead backends need respawning).
    pub fn is_dead(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }

    /// Kills the process and reaps it (idempotent; errors ignored — the
    /// process may already be gone).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for BackendProc {
    fn drop(&mut self) {
        self.kill();
    }
}
