//! The shard router: a [`Handler`] that fronts N backend replicas.
//!
//! Request path (see `DESIGN.md` §16):
//!
//! 1. **Key** — `(system, op, shape-bucket)` extracted from the request
//!    body; keyless requests (GETs, unparsable bodies) round-robin.
//! 2. **Placement** — the consistent-hash ring yields the full preference
//!    list; candidates are re-ordered by health (available and
//!    non-degraded first, ejected replicas only as a last resort, so a
//!    fully-dark fleet still gets *attempted* rather than failed).
//! 3. **Attempt** — take a pooled connection (or dial), send, poll in
//!    short timeout slices. Past the hedge delay a second replica gets
//!    the same request and the two are polled alternately; first
//!    complete response wins, the loser is discarded.
//! 4. **Failover** — a failed attempt (connect refused, mid-stream EOF,
//!    the `fabric.backend` fault point) marks the replica's breaker and
//!    moves to the next candidate. The request fails only when every
//!    candidate failed — that is the zero-loss guarantee the chaos suite
//!    (`ci.sh` kill-a-shard stage) holds the fabric to.
//!
//! The router serves its own `/v1/healthz`, `/v1/metrics`, `/v1/fabric`
//! and `/v1/shutdown`; every other route is proxied. Proxying is safe to
//! retry because the advisor API is computational: `advise`/`threshold`
//! recompute deterministically, and a replayed `dispatch` call at worst
//! double-counts one decision in a session's counters.

use super::client::{Pool, Upstream, UpstreamResponse};
use super::health::{Backoff, ReplicaHealth, State, Transition};
use super::ring::{hash64, shape_bucket, Ring};
use crate::envelope::{self, codes};
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use crate::server::Handler;
use blob_core::fault;
use blob_core::trace;
use blob_core::wire::Json;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Tuning for the router. The defaults suit a local fleet of worker
/// processes; the CLI exposes the two that matter operationally
/// (`--hedge-ms`, `--probe-ms`).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Floor for the hedge delay: never hedge before this much waiting.
    pub hedge_after: Duration,
    /// Latency quantile that sets the adaptive hedge delay once enough
    /// observations exist (deadline-risk percentile).
    pub hedge_quantile: f64,
    /// Observations required before the adaptive delay replaces the floor.
    pub hedge_min_samples: u64,
    /// How often the prober polls each replica's `/v1/healthz`.
    pub probe_interval: Duration,
    /// Per-probe budget (connect + exchange).
    pub probe_timeout: Duration,
    /// Upstream connect budget per attempt.
    pub connect_timeout: Duration,
    /// Total budget for one attempt (including its hedge).
    pub attempt_timeout: Duration,
    /// Poll-slice granularity for interleaving primary and hedge.
    pub poll_slice: Duration,
    /// Circuit-breaker reinstatement backoff.
    pub backoff: Backoff,
    /// Idle keep-alive connections kept per shard.
    pub pool_cap: usize,
    /// Whether the router honours `POST /v1/shutdown`.
    pub allow_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            hedge_after: Duration::from_millis(30),
            hedge_quantile: 0.99,
            hedge_min_samples: 64,
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            attempt_timeout: Duration::from_secs(2),
            poll_slice: Duration::from_millis(2),
            backoff: Backoff::default(),
            pool_cap: 8,
            allow_shutdown: false,
        }
    }
}

/// Fabric-wide event counters (all pure-`Relaxed`; rendered under the
/// `fabric` section of `/v1/metrics`).
#[derive(Default)]
pub struct FabricCounters {
    /// Requests proxied to a backend (own-endpoint hits excluded).
    pub routed: AtomicU64,
    /// Failovers: attempts on a non-primary candidate after a failure.
    pub reroutes: AtomicU64,
    /// Hedges sent to a second replica.
    pub hedge_fired: AtomicU64,
    /// Hedges whose response won the race.
    pub hedge_won: AtomicU64,
    /// Loser connections discarded after a hedge race.
    pub hedge_discarded: AtomicU64,
    /// Circuit-breaker trips.
    pub ejections: AtomicU64,
    /// Replicas reinstated to Healthy.
    pub reinstatements: AtomicU64,
    /// Successful health probes.
    pub probes_ok: AtomicU64,
    /// Failed health probes.
    pub probes_failed: AtomicU64,
    /// Requests that failed on every candidate (the 503 path).
    pub no_replica: AtomicU64,
}

impl FabricCounters {
    /// JSON snapshot of every counter.
    pub fn to_json(&self) -> Json {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Json::obj()
            .field("routed", get(&self.routed))
            .field("reroutes", get(&self.reroutes))
            .field("hedge_fired", get(&self.hedge_fired))
            .field("hedge_won", get(&self.hedge_won))
            .field("hedge_discarded", get(&self.hedge_discarded))
            .field("ejections", get(&self.ejections))
            .field("reinstatements", get(&self.reinstatements))
            .field("probes_ok", get(&self.probes_ok))
            .field("probes_failed", get(&self.probes_failed))
            .field("no_replica", get(&self.no_replica))
            .build()
    }
}

/// One backend replica slot: its address (mutable — the supervisor swaps
/// in a respawned process), health, connection pool, and traffic stats.
pub struct Shard {
    addr: Mutex<SocketAddr>,
    /// Circuit-breaker state.
    pub health: ReplicaHealth,
    pool: Pool,
    /// Requests this shard answered.
    pub routed: AtomicU64,
    /// Attempts against this shard that failed.
    pub failures: AtomicU64,
}

impl Shard {
    /// The replica's current address.
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The shard router. Implements [`Handler`], so [`crate::server::Server`]
/// fronts it with the same accept-loop/worker-pool/supervisor stack as a
/// single replica.
pub struct Router {
    cfg: RouterConfig,
    ring: Ring,
    shards: Vec<Shard>,
    /// Fabric event counters.
    pub counters: FabricCounters,
    metrics: Metrics,
    epoch: Instant,
    rr: AtomicU64,
    shutdown: AtomicBool,
}

/// Why one attempt against one shard failed.
enum AttemptError {
    /// The failure happened on the primary (connect/send/poll/injected).
    Primary(String),
}

impl Router {
    /// Builds a router over `backends` (one shard per address).
    pub fn new(cfg: RouterConfig, backends: Vec<SocketAddr>) -> Router {
        let shards: Vec<Shard> = backends
            .into_iter()
            .map(|addr| Shard {
                addr: Mutex::new(addr),
                health: ReplicaHealth::default(),
                pool: Pool::new(cfg.pool_cap),
                routed: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            })
            .collect();
        let ring = Ring::new(shards.len() as u32);
        Router {
            cfg,
            ring,
            shards,
            counters: FabricCounters::default(),
            metrics: Metrics::new(),
            epoch: Instant::now(),
            rr: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The router's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// The shard slots.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Milliseconds since the router started (the health machine's clock).
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Swaps the process behind shard `id`: new address, cleared pool,
    /// pristine health. Called by the supervisor after a respawn.
    pub fn replace_shard(&self, id: usize, addr: SocketAddr) {
        let Some(shard) = self.shards.get(id) else {
            return;
        };
        *shard.addr.lock().unwrap_or_else(PoisonError::into_inner) = addr;
        shard.pool.clear();
        shard.health.reset();
    }

    /// Folds a health transition into the fabric counters.
    fn count_transition(&self, t: Transition) {
        match t {
            Transition::Ejected => {
                self.counters.ejections.fetch_add(1, Ordering::Relaxed);
            }
            Transition::Reinstated => {
                self.counters.reinstatements.fetch_add(1, Ordering::Relaxed);
            }
            Transition::None => {}
        }
    }

    /// Probes every replica's `/v1/healthz` once. Run by the fabric's
    /// prober thread every `probe_interval`.
    pub fn probe_all(&self) {
        for shard in &self.shards {
            let addr = shard.addr();
            match probe_one(addr, self.cfg.probe_timeout) {
                Ok(degraded) => {
                    self.counters.probes_ok.fetch_add(1, Ordering::Relaxed);
                    shard.health.set_degraded(degraded);
                    self.count_transition(shard.health.on_success());
                }
                Err(_) => {
                    self.counters.probes_failed.fetch_add(1, Ordering::Relaxed);
                    self.count_transition(shard.health.on_failure(self.now_ms(), self.cfg.backoff));
                }
            }
        }
    }

    /// The route key for a request, when one can be extracted: the body's
    /// `system`/`op` plus the shape bucket of its dimensions. Keyless
    /// requests round-robin instead.
    fn route_key(&self, req: &Request) -> Option<String> {
        if req.method != "POST" || req.body.is_empty() {
            return None;
        }
        let doc = Json::parse(std::str::from_utf8(&req.body).ok()?).ok()?;
        let system = doc.get("system").and_then(Json::as_str)?;
        // A batched advise body keys on its first call's shape: the whole
        // batch still lands on one replica, but distinct batches spread.
        let shape_src = doc
            .get("calls")
            .and_then(Json::as_arr)
            .and_then(|calls| calls.first())
            .unwrap_or(&doc);
        let op = shape_src
            .get("op")
            .and_then(Json::as_str)
            .unwrap_or("any")
            .to_string();
        let dims: Vec<u64> = ["m", "n", "k"]
            .iter()
            .filter_map(|d| shape_src.get(d).and_then(Json::as_u64))
            .collect();
        Some(format!("{system}|{op}|{}", shape_bucket(&dims)))
    }

    /// Candidate shards in attempt order: the ring's preference list (or
    /// a round-robin rotation for keyless requests), partitioned so
    /// healthy replicas come first, probe-degraded ones after, and
    /// unavailable (ejected) ones last — kept as a last resort so the
    /// router never refuses to try at all.
    fn candidates(&self, key: Option<&str>) -> Vec<usize> {
        let n = self.shards.len();
        let base: Vec<usize> = match key {
            Some(k) => self
                .ring
                .preference(hash64(k.as_bytes()))
                .into_iter()
                .map(|s| s as usize)
                .collect(),
            None => {
                let start = self.rr.fetch_add(1, Ordering::Relaxed) as usize;
                (0..n).map(|i| (start + i) % n).collect()
            }
        };
        let now = self.now_ms();
        let mut healthy = Vec::with_capacity(n);
        let mut degraded = Vec::with_capacity(n);
        let mut ejected = Vec::with_capacity(n);
        for id in base {
            let h = &self.shards[id].health;
            if !h.available(now) {
                ejected.push(id);
            } else if h.is_degraded() {
                degraded.push(id);
            } else {
                healthy.push(id);
            }
        }
        healthy.extend(degraded);
        healthy.extend(ejected);
        healthy
    }

    /// The hedge delay for `label`: the configured floor, or the observed
    /// latency quantile once enough samples exist — "this request is
    /// slower than `hedge_quantile` of its peers" is the deadline-risk
    /// signal that fires the hedge.
    fn hedge_delay(&self, label: &str) -> Duration {
        let hist = &self.metrics.endpoint(label).latency;
        if hist.count() < self.cfg.hedge_min_samples {
            return self.cfg.hedge_after;
        }
        let q = Duration::from_micros(hist.quantile_us(self.cfg.hedge_quantile));
        q.max(self.cfg.hedge_after)
    }

    /// Dials (or reuses) a connection to `shard` and sends the request.
    /// A pooled connection that fails at send is a stale keep-alive (the
    /// backend closed it while it idled), not evidence the replica is
    /// down — the send falls through to one fresh dial.
    fn send_to(&self, shard: usize, req: &Request) -> Result<Upstream, String> {
        // The `fabric.backend` fault point models the backend failing the
        // attempt (process killed, connection refused, request lost).
        if let Err(e) = fault::point(fault::sites::FABRIC_BACKEND) {
            return Err(format!("injected backend fault: {e}"));
        }
        if let Some(mut up) = self.shards[shard].pool.take() {
            if up
                .send(
                    &req.method,
                    &req.target,
                    &req.body,
                    self.cfg.attempt_timeout,
                )
                .is_ok()
            {
                return Ok(up);
            }
        }
        self.send_fresh(shard, req)
    }

    /// Dials a fresh connection to `shard` (never the pool) and sends the
    /// request.
    fn send_fresh(&self, shard: usize, req: &Request) -> Result<Upstream, String> {
        let slot = &self.shards[shard];
        let mut up = Upstream::connect(slot.addr(), self.cfg.connect_timeout)
            .map_err(|e| format!("connect: {e}"))?;
        up.send(
            &req.method,
            &req.target,
            &req.body,
            self.cfg.attempt_timeout,
        )
        .map_err(|e| format!("send: {e}"))?;
        Ok(up)
    }

    /// Runs one attempt against `primary`, hedging to the first of
    /// `fallbacks` once the hedge delay passes. Returns the winning
    /// response and the shard that produced it.
    fn attempt(
        &self,
        primary: usize,
        fallbacks: &[usize],
        req: &Request,
        hedge_delay: Duration,
    ) -> Result<(UpstreamResponse, usize), AttemptError> {
        let mut first = self.send_to(primary, req).map_err(AttemptError::Primary)?;
        let started = Instant::now();
        // A reused connection can EOF *after* the send went through (the
        // backend closed it while it idled in the pool; the write landed
        // in a dead socket's buffer). One fresh resend distinguishes a
        // stale keep-alive from a dead replica.
        let mut stale_retry_spent = false;
        // Phase 1: primary alone, up to the hedge delay.
        while started.elapsed() < hedge_delay {
            match first.poll_response(self.cfg.poll_slice) {
                Ok(Some(resp)) => {
                    self.finish(primary, first, &resp);
                    return Ok((resp, primary));
                }
                Ok(None) => {}
                Err(e) => {
                    if first.stale_risk() && !stale_retry_spent {
                        stale_retry_spent = true;
                        first = self
                            .send_fresh(primary, req)
                            .map_err(AttemptError::Primary)?;
                        continue;
                    }
                    return Err(AttemptError::Primary(format!("poll: {e}")));
                }
            }
        }
        // Phase 2: fire the hedge (if there is a distinct replica to
        // hedge to) and poll both alternately until the attempt budget
        // runs out.
        let mut hedge: Option<(usize, Upstream)> = None;
        if let Some(&target) = fallbacks.first() {
            match self.send_to(target, req) {
                Ok(up) => {
                    let span = trace::span(trace::names::FABRIC_HEDGE, trace::cats::FABRIC);
                    span.annotate("primary", primary as u64);
                    span.annotate("hedge", target as u64);
                    self.counters.hedge_fired.fetch_add(1, Ordering::Relaxed);
                    hedge = Some((target, up));
                }
                Err(_) => {
                    // The hedge target refused; the primary keeps its
                    // full budget and its own failure handling.
                }
            }
        }
        while started.elapsed() < self.cfg.attempt_timeout {
            match first.poll_response(self.cfg.poll_slice) {
                Ok(Some(resp)) => {
                    if hedge.is_some() {
                        self.counters
                            .hedge_discarded
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    self.finish(primary, first, &resp);
                    return Ok((resp, primary));
                }
                Ok(None) => {}
                Err(e) => {
                    if first.stale_risk() && !stale_retry_spent {
                        if let Ok(fresh) = self.send_fresh(primary, req) {
                            stale_retry_spent = true;
                            first = fresh;
                            continue;
                        }
                    }
                    // Primary broke mid-race: the hedge (if any) becomes
                    // the only horse; otherwise the attempt failed.
                    return match hedge.take() {
                        Some((target, up)) => self
                            .ride_out(target, up, started)
                            .ok_or_else(|| AttemptError::Primary(format!("poll: {e}"))),
                        None => Err(AttemptError::Primary(format!("poll: {e}"))),
                    };
                }
            }
            if let Some((target, mut up)) = hedge.take() {
                match up.poll_response(self.cfg.poll_slice) {
                    Ok(Some(resp)) => {
                        // Hedge won the race; the primary connection is
                        // abandoned (never pooled — it still owes a
                        // response).
                        self.counters.hedge_won.fetch_add(1, Ordering::Relaxed);
                        self.counters
                            .hedge_discarded
                            .fetch_add(1, Ordering::Relaxed);
                        self.finish(target, up, &resp);
                        return Ok((resp, target));
                    }
                    Ok(None) => hedge = Some((target, up)),
                    Err(_) => {
                        // Hedge broke; primary races on alone.
                        self.count_transition(
                            self.shards[target]
                                .health
                                .on_failure(self.now_ms(), self.cfg.backoff),
                        );
                        self.shards[target].failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        Err(AttemptError::Primary("attempt timed out".to_string()))
    }

    /// Rides out a hedge connection alone after the primary broke.
    fn ride_out(
        &self,
        shard: usize,
        mut up: Upstream,
        started: Instant,
    ) -> Option<(UpstreamResponse, usize)> {
        while started.elapsed() < self.cfg.attempt_timeout {
            match up.poll_response(self.cfg.poll_slice) {
                Ok(Some(resp)) => {
                    self.counters.hedge_won.fetch_add(1, Ordering::Relaxed);
                    self.finish(shard, up, &resp);
                    return Some((resp, shard));
                }
                Ok(None) => {}
                Err(_) => return None,
            }
        }
        None
    }

    /// Success bookkeeping: health, per-shard stats, pool return.
    fn finish(&self, shard: usize, up: Upstream, resp: &UpstreamResponse) {
        let slot = &self.shards[shard];
        self.count_transition(slot.health.on_success());
        slot.routed.fetch_add(1, Ordering::Relaxed);
        if !resp.close {
            slot.pool.put(up);
        }
    }

    /// Proxies one request through placement, hedging, and failover.
    fn proxy(&self, req: &Request, label: &'static str, trace_id: &str) -> Response {
        if let Err(e) = fault::point(fault::sites::FABRIC_ROUTE) {
            return envelope::error_response(
                503,
                codes::UPSTREAM_UNAVAILABLE,
                &format!("injected route fault: {e}"),
                trace_id,
            );
        }
        let key = self.route_key(req);
        let order = self.candidates(key.as_deref());
        if order.is_empty() {
            self.counters.no_replica.fetch_add(1, Ordering::Relaxed);
            return envelope::error_response(
                503,
                codes::UPSTREAM_UNAVAILABLE,
                "no backend replicas configured",
                trace_id,
            );
        }
        self.counters.routed.fetch_add(1, Ordering::Relaxed);
        // The adaptive delay can grow with the tail; never let it eat the
        // whole attempt budget or the hedge would fire with no time left.
        let hedge_delay = self.hedge_delay(label).min(self.cfg.attempt_timeout / 2);
        let mut last_error = String::new();
        let mut attempt_no = 0usize;
        // Two full sweeps over the preference list before giving up: a
        // transient per-attempt failure (a stale keep-alive race, a
        // replica dying mid-exchange, an injected chaos fault) must not
        // be able to exhaust every replica in a single pass. The API is
        // idempotent, so the retry budget is safe; a genuinely dead
        // fleet still fails fast — connect refusals are immediate and
        // the breakers eject repeat offenders.
        for _sweep in 0..2 {
            for (i, &shard) in order.iter().enumerate() {
                if attempt_no > 0 {
                    self.counters.reroutes.fetch_add(1, Ordering::Relaxed);
                }
                attempt_no += 1;
                match self.attempt(shard, &order[i + 1..], req, hedge_delay) {
                    Ok((resp, winner)) => return relay(resp, winner),
                    Err(AttemptError::Primary(why)) => {
                        self.count_transition(
                            self.shards[shard]
                                .health
                                .on_failure(self.now_ms(), self.cfg.backoff),
                        );
                        self.shards[shard].failures.fetch_add(1, Ordering::Relaxed);
                        last_error = why;
                    }
                }
            }
        }
        self.counters.no_replica.fetch_add(1, Ordering::Relaxed);
        envelope::error_response(
            503,
            codes::UPSTREAM_UNAVAILABLE,
            &format!(
                "all {} backend replicas failed (last error: {last_error})",
                order.len()
            ),
            trace_id,
        )
    }

    /// `GET /v1/healthz` — the fabric's own liveness document.
    fn healthz(&self) -> Response {
        let replicas: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(id, s)| replica_json(id, s))
            .collect();
        let all_healthy = self
            .shards
            .iter()
            .all(|s| s.health.state() == State::Healthy && !s.health.is_degraded());
        let doc = Json::obj()
            .field("ok", true)
            .field("service", "blob-fabric")
            .field("shards", self.shards.len() as u64)
            .field(
                "degraded",
                !all_healthy || self.metrics.robustness.degraded(),
            )
            .field("replicas", Json::Arr(replicas))
            .build();
        Response::json(200, doc.encode())
    }

    /// `GET /v1/metrics` — uptime, robustness, fabric counters, and the
    /// per-endpoint table (no cache section: the router has no cache).
    fn metrics_doc(&self) -> Response {
        let shards: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .field("id", id as u64)
                    .field("routed", s.routed.load(Ordering::Relaxed))
                    .field("failures", s.failures.load(Ordering::Relaxed))
                    .field("state", s.health.state().as_str())
                    .build()
            })
            .collect();
        let doc = Json::obj()
            .field("uptime_seconds", self.metrics.uptime_seconds())
            .field("in_flight", self.metrics.in_flight())
            .field("degraded", self.metrics.robustness.degraded())
            .field("robustness", self.metrics.robustness.to_json())
            .field("fabric", self.counters.to_json())
            .field("shards", Json::Arr(shards))
            .field("endpoints", self.metrics.endpoints_json())
            .build();
        Response::json(200, doc.encode())
    }

    /// `GET /v1/fabric` — full routing detail: config, ring, replicas.
    fn fabric_doc(&self) -> Response {
        let replicas: Vec<Json> = self
            .shards
            .iter()
            .enumerate()
            .map(|(id, s)| replica_json(id, s))
            .collect();
        let doc = Json::obj()
            .field("shards", self.shards.len() as u64)
            .field("vnodes", super::ring::VNODES as u64)
            .field("hedge_after_ms", self.cfg.hedge_after.as_millis() as u64)
            .field("hedge_quantile", self.cfg.hedge_quantile)
            .field(
                "probe_interval_ms",
                self.cfg.probe_interval.as_millis() as u64,
            )
            .field(
                "attempt_timeout_ms",
                self.cfg.attempt_timeout.as_millis() as u64,
            )
            .field("counters", self.counters.to_json())
            .field("replicas", Json::Arr(replicas))
            .build();
        Response::json(200, doc.encode())
    }

    fn shutdown_doc(&self, trace_id: &str) -> Response {
        if !self.cfg.allow_shutdown {
            return envelope::error_response(
                404,
                codes::SHUTDOWN_DISABLED,
                "shutdown endpoint is disabled (start with --allow-remote-shutdown)",
                trace_id,
            );
        }
        self.shutdown.store(true, Ordering::SeqCst);
        Response::json(
            200,
            Json::obj().field("shutting_down", true).build().encode(),
        )
    }

    fn route(&self, req: &Request, trace_id: &str) -> (Response, &'static str) {
        // Like `App::route`: only `/v1/` paths exist. A path without the
        // prefix becomes "", which the router answers itself below rather
        // than spending a backend round trip on it.
        let full_path = req.path();
        let path = match full_path.strip_prefix("/v1") {
            Some(rest) if rest.starts_with('/') => rest,
            _ => "",
        };
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => (self.healthz(), "healthz"),
            ("GET", "/metrics") => (self.metrics_doc(), "metrics"),
            ("GET", "/fabric") => (self.fabric_doc(), "fabric"),
            ("POST", "/shutdown") => (self.shutdown_doc(trace_id), "shutdown"),
            (_, "") => {
                let message = format!("no such route: {full_path}");
                let not_found = envelope::error_response(404, codes::NOT_FOUND, &message, trace_id);
                (not_found, "other")
            }
            (_, "/healthz" | "/metrics" | "/fabric" | "/shutdown") => (
                envelope::error_response(
                    405,
                    codes::METHOD_NOT_ALLOWED,
                    "method not allowed for this route",
                    trace_id,
                ),
                "other",
            ),
            _ => {
                let label = match path {
                    "/advise" => "advise",
                    "/threshold" => "threshold",
                    "/dispatch" => "dispatch",
                    "/systems" => "systems",
                    "/trace" => "trace",
                    _ => "other",
                };
                (self.proxy(req, label, trace_id), label)
            }
        }
    }
}

impl Handler for Router {
    fn handle(&self, req: &Request) -> (Response, &'static str) {
        let trace_id = trace::mint_trace_id();
        let span = trace::span(trace::names::FABRIC_ROUTE, trace::cats::FABRIC);
        span.annotate("body_bytes", req.body.len() as u64);
        let (mut response, label) = self.route(req, &trace_id);
        drop(span);
        if response.header(envelope::TRACE_HEADER).is_none() {
            response = response.with_header(envelope::TRACE_HEADER, trace_id);
        }
        (response, label)
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// One replica's JSON health row.
fn replica_json(id: usize, s: &Shard) -> Json {
    Json::obj()
        .field("id", id as u64)
        .field("addr", s.addr().to_string())
        .field("state", s.health.state().as_str())
        .field("degraded", s.health.is_degraded())
        .field(
            "consecutive_failures",
            u64::from(s.health.consecutive_failures()),
        )
        .field("ejections", s.health.ejections())
        .build()
}

/// Converts an upstream response into a downstream [`Response`],
/// preserving the trace header and stamping the shard that answered into
/// `x-blob-shard`.
fn relay(upstream: UpstreamResponse, shard: usize) -> Response {
    let content_type = upstream.header("content-type").unwrap_or_default();
    let mut resp = Response {
        status: upstream.status,
        content_type: if content_type.starts_with("text/") {
            "text/plain; charset=utf-8"
        } else {
            "application/json"
        },
        headers: Vec::new(),
        body: Vec::new(),
        close: false,
    };
    if let Some(v) = upstream.header(envelope::TRACE_HEADER) {
        resp = resp.with_header(envelope::TRACE_HEADER, v.to_string());
    }
    resp = resp.with_header("x-blob-shard", shard.to_string());
    resp.body = upstream.body;
    resp
}

/// One `/v1/healthz` probe against `addr`; returns the replica's
/// `degraded` flag on success.
fn probe_one(addr: SocketAddr, timeout: Duration) -> std::io::Result<bool> {
    let mut up = Upstream::connect(addr, timeout)?;
    up.send("GET", "/v1/healthz", b"", timeout)?;
    let deadline = Instant::now() + timeout;
    loop {
        match up.poll_response(Duration::from_millis(10))? {
            Some(resp) => {
                if resp.status != 200 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Other,
                        format!("healthz returned {}", resp.status),
                    ));
                }
                let degraded = std::str::from_utf8(&resp.body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                    .and_then(|d| d.get("degraded").and_then(Json::as_bool))
                    .unwrap_or(false);
                return Ok(degraded);
            }
            None => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "healthz probe timed out",
                    ));
                }
            }
        }
    }
}
