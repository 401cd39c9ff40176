//! The advisor API: request decoding, routing, and handlers for every
//! endpoint, independent of the transport (the server calls [`App::handle`]
//! with a parsed [`Request`] and writes back whatever [`Response`] comes
//! out — tests can do the same without a socket).
//!
//! ## v1 wire surface
//!
//! Every route lives under the `/v1/` prefix; anything else — the bare
//! `/healthz`, `/advise`, … included — is a `404 not_found`.
//!
//! | route | method | body |
//! |-------|--------|------|
//! | `/v1/advise` | POST | BLAS call + iterations + offload → verdict; or a batched `calls` array (≤ [`MAX_ADVISE_BATCH`]) → one verdict per call |
//! | `/v1/threshold` | POST | problem + system + sweep config → cached threshold table |
//! | `/v1/dispatch` | POST | BLAS call + session id → online auto-dispatch decision (stateful: history, hysteresis and page residency persist per session) |
//! | `/v1/systems` | GET | — |
//! | `/v1/healthz` | GET | — |
//! | `/v1/metrics` | GET | — |
//! | `/v1/trace` | GET | — (`?last=N` bounds the span count) |
//! | `/v1/shutdown` | POST | — (only when enabled; used by CI and the bench) |
//!
//! Every response carries an `X-Blob-Trace` header with a per-request
//! trace id; every error response is the uniform envelope
//! `{"error":{"code","message","trace_id"}}` from [`crate::envelope`].
//! Request shapes are validated by [`blob_core::schema`], the single
//! home of the parse/encode pairs.

use crate::cache::ShardedCache;
use crate::envelope::{self, codes};
use crate::http::{Request, Response};
use crate::metrics::Metrics;
use blob_core::backend::Backend;
use blob_core::fault;
use blob_core::rng::XorShift64;
use blob_core::runner::{run_sweep_pooled, SweepConfig, ThreadPool};
use blob_core::schema::{
    self, advice_json, call_json, offload_key, parse_problem_id, precision_key, thresholds_json,
    SchemaError,
};
use blob_core::trace;
use blob_core::wire::Json;
use blob_core::{advise, Offload, Precision};
use blob_dispatch::{Dispatcher, ModelExecutor};
use blob_sim::firsttouch::PageState;
use blob_sim::{presets, SystemModel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The largest dimension `/v1/threshold` will sweep — the paper's own
/// `-d` ceiling, which bounds a miss at one 4096-point sweep.
pub const MAX_SWEEP_DIM: usize = 4096;

/// The largest iteration count a request may ask for.
pub const MAX_ITERATIONS: u32 = 1_000_000;

/// The most calls one batched `POST /v1/advise` request may carry.
pub const MAX_ADVISE_BATCH: usize = 256;

/// Default per-request deadline budget for the compute endpoints
/// (`POST /v1/advise`, `POST /v1/threshold`); exceeded → `503` and the
/// `deadline_exceeded` counter. `/v1/healthz` and `/v1/metrics` are
/// exempt so probes keep working while the service digests a heavy
/// sweep.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(10);

/// Attempts (first try + retries) at the threshold sweep when the
/// backend fails transiently (the `serve.sweep` fault point).
const SWEEP_ATTEMPTS: u32 = 3;

/// Base of the exponential retry backoff: 2 ms, 4 ms, … plus seeded
/// jitter so synchronized clients do not retry in lockstep.
const BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Seed for the retry-jitter stream (deterministic like everything else;
/// see `blob_core::rng`).
const JITTER_SEED: u64 = 0x5EED_0F_B10B;

/// The most live `POST /v1/dispatch` sessions the service keeps; beyond
/// this the least-recently-used session is dropped (its history,
/// hysteresis state and page residency with it), so an open service
/// cannot be grown without bound by unique session ids.
pub const MAX_DISPATCH_SESSIONS: usize = 64;

/// The longest session id `POST /v1/dispatch` accepts.
const MAX_SESSION_ID_LEN: usize = 64;

/// The systems the service can answer for: the three evaluation systems of
/// the paper plus the CPU-only Isambard-AI configuration (exercises the
/// `no-gpu` verdict) and the two extension systems.
pub fn default_systems() -> Vec<(String, SystemModel)> {
    vec![
        ("dawn".to_string(), presets::dawn()),
        ("lumi".to_string(), presets::lumi()),
        ("isambard-ai".to_string(), presets::isambard_ai()),
        (
            "isambard-ai-armpl".to_string(),
            presets::isambard_ai_armpl(),
        ),
        ("mi300a".to_string(), presets::mi300a()),
        ("a100".to_string(), presets::a100_workstation()),
    ]
}

/// The service state shared by every worker thread.
pub struct App {
    systems: Vec<(String, SystemModel)>,
    /// Threshold-sweep cache, keyed by the full request tuple.
    pub cache: ShardedCache<Json>,
    /// The live metrics registry.
    pub metrics: Metrics,
    allow_shutdown: bool,
    shutdown: AtomicBool,
    /// Persistent worker pool for threshold sweeps on cache misses: sweep
    /// points of one request are measured in parallel (the models are
    /// analytic, so the fan-out cannot perturb the numbers).
    sweep_pool: ThreadPool,
    /// Per-request budget for the compute endpoints.
    deadline: Duration,
    /// Seeded jitter stream for retry backoff.
    jitter: Mutex<XorShift64>,
    /// Live auto-dispatch sessions in least-recently-used order (front is
    /// the eviction candidate), keyed by `session|system`. Each holds a
    /// stateful [`Dispatcher`] whose call-site history, sticky routes and
    /// first-touch page residency persist across requests.
    dispatch_sessions: Mutex<Vec<(String, Dispatcher<ModelExecutor>)>>,
}

/// A handler failure: an HTTP status, a stable envelope code, and a
/// human-readable message.
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
        }
    }

    fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        Self::new(400, code, message)
    }
}

impl From<SchemaError> for ApiError {
    fn from(e: SchemaError) -> Self {
        // Schema codes are a subset of the envelope vocabulary, so they
        // pass straight through.
        Self::new(400, e.code, e.message)
    }
}

type ApiResult = Result<Json, ApiError>;

/// Reads and range-checks an `iterations` field, defaulting when absent
/// (the batched advise form passes the request-level value as default).
fn parse_iterations(doc: &Json, default: u32) -> Result<u32, ApiError> {
    let iterations = schema::optional_u32(doc, "iterations", default)?;
    if iterations == 0 || iterations > MAX_ITERATIONS {
        return Err(ApiError::bad_request(
            codes::INVALID_FIELD,
            format!("iterations must be in 1..={MAX_ITERATIONS}"),
        ));
    }
    Ok(iterations)
}

/// Reads an `offload` field, defaulting when absent.
fn parse_offload(doc: &Json, default: Offload) -> Result<Offload, ApiError> {
    match doc.get("offload") {
        None => Ok(default),
        Some(v) => v
            .as_str()
            .and_then(|s| s.parse::<Offload>().ok())
            .ok_or_else(|| {
                ApiError::bad_request(
                    codes::INVALID_FIELD,
                    "offload must be one of once|always|usm|first-touch",
                )
            }),
    }
}

/// Wraps a handler's JSON document as a 200 response.
fn json_ok(body: Json) -> Response {
    Response::json(200, body.encode())
}

impl App {
    /// Builds the app with the default system registry.
    pub fn new(cache_entries: usize, cache_shards: usize, allow_shutdown: bool) -> Self {
        Self {
            systems: default_systems(),
            cache: ShardedCache::new(cache_entries, cache_shards),
            metrics: Metrics::new(),
            allow_shutdown,
            shutdown: AtomicBool::new(false),
            sweep_pool: ThreadPool::with_default_parallelism(),
            deadline: DEFAULT_DEADLINE,
            jitter: Mutex::new(XorShift64::new(JITTER_SEED)),
            dispatch_sessions: Mutex::new(Vec::new()),
        }
    }

    /// Overrides the per-request deadline budget (see [`DEFAULT_DEADLINE`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// True once a (permitted) `/shutdown` request has been served; the
    /// server polls this after each request.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn system(&self, id: &str) -> Option<&SystemModel> {
        let want = id.to_ascii_lowercase();
        self.systems
            .iter()
            .find(|(sid, m)| *sid == want || m.name.eq_ignore_ascii_case(id))
            .map(|(_, m)| m)
    }

    /// Routes one request; returns the response and the metrics label.
    /// Latency/status accounting is the caller's job (it owns the clock).
    ///
    /// Mints the per-request trace id (echoed in the `X-Blob-Trace`
    /// header of **every** response and in error envelopes) and records
    /// the request as a `serve.request` span when tracing is enabled.
    ///
    /// A panic anywhere in routing or a handler (a bug, or the
    /// `serve.handle` fault point's `panic` action) is contained here and
    /// answered with a `500` — the connection and the worker survive, and
    /// the `handler_panics` counter records the save.
    pub fn handle(&self, req: &Request) -> (Response, &'static str) {
        let trace_id = trace::mint_trace_id();
        let span = trace::span(trace::names::SERVE_REQUEST, trace::cats::SERVE);
        span.annotate("body_bytes", req.body.len() as u64);
        let outcome = catch_unwind(AssertUnwindSafe(|| self.route(req, &trace_id)));
        drop(span);
        let (mut response, label) = match outcome {
            Ok(out) => out,
            Err(_) => {
                self.metrics
                    .robustness
                    .bump(&self.metrics.robustness.handler_panics);
                (
                    envelope::error_response(
                        500,
                        codes::INTERNAL,
                        "handler panicked; the request was aborted",
                        &trace_id,
                    ),
                    "other",
                )
            }
        };
        if response.header(envelope::TRACE_HEADER).is_none() {
            response = response.with_header(envelope::TRACE_HEADER, trace_id);
        }
        (response, label)
    }

    fn route(&self, req: &Request, trace_id: &str) -> (Response, &'static str) {
        // The `serve.handle` fault point sits in front of dispatch: an
        // `error` rule degrades the request to a clean 500, a `panic`
        // rule exercises the containment in `handle`.
        if let Err(e) = fault::point(fault::sites::SERVE_HANDLE) {
            return (
                envelope::error_response(500, codes::INTERNAL, &e.to_string(), trace_id),
                "other",
            );
        }
        let started = Instant::now();
        // Every route lives under `/v1/`; a path without the prefix
        // matches nothing below.
        let full_path = req.path();
        let path = match full_path.strip_prefix("/v1") {
            Some(rest) if rest.starts_with('/') => rest,
            _ => "",
        };
        let (label, result): (&'static str, Result<Response, ApiError>) =
            match (req.method.as_str(), path) {
                ("GET", "/healthz") => ("healthz", self.healthz().map(json_ok)),
                ("GET", "/systems") => ("systems", self.systems_endpoint().map(json_ok)),
                ("GET", "/metrics") => ("metrics", self.metrics_endpoint().map(json_ok)),
                ("GET", "/trace") => ("trace", self.trace_endpoint(&req.target)),
                ("POST", "/advise") => (
                    "advise",
                    self.advise_endpoint(&req.body, started).map(json_ok),
                ),
                ("POST", "/threshold") => (
                    "threshold",
                    self.threshold_endpoint(&req.body, started).map(json_ok),
                ),
                ("POST", "/dispatch") => {
                    ("dispatch", self.dispatch_endpoint(&req.body).map(json_ok))
                }
                ("POST", "/shutdown") => ("shutdown", self.shutdown_endpoint().map(json_ok)),
                (_, "/healthz" | "/systems" | "/metrics" | "/trace")
                | (_, "/advise" | "/threshold" | "/dispatch") => (
                    "other",
                    Err(ApiError::new(
                        405,
                        codes::METHOD_NOT_ALLOWED,
                        "method not allowed for this route",
                    )),
                ),
                _ => (
                    "other",
                    Err(ApiError::new(
                        404,
                        codes::NOT_FOUND,
                        format!("no such route: {full_path}"),
                    )),
                ),
            };
        let response = match result {
            Ok(r) => r,
            Err(e) => envelope::error_response(e.status, e.code, &e.message, trace_id),
        };
        (response, label)
    }

    fn healthz(&self) -> ApiResult {
        // `ok` stays true even when degraded: degraded means "absorbed
        // faults recently and kept serving", which is exactly what a
        // liveness probe should not kill the process over. The flag
        // decays: once the robustness counters stop advancing for the
        // window, it clears (the counters themselves stay sticky).
        let robustness = &self.metrics.robustness;
        let age: Json = match robustness.last_fault_age_ms() {
            Some(ms) => ms.into(),
            None => Json::Null,
        };
        Ok(Json::obj()
            .field("ok", true)
            .field("service", "blob-serve")
            .field("systems", self.systems.len())
            .field("degraded", robustness.degraded())
            .field("degraded_window_ms", robustness.degraded_window_ms())
            .field("last_fault_age_ms", age)
            .field("robustness", robustness.to_json())
            .build())
    }

    fn systems_endpoint(&self) -> ApiResult {
        let items: Vec<Json> = self
            .systems
            .iter()
            .map(|(id, m)| {
                let offloads: Vec<Json> = m
                    .offloads()
                    .into_iter()
                    .map(|o| offload_key(o).into())
                    .collect();
                Json::obj()
                    .field("id", id.as_str())
                    .field("name", m.name.to_string())
                    .field("gpu", !offloads.is_empty())
                    .field("offloads", Json::Arr(offloads))
                    .build()
            })
            .collect();
        Ok(Json::obj().field("systems", Json::Arr(items)).build())
    }

    fn metrics_endpoint(&self) -> ApiResult {
        Ok(self.metrics.to_json(&self.cache.stats()))
    }

    /// `GET /v1/trace?last=N`: the published spans (optionally only the
    /// most recent `N`) rendered as a chrome://tracing document.
    fn trace_endpoint(&self, target: &str) -> Result<Response, ApiError> {
        let mut last: Option<usize> = None;
        if let Some((_, query)) = target.split_once('?') {
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                if k == "last" {
                    last = Some(v.parse::<usize>().map_err(|_| {
                        ApiError::bad_request(
                            codes::INVALID_FIELD,
                            "`last` must be a non-negative integer",
                        )
                    })?);
                }
            }
        }
        let spans = trace::snapshot_last(last.unwrap_or(usize::MAX));
        Ok(Response::json(200, trace::chrome_trace_json(&spans)))
    }

    fn shutdown_endpoint(&self) -> ApiResult {
        if !self.allow_shutdown {
            return Err(ApiError::new(
                404,
                codes::SHUTDOWN_DISABLED,
                "shutdown endpoint is disabled (start with --allow-remote-shutdown)",
            ));
        }
        self.shutdown.store(true, Ordering::SeqCst);
        Ok(Json::obj().field("shutting_down", true).build())
    }

    /// Fails the request with `503` once its deadline budget is spent.
    /// Checked after compute and between retries — a request that is
    /// already over budget must not burn more backend time.
    fn check_deadline(&self, started: Instant) -> Result<(), ApiError> {
        if started.elapsed() > self.deadline {
            self.metrics
                .robustness
                .bump(&self.metrics.robustness.deadline_exceeded);
            return Err(ApiError::new(
                503,
                codes::DEADLINE_EXCEEDED,
                format!(
                    "request exceeded its deadline budget of {} ms",
                    self.deadline.as_millis()
                ),
            ));
        }
        Ok(())
    }

    fn advise_endpoint(&self, body: &[u8], started: Instant) -> ApiResult {
        let doc = schema::parse_body(body)?;
        let system_id = schema::require_str(&doc, "system")?;
        let system = self.system(system_id).ok_or_else(|| {
            ApiError::bad_request(
                codes::UNKNOWN_SYSTEM,
                format!("unknown system `{system_id}`"),
            )
        })?;
        // Batched form: `calls` is an array of per-call objects; the
        // top-level `iterations`/`offload` are the per-call defaults.
        // One request amortises routing and parse overhead over many
        // shapes (the fabric router hashes the whole batch to one
        // replica).
        if let Some(calls) = doc.get("calls") {
            let calls = calls.as_arr().ok_or_else(|| {
                ApiError::bad_request(codes::INVALID_FIELD, "calls must be an array")
            })?;
            if calls.is_empty() || calls.len() > MAX_ADVISE_BATCH {
                return Err(ApiError::bad_request(
                    codes::INVALID_FIELD,
                    format!("calls must hold 1..={MAX_ADVISE_BATCH} entries"),
                ));
            }
            let default_iterations = parse_iterations(&doc, 1)?;
            let default_offload = parse_offload(&doc, Offload::TransferOnce)?;
            let mut results = Vec::with_capacity(calls.len());
            for (i, item) in calls.iter().enumerate() {
                if !matches!(item, Json::Obj(_)) {
                    return Err(ApiError::bad_request(
                        codes::INVALID_FIELD,
                        format!("calls[{i}] must be an object"),
                    ));
                }
                results.push(self.advise_one(system, item, default_iterations, default_offload)?);
                self.check_deadline(started)?;
            }
            return Ok(Json::obj()
                .field("system", system.name.to_string())
                .field("count", results.len() as u64)
                .field("results", Json::Arr(results))
                .build());
        }
        let iterations = parse_iterations(&doc, 1)?;
        let offload = parse_offload(&doc, Offload::TransferOnce)?;
        let advice = self.advise_one(system, &doc, iterations, offload)?;
        self.check_deadline(started)?;
        let Json::Obj(mut fields) = advice else {
            return Err(ApiError::new(
                500,
                codes::INTERNAL,
                "advice encoding was not an object",
            ));
        };
        fields.insert(0, ("system".to_string(), system.name.to_string().into()));
        Ok(Json::Obj(fields))
    }

    /// One advisory verdict: decodes the call from `doc` (falling back to
    /// the supplied defaults for `iterations`/`offload`) and encodes the
    /// advice. Shared by the single and batched `/v1/advise` forms.
    fn advise_one(
        &self,
        system: &SystemModel,
        doc: &Json,
        default_iterations: u32,
        default_offload: Offload,
    ) -> ApiResult {
        let call = schema::parse_call(doc, MAX_SWEEP_DIM * 16)?;
        let iterations = parse_iterations(doc, default_iterations)?;
        let offload = parse_offload(doc, default_offload)?;
        Ok(advice_json(&advise(system, &call, iterations, offload)))
    }

    /// `POST /v1/dispatch`: one call through a stateful auto-dispatch
    /// session. The session's [`Dispatcher`] (history EWMAs, sticky
    /// routes, first-touch page residency) persists across requests, so a
    /// client replaying a call stream sees exactly the online behaviour
    /// of `gpu-blob sweep --mode dispatch` — warm-up on repeats,
    /// hysteresis near the crossover, write-back when a route change
    /// touches device-warm pages. Sessions are keyed by
    /// (`session`, `system`) and evicted least-recently-used beyond
    /// [`MAX_DISPATCH_SESSIONS`].
    fn dispatch_endpoint(&self, body: &[u8]) -> ApiResult {
        let doc = schema::parse_body(body)?;
        let system_id = schema::require_str(&doc, "system")?;
        let system = self
            .system(system_id)
            .ok_or_else(|| {
                ApiError::bad_request(
                    codes::UNKNOWN_SYSTEM,
                    format!("unknown system `{system_id}`"),
                )
            })?
            .clone();
        let call = schema::parse_call(&doc, MAX_SWEEP_DIM * 16)?;
        let site = schema::optional_u32(&doc, "site", 0)?;
        let session = match doc.get("session") {
            None => "default",
            Some(v) => v.as_str().ok_or_else(|| {
                ApiError::bad_request(codes::INVALID_FIELD, "session must be a string")
            })?,
        };
        if session.is_empty() || session.len() > MAX_SESSION_ID_LEN {
            return Err(ApiError::bad_request(
                codes::INVALID_FIELD,
                format!("session must be 1..={MAX_SESSION_ID_LEN} characters"),
            ));
        }

        let key = format!("{}|{}", session, system.name);
        let mut sessions = self
            .dispatch_sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut entry = match sessions.iter().position(|(k, _)| *k == key) {
            Some(i) => sessions.remove(i),
            None => (key, Dispatcher::new(ModelExecutor::new(system.clone()))),
        };
        let decision = entry.1.call(site, &call);
        let stats = entry.1.stats();
        sessions.push(entry);
        if sessions.len() > MAX_DISPATCH_SESSIONS {
            sessions.remove(0);
        }
        drop(sessions);
        self.metrics.dispatch.record(
            decision.route == blob_dispatch::Route::Gpu,
            decision.flipped,
            decision.fellback,
        );

        let page_state: Json = match decision.page_state {
            None => Json::Null,
            Some(PageState::Cold) => "cold".into(),
            Some(PageState::Warm) => "warm".into(),
            Some(PageState::Evicted) => "evicted".into(),
        };
        Ok(Json::obj()
            .field("system", system.name.to_string())
            .field("session", session)
            .field("site", site)
            .field("call", call_json(&call))
            .field("route", decision.route.id())
            .field("flipped", decision.flipped)
            .field("fellback", decision.fellback)
            .field("cpu_estimate_seconds", decision.cpu_estimate)
            .field("gpu_estimate_seconds", decision.gpu_estimate)
            .field("realized_seconds", decision.realized_seconds)
            .field("page_state", page_state)
            .field("verdict", decision.verdict.id())
            .field(
                "session_stats",
                Json::obj()
                    .field("decisions_cpu", stats.decisions_cpu)
                    .field("decisions_gpu", stats.decisions_gpu)
                    .field("flips", stats.flips)
                    .field("fallbacks", stats.fallbacks)
                    .build(),
            )
            .build())
    }

    fn threshold_endpoint(&self, body: &[u8], started: Instant) -> ApiResult {
        let doc = schema::parse_body(body)?;
        let system_id = schema::require_str(&doc, "system")?;
        let system = self.system(system_id).ok_or_else(|| {
            ApiError::bad_request(
                codes::UNKNOWN_SYSTEM,
                format!("unknown system `{system_id}`"),
            )
        })?;
        let problem_id = schema::require_str(&doc, "problem")?;
        let problem = parse_problem_id(problem_id).ok_or_else(|| {
            ApiError::bad_request(
                codes::INVALID_FIELD,
                format!("unknown problem `{problem_id}`"),
            )
        })?;
        let precision = schema::parse_precision_field(&doc)?;
        let iterations = schema::optional_u32(&doc, "iterations", 1)?;
        if iterations == 0 || iterations > MAX_ITERATIONS {
            return Err(ApiError::bad_request(
                codes::INVALID_FIELD,
                format!("iterations must be in 1..={MAX_ITERATIONS}"),
            ));
        }
        let min_dim = schema::optional_usize(&doc, "min_dim", 1)?;
        let max_dim = schema::optional_usize(&doc, "max_dim", MAX_SWEEP_DIM)?;
        let step = schema::optional_usize(&doc, "step", 1)?;
        if min_dim == 0 || step == 0 {
            return Err(ApiError::bad_request(
                codes::INVALID_FIELD,
                "min_dim and step must be >= 1",
            ));
        }
        if max_dim < min_dim || max_dim > MAX_SWEEP_DIM {
            return Err(ApiError::bad_request(
                codes::INVALID_FIELD,
                format!("max_dim must be in min_dim..={MAX_SWEEP_DIM}"),
            ));
        }

        let key = format!(
            "{}|{}|{}|{}|{}|{}|{}",
            system.name,
            problem.id(),
            precision_key(precision),
            iterations,
            min_dim,
            max_dim,
            step
        );
        let compute_started = Instant::now();
        // A cache-read failure (the `serve.cache` fault point) is never a
        // request failure: a broken cache degrades to a recompute.
        let cache_hit = match fault::point(fault::sites::SERVE_CACHE) {
            Ok(()) => self.cache.get(&key),
            Err(_) => None,
        };
        let (result, cached) = match cache_hit {
            Some(hit) => ((*hit).clone(), true),
            None => {
                // The bounds were validated above, so the builder cannot
                // fail; routing a failure through the envelope anyway
                // keeps the invariant local.
                let cfg = SweepConfig::builder()
                    .dims(min_dim, max_dim)
                    .iterations(iterations)
                    .step(step)
                    .build()
                    .map_err(|e| ApiError::bad_request(codes::INVALID_FIELD, e.to_string()))?;
                let sweep = self.sweep_with_retry(system, problem, precision, &cfg, started)?;
                let value = threshold_result_json(&sweep);
                ((*self.cache.insert(key, value)).clone(), false)
            }
        };
        let compute_us = compute_started.elapsed().as_micros() as u64;
        self.check_deadline(started)?;
        let Json::Obj(mut fields) = result else {
            return Err(ApiError::new(
                500,
                codes::INTERNAL,
                "threshold encoding was not an object",
            ));
        };
        fields.push(("cached".to_string(), cached.into()));
        fields.push(("compute_us".to_string(), compute_us.into()));
        Ok(Json::Obj(fields))
    }

    /// Runs the threshold sweep, retrying transient backend failures (the
    /// `serve.sweep` fault point) with exponential backoff plus seeded
    /// jitter. Gives up with `503` when [`SWEEP_ATTEMPTS`] are spent or
    /// the request's deadline budget runs out mid-retry.
    fn sweep_with_retry(
        &self,
        system: &SystemModel,
        problem: blob_core::Problem,
        precision: Precision,
        cfg: &SweepConfig,
        started: Instant,
    ) -> Result<blob_core::runner::Sweep, ApiError> {
        for attempt in 0..SWEEP_ATTEMPTS {
            if attempt > 0 {
                self.metrics
                    .robustness
                    .bump(&self.metrics.robustness.retries);
                self.check_deadline(started)?;
                let jitter_us = {
                    let mut rng = self.jitter.lock().unwrap_or_else(PoisonError::into_inner);
                    rng.next_u64() % 500
                };
                let backoff = BACKOFF_BASE * 2u32.pow(attempt - 1);
                std::thread::sleep(backoff + Duration::from_micros(jitter_us));
            }
            if fault::point(fault::sites::SERVE_SWEEP).is_err() {
                continue;
            }
            return Ok(run_sweep_pooled(
                Arc::new(system.clone()),
                problem,
                precision,
                cfg,
                &self.sweep_pool,
            ));
        }
        self.metrics
            .robustness
            .bump(&self.metrics.robustness.retries_exhausted);
        Err(ApiError::new(
            503,
            codes::RETRIES_EXHAUSTED,
            format!("threshold sweep backend kept failing ({SWEEP_ATTEMPTS} attempts); try again"),
        ))
    }
}

/// The cacheable part of a `/v1/threshold` response: the request echo plus
/// the per-offload threshold table (no per-request fields).
fn threshold_result_json(sweep: &blob_core::runner::Sweep) -> Json {
    Json::obj()
        .field("system", sweep.system.as_str())
        .field("problem", sweep.problem.id())
        .field("precision", precision_key(sweep.precision))
        .field("iterations", sweep.iterations)
        .field("sweep_points", sweep.records.len())
        .field("thresholds", thresholds_json(&sweep.records))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> App {
        App::new(16, 4, true)
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
        Json::parse_bytes(&r.body).expect("response body is JSON")
    }

    /// The `error` object of an envelope response.
    fn error_obj(r: &Response) -> Json {
        body_json(r).get("error").cloned().expect("error envelope")
    }

    #[test]
    fn healthz_and_systems() {
        let a = app();
        let (r, label) = a.handle(&get("/v1/healthz"));
        assert_eq!((r.status, label), (200, "healthz"));
        assert_eq!(body_json(&r).get("ok").and_then(Json::as_bool), Some(true));

        let (r, _) = a.handle(&get("/v1/systems"));
        let systems = body_json(&r);
        let items = systems
            .get("systems")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        assert!(items.len() >= 4);
        let armpl = items
            .iter()
            .find(|s| s.get("id").and_then(Json::as_str) == Some("isambard-ai-armpl"))
            .expect("cpu-only system listed");
        assert_eq!(armpl.get("gpu").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn only_v1_paths_route_bare_paths_are_not_found() {
        let a = app();
        for path in ["/v1/healthz", "/v1/systems", "/v1/metrics"] {
            let (r, _) = a.handle(&get(path));
            assert_eq!(r.status, 200, "{path}");
        }
        // the body the bare alias and the /v1 route both returned before
        // the alias went away, byte for byte
        let body = r#"{"system":"dawn","op":"gemm","m":64,"n":64,"k":64,"precision":"f32"}"#;
        let (v1, label) = a.handle(&post("/v1/advise", body));
        assert_eq!((v1.status, label), (200, "advise"));
        assert_eq!(
            String::from_utf8_lossy(&v1.body),
            concat!(
                r#"{"system":"DAWN","call":{"op":"gemm","m":64,"n":64,"k":64,"precision":"f32","#,
                r#""alpha":1,"beta":0},"iterations":1,"offload":"once","cpu_seconds":0.00001288,"#,
                r#""gpu_seconds":0.0000349284841025641,"speedup":0.3687534781692538,"#,
                r#""verdict":"stay-on-cpu","summary":"stay on the CPU (2.71x slower on the GPU)"}"#,
            ),
        );
        // bare paths, and "/v1healthz", are unknown routes like any other
        let bare = [get("/healthz"), get("/metrics"), post("/advise", body)];
        for req in bare.iter().chain([&get("/v1healthz"), &get("/v1")]) {
            let (r, label) = a.handle(req);
            assert_eq!((r.status, label), (404, "other"), "{}", req.target);
            assert_eq!(
                error_obj(&r).get("code").and_then(Json::as_str),
                Some("not_found")
            );
            assert!(r.header(envelope::TRACE_HEADER).is_some());
        }
    }

    #[test]
    fn every_response_carries_a_trace_id_header() {
        let a = app();
        let (ok, _) = a.handle(&get("/v1/healthz"));
        let id = ok.header(envelope::TRACE_HEADER).expect("trace header");
        assert_eq!(id.len(), 16);
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        let (ok2, _) = a.handle(&get("/v1/healthz"));
        assert_ne!(ok2.header(envelope::TRACE_HEADER), Some(id));
    }

    #[test]
    fn error_envelope_has_stable_code_and_matching_trace_id() {
        let a = app();
        let (r, label) = a.handle(&get("/nope"));
        assert_eq!((r.status, label), (404, "other"));
        let err = error_obj(&r);
        assert_eq!(err.get("code").and_then(Json::as_str), Some("not_found"));
        assert!(err.get("message").and_then(Json::as_str).is_some());
        assert_eq!(
            err.get("trace_id").and_then(Json::as_str),
            r.header(envelope::TRACE_HEADER),
            "envelope trace_id must match the X-Blob-Trace header"
        );

        let (r, _) = a.handle(&get("/v1/advise"));
        assert_eq!(r.status, 405);
        assert_eq!(
            error_obj(&r).get("code").and_then(Json::as_str),
            Some("method_not_allowed")
        );

        let (r, _) = a.handle(&post(
            "/v1/advise",
            r#"{"system":"frontier","op":"gemm","m":1,"n":1,"k":1,"precision":"f32"}"#,
        ));
        assert_eq!(r.status, 400);
        assert_eq!(
            error_obj(&r).get("code").and_then(Json::as_str),
            Some("unknown_system")
        );
    }

    #[test]
    fn trace_endpoint_serves_chrome_trace_json() {
        let _t = trace::TRACE_LOCK
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        trace::disable();
        trace::clear();
        let a = app();
        trace::enable();
        let (r, _) = a.handle(&get("/v1/healthz"));
        assert_eq!(r.status, 200);
        trace::disable();

        let (r, label) = a.handle(&get("/v1/trace"));
        assert_eq!((r.status, label), (200, "trace"));
        let doc = body_json(&r);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("serve.request")),
            "traced request must appear"
        );

        // ?last bounds the span count; an unparsable value is a 400
        let (r, _) = a.handle(&get("/v1/trace?last=0"));
        let doc = body_json(&r);
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
        let (r, _) = a.handle(&get("/v1/trace?last=nope"));
        assert_eq!(r.status, 400);
        assert_eq!(
            error_obj(&r).get("code").and_then(Json::as_str),
            Some("invalid_field")
        );
        trace::clear();
    }

    #[test]
    fn advise_returns_a_verdict() {
        let a = app();
        let (r, label) = a.handle(&post(
            "/v1/advise",
            r#"{"system":"isambard-ai","op":"gemm","m":2048,"n":2048,"k":2048,
               "precision":"f32","iterations":32,"offload":"once"}"#,
        ));
        assert_eq!((r.status, label), (200, "advise"));
        let j = body_json(&r);
        assert_eq!(j.get("verdict").and_then(Json::as_str), Some("offload"));
        assert!(j.get("speedup").and_then(Json::as_f64).unwrap() > 2.0);
        assert_eq!(j.get("system").and_then(Json::as_str), Some("Isambard-AI"));
    }

    #[test]
    fn advise_on_cpu_only_system_says_no_gpu() {
        let a = app();
        let (r, _) = a.handle(&post(
            "/v1/advise",
            r#"{"system":"isambard-ai-armpl","op":"gemv","m":512,"n":512,"precision":"f64"}"#,
        ));
        assert_eq!(r.status, 200);
        assert_eq!(
            body_json(&r).get("verdict").and_then(Json::as_str),
            Some("no-gpu")
        );
    }

    #[test]
    fn advise_validation_failures_are_400() {
        let a = app();
        for body in [
            "",                 // empty
            "{not json",        // malformed
            "[1,2]",            // not an object
            r#"{"op":"gemm"}"#, // missing system
            r#"{"system":"frontier","op":"gemm","m":1,"n":1,"k":1,"precision":"f32"}"#,
            r#"{"system":"dawn","op":"axpy","m":1,"n":1,"precision":"f32"}"#,
            r#"{"system":"dawn","op":"gemm","m":0,"n":1,"k":1,"precision":"f32"}"#,
            r#"{"system":"dawn","op":"gemm","m":1,"n":1,"k":1,"precision":"f128"}"#,
            r#"{"system":"dawn","op":"gemm","m":1,"n":1,"k":1,"precision":"f32","offload":"never"}"#,
            r#"{"system":"dawn","op":"gemm","m":1,"n":1,"k":1,"precision":"f32","iterations":0}"#,
        ] {
            let (r, _) = a.handle(&post("/v1/advise", body));
            assert_eq!(r.status, 400, "body {body:?} gave {}", r.status);
            let err = error_obj(&r);
            assert!(err.get("code").and_then(Json::as_str).is_some(), "{body:?}");
        }
    }

    #[test]
    fn precision_field_is_optional_and_echoed() {
        let a = app();
        // zero-break: omitted precision means f64, the historical default
        let no_prec = r#"{"system":"dawn","op":"gemm","m":64,"n":64,"k":64}"#;
        let (r, _) = a.handle(&post("/v1/advise", no_prec));
        assert_eq!(r.status, 200);
        let j = body_json(&r);
        assert_eq!(
            j.get("call")
                .and_then(|c| c.get("precision"))
                .and_then(Json::as_str),
            Some("f64")
        );
        // ... and answers identically to an explicit f64 body
        let explicit = r#"{"system":"dawn","op":"gemm","m":64,"n":64,"k":64,"precision":"f64"}"#;
        let (r2, _) = a.handle(&post("/v1/advise", explicit));
        assert_eq!(r.body, r2.body);
        // extended precisions are accepted and echoed back
        for spelling in ["bf16", "f16", "f64-emul", "f64-emul2"] {
            let body = format!(
                r#"{{"system":"dawn","op":"gemm","m":256,"n":256,"k":256,"precision":"{spelling}"}}"#
            );
            let (r, _) = a.handle(&post("/v1/advise", &body));
            assert_eq!(r.status, 200, "{spelling}");
            let echoed = body_json(&r);
            let got = echoed
                .get("call")
                .and_then(|c| c.get("precision"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            // bare f64-emul canonicalises to its 3-slice spelling
            let want = if spelling == "f64-emul" {
                "f64-emul3"
            } else {
                spelling
            };
            assert_eq!(got, want, "{spelling}");
        }
        // dispatch accepts the new axis too
        let (r, _) = a.handle(&post(
            "/v1/dispatch",
            r#"{"system":"dawn","op":"gemm","m":48,"n":48,"k":48,"precision":"bf16"}"#,
        ));
        assert_eq!(r.status, 200);
    }

    #[test]
    fn unknown_precision_is_unsupported_precision() {
        let a = app();
        for (path, body) in [
            (
                "/v1/advise",
                r#"{"system":"dawn","op":"gemm","m":8,"n":8,"k":8,"precision":"f128"}"#,
            ),
            (
                "/v1/dispatch",
                r#"{"system":"dawn","op":"gemm","m":8,"n":8,"k":8,"precision":"tf32"}"#,
            ),
            (
                "/v1/threshold",
                r#"{"system":"lumi","problem":"gemm_square","precision":"f8","max_dim":8}"#,
            ),
        ] {
            let (r, _) = a.handle(&post(path, body));
            assert_eq!(r.status, 400, "{path}");
            assert_eq!(
                error_obj(&r).get("code").and_then(Json::as_str),
                Some("unsupported_precision"),
                "{path}"
            );
        }
    }

    #[test]
    fn thresholds_differ_per_precision() {
        // the acceptance golden: one modelled system, three precisions,
        // three *distinct* offload thresholds
        let a = app();
        let threshold_for = |precision: &str| -> String {
            let body = format!(
                r#"{{"system":"lumi","problem":"gemm_square","precision":"{precision}",
                    "iterations":8,"max_dim":512,"step":4}}"#
            );
            let (r, _) = a.handle(&post("/v1/threshold", &body));
            assert_eq!(r.status, 200, "{precision}");
            let j = body_json(&r);
            assert_eq!(
                j.get("precision").and_then(Json::as_str),
                Some(
                    schema::parse_precision(precision)
                        .map(precision_key)
                        .unwrap()
                ),
                "{precision} echo"
            );
            j.get("thresholds").unwrap().encode()
        };
        let f32_t = threshold_for("f32");
        let bf16_t = threshold_for("bf16");
        let emul_t = threshold_for("f64-emul");
        assert_ne!(f32_t, bf16_t, "f32 vs bf16 thresholds must differ");
        assert_ne!(f32_t, emul_t, "f32 vs f64-emul thresholds must differ");
        assert_ne!(bf16_t, emul_t, "bf16 vs f64-emul thresholds must differ");
    }

    #[test]
    fn threshold_caches_identical_requests() {
        let a = app();
        let body = r#"{"system":"lumi","problem":"gemm_square","precision":"f32",
                       "iterations":8,"max_dim":128}"#;
        let (r1, _) = a.handle(&post("/v1/threshold", body));
        assert_eq!(r1.status, 200);
        let j1 = body_json(&r1);
        assert_eq!(j1.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(j1.get("sweep_points").and_then(Json::as_u64), Some(128));

        let (r2, _) = a.handle(&post("/v1/threshold", body));
        let j2 = body_json(&r2);
        assert_eq!(j2.get("cached").and_then(Json::as_bool), Some(true));
        // identical payload apart from the per-request fields
        assert_eq!(j1.get("thresholds"), j2.get("thresholds"));
        let stats = a.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        // a different precision is a different key
        let (r3, _) = a.handle(&post(
            "/v1/threshold",
            r#"{"system":"lumi","problem":"gemm_square","precision":"f64",
                "iterations":8,"max_dim":128}"#,
        ));
        assert_eq!(
            body_json(&r3).get("cached").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn threshold_validation() {
        let a = app();
        for body in [
            r#"{"system":"dawn","problem":"gemm_cubic"}"#,
            r#"{"system":"dawn","problem":"gemm_square","max_dim":100000}"#,
            r#"{"system":"dawn","problem":"gemm_square","min_dim":0}"#,
            r#"{"system":"dawn","problem":"gemm_square","min_dim":64,"max_dim":8}"#,
            r#"{"system":"dawn","problem":"gemm_square","step":0}"#,
        ] {
            let (r, _) = a.handle(&post("/v1/threshold", body));
            assert_eq!(r.status, 400, "body {body:?}");
            assert_eq!(
                error_obj(&r).get("code").and_then(Json::as_str),
                Some("invalid_field"),
                "body {body:?}"
            );
        }
    }

    #[test]
    fn unknown_route_404_wrong_method_405() {
        let a = app();
        let (r, label) = a.handle(&get("/nope"));
        assert_eq!((r.status, label), (404, "other"));
        let (r, _) = a.handle(&get("/v1/advise"));
        assert_eq!(r.status, 405);
        let (r, _) = a.handle(&post("/v1/healthz", "{}"));
        assert_eq!(r.status, 405);
    }

    #[test]
    fn zero_deadline_budget_fails_compute_endpoints_with_503() {
        let a = App::new(16, 4, true).with_deadline(Duration::ZERO);
        let (r, _) = a.handle(&post(
            "/v1/threshold",
            r#"{"system":"lumi","problem":"gemm_square","max_dim":16,"iterations":1}"#,
        ));
        assert_eq!(r.status, 503);
        let err = error_obj(&r);
        assert_eq!(
            err.get("code").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        let msg = err.get("message").and_then(Json::as_str).unwrap();
        assert!(msg.contains("deadline"), "{msg}");
        let (r, _) = a.handle(&post(
            "/v1/advise",
            r#"{"system":"dawn","op":"gemm","m":8,"n":8,"k":8,"precision":"f32"}"#,
        ));
        assert_eq!(r.status, 503);
        assert!(
            a.metrics
                .robustness
                .deadline_exceeded
                .load(Ordering::Relaxed)
                >= 2
        );
        // probes are exempt from the budget and report the degradation
        let (r, _) = a.handle(&get("/v1/healthz"));
        assert_eq!(r.status, 200);
        let j = body_json(&r);
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("degraded").and_then(Json::as_bool), Some(true));
        assert!(
            j.get("robustness")
                .and_then(|x| x.get("deadline_exceeded"))
                .and_then(Json::as_u64)
                .unwrap()
                >= 2
        );
    }

    #[test]
    fn shutdown_flag_gated() {
        let gated = App::new(4, 1, false);
        let (r, _) = gated.handle(&post("/v1/shutdown", ""));
        assert_eq!(r.status, 404);
        assert_eq!(
            error_obj(&r).get("code").and_then(Json::as_str),
            Some("shutdown_disabled")
        );
        assert!(!gated.shutdown_requested());

        let open = App::new(4, 1, true);
        let (r, _) = open.handle(&post("/v1/shutdown", ""));
        assert_eq!(r.status, 200);
        assert!(open.shutdown_requested());
    }

    #[test]
    fn dispatch_routes_small_to_cpu_and_large_to_gpu() {
        let a = app();
        // DAWN's PVC floors put a 48^3 f32 GEMM on the CPU and a 2048^3
        // clearly on the GPU — the same split the dispatcher unit tests
        // pin down.
        let small = r#"{"system":"dawn","op":"gemm","m":48,"n":48,"k":48,"precision":"f32"}"#;
        let (r, label) = a.handle(&post("/v1/dispatch", small));
        assert_eq!((r.status, label), (200, "dispatch"));
        let body = body_json(&r);
        assert_eq!(body.get("route").and_then(Json::as_str), Some("cpu"));
        assert_eq!(body.get("session").and_then(Json::as_str), Some("default"));
        assert!(body.get("page_state").unwrap().is_null());

        let big = r#"{"system":"dawn","op":"gemm","m":2048,"n":2048,"k":2048,"precision":"f32","site":7}"#;
        let (r, _) = a.handle(&post("/v1/dispatch", big));
        let body = body_json(&r);
        assert_eq!(body.get("route").and_then(Json::as_str), Some("gpu"));
        assert_eq!(body.get("page_state").and_then(Json::as_str), Some("cold"));
        assert!(
            body.get("realized_seconds").and_then(Json::as_f64).unwrap()
                > body
                    .get("gpu_estimate_seconds")
                    .and_then(Json::as_f64)
                    .unwrap(),
            "a cold call realizes the full migration, the estimate amortises it"
        );

        // the service-wide sticky counters saw both decisions
        let (r, _) = a.handle(&get("/v1/metrics"));
        let d = body_json(&r)
            .get("dispatch")
            .cloned()
            .expect("dispatch section");
        assert_eq!(d.get("decisions_cpu").and_then(Json::as_u64), Some(1));
        assert_eq!(d.get("decisions_gpu").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn dispatch_sessions_persist_state_and_are_isolated() {
        let a = app();
        let big = |session: &str| {
            format!(
                r#"{{"system":"isambard-ai","session":"{session}","op":"gemm","m":2048,"n":2048,"k":2048,"precision":"f32","site":1}}"#
            )
        };
        // first call on session `a` pays the cold fault...
        let (r, _) = a.handle(&post("/v1/dispatch", &big("a")));
        let first = body_json(&r);
        assert_eq!(first.get("page_state").and_then(Json::as_str), Some("cold"));
        // ...the repeat finds the pages device-warm and runs cheaper
        let (r, _) = a.handle(&post("/v1/dispatch", &big("a")));
        let second = body_json(&r);
        assert_eq!(
            second.get("page_state").and_then(Json::as_str),
            Some("warm")
        );
        let realized = |j: &Json| j.get("realized_seconds").and_then(Json::as_f64).unwrap();
        assert!(realized(&second) < realized(&first));
        assert_eq!(
            second
                .get("session_stats")
                .and_then(|s| s.get("decisions_gpu"))
                .and_then(Json::as_u64),
            Some(2)
        );
        // a different session id shares nothing: cold again
        let (r, _) = a.handle(&post("/v1/dispatch", &big("b")));
        assert_eq!(
            body_json(&r).get("page_state").and_then(Json::as_str),
            Some("cold")
        );
    }

    #[test]
    fn dispatch_validates_requests() {
        let a = app();
        let (r, _) = a.handle(&post(
            "/v1/dispatch",
            r#"{"system":"cray-1","op":"gemm","m":8,"n":8,"k":8,"precision":"f32"}"#,
        ));
        assert_eq!(r.status, 400);
        assert_eq!(
            error_obj(&r).get("code").and_then(Json::as_str),
            Some("unknown_system")
        );

        let (r, _) = a.handle(&post(
            "/v1/dispatch",
            r#"{"system":"dawn","op":"qr","m":8,"n":8,"k":8,"precision":"f32"}"#,
        ));
        assert_eq!(r.status, 400);

        let (r, _) = a.handle(&post(
            "/v1/dispatch",
            r#"{"system":"dawn","session":"","op":"gemm","m":8,"n":8,"k":8,"precision":"f32"}"#,
        ));
        assert_eq!(r.status, 400);
        assert_eq!(
            error_obj(&r).get("code").and_then(Json::as_str),
            Some("invalid_field")
        );

        // wrong method → 405, not 404: the route exists
        let (r, _) = a.handle(&get("/v1/dispatch"));
        assert_eq!(r.status, 405);
    }

    #[test]
    fn dispatch_session_table_is_bounded() {
        let a = app();
        for i in 0..(MAX_DISPATCH_SESSIONS + 8) {
            let body = format!(
                r#"{{"system":"dawn","session":"s{i}","op":"gemm","m":48,"n":48,"k":48,"precision":"f32"}}"#
            );
            let (r, _) = a.handle(&post("/v1/dispatch", &body));
            assert_eq!(r.status, 200);
        }
        let sessions = a.dispatch_sessions.lock().unwrap();
        assert_eq!(sessions.len(), MAX_DISPATCH_SESSIONS);
        // the oldest sessions were the ones evicted
        assert!(!sessions.iter().any(|(k, _)| k.starts_with("s0|")));
        assert!(sessions.iter().any(|(k, _)| k.starts_with("s71|")));
    }
}
