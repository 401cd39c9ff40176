//! Deterministic, seeded fault injection for the whole workspace.
//!
//! Real HPC nodes hang, drop connections, and kill processes mid-write;
//! the offload thresholds this harness measures are only trustworthy if
//! the harness itself survives those failure modes. This module makes
//! failure a first-class, *deterministically testable* input, the same
//! way [`perturb`](crate::perturb) already treats scheduling noise. It
//! lives in the bottom crate so that the thread pool calls it directly;
//! `blob-core` re-exports it as `blob_core::fault`.
//!
//! ## Fault points
//!
//! A fault *point* is a named site in the code — `fault::point("csv.write")`
//! — that a loaded fault *plan* can resolve to an injected failure. The
//! full catalogue lives in [`sites`]; unknown names are rejected at plan
//! parse time so a typo cannot silently disable a chaos test.
//!
//! When no plan is loaded, a point is one relaxed atomic load and a
//! predictable branch (the same zero-cost pattern as
//! [`perturb::point`](crate::perturb::point)); `overhead_gate` in `blob-bench` proves the
//! disabled cost stays under 1% of a 64³ four-thread GEMM call.
//!
//! ## Plan grammar
//!
//! ```text
//! plan   := [ "seed=" u64 ";" ] rule { ";" rule }
//! rule   := site ":" action "@" prob [ "x" count ]
//! action := "error" | "panic" | "delay(" ms "ms)"
//! ```
//!
//! Example: `seed=42;serve.sweep:error@0.5x10;runner.size:delay(3ms)@1`
//! injects an error on each `serve.sweep` hit with probability 0.5 (at
//! most 10 times total) and delays every `runner.size` hit by 3 ms.
//!
//! ## Determinism
//!
//! Each rule owns an independent [`XorShift64`] stream forked from the
//! plan seed, so the k-th *decision* a rule makes is a pure function of
//! `(seed, rule index, k)`. Single-threaded drivers therefore replay
//! bit-identically; under concurrency the per-rule decision sequence is
//! still fixed — only which caller observes which decision can vary.

use crate::rng::XorShift64;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The catalogue of known fault-point names. A plan naming any other
/// site fails to parse ([`PlanError::UnknownSite`]).
pub mod sites {
    /// blob-serve acceptor, after `accept()` returns a connection.
    pub const SERVE_ACCEPT: &str = "serve.accept";
    /// blob-serve connection worker, top of its pull loop.
    pub const SERVE_WORKER: &str = "serve.worker";
    /// blob-serve request router, before dispatching a request.
    pub const SERVE_HANDLE: &str = "serve.handle";
    /// blob-serve threshold sweep computation (the retried backend call).
    pub const SERVE_SWEEP: &str = "serve.sweep";
    /// blob-serve threshold cache read (error ⇒ treated as a miss).
    pub const SERVE_CACHE: &str = "serve.cache";
    /// Thread-pool worker, between jobs (error ⇒ worker death).
    pub const POOL_WORKER: &str = "pool.worker";
    /// Sweep runner, before measuring one problem size.
    pub const RUNNER_SIZE: &str = "runner.size";
    /// CSV result-file write.
    pub const CSV_WRITE: &str = "csv.write";
    /// Sweep checkpoint-file write.
    pub const CHECKPOINT_WRITE: &str = "checkpoint.write";
    /// blob-serve shard router, before selecting a replica for a request
    /// (error ⇒ the request fails with `upstream_unavailable`).
    pub const FABRIC_ROUTE: &str = "fabric.route";
    /// blob-serve shard router, before forwarding one attempt to a
    /// backend replica (error ⇒ treated as a replica failure: the health
    /// board records it and the router fails over to the next replica).
    pub const FABRIC_BACKEND: &str = "fabric.backend";

    /// Every site name, for validation and documentation.
    pub const ALL: [&str; 11] = [
        SERVE_ACCEPT,
        SERVE_WORKER,
        SERVE_HANDLE,
        SERVE_SWEEP,
        SERVE_CACHE,
        POOL_WORKER,
        RUNNER_SIZE,
        CSV_WRITE,
        CHECKPOINT_WRITE,
        FABRIC_ROUTE,
        FABRIC_BACKEND,
    ];
}

/// Default plan seed when the spec omits `seed=`.
pub const DEFAULT_SEED: u64 = 0xB10B_FA17;

/// What a triggered rule does to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected [`FaultError`] from the point.
    Error,
    /// Panic at the point (payload names the site).
    Panic,
    /// Sleep for the given duration, then proceed normally.
    Delay(Duration),
}

/// One parsed rule of a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Which fault point this rule arms (a name from [`sites`]).
    pub site: String,
    /// What happens when the rule triggers.
    pub action: Action,
    /// Per-hit trigger probability in `[0, 1]`.
    pub prob: f64,
    /// Maximum number of triggers, or `None` for unlimited.
    pub max_triggers: Option<u64>,
}

/// A parsed, validated fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Seed for the per-rule decision streams.
    pub seed: u64,
    /// Rules in spec order; for one site, earlier rules win.
    pub rules: Vec<Rule>,
}

/// Error from [`Plan::parse`]: what was wrong with the spec text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The spec was empty or contained an empty rule.
    Empty,
    /// A rule named a site outside the [`sites`] catalogue.
    UnknownSite(String),
    /// A rule was not of the form `site:action@prob[xN]`.
    Malformed(String),
    /// The action was not `error`, `panic` or `delay(Nms)`.
    BadAction(String),
    /// The probability did not parse or was outside `[0, 1]`.
    BadProbability(String),
    /// The trigger count did not parse or was zero.
    BadCount(String),
    /// The `seed=` prefix did not parse as a u64.
    BadSeed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Empty => write!(f, "empty fault plan"),
            PlanError::UnknownSite(s) => {
                write!(f, "unknown fault point `{s}` (see blob_core::fault::sites)")
            }
            PlanError::Malformed(s) => {
                write!(f, "malformed rule `{s}` (want site:action@prob[xN])")
            }
            PlanError::BadAction(s) => {
                write!(f, "bad action `{s}` (want error, panic or delay(Nms))")
            }
            PlanError::BadProbability(s) => {
                write!(f, "bad probability `{s}` (want a number in [0,1])")
            }
            PlanError::BadCount(s) => write!(f, "bad trigger count `{s}` (want xN with N >= 1)"),
            PlanError::BadSeed(s) => write!(f, "bad seed `{s}` (want seed=<u64>)"),
        }
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Parses a plan spec (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, PlanError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(PlanError::Empty);
        }
        let mut seed = DEFAULT_SEED;
        let mut rules = Vec::new();
        for (i, part) in spec.split(';').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                return Err(PlanError::Empty);
            }
            if i == 0 {
                if let Some(v) = part.strip_prefix("seed=") {
                    seed = v
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| PlanError::BadSeed(part.to_string()))?;
                    continue;
                }
            }
            rules.push(parse_rule(part)?);
        }
        if rules.is_empty() {
            return Err(PlanError::Empty);
        }
        Ok(Plan { seed, rules })
    }
}

fn parse_rule(part: &str) -> Result<Rule, PlanError> {
    let malformed = || PlanError::Malformed(part.to_string());
    let (site, rest) = part.split_once(':').ok_or_else(malformed)?;
    let (action_text, prob_text) = rest.rsplit_once('@').ok_or_else(malformed)?;
    let site = site.trim();
    if !sites::ALL.contains(&site) {
        return Err(PlanError::UnknownSite(site.to_string()));
    }
    let action = parse_action(action_text.trim())?;
    let (prob_text, max_triggers) = match prob_text.split_once('x') {
        Some((p, n)) => {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| PlanError::BadCount(prob_text.to_string()))?;
            if n == 0 {
                return Err(PlanError::BadCount(prob_text.to_string()));
            }
            (p.trim(), Some(n))
        }
        None => (prob_text.trim(), None),
    };
    let prob: f64 = prob_text
        .parse()
        .map_err(|_| PlanError::BadProbability(prob_text.to_string()))?;
    if !(0.0..=1.0).contains(&prob) {
        return Err(PlanError::BadProbability(prob_text.to_string()));
    }
    Ok(Rule {
        site: site.to_string(),
        action,
        prob,
        max_triggers,
    })
}

fn parse_action(text: &str) -> Result<Action, PlanError> {
    match text {
        "error" => Ok(Action::Error),
        "panic" => Ok(Action::Panic),
        _ => {
            let ms = text
                .strip_prefix("delay(")
                .and_then(|t| t.strip_suffix("ms)"))
                .ok_or_else(|| PlanError::BadAction(text.to_string()))?;
            let ms: u64 = ms
                .trim()
                .parse()
                .map_err(|_| PlanError::BadAction(text.to_string()))?;
            Ok(Action::Delay(Duration::from_millis(ms)))
        }
    }
}

/// The error a fault point returns when a rule injects `error`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// The site that injected the error.
    pub site: String,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at `{}`", self.site)
    }
}

impl std::error::Error for FaultError {}

impl From<FaultError> for std::io::Error {
    fn from(e: FaultError) -> Self {
        std::io::Error::other(e)
    }
}

/// Runtime state of one rule: its decision stream and budget.
struct RuleState {
    rule: Rule,
    rng: XorShift64,
    remaining: Option<u64>,
    injected: u64,
}

struct ActivePlan {
    rules: Vec<RuleState>,
}

/// Fast-path switch: false ⇒ every point returns `Ok(())` after one
/// relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static PLAN: Mutex<Option<ActivePlan>> = Mutex::new(None);

/// Serialises tests (and any other short-lived drivers) that install
/// process-global fault plans, exactly like `perturb::STRESS_LOCK`.
pub static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn plan_guard() -> MutexGuard<'static, Option<ActivePlan>> {
    // A panic while holding the lock (the `panic` action unwinds from
    // inside `point`) must not wedge every later fault point.
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs a fault plan process-wide, replacing any previous plan.
///
/// Each rule gets an independent decision stream forked from the plan
/// seed, so re-installing the same plan replays the same decisions.
pub fn install(plan: &Plan) {
    let mut root = XorShift64::new(plan.seed);
    let rules = plan
        .rules
        .iter()
        .map(|rule| RuleState {
            rule: rule.clone(),
            rng: root.fork(),
            remaining: rule.max_triggers,
            injected: 0,
        })
        .collect();
    *plan_guard() = Some(ActivePlan { rules });
    ACTIVE.store(true, Ordering::Release);
}

/// Removes any installed plan; every point returns to the zero-cost path.
pub fn clear() {
    ACTIVE.store(false, Ordering::Release);
    *plan_guard() = None;
}

/// True if a plan is currently installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Loads a plan from the `GPU_BLOB_FAULTS` environment variable if set.
///
/// Returns `Ok(true)` if a plan was installed, `Ok(false)` if the
/// variable was absent, and the parse error otherwise.
pub fn install_from_env() -> Result<bool, PlanError> {
    match std::env::var("GPU_BLOB_FAULTS") {
        Ok(spec) => {
            let plan = Plan::parse(&spec)?;
            install(&plan);
            Ok(true)
        }
        Err(_) => Ok(false),
    }
}

/// Per-site injection counts of the installed plan (diagnostics and
/// chaos-test assertions). Empty when no plan is installed.
pub fn stats() -> Vec<(String, u64)> {
    let guard = plan_guard();
    match guard.as_ref() {
        Some(active) => active
            .rules
            .iter()
            .map(|r| (r.rule.site.clone(), r.injected))
            .collect(),
        None => Vec::new(),
    }
}

/// Total injections across all rules of the installed plan.
pub fn injected_total() -> u64 {
    stats().iter().map(|(_, n)| n).sum()
}

/// A fault point. Returns `Ok(())` unless an installed plan injects an
/// error here; `panic` rules unwind, `delay` rules sleep then succeed.
#[inline]
pub fn point(site: &'static str) -> Result<(), FaultError> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    armed_point(site)
}

#[cold]
fn armed_point(site: &str) -> Result<(), FaultError> {
    match decide(site) {
        Some(Action::Error) => Err(FaultError {
            site: site.to_string(),
        }),
        // blob-check: allow(no-unwrap-in-lib): panicking is the `panic` action's contract — chaos tests inject it on purpose
        Some(Action::Panic) => panic!("injected fault panic at `{site}`"),
        _ => Ok(()),
    }
}

/// Draws the next decision for `site` from the installed plan: the
/// `error` or `panic` action that triggered, if any. Delay actions sleep
/// here (outside the plan lock) and are not returned.
fn decide(site: &str) -> Option<Action> {
    let mut delay = None;
    let action = {
        let mut guard = plan_guard();
        let active = guard.as_mut()?;
        let mut hit = None;
        for state in active.rules.iter_mut().filter(|r| r.rule.site == site) {
            if state.remaining == Some(0) {
                continue;
            }
            if !state.rng.chance(state.rule.prob) {
                continue;
            }
            if let Some(n) = state.remaining.as_mut() {
                *n -= 1;
            }
            state.injected += 1;
            if let Action::Delay(d) = state.rule.action {
                delay = Some(d);
                continue;
            }
            hit = Some(state.rule.action);
            break;
        }
        hit
    };
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    action
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let p = Plan::parse("seed=42;serve.sweep:error@0.5x10;runner.size:delay(3ms)@1").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].site, "serve.sweep");
        assert_eq!(p.rules[0].action, Action::Error);
        assert_eq!(p.rules[0].prob, 0.5);
        assert_eq!(p.rules[0].max_triggers, Some(10));
        assert_eq!(p.rules[1].action, Action::Delay(Duration::from_millis(3)));
        assert_eq!(p.rules[1].max_triggers, None);
    }

    #[test]
    fn seed_is_optional() {
        let p = Plan::parse("csv.write:error@1").unwrap();
        assert_eq!(p.seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_unknown_site() {
        assert_eq!(
            Plan::parse("serve.nope:error@1"),
            Err(PlanError::UnknownSite("serve.nope".to_string()))
        );
    }

    #[test]
    fn rejects_bad_probability() {
        assert!(matches!(
            Plan::parse("csv.write:error@1.5"),
            Err(PlanError::BadProbability(_))
        ));
        assert!(matches!(
            Plan::parse("csv.write:error@-0.1"),
            Err(PlanError::BadProbability(_))
        ));
    }

    #[test]
    fn rejects_zero_count_and_bad_action() {
        assert!(matches!(
            Plan::parse("csv.write:error@1x0"),
            Err(PlanError::BadCount(_))
        ));
        assert!(matches!(
            Plan::parse("csv.write:explode@1"),
            Err(PlanError::BadAction(_))
        ));
        assert!(matches!(
            Plan::parse("csv.write:delay(3s)@1"),
            Err(PlanError::BadAction(_))
        ));
    }

    #[test]
    fn rejects_empty_specs() {
        assert_eq!(Plan::parse(""), Err(PlanError::Empty));
        assert_eq!(Plan::parse("seed=7"), Err(PlanError::Empty));
        assert_eq!(Plan::parse("csv.write:error@1;;"), Err(PlanError::Empty));
    }

    #[test]
    fn disabled_points_are_ok() {
        let _guard = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        clear();
        for site in sites::ALL {
            assert_eq!(point(site), Ok(()));
        }
    }
}
