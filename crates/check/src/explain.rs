//! The rule catalogue: one source-of-truth table backing `--list-rules`,
//! `--explain <rule>`, and suppression validation.
//!
//! Every rule the checker can emit lives in [`DOCS`] with its scope, the
//! pattern it fires on, and the rationale. [`crate::rules::RULES`] is
//! derived from this table, so a rule cannot exist without documentation
//! (a unit test enforces the 1:1 mapping and uniqueness).

/// Documentation for one rule.
#[derive(Debug)]
pub struct RuleDoc {
    /// Rule identifier, e.g. `no-unwrap-in-lib`.
    pub name: &'static str,
    /// Where the rule applies (files, crates, test handling).
    pub scope: &'static str,
    /// The pattern that triggers a finding.
    pub pattern: &'static str,
    /// Why the project enforces it.
    pub rationale: &'static str,
}

/// All rules, in catalogue order. The last entry (`suppression`) is the
/// meta-rule about suppression hygiene itself.
pub const DOCS: [RuleDoc; 17] = [
    RuleDoc {
        name: "no-unsafe",
        scope: "every file except the sanctioned SIMD homes \
                (crates/blas/src/microkernel.rs and pack.rs), tests included",
        pattern: "any `unsafe` token",
        rationale: "the workspace denies unsafe_code at the lint level; this catches it \
                    before rustc does, including in code excluded from the build. The \
                    two sanctioned files hold the explicit-SIMD micro-kernels and their \
                    packers; `no-unchecked-simd` polices them instead",
    },
    RuleDoc {
        name: "no-unwrap-in-lib",
        scope: "library code (under src/, not bin/), #[cfg(test)] excluded",
        pattern: "`.unwrap()`, `.expect(…)`, or `panic!` in library code",
        rationale: "library code returns typed errors; panicking inside a kernel or the \
                    advisor tears down the caller's thread pool instead of reporting",
    },
    RuleDoc {
        name: "no-unwrap-in-serve",
        scope: "binary files of crates/serve and crates/cli, tests excluded",
        pattern: "`.unwrap()`, `.expect(…)`, or `panic!` in service/driver binaries",
        rationale: "a panic in the long-running advisor service or the sweep driver \
                    aborts availability mid-run; errors must be reported and exited cleanly",
    },
    RuleDoc {
        name: "no-float-eq",
        scope: "blob-blas and blob-sim library code, tests excluded",
        pattern: "`==` or `!=` with a float literal (or f32/f64 suffix) on either side",
        rationale: "exact float comparison in kernel/model code hides precision bugs; \
                    compare against a tolerance",
    },
    RuleDoc {
        name: "pub-item-docs",
        scope: "blob-blas, blob-sim, and blob-core library code, tests excluded",
        pattern: "a `pub` item or struct field with no doc comment above it",
        rationale: "the numeric core is the paper-facing API surface; undocumented \
                    public items degrade into folklore",
    },
    RuleDoc {
        name: "contract-guard",
        scope: "the four GEMM/GEMV entry-point files (gemm/gemv/half/emul), tests excluded",
        pattern: "a `pub fn` that indexes a slice before (or without) calling \
                  `contract::…`/`check_…` or a function already known to validate \
                  (delegation is resolved by fixpoint across the kernel files)",
        rationale: "every public kernel entry point validates its dimension contract \
                    before touching data, so shape bugs surface as ContractError, not \
                    as out-of-bounds panics deep in a blocked loop",
    },
    RuleDoc {
        name: "no-adhoc-scope",
        scope: "crates/blas/src except pool.rs, tests included",
        pattern: "a `std::thread::scope(` call outside the pool module",
        rationale: "blob_blas::pool is the only sanctioned home for scoped threads; \
                    ad-hoc scopes reintroduce per-call spawns on the hot path and dodge \
                    the pool's crossover/panic/perturbation machinery",
    },
    RuleDoc {
        name: "no-raw-error-body",
        scope: "crates/serve/src except envelope.rs and http.rs, tests excluded",
        pattern: "`Response::json(…)`/`Response::text(…)` with a literal status >= 400",
        rationale: "error responses carry the uniform JSON envelope and trace header \
                    minted by `envelope::error_response`; hand-built errors fork the \
                    wire contract",
    },
    RuleDoc {
        name: "atomics-ordering",
        scope: "library code workspace-wide, tests excluded; accesses are grouped per \
                atomic (cross-file when the declaration is unique)",
        pattern: "an atomic whose access sites mix `Relaxed` with release/acquire \
                  orderings (each Relaxed site fires), or whose `Release` stores have \
                  no `Acquire`/`SeqCst` load to pair with (and vice versa); pure-Relaxed \
                  atomics are treated as counters and stay clean",
        rationale: "a Relaxed load of a flag published with Release reads stale state \
                    unless it is a deliberate disabled-path fast gate; those gates are \
                    allowlisted (trace/fault ACTIVE flags) — anything else is a bug or \
                    needs a reasoned suppression",
    },
    RuleDoc {
        name: "lock-discipline",
        scope: "library code workspace-wide, tests excluded; the lock-order graph is \
                built across the whole workspace (fields are crate-qualified, \
                UPPERCASE statics are global)",
        pattern: "acquiring a lock while already holding it (self-deadlock), a cycle \
                  in the workspace lock-order graph (`A` held while taking `B` in one \
                  place, `B` while taking `A` in another), or any guard held across \
                  `pool::run_scoped`/`parallel_for`/batch submit+wait",
        rationale: "the pool executes jobs on caller and worker threads alike; a guard \
                    held across dispatch deadlocks the moment a job needs the same \
                    lock, and order cycles deadlock under concurrency",
    },
    RuleDoc {
        name: "balance",
        scope: "library code workspace-wide, tests excluded; per-function CFG \
                dataflow, closures analyzed as their own units",
        pattern: "a `trace::begin` with no `trace::end` (or `arena::take` with no \
                  `arena::restore`) on some path to return — including `?` early \
                  returns and panic edges from unwrap/expect/assert — or a pop that \
                  no path ever opened; closures passed to `catch_unwind` are exempt \
                  on panic paths",
        rationale: "an unbalanced span corrupts the trace tree for every later span \
                    on that thread, and a lost arena buffer defeats the zero-alloc \
                    steady state",
    },
    RuleDoc {
        name: "drop-on-path",
        scope: "library code workspace-wide, tests excluded; backward must-use CFG \
                dataflow against the workspace's own Result-returning functions",
        pattern: "a binding of a workspace `Result` that some path neither uses, \
                  `?`-propagates, matches, nor explicitly ignores before returning — \
                  or a statement-position call whose Result is discarded outright \
                  (`f();`); `_`-prefixed bindings are exempt, and unwinding paths \
                  don't count",
        rationale: "a silently dropped Result swallows contract violations and fault \
                    injections; every error path the paper's robustness story depends \
                    on must be handled or visibly ignored",
    },
    RuleDoc {
        name: "no-direct-kernel-in-dispatch",
        scope: "crates/dispatch/src except exec.rs, tests excluded",
        pattern: "a call to any of the nine `blob_blas` GEMM/GEMV entry points — \
                  `gemm_ref(`, `gemm_blocked(`, `gemm_blocked_tuned(`, `gemm_parallel(`, \
                  `gemm_half(`, `gemm_emul(`, `gemv_ref(`, `gemv_parallel(`, `gemv_emul(` \
                  (bare or path-qualified) — outside the executor module \
                  (`BlasCall::gemm(…)` shape constructors don't match)",
        rationale: "the dispatch crate's contract is that every kernel invocation is a \
                    *decision*: exec.rs is the one sanctioned home for blob_blas calls, \
                    where the decide/complete pairing, history feedback and residency \
                    accounting are guaranteed; a direct call anywhere else silently \
                    bypasses the dispatcher",
    },
    RuleDoc {
        name: "no-unchecked-simd",
        scope: "every file, tests included; two-sided around the sanctioned SIMD \
                homes (crates/blas/src/microkernel.rs and pack.rs)",
        pattern: "outside the sanctioned files: any `core::arch`/`std::arch` path, a \
                  `target_feature` attribute, or an `_mm…`/`__m…` intrinsic \
                  identifier. Inside them: an `unsafe fn` whose doc comment has no \
                  `# Safety` section",
        rationale: "explicit-SIMD intrinsics are only sound behind the runtime \
                    feature-detection dispatch the micro-kernel module owns; a stray \
                    intrinsic elsewhere dodges that gate and can execute an illegal \
                    instruction on older hosts. Inside the sanctioned files every \
                    `unsafe fn` must state its safety contract so callers know what \
                    the dispatch layer guarantees",
    },
    RuleDoc {
        name: "no-unbounded-queue",
        scope: "crates/serve/src, tests excluded",
        pattern: "an unbounded queue constructor — the token sequence \
                  `mpsc::channel(` or `VecDeque::new(` — in service code",
        rationale: "every queue in the serve path is a buffer between a producer \
                    that can always go faster (accepted connections, fabric \
                    requests) and a consumer that can stall; an unbounded one \
                    turns overload into unbounded memory growth and \
                    tail-latency collapse instead of visible back-pressure. Use \
                    `mpsc::sync_channel(cap)` or a capacity-checked \
                    `VecDeque::with_capacity(cap)` (like the fabric's \
                    connection `Pool`) so saturation sheds load at the edge",
    },
    RuleDoc {
        name: "no-untagged-precision",
        scope: "the precision-plane kernel homes (crates/blas/src/half.rs and \
                emul.rs), tests excluded",
        pattern: "a `pub fn` whose name contains `gemm` or `gemv` whose parameter \
                  list carries no `Precision`-typed argument",
        rationale: "a reduced- or emulated-precision kernel is a different numerical \
                    object at each tag — `bf16` vs `f16`, `f64-emul2` vs `f64-emul4` \
                    — and the validation tolerances, dispatch history keys and wire \
                    echo are all keyed on that tag. A public kernel entry point \
                    without an explicit `Precision` parameter lets a caller run one \
                    precision while the rest of the plane accounts for another",
    },
    RuleDoc {
        name: "suppression",
        scope: "every file",
        pattern: "a `blob-check: allow(…)` comment without a reason after the rule, \
                  or naming a rule that does not exist",
        rationale: "suppressions are the audit trail for intentional violations; one \
                    without a reason is indistinguishable from a silenced bug",
    },
];

/// Renders the full explanation for one rule (the `--explain` body),
/// ending with the suppression comment that silences one site: the same
/// syntax for every rule, with a mandatory reason after the second `:`.
pub fn explain(rule: &str) -> Option<String> {
    let d = DOCS.iter().find(|d| d.name == rule)?;
    let suppress = match d.name {
        "suppression" => "(not suppressible — fix the suppression itself)".to_string(),
        name => format!("// blob-check: allow({name}): <why>"),
    };
    Some(format!(
        "rule: {}\n\nscope:\n  {}\n\nfires on:\n  {}\n\nwhy:\n  {}\n\nsuppress one site with:\n  {suppress}\n",
        d.name, d.scope, d.pattern, d.rationale
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULES;

    #[test]
    fn docs_and_rules_are_one_to_one() {
        assert_eq!(DOCS.len(), RULES.len());
        for (d, r) in DOCS.iter().zip(RULES.iter()) {
            assert_eq!(d.name, *r, "RULES must be derived from DOCS in order");
        }
        // no duplicate names
        for (i, a) in DOCS.iter().enumerate() {
            for b in &DOCS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn every_doc_field_is_non_empty() {
        for d in &DOCS {
            assert!(!d.name.is_empty());
            assert!(!d.scope.is_empty());
            assert!(!d.pattern.is_empty());
            assert!(!d.rationale.is_empty());
        }
    }

    #[test]
    fn explain_renders_known_rules_only() {
        let text = explain("balance").unwrap();
        assert!(text.contains("trace::begin"));
        assert!(text.contains("allow(balance)"));
        assert!(explain("no-such-rule").is_none());
    }
}
