//! `balance`: paired push/pop calls must balance on every control-flow
//! path.
//!
//! The tracked pairs are `trace::begin`/`trace::end` (span stack) and
//! `arena::take`/`arena::restore` (pack-buffer loan). A forward dataflow
//! carries the stack of open sites through the CFG; any edge into the
//! exit (or panic exit) with a non-empty stack is a leak, reported at the
//! opening site with the escaping path named (`return` vs `?`/`return`
//! early exit vs unwind). A pop on an empty stack is an underflow —
//! reported only in units that push at all, so a dedicated pop helper
//! (e.g. a guard's `Drop` impl) stays clean.
//!
//! Precision notes: paths that disagree about the stack join to `Top`,
//! which silences the analysis for that region (under-approximation —
//! fewer findings, never bogus ones). Closures run as their own units;
//! a closure handed to `catch_unwind` keeps its panic edges exempt
//! because the caller contains the unwind.

use crate::ast::collect_fns;
use crate::cfg::{build_units, Cfg, EdgeKind, Event, Unit};
use crate::dataflow::{solve, Direction, Lattice};
use crate::rules::{FileUnit, Finding};
use std::collections::BTreeSet;

/// `(module, push, pop, home_file)` — bare `push()`/`pop()` calls match
/// only inside the home file, where the functions are in scope unqualified.
const PAIRS: [(&str, &str, &str, &str); 2] = [
    ("trace", "begin", "end", "crates/blas/src/trace.rs"),
    ("arena", "take", "restore", "crates/blas/src/arena.rs"),
];

/// The balance stack: open `(pair index, line)` sites, or `Top` when
/// joined paths disagree.
#[derive(Debug, Clone, PartialEq)]
enum Bal {
    /// Paths disagree; stop tracking (no findings from here).
    Top,
    /// Open sites in push order.
    Open(Vec<(usize, usize)>),
}

impl Lattice for Bal {
    fn join(&self, other: &Self) -> Self {
        if self == other {
            self.clone()
        } else {
            Bal::Top
        }
    }
}

/// Classifies a `Call` path as a push or pop of one of the tracked pairs.
fn classify(path: &str, file: &str) -> Option<(usize, bool)> {
    let segs: Vec<&str> = path.split("::").collect();
    let name = *segs.last()?;
    let qualifier = if segs.len() >= 2 {
        Some(segs[segs.len() - 2])
    } else {
        None
    };
    for (i, (module, push, pop, home)) in PAIRS.iter().enumerate() {
        let scoped = qualifier == Some(*module) || (qualifier.is_none() && file == *home);
        if !scoped {
            continue;
        }
        if name == *push {
            return Some((i, true));
        }
        if name == *pop {
            return Some((i, false));
        }
    }
    None
}

fn apply(state: &Bal, file: &str, ev: &Event) -> Bal {
    let Event::Call { path, line } = ev else {
        return state.clone();
    };
    let Some((pair, is_push)) = classify(path, file) else {
        return state.clone();
    };
    match state {
        Bal::Top => Bal::Top,
        Bal::Open(stack) => {
            let mut s = stack.clone();
            if is_push {
                s.push((pair, *line));
            } else if s.last().is_some_and(|&(p, _)| p == pair) {
                s.pop();
            }
            // pop on empty / mismatched top: leave the state alone — the
            // underflow pass reports it from the solved entry states
            Bal::Open(s)
        }
    }
}

fn pair_names(pair: usize) -> (String, String) {
    let (module, push, pop, _) = PAIRS[pair];
    (format!("{module}::{push}"), format!("{module}::{pop}"))
}

fn check_unit(u: &FileUnit, unit: &Unit, findings: &mut Vec<Finding>) {
    let cfg: &Cfg = &unit.cfg;
    let transfer = |b: usize, s: &Bal| {
        let mut st = s.clone();
        for ev in &cfg.blocks[b].events {
            st = apply(&st, &u.path, ev);
        }
        st
    };
    let sol = solve(
        cfg,
        Direction::Forward,
        Bal::Open(Vec::new()),
        Bal::Open(Vec::new()),
        Bal::Open(Vec::new()),
        &transfer,
    );

    // leaks: any edge into a termination block with open sites
    let mut reported: BTreeSet<(usize, &'static str)> = BTreeSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(Bal::Open(stack)) = &sol.out[b] else {
            continue;
        };
        if stack.is_empty() {
            continue;
        }
        for &(target, kind) in &block.succs {
            let how = if target == cfg.exit {
                match kind {
                    EdgeKind::EarlyReturn => "on an early-return path (`?` or `return`)",
                    _ => "before the function returns",
                }
            } else if target == cfg.panic_exit && !unit.in_catch_unwind {
                "when this path unwinds (unwrap/expect/assert) — \
                 close it first or contain the panic with `catch_unwind`"
            } else {
                continue;
            };
            for &(pair, line) in stack {
                let (push, pop) = pair_names(pair);
                if reported.insert((line, how)) {
                    findings.push(Finding::new(
                        "balance",
                        &u.path,
                        line,
                        format!("`{push}` opened here never reaches `{pop}` {how}"),
                    ));
                }
            }
        }
    }

    // underflow: a pop with nothing open, in a unit that pushes at all
    let unit_pushes = cfg.blocks.iter().any(|b| {
        b.events.iter().any(|e| {
            matches!(e, Event::Call { path, .. }
                     if classify(path, &u.path).is_some_and(|(_, p)| p))
        })
    });
    if !unit_pushes {
        return;
    }
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(start) = &sol.inp[b] else { continue };
        let mut st = start.clone();
        for ev in &block.events {
            if let Event::Call { path, line } = ev {
                if let Some((pair, false)) = classify(path, &u.path) {
                    if let Bal::Open(stack) = &st {
                        if !stack.last().is_some_and(|&(p, _)| p == pair) && seen.insert(*line) {
                            let (push, pop) = pair_names(pair);
                            findings.push(Finding::new(
                                "balance",
                                &u.path,
                                *line,
                                format!(
                                    "`{pop}` here has no matching `{push}` open on \
                                     any path reaching it"
                                ),
                            ));
                        }
                    }
                }
            }
            st = apply(&st, &u.path, ev);
        }
    }
}

/// Runs the balance analysis over every non-test function and closure.
pub fn check(units: &[FileUnit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for u in units {
        if super::skip_file(u) {
            continue;
        }
        for f in collect_fns(&u.ast.items) {
            if super::in_test_region(&u.test_regions, f.line) {
                continue;
            }
            for unit in build_units(f) {
                check_unit(u, &unit, &mut findings);
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let units = vec![FileUnit::build(path, src)];
        check(&units)
    }

    #[test]
    fn balanced_straight_line_is_clean() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f() { trace::begin(\"x\"); work(); trace::end(); }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_pop_fires_at_the_push() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f() { trace::begin(\"x\"); work(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("before the function returns"));
    }

    #[test]
    fn question_mark_early_return_leaks() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f() -> Result<(), E> {\n\
             trace::begin(\"x\");\n\
             let v = load()?;\n\
             use_it(v);\n\
             trace::end();\n\
             Ok(())\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("early-return"), "{}", f[0].message);
        assert_eq!(f[0].line, 2, "reported at the begin site");
    }

    #[test]
    fn unwrap_panic_edge_leaks() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f(x: Option<u32>) {\n\
             arena::take();\n\
             let v = x.unwrap();\n\
             use_it(v);\n\
             arena::restore();\n\
             }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unwinds"), "{}", f[0].message);
        assert!(f[0].message.contains("arena::take"));
    }

    #[test]
    fn catch_unwind_closure_panic_edge_is_exempt() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f(x: Option<u32>) {\n\
             let r = std::panic::catch_unwind(|| {\n\
             trace::begin(\"x\");\n\
             let v = x.unwrap();\n\
             use_it(v);\n\
             trace::end();\n\
             });\n\
             handle(r);\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn pop_only_helper_is_clean_but_real_underflow_fires() {
        // a Drop-style helper that only pops never fires
        let f = run("crates/core/src/a.rs", "fn g() { trace::end(); }\n");
        assert!(f.is_empty(), "{f:?}");
        // but a double pop in a pushing unit does
        let f = run(
            "crates/core/src/a.rs",
            "fn f() { trace::begin(\"x\"); trace::end(); trace::end(); }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no matching"), "{}", f[0].message);
    }

    #[test]
    fn bare_names_match_only_in_the_home_file() {
        // inside trace.rs, bare begin() counts
        let f = run("crates/blas/src/trace.rs", "pub fn span() { begin(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        // the same bare call elsewhere is some unrelated function
        let f = run("crates/blas/src/other.rs", "pub fn span() { begin(); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn branch_balanced_on_both_arms_is_clean() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f(c: bool) {\n\
             trace::begin(\"x\");\n\
             if c { work(); } else { other(); }\n\
             trace::end();\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn loop_balanced_per_iteration_is_clean() {
        let f = run(
            "crates/blas/src/a.rs",
            "fn f(n: usize) {\n\
             for i in 0..n {\n\
             arena::take();\n\
             work(i);\n\
             arena::restore();\n\
             }\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_regions_are_skipped() {
        let f = run(
            "crates/blas/src/a.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { trace::begin(\"x\"); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
