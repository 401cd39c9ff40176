//! `drop-on-path`: a `Result` from a workspace function must be handled
//! on every normal path.
//!
//! A backward must-use dataflow computes, at each point, the set of
//! bindings that are used on *all* paths from there to the normal exit
//! (join = intersection; the panic exit seeds `Top`, so paths that only
//! unwind grant amnesty — unwinding already aborts the computation). A
//! `let r = f()` where `f` is a workspace `Result`-returning function
//! fires when `r` is absent from that set: some path returns without ever
//! touching it. Bindings spelled `_` or `_name` are explicit ignores and
//! exempt, and `let v = f()?` is exempt because the `?` already handled
//! the error arm.
//!
//! Statement-position discards (`f();`) are flagged directly — there is
//! no binding to track.
//!
//! Call sites resolve through [`Symbols::is_result_call`]: a qualified
//! call must spell the defining module, a bare call must sit in the
//! defining file, and method calls / `Type::assoc` constructors never
//! alias a free function — so `col.fill(…)` and `BlasCall::gemm(…)` do
//! not collide with fallible workspace functions of the same name.

use super::Symbols;
use crate::ast::collect_fns;
use crate::cfg::{build_units, Event, Unit};
use crate::dataflow::{solve, Direction, Lattice};
use crate::rules::{FileUnit, Finding};
use std::collections::BTreeSet;

/// Set of binding names used on all paths to the normal exit.
#[derive(Debug, Clone, PartialEq)]
enum UseSet {
    /// Every name counts as used (panic-only continuations).
    Top,
    /// Exactly these names are used on all paths.
    Set(BTreeSet<String>),
}

impl Lattice for UseSet {
    fn join(&self, other: &Self) -> Self {
        match (self, other) {
            (UseSet::Top, x) | (x, UseSet::Top) => x.clone(),
            (UseSet::Set(a), UseSet::Set(b)) => UseSet::Set(a.intersection(b).cloned().collect()),
        }
    }
}

/// Applies one event in reverse order: uses insert, definitions remove.
/// On `Top` everything is already "used", so only a no-op is sound.
fn apply_rev(state: &mut UseSet, ev: &Event) {
    let UseSet::Set(names) = state else { return };
    match ev {
        Event::Use { name, .. } => {
            names.insert(name.clone());
        }
        Event::Method {
            recv: Some(recv), ..
        } => {
            names.insert(recv.clone());
        }
        Event::Def { name, .. } => {
            names.remove(name);
        }
        _ => {}
    }
}

fn check_unit(u: &FileUnit, unit: &Unit, syms: &Symbols, findings: &mut Vec<Finding>) {
    let cfg = &unit.cfg;
    let transfer = |b: usize, s: &UseSet| {
        let mut st = s.clone();
        for ev in cfg.blocks[b].events.iter().rev() {
            apply_rev(&mut st, ev);
        }
        st
    };
    let sol = solve(
        cfg,
        Direction::Backward,
        UseSet::Set(BTreeSet::new()),
        UseSet::Set(BTreeSet::new()),
        UseSet::Top,
        &transfer,
    );
    for (b, block) in cfg.blocks.iter().enumerate() {
        let Some(end_state) = &sol.out[b] else {
            continue;
        };
        let mut st = end_state.clone();
        for ev in block.events.iter().rev() {
            match ev {
                Event::Def {
                    name,
                    line,
                    from_call: Some(call),
                } if syms.is_result_call(call, &u.path) && !name.starts_with('_') => {
                    let used = match &st {
                        UseSet::Top => true,
                        UseSet::Set(names) => names.contains(name),
                    };
                    if !used {
                        findings.push(Finding::new(
                            "drop-on-path",
                            &u.path,
                            *line,
                            format!(
                                "`{name}` binds the Result of `{}` but some path \
                                 returns without using it — handle it, `?`-propagate, \
                                 or rename it `_{name}` to ignore explicitly",
                                call.path
                            ),
                        ));
                    }
                }
                Event::Discard { what, line } if syms.is_result_call(what, &u.path) => {
                    findings.push(Finding::new(
                        "drop-on-path",
                        &u.path,
                        *line,
                        format!(
                            "the Result of `{0}` is discarded at statement position \
                             — handle it or write `let _ = {0}(…);` to ignore \
                             explicitly",
                            what.path
                        ),
                    ));
                }
                _ => {}
            }
            apply_rev(&mut st, ev);
        }
    }
}

/// Runs the drop-on-path analysis over every non-test function and closure.
pub fn check(units: &[FileUnit], syms: &Symbols) -> Vec<Finding> {
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
                check_unit(u, &unit, syms, &mut findings);
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Source with a known Result-returning `fallible()` plus the snippet.
    fn run(body: &str) -> Vec<Finding> {
        let src = format!("fn fallible() -> Result<u32, E> {{ Ok(1) }}\n{body}");
        let units = vec![FileUnit::build("crates/core/src/a.rs", &src)];
        let syms = Symbols::build(&units);
        check(&units, &syms)
    }

    #[test]
    fn used_on_all_paths_is_clean() {
        let f = run("fn f() { let r = fallible(); handle(r); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn never_used_fires() {
        let f = run("fn f() { let r = fallible(); other(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`r` binds the Result"));
    }

    #[test]
    fn used_on_one_branch_only_fires() {
        let f = run("fn f(c: bool) {\n\
             let r = fallible();\n\
             if c { handle(r); } else { other(); }\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn matched_result_is_used() {
        let f = run(
            "fn f() { let r = fallible(); match r { Ok(v) => use_it(v), Err(e) => log(e) } }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn question_mark_propagation_is_exempt() {
        let f = run("fn f() -> Result<(), E> { let v = fallible()?; use_it(v); Ok(()) }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn underscore_binding_is_an_explicit_ignore() {
        let f = run("fn f() { let _r = fallible(); other(); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn statement_discard_fires() {
        let f = run("fn f() { fallible(); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("discarded at statement position"));
    }

    #[test]
    fn panic_only_continuation_is_amnestied() {
        // after the binding the only continuation is a panic edge — the
        // computation never completes, so the unused Result is moot
        let f = run("fn f() { let r = fallible(); panic!(\"boom\"); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_workspace_calls_are_ignored() {
        let f = run("fn f() { let r = std_thing(); other(); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn use_inside_captured_closure_counts() {
        let f = run("fn f() { let r = fallible(); spawn(move || handle(r)); }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn same_name_in_another_module_does_not_alias() {
        // `a.rs` defines fallible `point`; a *qualified* call to some
        // other module's infallible `point` must not fire
        let a = FileUnit::build(
            "crates/core/src/a.rs",
            "pub fn point(s: &str) -> Result<(), E> { Ok(()) }\n",
        );
        let b = FileUnit::build(
            "crates/blas/src/pool.rs",
            "fn f() { perturb::point(\"tag\"); }\n",
        );
        let units = vec![a, b];
        let syms = Symbols::build(&units);
        assert!(check(&units, &syms).is_empty());
    }

    #[test]
    fn qualified_call_to_the_defining_module_fires() {
        let a = FileUnit::build(
            "crates/core/src/fault.rs",
            "pub fn point(s: &str) -> Result<(), E> { Ok(()) }\n",
        );
        let b = FileUnit::build(
            "crates/blas/src/pool.rs",
            "fn f() { fault::point(\"tag\"); }\n",
        );
        let units = vec![a, b];
        let syms = Symbols::build(&units);
        let f = check(&units, &syms);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`fault::point`"), "{f:?}");
    }

    #[test]
    fn method_and_constructor_names_do_not_alias_free_fns() {
        // `fill` and `gemm` are fallible free fns elsewhere; the slice
        // method `.fill()` and the `BlasCall::gemm` constructor share
        // only the name, not the namespace
        let f = run("fn fill() -> Result<(), E> { Ok(()) }\n\
             fn gemm() -> Result<(), E> { Ok(()) }\n\
             fn g(col: &mut [f64]) { col.fill(0.0); let call = BlasCall::gemm(48); }\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
