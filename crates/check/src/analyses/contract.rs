//! `contract-guard`, rebuilt on the parser: public kernel entry points
//! must validate the call contract before touching any slice.
//!
//! The facts per function — position of the first direct validation
//! (`contract::…` or a `check_*` call), position of the first slice
//! index, and every call made — now come from the AST (token-index
//! spans give the ordering), instead of a token scan. The guardedness
//! fixpoint and the three violation messages are unchanged: a function
//! is guarding if it validates directly, or calls another guarding
//! function before its first index (delegation).

use crate::ast::{collect_fns, fn_exprs, walk_expr, ExprKind, FnItem};
use crate::rules::{Context, FileUnit, Finding};

/// One function's guard-relevant facts. Positions are token indices, so
/// "before" is a plain `<` comparison.
#[derive(Debug)]
pub struct FnFacts {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Declared `pub` (bare, not `pub(crate)`).
    pub is_pub: bool,
    /// Return type mentions `ContractError`.
    pub mentions_contract_error: bool,
    /// Position of the first direct `contract::…`/`check_*` call.
    pub direct_check_at: Option<usize>,
    /// Position of the first slice/array indexing expression.
    pub first_index_at: Option<usize>,
    /// `(callee name, position)` of every call in the body.
    pub calls: Vec<(String, usize)>,
}

fn facts_of(f: &FnItem) -> FnFacts {
    let mut direct: Option<usize> = None;
    let mut index: Option<usize> = None;
    let mut calls = Vec::new();
    let min = |slot: &mut Option<usize>, at: usize| {
        if slot.map(|v| at < v).unwrap_or(true) {
            *slot = Some(at);
        }
    };
    for top in fn_exprs(f) {
        walk_expr(top, &mut |e| {
            let at = e.span.lo;
            match &e.kind {
                ExprKind::Call { callee, .. } => {
                    if let Some(p) = callee.as_path() {
                        let name = p.last().cloned().unwrap_or_default();
                        let via_module = p.len() >= 2 && p[p.len() - 2] == "contract";
                        if via_module || name.starts_with("check_") {
                            min(&mut direct, at);
                        }
                        calls.push((name, at));
                    }
                }
                ExprKind::MethodCall { method, .. } => {
                    if method.starts_with("check_") {
                        min(&mut direct, at);
                    }
                    calls.push((method.clone(), at));
                }
                ExprKind::Index { .. } => min(&mut index, at),
                _ => {}
            }
        });
    }
    FnFacts {
        name: f.name.clone(),
        line: f.line,
        is_pub: f.is_pub,
        mentions_contract_error: f.ret_contract_error,
        direct_check_at: direct,
        first_index_at: index,
        calls,
    }
}

/// Extracts guard facts for every non-test function of a file.
pub fn fn_facts(u: &FileUnit) -> Vec<FnFacts> {
    collect_fns(&u.ast.items)
        .into_iter()
        .filter(|f| !super::in_test_region(&u.test_regions, f.line))
        .map(facts_of)
        .collect()
}

/// The guardedness fixpoint: seed with direct validators, then absorb
/// delegating wrappers (a call to a guarded function before the first
/// index — or anywhere, when the wrapper never indexes itself).
pub fn fixpoint(all: &[FnFacts]) -> Context {
    let mut guarded: Vec<String> = all
        .iter()
        .filter(|f| f.direct_check_at.is_some())
        .map(|f| f.name.clone())
        .collect();
    loop {
        let before = guarded.len();
        for f in all {
            if guarded.contains(&f.name) {
                continue;
            }
            let delegates = f.calls.iter().any(|(callee, at)| {
                guarded.contains(callee) && f.first_index_at.map(|idx| *at < idx).unwrap_or(true)
            });
            if delegates {
                guarded.push(f.name.clone());
            }
        }
        if guarded.len() == before {
            break;
        }
    }
    Context {
        guarded_fns: guarded,
    }
}

/// Checks one guarded kernel file against the workspace [`Context`].
pub fn check(u: &FileUnit, ctx: &Context) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in fn_facts(u) {
        if !f.is_pub {
            continue;
        }
        let first_guard = f
            .direct_check_at
            .into_iter()
            .chain(
                f.calls
                    .iter()
                    .filter(|(name, _)| ctx.guarded_fns.contains(name))
                    .map(|&(_, at)| at),
            )
            .min();
        let violation = match (first_guard, f.first_index_at) {
            (None, Some(_)) => Some("indexes a slice without validating the call contract"),
            (Some(g), Some(ix)) if g > ix => {
                Some("indexes a slice before validating the call contract")
            }
            (None, None) if f.mentions_contract_error => {
                Some("returns ContractError but never validates the call contract")
            }
            _ => None,
        };
        if let Some(why) = violation {
            findings.push(Finding::new(
                "contract-guard",
                &u.path,
                f.line,
                format!("pub fn `{}` {}", f.name, why),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(src: &str) -> FileUnit {
        FileUnit::build("crates/blas/src/gemm.rs", src)
    }

    #[test]
    fn facts_order_guard_before_index() {
        let u = unit(
            "pub fn kernel(a: &[f64]) -> Result<f64, ContractError> {\n\
             contract::check_vector(\"a\", a.len(), 1, 1)?;\n\
             Ok(a[0])\n\
             }\n",
        );
        let facts = fn_facts(&u);
        assert_eq!(facts.len(), 1);
        let f = &facts[0];
        assert!(f.is_pub && f.mentions_contract_error);
        let (g, ix) = (f.direct_check_at.unwrap(), f.first_index_at.unwrap());
        assert!(g < ix, "guard at {g}, index at {ix}");
    }

    #[test]
    fn delegation_fixpoint_closes_over_wrappers() {
        let u = unit(
            "pub fn inner(a: &[f64]) -> Result<f64, ContractError> {\n\
             contract::check_vector(\"a\", a.len(), 1, 1)?;\n\
             Ok(a[0])\n\
             }\n\
             pub fn outer(a: &[f64]) -> Result<f64, ContractError> { inner(a) }\n\
             pub fn outer2(a: &[f64]) -> Result<f64, ContractError> { outer(a) }\n",
        );
        let ctx = fixpoint(&fn_facts(&u));
        for name in ["inner", "outer", "outer2"] {
            assert!(ctx.guarded_fns.iter().any(|g| g == name), "{name}");
        }
        assert!(check(&u, &ctx).is_empty());
    }

    #[test]
    fn index_inside_a_closure_still_counts() {
        let u = unit(
            "pub fn kernel(a: &[f64]) -> f64 {\n\
             let f = |i: usize| a[i];\n\
             f(0)\n\
             }\n",
        );
        let f = check(&u, &Context::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("without validating"));
    }
}
