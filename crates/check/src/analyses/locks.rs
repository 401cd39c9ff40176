//! `lock-discipline`: a workspace-wide lock-order graph plus two local
//! hazards.
//!
//! Guard scopes are tracked by an AST walk per function: a `let g = …lock…`
//! holds until the end of its block (or an explicit `drop(g)`); a
//! temporary acquisition (`lock(&x).field.op()`) holds for the rest of the
//! statement it appears in — which makes `for w in lock(&x).drain(..)`
//! correctly hold across the loop body. Closure bodies are walked with a
//! fresh (empty) held-set: they run later, on whichever thread executes
//! them.
//!
//! Lock identity: `UPPERCASE` names are statics and global; anything else
//! is a struct field or local, qualified by crate so `workers` in
//! `blob-blas` and `workers` in `blob-serve` never alias.
//!
//! Findings:
//! * **self-deadlock** — acquiring a lock while a guard for the same lock
//!   is already held (a non-reentrant `Mutex` blocks forever).
//! * **order cycle** — `A` held while taking `B` in one place and `B`
//!   while taking `A` in another (any cycle length); reported once per
//!   cycle at the edge that closes it.
//! * **held across dispatch** — any guard held across
//!   `pool::run_scoped`/`parallel_for` or a batch `submit`/`wait`: pool
//!   jobs run on caller *and* worker threads, so a job that needs the
//!   same lock deadlocks the batch. `pool.rs` itself is exempt (it *is*
//!   the dispatch layer and owns the ordering proof).

use super::Symbols;
use crate::ast::{collect_fns, Block, Expr, ExprKind, Stmt};
use crate::rules::{FileUnit, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// The dispatch layer itself may hold its queue locks around worker
/// management — its ordering is the thing the rule protects elsewhere.
const EXEMPT_FILES: [&str; 1] = ["crates/blas/src/pool.rs"];

#[derive(Debug, Clone)]
struct Held {
    /// Qualified lock symbol.
    sym: String,
    /// Display name (unqualified), for messages.
    show: String,
    /// Variable the guard is bound to, when `let`-bound.
    var: Option<String>,
    /// Acquisition line.
    line: usize,
}

/// One directed edge `held → acquired` with its first witness site.
type Edges = BTreeMap<(String, String), (String, usize, String, String)>;

struct Walker<'a> {
    file: &'a str,
    crate_tag: String,
    rwlocks: &'a std::collections::HashSet<String>,
    test_regions: &'a [(usize, usize)],
    exempt_dispatch: bool,
    held: Vec<Held>,
    edges: &'a mut Edges,
    findings: &'a mut Vec<Finding>,
}

/// Detects a lock acquisition expression and returns `(symbol, line)`.
/// Matches `.lock()` (with or without `.unwrap*`/`.expect` adapters),
/// `lock_ignore_poison(&x)` / `Type::lock(&x)` calls, and `.read()` /
/// `.write()` on names declared as `RwLock`s.
fn acquisition(e: &Expr, rwlocks: &std::collections::HashSet<String>) -> Option<(String, usize)> {
    match &e.kind {
        ExprKind::MethodCall { recv, method, .. } => match method.as_str() {
            "lock" => recv.receiver_symbol().map(|s| (s, e.line)),
            "read" | "write" => recv
                .receiver_symbol()
                .filter(|s| rwlocks.contains(s))
                .map(|s| (s, e.line)),
            "unwrap" | "expect" | "unwrap_or_else" => acquisition(recv, rwlocks),
            _ => None,
        },
        ExprKind::Call { callee, args } => {
            let last = callee.as_path().and_then(|p| p.last())?;
            if last == "lock" || last == "lock_ignore_poison" {
                args.first()
                    .and_then(Expr::receiver_symbol)
                    .map(|s| (s, e.line))
            } else {
                None
            }
        }
        ExprKind::Try(inner) | ExprKind::Unary(inner) => acquisition(inner, rwlocks),
        _ => None,
    }
}

/// A call that hands work to the thread pool.
fn is_dispatch(e: &Expr) -> Option<&'static str> {
    match &e.kind {
        ExprKind::Call { callee, .. } => {
            let p = callee.as_path()?;
            match p.last().map(String::as_str) {
                Some("run_scoped") => Some("pool::run_scoped"),
                Some("parallel_for") => Some("pool::parallel_for"),
                _ => None,
            }
        }
        ExprKind::MethodCall { recv, method, .. } => {
            let batchish = recv
                .receiver_symbol()
                .is_some_and(|s| s.to_ascii_lowercase().contains("batch"));
            match method.as_str() {
                "run_scoped" => Some("pool::run_scoped"),
                "parallel_for" => Some("pool::parallel_for"),
                "submit" | "wait" if batchish => Some("batch submit/wait"),
                _ => None,
            }
        }
        _ => None,
    }
}

impl Walker<'_> {
    fn qualify(&self, name: &str) -> (String, String) {
        let is_static = name.chars().all(|c| c.is_ascii_uppercase() || c == '_');
        let q = if is_static {
            name.to_string()
        } else {
            format!("{}::{}", self.crate_tag, name)
        };
        (q, name.to_string())
    }

    fn note_acquire(&mut self, name: &str, line: usize) {
        if super::in_test_region(self.test_regions, line) {
            return;
        }
        let (sym, show) = self.qualify(name);
        for h in &self.held {
            if h.sym == sym {
                self.findings.push(Finding::new(
                    "lock-discipline",
                    self.file,
                    line,
                    format!(
                        "lock `{show}` is acquired while a guard for it is already \
                         held (taken at line {}) — a non-reentrant Mutex self-deadlocks",
                        h.line
                    ),
                ));
                return;
            }
            self.edges
                .entry((h.sym.clone(), sym.clone()))
                .or_insert_with(|| (self.file.to_string(), line, h.show.clone(), show.clone()));
        }
    }

    fn walk_block(&mut self, b: &Block) {
        let base = self.held.len();
        for s in &b.stmts {
            match s {
                Stmt::Let {
                    name,
                    init,
                    else_block,
                    line,
                    ..
                } => {
                    if let Some(e) = init {
                        if let Some((sym, at)) = acquisition(e, self.rwlocks) {
                            self.note_acquire(&sym, at);
                            let (q, show) = self.qualify(&sym);
                            self.held.push(Held {
                                sym: q,
                                show,
                                var: name.clone(),
                                line: *line,
                            });
                        } else {
                            let before = self.held.len();
                            self.walk_expr(e);
                            self.held.truncate(before.min(self.held.len()));
                        }
                    }
                    if let Some(eb) = else_block {
                        self.walk_block(eb);
                    }
                }
                Stmt::Expr { expr, .. } => {
                    // `drop(g)` releases a let-bound guard early
                    if let ExprKind::Call { callee, args } = &expr.kind {
                        let is_drop = callee
                            .as_path()
                            .and_then(|p| p.last())
                            .is_some_and(|n| n == "drop");
                        if is_drop {
                            if let Some(v) = args.first().and_then(Expr::receiver_symbol) {
                                self.held.retain(|h| h.var.as_deref() != Some(v.as_str()));
                                continue;
                            }
                        }
                    }
                    let before = self.held.len();
                    self.walk_expr(expr);
                    self.held.truncate(before.min(self.held.len()));
                }
                Stmt::Item(_) => {}
            }
        }
        self.held.truncate(base.min(self.held.len()));
    }

    fn walk_expr(&mut self, e: &Expr) {
        if let Some(what) = is_dispatch(e) {
            if !self.exempt_dispatch && !super::in_test_region(self.test_regions, e.line) {
                if let Some(h) = self.held.first() {
                    self.findings.push(Finding::new(
                        "lock-discipline",
                        self.file,
                        e.line,
                        format!(
                            "guard `{}` (acquired line {}) is held across `{what}` — \
                             pool jobs run on caller and worker threads and may need \
                             the same lock; release the guard before dispatching",
                            h.show, h.line
                        ),
                    ));
                }
            }
        }
        if let Some((sym, at)) = acquisition(e, self.rwlocks) {
            self.note_acquire(&sym, at);
            let (q, show) = self.qualify(&sym);
            // temporary guard: held for the rest of the enclosing statement
            self.held.push(Held {
                sym: q,
                show,
                var: None,
                line: at,
            });
            // don't descend: the receiver chain is the acquisition itself
            return;
        }
        match &e.kind {
            ExprKind::Closure { body, .. } => {
                // the closure runs later — its body starts with nothing held
                let saved = std::mem::take(&mut self.held);
                self.walk_expr(body);
                self.held = saved;
            }
            ExprKind::Block(b) => self.walk_block(b),
            ExprKind::If {
                cond,
                then_block,
                else_branch,
                ..
            } => {
                self.walk_expr(cond);
                self.walk_block(then_block);
                if let Some(eb) = else_branch {
                    self.walk_expr(eb);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                for a in arms {
                    if let Some(g) = &a.guard {
                        self.walk_expr(g);
                    }
                    self.walk_expr(&a.body);
                }
            }
            ExprKind::Loop { body } => self.walk_block(body),
            ExprKind::While { cond, body } => {
                self.walk_expr(cond);
                self.walk_block(body);
            }
            ExprKind::For { iter, body, .. } => {
                self.walk_expr(iter);
                self.walk_block(body);
            }
            _ => {
                for c in e.children() {
                    self.walk_expr(c);
                }
            }
        }
    }
}

/// Runs the analysis: per-file hazards immediately, the order graph at
/// the end.
pub fn check(units: &[FileUnit], syms: &Symbols) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: Edges = BTreeMap::new();
    for u in units {
        if super::skip_file(u) {
            continue;
        }
        let crate_tag = u
            .path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("root")
            .to_string();
        for f in collect_fns(&u.ast.items) {
            if super::in_test_region(&u.test_regions, f.line) {
                continue;
            }
            let mut w = Walker {
                file: &u.path,
                crate_tag: crate_tag.clone(),
                rwlocks: &syms.rwlocks,
                test_regions: &u.test_regions,
                exempt_dispatch: EXEMPT_FILES.contains(&u.path.as_str()),
                held: Vec::new(),
                edges: &mut edges,
                findings: &mut findings,
            };
            w.walk_block(&f.body);
        }
    }
    findings.extend(report_cycles(&edges));
    findings
}

/// Finds elementary cycles in the lock-order graph and reports each once,
/// at the witness of the edge that closes it.
fn report_cycles(edges: &Edges) -> Vec<Finding> {
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut findings = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&String> = adj.keys().copied().collect();
    for start in nodes {
        // DFS with an explicit path; small graphs, so the O(V·E) restart
        // per root is fine
        let mut path: Vec<&String> = vec![start];
        let mut stack: Vec<Vec<&String>> = vec![adj.get(start).cloned().unwrap_or_default()];
        while let Some(next) = stack.last_mut() {
            let Some(n) = next.pop() else {
                path.pop();
                stack.pop();
                continue;
            };
            if let Some(pos) = path.iter().position(|p| *p == n) {
                let cycle: Vec<String> = path[pos..].iter().map(|s| (*s).clone()).collect();
                let mut key = cycle.clone();
                key.sort();
                if reported.insert(key) {
                    let closing = (path[path.len() - 1].clone(), n.clone());
                    if let Some((file, line, from_show, to_show)) = edges.get(&closing) {
                        let shown: Vec<&str> = cycle
                            .iter()
                            .map(|s| s.rsplit("::").next().unwrap_or(s))
                            .collect();
                        findings.push(Finding::new(
                            "lock-discipline",
                            file,
                            *line,
                            format!(
                                "lock-order cycle {} → {}: `{}` is taken here while \
                                 `{}` is held, but elsewhere the order is reversed — \
                                 pick one global order",
                                shown.join(" → "),
                                shown[0],
                                to_show,
                                from_show,
                            ),
                        ));
                    }
                }
                continue;
            }
            if path.len() > 16 {
                continue; // depth bound; real lock chains are short
            }
            path.push(n);
            stack.push(adj.get(n).cloned().unwrap_or_default());
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let units: Vec<FileUnit> = files.iter().map(|(p, s)| FileUnit::build(p, s)).collect();
        let syms = Symbols::build(&units);
        check(&units, &syms)
    }

    #[test]
    fn consistent_order_is_clean() {
        let f = run(&[(
            "crates/core/src/a.rs",
            "fn f(s: &S) { let a = s.first.lock(); let b = s.second.lock(); use_them(a, b); }\n\
             fn g(s: &S) { let a = s.first.lock(); let b = s.second.lock(); use_them(a, b); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn two_lock_inversion_is_a_cycle() {
        let f = run(&[(
            "crates/core/src/a.rs",
            "fn f(s: &S) { let a = s.first.lock(); let b = s.second.lock(); use_them(a, b); }\n\
             fn g(s: &S) { let b = s.second.lock(); let a = s.first.lock(); use_them(a, b); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn three_lock_cycle_across_functions() {
        let f = run(&[(
            "crates/core/src/a.rs",
            "fn f() { let a = A.lock(); let b = B.lock(); go(a, b); }\n\
             fn g() { let b = B.lock(); let c = C.lock(); go(b, c); }\n\
             fn h() { let c = C.lock(); let a = A.lock(); go(c, a); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        let m = &f[0].message;
        assert!(m.contains("A") && m.contains("B") && m.contains("C"), "{m}");
    }

    #[test]
    fn self_deadlock_is_reported() {
        let f = run(&[(
            "crates/core/src/a.rs",
            "fn f() { let a = STATE.lock(); let b = STATE.lock(); go(a, b); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("self-deadlock"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let f = run(&[(
            "crates/core/src/a.rs",
            "fn f() { let a = A.lock(); use_it(&a); drop(a); let b = B.lock(); use_it(&b); }\n\
             fn g() { let b = B.lock(); use_it(&b); drop(b); let a = A.lock(); use_it(&a); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_held_across_dispatch_fires() {
        let f = run(&[(
            "crates/blas/src/gemm.rs",
            "fn f(jobs: Vec<J>) { let g = STATE.lock(); pool::run_scoped(jobs); use_it(g); }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("held across"));
        // pool.rs itself is exempt
        let f = run(&[(
            "crates/blas/src/pool.rs",
            "fn f(jobs: Vec<J>) { let g = STATE.lock(); pool::run_scoped(jobs); use_it(g); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dispatch_after_scope_ends_is_clean() {
        let f = run(&[(
            "crates/blas/src/gemm.rs",
            "fn f(jobs: Vec<J>) { { let g = STATE.lock(); prep(&g); } pool::run_scoped(jobs); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn closures_start_with_nothing_held() {
        let f = run(&[(
            "crates/blas/src/gemm.rs",
            "fn f(jobs: Vec<J>) { let g = STATE.lock(); let c = move || { pool::run_scoped(jobs); }; use_them(g, c); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn same_field_name_in_different_crates_does_not_alias() {
        let f = run(&[
            (
                "crates/blas/src/a.rs",
                "fn f(s: &S) { let a = s.workers.lock(); let b = s.state.lock(); go(a, b); }\n",
            ),
            (
                "crates/serve/src/b.rs",
                "fn g(s: &S) { let b = s.state.lock(); let a = s.workers.lock(); go(a, b); }\n",
            ),
        ]);
        assert!(f.is_empty(), "different crates, different locks: {f:?}");
    }

    #[test]
    fn temp_guard_in_for_iter_holds_across_body() {
        let f = run(&[(
            "crates/core/src/a.rs",
            "fn f() { for w in lock_ignore_poison(&WORKERS).drain(..) { let s = STATE.lock(); go(w, s); } }\n\
             fn g() { let s = STATE.lock(); let w = WORKERS.lock(); go(s, w); }\n",
        )]);
        assert_eq!(f.len(), 1, "WORKERS→STATE then STATE→WORKERS: {f:?}");
    }
}
