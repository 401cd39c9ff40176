//! `atomics-ordering`: memory-ordering discipline for atomic accesses.
//!
//! Accesses are grouped per atomic symbol — globally when the declaration
//! is unique workspace-wide, per file otherwise (two different modules
//! each own an `ACTIVE` flag). Per group:
//!
//! * **pure `Relaxed`** — a counter; always clean.
//! * **mixed** — every `Relaxed` site fires unless the group is one of
//!   the allowlisted disabled-path gates ([`ALLOWED_GATES`]) or carries a
//!   reasoned suppression. A site whose call names both `Relaxed` and a
//!   stronger ordering (compare-exchange failure orderings) does not count
//!   as a Relaxed site.
//! * **pairing** — a `Release` store with no `Acquire`/`SeqCst` load in
//!   the group (or the reverse) fires once at the unpaired site. Only
//!   checked when the group shows both loads and stores (one-sided groups
//!   may synchronize through an alias this analysis can't see), and
//!   skipped when a mixed finding already covers the group — fixing the
//!   Relaxed site resolves both.

use super::Symbols;
use crate::ast::{collect_fns, fn_exprs, walk_expr, Expr, ExprKind};
use crate::rules::{FileUnit, Finding};
use std::collections::BTreeMap;

/// Disabled-path fast gates: `(file, symbol)` groups that deliberately
/// publish with `Release` and poll with `Relaxed`. The flag is monotonic
/// per enable/disable cycle and the consumers tolerate a stale read by
/// design (a late-enabled trace loses at most the spans already in
/// flight), so the cheap load keeps the disabled path at zero cost.
const ALLOWED_GATES: [(&str, &str); 2] = [
    ("crates/blas/src/trace.rs", "ACTIVE"),
    ("crates/blas/src/fault.rs", "ACTIVE"),
];

/// Atomic methods and whether they read, write, or both.
const METHODS: [(&str, bool, bool); 11] = [
    ("load", true, false),
    ("store", false, true),
    ("swap", true, true),
    ("fetch_add", true, true),
    ("fetch_sub", true, true),
    ("fetch_and", true, true),
    ("fetch_or", true, true),
    ("fetch_xor", true, true),
    ("fetch_update", true, true),
    ("compare_exchange", true, true),
    ("compare_exchange_weak", true, true),
];

const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

#[derive(Debug)]
struct Site {
    file: String,
    symbol: String,
    line: usize,
    is_load: bool,
    is_store: bool,
    orderings: Vec<&'static str>,
}

impl Site {
    /// The site uses only `Relaxed` (a failure ordering next to a stronger
    /// success ordering doesn't make a site "relaxed").
    fn relaxed_only(&self) -> bool {
        !self.orderings.is_empty() && self.orderings.iter().all(|o| *o == "Relaxed")
    }

    fn has(&self, which: &[&str]) -> bool {
        self.orderings.iter().any(|o| which.contains(o))
    }
}

/// Extracts the ordering names mentioned anywhere in a call's arguments.
fn orderings_in(args: &[Expr]) -> Vec<&'static str> {
    let mut out = Vec::new();
    for a in args {
        walk_expr(a, &mut |e| {
            if let ExprKind::Path(p) = &e.kind {
                if let Some(last) = p.last() {
                    let qualified_ok =
                        p.len() == 1 || p.get(p.len() - 2).is_some_and(|s| s == "Ordering");
                    if qualified_ok {
                        if let Some(o) = ORDERINGS.iter().find(|o| *o == last) {
                            out.push(*o);
                        }
                    }
                }
            }
        });
    }
    out
}

fn collect_sites(units: &[FileUnit]) -> Vec<Site> {
    let mut sites = Vec::new();
    for u in units {
        if super::skip_file(u) {
            continue;
        }
        for f in collect_fns(&u.ast.items) {
            if super::in_test_region(&u.test_regions, f.line) {
                continue;
            }
            for e in fn_exprs(f) {
                walk_expr(e, &mut |x| {
                    let ExprKind::MethodCall { recv, method, args } = &x.kind else {
                        return;
                    };
                    let Some(&(_, is_load, is_store)) =
                        METHODS.iter().find(|(m, _, _)| m == method)
                    else {
                        return;
                    };
                    let orderings = orderings_in(args);
                    // a matching method with no ordering argument is not an
                    // atomic access (e.g. HashMap::load would be, well, odd,
                    // but Vec-like `swap(i, j)` is real)
                    if orderings.is_empty() {
                        return;
                    }
                    let Some(symbol) = recv.receiver_symbol() else {
                        return;
                    };
                    sites.push(Site {
                        file: u.path.clone(),
                        symbol,
                        line: x.line,
                        is_load,
                        is_store,
                        orderings,
                    });
                });
            }
        }
    }
    sites
}

/// Runs the analysis over all units.
pub fn check(units: &[FileUnit], syms: &Symbols) -> Vec<Finding> {
    let sites = collect_sites(units);
    // group: globally by name when the declaration is unique, else per file
    let mut groups: BTreeMap<(String, String), Vec<&Site>> = BTreeMap::new();
    for s in &sites {
        let unique = syms.atomic_decls.get(&s.symbol).copied().unwrap_or(0) == 1;
        let key = if unique {
            (String::new(), s.symbol.clone())
        } else {
            (s.file.clone(), s.symbol.clone())
        };
        groups.entry(key).or_default().push(s);
    }
    let mut findings = Vec::new();
    for ((_, symbol), group) in &groups {
        if group
            .iter()
            .any(|s| ALLOWED_GATES.contains(&(s.file.as_str(), s.symbol.as_str())))
        {
            continue;
        }
        let relaxed_sites: Vec<&&Site> = group.iter().filter(|s| s.relaxed_only()).collect();
        let strong = ["Acquire", "Release", "AcqRel", "SeqCst"];
        let has_strong = group.iter().any(|s| s.has(&strong));
        let mut mixed = false;
        if has_strong {
            for s in &relaxed_sites {
                mixed = true;
                findings.push(Finding::new(
                    "atomics-ordering",
                    &s.file,
                    s.line,
                    format!(
                        "atomic `{symbol}` mixes `Relaxed` here with release/acquire \
                         orderings elsewhere — use the stronger ordering, or add a \
                         reasoned suppression if this is a deliberate disabled-path gate"
                    ),
                ));
            }
        }
        if mixed {
            continue;
        }
        // pairing: only judged when both sides of the protocol are visible
        let loads: Vec<&&Site> = group.iter().filter(|s| s.is_load).collect();
        let stores: Vec<&&Site> = group.iter().filter(|s| s.is_store).collect();
        if loads.is_empty() || stores.is_empty() {
            continue;
        }
        let release_store = stores
            .iter()
            .find(|s| s.has(&["Release", "AcqRel", "SeqCst"]));
        let acquire_load = loads
            .iter()
            .find(|s| s.has(&["Acquire", "AcqRel", "SeqCst"]));
        match (release_store, acquire_load) {
            (Some(st), None) => findings.push(Finding::new(
                "atomics-ordering",
                &st.file,
                st.line,
                format!(
                    "atomic `{symbol}` is stored with `Release` but no load of it uses \
                     `Acquire`/`SeqCst` — the release has nothing to pair with"
                ),
            )),
            (None, Some(ld)) => findings.push(Finding::new(
                "atomics-ordering",
                &ld.file,
                ld.line,
                format!(
                    "atomic `{symbol}` is loaded with `Acquire` but no store of it uses \
                     `Release`/`SeqCst` — the acquire has nothing to pair with"
                ),
            )),
            _ => {}
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
    fn pure_relaxed_counter_is_clean() {
        let f = run(&[(
            "crates/core/src/c.rs",
            "static HITS: AtomicU64 = AtomicU64::new(0);\n\
             fn bump() { HITS.fetch_add(1, Ordering::Relaxed); }\n\
             fn read() -> u64 { HITS.load(Ordering::Relaxed) }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn mixed_relaxed_fires_at_the_relaxed_site() {
        let f = run(&[(
            "crates/core/src/c.rs",
            "static FLAG: AtomicBool = AtomicBool::new(false);\n\
             fn on() { FLAG.store(true, Ordering::Release); }\n\
             fn hot() -> bool { FLAG.load(Ordering::Relaxed) }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "atomics-ordering");
        assert_eq!(f[0].line, 3, "fires at the Relaxed load");
        assert!(f[0].message.contains("mixes `Relaxed`"));
    }

    #[test]
    fn allowlisted_gate_is_exempt() {
        let f = run(&[(
            "crates/blas/src/trace.rs",
            "static ACTIVE: AtomicBool = AtomicBool::new(false);\n\
             fn on() { ACTIVE.store(true, Ordering::Release); }\n\
             fn hot() -> bool { ACTIVE.load(Ordering::Relaxed) }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unpaired_release_store_fires() {
        let f = run(&[(
            "crates/core/src/c.rs",
            "static READY: AtomicBool = AtomicBool::new(false);\n\
             fn publish() { READY.store(true, Ordering::Release); }\n\
             fn wrong() -> bool { READY.load(Ordering::Acquire) }\n\
             fn ok() {}\n",
        )]);
        assert!(f.is_empty(), "Release + Acquire pair is clean: {f:?}");
        let f = run(&[(
            "crates/core/src/c.rs",
            "static A: AtomicBool = AtomicBool::new(false);\n\
             static B: AtomicU32 = AtomicU32::new(0);\n\
             fn publish() { B.store(1, Ordering::Relaxed); A.store(true, Ordering::Release); }\n\
             fn consume() -> u32 { if A.load(Ordering::SeqCst) { B.load(Ordering::Relaxed) } else { 0 } }\n",
        )]);
        assert!(f.is_empty(), "SeqCst load pairs with Release: {f:?}");
    }

    #[test]
    fn release_with_only_relaxed_loads_reports_once() {
        // the mixed finding covers it; no extra pairing finding
        let f = run(&[(
            "crates/blas/src/g.rs",
            "static GATE: AtomicBool = AtomicBool::new(false);\n\
             fn on() { GATE.store(true, Ordering::Release); }\n\
             fn hot() -> bool { GATE.load(Ordering::Relaxed) }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn cross_file_grouping_via_unique_declaration() {
        let f = run(&[
            (
                "crates/core/src/decl.rs",
                "static SHARED: AtomicBool = AtomicBool::new(false);\n\
                 pub fn publish() { SHARED.store(true, Ordering::Release); }\n",
            ),
            (
                "crates/serve/src/user.rs",
                "fn poll() -> bool { SHARED.load(Ordering::Relaxed) }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "mixed across files: {f:?}");
        assert_eq!(f[0].path, "crates/serve/src/user.rs");
    }

    #[test]
    fn compare_exchange_failure_ordering_is_not_a_relaxed_site() {
        let f = run(&[(
            "crates/core/src/c.rs",
            "static S: AtomicU32 = AtomicU32::new(0);\n\
             fn cas() { let _ = S.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed); }\n\
             fn read() -> u32 { S.load(Ordering::Acquire) }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_regions_are_skipped() {
        let f = run(&[(
            "crates/core/src/c.rs",
            "static F: AtomicBool = AtomicBool::new(false);\n\
             fn on() { F.store(true, Ordering::Release); }\n\
             fn off() -> bool { F.load(Ordering::Acquire) }\n\
             #[cfg(test)]\nmod tests {\n    fn t() -> bool { F.load(Ordering::Relaxed) }\n}\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
