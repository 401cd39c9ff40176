//! The semantic analyses built on the parser/CFG/dataflow stack.
//!
//! Each submodule is one rule; they all consume [`crate::rules::FileUnit`]
//! artifacts (token stream + AST + test regions, parsed once per file) and
//! emit the same [`crate::rules::Finding`] shape as the token-level rules,
//! so suppressions and `--json` compose identically.
//!
//! [`Symbols`] is the shared cross-file table: atomic declarations (for
//! grouping accesses to the same atomic across files), `RwLock`
//! declarations (so `.read()`/`.write()` are only treated as lock
//! acquisitions on actual locks), and the names of workspace functions
//! returning `Result` (the drop-on-path universe).

pub mod atomics;
pub mod balance;
pub mod contract;
pub mod drop_result;
pub mod locks;

use crate::ast::Item;
use crate::cfg::CallRef;
use crate::lexer::TokenKind;
use crate::rules::FileUnit;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Cross-file symbol table computed once per run over all [`FileUnit`]s.
#[derive(Debug, Default)]
pub struct Symbols {
    /// How many times each atomic name is declared workspace-wide
    /// (`static NAME: AtomicX` or `name: AtomicX` fields). A unique name
    /// groups globally; duplicates group per file.
    pub atomic_decls: HashMap<String, usize>,
    /// Names declared with a `RwLock<…>` type.
    pub rwlocks: HashSet<String>,
    /// Workspace *free* functions whose return type mentions `Result`,
    /// keyed by bare name, with where each lives — so a call site only
    /// matches when its qualifier (or file, for bare calls) agrees.
    /// Methods are excluded: receiver types are unknown here, and a
    /// method name colliding with a free function (`Matrix::fill` vs a
    /// fallible `fill`) must not alias.
    pub result_fns: HashMap<String, FnOrigins>,
}

/// Where a `Result`-returning free function is defined.
#[derive(Debug, Default)]
pub struct FnOrigins {
    /// Module stems of the defining files (`fault` for
    /// `crates/core/src/fault.rs`) — what a qualified call spells.
    pub modules: BTreeSet<String>,
    /// Full workspace-relative paths of the defining files — what a bare
    /// call can see without an import.
    pub files: BTreeSet<String>,
}

impl Symbols {
    /// Scans every unit's tokens and AST for the declarations above.
    pub fn build(units: &[FileUnit]) -> Symbols {
        let mut s = Symbols::default();
        for u in units {
            // token-level declaration scan: `name : AtomicX` / `name : RwLock`
            // (covers statics, struct fields, and thread_local! bodies alike)
            for w in u.code.windows(3) {
                if w[0].kind == TokenKind::Ident && w[1].text == ":" {
                    if w[2].text.starts_with("Atomic") {
                        *s.atomic_decls.entry(w[0].text.clone()).or_insert(0) += 1;
                    } else if w[2].text == "RwLock" {
                        s.rwlocks.insert(w[0].text.clone());
                    }
                }
            }
            let module = module_stem(&u.path);
            let mut stack: Vec<&Item> = u.ast.items.iter().rev().collect();
            while let Some(item) = stack.pop() {
                match item {
                    Item::Fn(f) if f.ret_result => {
                        let o = s.result_fns.entry(f.name.clone()).or_default();
                        o.modules.insert(module.to_string());
                        o.files.insert(u.path.clone());
                    }
                    // free fns only: do not descend into `impl` blocks —
                    // methods resolve through a receiver we cannot type
                    Item::Mod { items, .. } => stack.extend(items.iter().rev()),
                    _ => {}
                }
            }
        }
        s
    }

    /// True when `call` resolves to a workspace `Result`-returning free
    /// function as seen from `file`: a qualified call must spell the
    /// defining module (`fault::point` matches only the `point` in
    /// `fault.rs`, not the infallible `perturb::point`), a bare call must
    /// be in the defining file itself, and method calls and associated
    /// functions (`BlasCall::gemm`) never match.
    pub fn is_result_call(&self, call: &CallRef, file: &str) -> bool {
        if call.method {
            return false;
        }
        let Some(o) = self.result_fns.get(call.name()) else {
            return false;
        };
        match call.qualifier() {
            None => o.files.contains(file),
            Some(q) => {
                // an uppercase qualifier is a type: `Type::assoc`, a
                // different namespace than the module's free functions
                q.starts_with(|c: char| c.is_lowercase()) && o.modules.contains(q)
            }
        }
    }
}

/// The module a file's free functions are addressed by: the file stem,
/// with `mod.rs` falling back to its directory name.
fn module_stem(path: &str) -> &str {
    let stem = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if stem != "mod" {
        return stem;
    }
    let mut it = path.rsplit('/');
    it.next();
    it.next().unwrap_or(stem)
}

/// True when `line` falls inside one of a unit's test-only regions
/// ([`FileUnit::test_regions`]).
pub(crate) fn in_test_region(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// True when the file should be skipped by the semantic analyses entirely:
/// integration tests, benches, and examples exercise error paths and
/// serialize with guard locks in ways the production rules don't model.
pub(crate) fn skip_file(u: &FileUnit) -> bool {
    u.class.is_test_like
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> FileUnit {
        FileUnit::build(path, src)
    }

    #[test]
    fn symbols_collects_declarations() {
        let a = unit(
            "crates/core/src/a.rs",
            "static ACTIVE: AtomicBool = AtomicBool::new(false);\n\
             struct S { jobs: Mutex<u32>, table: RwLock<u32> }\n\
             fn f() -> Result<(), E> { Ok(()) }\n\
             fn g() -> u32 { 3 }\n",
        );
        let b = unit(
            "crates/blas/src/b.rs",
            "static ACTIVE: AtomicBool = AtomicBool::new(false);\n\
             static SEED: AtomicU64 = AtomicU64::new(0);\n",
        );
        let s = Symbols::build(&[a, b]);
        assert_eq!(s.atomic_decls.get("ACTIVE"), Some(&2));
        assert_eq!(s.atomic_decls.get("SEED"), Some(&1));
        assert!(s.rwlocks.contains("table"));
        assert!(!s.rwlocks.contains("jobs"));
        let f = s.result_fns.get("f").expect("f is fallible");
        assert!(f.modules.contains("a"));
        assert!(f.files.contains("crates/core/src/a.rs"));
        assert!(!s.result_fns.contains_key("g"));
    }

    #[test]
    fn result_call_resolution_is_module_qualified() {
        let u = unit(
            "crates/core/src/fault.rs",
            "pub fn point(site: &str) -> Result<(), E> { Ok(()) }\n\
             impl Call { pub fn gemm(n: usize) -> Result<Call, E> { Err(E) } }\n",
        );
        let s = Symbols::build(&[u]);
        let call = |path: &str, method: bool| CallRef {
            path: path.to_string(),
            method,
        };
        // qualified call spelling the defining module
        assert!(s.is_result_call(&call("fault::point", false), "crates/blas/src/pool.rs"));
        // same name, different module: the infallible twin
        assert!(!s.is_result_call(&call("perturb::point", false), "crates/blas/src/pool.rs"));
        // bare call resolves only inside the defining file
        assert!(s.is_result_call(&call("point", false), "crates/core/src/fault.rs"));
        assert!(!s.is_result_call(&call("point", false), "crates/blas/src/pool.rs"));
        // methods and associated functions never alias free functions
        assert!(!s.is_result_call(&call("point", true), "crates/core/src/fault.rs"));
        assert!(!s.is_result_call(&call("Call::gemm", false), "crates/core/src/fault.rs"));
    }

    #[test]
    fn module_stem_handles_mod_rs() {
        assert_eq!(module_stem("crates/core/src/fault.rs"), "fault");
        assert_eq!(module_stem("crates/core/src/fault/mod.rs"), "fault");
    }
}
