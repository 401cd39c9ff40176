//! End-to-end tests for the `blob-check` binary: a seeded violation must
//! fail with machine-readable findings, and the real workspace must be
//! clean.

use blob_core::wire::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The workspace root (two levels above this crate's manifest).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/check sits two levels under the workspace root")
        .to_path_buf()
}

/// Runs the compiled `blob-check` binary with `args`.
fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_blob-check"))
        .args(args)
        .output()
        .expect("blob-check binary runs")
}

/// The `(rule, path, message)` of every finding in `--json` output.
fn json_findings(stdout: &str) -> Vec<(String, String, String)> {
    let Ok(Json::Arr(items)) = Json::parse(stdout) else {
        panic!("--json prints one array: {stdout}");
    };
    items
        .iter()
        .map(|f| {
            let field = |name: &str| {
                f.get(name)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("finding without `{name}`: {stdout}"))
                    .to_string()
            };
            (field("rule"), field("path"), field("message"))
        })
        .collect()
}

/// A scratch workspace on disk, removed on drop.
struct ScratchRepo {
    root: PathBuf,
}

impl ScratchRepo {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("blob-check-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scratch root");
        std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
        Self { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file path has a parent"))
            .expect("create parent dirs");
        std::fs::write(path, text).expect("write scratch file");
    }

    fn root_arg(&self) -> String {
        self.root.display().to_string()
    }
}

impl Drop for ScratchRepo {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_workspace_is_clean() {
    let root = repo_root();
    let out = run(&["--root", &root.display().to_string()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "repo must be clean, got:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("files clean"), "got: {stdout}");
}

#[test]
fn seeded_violation_fails_with_json_findings() {
    let repo = ScratchRepo::new("seeded");
    // library code with an unwrap and an unsafe block: two rules must fire
    repo.write(
        "crates/demo/src/lib.rs",
        concat!(
            "pub fn first(xs: &[u32]) -> u32 {\n",
            "    let head = xs.first().unwrap();\n",
            "    unsafe { std::ptr::read(head) }\n",
            "}\n"
        ),
    );
    let out = run(&["--root", &repo.root_arg(), "--json"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings must exit 1, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let keys = json_findings(&stdout);
    let rules: Vec<&str> = keys.iter().map(|(r, _, _)| r.as_str()).collect();
    assert!(rules.contains(&"no-unwrap-in-lib"), "json was: {stdout}");
    assert!(rules.contains(&"no-unsafe"), "json was: {stdout}");
    assert!(
        keys.iter().all(|(_, p, _)| p == "crates/demo/src/lib.rs"),
        "paths are repo-relative: {stdout}"
    );
}

#[test]
fn unguarded_kernel_trips_contract_guard() {
    let repo = ScratchRepo::new("guard");
    // a public kernel entry point that indexes its slice without calling
    // the contract validator first
    repo.write(
        "crates/blas/src/gemm.rs",
        concat!(
            "/// Unguarded kernel.\n",
            "pub fn gemm_rogue(a: &[f64]) -> f64 {\n",
            "    a[0]\n",
            "}\n"
        ),
    );
    let out = run(&["--root", &repo.root_arg(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let keys = json_findings(&stdout);
    assert!(
        keys.iter()
            .any(|(r, _, m)| *r == "contract-guard" && m.contains("gemm_rogue")),
        "json was: {stdout}"
    );
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let repo = ScratchRepo::new("bare-allow");
    repo.write(
        "crates/demo/src/lib.rs",
        concat!(
            "pub fn first(xs: &[u32]) -> u32 {\n",
            "    // blob-check: allow(no-unwrap-in-lib)\n",
            "    *xs.first().unwrap()\n",
            "}\n"
        ),
    );
    let out = run(&["--root", &repo.root_arg(), "--json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let keys = json_findings(&stdout);
    assert!(
        keys.iter().any(|(r, _, _)| *r == "suppression"),
        "bare allow must be reported: {stdout}"
    );
}

#[test]
fn list_rules_names_the_catalogue() {
    let out = run(&["--list-rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "no-unsafe",
        "no-unwrap-in-lib",
        "no-float-eq",
        "pub-item-docs",
        "contract-guard",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in: {stdout}");
    }
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}
