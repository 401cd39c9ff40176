//! The `blob-check` binary: run the workspace's static-analysis rules.
//!
//! ```text
//! cargo run -p blob-check                       # check, human output
//! cargo run -p blob-check -- --json             # machine-readable findings
//! cargo run -p blob-check -- --list-rules
//! cargo run -p blob-check -- --explain balance
//! cargo run -p blob-check -- --timing t.json --budget-ms 5000
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or budget exceeded), 2 usage/IO error.

use blob_check::{check_files, collect_sources, explain, find_workspace_root, to_json};
use blob_core::wire::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Default)]
struct Options {
    json: bool,
    root: Option<PathBuf>,
    list_rules: bool,
    explain: Option<String>,
    timing: Option<PathBuf>,
    budget_ms: Option<u64>,
}

const USAGE: &str = "usage: blob-check [--json] [--root DIR] [--list-rules] [--explain RULE] \
[--timing FILE] [--budget-ms N]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--list-rules" => opts.list_rules = true,
            "--explain" => opts.explain = Some(args.next().ok_or("--explain needs a rule name")?),
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ))
            }
            "--timing" => {
                opts.timing = Some(PathBuf::from(args.next().ok_or("--timing needs a file")?))
            }
            "--budget-ms" => {
                let raw = args.next().ok_or("--budget-ms needs a number")?;
                opts.budget_ms = Some(
                    raw.parse::<u64>()
                        .map_err(|_| format!("--budget-ms: `{raw}` is not a number"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one invocation; `Err` is a usage or IO error (exit code 2).
fn run(opts: Options) -> Result<ExitCode, String> {
    if let Some(rule) = &opts.explain {
        let text = explain::explain(rule).ok_or_else(|| {
            let names: Vec<&str> = explain::DOCS.iter().map(|d| d.name).collect();
            format!(
                "unknown rule `{rule}` — the catalogue:\n  {}",
                names.join("\n  ")
            )
        })?;
        print!("{text}");
        return Ok(ExitCode::SUCCESS);
    }
    if opts.list_rules {
        for d in &explain::DOCS {
            println!("{}  —  {}", d.name, d.scope);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = opts
        .root
        .or_else(|| find_workspace_root(&cwd))
        .ok_or_else(|| format!("error: no workspace root found above {}", cwd.display()))?;
    let started = Instant::now();
    let files = collect_sources(&root).map_err(|e| format!("error: {e}"))?;
    let n_files = files.len();
    let findings = check_files(&files);
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let within_budget = opts.budget_ms.map(|b| elapsed_ms <= b).unwrap_or(true);
    if let Some(path) = &opts.timing {
        let doc = Json::obj()
            .field("files", n_files)
            .field("findings", findings.len())
            .field("elapsed_ms", elapsed_ms)
            .field("budget_ms", opts.budget_ms)
            .field("within_budget", within_budget)
            .build()
            .encode_pretty();
        std::fs::write(path, doc).map_err(|e| format!("error: writing timing report: {e}"))?;
    }

    if opts.json {
        println!("{}", to_json(&findings));
    } else if findings.is_empty() {
        println!("blob-check: {n_files} files clean ({elapsed_ms} ms)");
    } else {
        for f in &findings {
            println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
        }
        println!(
            "blob-check: {} finding(s) in {n_files} files ({elapsed_ms} ms)",
            findings.len()
        );
    }
    if !within_budget {
        eprintln!(
            "blob-check: over budget: {elapsed_ms} ms > {} ms",
            opts.budget_ms.unwrap_or(0)
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
