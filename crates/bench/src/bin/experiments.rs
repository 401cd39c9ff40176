//! Runs entries of the experiment registry in-process.
//!
//! ```text
//! cargo run -p blob-bench --release --bin experiments -- --list
//! cargo run -p blob-bench --release --bin experiments -- table3 fig2
//! cargo run -p blob-bench --release --bin experiments -- all
//! ```
//!
//! Each entry's text goes to stdout and its artefacts to `results/`
//! (override with `BLOB_RESULTS_DIR`). `all` runs every entry and also
//! writes `tables.txt` — Tables III–VI in the paper's format — from the
//! text the table entries returned.
//!
//! Exit codes: 0 everything ran, 1 at least one entry failed (the rest
//! still run, and the failures are named), 2 unknown name or no name.

use blob_bench::experiments::{find, save, table_block, Experiment, EXPERIMENTS, TABLES_TXT};
use blob_bench::results_dir;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args == ["all"];
    let mut selected: Vec<&Experiment> = Vec::new();
    if args == ["--list"] {
        for e in EXPERIMENTS {
            println!("{:<18} {}", e.name, e.element);
        }
        return ExitCode::SUCCESS;
    } else if all {
        selected.extend(EXPERIMENTS);
    } else {
        for name in &args {
            match find(name) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("experiments: unknown experiment {name:?} (see --list)");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if selected.is_empty() {
        eprintln!("usage: experiments --list | all | NAME...");
        return ExitCode::from(2);
    }

    let dir = results_dir();
    let mut tables = String::new();
    let mut failed: Vec<&str> = Vec::new();
    for (i, e) in selected.iter().enumerate() {
        eprintln!("[{}/{}] {}", i + 1, selected.len(), e.name);
        match (e.run)(&dir) {
            Ok(text) => {
                println!("{}", text.trim_end());
                if TABLES_TXT.contains(&e.name) {
                    tables.push_str(&table_block(&text));
                }
            }
            Err(err) => {
                eprintln!("experiments: {} failed: {err}", e.name);
                failed.push(e.name);
            }
        }
    }
    if all {
        match save(&dir, "tables.txt", &tables) {
            Ok(_) => println!("All experiment outputs written to {}", dir.display()),
            Err(err) => {
                eprintln!("experiments: writing tables.txt failed: {err}");
                failed.push("tables.txt");
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("experiments: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
