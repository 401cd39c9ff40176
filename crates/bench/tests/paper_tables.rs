//! Pins what the docs promise about the experiment registry: the tables it
//! renders, the CSVs it writes and the names it answers to are the ones
//! committed in `golden/tables.txt`, `results/csv/dawn/`, EXPERIMENTS.md
//! and README.md — and the `experiments` binary's exit code is honest.

use blob_bench::experiments::{csv_sweep, find, table_block, EXPERIMENTS, TABLES_TXT};
use blob_core::csv::to_csv_string;
use blob_core::problem::Problem;
use blob_sim::{presets, Precision};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A scratch path unique to this test process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("blob-paper-tables-{}-{tag}", std::process::id()))
}

fn experiments(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .env("BLOB_RESULTS_DIR", results)
        .output()
        .expect("run the experiments binary")
}

/// The `tables.txt` blocks of Tables III–VI, rendered once for all tests.
fn table_blocks() -> &'static [String] {
    static BLOCKS: OnceLock<Vec<String>> = OnceLock::new();
    BLOCKS.get_or_init(|| {
        TABLES_TXT
            .iter()
            .map(|name| {
                let entry = find(name).expect("table entry registered");
                table_block(&(entry.run)(Path::new("unused")).expect("tables do no I/O"))
            })
            .collect()
    })
}

/// The data cells of a rendered table block: every line after the title,
/// header and separator, split on `|` and trimmed.
fn rendered_cells(block: &str) -> Vec<Vec<String>> {
    block.trim_end().lines().skip(3).map(split_cells).collect()
}

fn split_cells(line: &str) -> Vec<String> {
    line.split('|').map(|c| c.trim().to_string()).collect()
}

/// The lines of EXPERIMENTS.md's section whose heading starts with `heading`.
fn section<'a>(doc: &'a str, heading: &str) -> Vec<&'a str> {
    doc.lines()
        .skip_while(|l| !l.starts_with(heading))
        .skip(1)
        .take_while(|l| !l.starts_with("## "))
        .collect()
}

#[test]
fn tables_txt_matches_the_golden() {
    let golden = read("crates/bench/tests/golden/tables.txt");
    assert_eq!(table_blocks().concat(), golden);
}

#[test]
fn tracked_dawn_csvs_regenerate_byte_identically() {
    let dir = repo_root().join("results/csv/dawn");
    let dawn = presets::dawn();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results/csv/dawn is tracked") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        // <s|d><gemm|gemv>_<problem id>_i<iterations>.csv
        let stem = name.strip_suffix(".csv").expect("only CSVs in csv/dawn");
        let (head, iters) = stem.rsplit_once("_i").expect("iteration suffix");
        let (routine, id) = head.split_once('_').expect("routine prefix");
        let precision = match &routine[..1] {
            "s" => Precision::F32,
            "d" => Precision::F64,
            other => panic!("{name}: unknown routine prefix {other}"),
        };
        let problem = Problem::all()
            .into_iter()
            .find(|p| p.id() == id)
            .unwrap_or_else(|| panic!("{name}: unknown problem id {id}"));
        let sweep = csv_sweep(&dawn, problem, precision, iters.parse().unwrap());
        assert_eq!(blob_core::csv::file_name(&sweep), name, "name round-trips");
        assert!(
            to_csv_string(&sweep) == std::fs::read_to_string(&path).unwrap(),
            "{name} no longer regenerates byte-identically"
        );
        checked += 1;
    }
    assert!(checked > 0, "no tracked CSVs found in {}", dir.display());
}

#[test]
fn experiments_md_tables_match_the_registry() {
    let doc = read("EXPERIMENTS.md");
    let blocks = table_blocks();

    // Tables III and IV: a fenced block, header row then data rows.
    for (heading, block) in [("## Table III", &blocks[0]), ("## Table IV", &blocks[1])] {
        let lines = section(&doc, heading);
        let fenced: Vec<Vec<String>> = lines
            .iter()
            .skip_while(|l| **l != "```")
            .skip(2) // the fence and the header row
            .take_while(|l| **l != "```")
            .map(|l| split_cells(l))
            .collect();
        assert_eq!(fenced, rendered_cells(block), "{heading}");
    }

    // Tables V and VI: a markdown table whose third column is the model's
    // `DAWN / LUMI / Isambard-AI` cells.
    for (heading, block) in [("## Table V —", &blocks[2]), ("## Table VI", &blocks[3])] {
        let documented: Vec<Vec<String>> = section(&doc, heading)
            .iter()
            .filter(|l| l.starts_with("| ") && !l.starts_with("| Problem type"))
            .map(|l| {
                let cells = split_cells(l.trim_matches('|'));
                let mut row = vec![cells[0].replace('≥', ">=")];
                row.extend(cells[2].split(" / ").map(str::to_string));
                row
            })
            .collect();
        assert_eq!(documented, rendered_cells(block), "{heading}");
    }
}

/// Words the docs use the way they use experiment names: a whole backticked
/// span, or an argument after `experiments -- `.
fn mentioned_names(doc: &str) -> Vec<String> {
    let name_like = |w: &str| {
        let shaped = ["table", "fig", "ext_", "ablation_", "fit_"]
            .iter()
            .any(|p| w.starts_with(p));
        shaped
            && w.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    };
    let mut names: Vec<String> = doc
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| name_like(span))
        .map(str::to_string)
        .collect();
    for (_, rest) in doc
        .match_indices("experiments -- ")
        .map(|(i, m)| doc.split_at(i + m.len()))
    {
        let line = rest.lines().next().unwrap_or("");
        for word in line.split(|c: char| c == ' ' || c == '|' || c == '`') {
            if name_like(word) {
                names.push(word.to_string());
            }
        }
    }
    names
}

#[test]
fn list_registry_and_docs_agree() {
    let out = experiments(&["--list"], Path::new("unused"));
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    let registered: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, registered);

    for doc in ["README.md", "EXPERIMENTS.md"] {
        let text = read(doc);
        let mentioned = mentioned_names(&text);
        assert!(!mentioned.is_empty(), "{doc} mentions no experiment");
        for name in mentioned {
            assert!(
                find(&name).is_some(),
                "{doc} mentions `{name}`, not in the registry"
            );
        }
        // the three binaries are the only `--bin` targets the docs may name
        for (i, _) in text.match_indices("--bin ") {
            let bin: String = text[i + 6..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
                .collect();
            assert!(
                ["experiments", "overhead_gate", "serve_load", "gpu-blob"].contains(&bin.as_str()),
                "{doc} names `--bin {bin}`"
            );
        }
    }
}

#[test]
fn unknown_name_exits_2_and_runs_nothing() {
    let dir = scratch("unknown");
    let out = experiments(&["table1", "tabel3"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("tabel3"));
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the names check out"
    );
    assert!(!dir.exists());
    assert_eq!(experiments(&[], &dir).status.code(), Some(2));
}

#[test]
fn a_failing_entry_is_named_and_the_rest_still_run() {
    // A results "directory" that is a regular file: every entry that writes
    // an artefact fails, every entry that only computes still runs.
    let file = scratch("not-a-dir");
    std::fs::write(&file, "in the way").unwrap();
    let out = experiments(&["all"], &file);
    let _ = std::fs::remove_file(&file);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let failed = stderr
        .lines()
        .find_map(|l| l.strip_prefix("experiments: failed: "))
        .unwrap_or_else(|| panic!("no failure summary in {stderr}"));
    for name in ["fig2", "roofline", "report", "csv", "tables.txt"] {
        assert!(
            failed.split(", ").any(|f| f == name),
            "{name} not in {failed}"
        );
    }
    for name in TABLES_TXT {
        assert!(
            !failed.split(", ").any(|f| f == name),
            "{name} only computes"
        );
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table I —"), "table1 still ran");
    assert!(
        stdout.contains("28 validated, 0 failures"),
        "validate still ran"
    );
}
