//! `ledger` — one benchmark for every plane of gpu-blob-rs.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! ledger run   [--seed N] [--seconds S] [--runs R] [--only W] [--out FILE]
//! ledger trace [--seed N] [--seconds S] [--only W] [--out FILE]
//! ledger compare A.json B.json
//! ledger spec                                            prints BENCHMARK.json
//! ```
//!
//! One process runs one workload (the trace flag, the tuned-profile
//! `OnceLock` and the pools are process-global), so `run` and `trace`
//! re-execute this binary once per workload. The last line of a run's
//! standard output is its result object. See `ledger/README.md`.

mod checks;
mod compare;
mod gen;
mod platform;
mod probes;
mod report;
mod seams;
mod spans;
mod spec;
mod stats;
mod workloads;

use blob_core::wire::Json;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Ctx;

/// Set-ups per run: this process's own plus fresh child processes, so
/// `setup_s` is a median over cold process starts.
const SETUPS_PER_RUN: usize = 3;

/// Parsed command line: flags with values, bare flags, positionals.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some("setup-only") => flags.push(("setup-only".to_string(), "1".to_string())),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value `{v}`")),
        }
    }
}

/// Runs this binary again with `args`; returns its standard output.
fn rerun(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child `{}` failed ({}): {}",
            args.join(" "),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8(output.stdout).map_err(|_| "child output is not UTF-8".to_string())
}

fn run_args(workload: &str, seed: u64, seconds: f64, trace: bool) -> Vec<String> {
    vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ]
}

/// One run of one workload in this process: the driver's form.
fn one_run(args: &Args, started: Instant) -> Result<(), String> {
    let workload = args.get("workload").unwrap_or_default().to_string();
    if !spec::is_workload(&workload) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec::RUN_SECONDS as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let setup_only = args.get("setup-only").is_some();
    let mut ctx = Ctx {
        workload: workload.clone(),
        seed,
        // The traced pass spends half the period in the workload; the
        // isolated probes that follow take about as long again.
        seconds: if traced { seconds / 2.0 } else { seconds },
        traced,
        setup_only,
        started,
        setup_s: None,
    };

    // Fresh processes repeat the set-up before this one measures, so the
    // reported `setup_s` is a median over cold starts.
    let mut setups = Vec::new();
    if !traced && !setup_only {
        let mut child_args = run_args(&workload, seed, seconds, false);
        child_args.push("--setup-only".to_string());
        for _ in 1..SETUPS_PER_RUN {
            let text = rerun(&child_args)?;
            let value = text
                .lines()
                .find_map(|l| l.strip_prefix("setup_s "))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or("set-up child printed no setup_s")?;
            setups.push(value);
        }
        // the children's time is not this process's set-up
        ctx.started = Instant::now();
    }

    let out = workloads::run(&mut ctx)?;
    let own_setup = ctx
        .setup_s
        .ok_or("the workload never marked the end of set-up")?;
    if setup_only {
        println!("setup_s {own_setup}");
        return Ok(());
    }
    setups.push(own_setup);

    let values = if traced {
        let probe_started = Instant::now();
        let probes = probes::run(seed);
        let values = report::per_layer(&out, &probes);
        report::print_listing(&workload, &ctx, &out, &values);
        println!(
            "  . {:<34} {:>16.6} s",
            "probes_wall",
            probe_started.elapsed().as_secs_f64()
        );
        values
    } else {
        let values = report::end_to_end(&out, stats::median(&setups), platform::peak_rss_mib())?;
        report::print_listing(&workload, &ctx, &out, &values);
        println!("  . setup_s samples {setups:?}");
        values
    };
    let result = report::result_json(&out, &values);
    report::write_run(&workload, &ctx, &out, &result);
    println!("{}", result.encode());
    Ok(())
}

/// The workloads a `run`/`trace` invocation covers: `--only` filters.
fn selected(args: &Args) -> Result<Vec<&'static str>, String> {
    let only = args.all("only");
    if let Some(bad) = only.iter().find(|w| !spec::is_workload(w)) {
        return Err(format!("unknown workload `{bad}`"));
    }
    Ok(spec::WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| only.is_empty() || only.contains(w))
        .collect())
}

/// Runs one child and parses its result line into a run record.
fn child_record(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let text = rerun(&run_args(workload, seed, seconds, trace))?;
    let last = text.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let Json::Obj(mut fields) = result else {
        return Err("child result line is not an object".to_string());
    };
    fields.insert(0, ("trace".to_string(), trace.into()));
    fields.insert(0, ("seed".to_string(), seed.into()));
    fields.insert(0, ("workload".to_string(), workload.into()));
    Ok(Json::Obj(fields))
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_record(record: &Json) {
    let field = |k: &str| record.get(k).map(Json::encode).unwrap_or_default();
    println!(
        "{} seed {} trace {}  correct {}  attempted {}  failed {}",
        field("workload"),
        field("seed"),
        field("trace"),
        field("correct"),
        field("attempted"),
        field("failed")
    );
    for (name, m) in record
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<36} {value:>16.6} {unit}");
    }
}

fn write_out(args: &Args, default_name: &str, seed: u64, seconds: f64, runs: Vec<Json>) {
    let file = Json::obj()
        .field("platform", platform::record(seed))
        .field("seconds", seconds)
        .field("runs", Json::Arr(runs))
        .build();
    match args.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, file.encode_pretty()) {
                eprintln!("ledger: could not write {path}: {e}");
            }
        }
        None => report::write_results_file(default_name, &file),
    }
}

/// `ledger run`: the untraced pass over every workload, `--runs` times with
/// seeds `seed, seed+1, …`; writes a result file `ledger compare` reads.
fn run_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec::RUN_SECONDS as f64)?;
    let runs: u64 = args.number("runs", 1)?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for r in 0..runs {
        for workload in selected(args)? {
            let record = child_record(workload, seed + r, seconds, false)?;
            print_record(&record);
            all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
            records.push(record);
        }
    }
    write_out(args, "run.json", seed, seconds, records);
    Ok(all_correct)
}

/// `ledger trace`: per workload, the untraced run (end-to-end metrics
/// always come from it) and then the traced run; prints the per-layer
/// metrics and the difference between the passes.
fn trace_all(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec::RUN_SECONDS as f64)?;
    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in selected(args)? {
        let plain = child_record(workload, seed, seconds, false)?;
        let traced = child_record(workload, seed, seconds, true)?;
        print_record(&plain);
        print_record(&traced);
        if let (Some(untraced), Some(with_trace)) = (
            metric(&plain, "ops_per_s"),
            metric(&traced, "trace.ops_per_s"),
        ) {
            println!(
                "  {:<36} {:>16.6} ratio",
                "trace_overhead_frac",
                1.0 - with_trace / untraced
            );
        }
        for record in [plain, traced] {
            all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
            records.push(record);
        }
    }
    write_out(args, "trace.json", seed, seconds, records);
    Ok(all_correct)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.get(1..3).unwrap_or_default() else {
        return Err("usage: ledger compare A.json B.json".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::print(&compare::rows(&load(a)?, &load(b)?)))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let command = args.positional.first().map(String::as_str);
    let measures = !matches!(command, Some("compare" | "spec"));
    if measures && cfg!(debug_assertions) {
        eprintln!("ledger: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = match command {
        Some("spec") => {
            println!("{}", spec::benchmark_json().encode_pretty());
            Ok(true)
        }
        Some("compare") => compare_files(&args),
        Some("run") => run_all(&args),
        Some("trace") => trace_all(&args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None if args.get("workload").is_some() => one_run(&args, started).map(|()| true),
        None => Err("usage: ledger --workload W --seed N --seconds S --trace 0|1 | run | trace | compare A B | spec".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(1)
        }
    }
}
