//! End-to-end tests of the `gpu-blob` binary: spawn the real executable,
//! parse its stdout, and check the artifact workflows work from the shell.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_gpu-blob"))
        .args(args)
        .output()
        .expect("spawn gpu-blob");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn help_prints_usage() {
    let (stdout, _, ok) = run(&["--help"]);
    assert!(ok);
    assert!(stdout.contains("GPU BLAS Offload Benchmark"));
    assert!(stdout.contains("-i <N[,N...]>"));
    assert!(stdout.contains("--system"));
}

#[test]
fn list_problems_names_all_fourteen() {
    let (stdout, _, ok) = run(&["--list-problems"]);
    assert!(ok);
    for id in [
        "gemm_square",
        "gemm_tall_k",
        "gemm_fixed_mn32",
        "gemm_tall_m",
        "gemm_fixed_kn32",
        "gemm_wide_n",
        "gemm_fixed_mk32",
        "gemm_square_k32",
        "gemm_sixteenth_k",
        "gemv_square",
        "gemv_tall_m",
        "gemv_fixed_n32",
        "gemv_wide_n",
        "gemv_fixed_m32",
    ] {
        assert!(stdout.contains(id), "missing {id}");
    }
}

#[test]
fn unknown_flag_fails_with_usage() {
    let (_, stderr, ok) = run(&["--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn bad_range_rejected() {
    let (_, stderr, ok) = run(&["-s", "100", "-d", "10"]);
    assert!(!ok);
    assert!(stderr.contains("-d must be >= -s"));
}

#[test]
fn modelled_sweep_prints_threshold_table() {
    let (stdout, _, ok) = run(&[
        "--system",
        "isambard-ai",
        "--problem",
        "gemm_square",
        "-i",
        "8",
        "-d",
        "256",
    ]);
    assert!(ok, "sweep should succeed");
    assert!(stdout.contains("Isambard-AI"));
    assert!(stdout.contains("offload thresholds"));
    assert!(stdout.contains("Once"));
    assert!(stdout.contains("USM"));
    // the GH200 square-GEMM threshold is small two-digit; the table row
    // for 8 iterations must contain some numeric cell
    let row = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("8 "))
        .expect("iteration row");
    assert!(row.split('|').count() >= 3, "row: {row}");
}

#[test]
fn csv_output_lands_on_disk() {
    let dir = std::env::temp_dir().join(format!("blob_cli_e2e_{}", std::process::id()));
    let (_, _, ok) = run(&[
        "--system",
        "lumi",
        "--problem",
        "gemv_square",
        "-i",
        "32",
        "-d",
        "64",
        "--output",
        dir.to_str().unwrap(),
    ]);
    assert!(ok);
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("output dir exists")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        files.contains(&"sgemv_gemv_square_i32.csv".to_string()),
        "{files:?}"
    );
    assert!(files.contains(&"dgemv_gemv_square_i32.csv".to_string()));
    // the CSV parses with the library parser
    let text = std::fs::read_to_string(dir.join("sgemv_gemv_square_i32.csv")).unwrap();
    let rows = blob_core::csv::parse_csv(&text).unwrap();
    assert_eq!(rows.len(), 64 * 4); // cpu + 3 offloads per size
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_flag_reports_ok() {
    let (stdout, _, ok) = run(&[
        "--system",
        "dawn",
        "--problem",
        "gemm_square",
        "-i",
        "1",
        "-d",
        "64",
        "--validate",
    ]);
    assert!(ok);
    assert!(stdout.contains("validate SGEMM"));
    assert!(stdout.contains("OK"));
    assert!(!stdout.contains("FAIL"));
}

#[test]
fn host_backend_runs_without_gpu_tables() {
    let (stdout, _, ok) = run(&[
        "--system",
        "host",
        "--problem",
        "gemv_square",
        "-i",
        "1",
        "-d",
        "32",
        "--threads",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("CPU-only backend"));
}

#[test]
fn custom_family_runs_standalone() {
    let (stdout, _, ok) = run(&[
        "--system",
        "isambard-ai",
        "--custom",
        "gemm:4p,p,p",
        "-i",
        "8",
        "-d",
        "256",
    ]);
    assert!(ok);
    // customs-only mode skips the 14 built-ins
    assert!(stdout.contains("0 problem type(s)"));
    assert!(stdout.contains("gemm:4p,p,p"));
    assert!(stdout.contains("offload thresholds"));
}

#[test]
fn bad_custom_spec_rejected() {
    let (_, stderr, ok) = run(&["--custom", "gemm:p,p"]);
    assert!(!ok);
    assert!(stderr.contains("gemm spec needs 3 dimensions"));
}

#[test]
fn json_mode_emits_one_parseable_document() {
    let (stdout, _, ok) = run(&[
        "--system",
        "lumi",
        "--problem",
        "gemm_square",
        "--precision",
        "f32",
        "-i",
        "8",
        "-d",
        "64",
        "--json",
        "--validate",
    ]);
    assert!(ok);
    // stdout is pure JSON: it must round-trip through the wire parser
    let doc = blob_core::wire::Json::parse(&stdout).expect("stdout parses as JSON");
    use blob_core::wire::Json;
    assert_eq!(doc.get("system").and_then(Json::as_str), Some("LUMI"));
    assert_eq!(doc.get("max_dim").and_then(Json::as_u64), Some(64));
    let sweeps = doc.get("sweeps").and_then(Json::as_arr).unwrap();
    assert_eq!(sweeps.len(), 1);
    let sweep = &sweeps[0];
    assert_eq!(
        sweep.get("problem").and_then(Json::as_str),
        Some("gemm_square")
    );
    assert_eq!(
        sweep.get("records").and_then(Json::as_arr).unwrap().len(),
        64
    );
    assert!(sweep
        .get("thresholds")
        .and_then(|t| t.get("once"))
        .is_some());
    let checks = doc.get("validation").and_then(Json::as_arr).unwrap();
    assert!(!checks.is_empty());
    assert!(checks
        .iter()
        .all(|c| c.get("ok").and_then(Json::as_bool) == Some(true)));
}

#[test]
fn json_mode_covers_custom_families() {
    let (stdout, _, ok) = run(&[
        "--system",
        "isambard-ai",
        "--custom",
        "gemv:2p,p",
        "--precision",
        "f64",
        "-i",
        "8",
        "-d",
        "64",
        "--json",
    ]);
    assert!(ok);
    use blob_core::wire::Json;
    let doc = Json::parse(&stdout).expect("stdout parses as JSON");
    let sweeps = doc.get("sweeps").and_then(Json::as_arr).unwrap();
    assert_eq!(sweeps.len(), 1);
    assert_eq!(
        sweeps[0].get("problem").and_then(Json::as_str),
        Some("gemv:2p,p")
    );
}

#[test]
fn custom_square_json_matches_builtin_square() {
    let args = ["--system", "lumi", "-i", "8", "-d", "64", "--json"];
    let (custom, _, ok) = run(&[&args[..], &["--custom", "gemm:p,p,p"]].concat());
    assert!(ok);
    let (builtin, _, ok) = run(&[&args[..], &["--problem", "gemm_square"]].concat());
    assert!(ok);
    let renamed = custom
        .replace(
            "\"problem\": \"gemm:p,p,p\"",
            "\"problem\": \"gemm_square\"",
        )
        .replace("\"label\": \"gemm:p,p,p\"", "\"label\": \"M=N=K\"");
    assert_ne!(renamed, custom, "the custom document names its spec");
    assert_eq!(renamed, builtin);
}

#[test]
fn custom_family_honours_validate_plot_and_output() {
    let dir = std::env::temp_dir().join(format!("blob_cli_custom_{}", std::process::id()));
    let (stdout, _, ok) = run(&[
        "--system",
        "lumi",
        "--custom",
        "gemm:p,p,p/16",
        "--precision",
        "f32",
        "-i",
        "8",
        "-d",
        "64",
        "--validate",
        "--plot",
        "--output",
        dir.to_str().unwrap(),
    ]);
    assert!(ok);
    assert!(
        stdout.contains("gemm:p,p,p/16 (8 iterations) on LUMI"),
        "{stdout}"
    );
    assert!(stdout.contains("validate SGEMM"));
    assert!(stdout.contains("OK"));
    assert!(!stdout.contains("FAIL"));
    // `/` in the spec becomes `_` in the file name
    let text = std::fs::read_to_string(dir.join("sgemm_gemm:p,p,p_16_i8.csv"))
        .expect("custom CSV lands in the output directory");
    let rows = blob_core::csv::parse_csv(&text).unwrap();
    assert_eq!(rows.len(), 64 * 4); // cpu + 3 offloads per size
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_host_sweep_writes_chrome_trace_json() {
    use blob_core::wire::Json;
    let path = std::env::temp_dir().join("blob_cli_trace_e2e.json");
    let _ = std::fs::remove_file(&path);
    let path_s = path.to_string_lossy().into_owned();
    // One 384³ GEMM on 2 threads: big enough to cross the pool's
    // flops-per-thread crossover (2·384³ ≈ 113 MFLOP against the 32 MFLOP
    // per-worker floor), so the dispatch spans fire too.
    let (_, stderr, ok) = run(&[
        "--system",
        "host",
        "--threads",
        "2",
        "--problem",
        "gemm_square",
        "--precision",
        "f32",
        "-i",
        "1",
        "-s",
        "384",
        "-d",
        "384",
        "--trace",
        &path_s,
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("span(s)"), "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = Json::parse(&text).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .to_vec();
    for expected in ["sweep.size", "pool.dispatch", "gemm.pack_a", "gemm.compute"] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some(expected)),
            "missing {expected} span in {}",
            text.chars().take(400).collect::<String>()
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn json_plus_plot_is_rejected() {
    let (_, stderr, ok) = run(&["--json", "--plot"]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"));
}

#[test]
fn serve_help_lists_endpoints() {
    let (stdout, _, ok) = run(&["serve", "--help"]);
    assert!(ok);
    for needle in [
        "--addr",
        "--cache-entries",
        "/v1/advise",
        "/v1/threshold",
        "/v1/metrics",
    ] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
}
