//! CSV emission matching the artifact's output layout: one file per
//! (routine, problem type) holding the raw per-size performance rows for
//! every device and transfer type — 28 files per full run (9 SGEMM, 9
//! DGEMM, 5 SGEMV, 5 DGEMV).

use crate::atomicio::write_atomic;
use crate::fault;
use crate::runner::Sweep;
use blob_sim::Offload;
use std::io::{self, Write};
use std::path::Path;

/// The CSV header row.
pub const HEADER: &str = "system,routine,problem,device,offload,m,n,k,iterations,seconds,gflops";

/// One sweep's data rows (no header), built infallibly in memory —
/// `String` formatting has no error path to swallow, unlike the old
/// `let _ = writeln!` into an `io::Write`.
/// The artifact's routine label for a (precision, kernel) pair: the BLAS
/// prefix (`s`/`d`/`b`/`h`, `e{k}` for Ozaki emulation) plus the kernel.
/// `f32`/`f64` keep their historical spellings byte-for-byte.
pub fn routine_label(precision: blob_sim::Precision, kind: blob_sim::KernelKind) -> String {
    let kernel = match kind {
        blob_sim::KernelKind::Gemm => "gemm",
        blob_sim::KernelKind::Gemv => "gemv",
    };
    match precision {
        blob_sim::Precision::F32 => format!("s{kernel}"),
        blob_sim::Precision::F64 => format!("d{kernel}"),
        blob_sim::Precision::Bf16 => format!("b{kernel}"),
        blob_sim::Precision::F16 => format!("h{kernel}"),
        blob_sim::Precision::F64Emul(_) => {
            format!("e{}{kernel}", precision.emul_slices().unwrap_or(3))
        }
    }
}

fn rows_string(sweep: &Sweep) -> String {
    let routine = routine_label(sweep.precision, sweep.problem.kind());
    // A custom family's id is its spec, whose dimensions are separated by
    // commas; `;` keeps every row at 11 fields.
    let problem = sweep.problem.id().replace(',', ";");
    let mut out = String::new();
    for r in &sweep.records {
        let (m, n, k) = r.kernel.dims();
        out.push_str(&format!(
            "{},{},{},cpu,none,{},{},{},{},{:.9e},{:.6}\n",
            sweep.system, routine, problem, m, n, k, sweep.iterations, r.cpu_seconds, r.cpu_gflops
        ));
        for g in &r.gpu {
            out.push_str(&format!(
                "{},{},{},gpu,{},{},{},{},{},{:.9e},{:.6}\n",
                sweep.system,
                routine,
                problem,
                g.offload.label().to_ascii_lowercase(),
                m,
                n,
                k,
                sweep.iterations,
                g.seconds,
                g.gflops
            ));
        }
    }
    out
}

/// Serialises one sweep's rows (without header) to `w`, propagating the
/// write error instead of discarding it.
pub fn write_rows<W: Write>(w: &mut W, sweep: &Sweep) -> io::Result<()> {
    w.write_all(rows_string(sweep).as_bytes())
}

/// Serialises a sweep with header to a string.
pub fn to_csv_string(sweep: &Sweep) -> String {
    let mut text = String::with_capacity(64 + 64 * sweep.records.len());
    text.push_str(HEADER);
    text.push('\n');
    text.push_str(&rows_string(sweep));
    text
}

/// The artifact's file-name convention for a sweep, e.g.
/// `sgemm_gemm_square_i8.csv`. A `/` in a custom family's id (the ratio
/// rule `p/16`) becomes `_`.
pub fn file_name(sweep: &Sweep) -> String {
    let prefix = routine_label(sweep.precision, sweep.problem.kind());
    format!(
        "{}_{}_i{}.csv",
        prefix,
        sweep.problem.id().replace('/', "_"),
        sweep.iterations
    )
}

/// Writes a sweep to `dir/<file_name>` atomically (staged into a `.tmp`
/// sibling, then renamed — see [`crate::atomicio`]); creates the
/// directory if needed. The `csv.write` fault point can inject an I/O
/// failure here, which callers must surface, not swallow.
pub fn write_to_dir(dir: &Path, sweep: &Sweep) -> io::Result<std::path::PathBuf> {
    fault::point(fault::sites::CSV_WRITE)?;
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file_name(sweep));
    write_atomic(&path, to_csv_string(sweep).as_bytes())?;
    Ok(path)
}

/// A parsed CSV row (the analysis crate's input).
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRow {
    /// System name (e.g. `DAWN`).
    pub system: String,
    /// BLAS routine label (`sgemm`, `dgemv`, …).
    pub routine: String,
    /// Problem-type identifier (e.g. `gemm_square`).
    pub problem: String,
    /// `cpu` or `gpu`.
    pub device: String,
    /// `None` for CPU rows, the offload strategy for GPU rows.
    pub offload: Option<Offload>,
    /// Row dimension of the output.
    pub m: usize,
    /// Column dimension of the output.
    pub n: usize,
    /// Inner (contraction) dimension; 1 for GEMV.
    pub k: usize,
    /// Iteration count of the timed loop.
    pub iterations: u32,
    /// Total measured seconds.
    pub seconds: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
}

/// Error from [`parse_csv`]: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A data line did not have exactly the expected field count.
    FieldCount {
        /// 1-based line number in the input text.
        line: usize,
        /// Fields found on the line.
        got: usize,
    },
    /// A field's text failed to parse as its expected type.
    BadField {
        /// 1-based line number in the input text.
        line: usize,
        /// Column name from [`HEADER`].
        field: &'static str,
        /// The offending field text.
        text: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::FieldCount { line, got } => {
                write!(f, "line {line}: expected 11 fields, got {got}")
            }
            CsvError::BadField { line, field, text } => {
                write!(f, "line {line}: bad {field}: {text:?}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses CSV text produced by [`to_csv_string`] (header optional).
pub fn parse_csv(text: &str) -> Result<Vec<CsvRow>, CsvError> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line == HEADER {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 11 {
            return Err(CsvError::FieldCount {
                line: lineno + 1,
                got: f.len(),
            });
        }
        let err = |field: &'static str, text: &str| CsvError::BadField {
            line: lineno + 1,
            field,
            text: text.to_string(),
        };
        rows.push(CsvRow {
            system: f[0].to_string(),
            routine: f[1].to_string(),
            problem: f[2].to_string(),
            device: f[3].to_string(),
            offload: if f[4] == "none" {
                None
            } else {
                Some(f[4].parse().map_err(|_| err("offload", f[4]))?)
            },
            m: f[5].parse().map_err(|_| err("m", f[5]))?,
            n: f[6].parse().map_err(|_| err("n", f[6]))?,
            k: f[7].parse().map_err(|_| err("k", f[7]))?,
            iterations: f[8].parse().map_err(|_| err("iterations", f[8]))?,
            seconds: f[9].parse().map_err(|_| err("seconds", f[9]))?,
            gflops: f[10].parse().map_err(|_| err("gflops", f[10]))?,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{GemmProblem, Problem};
    use crate::runner::{run_sweep, SweepConfig};
    use blob_sim::{presets, Precision};

    fn small_sweep() -> Sweep {
        run_sweep(
            &presets::dawn(),
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &SweepConfig::new(1, 8, 2),
        )
    }

    #[test]
    fn csv_round_trip() {
        let sweep = small_sweep();
        let text = to_csv_string(&sweep);
        let rows = parse_csv(&text).unwrap();
        // 8 sizes x (1 cpu + 3 gpu) rows
        assert_eq!(rows.len(), 8 * 4);
        let cpu_rows: Vec<_> = rows.iter().filter(|r| r.device == "cpu").collect();
        assert_eq!(cpu_rows.len(), 8);
        assert!(cpu_rows.iter().all(|r| r.offload.is_none()));
        let gpu_once: Vec<_> = rows
            .iter()
            .filter(|r| r.offload == Some(Offload::TransferOnce))
            .collect();
        assert_eq!(gpu_once.len(), 8);
        // values survive the round trip
        let first = rows.iter().find(|r| r.device == "cpu" && r.m == 1).unwrap();
        assert!((first.seconds - sweep.records[0].cpu_seconds).abs() / first.seconds < 1e-6);
        assert_eq!(first.iterations, 2);
        assert_eq!(first.routine, "sgemm");
        assert_eq!(first.system, "DAWN");
    }

    #[test]
    fn file_name_convention() {
        let sweep = small_sweep();
        assert_eq!(file_name(&sweep), "sgemm_gemm_square_i2.csv");
    }

    #[test]
    fn routine_labels_cover_extended_precisions() {
        use blob_sim::KernelKind;
        // historical spellings must not move — files on disk depend on them
        assert_eq!(routine_label(Precision::F32, KernelKind::Gemm), "sgemm");
        assert_eq!(routine_label(Precision::F64, KernelKind::Gemv), "dgemv");
        assert_eq!(routine_label(Precision::Bf16, KernelKind::Gemm), "bgemm");
        assert_eq!(routine_label(Precision::F16, KernelKind::Gemv), "hgemv");
        assert_eq!(
            routine_label(Precision::F64Emul(3), KernelKind::Gemm),
            "e3gemm"
        );
        // out-of-band slice counts clamp like the kernels do
        assert_eq!(
            routine_label(Precision::F64Emul(9), KernelKind::Gemm),
            "e4gemm"
        );
    }

    #[test]
    fn write_to_dir_creates_file() {
        let sweep = small_sweep();
        let dir = std::env::temp_dir().join("blob_csv_test");
        let path = write_to_dir(&dir, &sweep).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(HEADER));
        assert_eq!(parse_csv(&text).unwrap().len(), 32);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert_eq!(
            parse_csv("a,b,c").unwrap_err(),
            CsvError::FieldCount { line: 1, got: 3 }
        );
        assert_eq!(
            parse_csv("s,r,p,cpu,none,1,2,3,four,0.5,1.0").unwrap_err(),
            CsvError::BadField {
                line: 1,
                field: "iterations",
                text: "four".to_string()
            }
        );
        // header-only and empty inputs are fine
        assert_eq!(parse_csv(HEADER).unwrap().len(), 0);
        assert_eq!(parse_csv("").unwrap().len(), 0);
    }
}
