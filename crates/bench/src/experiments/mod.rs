//! The experiment registry: one [`Experiment`] row per table, figure and
//! extension study, run in-process by the `experiments` binary.
//!
//! An entry returns the text it reports and writes its SVG/CSV/markdown
//! artefacts under the directory it is given; an I/O failure or a broken
//! model expectation comes back as `Err`, never as a panic, so the binary's
//! exit code says whether everything was regenerated.

use blob_sim::SystemModel;
use std::io;
use std::path::{Path, PathBuf};

/// Appends one formatted line to the `String` an experiment returns.
macro_rules! say {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod artefacts;
mod extensions;
mod figures;
mod fit;
mod tables;

pub use artefacts::csv_sweep;

/// One registry row.
pub struct Experiment {
    /// The name `experiments NAME` selects.
    pub name: &'static str,
    /// The paper element (or extension) the entry regenerates.
    pub element: &'static str,
    /// Runs the entry: writes artefacts under the directory, returns the text.
    pub run: fn(&Path) -> io::Result<String>,
}

/// Every experiment, in the order `experiments all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        element: "Table I — α/β runtime study (SGEMM 8192×8192×4, 100 iterations)",
        run: tables::table1,
    },
    Experiment {
        name: "table3",
        element: "Table III — square GEMM offload thresholds",
        run: tables::table3,
    },
    Experiment {
        name: "table4",
        element: "Table IV — square GEMV offload thresholds",
        run: tables::table4,
    },
    Experiment {
        name: "table5",
        element: "Table V — non-square GEMM first-threshold iterations",
        run: tables::table5,
    },
    Experiment {
        name: "table6",
        element: "Table VI — non-square GEMV first-threshold iterations",
        run: tables::table6,
    },
    Experiment {
        name: "fig2",
        element: "Fig 2 — DAWN square SGEMM curves (oneMKL 629 cliff)",
        run: figures::fig2,
    },
    Experiment {
        name: "fig3",
        element: "Fig 3 — Isambard-AI CPU library comparison, first 192 sizes",
        run: figures::fig3,
    },
    Experiment {
        name: "fig4",
        element: "Fig 4 — square DGEMV curves (1 iteration) on all systems",
        run: figures::fig4,
    },
    Experiment {
        name: "fig5",
        element: "Fig 5 — square SGEMV at 128 iterations, Isambard-AI and DAWN",
        run: figures::fig5,
    },
    Experiment {
        name: "fig6",
        element: "Fig 6 — AOCL vs OpenBLAS DGEMV on LUMI",
        run: figures::fig6,
    },
    Experiment {
        name: "fig7",
        element: "Fig 7 — DAWN implicit vs explicit tile scaling",
        run: figures::fig7,
    },
    Experiment {
        name: "fig_timeline",
        element: "supplementary: offload-strategy Gantt timelines (§III-B2)",
        run: figures::fig_timeline,
    },
    Experiment {
        name: "roofline",
        element: "supplementary: per-system rooflines (§IV-C's arithmetic-intensity argument)",
        run: figures::roofline,
    },
    Experiment {
        name: "ext_batched",
        element: "future work §V: batched-BLAS thresholds",
        run: extensions::ext_batched,
    },
    Experiment {
        name: "ext_matrix_engine",
        element: "future work §V: AMX/SME/MMA-class CPU matrix engines",
        run: extensions::ext_matrix_engine,
    },
    Experiment {
        name: "ext_spmv",
        element: "future work §V: sparse SpMV thresholds",
        run: extensions::ext_spmv,
    },
    Experiment {
        name: "ext_energy",
        element: "related work §II: whole-node energy offload thresholds",
        run: extensions::ext_energy,
    },
    Experiment {
        name: "ext_hybrid",
        element: "related work §II: MAGMA-style CPU+GPU splits and the MI300A limit",
        run: extensions::ext_hybrid,
    },
    Experiment {
        name: "ext_trsm",
        element: "related work §II: Li et al.'s TRSM crossover and the transfer critique",
        run: extensions::ext_trsm,
    },
    Experiment {
        name: "ablation_quirks",
        element: "counterfactuals: presets with individual library quirks removed (§IV-A)",
        run: extensions::ablation_quirks,
    },
    Experiment {
        name: "fit_presets",
        element: "calibration: coordinate-descent refinement against Table III (audit only)",
        run: fit::fit_presets,
    },
    Experiment {
        name: "report",
        element: "per-system markdown reports for square GEMM and GEMV",
        run: artefacts::report,
    },
    Experiment {
        name: "csv",
        element: "the artifact's raw CSV layout: 28 files per system × iteration count",
        run: artefacts::csv,
    },
    Experiment {
        name: "validate",
        element: "checksum validation sample: CPU vs GPU kernel paths, every problem type",
        run: artefacts::validate,
    },
];

/// The entries whose rendered tables make up `tables.txt`, in file order.
pub const TABLES_TXT: [&str; 4] = ["table3", "table4", "table5", "table6"];

/// Looks an entry up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The `tables.txt` block of a table entry's text: the rendered table —
/// everything before the first blank line — followed by two blank lines.
pub fn table_block(text: &str) -> String {
    let table = text.split_once("\n\n").map_or(text, |(table, _)| table);
    format!("{table}\n\n\n")
}

/// A model expectation an experiment relies on; `Err` when it is broken.
fn ensure(holds: bool, what: &str) -> io::Result<()> {
    if holds {
        Ok(())
    } else {
        Err(io::Error::other(what.to_string()))
    }
}

/// Unwraps a GPU-side figure of a preset the experiment knows has a GPU.
fn gpu<T>(value: Option<T>) -> io::Result<T> {
    value.ok_or_else(|| io::Error::other("the system models no GPU"))
}

/// A table cell for an optional value: the number, or `—` for none.
pub(crate) fn dash<T: ToString>(value: Option<T>) -> String {
    value.map_or_else(|| "—".to_string(), |v| v.to_string())
}

/// The file-name form of a system's name (`Isambard-AI` → `isambard_ai`).
fn slug(sys: &SystemModel) -> String {
    sys.name.to_lowercase().replace([' ', '-'], "_")
}

/// Writes `contents` to `dir/file`, creating the directory if needed.
pub fn save(dir: &Path, file: &str, contents: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}
