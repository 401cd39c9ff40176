//! Crash-safe sweep checkpoints: bit-exact persistence for `--resume`.
//!
//! A long sweep killed mid-run (OOM killer, wall-clock limit, node
//! failure) must be resumable *without* changing its results file: the
//! chaos suite asserts a killed-and-resumed sweep is byte-identical to
//! an uninterrupted one. JSON's decimal floats cannot guarantee that
//! (`blob_core::wire` stores `f64` and rounds on format), so every
//! measured `f64` is persisted as its exact bit pattern in hex; the
//! surrounding envelope is ordinary [`wire`](crate::wire) JSON.
//!
//! Checkpoints are written atomically ([`crate::atomicio`]) after every
//! measured size, so the file on disk is always a complete, parseable
//! prefix of the sweep — never a torn write.

use crate::atomicio::write_atomic;
use crate::fault;
use crate::problem::Problem;
use crate::runner::{GpuSample, GpuSamples, SizeRecord, SweepConfig};
use crate::wire::Json;
use blob_sim::{Kernel, Offload, Precision};
use std::path::Path;

/// Current checkpoint format version.
pub const VERSION: u64 = 1;

/// A sweep checkpoint: the identifying key plus every record measured
/// so far, in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Backend (system) name the sweep runs on.
    pub system: String,
    /// Problem type being swept.
    pub problem: Problem,
    /// Element precision.
    pub precision: Precision,
    /// Iteration count of each timed loop.
    pub iterations: u32,
    /// Sweep range and stride (the rest of the key).
    pub min_dim: usize,
    /// Maximum dimension of the sweep.
    pub max_dim: usize,
    /// Stride over the size parameter.
    pub step: usize,
    /// α of every call, bit-exact.
    pub alpha: f64,
    /// β of every call, bit-exact.
    pub beta: f64,
    /// True once the sweep finished; a complete checkpoint resumes to an
    /// immediate return of its records.
    pub complete: bool,
    /// Records measured so far, a prefix of the sweep's size list.
    pub records: Vec<SizeRecord>,
}

/// Error from loading or parsing a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file was not a valid checkpoint document.
    Parse(String),
    /// The checkpoint's key does not match the requested sweep.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint parse: {e}"),
            CheckpointError::Mismatch(e) => write!(f, "checkpoint mismatch: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn bits(v: f64) -> Json {
    Json::Str(format!("{:016x}", v.to_bits()))
}

fn from_bits(j: &Json, what: &str) -> Result<f64, CheckpointError> {
    let s = j
        .as_str()
        .ok_or_else(|| CheckpointError::Parse(format!("{what}: expected hex-bits string")))?;
    let raw = u64::from_str_radix(s, 16)
        .map_err(|_| CheckpointError::Parse(format!("{what}: bad hex bits {s:?}")))?;
    Ok(f64::from_bits(raw))
}

fn get_u64(doc: &Json, field: &str) -> Result<u64, CheckpointError> {
    doc.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| CheckpointError::Parse(format!("missing or non-integer `{field}`")))
}

fn get_str<'a>(doc: &'a Json, field: &str) -> Result<&'a str, CheckpointError> {
    doc.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| CheckpointError::Parse(format!("missing or non-string `{field}`")))
}

fn kernel_to_json(k: &Kernel) -> Json {
    match *k {
        Kernel::Gemm { m, n, k } => Json::obj()
            .field("kind", "gemm")
            .field("m", m as u64)
            .field("n", n as u64)
            .field("k", k as u64)
            .build(),
        Kernel::Gemv { m, n } => Json::obj()
            .field("kind", "gemv")
            .field("m", m as u64)
            .field("n", n as u64)
            .build(),
    }
}

fn kernel_from_json(j: &Json) -> Result<Kernel, CheckpointError> {
    let kind = get_str(j, "kind")?;
    let m = get_u64(j, "m")? as usize;
    let n = get_u64(j, "n")? as usize;
    match kind {
        "gemm" => Ok(Kernel::Gemm {
            m,
            n,
            k: get_u64(j, "k")? as usize,
        }),
        "gemv" => Ok(Kernel::Gemv { m, n }),
        other => Err(CheckpointError::Parse(format!(
            "unknown kernel kind {other:?}"
        ))),
    }
}

fn record_to_json(r: &SizeRecord) -> Json {
    let gpu: Vec<Json> = r
        .gpu
        .iter()
        .map(|g| {
            Json::obj()
                .field("offload", g.offload.label())
                .field("seconds_bits", bits(g.seconds))
                .field("gflops_bits", bits(g.gflops))
                .build()
        })
        .collect();
    Json::obj()
        .field("param", r.param as u64)
        .field("kernel", kernel_to_json(&r.kernel))
        .field("cpu_seconds_bits", bits(r.cpu_seconds))
        .field("cpu_gflops_bits", bits(r.cpu_gflops))
        .field("gpu", Json::Arr(gpu))
        .build()
}

fn record_from_json(j: &Json) -> Result<SizeRecord, CheckpointError> {
    let gpu_items = j
        .get("gpu")
        .and_then(Json::as_arr)
        .ok_or_else(|| CheckpointError::Parse("record missing `gpu` array".to_string()))?;
    if gpu_items.len() > GpuSamples::CAPACITY {
        return Err(CheckpointError::Parse(format!(
            "record has {} gpu samples; at most {} (one per offload)",
            gpu_items.len(),
            GpuSamples::CAPACITY
        )));
    }
    let mut gpu = GpuSamples::default();
    for g in gpu_items {
        let label = get_str(g, "offload")?;
        let offload: Offload = label
            .parse()
            .map_err(|e: String| CheckpointError::Parse(e))?;
        gpu.push(GpuSample {
            offload,
            seconds: from_bits(g.get("seconds_bits").unwrap_or(&Json::Null), "gpu seconds")?,
            gflops: from_bits(g.get("gflops_bits").unwrap_or(&Json::Null), "gpu gflops")?,
        })
        .map_err(|dup| {
            CheckpointError::Parse(format!(
                "record repeats the gpu sample for offload {:?}",
                dup.offload.label()
            ))
        })?;
    }
    Ok(SizeRecord {
        param: get_u64(j, "param")? as usize,
        kernel: kernel_from_json(
            j.get("kernel")
                .ok_or_else(|| CheckpointError::Parse("record missing `kernel`".to_string()))?,
        )?,
        cpu_seconds: from_bits(
            j.get("cpu_seconds_bits").unwrap_or(&Json::Null),
            "cpu seconds",
        )?,
        cpu_gflops: from_bits(
            j.get("cpu_gflops_bits").unwrap_or(&Json::Null),
            "cpu gflops",
        )?,
        gpu,
    })
}

impl Checkpoint {
    /// An empty checkpoint keyed to one sweep.
    pub fn new(system: &str, problem: Problem, precision: Precision, cfg: &SweepConfig) -> Self {
        Self {
            system: system.to_string(),
            problem,
            precision,
            iterations: cfg.iterations().max(1),
            min_dim: cfg.min_dim(),
            max_dim: cfg.max_dim(),
            step: cfg.step(),
            alpha: cfg.alpha(),
            beta: cfg.beta(),
            complete: false,
            records: Vec::new(),
        }
    }

    /// Whether this checkpoint belongs to the given sweep. Bit-exact on
    /// α/β — resuming under a different scalar would splice incompatible
    /// measurements into one results file.
    pub fn matches(
        &self,
        system: &str,
        problem: Problem,
        precision: Precision,
        cfg: &SweepConfig,
    ) -> bool {
        self.system == system
            && self.problem == problem
            && self.precision == precision
            && self.iterations == cfg.iterations().max(1)
            && self.min_dim == cfg.min_dim()
            && self.max_dim == cfg.max_dim()
            && self.step == cfg.step()
            && self.alpha.to_bits() == cfg.alpha().to_bits()
            && self.beta.to_bits() == cfg.beta().to_bits()
    }

    /// Serialises the checkpoint to its JSON document.
    pub fn to_json_string(&self) -> String {
        let records: Vec<Json> = self.records.iter().map(record_to_json).collect();
        Json::obj()
            .field("version", VERSION)
            .field("system", self.system.as_str())
            .field("problem", self.problem.id())
            .field("precision", crate::wire::precision_key(self.precision))
            .field("iterations", u64::from(self.iterations))
            .field("min_dim", self.min_dim as u64)
            .field("max_dim", self.max_dim as u64)
            .field("step", self.step as u64)
            .field("alpha_bits", bits(self.alpha))
            .field("beta_bits", bits(self.beta))
            .field("complete", self.complete)
            .field("records", Json::Arr(records))
            .build()
            .encode_pretty()
            + "\n"
    }

    /// Parses a checkpoint document.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let doc = Json::parse(text).map_err(|e| CheckpointError::Parse(format!("{e:?}")))?;
        let version = get_u64(&doc, "version")?;
        if version != VERSION {
            return Err(CheckpointError::Parse(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let problem_id = get_str(&doc, "problem")?;
        let problem = crate::wire::parse_problem_id(problem_id)
            .ok_or_else(|| CheckpointError::Parse(format!("unknown problem {problem_id:?}")))?;
        let record_items = doc
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| CheckpointError::Parse("missing `records` array".to_string()))?;
        let mut records = Vec::with_capacity(record_items.len());
        for r in record_items {
            records.push(record_from_json(r)?);
        }
        Ok(Self {
            system: get_str(&doc, "system")?.to_string(),
            problem,
            precision: {
                let s = get_str(&doc, "precision")?;
                crate::wire::parse_precision(s)
                    .ok_or_else(|| CheckpointError::Parse(format!("unknown precision {s:?}")))?
            },
            iterations: get_u64(&doc, "iterations")? as u32,
            min_dim: get_u64(&doc, "min_dim")? as usize,
            max_dim: get_u64(&doc, "max_dim")? as usize,
            step: get_u64(&doc, "step")? as usize,
            alpha: from_bits(doc.get("alpha_bits").unwrap_or(&Json::Null), "alpha")?,
            beta: from_bits(doc.get("beta_bits").unwrap_or(&Json::Null), "beta")?,
            complete: doc.get("complete").and_then(Json::as_bool).unwrap_or(false),
            records,
        })
    }

    /// Writes the checkpoint atomically (via [`crate::atomicio`]); the
    /// `checkpoint.write` fault point can inject an I/O failure here.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        fault::point(fault::sites::CHECKPOINT_WRITE)
            .map_err(|e| CheckpointError::Io(e.to_string()))?;
        write_atomic(path, self.to_json_string().as_bytes())
            .map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Loads and parses a checkpoint file.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Self::parse(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::GemmProblem;
    use crate::runner::run_sweep;
    use blob_sim::presets;

    fn sample() -> Checkpoint {
        let cfg = SweepConfig::new(1, 9, 2).with_step(2);
        let problem = Problem::Gemm(GemmProblem::Square);
        let sweep = run_sweep(&presets::dawn(), problem, Precision::F32, &cfg);
        let mut ck = Checkpoint::new("DAWN", problem, sweep.precision, &cfg);
        ck.records = sweep.records;
        ck
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ck = sample();
        let parsed = Checkpoint::parse(&ck.to_json_string()).unwrap();
        assert_eq!(parsed, ck);
        for (a, b) in parsed.records.iter().zip(&ck.records) {
            assert_eq!(a.cpu_seconds.to_bits(), b.cpu_seconds.to_bits());
            for (ga, gb) in a.gpu.iter().zip(&b.gpu) {
                assert_eq!(ga.seconds.to_bits(), gb.seconds.to_bits());
                assert_eq!(ga.gflops.to_bits(), gb.gflops.to_bits());
            }
        }
    }

    #[test]
    fn extreme_floats_survive() {
        let mut ck = sample();
        ck.records[0].cpu_seconds = f64::MIN_POSITIVE;
        ck.records[0].cpu_gflops = 1.0 + f64::EPSILON;
        ck.alpha = -0.0;
        let parsed = Checkpoint::parse(&ck.to_json_string()).unwrap();
        assert_eq!(
            parsed.records[0].cpu_seconds.to_bits(),
            f64::MIN_POSITIVE.to_bits()
        );
        assert_eq!(
            parsed.records[0].cpu_gflops.to_bits(),
            (1.0 + f64::EPSILON).to_bits()
        );
        assert_eq!(parsed.alpha.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn matches_rejects_different_sweeps() {
        let ck = sample();
        let cfg = SweepConfig::new(1, 9, 2).with_step(2);
        assert!(ck.matches(
            "DAWN",
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg
        ));
        assert!(!ck.matches(
            "LUMI",
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg
        ));
        assert!(!ck.matches(
            "DAWN",
            Problem::Gemm(GemmProblem::Square),
            Precision::F64,
            &cfg
        ));
        let other = SweepConfig::new(1, 10, 2).with_step(2);
        assert!(!ck.matches(
            "DAWN",
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &other
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("blob_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.json");
        let ck = sample();
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A one-record checkpoint whose `gpu` array is replaced by
    /// hand-written samples, one per offload label.
    fn with_gpu_labels(labels: &[&str]) -> String {
        let mut ck = sample();
        ck.records.truncate(1);
        ck.records[0].gpu = GpuSamples::default();
        let gpu: Vec<Json> = labels
            .iter()
            .map(|&label| {
                Json::obj()
                    .field("offload", label)
                    .field("seconds_bits", bits(1.0))
                    .field("gflops_bits", bits(2.0))
                    .build()
            })
            .collect();
        let text = ck.to_json_string();
        assert!(text.contains("\"gpu\": []"), "{text}");
        text.replace(
            "\"gpu\": []",
            &format!("\"gpu\": {}", Json::Arr(gpu).encode()),
        )
    }

    #[test]
    fn a_full_set_of_distinct_offloads_parses() {
        let text = with_gpu_labels(&["Once", "Always", "USM", "First-Touch"]);
        let ck = Checkpoint::parse(&text).unwrap();
        let offloads: Vec<Offload> = ck.records[0].gpu.iter().map(|g| g.offload).collect();
        assert_eq!(offloads, Offload::WITH_FIRST_TOUCH);
    }

    #[test]
    fn more_samples_than_offloads_is_a_parse_error() {
        let text = with_gpu_labels(&["Once", "Always", "USM", "First-Touch", "Once"]);
        match Checkpoint::parse(&text) {
            Err(CheckpointError::Parse(e)) => assert!(e.contains("5 gpu samples"), "{e}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_offload_is_a_parse_error() {
        let text = with_gpu_labels(&["Once", "Always", "once"]);
        match Checkpoint::parse(&text) {
            Err(CheckpointError::Parse(e)) => assert!(e.contains("repeats"), "{e}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            Checkpoint::parse("not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            Checkpoint::parse("{\"version\": 99}"),
            Err(CheckpointError::Parse(_))
        ));
    }
}
