//! # blob-core — the GPU BLAS Offload Benchmark harness
//!
//! The paper's primary contribution, as a library:
//!
//! - [`problem`] — the 14 problem types (square + non-square GEMM/GEMV)
//!   the benchmark sweeps (§III-C, Fig 1), rows of one [`Family`] table
//! - [`custom`] — [`Family`] and [`DimRule`]: a problem family as one rule
//!   per dimension, built-in or parsed from a spec like `gemm:p,p,16p`
//! - [`backend`] — timing sources: calibrated system models (`blob-sim`)
//!   or real wall-clock measurement of this repo's own kernels
//! - [`runner`] — the size sweep: CPU then each GPU transfer type per
//!   size, interleaved, with the paper's GFLOP/s accounting (§III-A)
//! - [`threshold`] — GPU offload-threshold detection (§III-D)
//! - [`validate`] — constant-seed data init + 0.1 % checksum comparison
//!   between independent kernel code paths (§III-B)
//! - [`operands`] — the one thread-local operand set that `HostCpu` and
//!   `validate_call` borrow instead of allocating per call
//! - [`csv`] — the artifact's per-problem-type CSV output and its parser
//! - [`wire`] — the workspace's JSON wire format: one escaper, one
//!   encoder, one recursive-descent parser, shared by `blob-serve`,
//!   `gpu-blob --json`, and `blob-check`
//! - [`schema`] — the versioned v1 request/response schema: `parse_*`
//!   validators paired with `wire`'s `*_json` encoders, defined once
//! - [`trace`] — structured tracing & profiling: the `blob-blas` span
//!   recorder re-exported, plus chrome://tracing export and aggregated
//!   text profiles
//! - [`fault`], [`rng`] — the seeded fault plane and the deterministic
//!   generator, re-exported from `blob-blas`, where the pool calls them
//!
//! ## Quickstart
//!
//! ```
//! use blob_core::problem::{GemmProblem, Problem};
//! use blob_core::runner::{run_sweep, SweepConfig};
//! use blob_sim::{presets, Offload, Precision};
//!
//! let system = presets::isambard_ai();
//! let cfg = SweepConfig::new(1, 256, 8);
//! let sweep = run_sweep(&system, Problem::Gemm(GemmProblem::Square), Precision::F32, &cfg);
//! let threshold = sweep.threshold(Offload::TransferOnce);
//! assert!(threshold.is_some(), "square GEMM offloads readily on a GH200");
//! ```

pub mod advisor;
pub mod atomicio;
pub mod backend;
pub mod checkpoint;
pub mod csv;
pub mod custom;
pub mod operands;
pub mod problem;
pub mod runner;
pub mod schema;
pub mod testkit;
pub mod threshold;
pub mod trace;
pub mod validate;
pub mod wire;

// The argument-contract validator lives next to the kernels it guards
// (`blob-blas`), but harness users get it from here too so one import path
// covers the whole vocabulary.
pub use blob_blas::contract;
pub use blob_blas::contract::ContractError;

// The fault plane and the generator sit below the kernels too (the pool
// calls `fault::point` directly); their public paths stay here.
pub use blob_blas::{fault, rng};

pub use advisor::{advise, advise_across, advise_from_parts, classify, Advice, Verdict};
pub use backend::{Backend, HostCpu};
pub use custom::{DimRule, Family};
pub use problem::{GemmProblem, GemvProblem, Problem};
pub use runner::{
    run_sweep, run_sweep_pooled, ConfigError, GpuSample, GpuSamples, SizeRecord, Sweep,
    SweepConfig, SweepConfigBuilder,
};
pub use threshold::{offload_threshold_from_times, offload_threshold_index, ThresholdPoint};
pub use validate::{validate_call, ValidationReport, CHECKSUM_TOLERANCE};

// Re-export the model vocabulary so harness users need one import path.
pub use blob_sim::{BlasCall, BlasCallBuilder, CallError, Kernel, KernelKind, Offload, Precision};
