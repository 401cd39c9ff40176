//! # blob-blas — from-scratch BLAS kernels for GPU-BLOB
//!
//! A self-contained, dependency-light BLAS implementation providing the
//! two kernels the GPU BLAS Offload Benchmark drives, GEMV (Level 2) and
//! GEMM (Level 3), for `f32` and `f64` plus the bf16/f16 and emulated-f64
//! precisions, in column-major storage with explicit leading dimensions and
//! vector increments — the same call surface the paper's C++ artifact uses
//! against vendor libraries.
//!
//! The GEMM implementation follows the classic Goto/BLIS decomposition:
//! cache-blocked loops around a register-tiled micro-kernel operating on
//! packed panels of `A` and `B`, optionally parallelised over column blocks
//! with a scoped thread pool. A naive reference implementation is kept for
//! validation and as the baseline the paper's evaluation implicitly compares
//! library heuristics against.
//!
//! ## Layout
//! - [`scalar`] — the [`Scalar`](scalar::Scalar) element-type contract,
//!   implemented for `f32`/`f64` here and for bf16/f16 in [`half`], and
//!   the [`Precision`](scalar::Precision) each element type carries
//! - [`matrix`] — column-major matrix views and owned storage
//! - [`gemv`] — matrix-vector multiply, serial and parallel
//! - [`gemm`] — matrix-matrix multiply: reference, blocked, parallel
//! - [`pack`] — panel packing for the blocked GEMM, widening each element
//!   to its compute type (bf16/f16 → f32)
//! - [`arena`] — thread-local reusable packing buffers (zero steady-state
//!   allocation on the blocked-GEMM hot path)
//! - [`microkernel`] — the register-tiled inner kernels: portable scalar
//!   variants plus explicit AVX2+FMA / AVX-512 SIMD variants behind a
//!   runtime-detected dispatch table (the workspace's only sanctioned
//!   `unsafe`, together with [`pack`])
//! - [`tune`] — the per-host autotuner: searches engine × micro-tile ×
//!   blocking, persists the winner under `results/tuning/`, and loads it
//!   at first kernel use with safe fallback to built-in defaults
//! - [`pool`] — the execution substrate: persistent batch-latch worker
//!   pool for `'static` jobs, scoped dispatch for borrowing kernels, and
//!   the work-based inline/parallel crossover constants
//! - [`trace`] — the span recorder every layer of the workspace records
//!   into (pool, GEMM, runner, serve); disabled cost is one relaxed
//!   atomic load per seam
//! - [`fault`] — the seeded fault plane: plan grammar, site catalogue and
//!   fault points (the pool's `pool.worker` among them)
//! - [`perturb`] — seeded schedule perturbation for the stress tests
//! - [`rng`] — the workspace's deterministic xorshift64* generator and
//!   its one SplitMix64 finaliser
//! - [`half`] — software BF16/FP16 storage types and the precision-tagged
//!   f32-accumulating widened GEMM
//! - [`emul`] — Ozaki-scheme emulated-f64 GEMM/GEMV: K exact integer
//!   slices per operand contracted by the fast f32 kernel and recombined
//!   in f64, with the slice count as the accuracy dial
//!
//! Every public kernel entry point validates its full cblas-style argument
//! contract through the [`contract`] module *before* touching any buffer,
//! and reports violations as a typed [`ContractError`](contract::ContractError)
//! instead of panicking — verified mechanically by the workspace's
//! `blob-check` static-analysis tool (`contract-guard` rule).
//!
//! ```
//! use blob_blas::{gemm_blocked, gemm_ref};
//!
//! // C = A·B for 2x2 column-major matrices
//! let a = [1.0f64, 3.0, 2.0, 4.0]; // [[1, 2], [3, 4]]
//! let b = [5.0f64, 7.0, 6.0, 8.0]; // [[5, 6], [7, 8]]
//! let mut c = [0.0f64; 4];
//! gemm_blocked(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2).unwrap();
//! let mut want = [0.0f64; 4];
//! gemm_ref(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut want, 2).unwrap();
//! assert_eq!(c, want);
//! assert_eq!(c, [19.0, 43.0, 22.0, 50.0]);
//! // a bad leading dimension is an error value, not a panic:
//! assert!(gemm_blocked(2, 2, 2, 1.0, &a, 1, &b, 2, 0.0, &mut c, 2).is_err());
//! ```

// BLAS-convention entry points take the full cblas argument list.
#![allow(clippy::too_many_arguments)]

pub mod arena;
pub mod contract;
pub mod emul;
pub mod fault;
pub mod gemm;
pub mod gemv;
pub mod half;
pub mod matrix;
pub mod microkernel;
pub mod pack;
pub mod perturb;
pub mod pool;
pub mod rng;
pub mod scalar;
pub mod trace;
pub mod tune;

pub use contract::ContractError;
pub use emul::{gemm_emul, gemv_emul, EmulReport};
pub use gemm::{gemm_blocked, gemm_blocked_tuned, gemm_parallel, gemm_ref};
pub use gemv::{gemv_parallel, gemv_ref};
pub use half::{gemm_half, Bf16, F16};
pub use matrix::Matrix;
pub use microkernel::{Engine, Geometry};
pub use pool::ThreadPool;
pub use scalar::Scalar;
pub use tune::TunedKernel;
