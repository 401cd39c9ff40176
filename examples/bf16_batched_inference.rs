//! Half-precision + batched GEMM — a walkthrough of the two future-work
//! extensions the paper motivates with AI workloads (§V): transformer-style
//! inference runs *batches* of small matrix products at *reduced
//! precision*, exactly the regime where launch overhead and precision both
//! change the offload decision.
//!
//! The example runs a miniature attention-head workload three ways —
//! f64, f32, and software BF16 — using the repo's generic kernels, checks
//! the BF16 error stays within its 2⁻⁷ precision budget, then asks the
//! modelled systems how batching moves the offload threshold.
//!
//! ```text
//! cargo run --release --example bf16_batched_inference
//! ```

use gpu_blob::blas::scalar::Scalar;
use gpu_blob::blas::{gemm_blocked, Bf16};
use gpu_blob::sim::{presets, Offload, Precision};

/// One attention head's scores: Q·Kᵀ for `heads` heads of `seq × dim`,
/// one GEMM per head over tightly packed per-head operands.
fn run_heads<T: Scalar>(heads: usize, seq: usize, dim: usize, q: &[T], kt: &[T]) -> Vec<T> {
    let mut scores = vec![T::ZERO; seq * seq * heads];
    for (h, s) in scores.chunks_mut(seq * seq).enumerate() {
        let off = h * seq * dim;
        gemm_blocked(
            seq,
            seq,
            dim,
            T::ONE,
            &q[off..],
            seq,
            &kt[off..],
            dim,
            T::ZERO,
            s,
            seq,
        )
        .expect("tight per-head layout");
    }
    scores
}

fn main() {
    let (heads, seq, dim) = (8usize, 32usize, 64usize);
    println!("attention scores: {heads} heads of Q·K^T, {seq}x{seq}x{dim} each\n");

    // identical logical inputs at three precisions
    let q64: Vec<f64> = (0..seq * dim * heads)
        .map(|i| (((i * 37) % 97) as f64 / 97.0 - 0.5) * 0.2)
        .collect();
    let k64: Vec<f64> = (0..dim * seq * heads)
        .map(|i| (((i * 61) % 89) as f64 / 89.0 - 0.5) * 0.2)
        .collect();
    let q32: Vec<f32> = q64.iter().map(|&v| v as f32).collect();
    let k32: Vec<f32> = k64.iter().map(|&v| v as f32).collect();
    let qb: Vec<Bf16> = q64.iter().map(|&v| Bf16::from_f64(v)).collect();
    let kb: Vec<Bf16> = k64.iter().map(|&v| Bf16::from_f64(v)).collect();

    let s64 = run_heads(heads, seq, dim, &q64, &k64);
    let s32 = run_heads(heads, seq, dim, &q32, &k32);
    let sb = run_heads(heads, seq, dim, &qb, &kb);

    // normalise by the largest score: individual scores cross zero, so
    // element-wise relative error is the wrong yardstick
    let scale = s64.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    let err = |approx: Vec<f64>| {
        s64.iter()
            .zip(approx)
            .map(|(&w, g)| (w - g).abs() / scale)
            .fold(0.0f64, f64::max)
    };
    let e32 = err(s32.iter().map(|&v| v as f64).collect());
    let eb = err(sb.iter().map(|v| v.to_f64()).collect());
    println!("max normalised error vs f64:   f32 {e32:.2e}   bf16 {eb:.2e}");
    assert!(e32 < 1e-5, "f32 stays tight");
    assert!(eb < 0.05, "bf16 stays within its 2^-7 budget over k={dim}");

    // where should this batch run? the batched model answers per system
    println!("\nbatched offload thresholds (per-instance square size, Transfer-Once, 8 iters):");
    for sys in presets::evaluation_systems() {
        let t1 = sys.batched_gemm_threshold(Precision::F32, 1, 8, Offload::TransferOnce, 1024);
        let t64 = sys.batched_gemm_threshold(Precision::F32, 64, 8, Offload::TransferOnce, 1024);
        println!(
            "  {:<12} batch 1: {:<5} batch 64: {:<5}",
            sys.name,
            t1.map(|v| v.to_string()).unwrap_or_else(|| "—".into()),
            t64.map(|v| v.to_string()).unwrap_or_else(|| "—".into()),
        );
    }
    println!("\nbatching amortises launch overhead: small per-head GEMMs that would");
    println!("stay on the CPU individually offload comfortably as a batch.");
}
