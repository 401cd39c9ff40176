//! `overhead_gate` — proves the always-compiled-in planes are (near-)free
//! next to the kernel they surround.
//!
//! Fault points, trace spans and the dispatch decision ship enabled in
//! every build and sit on the serve request path, the sweep runner's
//! per-size loop, the thread pool's job loop and the GEMM pack/compute
//! phases, all through the one `blob_blas::{fault, trace}` plane that
//! `blob_core` re-exports. The claim is that
//! disabled they cost a relaxed atomic load each, and that one
//! `Dispatcher::decide` + `complete` round trip is bookkeeping only — so
//! even the most overhead-sensitive kernel shape, a 64³ GEMM split over 4
//! threads (`gemm_par4_64`), cannot lose 1 % to any of them.
//!
//! The gate measures that reference once, then each row of [`ROWS`]: the
//! per-call cost (min over [`REPS`] timed blocks — interference only adds
//! time) times a deliberately pessimistic calls-per-kernel multiplier must
//! stay under [`BUDGET_PCT`] of one reference call.
//!
//! ```text
//! cargo run --release -p blob-bench --bin overhead_gate
//! ```
//!
//! Exit codes: 0 every row under budget, 1 a row over, 2 a fault plan or
//! the trace plane is armed (the premise is the *disabled* path).

use blob_bench::microbench::{black_box, measure_latency};
use blob_core::{fault, trace};
use blob_dispatch::{Dispatcher, ModelExecutor};
use std::process::ExitCode;
use std::time::Instant;

/// Worker-thread count of the reference GEMM.
const THREADS: usize = 4;

/// Side of the reference GEMM (`gemm_par4_64`, the shape most sensitive
/// to per-call overhead).
const DIM: usize = 64;

/// Overhead budget, percent of one `gemm_par4_64` call.
const BUDGET_PCT: f64 = 1.0;

/// Repetitions; the statistic is the minimum (noise only adds time).
const REPS: usize = 5;

/// Seed and length of the mixed trace the dispatch row cycles through —
/// the trace family the replay acceptance check uses, so the decision mix
/// (tiny/huge/crossover GEMMs, GEMVs, eight sites) is representative
/// rather than a single memoised shape.
const TRACE_SEED: u64 = 42;
const TRACE_CALLS: usize = 256;

/// Calls per timed block of the two hot-loop rows; large enough that the
/// `Instant` pair around the block is amortised to nothing.
const BLOCK: usize = 4_000_000;

/// One gated property: a label, how many of them one kernel call is charged
/// for, and the nanoseconds one costs (min over [`REPS`] timed blocks). The
/// 64 is far above the real hot path: the pool hits one fault point per job
/// and opens ~3 spans, the kernel adds ~3 pack/compute spans per worker.
const ROWS: [(&str, f64, fn() -> f64); 3] = [
    ("disabled fault::point", 64.0, fault_point_ns),
    ("disabled trace::span", 64.0, trace_span_ns),
    ("dispatch decide+complete", 1.0, dispatch_decision_ns),
];

/// Nanoseconds per call of `f`, min over [`REPS`] blocks of `block` calls.
fn min_block_ns(block: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..REPS {
        let t0 = Instant::now();
        for i in 0..block {
            f(rep * block + i);
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / block as f64);
    }
    best
}

fn fault_point_ns() -> f64 {
    let mut hits = 0u64;
    let ns = min_block_ns(BLOCK, |_| {
        if fault::point(fault::sites::RUNNER_SIZE).is_err() {
            hits += 1;
        }
    });
    assert_eq!(black_box(hits), 0, "no plan is installed; nothing may fire");
    ns
}

/// A span guard created and dropped.
fn trace_span_ns() -> f64 {
    min_block_ns(BLOCK, |i| {
        let g = trace::span(trace::names::SWEEP_SIZE, trace::cats::RUNNER);
        black_box(&g);
        drop(g);
        black_box(&i);
    })
}

/// One round trip on a persistent dispatcher cycling through the mixed
/// trace, so priors are memoised and the history, sticky routes and
/// residency tables are live — the steady state an interposed call stream
/// sees. `decide` + `complete` (rather than `call`) keeps the modelled-GPU
/// "execution" out: the row prices the bookkeeping a real interposed
/// kernel call would pay, not the model arithmetic.
fn dispatch_decision_ns() -> f64 {
    let calls = blob_dispatch::mixed_trace(TRACE_SEED, TRACE_CALLS);
    let mut dispatcher = Dispatcher::new(ModelExecutor::new(blob_sim::presets::dawn()));
    for (site, call) in &calls {
        black_box(&dispatcher.call(*site, call));
    }
    min_block_ns(200_000, |i| {
        let (site, call) = &calls[i % calls.len()];
        let decision = dispatcher.decide(*site, call);
        black_box(&dispatcher.complete(*site, call, decision, decision.cpu_estimate));
    })
}

/// Per-call latency of `gemm_par4_64` in nanoseconds: the median of 41
/// individually timed calls, min over [`REPS`] such medians.
fn reference_gemm_ns() -> f64 {
    let a = vec![0.5f64; DIM * DIM];
    let b = vec![0.25f64; DIM * DIM];
    let mut c = vec![0.0f64; DIM * DIM];
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let stats = measure_latency(10, 41, || {
            let _ = blob_blas::gemm_parallel(
                THREADS, DIM, DIM, DIM, 1.0, &a, DIM, &b, DIM, 0.0, &mut c, DIM,
            );
            black_box(&c);
        });
        best = best.min(stats.median * 1e9);
    }
    best
}

fn main() -> ExitCode {
    if fault::active() {
        eprintln!("overhead_gate: a fault plan is installed (GPU_BLOB_FAULTS?) — unset it first");
        return ExitCode::from(2);
    }
    // Armed, every span records and every dispatch decision adds two
    // spans: that is the traced cost, not the disabled one.
    if trace::active() {
        eprintln!("overhead_gate: the trace plane is armed — disable it first");
        return ExitCode::from(2);
    }

    let gemm_ns = reference_gemm_ns();
    println!(
        "overhead_gate: reference gemm_par4_64 {:.1} µs/call, budget {BUDGET_PCT}% per row",
        gemm_ns / 1e3
    );
    let mut ok = true;
    for (label, per_call, measure) in ROWS {
        let ns = measure();
        let pct = 100.0 * per_call * ns / gemm_ns;
        let verdict = if pct < BUDGET_PCT { "ok" } else { "FAILED" };
        println!(
            "  {label:<26} {ns:>9.3} ns/call x {per_call:>2.0} per kernel call -> {pct:.4}%  {verdict}"
        );
        ok &= pct < BUDGET_PCT;
    }
    if ok {
        println!("overhead_gate: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("overhead_gate: FAILED — a disabled plane is not free");
        ExitCode::FAILURE
    }
}
