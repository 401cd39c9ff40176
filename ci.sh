#!/usr/bin/env bash
# The full offline CI gate for gpu-blob. Run from the repository root:
#
#   ./ci.sh
#
# Toolchain: stable Rust (developed against rustc/cargo 1.95, rustfmt 1.9).
# No nightly features, no network access, and no dependencies outside the
# workspace are required — every stage below must pass from a cold clone
# with `--offline`.
#
# Stages:
#   1. cargo fmt --check        formatting is canonical rustfmt
#   2. cargo run -p blob-check  the workspace's own static analysis — the
#                               full 17-rule catalogue (token rules +
#                               contract-guard + the CFG/dataflow analyses:
#                               atomics-ordering, lock-discipline, balance,
#                               drop-on-path), the checker's own sources
#                               included, under a 5 s wall-clock budget
#                               (writes results/check_timing.json)
#   3. cargo build --release    everything compiles optimised; then
#                               cargo check --all-targets (tests, examples,
#                               benches) on the workspace and on ledger/
#                               must print no warning at all
#   4. cargo test -q            the full workspace test suite — including
#                               the serve_smoke end-to-end test (healthz,
#                               advise, a threshold cache hit, shutdown),
#                               the chaos suites (fault_plan, chaos,
#                               chaos_resume: panic containment, worker
#                               replacement, load shedding, kill-and-resume)
#                               and the fabric tests — then the
#                               bf16_batched_inference example runs, since
#                               its f32/bf16 error asserts only fire when
#                               it executes, and the quickstart,
#                               offload_advisor and kmeans_planner examples
#                               run on the models with their stdout diffed
#                               against crates/bench/tests/golden/example_*.txt
#   5. ledger self-tests        cargo test on ledger/ (its own workspace): a
#                               public name the benchmark imports cannot
#                               break here without failing CI first; then a
#                               1 s model_tables run must report "failed":0
#                               (every pass bit-identical, 615 thresholds,
#                               the six pinned goldens), and so must 1 s
#                               precision_ladder and gemv_stream runs (every
#                               operand-slot type switch, and a seeded
#                               validation lend after timing lends)
#   6. SIMD agreement           the simd_agreement property suite runs twice:
#                               once on the detected engine and once under
#                               GPU_BLOB_NO_SIMD=1, proving the forced-scalar
#                               path stays bit-identical and correct; the
#                               precision_oracle suite runs under it too, so
#                               the widening and slicing packers are covered
#                               on the scalar engine
#   7. tune smoke               gpu-blob tune --quick into a scratch dir:
#                               the autotuner searches, golden-validates,
#                               persists, and reload-verifies a profile in
#                               seconds (bounded by --budget-ms)
#   8. precision plane gate     a quick two-size bf16 + emulated-f64 sweep
#                               (--precision bf16,f64-emul --json) must emit
#                               one JSON row per precision — the tunable-
#                               precision plane stays wired through CLI,
#                               runner and models — and the same sweep on
#                               --system host for bf16, f16 and f64-emul2,
#                               -emul3 and -emul4 (every Ozaki triangle
#                               shape) must emit one row per precision
#                               whose every record (10) has a positive
#                               measured CPU time
#   9. overhead gate            overhead_gate measures one reference kernel
#                               shape (a 64^3 GEMM on 4 threads) and proves
#                               a disabled fault point, a disabled trace
#                               span and one auto-dispatch decide/complete
#                               round trip each cost < 1% of it
#  10. server load gate         serve_load must sustain >= 1000 req/s on
#                               loopback
#  11. fabric chaos gate        serve_load --shards 3 --kill-one under a
#                               seeded backend fault plan: one worker
#                               process is killed a quarter of the way
#                               through and the shard router must finish
#                               with zero failed requests while the
#                               batched aggregate beats the single-node
#                               req/s floor (30 s budget)
#
# Performance is not gated here: it is measured by the ledger (ledger/,
# BENCHMARK.json) on the parent and the change of every PR.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> blob-check (full workspace, 5 s budget)"
mkdir -p results
cargo run -q -p blob-check --offline -- --timing results/check_timing.json --budget-ms 5000

echo "==> cargo build --release, then a warning-free check of every target"
cargo build --release --workspace --offline
for manifest in Cargo.toml ledger/Cargo.toml; do
    CHECK_OUT="$(cargo check -q --offline --workspace --all-targets --manifest-path "$manifest" 2>&1)"
    if [ -n "$CHECK_OUT" ]; then
        printf '%s\n' "$CHECK_OUT"
        echo "ci: cargo check --all-targets printed warnings for $manifest" >&2
        exit 1
    fi
done

echo "==> cargo test"
cargo test -q --workspace --offline
cargo run --release --offline --quiet --example bf16_batched_inference > /dev/null
for example in quickstart offload_advisor kmeans_planner; do
    cargo run --release --offline --quiet --example "$example" |
        diff -u "crates/bench/tests/golden/example_$example.txt" -
done

echo "==> ledger self-tests (the benchmark still builds against the workspace)"
cargo test -q --offline --manifest-path ledger/Cargo.toml
# the paper's tables through the ledger (per-pass bit identity, the
# threshold count and the pinned goldens), then the host kernel workloads'
# validation and golden checks, must all hold
for workload in model_tables precision_ladder gemv_stream; do
    LEDGER_OUT="$(cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- \
        --workload "$workload" --seconds 1)"
    grep -q '"failed":0' <<<"$LEDGER_OUT"
done

echo "==> SIMD agreement and precision oracle under forced-scalar (GPU_BLOB_NO_SIMD=1)"
GPU_BLOB_NO_SIMD=1 cargo test -q -p blob-blas --test simd_agreement --offline
GPU_BLOB_NO_SIMD=1 cargo test -q -p blob-blas --test precision_oracle --offline

echo "==> tune smoke (quick autotune search + profile round trip)"
TUNE_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$TUNE_SMOKE_DIR"' EXIT
cargo run -q --release -p blob-cli --offline -- tune --quick \
    --budget-ms 5000 --dir "$TUNE_SMOKE_DIR"
ls "$TUNE_SMOKE_DIR"/*.tune > /dev/null

echo "==> precision plane gate (two-size sweeps: modelled bf16 + emulated-f64, measured host bf16, f16 + emulated-f64 k=2,3,4)"
PRECISION_OUT="$(cargo run -q --release -p blob-cli --offline -- \
    --system lumi --problem gemm_square --precision bf16,f64-emul \
    -i 1 -d 2 --json)"
grep -q '"precision": "bf16"' <<<"$PRECISION_OUT"
grep -q '"precision": "f64-emul3"' <<<"$PRECISION_OUT"
HOST_OUT="$(cargo run -q --release -p blob-cli --offline -- \
    --system host --problem gemm_square --precision bf16,f16,f64-emul2,f64-emul3,f64-emul4 \
    -i 1 -d 2 --json)"
for p in bf16 f16 f64-emul2 f64-emul3 f64-emul4; do
    [ "$(grep -c "\"precision\": \"$p\"" <<<"$HOST_OUT")" -eq 1 ]
done
# five precisions x two sizes, each timed on the host
grep -o '"cpu_seconds": [^,]*' <<<"$HOST_OUT" |
    awk '{ n++; if ($2 + 0 <= 0) bad++ } END { exit !(n == 10 && bad == 0) }'

echo "==> overhead gate (disabled fault point, disabled trace span, one dispatch decision: each < 1% of gemm_par4_64)"
cargo run -q --release -p blob-bench --bin overhead_gate --offline

echo "==> server load gate (>= 1000 req/s loopback)"
cargo run -q --release -p blob-bench --bin serve_load --offline -- \
    --clients 4 --requests 2000 --min-rps 1000

echo "==> fabric chaos gate (kill a shard mid-run, zero failed requests)"
GPU_BLOB_FAULTS="seed=11;fabric.backend:error@0.02" timeout 30 \
    cargo run -q --release -p blob-bench --bin serve_load --offline -- \
    --shards 3 --kill-one --batch 16 --clients 4 --requests 400 --min-rps 31000

echo "ci: all stages passed"
