//! Isolated per-layer probes: each times calls into one layer's public
//! functions with the quiet-decile protocol, from outside the program.
//! They are the same in every traced run, whatever the workload, and run
//! after it in the same process, so the first thing they do is put the
//! process-global trace plane back to "off and empty".
//!
//! Bytes moved are *computed* from operand sizes (no hardware counter is
//! read); GPU time anywhere in this repository is modelled, so no
//! accelerator utilisation is reported.

use crate::gen::{advise_body, post, threshold_body};
use crate::platform::{dram_operand_bytes, threads_total};
use crate::seams::TimedExecutor;
use crate::stats::{median, quiet};
use crate::workloads::dispatch_replay::{quality, TRACE_CALLS};
use crate::workloads::model_tables;
use blob_blas::pool::parallel_for;
use blob_blas::{
    gemm_blocked, gemm_emul, gemm_half, gemm_parallel, gemv_parallel, Bf16, Scalar, ThreadPool, F16,
};
use blob_core::problem::GemmProblem;
use blob_core::validate::seeded_data;
use blob_core::wire::{advice_json, sweep_json, Json};
use blob_core::{
    advise, fault, run_sweep, run_sweep_pooled, schema, trace, HostCpu, Problem, SweepConfig,
};
use blob_dispatch::{mixed_trace, replay, Dispatcher, ModelExecutor};
use blob_serve::cache::ShardedCache;
use blob_serve::fabric::ring::{hash64, shape_bucket, Ring};
use blob_serve::http::{parse_head, Conn, Limits, Request, Response};
use blob_serve::metrics::Metrics;
use blob_serve::App;
use blob_sim::{presets, BlasCall, Offload, Precision};
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::sync::Arc;
use std::time::Instant;

/// Seconds per call of `f`: batches sized to last about `batch_s`, `batches`
/// of them, reported as their quiet decile.
fn per_call(batch_s: f64, batches: usize, mut f: impl FnMut()) -> f64 {
    let mut timed = |n: u64| -> f64 {
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        start.elapsed().as_secs_f64()
    };
    // The first call warms (lazy statics, page faults, caches) and starts
    // the calibration of the batch size.
    let mut n = 1u64;
    let mut t = timed(n);
    while t < batch_s && n < 1 << 28 {
        // aim a little past the target; at least double while far below
        let scale = (1.2 * batch_s / t.max(1e-9)).clamp(2.0, 1024.0);
        n = ((n as f64 * scale) as u64).max(n + 1);
        t = timed(n);
    }
    let samples: Vec<f64> = (0..batches).map(|_| timed(n) / n as f64).collect();
    quiet(&samples)
}

/// A light probe: ~1 ms batches, nine of them.
fn light(f: impl FnMut()) -> f64 {
    per_call(1e-3, 9, f)
}

/// A heavy probe (one call is milliseconds or more): one warming call,
/// then three single calls.
fn heavy(f: impl FnMut()) -> f64 {
    per_call(0.0, 3, f)
}

/// One timed call, for a probe whose single call takes most of a second.
fn once(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The results, in insertion order.
#[derive(Default)]
struct Probes(Vec<(&'static str, f64)>);

impl Probes {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

fn gemm_operands<T: Scalar>(seed: u64, d: usize) -> (Vec<T>, Vec<T>, Vec<T>) {
    (
        seeded_data(seed, d * d),
        seeded_data(seed ^ 0xB, d * d),
        vec![T::ZERO; d * d],
    )
}

fn gemm_flops(d: usize) -> f64 {
    BlasCall::gemm(Precision::F64, d, d, d).paper_flops()
}

/// Register-resident fused multiply-add throughput of one thread, flop/s:
/// `CHAINS` independent accumulators of `LANES` elements (one 64-byte
/// vector each), enough to cover the FMA latency on both ports.
fn fma_rate<T: Scalar, const LANES: usize>() -> f64 {
    const CHAINS: usize = 10;
    const STEPS: u64 = 400_000;
    let a = black_box(T::from_f64(1.000_000_1));
    let b = black_box(T::from_f64(1e-9));
    let mut acc = [[T::ONE; LANES]; CHAINS];
    let start = Instant::now();
    for _ in 0..STEPS {
        for chain in acc.iter_mut() {
            for lane in chain.iter_mut() {
                *lane = lane.mul_add(a, b);
            }
        }
    }
    let t = start.elapsed().as_secs_f64();
    black_box(&acc);
    (STEPS as f64) * (LANES * CHAINS * 2) as f64 / t
}

/// The engine's micro-kernel on an L1-resident sliver pair, flop/s of one
/// thread — the densest FMA stream this repository can issue (explicit
/// 512-bit SIMD where the compiler's own vectoriser stops at 256 bits).
fn ukernel_rate<T: Scalar>() -> f64 {
    const CALLS: u64 = 20_000;
    let kern = blob_blas::tune::active::<T>(1);
    let (mr, nr, kc) = (kern.geom.mr, kern.geom.nr, 128usize);
    let a = vec![T::from_f64(0.5); mr * kc];
    let b = vec![T::from_f64(0.25); nr * kc];
    let mut acc = vec![T::ZERO; mr * nr];
    let start = Instant::now();
    for _ in 0..CALLS {
        blob_blas::microkernel::run_ukernel(kern.engine, kern.geom, kc, &a, &b, &mut acc);
        black_box(&mut acc);
    }
    CALLS as f64 * 2.0 * (mr * nr * kc) as f64 / start.elapsed().as_secs_f64()
}

/// Peak flop/s of `threads` threads: each of two register-resident FMA
/// streams (the compiler-vectorised loop and the engine's micro-kernel) run
/// concurrently on every thread, five times; the best total wins.
fn peak_flops<T: Scalar, const LANES: usize>(threads: usize) -> f64 {
    let concurrently = |rate: fn() -> f64| -> f64 {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(rate)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(0.0))
                .sum::<f64>()
        })
    };
    (0..5)
        .flat_map(|_| {
            [
                concurrently(fma_rate::<T, LANES>),
                concurrently(ukernel_rate::<T>),
            ]
        })
        .fold(0.0, f64::max)
}

/// Sum of `xs` over 32 independent lanes, so the adds vectorise and the
/// loop is bound by memory, not by one floating-point dependency chain.
fn sum_lanes(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 32];
    let mut blocks = xs.chunks_exact(32);
    for block in &mut blocks {
        for (a, x) in acc.iter_mut().zip(block) {
            *a += *x;
        }
    }
    acc.iter().sum::<f64>() + blocks.remainder().iter().sum::<f64>()
}

/// Sustainable read bandwidth, bytes/s: `threads` threads each sum a
/// contiguous share of `data` (an array at least four times the last-level
/// cache); computed bytes moved (8 per element) per second, best of three.
///
/// A read-only stream, not a triad: GEMV — the kernel compared against it
/// — is read-bound, and three such arrays cost 7 s of first-touch page
/// faults on the reference host where one (shared with the GEMV probe)
/// costs under one.
fn stream_read(data: &[f64], threads: usize) -> f64 {
    let chunk = data.len().div_ceil(threads.max(1)).max(1);
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let total: f64 = std::thread::scope(|s| {
                let handles: Vec<_> = data
                    .chunks(chunk)
                    .map(|part| s.spawn(move || sum_lanes(part)))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
            });
            black_box(total);
            8.0 * data.len() as f64 / start.elapsed().as_secs_f64()
        })
        .fold(0.0, f64::max)
}

/// An in-memory connection: reads one framed request, collects the reply.
struct MemStream {
    input: Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn request(path: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        target: path.to_string(),
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body: body.as_bytes().to_vec(),
    }
}

fn host_and_blas(p: &mut Probes, seed: u64) {
    let t = threads_total();
    let peak64 = peak_flops::<f64, 8>(t);
    p.put("host.peak_gflops_f64", peak64 / 1e9);
    p.put("host.peak_gflops_f32", peak_flops::<f32, 16>(t) / 1e9);
    // One DRAM-resident square matrix serves the bandwidth reference and
    // the DRAM GEMV below (first touch is the expensive part).
    let dram_n = ((dram_operand_bytes() / 8) as f64).sqrt() as usize;
    let dram_matrix = vec![0.5f64; dram_n * dram_n];
    let stream = stream_read(&dram_matrix, t);
    p.put("host.stream_gbs", stream / 1e9);

    let mut rate1024 = 0.0;
    for (d, name) in [
        (64usize, "blas.gemm.gflops_64"),
        (128, "blas.gemm.gflops_128"),
        (256, "blas.gemm.gflops_256"),
        (512, "blas.gemm.gflops_512"),
        (1024, "blas.gemm.gflops_1024"),
    ] {
        let (a, b, mut c) = gemm_operands::<f64>(seed, d);
        let run = || {
            let _ = black_box(gemm_parallel(t, d, d, d, 1.0, &a, d, &b, d, 0.0, &mut c, d));
        };
        let secs = if d >= 512 { heavy(run) } else { light(run) };
        rate1024 = gemm_flops(d) / secs;
        p.put(name, rate1024 / 1e9);
    }
    p.put("blas.gemm.roofline_frac_1024", rate1024 / peak64);
    let mut serial256 = 0.0;
    for (d, name) in [
        (256usize, "blas.gemm.serial_gflops_256"),
        (1024, "blas.gemm.serial_gflops_1024"),
    ] {
        let (a, b, mut c) = gemm_operands::<f64>(seed, d);
        let run = || {
            let _ = black_box(gemm_blocked(d, d, d, 1.0, &a, d, &b, d, 0.0, &mut c, d));
        };
        let secs = if d >= 512 { heavy(run) } else { light(run) };
        if d == 256 {
            serial256 = secs;
        }
        p.put(name, gemm_flops(d) / secs / 1e9);
    }

    // micro-kernel on an L1-resident sliver pair
    let kern = blob_blas::tune::active::<f64>(1);
    let (mr, nr, kc) = (kern.geom.mr, kern.geom.nr, 128usize);
    let a: Vec<f64> = seeded_data(seed, mr * kc);
    let b: Vec<f64> = seeded_data(seed ^ 0xB, nr * kc);
    let mut acc = vec![0.0f64; mr * nr];
    let secs = light(|| {
        blob_blas::microkernel::run_ukernel(kern.engine, kern.geom, kc, &a, &b, &mut acc);
        black_box(&mut acc);
    });
    p.put(
        "blas.ukernel.gflops",
        2.0 * (mr * nr * kc) as f64 / secs / 1e9,
    );

    // packing, against the serial 256³ GEMM it is part of
    let d = 256usize;
    let src: Vec<f64> = seeded_data(seed, d * d);
    let mut buf: Vec<f64> = Vec::new();
    let pack_a = light(|| {
        black_box(blob_blas::pack::pack_a(d, d, &src, d, 1.0, mr, &mut buf));
    });
    let pack_b = light(|| {
        black_box(blob_blas::pack::pack_b(d, d, &src, d, nr, &mut buf));
    });
    let bytes = (d * d * 8) as f64;
    p.put("blas.pack.a_gbs", bytes / pack_a / 1e9);
    p.put("blas.pack.b_gbs", bytes / pack_b / 1e9);
    p.put("blas.pack.share_256", (pack_a + pack_b) / serial256);

    let forkjoin = light(|| parallel_for(t, 0..t, 1, |r| drop(black_box(r))));
    p.put("blas.pool.forkjoin_us", forkjoin * 1e6);

    // GEMV: cache-resident and DRAM-resident, computed bytes = the matrix
    let gemv_rate = |a: &[f64], n: usize, hvy: bool| -> f64 {
        let x = vec![0.25f64; n];
        let mut y = vec![0.0f64; n];
        let run = || {
            let _ = black_box(gemv_parallel(t, n, n, 1.0, a, n, &x, 1, 0.0, &mut y, 1));
        };
        let secs = if hvy { heavy(run) } else { light(run) };
        (n * n * 8) as f64 / secs
    };
    let cache_rate = gemv_rate(&dram_matrix[..1024 * 1024], 1024, false);
    p.put("blas.gemv.gbs_cache", cache_rate / 1e9);
    let dram_rate = gemv_rate(&dram_matrix, dram_n, true);
    p.put("blas.gemv.gbs_dram", dram_rate / 1e9);
    p.put("blas.gemv.stream_frac", dram_rate / stream);
    drop(dram_matrix);

    // the precision plane at 256³, against the serial f32 GEMM
    let (a32, b32, mut c32) = gemm_operands::<f32>(seed, d);
    let f32_secs = light(|| {
        let _ = black_box(gemm_blocked(
            d, d, d, 1.0, &a32, d, &b32, d, 0.0, &mut c32, d,
        ));
    });
    let (ah, bh, mut ch) = gemm_operands::<Bf16>(seed, d);
    let half_secs = light(|| {
        let _ = black_box(gemm_half(
            Precision::Bf16,
            d,
            d,
            d,
            1.0,
            &ah,
            d,
            &bh,
            d,
            0.0,
            &mut ch,
            d,
        ));
    });
    p.put("blas.half.gflops_256", gemm_flops(d) / half_secs / 1e9);
    p.put("blas.half.over_f32_256", half_secs / f32_secs);
    let generic_bf16 = heavy(|| {
        let _ = black_box(gemm_parallel(
            t,
            d,
            d,
            d,
            Bf16::ONE,
            &ah,
            d,
            &bh,
            d,
            Bf16::ZERO,
            &mut ch,
            d,
        ));
    });
    p.put(
        "blas.half.generic_bf16_gflops_256",
        gemm_flops(d) / generic_bf16 / 1e9,
    );
    let (af, bf, mut cf) = gemm_operands::<F16>(seed, d);
    let generic_f16 = once(|| {
        let _ = black_box(gemm_parallel(
            t,
            d,
            d,
            d,
            F16::ONE,
            &af,
            d,
            &bf,
            d,
            F16::ZERO,
            &mut cf,
            d,
        ));
    });
    p.put(
        "blas.half.generic_f16_gflops_256",
        gemm_flops(d) / generic_f16 / 1e9,
    );
    let (a64, b64, mut c64) = gemm_operands::<f64>(seed, d);
    for (k, name) in [
        (2u8, "blas.emul.gflops_k2_256"),
        (3, "blas.emul.gflops_k3_256"),
        (4, "blas.emul.gflops_k4_256"),
    ] {
        let mut calls = 0usize;
        let secs = heavy(|| {
            if let Ok(report) = gemm_emul(
                Precision::F64Emul(k),
                d,
                d,
                d,
                1.0,
                &a64,
                d,
                &b64,
                d,
                0.0,
                &mut c64,
                d,
            ) {
                calls = report.f32_gemm_calls;
            }
        });
        p.put(name, gemm_flops(d) / secs / 1e9);
        if k == 3 {
            p.put("blas.emul.f32_calls_k3", calls as f64);
            p.put("blas.emul.over_f32_k3_256", secs / (9.0 * f32_secs));
        }
    }
}

fn sim_core_analysis(p: &mut Probes) {
    let t = threads_total();
    let dawn = presets::dawn();
    // a few shapes in rotation, so the model is not asked one question
    let calls: Vec<BlasCall> = [64usize, 300, 629, 1500]
        .iter()
        .map(|&d| BlasCall::gemm(Precision::F32, d, d, d))
        .collect();
    let mut i = 0usize;
    let mut next = move || {
        i = (i + 1) % calls.len();
        calls[i]
    };
    let cpu = light(|| {
        black_box(dawn.cpu_seconds(&next(), 8));
    });
    p.put("sim.cpu_seconds_ns", cpu * 1e9);
    let mut gpu_total = 0.0;
    for (offload, name) in [
        (Offload::TransferOnce, "sim.gpu_seconds_ns_once"),
        (Offload::TransferAlways, "sim.gpu_seconds_ns_always"),
        (Offload::Unified, "sim.gpu_seconds_ns_usm"),
    ] {
        let secs = light(|| {
            black_box(dawn.gpu_seconds(&next(), 8, offload));
        });
        gpu_total += secs;
        p.put(name, secs * 1e9);
    }

    let square = Problem::Gemm(GemmProblem::Square);
    let cfg = SweepConfig::new(1, 4096, 8);
    let serial = heavy(|| {
        black_box(run_sweep(&dawn, square, Precision::F32, &cfg));
    });
    p.put("core.runner.point_ns", serial / 4096.0 * 1e9);
    p.put(
        "core.runner.self_ns",
        (serial / 4096.0 - cpu - gpu_total) * 1e9,
    );
    let pool = ThreadPool::new(t);
    let shared = Arc::new(dawn.clone());
    let pooled = heavy(|| {
        black_box(run_sweep_pooled(
            Arc::clone(&shared),
            square,
            Precision::F32,
            &cfg,
            &pool,
        ));
    });
    p.put("core.runner.pooled_speedup", serial / pooled);
    drop(pool);

    // a short band sweep on the host: wall against the kernel seconds the
    // backend reports (the rest is operand allocation and fill)
    let host = HostCpu::with_threads(t);
    let band = SweepConfig::new(32, 256, 8).with_step(32);
    let fracs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let sweep = run_sweep(&host, square, Precision::F64, &band);
            let wall = start.elapsed().as_secs_f64();
            let timed: f64 = sweep.records.iter().map(|r| r.cpu_seconds).sum();
            (wall - timed) / wall
        })
        .collect();
    p.put("core.runner.host_untimed_frac", median(&fracs));

    let sweep = run_sweep(&dawn, square, Precision::F32, &cfg);
    let detect = light(|| {
        black_box(sweep.threshold(Offload::TransferOnce));
    });
    p.put("core.threshold.detect_ns_4096", detect * 1e9);

    let body = advise_body(7);
    p.put(
        "core.wire.parse_ns",
        light(|| {
            let _ = black_box(Json::parse(&body));
        }) * 1e9,
    );
    if let Ok(doc) = Json::parse(&body) {
        p.put(
            "core.schema.parse_call_ns",
            light(|| {
                let _ = black_box(schema::parse_call(&doc, 1 << 16));
            }) * 1e9,
        );
    }
    let call = BlasCall::gemm(Precision::F32, 629, 629, 629);
    p.put(
        "core.advisor.advise_ns",
        light(|| {
            black_box(advise(&dawn, &call, 8, Offload::TransferOnce));
        }) * 1e9,
    );
    let advice = advise(&dawn, &call, 8, Offload::TransferOnce);
    p.put(
        "core.wire.encode_ns",
        light(|| {
            black_box(advice_json(&advice).encode());
        }) * 1e9,
    );
    let small = run_sweep(&dawn, square, Precision::F32, &SweepConfig::new(1, 256, 8));
    p.put(
        "core.wire.sweep_json_us",
        light(|| {
            black_box(sweep_json(&small).encode());
        }) * 1e6,
    );
    p.put(
        "core.fault.point_ns_disabled",
        light(|| {
            let _ = black_box(fault::point(fault::sites::RUNNER_SIZE));
        }) * 1e9,
    );
    p.put(
        "analysis.tables_us",
        light(model_tables::render_closure()) * 1e6,
    );
}

fn dispatch_layer(p: &mut Probes, seed: u64) {
    let dawn = presets::dawn();
    let trace = mixed_trace(seed, TRACE_CALLS);
    let calls = trace.len() as f64;
    let mut d = Dispatcher::new(ModelExecutor::new(dawn.clone()));
    let both = light(|| {
        for (site, call) in &trace {
            let decision = d.decide(*site, call);
            black_box(d.complete(*site, call, decision, decision.cpu_estimate));
        }
    }) / calls;
    let decide = light(|| {
        for (site, call) in &trace {
            black_box(d.decide(*site, call));
        }
    }) / calls;
    p.put("dispatch.decide_ns", decide * 1e9);
    p.put("dispatch.complete_ns", (both - decide).max(0.0) * 1e9);

    let mut timed = Dispatcher::new(TimedExecutor::new(ModelExecutor::new(dawn.clone())));
    for _ in 0..2_000 {
        for (site, call) in &trace {
            black_box(timed.call(*site, call));
        }
    }
    let (seam_calls, seam_ns) = timed.executor().drain();
    p.put(
        "dispatch.exec_ns",
        seam_ns as f64 / seam_calls.max(1) as f64,
    );

    let (flip_ratio, gpu_share, regret) = quality(&replay(&dawn, seed, TRACE_CALLS));
    p.put("dispatch.flip_ratio", flip_ratio);
    p.put("dispatch.gpu_share", gpu_share);
    p.put("dispatch.regret_vs_oracle", regret);
}

fn serve_layer(p: &mut Probes) {
    let framed = post("/v1/advise", &advise_body(7));
    let head_end = framed
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or(framed.len());
    p.put(
        "serve.http.parse_head_ns",
        light(|| {
            let _ = black_box(parse_head(&framed[..head_end]));
        }) * 1e9,
    );
    let limits = Limits::default();
    let reply = Response::json(200, advise_body(7));
    p.put(
        "serve.http.conn_roundtrip_ns",
        light(|| {
            let mut conn = Conn::new(MemStream {
                input: Cursor::new(framed.clone()),
                output: Vec::with_capacity(512),
            });
            let got = conn.read_request(&limits);
            let _ = black_box(conn.write_response(&reply));
            black_box(got.is_ok());
        }) * 1e9,
    );

    let app = App::new(256, 8, false);
    let advise_req = request("/v1/advise", &advise_body(7));
    p.put(
        "serve.api.advise_ns",
        light(|| {
            black_box(app.handle(&advise_req));
        }) * 1e9,
    );
    let dispatch_req = request(
        "/v1/dispatch",
        r#"{"system":"dawn","op":"gemm","m":300,"n":300,"k":300,"precision":"f32","site":4,"session":"ledger"}"#,
    );
    p.put(
        "serve.api.dispatch_ns",
        light(|| {
            black_box(app.handle(&dispatch_req));
        }) * 1e9,
    );
    let metrics = Metrics::new();
    p.put(
        "serve.metrics.record_ns",
        light(|| metrics.endpoint("advise").record(200, black_box(52))) * 1e9,
    );
    let hit_req = request("/v1/threshold", &threshold_body(0));
    black_box(app.handle(&hit_req));
    p.put(
        "serve.api.threshold_hit_ns",
        light(|| {
            black_box(app.handle(&hit_req));
        }) * 1e9,
    );
    // cycling over four times the cache's capacity never hits
    let miss_reqs: Vec<Request> = (0..crate::gen::THRESHOLD_KEYS)
        .map(|i| request("/v1/threshold", &threshold_body(i)))
        .collect();
    let mut at = 0usize;
    p.put(
        "serve.api.threshold_miss_us",
        per_call(5e-3, 6, || {
            at = (at + 1) % miss_reqs.len();
            black_box(app.handle(&miss_reqs[at]));
        }) * 1e6,
    );

    let cache: ShardedCache<Json> = ShardedCache::new(256, 8);
    let keys: Vec<String> = (0..1024)
        .map(|i| format!("DAWN|gemm_square|f32|8|1|{i}|1"))
        .collect();
    let mut at = 0usize;
    p.put(
        "serve.cache.insert_ns",
        light(|| {
            at = (at + 1) % keys.len();
            black_box(cache.insert(keys[at].clone(), Json::Null));
        }) * 1e9,
    );
    let resident = keys[at].clone();
    p.put(
        "serve.cache.get_ns",
        light(|| {
            black_box(cache.get(&resident));
        }) * 1e9,
    );
    let ring = Ring::new(4);
    p.put(
        "serve.fabric.route_ns",
        light(|| {
            let bucket = shape_bucket(black_box(&[300, 300, 300]));
            let key = format!("dawn|gemm|{bucket}");
            black_box(ring.preference(hash64(key.as_bytes())));
        }) * 1e9,
    );

    // The trace plane last: these probes switch it on, and it is
    // process-global. `advise_traced_ns` is what a running server pays per
    // request once the sink is at its cap.
    let disabled = light(|| drop(trace::span("ledger.probe", "ledger")));
    p.put("core.trace.span_ns_disabled", disabled * 1e9);
    trace::enable();
    let root = trace::span("ledger.probe", "ledger");
    let enabled = light(|| drop(trace::span("ledger.probe", "ledger")));
    drop(root);
    p.put("core.trace.span_ns_enabled", enabled * 1e9);
    // Fill the sink to its cap with children of one root: they publish in
    // batches, where lone root spans would each pay the full-sink drain.
    let root = trace::span("ledger.probe", "ledger");
    for _ in 0..=trace::SINK_CAP {
        drop(trace::span("ledger.probe", "ledger"));
    }
    drop(root);
    p.put(
        "core.trace.publish_ns_full",
        per_call(2e-3, 6, || drop(trace::span("ledger.probe", "ledger"))) * 1e9,
    );
    p.put(
        "serve.api.advise_traced_ns",
        per_call(2e-3, 6, || {
            black_box(app.handle(&advise_req));
        }) * 1e9,
    );
    trace::disable();
    trace::clear();
}

/// Runs every probe; `(metric name, value)` in the spec's units.
pub fn run(seed: u64) -> Vec<(&'static str, f64)> {
    trace::disable();
    trace::clear();
    let mut p = Probes::default();
    host_and_blas(&mut p, seed);
    sim_core_analysis(&mut p);
    dispatch_layer(&mut p, seed);
    serve_layer(&mut p);
    p.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(black_box(i));
                }
                black_box(x);
            }
        };
        let small = per_call(2e-4, 6, spin(1_000));
        let large = per_call(2e-4, 6, spin(10_000));
        assert!(small > 0.0 && large > 3.0 * small, "{small} vs {large}");
    }

    #[test]
    fn mem_stream_round_trips_one_request() {
        let framed = post("/v1/advise", &advise_body(1));
        let mut conn = Conn::new(MemStream {
            input: Cursor::new(framed),
            output: Vec::new(),
        });
        let got = conn
            .read_request(&Limits::default())
            .expect("request parses");
        assert_eq!(got.target, "/v1/advise");
        assert!(!got.body.is_empty());
    }
}
