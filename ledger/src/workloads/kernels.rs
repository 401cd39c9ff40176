//! The four kernel workloads. All of them time the host BLAS through the
//! `Backend` fixed point (`HostCpu::cpu_seconds`, and `run_sweep` for the
//! band), so a later refactor of the GEMM entry points is measured without
//! editing this file.
//!
//! Timing protocol: passes over a fixed item list repeat until the timed
//! period is spent (at least three passes); each item's time is the quiet
//! decile of its per-pass samples (`crate::stats`). The seed rotates the
//! order of items within each pass and seeds the validation operands; the
//! multiset of work is the same for every seed.

use super::{period_spent, Ctx, Outcome};
use crate::checks;
use crate::gen::permutation;
use crate::platform::{dram_operand_bytes, llc_bytes, threads_total};
use crate::seams::TimedHost;
use crate::spans;
use crate::stats::{geomean, mean, median, quiet, quiet_tail};
use blob_core::problem::GemmProblem;
use blob_core::wire::precision_key;
use blob_core::{run_sweep, Backend, HostCpu, Problem, SweepConfig};
use blob_sim::{BlasCall, Kernel, Precision};
use std::time::Instant;

/// One timed `(call, iterations, threads)` of a pass.
struct Item {
    label: String,
    call: BlasCall,
    iters: u32,
    threads: usize,
}

impl Item {
    fn new(call: BlasCall, iters: u32, threads: usize) -> Self {
        let shape = match call.kernel {
            Kernel::Gemm { m, n, k } => format!("gemm_{m}x{n}x{k}"),
            Kernel::Gemv { m, n } => format!("gemv_{m}x{n}"),
        };
        Item {
            label: format!("{shape}.{}.t{threads}", precision_key(call.precision)),
            call,
            iters,
            threads,
        }
    }

    fn flops(&self) -> f64 {
        f64::from(self.iters) * self.call.paper_flops()
    }
}

/// Per-item samples and per-pass wall times of one timed period.
struct Timings {
    /// `samples[i]`: seconds of item `i`, one per pass.
    samples: Vec<Vec<f64>>,
    /// Wall seconds of each pass (timed kernels plus the harness's untimed
    /// operand allocation and fill).
    pass_wall: Vec<f64>,
}

impl Timings {
    /// The protocol value of item `i`, seconds.
    fn seconds(&self, i: usize) -> f64 {
        quiet(&self.samples[i])
    }
}

fn host(threads: usize, traced: bool) -> Box<dyn Backend> {
    let inner = HostCpu::with_threads(threads);
    if traced {
        Box::new(TimedHost { inner })
    } else {
        Box::new(inner)
    }
}

/// Warm-up pass, end of set-up, then timed passes over `items`.
/// `None` when the run stops after set-up.
fn time_items(ctx: &mut Ctx, items: &[Item]) -> Option<Timings> {
    let backends: Vec<Box<dyn Backend>> = items
        .iter()
        .map(|it| host(it.threads, ctx.traced))
        .collect();
    for (item, backend) in items.iter().zip(&backends) {
        std::hint::black_box(backend.cpu_seconds(&item.call, item.iters));
    }
    if ctx.traced {
        drop(spans::take()); // warm-up spans are not part of the timed period
    }
    if ctx.ready() {
        return None;
    }
    let mut t = Timings {
        samples: vec![Vec::new(); items.len()],
        pass_wall: Vec::new(),
    };
    let root = ctx.traced.then(|| spans::open("ledger.workload"));
    let started = Instant::now();
    while !period_spent(started, ctx.seconds, t.pass_wall.len()) {
        let pass = Instant::now();
        for i in permutation(ctx.seed.wrapping_add(t.pass_wall.len() as u64), items.len()) {
            let secs = backends[i].cpu_seconds(&items[i].call, items[i].iters);
            t.samples[i].push(secs);
        }
        t.pass_wall.push(pass.elapsed().as_secs_f64());
    }
    drop(root);
    Some(t)
}

/// Fills the latency fields from the seconds of each pass and validates
/// every distinct `(kernel, precision)` of `calls` once.
fn finish(ctx: &Ctx, out: &mut Outcome, pass_s: &[f64], calls: &[BlasCall]) {
    out.p50_us = quiet(pass_s) * 1e6;
    out.tail_us = quiet_tail(pass_s) * 1e6;
    out.samples = pass_s.len();
    out.detail("passes", pass_s.len() as f64, "count");
    let mut seen: Vec<(Kernel, Precision)> = Vec::new();
    for call in calls {
        if seen.contains(&(call.kernel, call.precision)) {
            continue;
        }
        seen.push((call.kernel, call.precision));
        checks::validate(out, call, ctx.seed);
    }
    let mut precisions: Vec<Precision> = Vec::new();
    for (_, p) in seen {
        if !precisions.contains(&p) {
            precisions.push(p);
            checks::golden(out, p, ctx.seed);
        }
    }
    out.attach_trace(ctx);
}

/// Checks every sample is a positive finite time and records per-item
/// GFLOP/s details; returns per-item flop/s.
fn item_rates(out: &mut Outcome, items: &[Item], t: &Timings) -> Vec<f64> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let sane = t.samples[i].iter().all(|s| s.is_finite() && *s > 0.0);
            out.check(sane, || format!("{}: non-positive timing", item.label));
            let rate = item.flops() / t.seconds(i);
            out.detail(format!("gflops.{}", item.label), rate / 1e9, "GFLOP/s");
            rate
        })
        .collect()
}

/// `gemm_band`: square GEMM sweeps over the threshold band, dims 8..=256
/// step 8 at 32 iterations, f32 and f64, `T` threads, through `run_sweep`.
pub fn gemm_band(ctx: &mut Ctx) -> Result<Outcome, String> {
    let (traced, seed, seconds) = (ctx.traced, ctx.seed, ctx.seconds);
    let backend = host(threads_total(), traced);
    let cfg = SweepConfig::new(8, 256, 32).with_step(8);
    let problem = Problem::Gemm(GemmProblem::Square);
    let sweep_pair = |order: &[usize]| -> Vec<blob_core::Sweep> {
        let mut sweeps: Vec<Option<blob_core::Sweep>> = vec![None, None];
        for &p in order {
            let _span = traced.then(|| spans::open("core.run_sweep"));
            sweeps[p] = Some(run_sweep(&*backend, problem, Precision::ALL[p], &cfg));
        }
        sweeps.into_iter().flatten().collect()
    };
    std::hint::black_box(sweep_pair(&[0, 1]));
    if traced {
        drop(spans::take());
    }
    let mut out = Outcome::default();
    if ctx.ready() {
        return Ok(out);
    }
    let mut samples: Vec<Vec<f64>> = Vec::new();
    let mut calls: Vec<BlasCall> = Vec::new();
    let mut pass_wall = Vec::new();
    let root = traced.then(|| spans::open("ledger.workload"));
    let started = Instant::now();
    while !period_spent(started, seconds, pass_wall.len()) {
        let pass = Instant::now();
        let order = permutation(seed.wrapping_add(pass_wall.len() as u64), 2);
        let sweeps = sweep_pair(&order);
        pass_wall.push(pass.elapsed().as_secs_f64());
        let records = sweeps.iter().flat_map(|s| {
            s.records
                .iter()
                .map(move |r| (BlasCall::gemm(s.precision, r.param, r.param, r.param), r))
        });
        for (i, (call, record)) in records.enumerate() {
            if samples.len() <= i {
                samples.push(Vec::new());
                calls.push(call);
            }
            samples[i].push(record.cpu_seconds);
        }
    }
    drop(root);
    out.check(samples.len() == 64, || {
        format!("expected 64 sweep points per pass, saw {}", samples.len())
    });
    let iters = f64::from(cfg.iterations());
    let mut rates = Vec::new();
    for (call, s) in calls.iter().zip(&samples) {
        out.check(s.iter().all(|t| t.is_finite() && *t > 0.0), || {
            format!("{call:?}: non-positive timing")
        });
        rates.push(iters * call.paper_flops() / quiet(s));
    }
    out.ops_per_s = mean(&rates);
    out.detail("gflops", out.ops_per_s / 1e9, "GFLOP/s");
    for p in [0usize, 1] {
        let of_precision: Vec<f64> = calls
            .iter()
            .zip(&rates)
            .filter(|(c, _)| c.precision == Precision::ALL[p])
            .map(|(_, r)| *r)
            .collect();
        out.detail(
            format!("gflops.{}", precision_key(Precision::ALL[p])),
            mean(&of_precision) / 1e9,
            "GFLOP/s",
        );
    }
    out.detail("sweep_s", median(&pass_wall), "s");
    let timed: f64 = samples.iter().map(|s| median(s)).sum();
    out.detail(
        "host_untimed_frac",
        1.0 - timed / median(&pass_wall).max(f64::MIN_POSITIVE),
        "ratio",
    );
    finish(ctx, &mut out, &pass_wall, &calls);
    Ok(out)
}

/// `gemm_large`: 512³, 768³, 1024³ in f32 and f64, at `T` threads and at
/// one thread, every pass. The reported figures come from the one-thread
/// items only: `ops_per_s` is their flops over their time and the timed
/// operation is one pass over the six of them. The `T`-thread items are
/// timed beside them and printed (`gflops`, `parallel_speedup`) but carry
/// no bound: the reference host's two vCPUs are at times two cores and at
/// times one, for minutes on end (1024³ f32 at two threads reads 145 or
/// 78 GFLOP/s while one thread holds 78–81), and no same-code pair of
/// runs agrees on a figure with that factor in it.
pub fn gemm_large(ctx: &mut Ctx) -> Result<Outcome, String> {
    let t = threads_total();
    let mut items = Vec::new();
    for threads in [t, 1] {
        for precision in Precision::ALL {
            for d in [512usize, 768, 1024] {
                items.push(Item::new(BlasCall::gemm(precision, d, d, d), 1, threads));
            }
        }
    }
    let serial = items.len() / 2..items.len();
    let mut out = Outcome::default();
    let Some(timings) = time_items(ctx, &items) else {
        return Ok(out);
    };
    item_rates(&mut out, &items, &timings);
    let rate_of = |range: std::ops::Range<usize>| -> f64 {
        let flops: f64 = items[range.clone()].iter().map(Item::flops).sum();
        let secs: f64 = range.map(|i| timings.seconds(i)).sum();
        flops / secs
    };
    out.ops_per_s = rate_of(serial.clone());
    out.detail("gflops", rate_of(0..serial.start) / 1e9, "GFLOP/s");
    out.detail("gflops_serial", out.ops_per_s / 1e9, "GFLOP/s");
    out.detail(
        "parallel_speedup",
        rate_of(0..serial.start) / out.ops_per_s,
        "ratio",
    );
    let serial_pass: Vec<f64> = (0..timings.pass_wall.len())
        .map(|pass| serial.clone().map(|i| timings.samples[i][pass]).sum())
        .collect();
    let calls: Vec<BlasCall> = items.iter().map(|it| it.call).collect();
    finish(ctx, &mut out, &serial_pass, &calls);
    Ok(out)
}

/// `gemv_stream`: GEMV f64/f32 at 1024², 4096², 8192×64, 64×8192 and one
/// f64 square that does not fit the last-level cache, at `T` threads and
/// at one thread. `ops_per_s` is the mean over items of per-item flop/s.
pub fn gemv_stream(ctx: &mut Ctx) -> Result<Outcome, String> {
    let t = threads_total();
    let dram_n = ((dram_operand_bytes() / 8) as f64).sqrt() as usize;
    let mut items = Vec::new();
    for threads in [t, 1] {
        for precision in Precision::ALL {
            for (m, n, iters) in [
                (1024usize, 1024usize, 16u32),
                (4096, 4096, 2),
                (8192, 64, 32),
                (64, 8192, 32),
            ] {
                items.push(Item::new(BlasCall::gemv(precision, m, n), iters, threads));
            }
        }
        items.push(Item::new(
            BlasCall::gemv(Precision::F64, dram_n, dram_n),
            2,
            threads,
        ));
    }
    let mut out = Outcome::default();
    out.detail("llc_mib", llc_bytes() as f64 / (1 << 20) as f64, "MiB");
    out.detail(
        "dram_matrix_mib",
        (dram_n * dram_n * 8) as f64 / (1 << 20) as f64,
        "MiB",
    );
    let Some(timings) = time_items(ctx, &items) else {
        return Ok(out);
    };
    let rates = item_rates(&mut out, &items, &timings);
    let mean_where = |threads: usize| -> f64 {
        let kept: Vec<f64> = items
            .iter()
            .zip(&rates)
            .filter(|(it, _)| it.threads == threads)
            .map(|(_, r)| *r)
            .collect();
        mean(&kept)
    };
    out.ops_per_s = mean(&rates);
    out.detail("gflops", mean_where(t) / 1e9, "GFLOP/s");
    out.detail("gflops_serial", mean_where(1) / 1e9, "GFLOP/s");
    // Bytes moved are computed from operand sizes, not measured.
    let dram_bytes = (dram_n * dram_n * 8) as f64 * 2.0;
    if let Some(i) = items.iter().position(|it| {
        it.threads == t
            && it.call.kernel
                == (Kernel::Gemv {
                    m: dram_n,
                    n: dram_n,
                })
    }) {
        out.detail(
            "dram_gbs_computed",
            dram_bytes / timings.seconds(i) / 1e9,
            "GB/s",
        );
    }
    let calls: Vec<BlasCall> = items.iter().map(|it| it.call).collect();
    finish(ctx, &mut out, &timings.pass_wall, &calls);
    Ok(out)
}

/// `precision_ladder`: 256³ at `T` threads for bf16, f16 and f64-emul3 —
/// the path `--system host --precision …` takes — with f32, f64, emul2 and
/// emul4 timed in the same passes as references. `ops_per_s` is the
/// geometric mean of the three measured rungs' useful flop/s.
pub fn precision_ladder(ctx: &mut Ctx) -> Result<Outcome, String> {
    let t = threads_total();
    let rung = |p: Precision, iters: u32| Item::new(BlasCall::gemm(p, 256, 256, 256), iters, t);
    let items = vec![
        rung(Precision::Bf16, 1),
        rung(Precision::F16, 1),
        rung(Precision::F64Emul(3), 4),
        rung(Precision::F32, 16),
        rung(Precision::F64, 16),
        rung(Precision::F64Emul(2), 4),
        rung(Precision::F64Emul(4), 4),
    ];
    let mut out = Outcome::default();
    let Some(timings) = time_items(ctx, &items) else {
        return Ok(out);
    };
    let rates = item_rates(&mut out, &items, &timings);
    out.ops_per_s = geomean(&rates[..3]);
    out.detail("gflops_half", geomean(&rates[..2]) / 1e9, "GFLOP/s");
    out.detail("gflops_emul", rates[2] / 1e9, "GFLOP/s");
    out.detail("half_over_f32", rates[3] / geomean(&rates[..2]), "ratio");
    // time of one emul3 GEMM over nine f32 GEMMs (ROADMAP item 2's 1.3× target)
    out.detail("emul3_over_9_f32", rates[3] / rates[2] / 9.0, "ratio");
    let calls: Vec<BlasCall> = items.iter().map(|it| it.call).collect();
    finish(ctx, &mut out, &timings.pass_wall, &calls);
    Ok(out)
}
