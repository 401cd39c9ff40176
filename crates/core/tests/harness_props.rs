//! Property-based tests of the harness: problem-type generators, CSV
//! round-trips, and custom-problem parsing.
//!
//! Driven by `blob_core::testkit`; a failing case prints its seed for
//! replay with `testkit::run_case`.

use blob_core::csv::{parse_csv, to_csv_string};
use blob_core::custom::Family;
use blob_core::problem::{GemmProblem, GemvProblem, Problem};
use blob_core::runner::{run_sweep, SweepConfig};
use blob_core::testkit::{forall, Config, Gen};
use blob_sim::{presets, KernelKind, Precision};

fn any_problem(g: &mut Gen) -> Problem {
    if g.chance(0.5) {
        Problem::Gemm(*g.choose(&GemmProblem::ALL))
    } else {
        Problem::Gemv(*g.choose(&GemvProblem::ALL))
    }
}

/// Every generated size respects the [s, d] contract and its own
/// problem-type definition.
#[test]
fn problem_dims_respect_range() {
    forall(Config::default().cases(48), |g| {
        let problem = any_problem(g);
        let s = g.usize_in(1, 63);
        let extra = g.usize_in(0, 511);
        let step = g.usize_in(1, 31);
        let d = s + extra;
        for p in problem.params(s, d, step) {
            let (m, n, k) = problem.dims(p).dims();
            assert!(m >= 1 && n >= 1 && k >= 1);
            assert!(
                m <= d && n <= d && k <= d,
                "{problem:?} p={p}: {m},{n},{k} vs d={d}"
            );
            match problem.kind() {
                KernelKind::Gemm => {}
                KernelKind::Gemv => assert_eq!(k, 1),
            }
        }
    });
}

/// Params are strictly increasing and end exactly at the range cap.
#[test]
fn params_strictly_increasing() {
    forall(Config::default().cases(48), |g| {
        let problem = any_problem(g);
        let d = g.usize_in(32, 1023);
        let step = g.usize_in(1, 63);
        let ps = problem.params(1, d, step);
        if ps.is_empty() {
            // only the fixed-32 types with d < 32 may be empty
            assert!(d < 32);
            return;
        }
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*ps.last().unwrap(), problem.max_param(d));
    });
}

/// CSV serialisation round-trips every numeric field of a sweep.
#[test]
fn csv_round_trip_lossless() {
    forall(Config::default().cases(48), |g| {
        let problem = any_problem(g);
        let d = g.usize_in(4, 39);
        let iters = g.usize_in(1, 63) as u32;
        let sys = match g.usize_in(0, 2) {
            0 => presets::dawn(),
            1 => presets::lumi(),
            _ => presets::isambard_ai(),
        };
        let sweep = run_sweep(
            &sys,
            problem,
            Precision::F64,
            &SweepConfig::new(1, d, iters),
        );
        let rows = parse_csv(&to_csv_string(&sweep)).unwrap();
        assert_eq!(rows.len(), sweep.records.len() * 4);
        for r in &sweep.records {
            let (m, n, k) = r.kernel.dims();
            let row = rows
                .iter()
                .find(|x| x.device == "cpu" && (x.m, x.n, x.k) == (m, n, k))
                .expect("cpu row present");
            assert!((row.seconds - r.cpu_seconds).abs() / r.cpu_seconds < 1e-6);
            assert_eq!(row.iterations, sweep.iterations);
        }
    });
}

/// Custom-problem parsing accepts every spec its printer would write
/// and respects the range contract.
#[test]
fn custom_specs_well_behaved() {
    forall(Config::default().cases(48), |g| {
        let mf = g.usize_in(1, 19);
        let nf = g.usize_in(1, 19);
        let kdiv = g.usize_in(1, 19);
        let d = g.usize_in(64, 2047);
        let spec = format!("gemm:{mf}p,{nf}p,p/{kdiv}");
        let p = Family::parse(&spec).unwrap();
        for param in p.params(1, d, 7) {
            let (m, n, k) = p.dims(param).dims();
            assert_eq!(m, mf * param);
            assert_eq!(n, nf * param);
            assert_eq!(k, (param / kdiv).max(1));
            assert!(m <= d && n <= d && k <= d);
        }
    });
}

/// The sweep's GFLOP/s always equals paper-FLOPs x iters / seconds.
#[test]
fn gflops_accounting_consistent() {
    forall(Config::default().cases(48), |g| {
        let problem = any_problem(g);
        let d = g.usize_in(4, 31);
        let iters = g.usize_in(1, 15) as u32;
        let sys = presets::lumi();
        let sweep = run_sweep(
            &sys,
            problem,
            Precision::F32,
            &SweepConfig::new(1, d, iters),
        );
        for r in &sweep.records {
            let call = blob_sim::BlasCall {
                kernel: r.kernel,
                precision: Precision::F32,
                alpha: 1.0,
                beta: 0.0,
            };
            let expect = iters as f64 * call.paper_flops() / r.cpu_seconds / 1e9;
            assert!((r.cpu_gflops - expect).abs() / expect < 1e-9);
            for gpu in &r.gpu {
                let eg = iters as f64 * call.paper_flops() / gpu.seconds / 1e9;
                assert!((gpu.gflops - eg).abs() / eg < 1e-9);
            }
        }
    });
}
