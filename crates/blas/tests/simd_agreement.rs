//! SIMD ↔ scalar bit-agreement property tests.
//!
//! Every explicit-SIMD kernel variant must produce **bit-identical** output
//! to the portable scalar fallback: the GEMM micro-kernels compute each
//! accumulator element as the same ordered FMA chain over `k`, and the
//! axpy kernels apply one FMA per element in index order. This suite
//! sweeps every `(engine, geometry, element type)` the host can run — under
//! `GPU_BLOB_NO_SIMD=1` the SIMD engines report unavailable through
//! `Engine::detect`, but `available()` still sees the hardware, so the same
//! binary exercises both paths in CI.
//!
//! Edge cases required by the issue: partial tiles (`mr_eff < mr`,
//! `nr_eff < nr`), `k = 0`, and `beta = 0` write-only semantics.

use blob_blas::gemm::BlockConfig;
use blob_blas::microkernel::{
    axpy_update_with, candidates, run_ukernel, ukernel_dyn, Engine, Geometry,
};
use blob_blas::scalar::Scalar;
use blob_blas::tune::TunedKernel;
use blob_blas::{gemm_blocked_tuned, gemm_ref};

/// Engines with explicit-SIMD kernels that this host can actually run.
fn simd_engines() -> Vec<Engine> {
    [Engine::Avx2Fma, Engine::Avx512]
        .into_iter()
        .filter(|e| e.available())
        .collect()
}

fn fill<T: Scalar>(n: usize, seed: usize) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * 31 + seed * 17 + 3) % 61) as f64 * 0.125 - 3.5))
        .collect()
}

/// Widened to f64, exactly: equal iff the elements are.
fn wide<T: Scalar>(v: &[T]) -> Vec<f64> {
    v.iter().map(|x| x.to_f64()).collect()
}

fn ukernel_agrees<T: Scalar>(engine: Engine) {
    for &geom in candidates(engine, T::PRECISION.bytes()) {
        for kc in [0usize, 1, 7, 64] {
            let a: Vec<T> = fill(kc * geom.mr, 1);
            let b: Vec<T> = fill(kc * geom.nr, 2);
            let seed: Vec<T> = fill(geom.acc_len(), 3);
            let mut simd = seed.clone();
            run_ukernel(engine, geom, kc, &a, &b, &mut simd);
            let mut scalar = seed;
            ukernel_dyn(geom, kc, &a, &b, &mut scalar);
            assert_eq!(
                wide(&simd),
                wide(&scalar),
                "ukernel {engine:?} {geom} kc={kc} ({}) diverged from scalar",
                std::any::type_name::<T>()
            );
        }
    }
}

#[test]
fn ukernel_variants_bitwise_match_scalar() {
    for engine in simd_engines() {
        ukernel_agrees::<f64>(engine);
        ukernel_agrees::<f32>(engine);
    }
}

fn gemm_agrees<T: Scalar>(engine: Engine, geom: Geometry) {
    // Odd sizes force partial edge tiles in both dimensions.
    let (m, n, k) = (geom.mr * 2 + 3, geom.nr * 3 + 1, 37);
    let a: Vec<T> = fill(m * k, 4);
    let b: Vec<T> = fill(k * n, 5);
    let seed: Vec<T> = fill(m * n, 6);
    let block = BlockConfig::new(16, 24, 32); // several blocks per dim
    for (alpha, beta) in [
        (T::ONE, T::ZERO),
        (T::from_f64(1.5), T::ONE),
        (T::from_f64(-0.5), T::from_f64(2.0)),
    ] {
        let simd_kern = TunedKernel {
            engine,
            geom,
            block,
        };
        let scalar_kern = TunedKernel {
            engine: Engine::Scalar,
            geom,
            block,
        };
        let mut c_simd = seed.clone();
        gemm_blocked_tuned(
            &simd_kern,
            m,
            n,
            k,
            alpha,
            &a,
            m,
            &b,
            k,
            beta,
            &mut c_simd,
            m,
        )
        .expect("simd gemm");
        let mut c_scalar = seed.clone();
        gemm_blocked_tuned(
            &scalar_kern,
            m,
            n,
            k,
            alpha,
            &a,
            m,
            &b,
            k,
            beta,
            &mut c_scalar,
            m,
        )
        .expect("scalar gemm");
        assert_eq!(
            wide(&c_simd),
            wide(&c_scalar),
            "gemm {engine:?} {geom} alpha/beta case diverged from scalar"
        );
    }
}

#[test]
fn gemm_edge_tiles_bitwise_match_scalar() {
    for engine in simd_engines() {
        for &geom in candidates(engine, 8) {
            gemm_agrees::<f64>(engine, geom);
        }
        for &geom in candidates(engine, 4) {
            gemm_agrees::<f32>(engine, geom);
        }
    }
}

#[test]
fn gemm_beta_zero_overwrites_nan_garbage_on_simd_path() {
    for engine in simd_engines() {
        for &geom in candidates(engine, 8) {
            let (m, n, k) = (geom.mr + 1, geom.nr + 1, 9);
            let a: Vec<f64> = fill(m * k, 7);
            let b: Vec<f64> = fill(k * n, 8);
            let mut c = vec![f64::NAN; m * n];
            let kern = TunedKernel {
                engine,
                geom,
                block: BlockConfig::default(),
            };
            gemm_blocked_tuned(&kern, m, n, k, 1.0, &a, m, &b, k, 0.0, &mut c, m).expect("gemm");
            assert!(
                c.iter().all(|v| v.is_finite()),
                "NaN leaked through beta=0 on {engine:?} {geom}"
            );
            let mut want = vec![0.0f64; m * n];
            gemm_ref(m, n, k, 1.0, &a, m, &b, k, 0.0, &mut want, m).expect("ref");
            for i in 0..m * n {
                assert!((c[i] - want[i]).abs() < 1e-10, "{engine:?} {geom} i={i}");
            }
        }
    }
}

fn axpy_agrees<T: Scalar>(engine: Engine) {
    // lengths straddling the vector width, including a pure tail
    for len in [0usize, 1, 3, 8, 15, 16, 17, 63, 100] {
        let src: Vec<T> = fill(len, 9);
        let seed: Vec<T> = fill(len, 10);
        let w = T::from_f64(-1.75);
        let mut simd = seed.clone();
        axpy_update_with(engine, w, &src, &mut simd);
        let mut scalar = seed;
        axpy_update_with(Engine::Scalar, w, &src, &mut scalar);
        assert_eq!(
            wide(&simd),
            wide(&scalar),
            "axpy {engine:?} len={len} diverged"
        );
    }
}

#[test]
fn axpy_variants_bitwise_match_scalar() {
    for engine in simd_engines() {
        axpy_agrees::<f64>(engine);
        axpy_agrees::<f32>(engine);
    }
}

#[test]
fn forced_scalar_env_reports_scalar_engine() {
    // The env var is read once per process through active_engine(); spawn a
    // child with it set and check the detected engine there.
    let exe = std::env::current_exe().expect("test exe");
    let out = std::process::Command::new(exe)
        .args(["--exact", "child_prints_engine", "--nocapture", "--ignored"])
        .env("GPU_BLOB_NO_SIMD", "1")
        .output()
        .expect("spawn child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("engine=scalar"),
        "GPU_BLOB_NO_SIMD child did not detect scalar engine: {stdout}"
    );
}

/// Helper for [`forced_scalar_env_reports_scalar_engine`] — run as a child
/// process with `GPU_BLOB_NO_SIMD=1`.
#[test]
#[ignore = "spawned as a subprocess by forced_scalar_env_reports_scalar_engine"]
fn child_prints_engine() {
    println!("engine={}", blob_blas::microkernel::active_engine());
}
