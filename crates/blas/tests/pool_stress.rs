//! Seeded schedule-perturbation stress tests — the workspace's `loom`
//! substitute.
//!
//! [`blob_blas::perturb`] injects seeded yields/spins/sleeps at the
//! interleaving-sensitive points inside the thread pool, the scoped
//! dispatcher and the parallel kernels. Each test sweeps many seeds, so
//! `cargo test` explores many distinct schedules per run and fails on
//! corruption (wrong results, lost jobs) or deadlock (the test would hang
//! and trip the harness timeout).
//!
//! The kernels now run *inline* below the work-based crossover
//! ([`blob_blas::pool::effective_workers`]), so the kernel-level tests
//! here use shapes **above** it — otherwise they would only stress the
//! serial path.
//!
//! The OS still owns true scheduling — this is perturbation, not replay —
//! but a reported seed reproduces the same perturbation decisions.

use blob_blas::pool::{effective_workers, run_scoped, MIN_ELEMS_PER_THREAD, MIN_FLOPS_PER_THREAD};
use blob_blas::{gemm_parallel, gemm_ref, gemv_parallel, gemv_ref, perturb, ThreadPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `f` with perturbation enabled under the global stress lock, so
/// concurrent tests in this binary cannot interfere with each other's
/// seeds.
fn with_perturbation(seed: u64, f: impl FnOnce()) {
    let _guard = perturb::STRESS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    perturb::enable(seed);
    f();
    perturb::disable();
}

fn det(seed: u64, i: usize) -> f64 {
    let mut h = seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51afd7ed558ccd);
    h ^= h >> 29;
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

#[test]
fn parallel_gemm_correct_under_perturbed_schedules() {
    // Above the compute crossover so the scoped dispatcher really splits:
    // 2·m·n·k must exceed 2×MIN_FLOPS_PER_THREAD.
    let (m, n, k) = (128, 560, 512);
    assert!(
        effective_workers(4, 2 * m * n * k, MIN_FLOPS_PER_THREAD) >= 2,
        "shape fell below the dispatch crossover; enlarge it"
    );
    let a: Vec<f64> = (0..m * k).map(|i| det(1, i)).collect();
    let b: Vec<f64> = (0..k * n).map(|i| det(2, i)).collect();
    let mut want = vec![0.0; m * n];
    gemm_ref(m, n, k, 1.5, &a, m, &b, k, 0.0, &mut want, m).unwrap();

    for seed in 0..25u64 {
        with_perturbation(seed, || {
            let mut c = vec![0.0; m * n];
            gemm_parallel(4, m, n, k, 1.5, &a, m, &b, k, 0.0, &mut c, m).unwrap();
            for i in 0..m * n {
                assert!(
                    (c[i] - want[i]).abs() < 1e-10,
                    "seed {seed}: element {i}: {} vs {}",
                    c[i],
                    want[i]
                );
            }
        });
    }
}

#[test]
fn parallel_gemv_correct_under_perturbed_schedules() {
    // Above the bandwidth crossover: m·n must exceed 2×MIN_ELEMS_PER_THREAD.
    let (m, n) = (65536, 17);
    assert!(
        effective_workers(4, m * n, MIN_ELEMS_PER_THREAD) >= 2,
        "shape fell below the dispatch crossover; enlarge it"
    );
    let a: Vec<f64> = (0..m * n).map(|i| det(3, i)).collect();
    let x: Vec<f64> = (0..n).map(|i| det(4, i)).collect();
    let mut want = vec![0.25; m];
    gemv_ref(m, n, 2.0, &a, m, &x, 1, -0.5, &mut want, 1).unwrap();

    for seed in 100..150u64 {
        with_perturbation(seed, || {
            let mut y = vec![0.25; m];
            gemv_parallel(4, m, n, 2.0, &a, m, &x, 1, -0.5, &mut y, 1).unwrap();
            for i in 0..m {
                assert!(
                    (y[i] - want[i]).abs() < 1e-12,
                    "seed {seed}: element {i}: {} vs {}",
                    y[i],
                    want[i]
                );
            }
        });
    }
}

#[test]
fn thread_pool_loses_no_jobs_under_100_perturbed_schedules() {
    for seed in 200..300u64 {
        with_perturbation(seed, || {
            let pool = ThreadPool::new(3);
            let counter = Arc::new(AtomicUsize::new(0));
            let mut batch = pool.batch();
            for j in 0..40 {
                let c = Arc::clone(&counter);
                batch.submit(move || {
                    c.fetch_add(j, Ordering::Relaxed);
                });
            }
            batch.wait();
            assert_eq!(
                counter.load(Ordering::Relaxed),
                (0..40).sum::<usize>(),
                "seed {seed}: jobs lost or duplicated"
            );
        });
    }
}

#[test]
fn thread_pool_drop_drains_under_perturbed_schedules() {
    // Drop-without-wait must still run every submitted job under hostile
    // schedules (the shutdown/pop_front race).
    for seed in 300..350u64 {
        with_perturbation(seed, || {
            let counter = Arc::new(AtomicUsize::new(0));
            {
                let pool = ThreadPool::new(2);
                for _ in 0..25 {
                    let c = Arc::clone(&counter);
                    pool.execute(move || {
                        c.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
            assert_eq!(counter.load(Ordering::Relaxed), 25, "seed {seed}");
        });
    }
}

#[test]
fn concurrent_callers_get_isolated_batches_under_perturbed_schedules() {
    // Two OS threads issue batches against one shared pool simultaneously.
    // Each batch's wait() must return only after *its own* jobs ran, and
    // never observe the other caller's count.
    for seed in 400..450u64 {
        with_perturbation(seed, || {
            let pool = Arc::new(ThreadPool::new(3));
            let totals: Vec<_> = (0..2)
                .map(|caller| {
                    let pool = Arc::clone(&pool);
                    std::thread::spawn(move || {
                        let counter = Arc::new(AtomicUsize::new(0));
                        for round in 0..5 {
                            let mut batch = pool.batch();
                            for j in 0..8 {
                                let c = Arc::clone(&counter);
                                batch.submit(move || {
                                    c.fetch_add(j + 1, Ordering::Relaxed);
                                });
                            }
                            batch.wait();
                            // after wait, exactly (round+1) full batches
                            // of this caller's jobs have landed
                            assert_eq!(
                                counter.load(Ordering::Relaxed),
                                (round + 1) * (1..=8).sum::<usize>(),
                                "caller {caller} round {round}"
                            );
                        }
                        counter.load(Ordering::Relaxed)
                    })
                })
                .collect();
            for t in totals {
                assert_eq!(t.join().expect("caller thread"), 5 * 36, "seed {seed}");
            }
        });
    }
}

#[test]
fn nested_dispatch_does_not_deadlock_under_perturbed_schedules() {
    // A pool job that opens its own batch on the same single-worker pool:
    // the nested submission must run inline (a queued job would deadlock
    // the lone worker against itself; a hang here trips the test timeout).
    for seed in 500..550u64 {
        with_perturbation(seed, || {
            let pool = Arc::new(ThreadPool::new(1));
            let p = Arc::clone(&pool);
            let counter = Arc::new(AtomicUsize::new(0));
            let c = Arc::clone(&counter);
            let mut outer = pool.batch();
            outer.submit(move || {
                let mut inner = p.batch();
                for _ in 0..4 {
                    let c2 = Arc::clone(&c);
                    inner.submit(move || {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
                inner.wait();
                c.fetch_add(10, Ordering::Relaxed);
            });
            outer.wait();
            assert_eq!(counter.load(Ordering::Relaxed), 14, "seed {seed}");
        });
    }
}

#[test]
fn panic_propagation_survives_perturbed_schedules() {
    // A panicking job must reach the batch barrier — not get lost in a
    // worker — under every explored schedule, and the pool must stay
    // usable afterwards.
    for seed in 600..650u64 {
        with_perturbation(seed, || {
            let pool = ThreadPool::new(2);
            let mut batch = pool.batch();
            batch.submit(|| {});
            batch.submit(|| panic!("stress panic"));
            batch.submit(|| {});
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch.wait()));
            assert!(err.is_err(), "seed {seed}: panic swallowed");
            let ok = Arc::new(AtomicUsize::new(0));
            let o = Arc::clone(&ok);
            let mut next = pool.batch();
            next.submit(move || {
                o.store(1, Ordering::Relaxed);
            });
            next.wait();
            assert_eq!(ok.load(Ordering::Relaxed), 1, "seed {seed}: pool wedged");
        });
    }
}

#[test]
fn run_scoped_covers_all_jobs_under_perturbed_schedules() {
    for seed in 700..750u64 {
        with_perturbation(seed, || {
            let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
            let jobs: Vec<_> = (0..7)
                .map(|i| {
                    let hits = &hits;
                    move || {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                })
                .collect();
            run_scoped(jobs);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "seed {seed}: job {i}");
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Worker-death injection (the `pool.worker` fault point)
// ---------------------------------------------------------------------------

use blob_blas::fault;
use std::sync::Barrier;

/// Runs `f` under the stress lock, since a fault plan is process-global
/// like perturbation; `f` installs its plan with [`install_plan`]. The plan
/// is cleared afterwards and must have fired: every worker-death test goes
/// the real way, plan → `pool.worker` point → worker exit.
fn with_fault_plan(f: impl FnOnce()) {
    let _guard = perturb::STRESS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    f();
    let injected = fault::injected_total();
    fault::clear();
    assert!(injected >= 1, "the fault plan never fired");
}

fn install_plan(spec: &str) {
    fault::install(&fault::Plan::parse(spec).expect("a valid fault plan"));
}

#[test]
fn batch_completes_after_every_worker_dies_mid_batch() {
    // Kill each of the 3 workers the first time it reaches the fault
    // point; the batch barrier must detect the deaths, respawn workers,
    // and still run all 60 jobs exactly once.
    with_fault_plan(|| {
        let pool = ThreadPool::new(3);
        // Hold all three workers inside a job while the plan goes in: each
        // has then passed its fault point, so each dies after the batch is
        // queued, not at spawn (a pool that lost every worker before the
        // first submit would run the whole batch inline).
        let gate = Arc::new(Barrier::new(4));
        let mut hold = pool.batch();
        for _ in 0..3 {
            let g = Arc::clone(&gate);
            hold.submit(move || {
                g.wait();
                g.wait();
            });
        }
        gate.wait();
        install_plan("pool.worker:error@1x3");
        let counter = Arc::new(AtomicUsize::new(0));
        let mut batch = pool.batch();
        for _ in 0..60 {
            let c = Arc::clone(&counter);
            batch.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
            });
        }
        gate.wait();
        hold.wait();
        batch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 60, "no job may be lost");
        assert!(
            pool.replaced_workers() >= 1,
            "dead workers must be replaced (got {})",
            pool.replaced_workers()
        );
    });
}

#[test]
fn batch_completes_when_a_worker_panics_between_jobs() {
    // An injected *panic* (not a clean exit) unwinds the worker thread;
    // the barrier must still heal the pool and finish the batch without
    // re-throwing the injected panic to the waiter (it belongs to no job).
    with_fault_plan(|| {
        install_plan("pool.worker:panic@1x1");
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut batch = pool.batch();
        for _ in 0..40 {
            let c = Arc::clone(&counter);
            batch.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        batch.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    });
}

#[test]
fn pool_survives_repeated_probabilistic_worker_death() {
    // A 30% death rate across many batches: every batch must still
    // complete and the pool must keep healing itself.
    with_fault_plan(|| {
        install_plan("seed=7;pool.worker:error@0.3");
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _round in 0..10 {
            let mut batch = pool.batch();
            for _ in 0..25 {
                let c = Arc::clone(&counter);
                batch.submit(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            batch.wait();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 250);
    });
}

#[test]
fn run_scoped_joins_every_job_when_one_panics() {
    // Scoped dispatch's "worker death" is a panicking job: the scope
    // must still join (and therefore run) every other job before the
    // panic propagates to the caller.
    let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..8)
        .map(|i| {
            let hits = &hits;
            let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                if i == 3 {
                    panic!("injected scoped death");
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            job
        })
        .collect();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_scoped(jobs)))
        .expect_err("the panic must reach the caller");
    assert_eq!(
        err.downcast_ref::<&str>().copied(),
        Some("injected scoped death")
    );
    for (i, h) in hits.iter().enumerate() {
        if i != 3 {
            assert_eq!(h.load(Ordering::Relaxed), 1, "job {i} must have run");
        }
    }
}
