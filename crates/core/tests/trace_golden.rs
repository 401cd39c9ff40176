//! Golden test for the trace plane: a small traced sweep must emit a
//! valid chrome://tracing JSON document containing the per-size runner
//! spans, the GEMM pack/compute micro-phase spans (recorded by the kernels
//! into the same recorder), and — when the measurement fans out over the thread pool —
//! the pool dispatch/job/wait spans, all correctly parented.

use blob_core::backend::HostCpu;
use blob_core::problem::{GemmProblem, Problem};
use blob_core::runner::{run_sweep, run_sweep_pooled, SweepConfig};
use blob_core::trace;
use blob_core::wire::Json;
use blob_sim::{presets, Precision};
use std::sync::{Arc, PoisonError};

/// One traced 2-size sweep, serial on the host CPU (pack/compute spans on
/// the caller thread) followed by a pooled analytic sweep (pool spans on
/// the workers), returning everything the plane recorded.
fn traced_spans() -> Vec<trace::Span> {
    let cfg = SweepConfig::builder()
        .dims(32, 64)
        .iterations(1)
        .step(32)
        .build()
        .expect("valid 2-size config");
    let problem = Problem::Gemm(GemmProblem::Square);

    trace::enable();
    // Serial host sweep: every GEMM runs inline on this thread, so the
    // pack/compute spans nest under the per-size runner spans.
    let host = HostCpu::with_threads(1);
    let sweep = run_sweep(&host, problem, Precision::F32, &cfg);
    assert_eq!(sweep.records.len(), 2, "dims 32..=64 step 32 is 2 sizes");
    // Pooled analytic sweep: the per-size measurements go through the
    // thread pool, so dispatch/job/wait spans appear.
    let pool = blob_core::runner::ThreadPool::new(2);
    let pooled = run_sweep_pooled(
        Arc::new(presets::lumi()),
        problem,
        Precision::F32,
        &cfg,
        &pool,
    );
    assert_eq!(pooled.records.len(), 2);
    let spans = trace::take();
    let dropped = trace::dropped();
    trace::disable();
    assert_eq!(dropped, 0, "a 2-size sweep must fit the sink");
    spans
}

#[test]
fn traced_sweep_emits_valid_nested_chrome_trace_json() {
    let _guard = trace::TRACE_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let spans = traced_spans();

    // Every layer contributed spans.
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert!(
        count(trace::names::SWEEP_SIZE) >= 4,
        "2 sizes x 2 sweeps: {spans:?}"
    );
    assert!(count("gemm.pack_a") > 0, "pack spans missing");
    assert!(count("gemm.pack_b") > 0, "pack spans missing");
    assert!(count("gemm.compute") > 0, "compute spans missing");
    assert!(count("pool.dispatch") > 0, "pool dispatch spans missing");
    assert!(count("pool.job") > 0, "pool job spans missing");
    assert!(count("pool.wait") > 0, "pool wait spans missing");

    // Parenting: every non-root parent id exists, and every pack/compute
    // span sits inside an enclosing span on the same thread.
    let find = |id: u64| spans.iter().find(|s| s.id == id);
    for s in &spans {
        if s.parent != 0 {
            let parent = find(s.parent).unwrap_or_else(|| panic!("dangling parent in {s:?}"));
            assert_eq!(parent.tid, s.tid, "parent on another thread: {s:?}");
            assert!(parent.start_ns <= s.start_ns, "child starts early: {s:?}");
        }
        if s.name.starts_with("gemm.") {
            assert_ne!(s.parent, 0, "pack/compute span has no parent: {s:?}");
        }
    }
    // The serial host sweep nests its pack spans under a runner size span.
    let serial_pack_under_size = spans
        .iter()
        .filter(|s| s.name == "gemm.pack_a")
        .any(|s| find(s.parent).is_some_and(|p| p.name == trace::names::SWEEP_SIZE));
    assert!(serial_pack_under_size, "pack not nested under sweep.size");

    // The export is one valid JSON document in chrome://tracing shape.
    let doc = trace::chrome_trace_json(&spans);
    let parsed = Json::parse(&doc).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .to_vec();
    assert_eq!(events.len(), spans.len());
    for ev in &events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(ev.get("cat").and_then(Json::as_str).is_some());
        assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        assert!(ev.get("dur").and_then(Json::as_f64).is_some());
        assert!(ev.get("tid").and_then(Json::as_f64).is_some());
    }
    // Annotations survive the export: a size span carries its parameter.
    let has_param_arg = events.iter().any(|ev| {
        ev.get("name").and_then(Json::as_str) == Some(trace::names::SWEEP_SIZE)
            && ev
                .get("args")
                .and_then(|a| a.get("param"))
                .and_then(Json::as_f64)
                .is_some()
    });
    assert!(has_param_arg, "size span lost its param annotation");
}
