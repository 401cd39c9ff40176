//! Sweeping user-defined problem families ([`CustomProblem`]) through the
//! same measurement loop and threshold detection as the built-ins.

use crate::backend::Backend;
use crate::custom::CustomProblem;
use crate::runner::{measure_size, sweep_call, threshold_record, SizeRecord, SweepConfig};
use blob_sim::{Kernel, Offload, Precision};

/// A completed sweep of a custom problem family.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomSweep {
    /// Backend name (system).
    pub system: String,
    /// The user-defined problem family swept.
    pub problem: CustomProblem,
    /// Element precision of every measurement.
    pub precision: Precision,
    /// Iteration count of each timed loop.
    pub iterations: u32,
    /// One record per size parameter, in sweep order.
    pub records: Vec<SizeRecord>,
}

impl CustomSweep {
    /// The offload threshold for `offload` (same §III-D semantics as the
    /// built-in problems).
    pub fn threshold(&self, offload: Offload) -> Option<Kernel> {
        self.threshold_record(offload).map(|r| r.kernel)
    }

    /// The record of the size at [`threshold`](CustomSweep::threshold).
    pub fn threshold_record(&self, offload: Offload) -> Option<&SizeRecord> {
        threshold_record(&self.records, offload)
    }
}

/// Runs a sweep of a [`CustomProblem`] on a backend.
pub fn run_custom_sweep(
    backend: &dyn Backend,
    problem: &CustomProblem,
    precision: Precision,
    cfg: &SweepConfig,
) -> CustomSweep {
    let offloads = backend.offloads();
    let iters = cfg.iterations().max(1);
    let records = problem
        .params(cfg.min_dim(), cfg.max_dim(), cfg.step())
        .into_iter()
        .map(|p| {
            let call = sweep_call(problem.dims(p), precision, cfg);
            measure_size(backend, p, &call, iters, &offloads)
        })
        .collect();
    CustomSweep {
        system: backend.name(),
        problem: problem.clone(),
        precision,
        iterations: iters,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::DimRule;
    use blob_sim::presets;

    #[test]
    fn custom_square_matches_builtin_square() {
        use crate::problem::{GemmProblem, Problem};
        use crate::runner::run_sweep;
        let sys = presets::lumi();
        let cfg = SweepConfig::new(1, 128, 8);
        let custom = CustomProblem::parse("gemm:p,p,p").unwrap();
        let cs = run_custom_sweep(&sys, &custom, Precision::F32, &cfg);
        let bs = run_sweep(
            &sys,
            Problem::Gemm(GemmProblem::Square),
            Precision::F32,
            &cfg,
        );
        assert_eq!(cs.records.len(), bs.records.len());
        for (c, b) in cs.records.iter().zip(bs.records.iter()) {
            assert_eq!(c.kernel, b.kernel);
            assert_eq!(c.cpu_seconds, b.cpu_seconds);
            assert_eq!(c.gpu, b.gpu);
        }
        assert_eq!(
            cs.threshold(Offload::TransferOnce),
            bs.threshold(Offload::TransferOnce)
        );
    }

    #[test]
    fn transformer_family_thresholds() {
        // M = 4N, K = N: the FFN projection family from the module docs
        let sys = presets::isambard_ai();
        let p = CustomProblem::gemm(
            "ffn",
            DimRule::scaled(4),
            DimRule::scaled(1),
            DimRule::scaled(1),
        );
        let cfg = SweepConfig::new(1, 1024, 8);
        let sweep = run_custom_sweep(&sys, &p, Precision::F32, &cfg);
        // all dims within range: max param = 1024/4 = 256
        assert_eq!(sweep.records.last().unwrap().param, 256);
        assert!(sweep.threshold(Offload::TransferOnce).is_some());
    }

    #[test]
    fn custom_gemv_family() {
        let sys = presets::dawn();
        let p = CustomProblem::parse("gemv:2p,p").unwrap();
        let cfg = SweepConfig::new(1, 200, 32);
        let sweep = run_custom_sweep(&sys, &p, Precision::F64, &cfg);
        assert!(!sweep.records.is_empty());
        assert!(sweep.records.iter().all(|r| {
            let (m, n, _) = r.kernel.dims();
            m == 2 * n
        }));
    }
}
