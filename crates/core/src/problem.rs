//! Problem types: the fixed relationships between a BLAS kernel's
//! dimensions that GPU-BLOB sweeps (paper §III-C, Fig 1).
//!
//! A problem type maps a single *size parameter* `p` to concrete
//! dimensions; the benchmark then executes every `p` whose dimensions all
//! lie within the user's `[s, d]` range. Alongside the square problems the
//! paper defines eight non-square GEMM types and four non-square GEMV
//! types, chosen so at least one input matrix is rectangular — the shapes
//! real applications (k-means, LU, neural networks) actually use.

use crate::custom::{DimRule, Family};
use blob_sim::{Kernel, KernelKind};

/// GEMM problem types (square + the eight non-square types of Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmProblem {
    /// M = N = K.
    Square,
    /// M = N, K = 16M — deep inner dimension.
    TallK,
    /// M = N = 32, K ≥ 1 — tiny output, growing inner dimension.
    FixedMn32,
    /// K = N, M = 16K — tall output panel.
    TallM,
    /// K = N = 32, M ≥ 1 — tall skinny A, tiny B.
    FixedKn32,
    /// M = K, N = 16K — wide output panel.
    WideN,
    /// M = K = 32, N ≥ 1 — tiny A, wide B.
    FixedMk32,
    /// M = N, K = 32 — square output, shallow inner dimension.
    SquareK32,
    /// M = N, M = 16K — square output, inner dimension a sixteenth of M.
    SixteenthK,
}

impl GemmProblem {
    /// All GEMM problem types in the paper's presentation order.
    pub const ALL: [GemmProblem; 9] = [
        GemmProblem::Square,
        GemmProblem::TallK,
        GemmProblem::FixedMn32,
        GemmProblem::TallM,
        GemmProblem::FixedKn32,
        GemmProblem::WideN,
        GemmProblem::FixedMk32,
        GemmProblem::SquareK32,
        GemmProblem::SixteenthK,
    ];

    /// The non-square types, in Table V's row order.
    pub const NON_SQUARE: [GemmProblem; 8] = [
        GemmProblem::TallK,
        GemmProblem::FixedMn32,
        GemmProblem::TallM,
        GemmProblem::FixedKn32,
        GemmProblem::WideN,
        GemmProblem::FixedMk32,
        GemmProblem::SquareK32,
        GemmProblem::SixteenthK,
    ];
}

/// GEMV problem types (square + the four non-square types of Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemvProblem {
    /// M = N.
    Square,
    /// M = 16N — tall matrix.
    TallM,
    /// N = 32, M ≥ 1 — tall skinny matrix.
    FixedN32,
    /// N = 16M — wide matrix.
    WideN,
    /// M = 32, N ≥ 1 — short wide matrix.
    FixedM32,
}

impl GemvProblem {
    /// All GEMV problem types in the paper's presentation order.
    pub const ALL: [GemvProblem; 5] = [
        GemvProblem::Square,
        GemvProblem::TallM,
        GemvProblem::FixedN32,
        GemvProblem::WideN,
        GemvProblem::FixedM32,
    ];

    /// The non-square types, in Table VI's row order.
    pub const NON_SQUARE: [GemvProblem; 4] = [
        GemvProblem::TallM,
        GemvProblem::FixedN32,
        GemvProblem::WideN,
        GemvProblem::FixedM32,
    ];
}

/// Any problem type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Problem {
    /// A GEMM problem family.
    Gemm(GemmProblem),
    /// A GEMV problem family.
    Gemv(GemvProblem),
}

impl Problem {
    /// All 14 problem types (9 GEMM + 5 GEMV) — one output CSV each per
    /// precision, matching the artifact's 28 files per run.
    pub fn all() -> Vec<Problem> {
        GemmProblem::ALL
            .iter()
            .map(|&g| Problem::Gemm(g))
            .chain(GemvProblem::ALL.iter().map(|&v| Problem::Gemv(v)))
            .collect()
    }

    /// This type's row of the built-in family table.
    pub fn family(&self) -> &'static Family {
        match *self {
            Problem::Gemm(g) => &BUILTINS[g as usize],
            Problem::Gemv(v) => &BUILTINS[GemmProblem::ALL.len() + v as usize],
        }
    }

    /// The kernel family this problem type drives.
    pub fn kind(&self) -> KernelKind {
        self.family().kind()
    }

    /// Human-readable definition as the paper writes it, e.g. `"M=N, K=16M"`.
    pub fn label(&self) -> &'static str {
        self.family().label()
    }

    /// Filesystem-safe identifier used for CSV file names.
    pub fn id(&self) -> &'static str {
        self.family().id()
    }

    /// Concrete dimensions for size parameter `p >= 1`.
    pub fn dims(&self, p: usize) -> Kernel {
        self.family().dims(p)
    }

    /// See [`Family::max_param`].
    pub fn max_param(&self, max_dim: usize) -> usize {
        self.family().max_param(max_dim)
    }

    /// See [`Family::params`].
    pub fn params(&self, s: usize, d: usize, step: usize) -> Vec<usize> {
        self.family().params(s, d, step)
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl From<Problem> for Family {
    fn from(p: Problem) -> Family {
        p.family().clone()
    }
}

/// The 14 built-in families, in [`Problem::all`] order.
static BUILTINS: [Family; 14] = {
    use DimRule::{Fixed, Ratio, Scaled};
    use KernelKind::{Gemm, Gemv};
    const P: DimRule = Scaled(1);
    const C32: DimRule = Fixed(32);
    const ONE: DimRule = Fixed(1);
    [
        Family::row("gemm_square", "M=N=K", Gemm, [P, P, P]),
        Family::row("gemm_tall_k", "M=N, K=16M", Gemm, [P, P, Scaled(16)]),
        Family::row("gemm_fixed_mn32", "M=N=32, K>=1", Gemm, [C32, C32, P]),
        Family::row("gemm_tall_m", "K=N, M=16K", Gemm, [Scaled(16), P, P]),
        Family::row("gemm_fixed_kn32", "K=N=32, M>=1", Gemm, [P, C32, C32]),
        Family::row("gemm_wide_n", "M=K, N=16K", Gemm, [P, Scaled(16), P]),
        Family::row("gemm_fixed_mk32", "M=K=32, N>=1", Gemm, [C32, P, C32]),
        Family::row("gemm_square_k32", "M=N, K=32", Gemm, [P, P, C32]),
        Family::row("gemm_sixteenth_k", "M=N, M=16K", Gemm, [P, P, Ratio(1, 16)]),
        Family::row("gemv_square", "M=N", Gemv, [P, P, ONE]),
        Family::row("gemv_tall_m", "M=16N", Gemv, [Scaled(16), P, ONE]),
        Family::row("gemv_fixed_n32", "N=32, M>=1", Gemv, [P, C32, ONE]),
        Family::row("gemv_wide_n", "N=16M", Gemv, [P, Scaled(16), ONE]),
        Family::row("gemv_fixed_m32", "M=32, N>=1", Gemv, [C32, P, ONE]),
    ]
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_problem_types() {
        let all = Problem::all();
        assert_eq!(all.len(), 14);
        assert_eq!(
            all.iter().filter(|p| p.kind() == KernelKind::Gemm).count(),
            9
        );
        assert_eq!(
            all.iter().filter(|p| p.kind() == KernelKind::Gemv).count(),
            5
        );
    }

    #[test]
    fn dims_satisfy_their_definitions() {
        for p in [1usize, 7, 32, 100, 255] {
            match Problem::Gemm(GemmProblem::Square).dims(p) {
                Kernel::Gemm { m, n, k } => assert!(m == p && n == p && k == p),
                _ => panic!(),
            }
            match Problem::Gemm(GemmProblem::TallK).dims(p) {
                Kernel::Gemm { m, n, k } => assert!(m == n && k == 16 * m && m == p),
                _ => panic!(),
            }
            match Problem::Gemm(GemmProblem::FixedMn32).dims(p) {
                Kernel::Gemm { m, n, k } => assert!(m == 32 && n == 32 && k == p),
                _ => panic!(),
            }
            match Problem::Gemm(GemmProblem::TallM).dims(p) {
                Kernel::Gemm { m, n, k } => assert!(k == n && m == 16 * k && k == p),
                _ => panic!(),
            }
            match Problem::Gemm(GemmProblem::WideN).dims(p) {
                Kernel::Gemm { m, n, k } => assert!(m == k && n == 16 * k && k == p),
                _ => panic!(),
            }
            match Problem::Gemm(GemmProblem::SquareK32).dims(p) {
                Kernel::Gemm { m, n, k } => assert!(m == n && k == 32 && m == p),
                _ => panic!(),
            }
            match Problem::Gemv(GemvProblem::TallM).dims(p) {
                Kernel::Gemv { m, n } => assert!(m == 16 * n && n == p),
                _ => panic!(),
            }
            match Problem::Gemv(GemvProblem::FixedM32).dims(p) {
                Kernel::Gemv { m, n } => assert!(m == 32 && n == p),
                _ => panic!(),
            }
        }
    }

    #[test]
    fn sixteenth_k_floors_at_one() {
        match Problem::Gemm(GemmProblem::SixteenthK).dims(5) {
            Kernel::Gemm { m, n, k } => {
                assert_eq!((m, n), (5, 5));
                assert_eq!(k, 1); // 5/16 floors to 0, clamped to 1
            }
            _ => panic!(),
        }
        match Problem::Gemm(GemmProblem::SixteenthK).dims(160) {
            Kernel::Gemm { k, .. } => assert_eq!(k, 10),
            _ => panic!(),
        }
    }

    #[test]
    fn max_param_respects_scaled_dimensions() {
        let d = 4096;
        assert_eq!(Problem::Gemm(GemmProblem::Square).max_param(d), 4096);
        assert_eq!(Problem::Gemm(GemmProblem::TallK).max_param(d), 256); // 16*256 = 4096
        assert_eq!(Problem::Gemv(GemvProblem::WideN).max_param(d), 256);
        assert_eq!(Problem::Gemm(GemmProblem::FixedMn32).max_param(d), 4096);
    }

    #[test]
    fn all_swept_dims_stay_in_range() {
        let (s, d) = (1, 512);
        for prob in Problem::all() {
            for p in prob.params(s, d, 7) {
                let (m, n, k) = prob.dims(p).dims();
                assert!(m <= d && n <= d && k <= d, "{prob:?} p={p} -> {m},{n},{k}");
                assert!(m >= 1 && n >= 1 && k >= 1);
            }
        }
    }

    #[test]
    fn params_includes_endpoint() {
        let prob = Problem::Gemm(GemmProblem::Square);
        let ps = prob.params(1, 100, 7);
        assert_eq!(*ps.first().unwrap(), 1);
        assert_eq!(*ps.last().unwrap(), 100);
        // strictly increasing
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn fixed32_types_need_d_at_least_32() {
        let prob = Problem::Gemm(GemmProblem::FixedMn32);
        assert!(prob.params(1, 31, 1).is_empty());
        assert!(!prob.params(1, 32, 1).is_empty());
    }

    #[test]
    fn ids_unique_and_labels_nonempty() {
        let all = Problem::all();
        let mut ids: Vec<&str> = all.iter().map(|p| p.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 14, "duplicate CSV ids");
        assert!(all.iter().all(|p| !p.label().is_empty()));
    }

    #[test]
    fn builtin_specs_parse_to_their_rows() {
        let specs = [
            "gemm:p,p,p",
            "gemm:p,p,16p",
            "gemm:32,32,p",
            "gemm:16p,p,p",
            "gemm:p,32,32",
            "gemm:p,16p,p",
            "gemm:32,p,32",
            "gemm:p,p,32",
            "gemm:p,p,p/16",
            "gemv:p,p",
            "gemv:16p,p",
            "gemv:p,32",
            "gemv:p,16p",
            "gemv:32,p",
        ];
        for (builtin, spec) in Problem::all().into_iter().zip(specs) {
            let parsed = Family::parse(spec).unwrap();
            for p in 1..=5000 {
                assert_eq!(parsed.dims(p), builtin.dims(p), "{spec} p={p}");
            }
            for s in [1, 2, 16, 31, 32, 33, 100] {
                for d in [1, 15, 16, 31, 32, 33, 64, 256, 4095, 4096, 10000] {
                    for step in [1, 3, 16, 64] {
                        assert_eq!(
                            parsed.params(s, d, step),
                            builtin.params(s, d, step),
                            "{spec} s={s} d={d} step={step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn step_one_sweeps_every_size() {
        let prob = Problem::Gemv(GemvProblem::Square);
        let ps = prob.params(1, 64, 1);
        assert_eq!(ps, (1..=64).collect::<Vec<_>>());
    }
}
