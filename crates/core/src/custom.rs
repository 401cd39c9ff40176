//! Problem families: the fixed relationship between each of a BLAS
//! kernel's dimensions (paper §III-C), one [`DimRule`] per dimension.
//!
//! A [`Family`] covers every shape in Fig 1 — the 14 built-ins are rows of
//! one table ([`Problem::family`](crate::problem::Problem::family)) — *and*
//! whatever a user's application actually does (e.g. a transformer FFN's
//! `M=4N`), parsed from a compact spec or built from rules:
//!
//! ```
//! use blob_core::custom::{DimRule, Family};
//! use blob_sim::Kernel;
//!
//! // M = 4N, K = N: a wide-projection GEMM family
//! let p = Family::gemm("ffn_proj", DimRule::scaled(4), DimRule::scaled(1), DimRule::scaled(1));
//! assert_eq!(p.dims(10), Kernel::Gemm { m: 40, n: 10, k: 10 });
//! assert_eq!(Family::parse("gemm:4p,p,p").unwrap().dims(10), p.dims(10));
//! ```

use blob_sim::{Kernel, KernelKind};
use std::borrow::Cow;

/// How one dimension relates to the size parameter `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimRule {
    /// `dim = factor · p` (factor ≥ 1).
    Scaled(usize),
    /// `dim = factor · p / divisor`, floored, clamped to ≥ 1.
    Ratio(usize, usize),
    /// `dim = value`, independent of `p`.
    Fixed(usize),
}

impl DimRule {
    /// `dim = factor · p`.
    pub fn scaled(factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be at least 1");
        DimRule::Scaled(factor)
    }

    /// `dim = value` regardless of `p`.
    pub fn fixed(value: usize) -> Self {
        assert!(value >= 1, "fixed dimension must be at least 1");
        DimRule::Fixed(value)
    }

    /// `dim = factor·p/divisor` (floored, min 1) — e.g. `Ratio(1, 16)` is
    /// the paper's `M = 16K` written from K's point of view.
    pub fn ratio(factor: usize, divisor: usize) -> Self {
        assert!(
            factor >= 1 && divisor >= 1,
            "ratio parts must be at least 1"
        );
        DimRule::Ratio(factor, divisor)
    }

    /// The dimension for size parameter `p`.
    #[inline]
    pub fn apply(&self, p: usize) -> usize {
        match *self {
            DimRule::Scaled(f) => f * p,
            DimRule::Ratio(f, d) => (f * p / d).max(1),
            DimRule::Fixed(v) => v,
        }
    }

    /// Largest `p` keeping this dimension within `max_dim` (`None` = any).
    fn max_param(&self, max_dim: usize) -> Option<usize> {
        match *self {
            DimRule::Scaled(f) => Some(max_dim / f),
            DimRule::Ratio(f, d) => Some(max_dim.saturating_mul(d) / f),
            DimRule::Fixed(v) => (v > max_dim).then_some(0),
        }
    }
}

/// A problem family: an id, a label, a kernel kind and one [`DimRule`]
/// per dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Family {
    id: Cow<'static, str>,
    label: Cow<'static, str>,
    kind: KernelKind,
    m: DimRule,
    n: DimRule,
    /// Ignored for GEMV.
    k: DimRule,
}

impl Family {
    /// A built-in table row.
    pub(crate) const fn row(
        id: &'static str,
        label: &'static str,
        kind: KernelKind,
        [m, n, k]: [DimRule; 3],
    ) -> Self {
        Self {
            id: Cow::Borrowed(id),
            label: Cow::Borrowed(label),
            kind,
            m,
            n,
            k,
        }
    }

    fn custom(name: String, kind: KernelKind, m: DimRule, n: DimRule, k: DimRule) -> Self {
        Self {
            id: Cow::Owned(name.clone()),
            label: Cow::Owned(name),
            kind,
            m,
            n,
            k,
        }
    }

    /// A GEMM family named `name` (its id and its label).
    pub fn gemm(name: impl Into<String>, m: DimRule, n: DimRule, k: DimRule) -> Self {
        Self::custom(name.into(), KernelKind::Gemm, m, n, k)
    }

    /// A GEMV family named `name` (its id and its label).
    pub fn gemv(name: impl Into<String>, m: DimRule, n: DimRule) -> Self {
        Self::custom(name.into(), KernelKind::Gemv, m, n, DimRule::Fixed(1))
    }

    /// Identifier used in CSV rows and file names and on the wire: a
    /// built-in's id (`gemm_square`), or a custom family's name.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Human-readable definition, e.g. `"M=N, K=16M"`; a custom family's
    /// label is its name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The kernel family the rules describe.
    pub fn kind(&self) -> KernelKind {
        self.kind
    }

    /// Concrete dimensions for size parameter `p` (≥ 1).
    #[inline]
    pub fn dims(&self, p: usize) -> Kernel {
        let p = p.max(1);
        let (m, n) = (self.m.apply(p), self.n.apply(p));
        match self.kind {
            KernelKind::Gemm => Kernel::Gemm {
                m,
                n,
                k: self.k.apply(p),
            },
            KernelKind::Gemv => Kernel::Gemv { m, n },
        }
    }

    /// The largest size parameter whose dimensions all fit within `max_dim`
    /// (the benchmark's `d` argument); 0 when a fixed dimension already
    /// exceeds it.
    pub fn max_param(&self, max_dim: usize) -> usize {
        [self.m, self.n, self.k]
            .iter()
            .filter_map(|r| r.max_param(max_dim))
            .fold(max_dim, usize::min)
    }

    /// The size parameters to sweep for user range `[s, d]` and `step`.
    ///
    /// Sweeps `p = s, s+step, …` up to [`max_param`](Self::max_param)`(d)`,
    /// always including the top size so thresholds at the range edge are
    /// observable. A family with a fixed dimension above `d` yields no
    /// sizes.
    pub fn params(&self, s: usize, d: usize, step: usize) -> Vec<usize> {
        let lo = s.max(1);
        let hi = self.max_param(d);
        if hi < lo {
            return vec![];
        }
        let mut out: Vec<usize> = (lo..=hi).step_by(step.max(1)).collect();
        if out.last() != Some(&hi) {
            out.push(hi);
        }
        out
    }

    /// Parses a compact spec: `gemm:M,N,K` or `gemv:M,N` where each
    /// dimension is `<f>p` (scaled), `p/<d>` (ratio), or a number (fixed).
    /// Examples: `gemm:p,p,16p` (the paper's M=N, K=16M), `gemm:p,p,p/16`,
    /// `gemv:32,p`. The spec is the family's name.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (kind_s, dims_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("spec '{spec}' needs the form kind:dims"))?;
        let rules: Vec<DimRule> = dims_s
            .split(',')
            .map(|d| parse_rule(d.trim()))
            .collect::<Result<_, _>>()?;
        match (kind_s.to_ascii_lowercase().as_str(), rules.as_slice()) {
            ("gemm", &[m, n, k]) => Ok(Family::gemm(spec, m, n, k)),
            ("gemv", &[m, n]) => Ok(Family::gemv(spec, m, n)),
            ("gemm", _) => Err("gemm spec needs 3 dimensions (M,N,K)".into()),
            ("gemv", _) => Err("gemv spec needs 2 dimensions (M,N)".into()),
            (other, _) => Err(format!("unknown kernel '{other}' (gemm or gemv)")),
        }
    }
}

fn parse_rule(s: &str) -> Result<DimRule, String> {
    if let Some(d) = s.strip_prefix("p/") {
        let d: usize = d.parse().map_err(|_| format!("bad ratio divisor '{s}'"))?;
        if d == 0 {
            return Err("ratio divisor must be positive".into());
        }
        return Ok(DimRule::ratio(1, d));
    }
    if let Some(f) = s.strip_suffix('p') {
        if f.is_empty() {
            return Ok(DimRule::scaled(1));
        }
        let f: usize = f.parse().map_err(|_| format!("bad scale factor '{s}'"))?;
        if f == 0 {
            return Err("scale factor must be positive".into());
        }
        return Ok(DimRule::scaled(f));
    }
    let v: usize = s.parse().map_err(|_| format!("bad dimension '{s}'"))?;
    if v == 0 {
        return Err("fixed dimension must be positive".into());
    }
    Ok(DimRule::fixed(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_apply() {
        assert_eq!(DimRule::scaled(3).apply(7), 21);
        assert_eq!(DimRule::fixed(32).apply(7), 32);
        assert_eq!(DimRule::ratio(1, 16).apply(100), 6);
        assert_eq!(DimRule::ratio(1, 16).apply(5), 1); // clamped
    }

    #[test]
    fn paper_problems_expressible() {
        // the paper's M=N, K=16M
        let p = Family::gemm(
            "tall_k",
            DimRule::scaled(1),
            DimRule::scaled(1),
            DimRule::scaled(16),
        );
        assert_eq!(
            p.dims(10),
            Kernel::Gemm {
                m: 10,
                n: 10,
                k: 160
            }
        );
        assert_eq!(p.max_param(4096), 256);
        // M=N=32, K >= 1
        let f = Family::gemm(
            "fixed32",
            DimRule::fixed(32),
            DimRule::fixed(32),
            DimRule::scaled(1),
        );
        assert_eq!(
            f.dims(99),
            Kernel::Gemm {
                m: 32,
                n: 32,
                k: 99
            }
        );
        assert_eq!(f.max_param(4096), 4096);
        // M=N, M=16K (K = M/16)
        let s = Family::gemm(
            "sixteenth",
            DimRule::scaled(1),
            DimRule::scaled(1),
            DimRule::ratio(1, 16),
        );
        assert_eq!(
            s.dims(160),
            Kernel::Gemm {
                m: 160,
                n: 160,
                k: 10
            }
        );
    }

    #[test]
    fn fixed_dim_larger_than_range_yields_no_params() {
        let p = Family::gemv("too_big", DimRule::fixed(100), DimRule::scaled(1));
        assert_eq!(p.max_param(64), 0);
        assert!(p.params(1, 64, 1).is_empty());
    }

    #[test]
    fn params_cover_range_with_endpoint() {
        let p = Family::gemm(
            "sq",
            DimRule::scaled(1),
            DimRule::scaled(1),
            DimRule::scaled(1),
        );
        let ps = p.params(1, 100, 7);
        assert_eq!(*ps.first().unwrap(), 1);
        assert_eq!(*ps.last().unwrap(), 100);
    }

    #[test]
    fn parse_specs() {
        let p = Family::parse("gemm:p,p,16p").unwrap();
        assert_eq!(p.dims(4), Kernel::Gemm { m: 4, n: 4, k: 64 });
        let q = Family::parse("gemm:4p,p,p/2").unwrap();
        assert_eq!(q.dims(8), Kernel::Gemm { m: 32, n: 8, k: 4 });
        let v = Family::parse("gemv:32,p").unwrap();
        assert_eq!(v.dims(9), Kernel::Gemv { m: 32, n: 9 });
        assert_eq!(
            Family::parse("gemv:p,p").unwrap().dims(3),
            Kernel::Gemv { m: 3, n: 3 }
        );
    }

    #[test]
    fn huge_ratio_divisor_saturates() {
        // p/(2^64-1) overflowed `max_dim * divisor` before saturating
        let p = Family::parse("gemm:p/18446744073709551615,p,p").unwrap();
        assert_eq!(p.max_param(64), 64);
        assert_eq!(p.params(1, 64, 1).len(), 64);
        assert_eq!(p.dims(64), Kernel::Gemm { m: 1, n: 64, k: 64 });
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Family::parse("gemm").is_err());
        assert!(Family::parse("gemm:p,p").is_err());
        assert!(Family::parse("gemv:p,p,p").is_err());
        assert!(Family::parse("trsm:p,p").is_err());
        assert!(Family::parse("gemm:0p,p,p").is_err());
        assert!(Family::parse("gemm:p,q,p").is_err());
        assert!(Family::parse("gemm:p,p,p/0").is_err());
    }

    #[test]
    fn sweepable_with_the_runner() {
        use crate::backend::Backend;
        use blob_sim::{presets, BlasCall, Offload, Precision};
        // run a custom family through the timing backend directly
        let p = Family::parse("gemm:4p,p,p").unwrap();
        let sys = presets::isambard_ai();
        let mut prev = 0.0;
        for param in [8usize, 16, 32, 64] {
            let call = BlasCall {
                kernel: p.dims(param),
                precision: Precision::F32,
                alpha: 1.0,
                beta: 0.0,
            };
            let t = Backend::cpu_seconds(&sys, &call, 1);
            assert!(t > prev, "time grows with the family parameter");
            prev = t;
            assert!(Backend::gpu_seconds(&sys, &call, 1, Offload::TransferOnce).is_some());
        }
    }
}
