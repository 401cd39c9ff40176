//! Per-host kernel autotuning: search, persistence, and startup loading.
//!
//! The winning micro-tile geometry and cache blocking are host-specific
//! (GEMMbench, arXiv 1511.03742), so instead of hard-coding them this
//! module searches the candidate space of
//! `engine × geometry × (mc, kc, nc)` per scalar type, validates every
//! winner against the reference GEMM before acceptance, and persists the
//! result as a versioned, checksummed tuning profile under
//! `results/tuning/<fingerprint>.tune`.
//!
//! [`active`] loads the profile lazily (once per process) at first kernel
//! use and falls back to built-in defaults whenever the file is absent,
//! malformed, checksum-corrupt, schema-incompatible, or written on a
//! different host — a stale profile can degrade performance but never
//! correctness or safety, because engines the CPU cannot run are degraded
//! to the portable scalar path at lookup time.
//!
//! The profile format is a deliberately tiny line-based text format rather
//! than the wire JSON used elsewhere: `blob-core` depends on `blob-blas`,
//! so this crate cannot use `blob_core::wire` without a dependency cycle.
//! The CLI layers atomic writes (`blob_core::atomicio`) on top of
//! [`Profile::encode`].

use crate::gemm::{gemm_blocked_tuned, gemm_ref, BlockConfig};
use crate::microkernel::{active_engine, candidates, supports, Engine, Geometry};
use crate::rng::fnv1a64;
use crate::scalar::Scalar;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Schema version of the on-disk tuning profile. Bump on any change to the
/// line format; loaders reject other versions and fall back to defaults.
pub const SCHEMA_VERSION: u32 = 1;

/// A fully-resolved kernel configuration: which engine runs the micro-
/// kernel, at which geometry, under which cache blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedKernel {
    /// Instruction-set variant the micro-kernel dispatches to.
    pub engine: Engine,
    /// Micro-tile geometry (`mr × nr`).
    pub geom: Geometry,
    /// Cache blocking (`mc`, `kc`, `nc`).
    pub block: BlockConfig,
}

impl TunedKernel {
    /// Built-in default for element size `elem_bytes`, given the engine
    /// selected at startup — used when no valid profile is on disk.
    pub fn builtin(engine: Engine, elem_bytes: usize) -> Self {
        let geom = match (engine, elem_bytes) {
            // Wide register file: big tiles pay off.
            (Engine::Avx512, _) => Geometry::new(16, 8),
            // 16 ymm registers: the classic 8×6 f64 tile; f32 packs two
            // 8-lane vectors per row-chunk at 16×4.
            (Engine::Avx2Fma, 8) => Geometry::new(8, 6),
            (Engine::Avx2Fma, _) => Geometry::new(16, 4),
            // Portable default — the historical MR×NR.
            (Engine::Scalar, _) => Geometry::new(8, 4),
        };
        Self {
            engine,
            geom,
            block: BlockConfig::default(),
        }
    }
}

/// One profile line: the tuned kernel for `(scalar prefix, thread count)`.
/// `threads == 0` is a wildcard matching any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Profile key of the element type ([`key`]: `'s'` or `'d'`).
    pub prefix: char,
    /// Thread count this entry was tuned for (0 = any).
    pub threads: usize,
    /// The winning kernel configuration.
    pub kernel: TunedKernel,
}

/// A persisted tuning profile: host fingerprint plus per-precision entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Host fingerprint the profile was tuned on (see [`fingerprint`]).
    pub fingerprint: String,
    /// Tuned entries, one per `(prefix, threads)` key.
    pub entries: Vec<ProfileEntry>,
}

/// Why a profile failed to load or parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// File missing or unreadable.
    Io(String),
    /// Header names a schema version this build does not speak.
    Version(String),
    /// Stored checksum does not match the content.
    Checksum {
        /// Checksum line stored in the file.
        expected: String,
        /// Checksum recomputed over the file body.
        actual: String,
    },
    /// Profile was tuned on a different host.
    Fingerprint {
        /// This host's fingerprint.
        expected: String,
        /// Fingerprint recorded in the profile.
        actual: String,
    },
    /// A line failed to parse.
    Malformed(String),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::Io(e) => write!(f, "tuning profile unreadable: {e}"),
            TuneError::Version(v) => write!(f, "unsupported tuning profile version: {v}"),
            TuneError::Checksum { expected, actual } => {
                write!(
                    f,
                    "tuning profile checksum mismatch: stored {expected}, computed {actual}"
                )
            }
            TuneError::Fingerprint { expected, actual } => {
                write!(
                    f,
                    "tuning profile is for host {actual}, this host is {expected}"
                )
            }
            TuneError::Malformed(line) => write!(f, "malformed tuning profile line: {line}"),
        }
    }
}

impl std::error::Error for TuneError {}

/// Identifies the hardware a profile is valid for: architecture, the best
/// SIMD tier the CPU reports (ignoring `GPU_BLOB_NO_SIMD` — the
/// fingerprint describes hardware, not configuration), and core count.
pub fn fingerprint() -> String {
    let tier = if Engine::Avx512.available() {
        "avx512"
    } else if Engine::Avx2Fma.available() {
        "avx2fma"
    } else {
        "portable"
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!("{}-{}-c{}", std::env::consts::ARCH, tier, cores)
}

/// Directory tuning profiles live in: `GPU_BLOB_TUNING_DIR` if set, else
/// `results/tuning/` at the repository root.
pub fn tuning_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("GPU_BLOB_TUNING_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/tuning"))
}

/// Path of this host's tuning profile.
pub fn profile_path() -> PathBuf {
    tuning_dir().join(format!("{}.tune", fingerprint()))
}

impl Profile {
    /// Serialises the profile to the versioned, checksummed text format.
    pub fn encode(&self) -> String {
        let mut body = format!(
            "gpu-blob-tune v{SCHEMA_VERSION}\nfingerprint {}\n",
            self.fingerprint
        );
        for e in &self.entries {
            let k = &e.kernel;
            body.push_str(&format!(
                "entry {} {} {} {} {} {} {} {}\n",
                e.prefix,
                e.threads,
                k.engine.label(),
                k.geom.mr,
                k.geom.nr,
                k.block.mc,
                k.block.kc,
                k.block.nc
            ));
        }
        let sum = fnv1a64(body.as_bytes());
        body.push_str(&format!("checksum {sum:016x}\n"));
        body
    }

    /// Parses [`encode`](Profile::encode) output, verifying the schema
    /// version and checksum. Does **not** check the fingerprint against
    /// this host — callers that care use [`load_from`].
    pub fn parse(text: &str) -> Result<Profile, TuneError> {
        let malformed = |l: &str| TuneError::Malformed(l.to_string());
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| malformed("<empty>"))?;
        let version = header
            .strip_prefix("gpu-blob-tune v")
            .ok_or_else(|| malformed(header))?;
        if version.parse::<u32>().map_err(|_| malformed(header))? != SCHEMA_VERSION {
            return Err(TuneError::Version(version.to_string()));
        }
        let fp_line = lines
            .next()
            .ok_or_else(|| malformed("<missing fingerprint>"))?;
        let fp = fp_line
            .strip_prefix("fingerprint ")
            .ok_or_else(|| malformed(fp_line))?
            .to_string();
        let mut entries = Vec::new();
        let mut stored_sum = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("entry ") {
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 8 {
                    return Err(malformed(line));
                }
                let mut chars = parts[0].chars();
                let prefix = chars.next().ok_or_else(|| malformed(line))?;
                if chars.next().is_some() {
                    return Err(malformed(line));
                }
                let num = |s: &str| s.parse::<usize>().map_err(|_| malformed(line));
                let engine = Engine::parse_label(parts[2]).ok_or_else(|| malformed(line))?;
                let (mr, nr) = (num(parts[3])?, num(parts[4])?);
                let (mc, kc, nc) = (num(parts[5])?, num(parts[6])?, num(parts[7])?);
                if mr == 0 || nr == 0 || mc == 0 || kc == 0 || nc == 0 {
                    return Err(malformed(line));
                }
                entries.push(ProfileEntry {
                    prefix,
                    threads: num(parts[1])?,
                    kernel: TunedKernel {
                        engine,
                        geom: Geometry::new(mr, nr),
                        block: BlockConfig::new(mc, kc, nc),
                    },
                });
            } else if let Some(sum) = line.strip_prefix("checksum ") {
                stored_sum = Some(sum.trim().to_string());
            } else if !line.trim().is_empty() {
                return Err(malformed(line));
            }
        }
        let stored = stored_sum.ok_or_else(|| malformed("<missing checksum>"))?;
        // Checksum covers everything up to (not including) the checksum line.
        let end = text.find("checksum ").unwrap_or(text.len());
        let actual = format!("{:016x}", fnv1a64(text[..end].as_bytes()));
        if stored != actual {
            return Err(TuneError::Checksum {
                expected: stored,
                actual,
            });
        }
        Ok(Profile {
            fingerprint: fp,
            entries,
        })
    }
}

/// Loads and fully validates a profile from `path`: parse, checksum, and
/// fingerprint must all pass, otherwise the error says which check failed.
pub fn load_from(path: &Path) -> Result<Profile, TuneError> {
    let text = std::fs::read_to_string(path).map_err(|e| TuneError::Io(e.to_string()))?;
    let profile = Profile::parse(&text)?;
    let host = fingerprint();
    if profile.fingerprint != host {
        return Err(TuneError::Fingerprint {
            expected: host,
            actual: profile.fingerprint,
        });
    }
    Ok(profile)
}

/// The profile key of element type `T`: its BLAS prefix in lower case
/// (`'s'`, `'d'`, `'b'`, `'h'`).
pub const fn key<T: Scalar>() -> char {
    T::PRECISION.prefix().to_ascii_lowercase()
}

/// The profile loaded once per process (None when absent/invalid — the
/// fallback-to-defaults path).
fn loaded() -> Option<&'static Profile> {
    static LOADED: OnceLock<Option<Profile>> = OnceLock::new();
    LOADED
        .get_or_init(|| load_from(&profile_path()).ok())
        .as_ref()
}

/// The kernel configuration the blocked GEMM should use for element type
/// `T` at `threads` worker threads: the persisted per-host profile when
/// one loaded, built-in defaults otherwise.
///
/// Lookup prefers an exact `(prefix, threads)` entry, then the wildcard
/// `threads == 0` entry, then any entry for the prefix. Entries naming an
/// engine or geometry this host cannot run (stale or hand-edited profile)
/// degrade to the built-in default instead of faulting — the SIMD dispatch
/// itself double-checks availability, so this is belt and braces.
pub fn active<T: Scalar>(threads: usize) -> TunedKernel {
    let bytes = T::PRECISION.bytes();
    let builtin = TunedKernel::builtin(active_engine(), bytes);
    let Some(profile) = loaded() else {
        return builtin;
    };
    let prefix = key::<T>();
    let found = profile
        .entries
        .iter()
        .find(|e| e.prefix == prefix && e.threads == threads)
        .or_else(|| {
            profile
                .entries
                .iter()
                .find(|e| e.prefix == prefix && e.threads == 0)
        })
        .or_else(|| profile.entries.iter().find(|e| e.prefix == prefix));
    let Some(entry) = found else { return builtin };
    let mut k = entry.kernel;
    // Degrade engines the host cannot run (or that GPU_BLOB_NO_SIMD
    // disabled) to the startup-selected engine.
    if !(k.engine.available() && active_engine() != Engine::Scalar) {
        k.engine = Engine::Scalar;
    }
    if !supports(k.engine, k.geom, bytes) && k.engine != Engine::Scalar {
        k.engine = Engine::Scalar;
    }
    k
}

/// Options controlling [`search`].
#[derive(Debug, Clone, Copy)]
pub struct SearchOpts {
    /// Bounded search for CI smoke runs: fewer reps, smaller problems, and
    /// a trimmed blocking sweep — seconds, not minutes.
    pub quick: bool,
    /// Wall-clock budget; the sweep stops refining when exceeded (the best
    /// candidate found so far still wins).
    pub budget: Duration,
    /// Thread count to record the winning entries under (0 = wildcard).
    pub threads: usize,
}

impl Default for SearchOpts {
    fn default() -> Self {
        Self {
            quick: false,
            budget: Duration::from_secs(60),
            threads: 0,
        }
    }
}

/// One candidate's measurement in a [`SearchReport`].
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The candidate configuration.
    pub kernel: TunedKernel,
    /// Best observed wall-clock for the probe GEMM.
    pub best: Duration,
}

/// What [`search`] tried and what won, for the CLI to narrate.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Element-type prefix the search ran for.
    pub prefix: char,
    /// The validated winner.
    pub winner: TunedKernel,
    /// Probe GEMM dimension used for timing.
    pub probe_dim: usize,
    /// All measured candidates, sorted fastest-first.
    pub measurements: Vec<Measurement>,
    /// True when the winner passed golden validation against `gemm_ref`
    /// (a failure falls back to the built-in default and clears this).
    pub validated: bool,
}

/// Times one probe GEMM (`dim³`, alpha=1, beta=0) under `kern`, best of
/// `reps`.
fn time_candidate<T: Scalar>(kern: &TunedKernel, dim: usize, reps: usize) -> Duration {
    let a: Vec<T> = (0..dim * dim)
        .map(|i| T::from_f64(((i * 13 + 7) % 31) as f64 * 0.0625 - 0.9))
        .collect();
    let b: Vec<T> = (0..dim * dim)
        .map(|i| T::from_f64(((i * 17 + 3) % 29) as f64 * 0.0625 - 0.8))
        .collect();
    let mut c = vec![T::ZERO; dim * dim];
    // one warmup to populate pack arenas and fault pages
    let _ = gemm_blocked_tuned(
        kern,
        dim,
        dim,
        dim,
        T::ONE,
        &a,
        dim,
        &b,
        dim,
        T::ZERO,
        &mut c,
        dim,
    );
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = gemm_blocked_tuned(
            kern,
            dim,
            dim,
            dim,
            T::ONE,
            &a,
            dim,
            &b,
            dim,
            T::ZERO,
            &mut c,
            dim,
        );
        best = best.min(t0.elapsed());
    }
    best
}

/// Golden validation: the candidate must reproduce `gemm_ref` on an odd
/// (non-multiple-of-any-tile) shape with general alpha/beta, within a
/// k-scaled tolerance. Guards against a mis-instantiated kernel variant
/// ever being persisted.
fn validate_kernel<T: Scalar>(kern: &TunedKernel) -> bool {
    let (m, n, k) = (97, 89, 61);
    let a: Vec<T> = (0..m * k)
        .map(|i| T::from_f64(((i * 7 + 5) % 23) as f64 * 0.125 - 1.2))
        .collect();
    let b: Vec<T> = (0..k * n)
        .map(|i| T::from_f64(((i * 11 + 1) % 19) as f64 * 0.125 - 1.1))
        .collect();
    let seed: Vec<T> = (0..m * n)
        .map(|i| T::from_f64((i % 13) as f64 * 0.25 - 1.5))
        .collect();
    let alpha = T::from_f64(0.75);
    let beta = T::from_f64(0.25);
    let mut got = seed.clone();
    if gemm_blocked_tuned(kern, m, n, k, alpha, &a, m, &b, k, beta, &mut got, m).is_err() {
        return false;
    }
    let mut want = seed;
    if gemm_ref(m, n, k, alpha, &a, m, &b, k, beta, &mut want, m).is_err() {
        return false;
    }
    // machine epsilon is twice the unit roundoff
    let tol = 2.0 * T::PRECISION.unit_roundoff() * (k as f64) * 16.0;
    got.iter().zip(want.iter()).all(|(g, w)| {
        let diff = (g.to_f64() - w.to_f64()).abs();
        let scale = w.to_f64().abs().max(1.0);
        diff <= tol * scale
    })
}

/// Searches the kernel space for element type `T` in two stages — engine ×
/// geometry at default blocking first, then an `(mc, kc, nc)` sweep around
/// the winner — and returns the golden-validated best configuration.
pub fn search<T: Scalar>(opts: &SearchOpts) -> SearchReport {
    let started = Instant::now();
    let over_budget = |extra: Duration| started.elapsed() + extra > opts.budget;
    let (dim, reps) = if opts.quick { (192, 2) } else { (384, 3) };
    let bytes = T::PRECISION.bytes();
    let builtin = TunedKernel::builtin(active_engine(), bytes);

    // Stage 1: engine × geometry at default blocking.
    let mut engines = vec![active_engine()];
    if !opts.quick {
        // Also compare one tier down — wider vectors are not always faster.
        if active_engine() == Engine::Avx512 && Engine::Avx2Fma.available() {
            engines.push(Engine::Avx2Fma);
        }
        engines.push(Engine::Scalar);
    }
    let mut measurements: Vec<Measurement> = Vec::new();
    for &engine in &engines {
        for &geom in candidates(engine, bytes) {
            let kern = TunedKernel {
                engine,
                geom,
                block: BlockConfig::default(),
            };
            let best = time_candidate::<T>(&kern, dim, reps);
            measurements.push(Measurement { kernel: kern, best });
            if over_budget(best) {
                break;
            }
        }
    }
    measurements.sort_by_key(|m| m.best);
    let mut winner = measurements.first().map_or(builtin, |m| m.kernel);

    // Stage 2: blocking sweep around the winning geometry.
    let blocks: &[(usize, usize, usize)] = if opts.quick {
        &[(128, 256, 2048), (256, 256, 2048)]
    } else {
        &[
            (64, 128, 2048),
            (64, 256, 2048),
            (128, 128, 2048),
            (128, 256, 2048),
            (128, 384, 2048),
            (128, 512, 2048),
            (256, 256, 2048),
            (256, 384, 2048),
            (128, 256, 4096),
            (256, 512, 2048),
        ]
    };
    let mut best_time = measurements.first().map_or(Duration::MAX, |m| m.best);
    for &(mc, kc, nc) in blocks {
        let block = BlockConfig::new(mc, kc, nc);
        if block == winner.block {
            continue;
        }
        if over_budget(best_time) {
            break;
        }
        let kern = TunedKernel { block, ..winner };
        let best = time_candidate::<T>(&kern, dim, reps);
        measurements.push(Measurement { kernel: kern, best });
        if best < best_time {
            best_time = best;
            winner = kern;
        }
    }
    measurements.sort_by_key(|m| m.best);

    // Golden validation gates acceptance.
    let validated = validate_kernel::<T>(&winner);
    if !validated {
        winner = builtin;
    }
    SearchReport {
        prefix: key::<T>(),
        winner,
        probe_dim: dim,
        measurements,
        validated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        Profile {
            fingerprint: fingerprint(),
            entries: vec![
                ProfileEntry {
                    prefix: 'd',
                    threads: 0,
                    kernel: TunedKernel {
                        engine: Engine::Scalar,
                        geom: Geometry::new(8, 6),
                        block: BlockConfig::new(96, 192, 1024),
                    },
                },
                ProfileEntry {
                    prefix: 's',
                    threads: 4,
                    kernel: TunedKernel {
                        engine: Engine::Scalar,
                        geom: Geometry::new(16, 4),
                        block: BlockConfig::new(128, 256, 2048),
                    },
                },
            ],
        }
    }

    #[test]
    fn profile_round_trips_identically() {
        let p = sample_profile();
        let text = p.encode();
        let back = Profile::parse(&text).expect("parse");
        assert_eq!(back, p);
    }

    #[test]
    fn tracked_profile_parses_and_renders_byte_identically() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/tuning/x86_64-avx512-c1.tune"
        );
        let text = std::fs::read_to_string(path).expect("tracked profile");
        let p = Profile::parse(&text).expect("parse");
        assert_eq!(p.encode(), text);
        let keys: Vec<char> = p.entries.iter().map(|e| e.prefix).collect();
        assert_eq!(keys, [key::<f32>(), key::<f64>()]);
    }

    #[test]
    fn corrupt_profile_fails_checksum() {
        let p = sample_profile();
        let text = p.encode().replace("8 6", "8 4");
        match Profile::parse(&text) {
            Err(TuneError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let p = sample_profile();
        let text = p.encode().replacen("v1", "v99", 1);
        match Profile::parse(&text) {
            Err(TuneError::Version(_)) => {}
            Err(TuneError::Checksum { .. }) => panic!("version must be checked before checksum"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for text in [
            "",
            "not a profile\n",
            "gpu-blob-tune v1\nfingerprint x\nentry d zero scalar 8 4 1 1 1\nchecksum 0\n",
            "gpu-blob-tune v1\nfingerprint x\nentry d 0 scalar 0 4 1 1 1\nchecksum 0\n",
            "gpu-blob-tune v1\nfingerprint x\nentry d 0 warp 8 4 1 1 1\nchecksum 0\n",
            "gpu-blob-tune v1\nfingerprint x\n",
        ] {
            assert!(Profile::parse(text).is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn load_from_missing_file_is_io_error() {
        let err = load_from(Path::new("/nonexistent/dir/x.tune")).unwrap_err();
        assert!(matches!(err, TuneError::Io(_)));
    }

    #[test]
    fn load_from_rejects_foreign_fingerprint() {
        let mut p = sample_profile();
        p.fingerprint = "alien-host-c999".into();
        let dir = std::env::temp_dir().join("gpu-blob-tune-test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("foreign.tune");
        std::fs::write(&path, p.encode()).expect("write");
        let err = load_from(&path).unwrap_err();
        assert!(matches!(err, TuneError::Fingerprint { .. }), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn builtin_defaults_are_supported_configs() {
        for bytes in [4usize, 8] {
            for engine in [Engine::Scalar, Engine::Avx2Fma, Engine::Avx512] {
                let k = TunedKernel::builtin(engine, bytes);
                assert!(
                    supports(k.engine, k.geom, bytes),
                    "builtin {engine:?}/{bytes}B picks unsupported {}",
                    k.geom
                );
            }
        }
    }

    #[test]
    fn active_returns_usable_kernel() {
        // Whatever is (or is not) on disk, the returned configuration must
        // be runnable on this host.
        for threads in [1usize, 4] {
            let k = active::<f64>(threads);
            assert!(k.engine.available());
            assert!(supports(k.engine, k.geom, 8));
            let k32 = active::<f32>(threads);
            assert!(supports(k32.engine, k32.geom, 4));
        }
    }

    #[test]
    fn quick_search_finds_validated_winner() {
        let opts = SearchOpts {
            quick: true,
            budget: Duration::from_secs(20),
            threads: 0,
        };
        let report = search::<f64>(&opts);
        assert!(
            report.validated,
            "quick search winner failed golden validation"
        );
        assert!(!report.measurements.is_empty());
        assert!(supports(report.winner.engine, report.winner.geom, 8));
    }
}
