//! Hand-rolled argument parsing for the `gpu-blob` binary, mirroring the
//! artifact's interface (`-i <iters> -s <min> -d <max>`) with additions for
//! the modelled systems and output control.

use blob_core::problem::Problem;
use blob_core::wire::{parse_precision, parse_problem_id};
use blob_core::Family;
use blob_sim::Precision;

/// A command-line the binary cannot act on: which argument broke, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A flag that needs a value was the last token.
    MissingValue {
        /// The flag, e.g. `-i`.
        flag: &'static str,
    },
    /// A flag's value failed to parse.
    BadValue {
        /// The flag, e.g. `--step`.
        flag: &'static str,
        /// The offending value text.
        text: String,
    },
    /// `--system` named no known system.
    UnknownSystem(String),
    /// `--problem` named no known problem-type id.
    UnknownProblem(String),
    /// `--precision` was neither f32 nor f64.
    UnknownPrecision(String),
    /// A `--custom` spec did not parse.
    BadCustomSpec {
        /// The spec text as given.
        spec: String,
        /// Parser's explanation.
        reason: String,
    },
    /// An argument matched no known flag.
    UnknownArgument(String),
    /// Arguments parsed individually but are inconsistent together.
    InvalidCombination(&'static str),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            ArgsError::BadValue { flag, text } => write!(f, "bad {flag} value: {text:?}"),
            ArgsError::UnknownSystem(s) => write!(
                f,
                "unknown system '{s}' (expected dawn, lumi, isambard-ai or host)"
            ),
            ArgsError::UnknownProblem(s) => {
                write!(f, "unknown problem id '{s}' (see --list-problems)")
            }
            ArgsError::UnknownPrecision(s) => write!(f, "unknown precision '{s}'"),
            ArgsError::BadCustomSpec { spec, reason } => {
                write!(f, "bad --custom spec '{spec}': {reason}")
            }
            ArgsError::UnknownArgument(s) => write!(f, "unknown argument '{s}' (try --help)"),
            ArgsError::InvalidCombination(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Which backend times the calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemChoice {
    /// Calibrated model of the DAWN system (Intel GPUs, oneMKL).
    Dawn,
    /// Calibrated model of LUMI (AMD GPUs, hipBLAS).
    Lumi,
    /// Calibrated model of Isambard-AI (Grace-Hopper, cuBLAS).
    IsambardAi,
    /// Real wall-clock measurement of this repo's kernels on the host CPU.
    Host,
}

impl SystemChoice {
    /// Parses a `--system` value (case-insensitive, with aliases).
    pub fn parse(s: &str) -> Result<Self, ArgsError> {
        match s.to_ascii_lowercase().as_str() {
            "dawn" => Ok(SystemChoice::Dawn),
            "lumi" => Ok(SystemChoice::Lumi),
            "isambard-ai" | "isambard" | "isambardai" => Ok(SystemChoice::IsambardAi),
            "host" => Ok(SystemChoice::Host),
            other => Err(ArgsError::UnknownSystem(other.to_string())),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Iteration counts to run (`-i`, repeatable/comma-separated).
    pub iterations: Vec<u32>,
    /// Minimum dimension (`-s`).
    pub min_dim: usize,
    /// Maximum dimension (`-d`).
    pub max_dim: usize,
    /// Sweep stride over the size parameter.
    pub step: usize,
    pub system: SystemChoice,
    /// Problems to run (`--problem <id>`, repeatable); empty = all 14.
    pub problems: Vec<Problem>,
    /// Custom problem families (`--custom <spec>`, repeatable); they run
    /// after the `--problem` types, through the same loop.
    pub customs: Vec<Family>,
    /// Precisions to run; empty = both.
    pub precisions: Vec<Precision>,
    /// Directory for CSV output; `None` = no CSVs.
    pub output: Option<std::path::PathBuf>,
    /// Run checksum validation at a sample size per problem type.
    pub validate: bool,
    /// Print an ASCII performance chart per sweep.
    pub plot: bool,
    /// Emit the whole run as one JSON document on stdout instead of tables.
    pub json: bool,
    /// Host threads (host backend only).
    pub threads: Option<usize>,
    /// Fault-plan spec (`--fault-plan`), overriding `GPU_BLOB_FAULTS`.
    pub fault_plan: Option<String>,
    /// Checkpoint file for crash-safe sweeps (`--checkpoint`).
    pub checkpoint: Option<std::path::PathBuf>,
    /// Resume from an existing checkpoint (`--resume`).
    pub resume: bool,
    /// Watchdog budget per measured size in ms (`--size-budget-ms`).
    pub size_budget_ms: Option<u64>,
    /// Write a chrome://tracing span dump of the run (`--trace <FILE>`).
    pub trace: Option<std::path::PathBuf>,
    pub help: bool,
    pub list_problems: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            iterations: vec![1],
            min_dim: 1,
            max_dim: 1024,
            step: 1,
            system: SystemChoice::IsambardAi,
            problems: vec![],
            customs: vec![],
            precisions: vec![],
            output: None,
            validate: false,
            plot: false,
            json: false,
            threads: None,
            fault_plan: None,
            checkpoint: None,
            resume: false,
            size_budget_ms: None,
            trace: None,
            help: false,
            list_problems: false,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
gpu-blob — the GPU BLAS Offload Benchmark (Rust reproduction)

USAGE:
    gpu-blob [OPTIONS]
    gpu-blob sweep [OPTIONS]     the same classic run, as an explicit
                                 subcommand; --mode dispatch switches to
                                 the auto-dispatch replay (see below)
    gpu-blob serve [OPTIONS]     run the advisor as an HTTP service
                                 (see gpu-blob serve --help)
    gpu-blob profile [OPTIONS]   run a traced sweep (same options as the
                                 classic run) and print a per-span profile
                                 (call counts, total/self time, p50/p99)

OPTIONS:
    -i <N[,N...]>        iteration counts (default: 1; paper: 1,8,32,64,128)
    -s <N>               minimum dimension (default: 1)
    -d <N>               maximum dimension (default: 1024; paper: 4096)
    --step <N>           sweep stride over the size parameter (default: 1)
    --system <NAME>      dawn | lumi | isambard-ai | host (default: isambard-ai)
                         the three names select calibrated models of the
                         paper's systems; 'host' measures this machine's CPU
    --problem <ID>       run one problem type (repeatable; default: all 14)
    --custom <SPEC>      run a custom family, e.g. gemm:p,p,16p or gemv:32,p
                         (dims: <f>p scaled, p/<d> ratio, <n> fixed;
                         repeatable; runs after any --problem types with
                         every option except --checkpoint)
    --precision <P>      f32 | f64 | bf16 | f16 | f64-emul[2-4]
                         (repeatable or comma-separated; default: f32,f64;
                         f64-emul runs the Ozaki-sliced f32 emulation)
    --output <DIR>       write per-problem-type CSVs (artifact layout)
    --threads <N>        host backend thread count
    --validate           checksum-validate CPU vs GPU kernel paths
    --plot               print an ASCII GFLOP/s chart per sweep
    --json               emit the whole run as one JSON document on stdout
                         (incompatible with --plot)
    --checkpoint <FILE>  persist the sweep after every size (atomic write);
                         requires exactly one problem, precision, and
                         iteration count
    --resume             continue from --checkpoint's file; the finished
                         sweep is byte-identical to an uninterrupted run
    --size-budget-ms <N> watchdog: flag any size measurement exceeding N ms
                         (never kills it; reported on stderr and counted)
    --trace <FILE>       record spans (sweep sizes, pool jobs, pack/compute
                         phases) and write a chrome://tracing JSON dump;
                         open it at chrome://tracing or ui.perfetto.dev
    --fault-plan <SPEC>  install a deterministic fault plan (chaos testing;
                         overrides GPU_BLOB_FAULTS), e.g.
                         'seed=7;csv.write:error@0.5x2'
    --list-problems      list problem-type ids and definitions
    -h, --help           this help

DISPATCH MODE (gpu-blob sweep --mode dispatch):
    replays a seeded mixed-shape trace through the online auto-offload
    dispatcher (per-call-site history, hysteresis, first-touch residency)
    and prints the three-way realized-time comparison against always-CPU
    and always-GPU routing, plus the clairvoyant lower bound.
    --system <NAME>      dawn | lumi | isambard-ai (modelled systems only)
    --seed <N>           trace seed (default: 42)
    --calls <N>          trace length (default: 240)
    --svg <FILE>         write the decision timeline as an SVG strip chart
    --json               emit the report as one JSON document on stdout
";

fn parse_list<T: std::str::FromStr>(v: &str, flag: &'static str) -> Result<Vec<T>, ArgsError> {
    v.split(',')
        .map(|p| {
            p.trim().parse::<T>().map_err(|_| ArgsError::BadValue {
                flag,
                text: p.trim().to_string(),
            })
        })
        .collect()
}

fn parse_value<T: std::str::FromStr>(v: &str, flag: &'static str) -> Result<T, ArgsError> {
    v.parse().map_err(|_| ArgsError::BadValue {
        flag,
        text: v.to_string(),
    })
}

/// Parses the full argument vector (without argv[0]).
pub fn parse(argv: &[String]) -> Result<Args, ArgsError> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    let next_value = |flag: &'static str,
                      it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next().cloned().ok_or(ArgsError::MissingValue { flag })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-i" => args.iterations = parse_list(&next_value("-i", &mut it)?, "-i")?,
            "-s" => args.min_dim = parse_value(&next_value("-s", &mut it)?, "-s")?,
            "-d" => args.max_dim = parse_value(&next_value("-d", &mut it)?, "-d")?,
            "--step" => args.step = parse_value(&next_value("--step", &mut it)?, "--step")?,
            "--system" => args.system = SystemChoice::parse(&next_value("--system", &mut it)?)?,
            "--problem" => {
                let id = next_value("--problem", &mut it)?;
                let problem = parse_problem_id(&id).ok_or(ArgsError::UnknownProblem(id))?;
                args.problems.push(problem);
            }
            "--custom" => {
                let spec = next_value("--custom", &mut it)?;
                let custom = Family::parse(&spec).map_err(|reason| ArgsError::BadCustomSpec {
                    spec: spec.clone(),
                    reason,
                })?;
                args.customs.push(custom);
            }
            "--precision" => {
                // accepts a comma list as well as repeated flags, so
                // `--precision f32,bf16,f64-emul` is one sweep axis
                let v = next_value("--precision", &mut it)?;
                for part in v.split(',') {
                    let part = part.trim();
                    match parse_precision(part) {
                        Some(p) => args.precisions.push(p),
                        None => return Err(ArgsError::UnknownPrecision(part.to_string())),
                    }
                }
            }
            "--output" => args.output = Some(next_value("--output", &mut it)?.into()),
            "--threads" => {
                args.threads = Some(parse_value(
                    &next_value("--threads", &mut it)?,
                    "--threads",
                )?)
            }
            "--validate" => args.validate = true,
            "--plot" => args.plot = true,
            "--json" => args.json = true,
            "--fault-plan" => args.fault_plan = Some(next_value("--fault-plan", &mut it)?),
            "--checkpoint" => args.checkpoint = Some(next_value("--checkpoint", &mut it)?.into()),
            "--resume" => args.resume = true,
            "--size-budget-ms" => {
                args.size_budget_ms = Some(parse_value(
                    &next_value("--size-budget-ms", &mut it)?,
                    "--size-budget-ms",
                )?)
            }
            "--trace" => args.trace = Some(next_value("--trace", &mut it)?.into()),
            "--list-problems" => args.list_problems = true,
            "-h" | "--help" => args.help = true,
            other => return Err(ArgsError::UnknownArgument(other.to_string())),
        }
    }
    if args.min_dim == 0 {
        return Err(ArgsError::InvalidCombination("-s must be at least 1"));
    }
    if args.max_dim < args.min_dim {
        return Err(ArgsError::InvalidCombination("-d must be >= -s"));
    }
    if args.iterations.is_empty() || args.iterations.contains(&0) {
        return Err(ArgsError::InvalidCombination(
            "-i requires positive iteration counts",
        ));
    }
    if args.json && args.plot {
        return Err(ArgsError::InvalidCombination(
            "--json and --plot are mutually exclusive (JSON mode keeps stdout machine-readable)",
        ));
    }
    if args.resume && args.checkpoint.is_none() {
        return Err(ArgsError::InvalidCombination(
            "--resume requires --checkpoint <FILE>",
        ));
    }
    if args.checkpoint.is_some() {
        // A checkpoint file holds exactly one sweep, so the invocation
        // must pin the sweep down to one.
        if args.problems.len() != 1
            || !args.customs.is_empty()
            || args.precisions.len() != 1
            || args.iterations.len() != 1
        {
            return Err(ArgsError::InvalidCombination(
                "--checkpoint requires exactly one --problem, one --precision, \
                 one -i value, and no --custom",
            ));
        }
    }
    if args.size_budget_ms == Some(0) {
        return Err(ArgsError::InvalidCombination(
            "--size-budget-ms must be at least 1",
        ));
    }
    Ok(args)
}

/// Arguments of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Bind address (`--addr`), `host:port`; port `0` picks an ephemeral one.
    pub addr: String,
    /// Worker-pool size (`--threads`).
    pub threads: usize,
    /// Threshold-cache capacity in entries (`--cache-entries`).
    pub cache_entries: usize,
    /// Honour `POST /shutdown` (`--allow-remote-shutdown`).
    pub allow_shutdown: bool,
    /// Per-request deadline budget for compute endpoints, in ms
    /// (`--deadline-ms`).
    pub deadline_ms: u64,
    /// Fault-plan spec (`--fault-plan`), overriding `GPU_BLOB_FAULTS`.
    pub fault_plan: Option<String>,
    /// Backend worker processes behind the shard router (`--shards`);
    /// `0` (the default) runs the classic single-process service.
    pub shards: usize,
    /// Hedge-delay floor for the shard router, in ms (`--hedge-ms`).
    pub hedge_ms: u64,
    /// Replica health-probe interval for the shard router, in ms
    /// (`--probe-ms`).
    pub probe_ms: u64,
    pub help: bool,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8787".to_string(),
            threads: 4,
            cache_entries: 256,
            allow_shutdown: false,
            deadline_ms: 10_000,
            fault_plan: None,
            shards: 0,
            hedge_ms: 30,
            probe_ms: 50,
            help: false,
        }
    }
}

/// Usage text for `gpu-blob serve`.
pub const SERVE_USAGE: &str = "\
gpu-blob serve — run the offload advisor as a long-lived HTTP service

USAGE:
    gpu-blob serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>        bind address (default: 127.0.0.1:8787; port 0
                              picks an ephemeral port, printed on startup)
    --threads <N>             worker threads (default: 4)
    --cache-entries <N>       threshold-sweep cache capacity (default: 256)
    --allow-remote-shutdown   honour POST /v1/shutdown (off by default; CI and
                              benches use it for clean teardown)
    --deadline-ms <N>         per-request budget for POST /v1/advise and
                              POST /v1/threshold; exceeded -> 503
                              (default: 10000)
    --fault-plan <SPEC>       install a deterministic fault plan (chaos
                              testing; overrides GPU_BLOB_FAULTS)
    --shards <N>              run the sharded fabric: spawn and supervise N
                              backend worker processes behind a shard router
                              (default: 0 = classic single-process service)
    --hedge-ms <N>            shard router: hedge-delay floor before a slow
                              request is raced on a second replica
                              (default: 30; requires --shards)
    --probe-ms <N>            shard router: replica health-probe interval
                              (default: 50; requires --shards)
    -h, --help                this help

ENDPOINTS (all under /v1/; with --shards the router also serves
GET /v1/fabric and proxies the rest to the backend replicas):
    POST /v1/advise      one BLAS call -> offload verdict
    POST /v1/threshold   (system, problem, precision, sweep) -> threshold table
    POST /v1/dispatch    one BLAS call -> live cpu/gpu routing decision
                         (stateful per-session history + residency)
    GET  /v1/systems     the modelled systems
    GET  /v1/healthz     liveness
    GET  /v1/metrics     request counts, latency quantiles, cache counters
    GET  /v1/trace       recent request spans as chrome://tracing JSON
                         (?last=N bounds the span count)
";

/// Arguments of `gpu-blob sweep --mode dispatch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchArgs {
    /// Modelled system to replay on (`--system`; `host` is rejected —
    /// the replay is fully modelled so the report is deterministic).
    pub system: SystemChoice,
    /// Trace seed (`--seed`).
    pub seed: u64,
    /// Trace length (`--calls`).
    pub calls: usize,
    /// Write the decision timeline as SVG (`--svg <FILE>`).
    pub svg: Option<std::path::PathBuf>,
    /// Emit the report as one JSON document (`--json`).
    pub json: bool,
    pub help: bool,
}

impl Default for DispatchArgs {
    fn default() -> Self {
        Self {
            system: SystemChoice::IsambardAi,
            seed: 42,
            calls: 240,
            svg: None,
            json: false,
            help: false,
        }
    }
}

/// Parses `sweep --mode dispatch` arguments (without the `sweep` token
/// and the `--mode` pair).
pub fn parse_dispatch(argv: &[String]) -> Result<DispatchArgs, ArgsError> {
    let mut args = DispatchArgs::default();
    let mut it = argv.iter().peekable();
    let next_value = |flag: &'static str,
                      it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next().cloned().ok_or(ArgsError::MissingValue { flag })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--system" => args.system = SystemChoice::parse(&next_value("--system", &mut it)?)?,
            "--seed" => args.seed = parse_value(&next_value("--seed", &mut it)?, "--seed")?,
            "--calls" => args.calls = parse_value(&next_value("--calls", &mut it)?, "--calls")?,
            "--svg" => args.svg = Some(next_value("--svg", &mut it)?.into()),
            "--json" => args.json = true,
            "-h" | "--help" => args.help = true,
            other => return Err(ArgsError::UnknownArgument(other.to_string())),
        }
    }
    if args.system == SystemChoice::Host {
        return Err(ArgsError::InvalidCombination(
            "--mode dispatch replays the modelled systems; --system host is not available",
        ));
    }
    if args.calls == 0 {
        return Err(ArgsError::InvalidCombination("--calls must be at least 1"));
    }
    Ok(args)
}

/// What the binary was asked to do: the classic sweep, the service, a
/// traced profiling run, the auto-dispatch replay, or the kernel autotuner.
#[derive(Debug, Clone)]
pub enum Command {
    /// The classic one-shot benchmark run.
    Sweep(Args),
    /// `gpu-blob serve …`.
    Serve(ServeArgs),
    /// `gpu-blob profile …`: the classic run with tracing forced on,
    /// reported as a per-span profile table instead of sweep tables.
    Profile(Args),
    /// `gpu-blob sweep --mode dispatch …`: the auto-dispatch replay.
    Dispatch(DispatchArgs),
    /// `gpu-blob tune …`: search kernel variants and persist the per-host
    /// tuning profile.
    Tune(TuneArgs),
}

/// Arguments of the `tune` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneArgs {
    /// Bounded smoke search (`--quick`): fewer candidates and reps —
    /// seconds, not minutes; what CI runs.
    pub quick: bool,
    /// Wall-clock budget in milliseconds (`--budget-ms`).
    pub budget_ms: u64,
    /// Directory to write the profile into (`--dir`; defaults to the
    /// library's `results/tuning/`).
    pub dir: Option<std::path::PathBuf>,
    /// Thread count to record the tuned entries under (`--threads`;
    /// 0 = wildcard matching any thread count).
    pub threads: usize,
    pub help: bool,
}

impl Default for TuneArgs {
    fn default() -> Self {
        Self {
            quick: false,
            budget_ms: 60_000,
            dir: None,
            threads: 0,
            help: false,
        }
    }
}

/// Usage text for `gpu-blob tune`.
pub const TUNE_USAGE: &str = "\
gpu-blob tune — search GEMM kernel variants and persist the per-host profile

Times every (engine, micro-tile) candidate the host supports, then sweeps
cache-blocking parameters for the winner, validates it against a golden
reference GEMM, and writes the result as a schema-versioned tuning profile
under results/tuning/<fingerprint>.tune. blob-blas loads that profile at
startup; delete the file to return to built-in defaults.

USAGE:
    gpu-blob tune [OPTIONS]

OPTIONS:
    --quick           bounded smoke search: fewer candidates and reps
                      (seconds, not minutes; what CI runs)
    --budget-ms <N>   wall-clock budget per precision in milliseconds
                      (default: 60000)
    --dir <PATH>      directory to write the profile into (default: the
                      library's results/tuning/)
    --threads <N>     record tuned entries under this thread count
                      (default: 0 = wildcard matching any thread count)
    -h, --help        this help
";

/// Parses `tune` subcommand arguments (without the `tune` token).
pub fn parse_tune(argv: &[String]) -> Result<TuneArgs, ArgsError> {
    let mut args = TuneArgs::default();
    let mut it = argv.iter().peekable();
    let next_value = |flag: &'static str,
                      it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next().cloned().ok_or(ArgsError::MissingValue { flag })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--budget-ms" => {
                args.budget_ms = parse_value(&next_value("--budget-ms", &mut it)?, "--budget-ms")?
            }
            "--dir" => args.dir = Some(next_value("--dir", &mut it)?.into()),
            "--threads" => {
                args.threads = parse_value(&next_value("--threads", &mut it)?, "--threads")?
            }
            "-h" | "--help" => args.help = true,
            other => return Err(ArgsError::UnknownArgument(other.to_string())),
        }
    }
    if args.budget_ms == 0 {
        return Err(ArgsError::InvalidCombination(
            "--budget-ms must be at least 1",
        ));
    }
    Ok(args)
}

/// Parses `serve` subcommand arguments (without the `serve` token).
pub fn parse_serve(argv: &[String]) -> Result<ServeArgs, ArgsError> {
    let mut args = ServeArgs::default();
    let mut it = argv.iter().peekable();
    let next_value = |flag: &'static str,
                      it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
        it.next().cloned().ok_or(ArgsError::MissingValue { flag })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = next_value("--addr", &mut it)?,
            "--threads" => {
                args.threads = parse_value(&next_value("--threads", &mut it)?, "--threads")?
            }
            "--cache-entries" => {
                args.cache_entries =
                    parse_value(&next_value("--cache-entries", &mut it)?, "--cache-entries")?
            }
            "--allow-remote-shutdown" => args.allow_shutdown = true,
            "--deadline-ms" => {
                args.deadline_ms =
                    parse_value(&next_value("--deadline-ms", &mut it)?, "--deadline-ms")?
            }
            "--fault-plan" => args.fault_plan = Some(next_value("--fault-plan", &mut it)?),
            "--shards" => args.shards = parse_value(&next_value("--shards", &mut it)?, "--shards")?,
            "--hedge-ms" => {
                args.hedge_ms = parse_value(&next_value("--hedge-ms", &mut it)?, "--hedge-ms")?
            }
            "--probe-ms" => {
                args.probe_ms = parse_value(&next_value("--probe-ms", &mut it)?, "--probe-ms")?
            }
            "-h" | "--help" => args.help = true,
            other => return Err(ArgsError::UnknownArgument(other.to_string())),
        }
    }
    if args.deadline_ms == 0 {
        return Err(ArgsError::InvalidCombination(
            "--deadline-ms must be at least 1",
        ));
    }
    if args.threads == 0 {
        return Err(ArgsError::InvalidCombination(
            "--threads must be at least 1",
        ));
    }
    if args.cache_entries == 0 {
        return Err(ArgsError::InvalidCombination(
            "--cache-entries must be at least 1",
        ));
    }
    if args.shards > 64 {
        return Err(ArgsError::InvalidCombination("--shards must be at most 64"));
    }
    if args.hedge_ms == 0 {
        return Err(ArgsError::InvalidCombination(
            "--hedge-ms must be at least 1",
        ));
    }
    if args.probe_ms == 0 {
        return Err(ArgsError::InvalidCombination(
            "--probe-ms must be at least 1",
        ));
    }
    Ok(args)
}

/// Parses the full argument vector (without argv[0]) into a [`Command`]:
/// a leading `serve` token selects the service, `profile` the traced
/// profile, `tune` the kernel autotuner, `sweep` the classic run (where
/// `--mode dispatch` switches to the auto-dispatch replay); anything else
/// is the classic sweep interface.
pub fn parse_command(argv: &[String]) -> Result<Command, ArgsError> {
    match argv.first().map(String::as_str) {
        Some("serve") => Ok(Command::Serve(parse_serve(&argv[1..])?)),
        Some("profile") => Ok(Command::Profile(parse(&argv[1..])?)),
        Some("tune") => Ok(Command::Tune(parse_tune(&argv[1..])?)),
        Some("sweep") => {
            // Peel off the `--mode` pair; the rest parses per mode.
            let rest = &argv[1..];
            let mut mode: Option<String> = None;
            let mut filtered = Vec::with_capacity(rest.len());
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == "--mode" {
                    mode = Some(
                        rest.get(i + 1)
                            .cloned()
                            .ok_or(ArgsError::MissingValue { flag: "--mode" })?,
                    );
                    i += 2;
                } else {
                    filtered.push(rest[i].clone());
                    i += 1;
                }
            }
            match mode.as_deref() {
                Some("dispatch") => Ok(Command::Dispatch(parse_dispatch(&filtered)?)),
                Some("classic") | None => Ok(Command::Sweep(parse(&filtered)?)),
                Some(other) => Err(ArgsError::BadValue {
                    flag: "--mode",
                    text: other.to_string(),
                }),
            }
        }
        _ => Ok(Command::Sweep(parse(argv)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn paper_invocation() {
        // OMP_NUM_THREADS=48 ... ./gpu-blob -i 8 -s 1 -d 4096
        let a = parse(&sv(&["-i", "8", "-s", "1", "-d", "4096"])).unwrap();
        assert_eq!(a.iterations, vec![8]);
        assert_eq!(a.min_dim, 1);
        assert_eq!(a.max_dim, 4096);
    }

    #[test]
    fn iteration_lists() {
        let a = parse(&sv(&["-i", "1,8,32,64,128"])).unwrap();
        assert_eq!(a.iterations, vec![1, 8, 32, 64, 128]);
    }

    #[test]
    fn system_choices() {
        for (s, want) in [
            ("dawn", SystemChoice::Dawn),
            ("LUMI", SystemChoice::Lumi),
            ("isambard-ai", SystemChoice::IsambardAi),
            ("host", SystemChoice::Host),
        ] {
            assert_eq!(parse(&sv(&["--system", s])).unwrap().system, want);
        }
        assert!(parse(&sv(&["--system", "frontier"])).is_err());
    }

    #[test]
    fn problems_and_precisions() {
        let a = parse(&sv(&[
            "--problem",
            "gemm_square",
            "--problem",
            "gemv_tall_m",
            "--precision",
            "f32",
        ]))
        .unwrap();
        assert_eq!(a.problems.len(), 2);
        assert_eq!(a.precisions, vec![Precision::F32]);
        assert!(parse(&sv(&["--problem", "nope"])).is_err());
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            parse(&sv(&["-s", "0"])).unwrap_err(),
            ArgsError::InvalidCombination("-s must be at least 1")
        );
        assert_eq!(
            parse(&sv(&["-s", "10", "-d", "5"])).unwrap_err(),
            ArgsError::InvalidCombination("-d must be >= -s")
        );
        assert!(matches!(
            parse(&sv(&["-i", "0"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
        assert_eq!(
            parse(&sv(&["--frobnicate"])).unwrap_err(),
            ArgsError::UnknownArgument("--frobnicate".to_string())
        );
        assert_eq!(
            parse(&sv(&["-i"])).unwrap_err(),
            ArgsError::MissingValue { flag: "-i" }
        );
        assert_eq!(
            parse(&sv(&["-d", "many"])).unwrap_err(),
            ArgsError::BadValue {
                flag: "-d",
                text: "many".to_string()
            }
        );
    }

    #[test]
    fn json_flag_and_plot_conflict() {
        let a = parse(&sv(&["--json"])).unwrap();
        assert!(a.json && !a.plot);
        assert!(matches!(
            parse(&sv(&["--json", "--plot"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
    }

    #[test]
    fn serve_subcommand_parses() {
        let c = parse_command(&sv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "8",
            "--cache-entries",
            "64",
            "--allow-remote-shutdown",
        ]))
        .unwrap();
        let Command::Serve(s) = c else {
            panic!("expected serve command")
        };
        assert_eq!(s.addr, "127.0.0.1:0");
        assert_eq!(s.threads, 8);
        assert_eq!(s.cache_entries, 64);
        assert!(s.allow_shutdown);

        // defaults
        let Command::Serve(s) = parse_command(&sv(&["serve"])).unwrap() else {
            panic!("expected serve command")
        };
        assert_eq!(s, ServeArgs::default());

        // validation
        assert!(parse_serve(&sv(&["--threads", "0"])).is_err());
        assert!(parse_serve(&sv(&["--cache-entries", "0"])).is_err());
        assert!(parse_serve(&sv(&["--bogus"])).is_err());

        // no `serve` token → the classic sweep path
        assert!(matches!(
            parse_command(&sv(&["-i", "8"])).unwrap(),
            Command::Sweep(_)
        ));
    }

    #[test]
    fn serve_shard_flags_parse_and_validate() {
        let s = parse_serve(&sv(&[
            "--shards",
            "3",
            "--hedge-ms",
            "15",
            "--probe-ms",
            "25",
        ]))
        .unwrap();
        assert_eq!(s.shards, 3);
        assert_eq!(s.hedge_ms, 15);
        assert_eq!(s.probe_ms, 25);
        // defaults: classic single-process mode
        let d = ServeArgs::default();
        assert_eq!(d.shards, 0);
        assert_eq!(d.hedge_ms, 30);
        assert_eq!(d.probe_ms, 50);
        // validation
        assert!(parse_serve(&sv(&["--shards", "65"])).is_err());
        assert!(parse_serve(&sv(&["--hedge-ms", "0"])).is_err());
        assert!(parse_serve(&sv(&["--probe-ms", "0"])).is_err());
    }

    #[test]
    fn tune_subcommand_parses() {
        let c = parse_command(&sv(&[
            "tune",
            "--quick",
            "--budget-ms",
            "2500",
            "--dir",
            "/tmp/tuning",
            "--threads",
            "4",
        ]))
        .unwrap();
        let Command::Tune(t) = c else {
            panic!("expected tune command")
        };
        assert!(t.quick);
        assert_eq!(t.budget_ms, 2500);
        assert_eq!(t.dir.as_deref(), Some(std::path::Path::new("/tmp/tuning")));
        assert_eq!(t.threads, 4);

        // defaults: full search, one-minute budget, library dir, wildcard
        let Command::Tune(t) = parse_command(&sv(&["tune"])).unwrap() else {
            panic!("expected tune command")
        };
        assert_eq!(t, TuneArgs::default());
        assert!(!t.quick);
        assert_eq!(t.budget_ms, 60_000);

        // validation
        assert!(parse_tune(&sv(&["--budget-ms", "0"])).is_err());
        assert!(parse_tune(&sv(&["--budget-ms"])).is_err());
        assert!(parse_tune(&sv(&["--bogus"])).is_err());
        assert!(parse_tune(&sv(&["--help"])).unwrap().help);
    }

    #[test]
    fn chaos_and_checkpoint_flags() {
        let a = parse(&sv(&[
            "--problem",
            "gemm_square",
            "--precision",
            "f32",
            "-i",
            "2",
            "--checkpoint",
            "/tmp/ck.json",
            "--resume",
            "--size-budget-ms",
            "250",
            "--fault-plan",
            "seed=7;csv.write:error@1x1",
        ]))
        .unwrap();
        assert_eq!(
            a.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/ck.json"))
        );
        assert!(a.resume);
        assert_eq!(a.size_budget_ms, Some(250));
        assert_eq!(a.fault_plan.as_deref(), Some("seed=7;csv.write:error@1x1"));

        // --resume without --checkpoint
        assert!(matches!(
            parse(&sv(&["--resume"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
        // --checkpoint needs the sweep pinned to one (problem, precision, -i)
        assert!(matches!(
            parse(&sv(&["--checkpoint", "/tmp/ck.json"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
        assert!(matches!(
            parse(&sv(&[
                "--problem",
                "gemm_square",
                "--precision",
                "f32",
                "-i",
                "1,8",
                "--checkpoint",
                "/tmp/ck.json",
            ]))
            .unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
        assert!(matches!(
            parse(&sv(&["--size-budget-ms", "0"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
    }

    #[test]
    fn serve_deadline_and_fault_plan() {
        let s = parse_serve(&sv(&[
            "--deadline-ms",
            "500",
            "--fault-plan",
            "serve.sweep:error@1x1",
        ]))
        .unwrap();
        assert_eq!(s.deadline_ms, 500);
        assert_eq!(s.fault_plan.as_deref(), Some("serve.sweep:error@1x1"));
        assert!(parse_serve(&sv(&["--deadline-ms", "0"])).is_err());
    }

    #[test]
    fn trace_flag_and_profile_subcommand() {
        let a = parse(&sv(&["--trace", "/tmp/out.json", "-d", "8"])).unwrap();
        assert_eq!(
            a.trace.as_deref(),
            Some(std::path::Path::new("/tmp/out.json"))
        );
        assert!(matches!(
            parse(&sv(&["--trace"])).unwrap_err(),
            ArgsError::MissingValue { flag: "--trace" }
        ));
        let Command::Profile(p) =
            parse_command(&sv(&["profile", "-d", "16", "--system", "host"])).unwrap()
        else {
            panic!("expected profile command")
        };
        assert_eq!(p.max_dim, 16);
        assert_eq!(p.system, SystemChoice::Host);
    }

    #[test]
    fn sweep_subcommand_and_dispatch_mode() {
        // bare `sweep` token is the classic path
        let Command::Sweep(a) = parse_command(&sv(&["sweep", "-d", "32"])).unwrap() else {
            panic!("expected classic sweep")
        };
        assert_eq!(a.max_dim, 32);
        // explicit classic mode too
        assert!(matches!(
            parse_command(&sv(&["sweep", "--mode", "classic", "-d", "8"])).unwrap(),
            Command::Sweep(_)
        ));
        // dispatch mode with its own flags
        let Command::Dispatch(d) = parse_command(&sv(&[
            "sweep",
            "--mode",
            "dispatch",
            "--system",
            "dawn",
            "--seed",
            "7",
            "--calls",
            "300",
            "--svg",
            "/tmp/t.svg",
            "--json",
        ]))
        .unwrap() else {
            panic!("expected dispatch replay")
        };
        assert_eq!(d.system, SystemChoice::Dawn);
        assert_eq!(d.seed, 7);
        assert_eq!(d.calls, 300);
        assert_eq!(d.svg.as_deref(), Some(std::path::Path::new("/tmp/t.svg")));
        assert!(d.json);
        // defaults
        let Command::Dispatch(d) = parse_command(&sv(&["sweep", "--mode", "dispatch"])).unwrap()
        else {
            panic!("expected dispatch replay")
        };
        assert_eq!(d, DispatchArgs::default());
        // validation
        assert!(matches!(
            parse_command(&sv(&["sweep", "--mode", "dispatch", "--system", "host"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
        assert!(matches!(
            parse_command(&sv(&["sweep", "--mode", "dispatch", "--calls", "0"])).unwrap_err(),
            ArgsError::InvalidCombination(_)
        ));
        assert!(matches!(
            parse_command(&sv(&["sweep", "--mode", "teleport"])).unwrap_err(),
            ArgsError::BadValue { flag: "--mode", .. }
        ));
        assert!(matches!(
            parse_command(&sv(&["sweep", "--mode"])).unwrap_err(),
            ArgsError::MissingValue { flag: "--mode" }
        ));
        // dispatch mode rejects classic-only flags
        assert!(matches!(
            parse_command(&sv(&["sweep", "--mode", "dispatch", "-d", "64"])).unwrap_err(),
            ArgsError::UnknownArgument(_)
        ));
    }

    #[test]
    fn custom_specs() {
        let a = parse(&sv(&["--custom", "gemm:p,p,16p", "--custom", "gemv:32,p"])).unwrap();
        assert_eq!(a.customs.len(), 2);
        assert!(parse(&sv(&["--custom", "gemm:bogus"])).is_err());
    }

    #[test]
    fn flags() {
        let a = parse(&sv(&[
            "--validate",
            "--plot",
            "--output",
            "/tmp/x",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert!(a.validate && a.plot);
        assert_eq!(a.output.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(a.threads, Some(4));
    }
}
