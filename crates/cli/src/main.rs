//! `gpu-blob` — command-line driver for the GPU BLAS Offload Benchmark.
//!
//! Sweeps the selected problem types over `[s, d]` on the selected backend
//! (a calibrated model of DAWN / LUMI / Isambard-AI, or real measurement of
//! this repo's kernels on the host CPU), prints the offload-threshold table
//! to stdout like the artifact does, and optionally writes the raw
//! per-problem-type CSVs.
//!
//! ```text
//! gpu-blob --system isambard-ai -i 1,8,32,64,128 -s 1 -d 4096 --step 4
//! gpu-blob --system host --problem gemm_square -d 256 --plot
//! ```

mod args;

use args::{
    parse_command, Args, Command, DispatchArgs, ServeArgs, SystemChoice, TuneArgs, SERVE_USAGE,
    TUNE_USAGE, USAGE,
};
use blob_analysis::{
    ascii_chart, precision_cells, precision_legend, DispatchDecision, Series, Table,
};
use blob_core::backend::{Backend, HostCpu};
use blob_core::csv::write_to_dir;
use blob_core::fault;
use blob_core::problem::Problem;
use blob_core::runner::{call_for, run_sweep, run_sweep_checkpointed, Sweep, SweepConfig};
use blob_core::trace;
use blob_core::wire::{self, Json};
use blob_core::{validate_call, Family, ValidationReport};
use blob_sim::{presets, BlasCall, Offload, Precision};
use std::time::Duration;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let serving = argv.first().map(String::as_str) == Some("serve");
    let command = match parse_command(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", if serving { SERVE_USAGE } else { USAGE });
            std::process::exit(2);
        }
    };
    let fault_spec = match &command {
        Command::Serve(a) => a.fault_plan.clone(),
        Command::Sweep(a) | Command::Profile(a) => a.fault_plan.clone(),
        Command::Dispatch(_) | Command::Tune(_) => None,
    };
    install_fault_plan(fault_spec.as_deref());
    match command {
        Command::Serve(args) => {
            if args.help {
                println!("{SERVE_USAGE}");
                return;
            }
            serve(&args);
        }
        Command::Sweep(args) => {
            if args.help {
                println!("{USAGE}");
                return;
            }
            if args.list_problems {
                println!("{:<20} definition", "id");
                for p in Problem::all() {
                    println!("{:<20} {}", p.id(), p.label());
                }
                return;
            }
            if let Some(path) = args.trace.clone() {
                run_traced(&args, &path);
            } else {
                run(&args);
            }
        }
        Command::Profile(args) => {
            if args.help {
                println!("{USAGE}");
                return;
            }
            run_profiled(&args);
        }
        Command::Dispatch(args) => {
            if args.help {
                println!("{USAGE}");
                return;
            }
            run_dispatch(&args);
        }
        Command::Tune(args) => {
            if args.help {
                println!("{TUNE_USAGE}");
                return;
            }
            run_tune(&args);
        }
    }
}

/// The `tune` subcommand: searches the kernel-variant space for each
/// element type, persists the winners as a schema-versioned per-host
/// tuning profile (atomic write), and reload-verifies the file so a
/// profile that cannot round-trip never reaches disk silently.
fn run_tune(args: &TuneArgs) {
    use blob_blas::tune::{self, Profile, ProfileEntry, SearchOpts};

    let fingerprint = tune::fingerprint();
    println!("gpu-blob tune | host fingerprint: {fingerprint}");
    println!(
        "active engine: {} | budget: {} ms per precision{}",
        blob_blas::microkernel::active_engine().label(),
        args.budget_ms,
        if args.quick { " | quick" } else { "" }
    );

    let opts = SearchOpts {
        quick: args.quick,
        budget: Duration::from_millis(args.budget_ms),
        threads: if args.threads == 0 { 1 } else { args.threads },
    };

    let mut entries = Vec::new();
    for report in [tune::search::<f32>(&opts), tune::search::<f64>(&opts)] {
        let k = &report.winner;
        println!(
            "\n{}gemm winner (probe {}³, {} candidate(s) timed, validated: {}):",
            report.prefix,
            report.probe_dim,
            report.measurements.len(),
            report.validated
        );
        println!(
            "  engine={} tile={} blocking mc={} kc={} nc={}",
            k.engine.label(),
            k.geom,
            k.block.mc,
            k.block.kc,
            k.block.nc
        );
        let mut timed = report.measurements.clone();
        timed.sort_by_key(|m| m.best);
        for m in timed.iter().take(5) {
            println!(
                "    {:>10.3} ms  engine={} tile={} mc={} kc={} nc={}",
                m.best.as_secs_f64() * 1e3,
                m.kernel.engine.label(),
                m.kernel.geom,
                m.kernel.block.mc,
                m.kernel.block.kc,
                m.kernel.block.nc
            );
        }
        entries.push(ProfileEntry {
            prefix: report.prefix,
            threads: args.threads,
            kernel: report.winner,
        });
    }

    let profile = Profile {
        fingerprint: fingerprint.clone(),
        entries,
    };
    let dir = args.dir.clone().unwrap_or_else(blob_blas::tune::tuning_dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let path = dir.join(format!("{fingerprint}.tune"));
    if let Err(e) = blob_core::atomicio::write_atomic(&path, profile.encode().as_bytes()) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
    // Reload through the same loader blob-blas uses at startup: a profile
    // that does not survive the round trip must fail the tune run, not the
    // next library init.
    match tune::load_from(&path) {
        Ok(p) if p == profile => {
            println!("\nwrote {} (reload-verified)", path.display());
        }
        Ok(_) => {
            eprintln!("error: {} did not round-trip cleanly", path.display());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: cannot reload {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The `sweep --mode dispatch` path: replays a seeded mixed trace
/// through the online auto-dispatcher on a modelled system and prints
/// the three-way realized-time comparison (dispatcher vs always-CPU vs
/// always-GPU, plus the clairvoyant lower bound) and the per-site
/// decision summary.
fn run_dispatch(args: &DispatchArgs) {
    let system = match args.system {
        SystemChoice::Dawn => presets::dawn(),
        SystemChoice::Lumi => presets::lumi(),
        SystemChoice::IsambardAi => presets::isambard_ai(),
        // rejected at argument validation
        SystemChoice::Host => unreachable!("--mode dispatch validates --system"),
    };
    let report = blob_dispatch::replay(&system, args.seed, args.calls);
    let decisions: Vec<DispatchDecision> = report
        .decisions
        .iter()
        .map(|d| DispatchDecision {
            index: d.index,
            site: d.site,
            gpu: d.gpu,
            flipped: d.flipped,
            fellback: d.fellback,
            realized_seconds: d.realized_seconds,
        })
        .collect();

    if let Some(path) = &args.svg {
        let title = format!(
            "auto-dispatch decisions — {} (seed {}, {} calls)",
            system.name, args.seed, args.calls
        );
        let svg = blob_analysis::dispatch_timeline_svg(&title, &decisions);
        if let Err(e) = std::fs::write(path, svg) {
            eprintln!("error: cannot write SVG to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote decision timeline to {}", path.display());
    }

    if args.json {
        let doc = Json::obj()
            .field("system", system.name)
            .field("seed", args.seed)
            .field("calls", args.calls)
            .field("dispatcher_seconds", report.dispatcher_seconds)
            .field("always_cpu_seconds", report.always_cpu_seconds)
            .field("always_gpu_seconds", report.always_gpu_seconds)
            .field("oracle_seconds", report.oracle_seconds)
            .field("decisions_cpu", report.stats.decisions_cpu)
            .field("decisions_gpu", report.stats.decisions_gpu)
            .field("flips", report.stats.flips)
            .field("fallbacks", report.stats.fallbacks)
            .build();
        println!("{}", doc.encode_pretty());
        return;
    }

    println!("GPU-BLOB auto-dispatch replay | system: {}", system.name);
    println!(
        "seed {} | {} mixed calls across 8 call sites\n",
        args.seed, args.calls
    );
    let mut table = Table::new(
        "Realized time by routing policy",
        &["Policy", "Total (ms)", "vs dispatcher"],
    );
    let rel = |t: f64| {
        if report.dispatcher_seconds > 0.0 {
            format!("{:+.1}%", (t / report.dispatcher_seconds - 1.0) * 100.0)
        } else {
            "-".to_string()
        }
    };
    for (policy, t) in [
        ("online dispatcher", report.dispatcher_seconds),
        ("always-CPU", report.always_cpu_seconds),
        ("always-GPU", report.always_gpu_seconds),
        ("oracle (lower bound)", report.oracle_seconds),
    ] {
        table.push_row(vec![policy.to_string(), format!("{:.3}", t * 1e3), rel(t)]);
    }
    println!("{}", table.render());
    println!(
        "decisions: {} cpu, {} gpu | {} flip(s), {} fallback(s)\n",
        report.stats.decisions_cpu,
        report.stats.decisions_gpu,
        report.stats.flips,
        report.stats.fallbacks
    );
    println!(
        "{}",
        blob_analysis::dispatch_timeline_table(&decisions).render()
    );
}

/// The `--trace FILE` path: arms the trace plane, runs the sweep exactly
/// as `run` would, then writes every recorded span as a chrome://tracing
/// JSON document (load it at `chrome://tracing` or in Perfetto).
fn run_traced(args: &Args, path: &std::path::Path) {
    trace::enable();
    run(args);
    let spans = trace::take();
    let dropped = trace::dropped();
    trace::disable();
    let doc = trace::chrome_trace_json(&spans);
    if let Err(e) = std::fs::write(path, doc) {
        eprintln!("error: cannot write trace to {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!(
        "wrote {} span(s) to {}{}",
        spans.len(),
        path.display(),
        if dropped > 0 {
            format!(" ({dropped} dropped at the sink cap)")
        } else {
            String::new()
        }
    );
}

/// The `profile` subcommand: runs the sweep with tracing armed and prints
/// the aggregated per-span-name profile (count, total/self time, p50/p99)
/// instead of shipping the raw spans anywhere.
fn run_profiled(args: &Args) {
    trace::enable();
    run(args);
    let spans = trace::take();
    let dropped = trace::dropped();
    trace::disable();
    println!("{}", trace::render_profile(&trace::profile(&spans)));
    if dropped > 0 {
        eprintln!("note: {dropped} span(s) dropped at the sink cap; totals are a lower bound");
    }
}

/// Installs the deterministic fault plan, if any: `--fault-plan` wins over
/// the `GPU_BLOB_FAULTS` environment variable. A spec that does not parse
/// is a usage error (exit 2) — a typo must not silently disable chaos.
fn install_fault_plan(explicit: Option<&str>) {
    let installed = match explicit {
        Some(spec) => fault::Plan::parse(spec).map(|plan| {
            fault::install(&plan);
            true
        }),
        None => fault::install_from_env(),
    };
    match installed {
        Ok(true) => eprintln!("gpu-blob: fault plan installed (chaos mode)"),
        Ok(false) => {}
        Err(e) => {
            eprintln!("error: bad fault plan: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs the advisor service until it is shut down (`POST /shutdown` when
/// enabled, or the process is killed).
fn serve(args: &ServeArgs) {
    if args.shards > 0 {
        serve_fabric(args);
        return;
    }
    let cfg = blob_serve::Config {
        addr: args.addr.clone(),
        threads: args.threads,
        cache_entries: args.cache_entries,
        allow_shutdown: args.allow_shutdown,
        deadline: Duration::from_millis(args.deadline_ms),
        ..blob_serve::Config::default()
    };
    let server = match blob_serve::Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    // Stdout is line-buffered, so this line is immediately visible to a
    // parent process parsing the bound (possibly ephemeral) port.
    println!("listening on {}", server.local_addr());
    println!(
        "endpoints: POST /v1/advise | POST /v1/threshold | POST /v1/dispatch | \
         GET /v1/systems | GET /v1/healthz | GET /v1/metrics | GET /v1/trace"
    );
    server.join();
    println!("server stopped");
}

/// Runs the sharded serve fabric: `--shards N` backend worker processes
/// (each a plain `gpu-blob serve` child on an ephemeral port) behind the
/// shard router, with a supervisor that respawns any child that dies and
/// swaps the replacement into the router.
fn serve_fabric(args: &ServeArgs) {
    let bin = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate own binary for shard spawning: {e}");
            std::process::exit(1);
        }
    };
    // Children inherit the fault plan through GPU_BLOB_FAULTS (process
    // environment propagates to spawned children), so chaos drills hit
    // the backends too, not just the router.
    let mut extra: Vec<String> = vec![
        "--threads".into(),
        args.threads.to_string(),
        "--cache-entries".into(),
        args.cache_entries.to_string(),
        "--deadline-ms".into(),
        args.deadline_ms.to_string(),
    ];
    if args.allow_shutdown {
        extra.push("--allow-remote-shutdown".into());
    }
    let mut backends = Vec::with_capacity(args.shards);
    for i in 0..args.shards {
        let extra_refs: Vec<&str> = extra.iter().map(String::as_str).collect();
        match blob_serve::fabric::BackendProc::spawn(&bin, &extra_refs) {
            Ok(b) => backends.push(b),
            Err(e) => {
                eprintln!("error: cannot spawn shard {i}: {e}");
                std::process::exit(1);
            }
        }
    }
    let addrs: Vec<std::net::SocketAddr> = backends.iter().map(|b| b.addr).collect();

    let server_cfg = blob_serve::Config {
        addr: args.addr.clone(),
        threads: args.threads,
        allow_shutdown: args.allow_shutdown,
        ..blob_serve::Config::default()
    };
    let router_cfg = blob_serve::RouterConfig {
        hedge_after: Duration::from_millis(args.hedge_ms),
        probe_interval: Duration::from_millis(args.probe_ms),
        allow_shutdown: args.allow_shutdown,
        ..blob_serve::RouterConfig::default()
    };
    let fabric = match blob_serve::Fabric::start(server_cfg, router_cfg, addrs.clone()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", fabric.local_addr());
    for (i, addr) in addrs.iter().enumerate() {
        println!("shard {i}: {addr}");
    }
    println!(
        "endpoints: POST /v1/advise | POST /v1/threshold | POST /v1/dispatch | \
         GET /v1/systems | GET /v1/healthz | GET /v1/metrics | GET /v1/fabric"
    );

    // Supervisor: respawn dead shards and hot-swap the replacement into
    // the router. The breaker keeps traffic off the slot while it is
    // down, so a respawn is invisible to clients beyond a reroute.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let supervisor = {
        let router = std::sync::Arc::clone(fabric.router());
        let stop = std::sync::Arc::clone(&stop);
        let bin = bin.clone();
        let extra = extra.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                for (i, backend) in backends.iter_mut().enumerate() {
                    if !backend.is_dead() {
                        continue;
                    }
                    let extra_refs: Vec<&str> = extra.iter().map(String::as_str).collect();
                    match blob_serve::fabric::BackendProc::spawn(&bin, &extra_refs) {
                        Ok(fresh) => {
                            eprintln!("gpu-blob: shard {i} died; respawned at {}", fresh.addr);
                            router.replace_shard(i, fresh.addr);
                            *backend = fresh;
                        }
                        Err(e) => eprintln!("gpu-blob: shard {i} died; respawn failed: {e}"),
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            // Dropping the Vec<BackendProc> here kills the children.
        })
    };

    fabric.join();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let _ = supervisor.join();
    println!("fabric stopped");
}

fn run(args: &Args) {
    let host;
    let dawn;
    let lumi;
    let isam;
    let backend: &dyn Backend = match args.system {
        SystemChoice::Host => {
            host = match args.threads {
                Some(t) => HostCpu::with_threads(t),
                None => HostCpu::default(),
            };
            &host
        }
        SystemChoice::Dawn => {
            dawn = presets::dawn();
            &dawn
        }
        SystemChoice::Lumi => {
            lumi = presets::lumi();
            &lumi
        }
        SystemChoice::IsambardAi => {
            isam = presets::isambard_ai();
            &isam
        }
    };

    // --checkpoint pins the invocation to a single sweep (enforced at
    // argument validation) and takes the crash-safe path.
    if let Some(ckpt_path) = args.checkpoint.clone() {
        run_checkpointed(args, backend, &ckpt_path);
        return;
    }

    // --custom alone runs only the custom families; otherwise default to
    // the artifact's full 14 problem types. Custom families run after the
    // --problem types, through the same loop.
    let builtins = if args.problems.is_empty() && args.customs.is_empty() {
        Problem::all()
    } else {
        args.problems.clone()
    };
    let builtin_count = builtins.len();
    let families: Vec<Family> = builtins
        .into_iter()
        .map(Family::from)
        .chain(args.customs.iter().cloned())
        .collect();
    let precisions: Vec<Precision> = if args.precisions.is_empty() {
        Precision::ALL.to_vec()
    } else {
        args.precisions.clone()
    };

    if args.json {
        run_json(args, backend, &families, &precisions);
        return;
    }

    println!("GPU-BLOB | system: {}", backend.name());
    println!(
        "dims [{}, {}] step {} | iterations {:?} | {} problem type(s)\n",
        args.min_dim, args.max_dim, args.step, args.iterations, builtin_count
    );

    let offloads = backend.offloads();
    for family in &families {
        let mut table = threshold_table(family.label(), &precisions, &offloads);
        for &iters in &args.iterations {
            let cfg = SweepConfig::new(args.min_dim, args.max_dim, iters).with_step(args.step);
            let sweeps: Vec<Sweep> = precisions
                .iter()
                .map(|&precision| run_sweep(backend, family.clone(), precision, &cfg))
                .collect();
            table.push_row(threshold_row(iters, &sweeps, &offloads));

            if args.plot {
                for sweep in &sweeps {
                    let mut series = vec![Series::from_usize("CPU", &sweep.cpu_series())];
                    for &o in &offloads {
                        series.push(Series::from_usize(
                            format!("GPU {}", o.label()),
                            &sweep.gpu_series(o),
                        ));
                    }
                    let title = format!(
                        "{} {} ({} iterations) on {}",
                        sweep.precision,
                        family.label(),
                        iters,
                        backend.name()
                    );
                    println!("{}", ascii_chart(&title, &series, 90, 16));
                }
            }
            if let Some(dir) = &args.output {
                for sweep in &sweeps {
                    write_csv_or_die(dir, sweep);
                }
            }
        }
        if offloads.is_empty() {
            println!(
                "{} — CPU-only backend: no offload thresholds (CSV/plots still available)\n",
                family.label()
            );
        } else {
            println!("{}", table.render());
        }

        if args.validate {
            for (call, rep) in validate_family(args, family, &precisions) {
                println!(
                    "validate {} {:?}: rel err {:.2e} -> {}",
                    call.routine(),
                    call.kernel.dims(),
                    rep.rel_err,
                    if rep.ok { "OK" } else { "FAIL" }
                );
            }
            println!();
        }
    }
}

/// The offload-threshold table of one family, before its rows: one column
/// per offload strategy, titled with the swept precisions' legend.
fn threshold_table(label: &str, precisions: &[Precision], offloads: &[Offload]) -> Table {
    let headers: Vec<&str> = std::iter::once("Iterations")
        .chain(offloads.iter().map(|o| o.label()))
        .collect();
    Table::new(
        format!(
            "{label} — offload thresholds ({})",
            precision_legend(precisions)
        ),
        &headers,
    )
}

/// One row of [`threshold_table`]: per offload strategy, each precision's
/// threshold parameter (`—` where the GPU never durably wins).
fn threshold_row(iters: u32, sweeps: &[Sweep], offloads: &[Offload]) -> Vec<String> {
    let mut row = vec![iters.to_string()];
    for &o in offloads {
        let cells: Vec<Option<usize>> = sweeps
            .iter()
            .map(|s| s.threshold_record(o).map(|r| r.param))
            .collect();
        row.push(precision_cells(&cells));
    }
    row
}

/// Checksum-validates one call per precision at a sample size of `family`
/// (its largest parameter within `min(d, 128)`).
fn validate_family(
    args: &Args,
    family: &Family,
    precisions: &[Precision],
) -> Vec<(BlasCall, ValidationReport)> {
    let p = family.max_param(args.max_dim.min(128)).max(1);
    let cfg = SweepConfig::new(args.min_dim, args.max_dim, 1);
    precisions
        .iter()
        .map(|&precision| {
            let call = call_for(family, precision, p, &cfg);
            let rep = validate_call(&call, 0xB10B);
            (call, rep)
        })
        .collect()
}

/// Writes one sweep's CSV, surfacing the error instead of panicking: a
/// result file the harness could not produce must fail the run visibly.
fn write_csv_or_die(dir: &std::path::Path, sweep: &Sweep) {
    match write_to_dir(dir, sweep) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write CSV into {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// The `--checkpoint` path: one sweep, persisted atomically after every
/// measured size, optionally resumed (`--resume`) and watched
/// (`--size-budget-ms`). Output matches the normal single-sweep run.
fn run_checkpointed(args: &Args, backend: &dyn Backend, ckpt_path: &std::path::Path) {
    let problem = args.problems[0];
    let precision = args.precisions[0];
    let iters = args.iterations[0];
    let cfg = SweepConfig::new(args.min_dim, args.max_dim, iters).with_step(args.step);
    let budget = args.size_budget_ms.map(Duration::from_millis);
    let run = match run_sweep_checkpointed(
        backend,
        problem,
        precision,
        &cfg,
        ckpt_path,
        args.resume,
        budget,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: checkpointed sweep failed: {e}");
            std::process::exit(1);
        }
    };
    if run.resumed > 0 {
        eprintln!(
            "resumed {} of {} sizes from {}",
            run.resumed,
            run.sweep.records.len(),
            ckpt_path.display()
        );
    }
    if run.watchdog_stalls > 0 {
        eprintln!(
            "watchdog: {} size measurement(s) exceeded the {} ms budget",
            run.watchdog_stalls,
            args.size_budget_ms.unwrap_or(0)
        );
    }
    let sweep = run.sweep;
    if let Some(dir) = &args.output {
        write_csv_or_die(dir, &sweep);
    }
    if args.json {
        let doc = Json::obj()
            .field("system", backend.name())
            .field("min_dim", args.min_dim)
            .field("max_dim", args.max_dim)
            .field("step", args.step)
            .field("resumed", run.resumed as u64)
            .field("watchdog_stalls", run.watchdog_stalls)
            .field("sweeps", Json::Arr(vec![wire::sweep_json(&sweep)]))
            .build();
        println!("{}", doc.encode_pretty());
        return;
    }
    let offloads = backend.offloads();
    if offloads.is_empty() {
        println!(
            "{} — CPU-only backend: no offload thresholds (CSV still available)",
            problem.label()
        );
        return;
    }
    let mut table = threshold_table(problem.label(), &[precision], &offloads);
    table.push_row(threshold_row(iters, &[sweep], &offloads));
    println!("{}", table.render());
}

/// The `--json` output mode: the whole run as one document on stdout,
/// through the shared wire encoder — nothing else is printed there, so the
/// output pipes straight into `jq` or back into `wire::Json::parse`.
fn run_json(args: &Args, backend: &dyn Backend, families: &[Family], precisions: &[Precision]) {
    let mut sweeps = Vec::new();
    for family in families {
        for &iters in &args.iterations {
            let cfg = SweepConfig::new(args.min_dim, args.max_dim, iters).with_step(args.step);
            for &precision in precisions {
                let sweep = run_sweep(backend, family.clone(), precision, &cfg);
                if let Some(dir) = &args.output {
                    write_csv_or_die(dir, &sweep);
                }
                sweeps.push(wire::sweep_json(&sweep));
            }
        }
    }
    let mut doc = Json::obj()
        .field("system", backend.name())
        .field("min_dim", args.min_dim)
        .field("max_dim", args.max_dim)
        .field("step", args.step)
        .field("sweeps", Json::Arr(sweeps));
    if args.validate {
        let checks = families
            .iter()
            .flat_map(|family| validate_family(args, family, precisions))
            .map(|(call, rep)| {
                Json::obj()
                    .field("call", wire::call_json(&call))
                    .field("rel_err", rep.rel_err)
                    .field("ok", rep.ok)
                    .build()
            })
            .collect();
        doc = doc.field("validation", Json::Arr(checks));
    }
    println!("{}", doc.build().encode_pretty());
}
