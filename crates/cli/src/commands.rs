//! Subcommand implementations.

use std::path::{Path, PathBuf};

use aarc_baselines::methods;
use aarc_core::report::ConfigurationReport;
use aarc_simulator::EvalService;
use aarc_spec::{compile, load, validate, SpecFormat, SynthParams};
use aarc_telemetry::{LogFormat, LogLevel, Logger};

use crate::args::Args;
use crate::bench;
use crate::report::CompareReport;
use crate::sweep::{self, SweepClass};
use crate::tenant::TenantRegistry;

const USAGE: &str = "\
aarc — declarative scenario runner for the AARC reproduction

USAGE:
    aarc validate <spec>...                     check scenario files
    aarc run --spec FILE [--method NAME]        search one scenario
             [--slo MS] [--threads N] [--format text|json] [--out FILE]
    aarc compare --spec FILE [--threads N] [--format json|csv|table]
                 [--out FILE] [--eval-detail on]
                                                all methods on one scenario
    aarc sweep <spec|dir>... [--methods a,b,c] [--classes nominal,light,...]
               [--threads N] [--slo MS] [--format json|csv] [--out FILE]
                                                many scenarios x methods x input
                                                classes on one shared pool
    aarc bench <spec>... [--threads N] [--batch N] [--out FILE]
               [--baseline FILE] [--max-regress F] [--min-speedup X]
               [--min-incremental-speedup X] [--max-allocs-per-sim F]
                                                emit BENCH_*.json perf measurements
                                                (thread-scaling curve, incremental
                                                resim, batch dedup, search) and gate
                                                against a committed baseline
    aarc serve [--addr HOST:PORT] [--threads N]
               [--tenants FILE] [--max-live-sessions N]
               [--state-dir DIR] [--checkpoint-every N]
               [--log-level error|warn|info|debug] [--log-format text|json]
                                                long-running, multi-tenant configuration
                                                daemon: upload/validate/list/delete
                                                scenarios, start/poll/pause/cancel search
                                                sessions, fetch reports, scrape /metrics,
                                                /version, /debug/events and per-session
                                                convergence traces over a versioned JSON
                                                HTTP API mounted at /api/v1 (bare legacy
                                                paths stay as deprecated aliases).
                                                --tenants FILE maps X-Api-Key headers to
                                                tenant namespaces with per-tenant quotas
                                                and rate limits; without it a single
                                                unlimited anonymous tenant is assumed.
                                                Admission control rejects (429/503
                                                problem+json with Retry-After) instead
                                                of queuing. (default addr 127.0.0.1:7411;
                                                port 0 = ephemeral). Structured logs go
                                                to stderr. POST /shutdown drains sessions
                                                and exits 0 (SIGTERM cannot be trapped
                                                in this no-libc build).
                                                --state-dir DIR makes the registry and
                                                sessions durable: uploads/deletes are
                                                write-ahead logged before the 2xx, live
                                                sessions checkpoint every N rounds
                                                (--checkpoint-every, default 8), and a
                                                restarted daemon replays the WAL and
                                                resumes checkpointed sessions
                                                bit-identically, quarantining anything
                                                corrupt (see GET /api/v1/recovery)
    aarc loadtest [--concurrent N] [--tenants N] [--clients N] [--threads N]
                  [--rps R] [--hold] [--min-concurrent N] [--method NAME]
                  [--out FILE] [--bench FILE]
                                                spawn an in-process daemon and drive N
                                                concurrent sessions against it through
                                                real sockets; reports p50/p99 request
                                                latency, admission 2xx/429/503 counts and
                                                client retries after Retry-After (any 5xx
                                                fails the run). --hold pauses
                                                sessions to pin peak concurrency;
                                                --bench merges a `serve` phase into an
                                                `aarc bench` JSON report (schema v6)
    aarc export-builtin [--dir DIR] [--format yaml|json]
                                                write the three paper workloads as specs
    aarc generate --seed N [--layers N] [--max-width N] [--edge-prob P]
                  [--headroom H] --out FILE     mint a synthetic scenario spec

METHODS: aarc (graph-centric scheduler), bo (Bayesian optimization),
         maff (coupled gradient descent), random (uniform sampling)

All flags also accept --flag=value, and `aarc <subcommand> --help` (or
-h) prints this text. Candidate executions go through the shared
evaluation service: --threads N fans batches out over N workers (results
are bit-identical for any N) and a fingerprint-keyed memo-cache
short-circuits repeated simulations across methods, input classes and
scenarios. --threads defaults to the host's available parallelism when
omitted and must be at least 1.
";

/// Runs the subcommand named by `argv[0]`; a `--help` or `-h` anywhere
/// after it prints the usage instead of running it.
///
/// # Errors
///
/// Returns a user-facing message; `main` prints it and exits non-zero.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let (name, rest) = argv
        .split_first()
        .map_or(("help", argv), |(name, rest)| (name.as_str(), rest));
    let command: fn(&[String]) -> Result<(), String> = match name {
        "validate" => cmd_validate,
        "run" => cmd_run,
        "compare" => cmd_compare,
        "sweep" => cmd_sweep,
        "bench" => cmd_bench,
        "serve" => cmd_serve,
        "loadtest" => cmd_loadtest,
        "export-builtin" => cmd_export_builtin,
        "generate" => cmd_generate,
        "help" | "--help" | "-h" => print_usage,
        other => return Err(format!("unknown subcommand `{other}`\n\n{USAGE}")),
    };
    if rest.iter().any(|arg| arg == "--help" || arg == "-h") {
        return print_usage(rest);
    }
    command(rest)
}

fn print_usage(_: &[String]) -> Result<(), String> {
    print!("{USAGE}");
    Ok(())
}

fn write_or_print(text: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            aarc_spec::atomic_write(path, text.as_bytes()).map_err(|e| format!("{path}: {e}"))
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn cmd_validate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &[])?;
    if args.positional().is_empty() {
        return Err("validate needs at least one spec file".to_string());
    }
    let mut failures = 0usize;
    for path in args.positional() {
        match load(path).and_then(|spec| validate(&spec).map(|()| spec)) {
            Ok(spec) => {
                println!(
                    "{path}: ok ({} functions, {} edges, slo {:.1} ms)",
                    spec.functions.len(),
                    spec.edges.len(),
                    spec.slo_ms
                );
            }
            Err(e) => {
                failures += 1;
                eprintln!("{path}: {e}");
            }
        }
    }
    if failures > 0 {
        Err(format!(
            "{failures} of {} spec(s) invalid",
            args.positional().len()
        ))
    } else {
        Ok(())
    }
}

/// The host's available parallelism (1 when it cannot be determined).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses `--threads`: defaults to the host's available parallelism when
/// omitted, and rejects 0 with a clear error before any pool is built.
/// Shared by `run`/`compare`/`sweep`/`bench`/`serve` — results are
/// bit-identical for any accepted value, so the default only affects
/// wall-clock.
fn parse_threads(args: &Args) -> Result<usize, String> {
    match args.get_parsed::<usize>("threads")? {
        Some(0) => Err(format!(
            "--threads must be at least 1 (got 0); omit the flag to use all {} host cores",
            host_parallelism()
        )),
        Some(threads) => Ok(threads),
        None => Ok(host_parallelism()),
    }
}

fn cmd_serve(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "addr",
            "threads",
            "tenants",
            "max-live-sessions",
            "log-level",
            "log-format",
            "state-dir",
            "checkpoint-every",
        ],
    )?;
    if !args.positional().is_empty() {
        return Err(format!(
            "serve takes no positional arguments (got `{}`)",
            args.positional().join(" ")
        ));
    }
    let addr = args.get("addr").unwrap_or("127.0.0.1:7411").to_owned();
    let threads = parse_threads(&args)?;
    let mut tenants_config = None;
    let tenants = match args.get("tenants") {
        None => TenantRegistry::single_anonymous(),
        Some(path) => {
            let contents =
                std::fs::read_to_string(path).map_err(|e| format!("--tenants {path}: {e}"))?;
            let registry = TenantRegistry::from_file_contents(&contents)
                .map_err(|e| format!("--tenants {path}: {e}"))?;
            tenants_config = Some(contents);
            registry
        }
    };
    let state_dir = args.get("state-dir").map(std::path::PathBuf::from);
    let checkpoint_every = match args.get_parsed::<u64>("checkpoint-every")? {
        Some(0) => return Err("--checkpoint-every must be at least 1 (got 0)".to_owned()),
        Some(n) => n,
        None => crate::state::DEFAULT_CHECKPOINT_EVERY,
    };
    if checkpoint_every != crate::state::DEFAULT_CHECKPOINT_EVERY && state_dir.is_none() {
        return Err("--checkpoint-every requires --state-dir".to_owned());
    }
    let max_live_sessions = match args.get_parsed::<usize>("max-live-sessions")? {
        Some(0) => return Err("--max-live-sessions must be at least 1 (got 0)".to_owned()),
        Some(n) => n,
        None => crate::serve::DEFAULT_MAX_LIVE_SESSIONS,
    };
    let level = match args.get("log-level") {
        None => LogLevel::Info,
        Some(raw) => LogLevel::parse(raw).map_err(|e| format!("--log-level: {e}"))?,
    };
    let format = match args.get("log-format") {
        None => LogFormat::Text,
        Some(raw) => LogFormat::parse(raw).map_err(|e| format!("--log-format: {e}"))?,
    };
    let config = crate::serve::ServeConfig {
        addr,
        threads,
        tenants,
        max_live_sessions,
        logger: Logger::new(level, format),
        state_dir,
        checkpoint_every,
        tenants_config,
    };
    crate::serve::run_serve(config, None)
}

fn cmd_loadtest(argv: &[String]) -> Result<(), String> {
    let args = Args::parse_with_switches(
        argv,
        &[
            "concurrent",
            "tenants",
            "clients",
            "threads",
            "rps",
            "min-concurrent",
            "method",
            "out",
            "bench",
        ],
        &["hold"],
    )?;
    if !args.positional().is_empty() {
        return Err(format!(
            "loadtest takes no positional arguments (got `{}`)",
            args.positional().join(" ")
        ));
    }
    let options = crate::loadtest::LoadtestOptions {
        concurrent: args.get_parsed::<usize>("concurrent")?.unwrap_or(1000),
        tenants: args.get_parsed::<usize>("tenants")?.unwrap_or(8),
        clients: args.get_parsed::<usize>("clients")?.unwrap_or(32),
        threads: parse_threads(&args)?,
        rps: args.get_parsed::<f64>("rps")?,
        hold: args.switch("hold"),
        min_concurrent: args.get_parsed::<usize>("min-concurrent")?.unwrap_or(0),
        method: args.get("method").unwrap_or("aarc").to_owned(),
        out: args.get("out").map(str::to_owned),
        bench: args.get("bench").map(str::to_owned),
    };
    crate::loadtest::run_loadtest(&options)
}

fn cmd_run(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["spec", "method", "slo", "threads", "format", "out"])?;
    let spec = load(args.require("spec")?).map_err(|e| e.to_string())?;
    let scenario = compile(&spec).map_err(|e| e.to_string())?;
    let workload = scenario.workload();
    let slo_ms = args
        .get_parsed::<f64>("slo")?
        .unwrap_or_else(|| workload.slo_ms());
    let threads = parse_threads(&args)?;
    let method = methods::build(args.get("method").unwrap_or("aarc"))?;

    let service = EvalService::with_threads(threads);
    let handle = service.register(workload.env().clone());
    let outcome = method
        .search_on(&handle, slo_ms)
        .map_err(|e| format!("search failed: {e}"))?;
    let report = ConfigurationReport::new(
        workload.env(),
        &outcome.best_configs,
        &outcome.final_report,
        Some(slo_ms),
    );
    let stats = handle.stats();
    let text = match args.get("format").unwrap_or("text") {
        "text" => {
            // The search itself only ever sees lean `SimResult`s; the full
            // report with the event trace is materialised here, once, for
            // the winner.
            let full = outcome
                .materialize_report(&handle)
                .map_err(|e| format!("materialising the winning report failed: {e}"))?;
            format!(
                "{report}\nsearch: {} samples, total cost {:.1}, total runtime {:.1} ms\neval: {} simulations, {} cache hits ({:.1}% hit rate)\ntrace: {} events recorded for the winning execution\n",
                outcome.trace.sample_count(),
                outcome.trace.total_cost(),
                outcome.trace.total_runtime_ms(),
                stats.simulations(),
                stats.cache_hits,
                stats.hit_rate() * 100.0,
                full.trace().len()
            )
        }
        "json" => {
            let mut s =
                serde_json::to_string_pretty(&report).expect("report serialization is infallible");
            s.push('\n');
            s
        }
        other => return Err(format!("unknown format `{other}` (accepted: text, json)")),
    };
    write_or_print(&text, args.get("out"))
}

fn cmd_compare(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &["spec", "slo", "threads", "format", "out", "eval-detail"],
    )?;
    let spec = load(args.require("spec")?).map_err(|e| e.to_string())?;
    let scenario = compile(&spec).map_err(|e| e.to_string())?;
    let workload = scenario.workload();
    let slo_ms = args
        .get_parsed::<f64>("slo")?
        .unwrap_or_else(|| workload.slo_ms());
    let threads = parse_threads(&args)?;

    let service = EvalService::with_threads(threads);
    let report = CompareReport::run_on(&service, workload, methods::all(), slo_ms)
        .map_err(|e| format!("comparison failed: {e}"))?;
    let text = match args.get("format").unwrap_or("json") {
        "json" => {
            let mut s =
                serde_json::to_string_pretty(&report).expect("report serialization is infallible");
            s.push('\n');
            s
        }
        "csv" => report.to_csv(),
        "table" => report.to_table(),
        other => {
            return Err(format!(
                "unknown format `{other}` (accepted: json, csv, table)"
            ))
        }
    };
    // The per-fingerprint breakdown goes to stderr so the primary report
    // stays byte-stable (and `cmp`-pinnable) with and without the flag.
    let eval_detail = match args.get("eval-detail") {
        None | Some("off") | Some("false") | Some("0") => false,
        Some("on") | Some("true") | Some("1") => true,
        Some(other) => return Err(format!("--eval-detail: expected on|off, got `{other}`")),
    };
    if eval_detail {
        for s in service.scenario_stats() {
            eprintln!(
                "eval[{:016x}]: {} simulations, {} hits, {} misses, {} evictions ({:.1}% hit rate)",
                s.fingerprint,
                s.simulations(),
                s.cache_hits,
                s.cache_misses,
                s.evictions,
                s.hit_rate() * 100.0
            );
        }
    }
    write_or_print(&text, args.get("out"))
}

fn cmd_sweep(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &["methods", "classes", "threads", "slo", "format", "out"],
    )?;
    let spec_paths = sweep::expand_spec_args(args.positional())?;
    let threads = parse_threads(&args)?;
    let slo_override = args.get_parsed::<f64>("slo")?;

    let method_names: Vec<&'static str> = match args.get("methods") {
        None => methods::NAMES.to_vec(),
        Some(list) => list
            .split(',')
            .map(|name| {
                // Resolve through the builder so unknown names fail with
                // the same message as `run --method`.
                methods::build(name.trim())?;
                Ok(methods::NAMES
                    .iter()
                    .copied()
                    .find(|&n| n == name.trim())
                    .expect("build succeeded, so the name is known"))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    let classes: Vec<SweepClass> = match args.get("classes") {
        None => vec![SweepClass::Nominal],
        Some(list) => list
            .split(',')
            .map(|c| SweepClass::parse(c.trim()))
            .collect::<Result<Vec<_>, String>>()?,
    };

    let report = sweep::run_sweep(&spec_paths, &method_names, &classes, threads, slo_override)?;
    let text = match args.get("format").unwrap_or("json") {
        "json" => {
            let mut s =
                serde_json::to_string_pretty(&report).expect("report serialization is infallible");
            s.push('\n');
            s
        }
        "csv" => report.to_csv(),
        other => return Err(format!("unknown format `{other}` (accepted: json, csv)")),
    };
    // Human-readable summary on stderr; stdout/--out stay machine-pure.
    for s in &report.scenarios {
        eprintln!(
            "{}: {} runs, {} simulations, cache hit rate {:.1}%",
            s.scenario,
            s.runs.len(),
            s.eval.simulations,
            s.eval.cache_hit_rate * 100.0
        );
    }
    eprintln!(
        "sweep total: {} scenarios, {} simulations, {} cache hits ({:.1}% hit rate)",
        report.scenarios.len(),
        report.eval.simulations,
        report.eval.cache_hits,
        report.eval.cache_hit_rate * 100.0
    );
    write_or_print(&text, args.get("out"))
}

fn cmd_bench(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "threads",
            "batch",
            "out",
            "baseline",
            "max-regress",
            "min-speedup",
            "min-incremental-speedup",
            "max-allocs-per-sim",
        ],
    )?;
    if args.positional().is_empty() {
        return Err("bench needs at least one spec file".to_string());
    }
    let threads = parse_threads(&args)?;
    let batch = args.get_parsed::<usize>("batch")?.unwrap_or(1_024);
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let max_regress = args.get_parsed::<f64>("max-regress")?.unwrap_or(0.20);
    if !(0.0..10.0).contains(&max_regress) {
        return Err(format!("--max-regress {max_regress} out of range"));
    }
    let min_speedup = args.get_parsed::<f64>("min-speedup")?;
    let min_incremental = args.get_parsed::<f64>("min-incremental-speedup")?;
    let max_allocs_per_sim = args.get_parsed::<f64>("max-allocs-per-sim")?;
    if let Some(max) = max_allocs_per_sim {
        if max.is_nan() || max <= 0.0 {
            return Err(format!("--max-allocs-per-sim {max} must be positive"));
        }
    }

    let report = bench::run_bench(args.positional(), threads, batch)?;
    let mut json = serde_json::to_string_pretty(&report)
        .map_err(|e| format!("bench serialization failed: {e}"))?;
    json.push('\n');
    match args.get("out") {
        Some(path) => {
            aarc_spec::atomic_write(path, json.as_bytes()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
    // The human-readable summary goes to stderr so stdout stays pure JSON
    // (pipeable into jq) when --out is omitted.
    for s in &report.scenarios {
        let curve = s
            .thread_scaling
            .iter()
            .map(|p| format!("{:.0}@{}t", p.sims_per_sec, p.threads))
            .collect::<Vec<_>>()
            .join(" ");
        eprintln!(
            "{}: sims/s [{curve}] (speedup {:.2}x), search {:.1} ms, cache hit rate {:.1}%",
            s.scenario,
            s.speedup,
            s.search.wall_ms,
            s.search.cache_hit_rate * 100.0
        );
        if let Some(inc) = &s.incremental_resim {
            eprintln!(
                "  incremental resim: {:.2}x over the event loop \
                 ({} of {} chain sims incremental, {} node outcomes reused)",
                inc.speedup,
                inc.incremental_sims,
                inc.probes * inc.rounds.max(1),
                inc.nodes_reused
            );
        }
        if let Some(dedup) = &s.batch_dedup {
            eprintln!(
                "  batch dedup: {}/{} duplicates fanned out ({:.0} candidates/s @1t)",
                dedup.dedup_hits,
                dedup.batch - dedup.unique,
                dedup.candidates_per_sec
            );
        }
    }
    if let Some(aggregate) = &report.aggregate {
        eprintln!(
            "aggregate shared pool: {} simulations in {:.1} ms ({:.0} sims/s @{}t)",
            aggregate.simulations, aggregate.wall_ms, aggregate.sims_per_sec, report.threads
        );
    }

    let baseline = match args.get("baseline") {
        Some(path) => {
            let raw = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(
                bench::parse_baseline(&raw)
                    .map_err(|e| format!("{path}: invalid baseline: {e}"))?,
            )
        }
        None => None,
    };
    let failures = bench::gate_failures(
        &report,
        baseline.as_ref(),
        max_regress,
        min_speedup,
        min_incremental,
        max_allocs_per_sim,
    );
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("perf gate failed:\n  {}", failures.join("\n  ")))
    }
}

fn cmd_export_builtin(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, &["dir", "format"])?;
    let dir = PathBuf::from(args.get("dir").unwrap_or("specs"));
    let format = match args.get("format").unwrap_or("yaml") {
        "yaml" => SpecFormat::Yaml,
        "json" => SpecFormat::Json,
        other => return Err(format!("unknown format `{other}` (accepted: yaml, json)")),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for (name, spec) in aarc_spec::builtin_specs() {
        let path = dir.join(format!("{name}.{}", format.extension()));
        aarc_spec::save(&spec, &path).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_generate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        &[
            "seed",
            "layers",
            "max-width",
            "edge-prob",
            "headroom",
            "out",
        ],
    )?;
    let defaults = SynthParams::default();
    let params = SynthParams {
        seed: args.get_parsed("seed")?.unwrap_or(defaults.seed),
        layers: args.get_parsed("layers")?.unwrap_or(defaults.layers),
        max_width: args.get_parsed("max-width")?.unwrap_or(defaults.max_width),
        edge_probability: args
            .get_parsed("edge-prob")?
            .unwrap_or(defaults.edge_probability),
        slo_headroom: args
            .get_parsed("headroom")?
            .unwrap_or(defaults.slo_headroom),
    };
    if params.layers == 0 || params.max_width == 0 {
        return Err("--layers and --max-width must be at least 1".to_string());
    }
    let spec = aarc_spec::synthetic_spec(params);
    let out = args.require("out")?;
    aarc_spec::save(&spec, Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out} ({} functions, {} edges, slo {:.1} ms)",
        spec.functions.len(),
        spec.edges.len(),
        spec.slo_ms
    );
    Ok(())
}
