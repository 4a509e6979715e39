//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --aarc-bin PATH --workload search-bo|search-fast|served
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates a seeded scenario corpus, drives one workload for `--seconds`,
//! checks every output, and prints one JSON object as the last stdout
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! a traced run (`--trace 1`). See `README.md` for the metric → layer →
//! workload map.

mod calib;
mod corpus;
mod offline;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::corpus::Kind;
use crate::offline::{Outcomes, SharedTracer, METHODS};
use crate::stats::{median, median_of};
use crate::trace::{by_name, NameStats, Tracer};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["search-bo", "search-fast", "served"];

/// End-to-end metrics: printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("searches_per_s", "1/s"),
    ("search_ms_p50", "ms"),
    ("search_ms_p99", "ms"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("cost_ratio", "ratio"),
    ("slo_met_share", "ratio"),
    ("sampled_runtime_ratio", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: printed by every traced run of every workload. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("spec.load_ms", "ms"),
    ("spec.compile_ms", "ms"),
    ("eval.register_us", "us"),
    ("strategy.bo.ask_us", "us"),
    ("strategy.bo.tell_us", "us"),
    ("strategy.bo.busy_share", "ratio"),
    ("strategy.aarc.busy_ms", "ms"),
    ("strategy.maff.busy_ms", "ms"),
    ("strategy.random.busy_ms", "ms"),
    ("eval.probe_us_p50", "us"),
    ("eval.batch_us_p50", "us"),
    ("eval.calls", "count"),
    ("eval.candidates", "count"),
    ("eval.busy_ms", "ms"),
    ("eval.cache_hit_ratio", "ratio"),
    ("eval.dedup_hits", "count"),
    ("eval.sims", "count"),
    ("kernel.sim_us", "us"),
    ("kernel.busy_ms", "ms"),
    ("eval.overhead_ratio", "ratio"),
    ("kernel.allocs_per_sim", "count"),
    ("kernel.incremental_share", "ratio"),
    ("driver.steps", "count"),
    ("driver.self_ms", "ms"),
    ("http.scenarios_post.ms_p50", "ms"),
    ("http.scenarios_post.ms_p99", "ms"),
    ("http.sessions_post.ms_p50", "ms"),
    ("http.sessions_post.ms_p99", "ms"),
    ("http.session_get.ms_p50", "ms"),
    ("http.session_get.ms_p99", "ms"),
    ("http.report_get.ms_p50", "ms"),
    ("http.report_get.ms_p99", "ms"),
    ("http.metrics_get.ms_p50", "ms"),
    ("http.metrics_get.ms_p99", "ms"),
    ("http.first_byte_ms_p50", "ms"),
    ("serve.polls_per_session", "count"),
    ("serve.step_ms_mean", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.evictions", "count"),
    ("state.checkpoint_writes", "count"),
    ("state.checkpoint_failures", "count"),
    ("split.strategy_share", "ratio"),
    ("split.eval_share", "ratio"),
    ("split.driver_share", "ratio"),
    ("split.http_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Offline set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// Where traced runs write their spans (inside the checkout, ignored by
/// git).
pub const OUT_DIR: &str = ".perfbench_out";

#[derive(Debug, Clone)]
pub struct Args {
    pub aarc_bin: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut rest = argv.iter();
    while let Some(flag) = rest.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = rest
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (accepted: {})",
            WORKLOADS.join(", ")
        ));
    }
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        aarc_bin: PathBuf::from(get("aarc-bin")?),
        workload,
        seed: number("seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// One run's result, as printed on the last stdout line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The result line, with the metrics in table order. Fails if the
    /// workload produced a metric set other than the table's.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut extra: Vec<&str> = self.metrics.keys().copied().collect();
        extra.retain(|k| !table.iter().any(|(name, _)| name == k));
        if !extra.is_empty() {
            return Err(format!("metrics outside the table: {extra:?}"));
        }
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Evaluation workers of the offline searches. One keeps a search on one
/// vCPU: on a 2-vCPU host a second worker spends more on waking per batch
/// than it saves on `random`'s 69-candidate batch, and exposes each run to
/// both vCPUs' speed swings (throughput spread across seeds 12% with two
/// workers against 9% with one).
const OFFLINE_EVAL_THREADS: usize = 1;

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Per-layer metrics every workload reports, zero where the layer is not
/// exercised.
fn zero_layers() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// `spec.*` and `eval.register_us` from the set-up spans.
fn setup_layers(stats: &BTreeMap<&str, NameStats>, metrics: &mut BTreeMap<&'static str, f64>) {
    let total = |name: &str| stats.get(name).map_or(0, |s| s.total_ns);
    metrics.insert("spec.load_ms", ms(total("spec.load")));
    metrics.insert("spec.compile_ms", ms(total("spec.compile")));
    if let Some(s) = stats.get("eval.register") {
        metrics.insert("eval.register_us", s.total_ns as f64 / 1e3 / s.calls as f64);
    }
}

/// Runs an offline search workload.
fn offline(
    args: &Args,
    corpus: &corpus::Corpus,
    methods: &[&'static str],
) -> Result<Report, String> {
    eprintln!(
        "perfbench: {} scenarios, {} items ({} dropped), methods {methods:?}",
        corpus.scenarios.len(),
        corpus.items.len(),
        corpus.dropped.len(),
    );
    write_manifest(corpus, args)?;
    let origin = Instant::now();
    let tracer: Option<SharedTracer> = args
        .trace
        .then(|| Arc::new(Mutex::new(Tracer::new(origin))));
    let prepared = offline::setup(corpus, tracer.as_ref())?;
    let setup_s = if args.trace {
        0.0
    } else {
        offline::time_setup(corpus, SETUP_REPEATS)?
    };
    let mut outcomes = Outcomes::default();
    let threads = OFFLINE_EVAL_THREADS;
    // A traced run measures an untraced half first, so the tracing
    // overhead is the difference between its two halves.
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = offline::run_phase(
        corpus,
        &prepared,
        methods,
        threads,
        untraced_seconds,
        None,
        &mut outcomes,
        0,
    );
    let traced = tracer.as_ref().map(|t| {
        offline::run_phase(
            corpus,
            &prepared,
            methods,
            threads,
            args.seconds / 2.0,
            Some(t),
            &mut outcomes,
            plain.searches,
        )
    });
    let mut problems = Vec::new();
    let quality = offline::check_outcomes(corpus, &prepared, &outcomes, &mut problems);
    let digest = offline::workload_digest(&outcomes);
    println!(
        "digest {} seed={} outcomes={} fnv64={digest:016x}",
        args.workload,
        args.seed,
        outcomes.first.len()
    );
    let attempted = plain.searches + traced.as_ref().map_or(0, |t| t.searches);
    let failed = plain.failed + traced.as_ref().map_or(0, |t| t.failed);
    problems.extend(
        plain
            .errors
            .iter()
            .chain(traced.iter().flat_map(|t| t.errors.iter()))
            .cloned(),
    );
    let mut metrics = BTreeMap::new();
    match (traced, tracer) {
        (None, _) => {
            let factors = plain.clock.factors();
            let mut search_ms = plain.search_ms.scaled(&factors);
            let mut steps_ms = plain.steps_ms.scaled(&factors);
            let (p99, q) = stats::tail(&mut search_ms, 0.99);
            let (step_p99, step_q) = stats::tail(&mut steps_ms, 0.99);
            let mut raw_ms = plain.search_ms.scaled(&vec![1.0; factors.len()]);
            eprintln!(
                "perfbench: {} searches in {} passes, {} calibration segments; host speed \
                 {:.3}-{:.3} of nominal (median {:.3}); unscaled search p50 {:.4} ms; search \
                 tail at q={q:.4} of {} samples; {} steps, step tail at q={step_q:.4} of {} \
                 kept samples",
                plain.searches,
                plain.passes,
                factors.len(),
                factors.iter().copied().fold(f64::INFINITY, f64::min),
                factors.iter().copied().fold(0.0, f64::max),
                median_of(factors.clone()),
                median(&mut raw_ms),
                search_ms.len(),
                plain.steps_ms.seen(),
                steps_ms.len()
            );
            metrics.insert("setup_s", setup_s);
            metrics.insert("searches_per_s", plain.searches_per_s());
            metrics.insert("search_ms_p50", median(&mut search_ms));
            metrics.insert("search_ms_p99", p99);
            metrics.insert("request_ms_p50", median(&mut steps_ms));
            metrics.insert("request_ms_p99", step_p99);
            metrics.insert("cost_ratio", quality.cost_ratio);
            metrics.insert("slo_met_share", quality.slo_met_share);
            metrics.insert("sampled_runtime_ratio", quality.sampled_runtime_ratio);
            metrics.insert("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64);
            metrics.insert("peak_rss_mb", plain.first_pass_rss_mb.clone()?);
        }
        (Some(traced), Some(tracer)) => {
            let tracer = tracer.lock().expect("tracer lock poisoned");
            let spans = tracer.spans();
            write_spans(spans, args)?;
            let stats = by_name(spans);
            metrics = zero_layers();
            setup_layers(&stats, &mut metrics);
            offline_layers(&stats, &traced, &prepared, &outcomes, &mut metrics);
            let scaled_p50 = |phase: &offline::Phase| {
                median(&mut phase.search_ms.scaled(&phase.clock.factors()))
            };
            let overhead = scaled_p50(&traced) / scaled_p50(&plain) - 1.0;
            metrics.insert("trace.overhead_pct", overhead * 100.0);
            print_split(&metrics);
        }
        (Some(_), None) => unreachable!("a traced phase has a tracer"),
    }
    print_problems(&problems);
    Ok(Report {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
    })
}

/// Problems printed in full per run; the rest are counted.
const PROBLEMS_PRINTED: usize = 20;

/// Lists every failed operation and failed check (each makes the run
/// incorrect) with its cause.
pub fn print_problems(problems: &[String]) {
    for problem in problems.iter().take(PROBLEMS_PRINTED) {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    if problems.len() > PROBLEMS_PRINTED {
        eprintln!(
            "perfbench: ... and {} more failed checks",
            problems.len() - PROBLEMS_PRINTED
        );
    }
}

/// The per-layer split of a traced offline phase.
fn offline_layers(
    stats: &BTreeMap<&str, NameStats>,
    phase: &offline::Phase,
    prepared: &offline::Prepared,
    outcomes: &Outcomes,
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let get = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let searches = phase.searches.max(1) as f64;
    let mut search_ns = 0u64;
    let mut search_self_ns = 0u64;
    let mut strategy_ns = 0u64;
    for names in &METHODS {
        let search = get(names.search);
        let busy: u64 = [names.build, names.ask, names.tell, names.finish]
            .iter()
            .map(|n| get(n).total_ns)
            .sum();
        search_ns += search.total_ns;
        search_self_ns += search.self_ns;
        strategy_ns += busy;
        if search.calls == 0 {
            continue;
        }
        if names.method == "bo" {
            let mean_us = |s: NameStats| s.total_ns as f64 / 1e3 / s.calls.max(1) as f64;
            metrics.insert("strategy.bo.ask_us", mean_us(get(names.ask)));
            metrics.insert("strategy.bo.tell_us", mean_us(get(names.tell)));
            metrics.insert(
                "strategy.bo.busy_share",
                busy as f64 / search.total_ns.max(1) as f64,
            );
        } else {
            let key = match names.method {
                "aarc" => "strategy.aarc.busy_ms",
                "maff" => "strategy.maff.busy_ms",
                _ => "strategy.random.busy_ms",
            };
            metrics.insert(key, ms(busy) / search.calls as f64);
        }
    }
    let probe = get("eval.probe");
    let batch = get("eval.batch");
    let step = get("driver.step");
    let p50_us = |s: &NameStats| {
        let mut d: Vec<f64> = s.durations_ns.iter().map(|&n| n as f64 / 1e3).collect();
        median(&mut d)
    };
    let eval_ns = probe.total_ns + batch.total_ns;
    metrics.insert("eval.probe_us_p50", p50_us(&probe));
    metrics.insert("eval.batch_us_p50", p50_us(&batch));
    metrics.insert("eval.calls", (probe.calls + batch.calls) as f64 / searches);
    metrics.insert(
        "eval.candidates",
        (probe.count + batch.count) as f64 / searches,
    );
    let eval_ms = ms(eval_ns) / searches;
    metrics.insert("eval.busy_ms", eval_ms);
    let eval = phase.eval;
    metrics.insert(
        "eval.cache_hit_ratio",
        eval.hits as f64 / eval.requests.max(1) as f64,
    );
    metrics.insert("eval.dedup_hits", eval.dedup as f64 / searches);
    let sims = eval.misses as f64 / searches;
    metrics.insert("eval.sims", sims);
    let sim_us = offline::kernel_sim_us(prepared, outcomes);
    let kernel_ms = sims * sim_us / 1e3;
    metrics.insert("kernel.sim_us", sim_us);
    metrics.insert("kernel.busy_ms", kernel_ms);
    metrics.insert(
        "eval.overhead_ratio",
        if kernel_ms > 0.0 {
            eval_ms / kernel_ms
        } else {
            0.0
        },
    );
    metrics.insert("kernel.allocs_per_sim", eval.kernel.allocs_per_sim());
    metrics.insert(
        "kernel.incremental_share",
        eval.kernel.incremental_sims as f64 / eval.kernel.sims.max(1) as f64,
    );
    metrics.insert("driver.steps", step.calls as f64 / searches);
    metrics.insert("driver.self_ms", ms(step.self_ns) / searches);
    let search_total = search_ns.max(1) as f64;
    metrics.insert("split.strategy_share", strategy_ns as f64 / search_total);
    metrics.insert("split.eval_share", eval_ns as f64 / search_total);
    metrics.insert(
        "split.driver_share",
        (step.self_ns + search_self_ns) as f64 / search_total,
    );
}

fn print_split(metrics: &BTreeMap<&'static str, f64>) {
    let share = |k: &str| metrics.get(k).copied().unwrap_or(0.0) * 100.0;
    eprintln!(
        "perfbench: layer split: strategy {:.1}%, eval {:.1}%, driver {:.1}%, http {:.1}% \
         (tracing overhead {:+.1}% on search_ms_p50)",
        share("split.strategy_share"),
        share("split.eval_share"),
        share("split.driver_share"),
        share("split.http_share"),
        metrics.get("trace.overhead_pct").copied().unwrap_or(0.0)
    );
}

/// Records the corpus, with the reason for each item, beside the spans.
fn write_manifest(corpus: &corpus::Corpus, args: &Args) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("corpus-{}-seed{}.tsv", args.workload, args.seed));
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, corpus.manifest()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Spans written per traced run: the set-up and the first searches or
/// sessions in full, without filling the disk on a fast workload.
const SPANS_WRITTEN: usize = 50_000;

fn write_spans(spans: &[trace::Span], args: &Args) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let written = &spans[..spans.len().min(SPANS_WRITTEN)];
    trace::write_jsonl(written, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} of {} spans to {}",
        written.len(),
        spans.len(),
        path.display()
    );
    Ok(())
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv)?;
    let report = match args.workload.as_str() {
        "search-bo" => offline(&args, &corpus::build(Kind::Bo, args.seed)?, &["bo"])?,
        "search-fast" => offline(
            &args,
            &corpus::build(Kind::Fast, args.seed)?,
            &["aarc", "maff", "random"],
        )?,
        _ => served::run(&args)?,
    };
    report.to_json(args.trace)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_repo_root() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
        std::env::set_current_dir(root).expect("repository root exists");
    }

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            aarc_bin: PathBuf::from(
                std::env::var("PERFBENCH_AARC_BIN").unwrap_or_else(|_| "aarc".to_owned()),
            ),
            workload: workload.to_owned(),
            seed: 11,
            seconds: 1.0,
            trace,
        }
    }

    /// The (name, unit) list of one `BENCHMARK.json` metric table.
    fn benchmark_table(doc: &serde::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_seq())
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_command_prints() {
        at_repo_root();
        let text = std::fs::read_to_string("BENCHMARK.json").expect("BENCHMARK.json");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(benchmark_table(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(benchmark_table(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_seq())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    fn printed_metrics(line: &str) -> Vec<String> {
        let doc = serde_json::parse(line).expect("result line is JSON");
        doc.get("metrics")
            .and_then(|m| m.as_map())
            .expect("metrics object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn offline_runs_print_every_metric_of_their_mode() {
        at_repo_root();
        let corpus = corpus::build(Kind::Bo, 11).unwrap();
        for trace in [false, true] {
            let report = offline(&args("search-bo", trace), &corpus, &["bo"]).unwrap();
            assert!(report.correct);
            assert_eq!(report.failed, 0);
            let line = report.to_json(trace).unwrap();
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let expected: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(printed_metrics(&line), expected);
        }
    }

    #[test]
    fn traced_runs_measure_the_layers_of_their_workload() {
        at_repo_root();
        let corpus = corpus::build(Kind::Fast, 11).unwrap();
        let methods = ["aarc", "maff", "random"];
        let report = offline(&args("search-fast", true), &corpus, &methods).unwrap();
        for name in [
            "spec.load_ms",
            "eval.register_us",
            "strategy.aarc.busy_ms",
            "strategy.maff.busy_ms",
            "strategy.random.busy_ms",
            "eval.probe_us_p50",
            "eval.batch_us_p50",
            "eval.busy_ms",
            "eval.sims",
            "kernel.sim_us",
            "driver.steps",
            "driver.self_ms",
            "split.eval_share",
        ] {
            assert!(report.metrics[name] > 0.0, "{name} was not measured");
        }
        assert_eq!(report.metrics["strategy.bo.ask_us"], 0.0);
    }

    #[test]
    fn an_infeasible_search_counts_as_a_failure() {
        at_repo_root();
        let mut corpus = corpus::build(Kind::Bo, 11).unwrap();
        corpus.items.truncate(2);
        corpus.items[1].slo_ms = corpus.items[1].base_ms * 0.5;
        let report = offline(&args("search-bo", false), &corpus, &["bo"]).unwrap();
        assert!(!report.correct, "a failed search makes the run incorrect");
        assert!(report.failed > 0);
        assert!(report.metrics["ok_share"] < 1.0);
        assert!(report.metrics["slo_met_share"] < 1.0);
    }

    /// Needs the release daemon: set `PERFBENCH_AARC_BIN` to its path.
    #[test]
    fn served_traced_run_measures_the_http_layers() {
        if std::env::var("PERFBENCH_AARC_BIN").is_err() {
            eprintln!("skipped: set PERFBENCH_AARC_BIN to the release `aarc` binary");
            return;
        }
        at_repo_root();
        for trace in [false, true] {
            let report = served::run(&args("served", trace)).unwrap();
            assert!(report.correct);
            assert_eq!(report.failed, 0);
            report.to_json(trace).unwrap();
            if trace {
                for name in [
                    "http.sessions_post.ms_p50",
                    "http.session_get.ms_p50",
                    "http.report_get.ms_p50",
                    "http.scenarios_post.ms_p50",
                    "serve.step_ms_mean",
                    "state.checkpoint_writes",
                    "split.http_share",
                ] {
                    assert!(report.metrics[name] > 0.0, "{name} was not measured");
                }
            }
        }
    }
}
