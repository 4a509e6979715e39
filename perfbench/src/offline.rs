//! Offline workloads: searches stepped through `SearchSession`s on
//! `EvalService`s, driven through the library crates' public API.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aarc_baselines::{
    BayesianOptimization, BoParams, MaffGradientDescent, MaffParams, RandomSearch,
    RandomSearchParams,
};
use aarc_core::{
    AarcError, AarcParams, Ask, ConfigurationSearch, GraphCentricScheduler, SearchOutcome,
    SearchSession, SearchStrategy, SessionState,
};
use aarc_simulator::{EvalService, KernelCounters, SimResult, SimScratch, WorkflowEnvironment};

use crate::calib::Calibrated;
use crate::corpus::{Corpus, Item, Source};
use crate::stats::{median_of, Samples};
use crate::trace::Tracer;

pub type SharedTracer = Arc<Mutex<Tracer>>;

/// Span names of one search method's strategy calls.
#[derive(Debug)]
pub struct MethodNames {
    pub method: &'static str,
    pub search: &'static str,
    pub build: &'static str,
    pub ask: &'static str,
    pub tell: &'static str,
    pub finish: &'static str,
}

macro_rules! method_names {
    ($m:literal) => {
        MethodNames {
            method: $m,
            search: concat!("search.", $m),
            build: concat!("strategy.", $m, ".build"),
            ask: concat!("strategy.", $m, ".ask"),
            tell: concat!("strategy.", $m, ".tell"),
            finish: concat!("strategy.", $m, ".finish"),
        }
    };
}

pub const METHODS: [MethodNames; 4] = [
    method_names!("aarc"),
    method_names!("bo"),
    method_names!("maff"),
    method_names!("random"),
];

pub fn names_of(method: &str) -> &'static MethodNames {
    METHODS
        .iter()
        .find(|m| m.method == method)
        .expect("method names are static")
}

/// Builds a search method exactly as the `aarc` CLI and daemon do, with
/// each method's default parameters.
pub fn build_method(method: &str) -> Box<dyn ConfigurationSearch> {
    match method {
        "aarc" => Box::new(GraphCentricScheduler::new(AarcParams::paper())),
        "bo" => Box::new(BayesianOptimization::new(BoParams::default())),
        "maff" => Box::new(MaffGradientDescent::new(MaffParams::default())),
        "random" => Box::new(RandomSearch::new(RandomSearchParams::default())),
        other => unreachable!("unknown method {other}"),
    }
}

/// Forwards every call to the wrapped strategy and records a span around
/// each: `ask`, `tell` and `finish` are strategy time, and the gap from an
/// ask that requested evaluations to the next `tell` is the driver's call
/// into `ScenarioHandle::{evaluate, evaluate_batch}`.
pub struct TimedStrategy {
    inner: Box<dyn SearchStrategy>,
    names: &'static MethodNames,
    tracer: SharedTracer,
    eval_span: Option<usize>,
}

impl TimedStrategy {
    pub fn new(inner: Box<dyn SearchStrategy>, method: &str, tracer: SharedTracer) -> Self {
        TimedStrategy {
            inner,
            names: names_of(method),
            tracer,
            eval_span: None,
        }
    }
}

fn lock(tracer: &SharedTracer) -> std::sync::MutexGuard<'_, Tracer> {
    tracer.lock().expect("tracer lock poisoned")
}

/// Opens a span when the run is traced.
fn open(tracer: Option<&SharedTracer>, name: &'static str) -> Option<usize> {
    tracer.map(|t| lock(t).open(name))
}

fn close(tracer: Option<&SharedTracer>, span: Option<usize>) {
    if let (Some(t), Some(span)) = (tracer, span) {
        lock(t).close(span);
    }
}

impl SearchStrategy for TimedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError> {
        let span = lock(&self.tracer).open(self.names.ask);
        let asked = self.inner.ask(env);
        let mut tracer = lock(&self.tracer);
        tracer.close(span);
        let candidates = match &asked {
            Ok(Ask::Probe(_)) => Some(("eval.probe", 1)),
            Ok(Ask::Batch(batch)) => Some(("eval.batch", batch.len() as u64)),
            _ => None,
        };
        if let Some((name, count)) = candidates {
            let start = tracer.spans()[span].end_ns;
            let eval = tracer.open_at(name, start);
            tracer.set_count(eval, count);
            self.eval_span = Some(eval);
        }
        asked
    }

    fn tell(&mut self, env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError> {
        let span = {
            let mut tracer = lock(&self.tracer);
            if let Some(eval) = self.eval_span.take() {
                tracer.close(eval);
            }
            tracer.open(self.names.tell)
        };
        let told = self.inner.tell(env, results);
        lock(&self.tracer).close(span);
        told
    }

    fn finish(&mut self, env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError> {
        let span = lock(&self.tracer).open(self.names.finish);
        let outcome = self.inner.finish(env);
        lock(&self.tracer).close(span);
        outcome
    }
}

/// The workload's compiled inputs: one environment per corpus item.
pub struct Prepared {
    pub envs: Vec<WorkflowEnvironment>,
}

/// Parses and compiles every scenario and registers every item on an
/// evaluation service: the offline workloads' set-up.
pub fn setup(corpus: &Corpus, tracer: Option<&SharedTracer>) -> Result<Prepared, String> {
    let mut workloads = Vec::with_capacity(corpus.scenarios.len());
    for scenario in &corpus.scenarios {
        let s = open(tracer, "spec.load");
        let spec = match &scenario.source {
            Source::File(path) => aarc_spec::load(path),
            Source::Generated => aarc_spec::from_slice(&scenario.bytes),
        }
        .map_err(|e| format!("{}: {e}", scenario.name))?;
        close(tracer, s);
        let s = open(tracer, "spec.compile");
        let compiled = aarc_spec::compile(&spec).map_err(|e| format!("{}: {e}", scenario.name))?;
        close(tracer, s);
        workloads.push(compiled.into_workload());
    }
    let service = EvalService::with_threads(1);
    let mut envs = Vec::with_capacity(corpus.items.len());
    for item in &corpus.items {
        let env = item.class.env(workloads[item.scenario].env());
        let s = open(tracer, "eval.register");
        black_box(service.register(env.clone()));
        close(tracer, s);
        envs.push(env);
    }
    Ok(Prepared { envs })
}

/// The comparable fingerprint of one search outcome.
pub fn outcome_digest(outcome: &SearchOutcome) -> u64 {
    let mut bytes = Vec::new();
    for config in outcome.best_configs.as_slice() {
        bytes.extend_from_slice(&config.vcpu.get().to_bits().to_le_bytes());
        bytes.extend_from_slice(&config.memory.get().to_le_bytes());
    }
    bytes.extend_from_slice(&outcome.best_cost().to_bits().to_le_bytes());
    bytes.extend_from_slice(&outcome.best_runtime_ms().to_bits().to_le_bytes());
    bytes.extend_from_slice(&outcome.trace.total_runtime_ms().to_bits().to_le_bytes());
    bytes.extend_from_slice(&(outcome.trace.sample_count() as u64).to_le_bytes());
    aarc_simulator::eval::fnv1a_64(bytes)
}

/// Runs one search from building its strategy to its outcome, stepping the
/// session and timing each step. Returns the outcome and the wall time in
/// ms.
pub fn run_search(
    handle: &aarc_simulator::ScenarioHandle<'_>,
    method: &str,
    slo_ms: f64,
    tracer: Option<&SharedTracer>,
    steps_ms: &mut Samples,
    segment: u32,
) -> (Result<SearchOutcome, AarcError>, f64) {
    let names = names_of(method);
    let start = Instant::now();
    let root = open(tracer, names.search);
    let span = open(tracer, names.build);
    let strategy = build_method(method).strategy(handle.env(), slo_ms);
    close(tracer, span);
    let outcome = strategy.and_then(|strategy| {
        let strategy: Box<dyn SearchStrategy> = match tracer {
            Some(t) => Box::new(TimedStrategy::new(strategy, method, Arc::clone(t))),
            None => strategy,
        };
        let mut session = SearchSession::new(strategy, handle.clone());
        loop {
            let step_start = Instant::now();
            let span = open(tracer, "driver.step");
            let state = session.step();
            close(tracer, span);
            steps_ms.push(step_start.elapsed().as_secs_f64() * 1e3, segment);
            if state != SessionState::Running {
                break;
            }
        }
        session
            .into_outcome()
            .expect("a stepped-to-finished session has an outcome")
    });
    close(tracer, root);
    (outcome, start.elapsed().as_secs_f64() * 1e3)
}

/// Evaluation counters summed over the per-item services of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct EvalTotals {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub dedup: u64,
    pub kernel: KernelCounters,
}

impl EvalTotals {
    fn add(&mut self, service: &EvalService) {
        let stats = service.stats();
        self.requests += stats.requests;
        self.hits += stats.cache_hits;
        self.misses += stats.cache_misses;
        self.dedup += service.batch_dedup_hits();
        self.kernel.merge(&service.kernel_counters());
    }
}

/// What one timed phase measured. Timings are tagged with the calibration
/// segment they ran in and scaled to the nominal host speed by its factor.
pub struct Phase {
    pub searches: u64,
    pub failed: u64,
    /// Every failed search, with its cause.
    pub errors: Vec<String>,
    pub passes: u64,
    pub clock: Calibrated,
    pub search_ms: Samples,
    pub steps_ms: Samples,
    pub eval: EvalTotals,
    /// The process's VmHWM once every item was searched once. Later passes
    /// repeat the same searches on fresh services, so the program's own
    /// memory stops growing there; only the benchmark's timing samples
    /// grow on with throughput, and a read at the end would follow them.
    pub first_pass_rss_mb: Result<f64, String>,
}

impl Phase {
    /// Searches per second at the nominal host speed.
    pub fn searches_per_s(&self) -> f64 {
        self.searches as f64 / self.clock.scaled_segments().iter().sum::<f64>()
    }
}

/// The first outcome of every (item, method) pair, for the output checks;
/// repeats must reproduce its digest.
#[derive(Default)]
pub struct Outcomes {
    pub first: BTreeMap<(usize, &'static str), Result<SearchOutcome, String>>,
    pub mismatches: Vec<String>,
}

impl Outcomes {
    fn record(&mut self, key: (usize, &'static str), outcome: &Result<SearchOutcome, AarcError>) {
        match self.first.get(&key) {
            None => {
                let stored = match outcome {
                    Ok(o) => Ok(o.clone()),
                    Err(e) => Err(e.to_string()),
                };
                self.first.insert(key, stored);
            }
            Some(first) => {
                let same = match (first, outcome) {
                    (Ok(a), Ok(b)) => outcome_digest(a) == outcome_digest(b),
                    (Err(a), Err(b)) => *a == b.to_string(),
                    _ => false,
                };
                if !same {
                    self.mismatches.push(format!(
                        "item {} method {}: a repeat search gave another outcome",
                        key.0, key.1
                    ));
                }
            }
        }
    }
}

/// Searches every item with every method, whole pass after whole pass,
/// until `seconds` have passed. Each item gets a fresh `EvalService`; the
/// methods of one item share it.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    corpus: &Corpus,
    prepared: &Prepared,
    methods: &[&'static str],
    threads: usize,
    seconds: f64,
    tracer: Option<&SharedTracer>,
    outcomes: &mut Outcomes,
    trace_base: u64,
) -> Phase {
    let mut phase = Phase {
        searches: 0,
        failed: 0,
        errors: Vec::new(),
        passes: 0,
        clock: Calibrated::start(),
        search_ms: Samples::new(1 << 18),
        steps_ms: Samples::new(1 << 18),
        eval: EvalTotals::default(),
        first_pass_rss_mb: Ok(0.0),
    };
    let start = Instant::now();
    while phase.passes == 0 || start.elapsed().as_secs_f64() < seconds {
        for (index, item) in corpus.items.iter().enumerate() {
            let service = EvalService::with_threads(threads);
            let span = open(tracer, "eval.register");
            let handle = service.register(prepared.envs[index].clone());
            close(tracer, span);
            for &method in methods {
                if let Some(t) = tracer {
                    lock(t).set_trace(trace_base + phase.searches);
                }
                let segment = phase.clock.segment();
                let (outcome, ms) = run_search(
                    &handle,
                    method,
                    item.slo_ms,
                    tracer,
                    &mut phase.steps_ms,
                    segment,
                );
                phase.searches += 1;
                phase.search_ms.push(ms, segment);
                if let Err(e) = &outcome {
                    phase.failed += 1;
                    phase.errors.push(format!(
                        "{} ({}, {method}): search failed: {e}",
                        corpus.scenarios[item.scenario].name,
                        item.class.label()
                    ));
                }
                outcomes.record((index, method), &outcome);
                phase.clock.tick();
            }
            drop(handle);
            phase.eval.add(&service);
        }
        if phase.passes == 0 {
            phase.first_pass_rss_mb = crate::peak_rss_mb("self");
        }
        phase.passes += 1;
    }
    phase.clock.close();
    phase
}

/// Repeats the set-up `repeats` times, each between two calibration
/// rounds; returns the median set-up time at the nominal host speed.
pub fn time_setup(corpus: &Corpus, repeats: usize) -> Result<f64, String> {
    let mut clock = Calibrated::start();
    for _ in 0..repeats {
        black_box(setup(corpus, None)?);
        clock.close();
    }
    Ok(median_of(clock.scaled_segments()))
}

/// Search quality over a set of outcomes: mean best/base cost, the share
/// meeting the SLO without OOM, and the mean sampled runtime (the sum of
/// the sampled executions' makespans, the paper's search time) in units of
/// the base configuration's makespan, so scenarios of any length weigh alike.
#[derive(Debug, Default, Clone, Copy)]
pub struct Quality {
    pub cost_ratio: f64,
    pub slo_met_share: f64,
    pub sampled_runtime_ratio: f64,
}

/// Checks every stored outcome and scores its quality. A returned
/// configuration must lie on the resource grid and, re-simulated on a
/// fresh single-thread service, meet the SLO without OOM.
pub fn check_outcomes(
    corpus: &Corpus,
    prepared: &Prepared,
    outcomes: &Outcomes,
    problems: &mut Vec<String>,
) -> Quality {
    let mut cost_ratio = 0.0;
    let mut met = 0usize;
    let mut runtime_ratio = 0.0;
    let mut ok = 0usize;
    for (&(index, method), outcome) in &outcomes.first {
        let item: &Item = &corpus.items[index];
        let env = &prepared.envs[index];
        let Ok(outcome) = outcome else { continue };
        let label = format!(
            "{} ({}, {method})",
            corpus.scenarios[item.scenario].name,
            item.class.label()
        );
        let off_grid = outcome
            .best_configs
            .as_slice()
            .iter()
            .any(|&c| env.space().clamp(c) != c);
        if off_grid {
            problems.push(format!(
                "{label}: a returned configuration is off the resource grid"
            ));
        }
        let fresh = EvalService::with_threads(1);
        match fresh.register(env.clone()).evaluate(&outcome.best_configs) {
            Ok(r) if !r.any_oom() && r.makespan_ms() <= item.slo_ms => met += 1,
            Ok(r) => problems.push(format!(
                "{label}: re-simulated result misses the SLO ({:.0} ms > {:.0} ms or OOM)",
                r.makespan_ms(),
                item.slo_ms
            )),
            Err(e) => problems.push(format!("{label}: re-simulation failed: {e}")),
        }
        cost_ratio += outcome.best_cost() / item.base_cost;
        runtime_ratio += outcome.trace.total_runtime_ms() / item.base_ms;
        ok += 1;
    }
    problems.extend(outcomes.mismatches.iter().cloned());
    let searched = outcomes.first.len().max(1) as f64;
    Quality {
        cost_ratio: cost_ratio / ok.max(1) as f64,
        slo_met_share: met as f64 / searched,
        sampled_runtime_ratio: runtime_ratio / ok.max(1) as f64,
    }
}

/// Digest over every stored outcome, in (item, method) order.
pub fn workload_digest(outcomes: &Outcomes) -> u64 {
    let mut bytes = Vec::new();
    for (&(index, method), outcome) in &outcomes.first {
        bytes.extend_from_slice(&(index as u64).to_le_bytes());
        bytes.extend_from_slice(method.as_bytes());
        let d = outcome.as_ref().map_or(0, outcome_digest);
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    aarc_simulator::eval::fnv1a_64(bytes)
}

/// Mean wall time of one bare `CompiledScenario::simulate`, in µs, over
/// each item's base configuration and its searches' best configurations.
pub fn kernel_sim_us(prepared: &Prepared, outcomes: &Outcomes) -> f64 {
    let service = EvalService::with_threads(1);
    let mut work = Vec::new();
    for (index, env) in prepared.envs.iter().enumerate() {
        let handle = service.register(env.clone());
        let mut configs = vec![env.base_configs()];
        configs.extend(
            outcomes
                .first
                .range((index, "")..(index + 1, ""))
                .filter_map(|(_, o)| o.as_ref().ok().map(|o| o.best_configs.clone())),
        );
        work.push((handle, configs));
    }
    let mut scratch = SimScratch::new();
    let mut sims = 0u64;
    let start = Instant::now();
    while sims < 20_000 || start.elapsed().as_millis() < 50 {
        for (handle, configs) in &work {
            let env = handle.env();
            for configs in configs {
                let result =
                    handle
                        .scenario()
                        .simulate(&mut scratch, configs, env.input(), env.seed());
                black_box(result.ok());
                sims += 1;
            }
        }
    }
    start.elapsed().as_secs_f64() * 1e6 / sims as f64
}
