//! The common interface shared by AARC and the baseline search methods, and
//! the per-sample trace that drives the paper's search-efficiency figures
//! (Figs. 5, 6 and 7).

use aarc_simulator::{
    ConfigMap, EvalService, ExecutionReport, ScenarioHandle, SimResult, WorkflowEnvironment,
};

use crate::driver::{SearchDriver, SearchStrategy};
use crate::error::AarcError;

/// One configuration sample taken during a search: the candidate was
/// executed once and its runtime, cost and feasibility observed. A sample
/// is plain data: its position in the [`SearchTrace`] is its index, and it
/// carries no description of the candidate, since the reports and figures
/// read only the trace's counts, totals and series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSample {
    /// End-to-end runtime of the sampled execution, in ms.
    pub makespan_ms: f64,
    /// Billed cost of the sampled execution.
    pub cost: f64,
    /// Whether any function was OOM-killed in this sample.
    pub oom: bool,
    /// Whether the sample was accepted (kept) by the search method.
    pub accepted: bool,
}

/// The chronological record of all samples taken by one search run.
///
/// *Total search runtime* (Fig. 5a) is the sum of the sampled executions'
/// runtimes — each sample requires actually running the workflow once on the
/// platform. *Total search cost* (Fig. 5b) is the sum of their billed costs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchTrace {
    samples: Vec<SearchSample>,
}

impl SearchTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        SearchTrace {
            samples: Vec::new(),
        }
    }

    /// Records the observed `result` of one sampled execution, and whether
    /// the search method `accepted` it, as the trace's next sample.
    pub fn record(&mut self, result: &SimResult, accepted: bool) {
        self.samples.push(SearchSample {
            makespan_ms: result.makespan_ms(),
            cost: result.total_cost(),
            oom: result.any_oom(),
            accepted,
        });
    }

    /// Consumes `other`, moving its samples onto the end of this trace in
    /// order — used by the input-aware engine to fold the per-class
    /// scheduler runs into one engine-level trace.
    pub fn append(&mut self, other: SearchTrace) {
        self.samples.extend(other.samples);
    }

    /// All samples in chronological order.
    pub fn samples(&self) -> &[SearchSample] {
        &self.samples
    }

    /// Number of samples taken (the x-axis of Figs. 6 and 7).
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Total wall-clock time spent executing samples, in ms (Fig. 5a).
    pub fn total_runtime_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.makespan_ms).sum()
    }

    /// Total billed cost of all samples (Fig. 5b).
    pub fn total_cost(&self) -> f64 {
        self.samples.iter().map(|s| s.cost).sum()
    }

    /// The per-sample runtime series (Fig. 6).
    pub fn runtime_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.makespan_ms).collect()
    }

    /// The per-sample cost series (Fig. 7).
    pub fn cost_series(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.cost).collect()
    }

    /// The best (lowest) cost observed among samples that met `slo_ms` and
    /// did not OOM, as a running series ("best configuration found so far").
    pub fn best_cost_series(&self, slo_ms: f64) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.samples
            .iter()
            .map(|s| {
                if !s.oom && s.makespan_ms <= slo_ms {
                    best = best.min(s.cost);
                }
                best
            })
            .collect()
    }
}

/// The result of a configuration search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best configuration found.
    pub best_configs: ConfigMap,
    /// Simulation result of the best configuration, exactly as the search
    /// observed it (under runtime jitter this is the winning sample's own
    /// result — re-simulating under a different seed could contradict the
    /// feasibility decision that selected it). The lean [`SimResult`]
    /// carries everything the reports need; the full trace-bearing
    /// [`ExecutionReport`] is materialised on demand via
    /// [`SearchOutcome::materialize_report`].
    pub final_report: SimResult,
    /// The chronological sample trace of the search.
    pub trace: SearchTrace,
}

impl SearchOutcome {
    /// Cost of the best configuration (one execution).
    pub fn best_cost(&self) -> f64 {
        self.final_report.total_cost()
    }

    /// Runtime of the best configuration, in ms.
    pub fn best_runtime_ms(&self) -> f64 {
        self.final_report.makespan_ms()
    }

    /// Materialises the full [`ExecutionReport`] (names + event trace) of
    /// the winning configuration on `handle` (the scenario the search ran
    /// on), re-running it under the exact `(input, seed)` the search
    /// observed so the report is bit-identical to
    /// [`final_report`](SearchOutcome::final_report).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors (none are expected for a configuration
    /// the search already executed).
    pub fn materialize_report(
        &self,
        handle: &ScenarioHandle<'_>,
    ) -> Result<ExecutionReport, AarcError> {
        Ok(handle.materialize_result(&self.best_configs, &self.final_report)?)
    }
}

/// A configuration-search method: given an environment and an end-to-end
/// SLO, produce a per-function configuration.
///
/// AARC's [`GraphCentricScheduler`](crate::scheduler::GraphCentricScheduler)
/// and the baselines (Bayesian optimization, MAFF, random search) all
/// implement this trait, which is what the experiment harness iterates
/// over. A method's only required behaviour is building its ask/tell
/// [`SearchStrategy`]; the evaluate-loop itself lives in the
/// [`SearchDriver`], which lets independent searches interleave their
/// batches on one shared evaluation pool.
pub trait ConfigurationSearch {
    /// Short method name used in figures ("AARC", "BO", "MAFF").
    fn name(&self) -> &str;

    /// Builds the resumable ask/tell strategy of one search run over `env`
    /// under `slo_ms`.
    ///
    /// Strategies must stay deterministic with respect to the evaluation
    /// pool's thread count and to interleaving with other searches: their
    /// ask sequence may depend only on the results they were told, and
    /// batch candidates receive index-derived seeds (see
    /// [`aarc_simulator::derive_seed`]), never evaluation-order-derived
    /// ones.
    ///
    /// # Errors
    ///
    /// Returns an error if the SLO is invalid (see [`validate_slo`]) or the
    /// method cannot search this environment.
    fn strategy(
        &self,
        env: &WorkflowEnvironment,
        slo_ms: f64,
    ) -> Result<Box<dyn SearchStrategy>, AarcError>;

    /// Runs the search to completion on `handle` — a scenario registered on
    /// a (possibly shared) [`EvalService`](aarc_simulator::EvalService) —
    /// driving the strategy through the [`SearchDriver`].
    ///
    /// # Errors
    ///
    /// Returns an error if the SLO is invalid, the base configuration
    /// already violates it, or the platform rejects an execution.
    fn search_on(
        &self,
        handle: &ScenarioHandle<'_>,
        slo_ms: f64,
    ) -> Result<SearchOutcome, AarcError> {
        SearchDriver::run(self.strategy(handle.env(), slo_ms)?, handle)
    }

    /// Runs the search on a private single-threaded [`EvalService`] over a
    /// copy of `env` — the convenience entry point for callers that do not
    /// share an evaluation service across methods.
    ///
    /// # Errors
    ///
    /// See [`ConfigurationSearch::search_on`].
    fn search(&self, env: &WorkflowEnvironment, slo_ms: f64) -> Result<SearchOutcome, AarcError> {
        let service = EvalService::with_threads(1);
        self.search_on(&service.register(env.clone()), slo_ms)
    }
}

/// Validates an SLO value (positive, finite).
///
/// # Errors
///
/// Returns [`AarcError::InvalidSlo`] for zero, negative, NaN or infinite
/// values. Exposed so baseline implementations of [`ConfigurationSearch`]
/// can apply the same validation.
pub fn validate_slo(slo_ms: f64) -> Result<(), AarcError> {
    if !slo_ms.is_finite() || slo_ms <= 0.0 {
        return Err(AarcError::InvalidSlo(slo_ms));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_simulator::{FunctionProfile, ProfileSet, ResourceConfig};
    use aarc_workflow::WorkflowBuilder;

    fn tiny_env() -> WorkflowEnvironment {
        let mut b = WorkflowBuilder::new("t");
        let a = b.add_function("a");
        let wf = b.build().unwrap();
        let mut p = ProfileSet::new();
        p.insert(a, FunctionProfile::builder("a").serial_ms(100.0).build());
        WorkflowEnvironment::builder(wf, p).build().unwrap()
    }

    #[test]
    fn trace_accumulates_totals_and_series() {
        let service = EvalService::with_threads(1);
        let handle = service.register(tiny_env());
        let mut trace = SearchTrace::new();
        let big = handle
            .evaluate(&ConfigMap::uniform(1, ResourceConfig::new(2.0, 1024)))
            .unwrap();
        let small = handle
            .evaluate(&ConfigMap::uniform(1, ResourceConfig::new(1.0, 512)))
            .unwrap();
        trace.record(&big, true);
        trace.record(&small, false);
        assert_eq!(trace.sample_count(), 2);
        assert_eq!(
            trace.samples()[1],
            SearchSample {
                makespan_ms: small.makespan_ms(),
                cost: small.total_cost(),
                oom: small.any_oom(),
                accepted: false,
            }
        );
        assert!(
            (trace.total_runtime_ms() - (big.makespan_ms() + small.makespan_ms())).abs() < 1e-9
        );
        assert!((trace.total_cost() - (big.total_cost() + small.total_cost())).abs() < 1e-9);
        assert_eq!(trace.runtime_series().len(), 2);
        assert_eq!(
            trace.cost_series(),
            vec![big.total_cost(), small.total_cost()]
        );
    }

    fn sample(makespan_ms: f64, cost: f64, oom: bool) -> SearchSample {
        SearchSample {
            makespan_ms,
            cost,
            oom,
            accepted: true,
        }
    }

    #[test]
    fn best_cost_series_ignores_slo_violations_and_oom() {
        // Hand-craft samples: a too-slow one, an OOM one, then a good one.
        let trace = SearchTrace {
            samples: vec![
                sample(500.0, 10.0, false),
                sample(100.0, 50.0, true),
                sample(100.0, 30.0, false),
            ],
        };
        let series = trace.best_cost_series(200.0);
        assert!(series[0].is_infinite());
        assert!(series[1].is_infinite());
        assert_eq!(series[2], 30.0);
    }

    #[test]
    fn append_moves_samples_in_order() {
        let trace = |costs: &[f64]| SearchTrace {
            samples: costs.iter().map(|&c| sample(1.0, c, false)).collect(),
        };
        let mut a = trace(&[1.0]);
        a.append(trace(&[2.0, 3.0]));
        assert_eq!(a.cost_series(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn validate_slo_rejects_nonsense() {
        assert!(validate_slo(1.0).is_ok());
        assert!(validate_slo(0.0).is_err());
        assert!(validate_slo(-5.0).is_err());
        assert!(validate_slo(f64::NAN).is_err());
        assert!(validate_slo(f64::INFINITY).is_err());
    }
}
