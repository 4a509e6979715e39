//! Table II — average runtime (± standard deviation) and cost of the
//! configurations found by each method, measured over repeated executions
//! with runtime jitter (the paper executes each found configuration 100
//! times).

use aarc_baselines::methods;
use aarc_core::{AarcError, ConfigurationSearch};
use aarc_simulator::metrics::Summary;
use aarc_simulator::{ClusterSpec, ConfigMap, EvalService, WorkflowEnvironment};
use aarc_workloads::{paper_workloads, Workload};

use crate::FIGURE_METHODS;

/// One row of Table II: a (workload, method) pair with its repeated-execution
/// statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalConfigRow {
    /// Workload name.
    pub workload: String,
    /// Method name ([`ConfigurationSearch::name`]).
    pub method: String,
    /// Mean end-to-end runtime in seconds.
    pub runtime_mean_s: f64,
    /// Standard deviation of the runtime in seconds.
    pub runtime_std_s: f64,
    /// Mean billed cost.
    pub cost_mean: f64,
    /// Number of SLO violations observed across the repetitions.
    pub slo_violations: usize,
    /// Number of repetitions.
    pub repetitions: usize,
}

/// Executes `configs` repeatedly (with ±2 % runtime jitter, mimicking
/// measurement noise on the real testbed) and summarises runtime and cost.
///
/// # Errors
///
/// Propagates execution errors.
pub fn evaluate_config(
    env: &WorkflowEnvironment,
    configs: &ConfigMap,
    slo_ms: f64,
    repetitions: usize,
) -> Result<(Summary, Summary, usize), AarcError> {
    let noisy_env_cluster = ClusterSpec::paper_testbed_with_jitter(0.02);
    let mut runtimes_s = Vec::with_capacity(repetitions);
    let mut costs = Vec::with_capacity(repetitions);
    let mut violations = 0;
    for rep in 0..repetitions {
        // Re-seed per repetition so the jitter differs between runs.
        let report = {
            // Rebuild a jittered environment sharing the same workflow and
            // profiles; seeds vary per repetition.
            let env = env.clone();
            let jittered =
                WorkflowEnvironment::builder(env.workflow().clone(), env.profiles().clone())
                    .pricing(*env.pricing())
                    .cluster(noisy_env_cluster)
                    .space(*env.space())
                    .input(env.input())
                    .base_config(env.base_config())
                    .seed(1_000 + rep as u64)
                    .build()?;
            jittered.execute(configs)?
        };
        if !report.meets_slo(slo_ms) {
            violations += 1;
        }
        runtimes_s.push(report.makespan_ms() / 1_000.0);
        costs.push(report.total_cost());
    }
    Ok((Summary::of(&runtimes_s), Summary::of(&costs), violations))
}

/// Produces one Table II row: search once, then execute the found
/// configuration `repetitions` times.
///
/// # Errors
///
/// Propagates search and execution errors.
pub fn measure(
    workload: &Workload,
    method: &dyn ConfigurationSearch,
    repetitions: usize,
) -> Result<OptimalConfigRow, AarcError> {
    measure_on(&EvalService::default(), workload, method, repetitions)
}

/// [`measure`] over a shared [`EvalService`] (see the sibling harnesses).
///
/// # Errors
///
/// Propagates search and execution errors.
pub fn measure_on(
    service: &EvalService,
    workload: &Workload,
    method: &dyn ConfigurationSearch,
    repetitions: usize,
) -> Result<OptimalConfigRow, AarcError> {
    let outcome = method.search_on(&service.register(workload.env().clone()), workload.slo_ms())?;
    let (runtime, cost, violations) = evaluate_config(
        workload.env(),
        &outcome.best_configs,
        workload.slo_ms(),
        repetitions,
    )?;
    Ok(OptimalConfigRow {
        workload: workload.name().to_owned(),
        method: method.name().to_owned(),
        runtime_mean_s: runtime.mean,
        runtime_std_s: runtime.std_dev,
        cost_mean: cost.mean,
        slo_violations: violations,
        repetitions,
    })
}

/// The full Table II (all workloads × all methods).
///
/// # Errors
///
/// Propagates search and execution errors.
pub fn run_all(repetitions: usize) -> Result<Vec<OptimalConfigRow>, AarcError> {
    let service = EvalService::default();
    let mut rows = Vec::new();
    for workload in paper_workloads() {
        for name in FIGURE_METHODS {
            let method = methods::build(name).expect("figure methods are registered");
            rows.push(measure_on(&service, &workload, &*method, repetitions)?);
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aarc_workloads::chatbot;

    fn measure_named(workload: &Workload, name: &str, repetitions: usize) -> OptimalConfigRow {
        measure(workload, &*methods::build(name).unwrap(), repetitions).unwrap()
    }

    #[test]
    fn repeated_executions_meet_the_slo_and_have_small_variance() {
        let wl = chatbot();
        let row = measure_named(&wl, "aarc", 10);
        assert_eq!(row.method, "AARC");
        assert_eq!(row.repetitions, 10);
        assert_eq!(
            row.slo_violations, 0,
            "AARC configurations must stay within the SLO"
        );
        assert!(row.runtime_mean_s > 0.0);
        assert!(
            row.runtime_std_s < 0.1 * row.runtime_mean_s,
            "jitter is only a few percent"
        );
        assert!(row.cost_mean > 0.0);
    }

    #[test]
    fn aarc_row_is_cheaper_than_maff_row_for_chatbot() {
        let wl = chatbot();
        let aarc = measure_named(&wl, "aarc", 5);
        let maff = measure_named(&wl, "maff", 5);
        assert!(aarc.cost_mean < maff.cost_mean);
        assert_eq!(maff.slo_violations, 0);
    }
}
